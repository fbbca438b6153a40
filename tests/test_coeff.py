import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from adjoint_reference import adjoint_coefficients
from neumannlab.coeff import (
    CoefficientField,
    CellwiseRandom,
    Identity,
    ScalarCheckerboard,
    SkewPerturbed,
    SmoothVMO,
    make_coefficient,
    verify_ellipticity_bounds,
)
from neumannlab.errors import (
    InterfaceError,
    NonEllipticFieldError,
    NonEllipticSpecError,
    NumericFailureError,
)

RNG = np.random.default_rng(0)
POINTS = RNG.uniform(0.0, 1.0, (30, 3))


class TestMakeCoefficient:
    def test_identity(self):
        fld = make_coefficient(Identity())
        lam, bound = verify_ellipticity_bounds(fld, POINTS)
        assert lam == 1.0
        assert bound == 1.0

    def test_checkerboard_bounds(self):
        fld = make_coefficient(ScalarCheckerboard(10.0))
        lam, bound = verify_ellipticity_bounds(fld, POINTS)
        assert_allclose(lam, 1.0)
        assert_allclose(bound, 10.0)

    def test_checkerboard_values_two_phase(self):
        fld = make_coefficient(ScalarCheckerboard(10.0, cell=0.25))
        vals = fld.evaluate(POINTS)[:, 0, 0, 0, 0]
        assert set(np.round(vals, 12)) <= {1.0, 10.0}

    def test_checkerboard_piecewise_constant(self):
        fld = make_coefficient(ScalarCheckerboard(7.0, cell=0.5))
        inside = np.array([[0.1, 0.1, 0.1], [0.4, 0.45, 0.3], [0.26, 0.12, 0.44]])
        vals = fld.evaluate(inside)[:, 0, 0, 0, 0]
        assert np.all(vals == vals[0])

    def test_skew_quadratic_form_unchanged(self):
        base = make_coefficient(ScalarCheckerboard(3.0))
        sk = make_coefficient(SkewPerturbed(ScalarCheckerboard(3.0), 0.5))
        xi = RNG.standard_normal((5, 3))
        mb = base.matrices(POINTS)
        ms = sk.matrices(POINTS)
        qb = np.einsum("pa,nab,pb->np", xi, mb, xi)
        qs = np.einsum("pa,nab,pb->np", xi, ms, xi)
        assert_allclose(qs, qb, atol=1e-12)

    def test_skew_keeps_base_lambda(self):
        sk = make_coefficient(SkewPerturbed(Identity(), 0.5))
        lam, _ = verify_ellipticity_bounds(sk, POINTS)
        assert_allclose(lam, 1.0, atol=1e-12)

    def test_smooth_bounds(self):
        fld = make_coefficient(SmoothVMO(1.0, 0.3))
        lam, bound = verify_ellipticity_bounds(fld, POINTS)
        assert lam >= 0.7 - 1e-12
        assert bound <= 1.3 + 1e-12

    @pytest.mark.parametrize(
        "spec",
        [
            ScalarCheckerboard(0.5),
            ScalarCheckerboard(np.inf),
            CellwiseRandom(-1.0, 2.0),
            CellwiseRandom(2.0, 1.0),
            SmoothVMO(1.0, 1.2),
            SmoothVMO(1.0, np.nan),
            SkewPerturbed(Identity(), -0.5),
            # a non-finite cell size maps every point to one lattice index
            ScalarCheckerboard(10.0, cell=np.nan),
            CellwiseRandom(0.5, 2.0, cell=np.nan),
            SkewPerturbed(Identity(), 0.5, cell=np.inf),
            CellwiseRandom(np.nan, 2.0),
            CellwiseRandom(0.5, np.inf),
        ],
    )
    def test_invalid_specs_rejected(self, spec):
        with pytest.raises(NonEllipticSpecError):
            make_coefficient(spec)


class TestCellwiseRandom:
    def test_bounds_hold_by_construction(self):
        fld = make_coefficient(CellwiseRandom(0.5, 3.0, seed=7))
        lam, bound = verify_ellipticity_bounds(fld, POINTS)
        assert lam >= 0.5 - 1e-12
        assert bound <= 3.0 + 1e-12

    def test_bit_reproducible_across_instances(self):
        a = make_coefficient(CellwiseRandom(0.5, 3.0, seed=42))
        b = make_coefficient(CellwiseRandom(0.5, 3.0, seed=42))
        assert np.array_equal(a.evaluate(POINTS), b.evaluate(POINTS))

    def test_evaluation_order_independent(self):
        fld = make_coefficient(CellwiseRandom(0.5, 3.0, seed=1))
        forward = fld.evaluate(POINTS)
        fld2 = make_coefficient(CellwiseRandom(0.5, 3.0, seed=1))
        backward = fld2.evaluate(POINTS[::-1])[::-1]
        assert np.array_equal(forward, backward)

    def test_seed_changes_field(self):
        a = make_coefficient(CellwiseRandom(0.5, 3.0, seed=1))
        b = make_coefficient(CellwiseRandom(0.5, 3.0, seed=2))
        assert not np.array_equal(a.evaluate(POINTS), b.evaluate(POINTS))


CELL_SEEDED = [CellwiseRandom(0.5, 2.0, seed=3, m=2), SkewPerturbed(Identity(m=2), 0.5, seed=3)]


class TestNegativeCells:
    # a point in lattice cell (1, 2, 0) at cell size 0.25 and its mirror in (-2, 2, 0)
    POINT = np.array([[0.3, 0.6, 0.1]])
    MIRROR = np.array([[-0.3, 0.6, 0.1]])

    @pytest.mark.parametrize("spec", CELL_SEEDED, ids=["cellwise-random", "skew"])
    def test_mirrored_cells_differ(self, spec):
        fld = make_coefficient(spec)
        a, b = fld.evaluate(self.POINT), fld.evaluate(self.MIRROR)
        assert np.abs(a - b).max() > 1e-3
        lam, bound = verify_ellipticity_bounds(fld, self.MIRROR)
        assert lam >= fld.lam - 1e-12 and bound <= fld.bound + 1e-12

    @pytest.mark.parametrize(
        "spec, flat_index, expected",
        [
            (
                CELL_SEEDED[0],
                [0, 5, 17, 30],
                [1.3105227776614636, -0.29855502948875345, -0.12922418706364952, 0.05768207306295864],
            ),
            (
                CELL_SEEDED[1],
                [1, 5, 17, 30],
                [-0.05209687835319575, -0.06295928601006984, 0.18717212957374257, -0.1563069698157209],
            ),
        ],
        ids=["cellwise-random", "skew"],
    )
    def test_nonnegative_cell_unchanged(self, spec, flat_index, expected):
        # values drawn with the seed tuple (seed, tag, i, j, k) before negative cells were encoded
        values = make_coefficient(spec).evaluate(self.POINT).ravel()[flat_index]
        assert values.tolist() == expected


class TestCellRange:
    # lattice cell indices are exact in float64 only below 2^53 cells

    @pytest.mark.parametrize(
        "spec",
        [
            ScalarCheckerboard(10.0, cell=1e-300),
            CellwiseRandom(0.5, 2.0, cell=1e-300),
            SkewPerturbed(Identity(), 0.5, cell=1e-300),
        ],
        ids=["checkerboard", "cellwise-random", "skew"],
    )
    def test_tiny_cell_is_numeric_failure(self, spec):
        with pytest.raises(NumericFailureError, match="2\\^53"):
            make_coefficient(spec).evaluate(POINTS)

    def test_indices_exact_below_the_limit(self):
        fld = make_coefficient(ScalarCheckerboard(10.0, cell=1.0))
        top = 2.0**53 - 1  # odd: the contrast phase
        vals = fld.evaluate(np.array([[top, 0, 0], [top - 1, 0, 0], [-top, 0, 0]]))
        assert vals[:, 0, 0, 0, 0].tolist() == [10.0, 1.0, 10.0]
        with pytest.raises(NumericFailureError):
            fld.evaluate(np.array([[2.0**53, 0, 0]]))


class TestAdjoint:
    @pytest.mark.parametrize(
        "spec",
        [
            Identity(),
            Identity(m=2),
            ScalarCheckerboard(4.0),
            SkewPerturbed(ScalarCheckerboard(4.0), 0.5),
            CellwiseRandom(0.5, 2.0, seed=3, m=2),
        ],
    )
    def test_adjoint_transposes_indices(self, spec):
        fld = make_coefficient(spec)
        adj = adjoint_coefficients(fld)
        a = fld.evaluate(POINTS)
        at = adj.evaluate(POINTS)
        assert_allclose(at, a.transpose(0, 2, 1, 4, 3), atol=0)

    def test_involution_returns_base(self):
        fld = make_coefficient(SkewPerturbed(Identity(), 0.5))
        assert adjoint_coefficients(adjoint_coefficients(fld)) is fld

    def test_identity_self_adjoint(self):
        fld = make_coefficient(Identity())
        adj = adjoint_coefficients(fld)
        assert_allclose(adj.evaluate(POINTS), fld.evaluate(POINTS))

    def test_skew_part_negated(self):
        fld = make_coefficient(SkewPerturbed(Identity(), 0.5))
        adj = adjoint_coefficients(fld)
        total = fld.matrices(POINTS) + adj.matrices(POINTS)
        assert_allclose(total, total.transpose(0, 2, 1), atol=1e-14)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(1, 3), st.floats(0.0, 2.0))
    def test_quadratic_forms_agree(self, m, amp):
        fld = make_coefficient(SkewPerturbed(Identity(m=m), amp))
        adj = adjoint_coefficients(fld)
        xi = np.random.default_rng(m).standard_normal((4, 3 * m))
        q1 = np.einsum("pa,nab,pb->np", xi, fld.matrices(POINTS[:5]), xi)
        q2 = np.einsum("pa,nab,pb->np", xi, adj.matrices(POINTS[:5]), xi)
        assert_allclose(q1, q2, atol=1e-10)


def test_verify_rejects_non_elliptic():
    fld = make_coefficient(Identity())
    fld.lam = 2.0  # misdeclared: measured lambda is 1
    with pytest.raises(NonEllipticFieldError):
        verify_ellipticity_bounds(fld, POINTS)



def test_evaluate_rejects_wrong_output_shape():
    fld = CoefficientField(Identity(), 1, 1.0, 1.0, lambda pts: np.zeros((len(pts), 3, 3)))
    with pytest.raises(InterfaceError):
        fld.evaluate(POINTS[:4])


def test_evaluate_rejects_non_finite_output():
    fld = CoefficientField(Identity(), 1, 1.0, 1.0, lambda pts: np.full((len(pts), 3, 3, 1, 1), np.inf))
    with pytest.raises(NumericFailureError, match="non-finite"):
        fld.evaluate(POINTS[:4])
