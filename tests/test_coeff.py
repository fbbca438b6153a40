import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from adjoint_reference import adjoint_coefficients
from neumannlab.coeff import (
    D,
    CoefficientField,
    CellwiseRandom,
    Identity,
    ScalarCheckerboard,
    SkewPerturbed,
    SmoothVMO,
    _cell_draws,
    _cell_index,
    _identity_tensor,
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
            # fewer than one component
            Identity(m=0),
            Identity(m=-1),
            ScalarCheckerboard(10.0, m=-2),
            CellwiseRandom(0.5, 2.0, m=0),
            SmoothVMO(m=0),
            SkewPerturbed(ScalarCheckerboard(10.0, m=0), 0.5),
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
                [1.0701227842879575, -0.29455623141013126, -0.10881883194230557, -0.10566831674758925],
            ),
            (
                CELL_SEEDED[1],
                [1, 5, 17, 30],
                [-0.0997921532007363, -0.1212929046908982, -0.18527699815356213, 0.22551349222036987],
            ),
        ],
        ids=["cellwise-random", "skew"],
    )
    def test_nonnegative_cell_unchanged(self, spec, flat_index, expected):
        # the counter-based draws of cell (1, 2, 0): any change to the hash moves them
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


@pytest.mark.parametrize(
    "scale, lam, bound, message",
    [(-1.0, 0.5, 1.0, "field is not elliptic: lambda_est=-1.0"),
     (2.0, 1.0, 1.5, "measured bound 2.0 exceeds declared M 1.5")],
    ids=["lambda-not-positive", "bound-exceeded"],
)
def test_verify_names_the_violated_hypothesis(scale, lam, bound, message):
    # the exact eigenvalue and spectral-norm checks are the whole verification
    fld = CoefficientField(
        1, lam, bound,
        lambda pts: np.broadcast_to(scale * _identity_tensor(1), (len(pts), 3, 3, 1, 1)),
    )
    with pytest.raises(NonEllipticFieldError) as err:
        verify_ellipticity_bounds(fld, POINTS)
    assert str(err.value) == message


def test_evaluate_rejects_wrong_output_shape():
    fld = CoefficientField(1, 1.0, 1.0, lambda pts: np.zeros((len(pts), 3, 3)))
    with pytest.raises(InterfaceError):
        fld.evaluate(POINTS[:4])


def test_evaluate_rejects_non_finite_output():
    fld = CoefficientField(1, 1.0, 1.0, lambda pts: np.full((len(pts), 3, 3, 1, 1), np.inf))
    with pytest.raises(NumericFailureError, match="non-finite"):
        fld.evaluate(POINTS[:4])


# points at negative coordinates, and points exactly on the faces, edges and
# corners of 0.25-cells (a checkerboard's parity changes across each)
SIGNED_POINTS = np.concatenate(
    [
        np.random.default_rng(4).uniform(-1.5, 1.5, (200, 3)),
        0.25 * np.random.default_rng(5).integers(-6, 7, (40, 3)),
        [[0.25, 0.1, -0.3], [-0.5, -0.25, 0.0], [0.0, 0.0, 0.0]],
    ]
)


def scalar_reference(spec, pts):
    """The scalar value of an Identity, ScalarCheckerboard or SmoothVMO field, as a sum
    over the index columns and a product with the identity tensor."""
    if isinstance(spec, Identity):
        vals = np.ones(len(pts))
    elif isinstance(spec, ScalarCheckerboard):
        parity = (_cell_index(pts, spec.cell).sum(axis=1) + spec.seed) % 2
        vals = np.where(parity == 0, 1.0, float(spec.contrast))
    else:
        vals = 1.0 + spec.amplitude * np.prod(np.sin(2 * np.pi * spec.frequency * pts), axis=1)
    return vals[:, None, None, None, None] * _identity_tensor(spec.m)


class TestScalarFields:
    @pytest.mark.parametrize("m", [1, 2, 3])
    @pytest.mark.parametrize(
        "make",
        [
            lambda m: Identity(m=m),
            lambda m: ScalarCheckerboard(10.0, m=m),
            lambda m: ScalarCheckerboard(7.0, cell=0.5, seed=1, m=m),
            lambda m: SmoothVMO(1.5, 0.4, m=m),
        ],
        ids=["identity", "checkerboard", "checkerboard-seed1", "smooth"],
    )
    def test_equal_to_scalar_times_identity(self, make, m):
        spec = make(m)
        got = make_coefficient(spec).evaluate(SIGNED_POINTS)
        assert np.array_equal(got, scalar_reference(spec, SIGNED_POINTS))

    def test_both_phases_on_face_points(self):
        vals = make_coefficient(ScalarCheckerboard(10.0)).evaluate(SIGNED_POINTS[200:])
        assert set(vals[:, 0, 0, 0, 0]) == {1.0, 10.0}

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_non_finite_value_raises(self, m):
        with pytest.raises(NumericFailureError, match="non-finite"):
            make_coefficient(SmoothVMO(np.nan, 0.5, m=m)).evaluate(SIGNED_POINTS)


def cell_draw_reference(spec, pts):
    """A CellwiseRandom or SkewPerturbed field's per-cell matrices, each point's
    cell drawn alone through _cell_draws, for the (n, 3) points."""
    out = []
    for key in _cell_index(pts, spec.cell):
        if isinstance(spec, CellwiseRandom):
            md = D * spec.m
            _, g, u = _cell_draws(key[None], spec.seed, 0x5EED, md * md, md)
            q, _ = np.linalg.qr(g.reshape(md, md))
            eigs = spec.lam_target + (spec.m_target - spec.lam_target) * u[0]
            mat = (q * eigs) @ q.T
            out.append(0.5 * (mat + mat.T))
        else:
            md = D * spec.base.m
            _, g, _ = _cell_draws(key[None], spec.seed, 0xA5CE, md * md)
            s = g.reshape(md, md) - g.reshape(md, md).T
            out.append(s / np.linalg.norm(s, 2))
    return np.stack(out)


class TestCellDraws:
    # cells 2^42 apart with negative indices, and cells 2^32 apart, in units of the cell
    FAR = np.array([[-(2.0**40), 0.5, 0.5], [2.0**40, 2.0**40, -(2.0**40)], [0.5, 0.5, 0.5]])
    WRAP = np.array([[0.5, 0.5, 0.5], [1.5, 2.0**32 - 0.5, 2.0**32 - 0.5], [1.5, 0.5, 0.5]])

    @pytest.mark.parametrize("m", [1, 2, 3])
    @pytest.mark.parametrize("kind", ["cellwise-random", "skew"])
    def test_equal_to_per_cell_draws(self, kind, m):
        if kind == "cellwise-random":
            spec = CellwiseRandom(0.5, 3.0, cell=0.25, seed=11, m=m)
        else:
            spec = SkewPerturbed(Identity(m=m), 0.5, cell=0.25, seed=11)
        fld = make_coefficient(spec)
        for pts in (SIGNED_POINTS, SIGNED_POINTS[::-3], 0.25 * self.FAR, 0.25 * self.WRAP):
            want = cell_draw_reference(spec, pts)
            if kind == "skew":
                want = np.eye(D * m) + spec.amplitude * want
            got = fld.matrices(pts)
            assert np.array_equal(got, want)
        assert not np.array_equal(got[0], got[2])
        # a batch, its two halves and its reversal, on a second instance of the spec
        pts = np.concatenate([SIGNED_POINTS, 0.25 * self.FAR, 0.25 * self.WRAP])
        whole = fld.matrices(pts)
        fld = make_coefficient(spec)
        assert np.array_equal(np.concatenate([fld.matrices(pts[:101]), fld.matrices(pts[101:])]), whole)
        assert np.array_equal(fld.matrices(pts[::-1])[::-1], whole)

    @pytest.mark.parametrize("seed", [0, 7, 2**63, 2**70])
    def test_uniforms_equal_python_int_hash(self, seed):
        # the chain and the slots in unbounded Python ints, reduced mod 2^64 by hand
        def mix(z):
            z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) % 2**64
            z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) % 2**64
            return z ^ (z >> 31)

        gamma = 0x9E3779B97F4A7C15
        cells = [[0, 0, 0], [-1, 2**40, 5], [2**32, -(2**52), -7]]
        words = [seed % 2**64] + ([seed >> 64] if seed >= 2**64 else [])
        inv, _, u = _cell_draws(np.array(cells), seed, 0x5EED, 0, 3)
        for cell, got in zip(cells, u[inv]):
            key = 0
            for v in words + [0x5EED] + [c % 2**64 for c in cell]:
                key = mix(((key ^ v) + gamma) % 2**64)
            want = [((mix((key + s * gamma) % 2**64) >> 11) | 1) / 2**53 for s in (1, 2, 3)]
            assert got.tolist() == want


class TestDrawStatistics:
    # 47^3 > 10^5 cells around the origin, negative indices included
    CELLS = np.stack(np.meshgrid(*3 * [np.arange(-23, 24)], indexing="ij"), axis=-1)
    N = CELLS[..., 0].size

    @pytest.fixture(scope="class")
    def draws(self):
        inv, g, u = _cell_draws(self.CELLS.reshape(-1, 3), 1, 0x5EED, 9, 3)
        # every cell is distinct: inv puts the draws back on the lattice
        assert len(g) == self.N
        return g[inv].reshape(self.CELLS.shape[:3] + (9,)), u[inv].reshape(self.CELLS.shape[:3] + (3,))

    def test_uniforms_strictly_inside(self, draws):
        u = draws[1]
        assert u.min() > 0.0 and u.max() < 1.0

    @pytest.mark.parametrize("which, mean, var, mu4", [(0, 0.0, 1.0, 3.0), (1, 0.5, 1 / 12, 1 / 80)])
    def test_slot_moments(self, draws, which, mean, var, mu4):
        x = draws[which].reshape(self.N, -1)
        # four standard errors of the sample mean and of the sample variance
        assert np.all(np.abs(x.mean(axis=0) - mean) < 4 * np.sqrt(var / self.N))
        assert np.all(np.abs(x.var(axis=0) - var) < 4 * np.sqrt((mu4 - var**2) / self.N))

    @pytest.mark.parametrize("which", [0, 1])
    @pytest.mark.parametrize("axis", [0, 1, 2])
    def test_adjacent_cells_uncorrelated(self, draws, which, axis):
        x = draws[which]
        a = np.moveaxis(x, axis, 0)[:-1].reshape(-1, x.shape[-1])
        b = np.moveaxis(x, axis, 0)[1:].reshape(-1, x.shape[-1])
        a, b = a - a.mean(axis=0), b - b.mean(axis=0)
        corr = (a * b).mean(axis=0) / (a.std(axis=0) * b.std(axis=0))
        assert np.all(np.abs(corr) < 4 / np.sqrt(len(a)))

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_eigenvalues_within_targets(self, m):
        spec = CellwiseRandom(0.5, 3.0, cell=0.25, seed=2, m=m)
        pts = np.random.default_rng(3).uniform(-4.0, 4.0, (4000, 3))
        eigs = np.linalg.eigvalsh(make_coefficient(spec).matrices(pts))
        assert eigs.min() >= 0.5 - 1e-12 and eigs.max() <= 3.0 + 1e-12


#: the random fields the test suite builds, with a sample of the seeds its property tests draw
RANDOM_SPECS = [
    CellwiseRandom(lam, bound, seed=seed, m=m)
    for lam, bound in [(0.5, 2.0), (0.5, 3.0)]
    for seed in [1, 2, 3, 4, 5, 7, 42]
    for m in [1, 2, 3]
] + [
    SkewPerturbed(base, amplitude, seed=seed)
    for base, seed in [
        *[(ScalarCheckerboard(c, seed=s, m=m), s) for c in (3.0, 4.0, 10.0)
          for s in [0, 1, 2, 3, 4, 5, 2**16] for m in [1, 2, 3]],
        *[(Identity(m=m), s) for s in [0, 3, 11] for m in [1, 2, 3]],
        (CellwiseRandom(0.5, 3.0, seed=4, m=3), 4),
    ]
    for amplitude in [0.4, 0.5]
]


def test_every_random_field_is_elliptic():
    pts = np.concatenate([SIGNED_POINTS, np.random.default_rng(6).uniform(0.0, 1.0, (200, 3))])
    for spec in RANDOM_SPECS:
        fld = make_coefficient(spec)
        lam, bound = verify_ellipticity_bounds(fld, pts)
        assert lam >= fld.lam - 1e-12 and bound <= fld.bound + 1e-12


def verify_reference(fld, sample_points):
    """verify_ellipticity_bounds one sample at a time: lambda_est and M_est."""
    mats = fld.matrices(sample_points)
    sym = 0.5 * (mats + mats.transpose(0, 2, 1))
    lam_est = float(np.linalg.eigvalsh(sym)[:, 0].min())
    m_est = float(max(np.linalg.norm(m, 2) for m in mats))
    return lam_est, m_est


@pytest.mark.parametrize(
    "spec",
    [
        ScalarCheckerboard(10.0),
        SkewPerturbed(ScalarCheckerboard(10.0, m=3), 0.5, seed=2),
        CellwiseRandom(0.5, 2.0, seed=3, m=2),
    ],
    ids=["checkerboard", "skew-m3", "cellwise-random-m2"],
)
def test_verify_equal_to_per_sample_loop(spec):
    fld = make_coefficient(spec)
    pts = np.random.default_rng(9).uniform(-1.0, 1.0, (64, 3))
    assert verify_ellipticity_bounds(fld, pts) == verify_reference(fld, pts)
