import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from neumannlab.coeff import (
    CoefficientField,
    Identity,
    ScalarCheckerboard,
    SkewPerturbed,
    make_coefficient,
)
from neumannlab.discretize import (
    boundary_mean,
    boundary_weight_vector,
    gradient_l2_norm,
    interpolate,
    l2_error,
    l2_norm,
)
from neumannlab.errors import CompatibilityError, InterfaceError, NumericFailureError
from neumannlab.mesh import build_box_mesh, build_truncated_graph_mesh
from neumannlab.oracle import halfspace_neumann
from neumannlab.solve import (
    NeumannSolver,
    SolveConfig,
    check_compatibility,
    solve_neumann_bounded,
    solve_neumann_graph,
)


def cosine_problem():
    f = lambda p: (np.pi**2 * np.cos(np.pi * p[:, 0]))[:, None]
    exact = lambda p: np.cos(np.pi * p[:, 0])
    return f, exact


class TestCompatibility:
    def test_zero_data(self, unit_cube_8):
        assert_allclose(check_compatibility(unit_cube_8, None, None), [0.0])

    def test_balanced_pair(self, unit_cube_8):
        r = check_compatibility(
            unit_cube_8,
            lambda p: np.ones((len(p), 1)),
            lambda p: np.full((len(p), 1), -1.0 / 6.0),
        )
        assert_allclose(r, [0.0], atol=1e-13)

    def test_unbalanced(self, unit_cube_8):
        r = check_compatibility(unit_cube_8, lambda p: np.ones((len(p), 1)), None)
        assert_allclose(r, [1.0], rtol=1e-12)

    def test_incompatible_rejected_with_residual(self, unit_cube_8, identity_field, solve_config):
        with pytest.raises(CompatibilityError) as err:
            solve_neumann_bounded(
                unit_cube_8, identity_field, lambda p: np.ones((len(p), 1)), None, solve_config
            )
        assert_allclose(err.value.residual, [1.0], rtol=1e-12)

    def test_compatible_accepted(self, unit_cube_8, identity_field, solve_config):
        u = solve_neumann_bounded(
            unit_cube_8,
            identity_field,
            lambda p: np.ones((len(p), 1)),
            lambda p: np.full((len(p), 1), -1.0 / 6.0),
            solve_config,
        )
        assert np.all(np.isfinite(u.values))


    @pytest.mark.parametrize("rel, compatible", [(2e-6, False), (5e-7, True)])
    def test_threshold_relative_to_l1_size(self, unit_cube_8, identity_field, rel, compatible):
        # int f = 1 and int g = -(1 - d): residual d over L1 size 2 - d is rel
        d = 2 * rel / (1 + rel)
        f = lambda p: np.ones((len(p), 1))
        g = lambda p: np.full((len(p), 1), -(1 - d) / 6)
        if compatible:
            u = solve_neumann_bounded(unit_cube_8, identity_field, f, g)
            assert_allclose(u.info.multiplier, [d / 6], rtol=1e-8)
        else:
            with pytest.raises(CompatibilityError) as err:
                solve_neumann_bounded(unit_cube_8, identity_field, f, g)
            assert_allclose(err.value.residual, [d], rtol=1e-8)

    def test_data_evaluated_once(self, unit_cube_8, identity_field):
        calls = []

        def counted(value):
            def density(p):
                calls.append(len(p))
                return np.full((len(p), 1), value)

            return density

        solve_neumann_bounded(unit_cube_8, identity_field, counted(1.0), counted(-1.0 / 6))
        assert len(calls) == 2


class TestBoundedSolve:
    def test_zero_data_gives_zero(self, unit_cube_8, identity_field, solve_config):
        u = solve_neumann_bounded(unit_cube_8, identity_field, None, None, solve_config)
        assert_allclose(u.values, 0.0)

    def test_manufactured_cosine_convergence(self, identity_field, solve_config):
        f, exact = cosine_problem()
        errs = {}
        for n in (8, 16):
            mesh = build_box_mesh((1, 1, 1), n)
            u = solve_neumann_bounded(mesh, identity_field, f, None, solve_config)
            errs[n] = l2_error(u, exact)
            assert np.abs(boundary_mean(u)).max() < 10 * solve_config.tolerance
        ratio = errs[8] / errs[16]
        assert 3.4 <= ratio <= 4.6

    def test_uniqueness_bit_identical(self, unit_cube_8, checkerboard_field, solve_config):
        f, _ = cosine_problem()
        a = solve_neumann_bounded(unit_cube_8, checkerboard_field, f, None, solve_config)
        b = solve_neumann_bounded(unit_cube_8, checkerboard_field, f, None, solve_config)
        assert np.array_equal(a.values, b.values)

    def test_linearity(self, unit_cube_8, checkerboard_field, solve_config):
        f1 = lambda p: np.cos(np.pi * p[:, :1])
        f2 = lambda p: np.cos(2 * np.pi * p[:, 1:2]) * np.cos(np.pi * p[:, :1])
        fsum = lambda p: f1(p) + f2(p)
        u1 = solve_neumann_bounded(unit_cube_8, checkerboard_field, f1, None, solve_config)
        u2 = solve_neumann_bounded(unit_cube_8, checkerboard_field, f2, None, solve_config)
        u12 = solve_neumann_bounded(unit_cube_8, checkerboard_field, fsum, None, solve_config)
        diff = l2_norm(u12 - (u1 + u2))
        assert diff <= 2 * solve_config.tolerance * max(l2_norm(u12), 1.0)

    def test_energy_bound_stable_under_refinement(self, identity_field, solve_config):
        # ||Du|| / ||f||_{L^{6/5}} stays bounded across refinements
        f, _ = cosine_problem()
        ratios = []
        for n in (6, 12):
            mesh = build_box_mesh((1, 1, 1), n)
            u = solve_neumann_bounded(mesh, identity_field, f, None, solve_config)
            pts_f = np.abs(f(mesh.cell_centers())[:, 0]) ** 1.2
            f_norm = (pts_f.sum() * mesh.h**3) ** (1 / 1.2)
            ratios.append(gradient_l2_norm(u) / f_norm)
        assert abs(ratios[1] - ratios[0]) / ratios[0] < 0.05

    def test_nonsymmetric_coefficients(self, unit_cube_8, solve_config):
        fld = make_coefficient(SkewPerturbed(ScalarCheckerboard(4.0), 0.5))
        f, _ = cosine_problem()
        u = solve_neumann_bounded(unit_cube_8, fld, f, None, solve_config)
        assert u.info.residual < 1e-10
        assert np.abs(boundary_mean(u)).max() < 1e-10

    def test_vector_system(self, unit_cube_8, solve_config):
        fld = make_coefficient(Identity(m=2))
        f = lambda p: np.stack(
            [np.pi**2 * np.cos(np.pi * p[:, 0]), -2 * np.pi**2 * np.cos(np.pi * p[:, 1])], axis=1
        )
        u = solve_neumann_bounded(unit_cube_8, fld, f, None, solve_config)
        assert u.m == 2
        assert np.abs(boundary_mean(u)).max() < 1e-10


class TestConstraintMethods:
    def test_krylov_matches_direct(self, identity_field):
        mesh = build_box_mesh((1, 1, 1), 6)
        f, _ = cosine_problem()
        direct = solve_neumann_bounded(mesh, identity_field, f, None, SolveConfig())
        kry = solve_neumann_bounded(
            mesh, identity_field, f, None, SolveConfig(linear_solver="krylov", tolerance=1e-12)
        )
        assert l2_norm(direct - kry) < 1e-8

    def test_invalid_config_rejected(self):
        with pytest.raises(ValueError):
            SolveConfig(tolerance=2.0)
        with pytest.raises(ValueError):
            SolveConfig(linear_solver="magic")

    def test_singular_factor_is_numeric_failure(self, unit_cube_8, identity_field):
        solver = NeumannSolver(unit_cube_8, identity_field, SolveConfig())
        solver._block = sp.csc_matrix(solver._block.shape)  # SuperLU: exactly singular
        with pytest.raises(NumericFailureError, match="factorization"):
            solver.solve_bounded(np.zeros(solver.n_dof))

    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(0, 2**16),
        contrast=st.floats(1.0, 100.0),
        m=st.sampled_from([1, 2, 3]),
        amplitude=st.floats(0.0, 0.5),
        n=st.integers(4, 6),
    )
    @example(seed=1, contrast=100.0, m=1, amplitude=0.0, n=6)  # CG path
    @example(seed=2, contrast=100.0, m=3, amplitude=0.5, n=6)  # GMRES path
    def test_closed_form_matches_bordered_system(self, seed, contrast, m, amplitude, n):
        """The closed-form multiplier path reproduces the bordered (Lagrange) solve."""
        mesh = build_box_mesh((1, 1, 1), n)
        spec = SkewPerturbed(ScalarCheckerboard(contrast, seed=seed, m=m), amplitude, seed=seed)
        fld = make_coefficient(spec)
        solver = NeumannSolver(mesh, fld, SolveConfig(tolerance=1e-12))
        load = np.random.default_rng(seed).standard_normal(solver.n_dof)
        u, info = solver.solve_bounded(load)

        # reference: K u + B^T mu = F, B u = 0 with B the boundary-trace rows
        b = boundary_weight_vector(mesh)
        B = sp.kron(sp.csr_matrix(b[None, :]), sp.identity(m)).tocsr()
        K = solver.stiffness.matrix
        bordered = sp.bmat([[K, B.T], [B, None]], format="csc")
        x = spla.splu(bordered).solve(np.concatenate([load, np.zeros(m)]))
        u_ref, mu_ref = x[:-m], x[-m:]

        assert np.linalg.norm(u - u_ref) <= 1e-10 * np.linalg.norm(u_ref)
        scale = np.abs(load).sum() / b.sum()
        assert np.abs(info.multiplier - mu_ref).max() <= 1e-12 * scale
        closed = load.reshape(-1, m).sum(axis=0) / b.sum()
        assert np.abs(info.multiplier - closed).max() <= 1e-12 * scale
        mean = (b @ u.reshape(-1, m)) / b.sum()
        assert np.abs(mean).max() <= 1e-12 * np.abs(u).max()

        krylov = NeumannSolver(mesh, fld, SolveConfig(linear_solver="krylov", tolerance=1e-12))
        uk, _ = krylov.solve_bounded(load)
        assert np.linalg.norm(uk - u) <= 1e-8 * np.linalg.norm(u)


class TestBlockSolves:
    MESHES = {
        "bounded": build_box_mesh((1, 1, 1), 4),
        "graph": build_truncated_graph_mesh(
            lambda x, y: np.zeros_like(x), 0.0, ((0, 0, 0), (1, 1, 1)), 0.25
        ),
    }

    @settings(max_examples=20, deadline=None)
    @given(
        seed=st.integers(0, 2**16),
        m=st.sampled_from([1, 2]),
        amplitude=st.sampled_from([0.0, 0.5]),
        r=st.integers(1, 4),
        mode=st.sampled_from(["bounded", "graph"]),
        linear_solver=st.sampled_from(["direct", "krylov"]),
    )
    @example(seed=1, m=2, amplitude=0.5, r=3, mode="bounded", linear_solver="krylov")  # GMRES
    @example(seed=2, m=1, amplitude=0.0, r=4, mode="graph", linear_solver="krylov")  # CG
    def test_block_equals_column_solves(self, seed, m, amplitude, r, mode, linear_solver):
        mesh = self.MESHES[mode]
        spec = SkewPerturbed(ScalarCheckerboard(10.0, seed=seed, m=m), amplitude, seed=seed)
        solver = NeumannSolver(
            mesh, make_coefficient(spec), SolveConfig(linear_solver=linear_solver, tolerance=1e-12)
        )
        solve = solver.solve_graph if mesh.is_graph else solver.solve_bounded
        loads = np.random.default_rng(seed).standard_normal((solver.n_dof, r))
        U, info = solve(loads)
        assert U.shape == loads.shape
        assert info.residuals.shape == info.iterations.shape == (r,)
        for j in range(r):
            u, one = solve(loads[:, j])
            assert np.linalg.norm(U[:, j] - u) <= 1e-12 * np.linalg.norm(u)
            assert info.iterations[j] == one.iterations[0]
            assert info.residuals[j] <= 1e-9
            if not mesh.is_graph:
                scale = np.abs(loads[:, j]).sum()
                assert np.abs(info.multiplier[:, j] - one.multiplier).max() <= 1e-12 * scale


class TestNonFiniteCoefficients:
    @pytest.mark.parametrize("linear_solver", ["direct", "krylov"])
    def test_nan_field_is_numeric_failure(self, linear_solver):
        def ev(p):
            a = np.zeros((len(p), 3, 3, 1, 1))
            a[:, [0, 1, 2], [0, 1, 2]] = np.where(p[:, 0] > 0.5, np.nan, 1.0)[:, None, None, None]
            a[:, 0, 1] = 0.1  # not symmetric: the Krylov path would be GMRES
            return a

        fld = CoefficientField(Identity(), 1, 0.5, 2.0, ev)
        f, _ = cosine_problem()
        mesh = build_box_mesh((1, 1, 1), 4)
        with pytest.raises(NumericFailureError, match="non-finite"):
            solve_neumann_bounded(mesh, fld, f, None, SolveConfig(linear_solver=linear_solver))


class TestGraphSolve:
    def test_zero_data(self, flat_graph_12, identity_field, solve_config):
        u = solve_neumann_graph(flat_graph_12, identity_field, None, solve_config)
        assert_allclose(u.values, 0.0)

    def test_far_boundary_zero_and_graph_free(self, identity_field, solve_config):
        mesh = build_truncated_graph_mesh(
            lambda x, y: np.zeros_like(x), 0.0, ((0, 0, 0), (4, 4, 4)), 0.25
        )

        def bump(p):
            r2 = ((p - np.array([2.0, 2.0, 0.75])) ** 2).sum(axis=1)
            return np.maximum(0.0, 1.0 - r2 / 0.25)[:, None]

        u = solve_neumann_graph(mesh, identity_field, bump, solve_config)
        assert np.abs(u.values[mesh.far_nodes]).max() == 0.0
        assert u.flags == ()

    def test_halfspace_truncation_error_shrinks_with_box(self, identity_field, solve_config):
        # Dirichlet truncation error decays like 1/L; the tight 10% bound runs
        # at production size in the acceptance suite
        h = 1.0 / 6.0
        y = np.array([0.0, 0.0, 4 * h])
        probes = np.array([[0.7, 0.0, 0.35], [0.0, 0.0, 1.5]])

        def run(L):
            mesh = build_truncated_graph_mesh(
                lambda x, yy: np.zeros_like(x), 0.0,
                ((-L / 2, -L / 2, 0), (L / 2, L / 2, L)), h,
            )
            eps = 2 * h

            def bump(p):
                r2 = ((p - y) ** 2).sum(axis=1) / eps**2
                vals = np.where(r2 < 1, (1 - np.minimum(r2, 1)) ** 2, 0.0)
                return (vals * 105 / (32 * np.pi) / eps**3)[:, None]

            u = solve_neumann_graph(mesh, identity_field, bump, solve_config)
            return interpolate(u, probes)[:, 0]

        exact = np.array([halfspace_neumann(p, y) for p in probes])
        err3 = np.abs(run(3.0) - exact) / np.abs(exact)
        err6 = np.abs(run(6.0) - exact) / np.abs(exact)
        assert np.all(err6 < err3)
        assert err6.max() < 0.35

    def test_truncation_warning_flag(self, identity_field, solve_config):
        mesh = build_truncated_graph_mesh(
            lambda x, y: np.zeros_like(x), 0.0, ((0, 0, 0), (2, 2, 2)), 0.25
        )

        def near_far_bump(p):
            r2 = ((p - np.array([1.9, 1.0, 1.0])) ** 2).sum(axis=1)
            return np.maximum(0.0, 1.0 - r2 / 0.01)[:, None]

        u = solve_neumann_graph(mesh, identity_field, near_far_bump, solve_config)
        assert any("truncation-warning" in fl for fl in u.flags)

    def test_unbalanced_source_allowed_in_graph_mode(self, flat_graph_12, identity_field, solve_config):
        # no compatibility condition on the unbounded domain
        u = solve_neumann_graph(
            flat_graph_12, identity_field,
            lambda p: np.exp(-10 * ((p - 0.5) ** 2).sum(axis=1))[:, None], solve_config,
        )
        assert np.all(np.isfinite(u.values))

    def test_mode_mismatch_raises(self, unit_cube_8, flat_graph_12, identity_field, solve_config):
        with pytest.raises(InterfaceError):
            NeumannSolver(unit_cube_8, identity_field, solve_config).solve_graph(
                np.zeros(unit_cube_8.n_nodes)
            )
        with pytest.raises(InterfaceError):
            NeumannSolver(flat_graph_12, identity_field, solve_config).solve_bounded(
                np.zeros(flat_graph_12.n_nodes)
            )


class TestSolverMismatch:
    """A solver assembled for another mesh or field is refused, not reused."""

    @staticmethod
    def _f(p):
        return (np.pi**2 * np.cos(np.pi * p[:, 0]))[:, None]

    def test_bounded_other_field(self, unit_cube_8, identity_field, checkerboard_field):
        solver = NeumannSolver(unit_cube_8, checkerboard_field)
        with pytest.raises(InterfaceError, match="coefficient field"):
            solve_neumann_bounded(unit_cube_8, identity_field, self._f, None, solver=solver)

    def test_bounded_other_mesh(self, unit_cube_8, identity_field):
        solver = NeumannSolver(build_box_mesh((1, 1, 1), 4), identity_field)
        with pytest.raises(InterfaceError, match="mesh"):
            solve_neumann_bounded(unit_cube_8, identity_field, self._f, None, solver=solver)

    def test_graph_other_mesh(self, flat_graph_12, identity_field):
        other = build_truncated_graph_mesh(
            lambda x, y: np.zeros_like(x), 0.0, ((0, 0, 0), (1, 1, 1)), 1.0 / 6
        )
        with pytest.raises(InterfaceError, match="mesh"):
            solve_neumann_graph(
                flat_graph_12, identity_field, self._f, solver=NeumannSolver(other, identity_field)
            )

    def test_mollified_column_other_field(self, unit_cube_8, identity_field, checkerboard_field):
        from neumannlab.kernel import build_kernel

        solver = NeumannSolver(unit_cube_8, checkerboard_field)
        with pytest.raises(InterfaceError, match="coefficient field"):
            build_kernel(
                unit_cube_8, identity_field, (0.5, 0.5, 0.5), eps=0.25, solver=solver
            ).column(0)

    def test_local_boundedness_other_field(self, unit_cube_8, identity_field, checkerboard_field):
        from neumannlab.estimates import test_local_boundedness as local_boundedness

        solver = NeumannSolver(unit_cube_8, checkerboard_field)
        with pytest.raises(InterfaceError, match="coefficient field"):
            local_boundedness(unit_cube_8, identity_field, trials=1, solver=solver)
