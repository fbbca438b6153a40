import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

import neumannlab
from neumannlab import discretize
from neumannlab.coeff import (
    CellwiseRandom,
    CoefficientField,
    Identity,
    ScalarCheckerboard,
    SkewPerturbed,
    make_coefficient,
)
from neumannlab.discretize import (
    assemble_stiffness,
    boundary_mean,
    boundary_weight_vector,
    interpolate,
    l2_error,
    l2_norm,
)
from neumannlab.errors import CompatibilityError, InterfaceError, NumericFailureError
from neumannlab.kernel import build_kernel
from neumannlab.mesh import build_box_mesh, build_staircase_mesh, build_truncated_graph_mesh
from neumannlab.oracle import halfspace_neumann
from neumannlab.solve import (
    NeumannSolver,
    SolveConfig,
    _dissection_order,
    solve_neumann_bounded,
    solve_neumann_graph,
)


def cosine_problem():
    f = lambda p: (np.pi**2 * np.cos(np.pi * p[:, 0]))[:, None]
    exact = lambda p: np.cos(np.pi * p[:, 0])
    return f, exact


class TestCompatibility:
    def test_zero_data(self, unit_cube_8, identity_field):
        u = solve_neumann_bounded(unit_cube_8, identity_field, None, None)
        assert_allclose(u.info.multiplier, [0.0])

    def test_balanced_pair(self, unit_cube_8, identity_field):
        # the multiplier is the residual int f + int g over |dOmega|
        u = solve_neumann_bounded(
            unit_cube_8,
            identity_field,
            lambda p: np.ones((len(p), 1)),
            lambda p: np.full((len(p), 1), -1.0 / 6.0),
        )
        assert_allclose(u.info.multiplier * unit_cube_8.boundary_measure, [0.0], atol=1e-13)

    def test_unbalanced(self, unit_cube_8, identity_field):
        with pytest.raises(CompatibilityError) as err:
            solve_neumann_bounded(unit_cube_8, identity_field, lambda p: np.ones((len(p), 1)), None)
        assert_allclose(err.value.residual, [1.0], rtol=1e-12)

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

    def test_energy_bound_stable_under_refinement(
        self, identity_field, solve_config, gradient_l2_norm
    ):
        # ||Du|| / ||f||_{L^{6/5}} stays bounded across refinements
        f, _ = cosine_problem()
        ratios = []
        for n in (6, 12):
            mesh = build_box_mesh((1, 1, 1), n)
            u = solve_neumann_bounded(mesh, identity_field, f, None, solve_config)
            pts_f = np.abs(f(mesh.cell_origins() + mesh.h / 2)[:, 0]) ** 1.2
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

    @pytest.mark.parametrize("mode", ["bounded", "graph"])
    def test_krylov_on_nonsymmetric_takes_lu(self, unit_cube_8, flat_graph_12, mode):
        mesh = unit_cube_8 if mode == "bounded" else flat_graph_12
        fld = make_coefficient(SkewPerturbed(ScalarCheckerboard(10.0, m=2), 0.5))
        load = np.random.default_rng(3).standard_normal(2 * mesh.n_nodes)
        out = {}
        for linear_solver in ("direct", "krylov"):
            solver = NeumannSolver(mesh, fld, SolveConfig(linear_solver=linear_solver))
            solve = solver.solve_graph if mesh.is_graph else solver.solve_bounded
            out[linear_solver], info = solve(load)
            assert info.method == f"{mode}-direct"
        assert np.array_equal(out["krylov"], out["direct"])

    def test_invalid_config_rejected(self):
        with pytest.raises(ValueError):
            SolveConfig(tolerance=2.0)
        with pytest.raises(ValueError):
            SolveConfig(linear_solver="magic")

    def test_singular_factor_is_numeric_failure(self, unit_cube_8, identity_field):
        # LU factors the operator's block, CG its coarse operator
        for linear_solver in ("direct", "krylov"):
            cfg = SolveConfig(linear_solver=linear_solver)
            solver = NeumannSolver(unit_cube_8, identity_field, cfg)
            K = solver.stiffness.matrix
            solver.stiffness.matrix = sp.csr_matrix(K.shape)  # SuperLU: exactly singular
            with pytest.raises(NumericFailureError, match="factorization"):
                with np.errstate(divide="ignore"):  # CG's 1 / diag K
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
    @example(seed=2, contrast=100.0, m=3, amplitude=0.5, n=6)  # not symmetric: LU on both
    # real entries of K near the roundoff drop limit: dropping them would break K's null space
    @example(seed=0, contrast=30.0, m=3, amplitude=2.0**-23, n=5)
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


ORDERING_MESHES = {
    "box": build_box_mesh((1, 1, 1), 5),
    "staircase": build_staircase_mesh(
        [((0, 0, 0), (0.5, 1, 1)), ((0.5, 0, 0), (1, 0.5, 1))], 1.0 / 6
    ),
    "graph": build_truncated_graph_mesh(
        lambda x, y: 0.2 + 0.15 * np.sin(3 * x + 2 * y), 0.6, ((0, 0, 0), (1, 1, 1)), 1.0 / 6
    ),
}


def _lexicographic_reference(solver, load):
    """The solve of ``solver`` redone on the lexicographically ordered block."""
    mesh, m = solver.mesh, solver.m
    K = assemble_stiffness(mesh, solver.field).matrix  # a graph-mode solver holds no full K
    keep = np.ones(solver.n_dof, dtype=bool)
    if mesh.is_graph:
        keep.reshape(-1, m)[mesh.far_nodes] = False
        rhs = load
    else:
        keep[:m] = False  # node 0 grounded
        b = boundary_weight_vector(mesh)
        mu = load.reshape(-1, m).sum(axis=0) / b.sum()
        rhs = load - (b[:, None] * mu).ravel()
    lex = np.flatnonzero(keep)
    u = np.zeros(solver.n_dof)
    u[lex] = spla.splu(K[lex][:, lex].tocsc()).solve(rhs[lex])
    if not mesh.is_graph:
        U = u.reshape(-1, m)
        U -= b @ U / b.sum()
    return u, lex


def _recursive_dissection(ijk):
    """Nested dissection written as its recursive definition."""
    order = []

    def visit(idx):
        pts = ijk[idx]
        lo, hi = pts.min(axis=0), pts.max(axis=0)
        axis = int(np.argmax(hi - lo))
        if hi[axis] - lo[axis] < 2:
            order.append(idx)
            return
        plane = pts[:, axis]
        mid = (lo[axis] + hi[axis]) // 2
        visit(idx[plane < mid])
        visit(idx[plane > mid])
        order.append(idx[plane == mid])

    visit(np.arange(len(ijk)))
    return np.concatenate(order)


class TestDissectionOrder:
    """The LU path solves in nested-dissection order; the answer does not depend on it."""

    @pytest.mark.parametrize("name", sorted(ORDERING_MESHES))
    def test_order_matches_recursive_definition(self, name):
        mesh = ORDERING_MESHES[name]
        ijk = np.rint((mesh.nodes - mesh.origin) / mesh.h).astype(np.int64)
        assert np.array_equal(_dissection_order(ijk), _recursive_dissection(ijk))

    @pytest.mark.parametrize("name", sorted(ORDERING_MESHES))
    @pytest.mark.parametrize("m,amplitude", [(1, 0.0), (3, 0.5)])
    def test_matches_lexicographic_solve(self, name, m, amplitude):
        mesh = ORDERING_MESHES[name]
        spec = SkewPerturbed(ScalarCheckerboard(10.0, seed=5, m=m), amplitude, seed=5)
        solver = NeumannSolver(mesh, make_coefficient(spec), SolveConfig(tolerance=1e-12))
        load = np.random.default_rng(5).standard_normal(solver.n_dof)
        solve = solver.solve_graph if mesh.is_graph else solver.solve_bounded
        u, _ = solve(load)
        u_ref, lex = _lexicographic_reference(solver, load)
        assert np.linalg.norm(u - u_ref) <= 1e-12 * np.linalg.norm(u_ref)
        # free_dofs is a permutation of exactly the DOFs the reference keeps,
        # with the m DOFs of each node side by side
        assert not np.array_equal(solver.free_dofs, lex)
        assert np.array_equal(np.sort(solver.free_dofs), lex)
        nodes = solver.free_dofs.reshape(-1, m)
        assert np.array_equal(nodes, nodes[:, :1] + np.arange(m))

    @pytest.mark.parametrize("name", sorted(ORDERING_MESHES))
    def test_krylov_keeps_lexicographic_order(self, name, identity_field):
        cfg = SolveConfig(linear_solver="krylov")
        solver = NeumannSolver(ORDERING_MESHES[name], identity_field, cfg)
        assert np.all(np.diff(solver.free_dofs) > 0)

    def test_fill_below_minimum_degree(self, identity_field):
        solver = NeumannSolver(build_box_mesh((1, 1, 1), 16), identity_field)
        solver.solve_bounded(np.zeros(solver.n_dof))
        K = solver.stiffness.matrix
        lex = np.arange(1, solver.n_dof)
        mmd = spla.splu(K[lex][:, lex].tocsc(), permc_spec="MMD_AT_PLUS_A")
        assert solver._factors[False].nnz < mmd.nnz


#: Prints the sha256 of the values of the 6^3 and 8^3 m = 3 skew node kernel
#: sets, which come from blocked LU solves.
_KERNEL_SET_HASH_SCRIPT = """
import hashlib
from neumannlab.coeff import ScalarCheckerboard, SkewPerturbed, make_coefficient
from neumannlab.kernel import build_node_kernel_set
from neumannlab.mesh import build_box_mesh

spec = SkewPerturbed(ScalarCheckerboard(10.0, seed=1, m=3), 0.5, seed=1)
for n in (6, 8):
    kernels = build_node_kernel_set(build_box_mesh((1, 1, 1), n), make_coefficient(spec))
    print(hashlib.sha256(kernels.values.tobytes()).hexdigest())
"""


def test_direct_solves_independent_of_blas_threads():
    src = str(Path(neumannlab.__file__).resolve().parents[1])
    hashes = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        out = subprocess.run(
            [sys.executable, "-c", _KERNEL_SET_HASH_SCRIPT], env=env, capture_output=True,
            text=True, check=True,
        )
        hashes.append(out.stdout.split())
    assert len(hashes[0]) == 2
    assert hashes[0] == hashes[1]


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
    @example(seed=1, m=2, amplitude=0.5, r=3, mode="bounded", linear_solver="krylov")  # LU
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
        # a Krylov config runs CG on a symmetric operator and LU on any other
        method = "cg" if linear_solver == "krylov" and amplitude == 0.0 else "direct"
        assert info.method == f"{mode}-{method}"
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


def _wavy_floor(x, y):
    """A floor of three plane waves near the bottom of the (-3, 3)^3 box; slope <= 0.4."""
    z = np.full_like(x, -2.8)
    for a, k, t in ((0.06, 3.0, 0.4), (0.04, 3.5, 1.9), (0.03, 2.5, 2.7)):
        z = z + a * np.sin(k * (np.cos(t) * x + np.sin(t) * y))
    return z


class TestTwoLevelCG:
    """CG is preconditioned by diagonal scaling plus one coarse solve on 4^3-node aggregates."""

    @pytest.mark.parametrize("m", [1, 3])
    @pytest.mark.parametrize("mode", ["bounded", "graph"])
    def test_matches_lu(self, mode, m):
        mesh = build_box_mesh((1, 1, 1), 10) if mode == "bounded" else GRAPH_MESH
        fld = make_coefficient(ScalarCheckerboard(100.0, seed=7, m=m))
        load = np.random.default_rng(7).standard_normal(mesh.n_nodes * m)
        out = {}
        for linear_solver in ("direct", "krylov"):
            cfg = SolveConfig(linear_solver=linear_solver, tolerance=1e-12)
            solver = NeumannSolver(mesh, fld, cfg)
            solve = solver.solve_graph if mesh.is_graph else solver.solve_bounded
            out[linear_solver], info = solve(load)
        assert info.method == f"{mode}-cg" and solver._coarse[2] is not None
        u, uk = out["direct"], out["krylov"]
        assert np.linalg.norm(uk - u) <= 1e-8 * np.linalg.norm(u)
        if mode == "bounded":
            b = boundary_weight_vector(mesh)
            assert np.abs(b @ uk.reshape(-1, m) / b.sum()).max() <= 1e-12 * np.abs(uk).max()

    @pytest.mark.parametrize("extents", [(1, 1, 1), (2, 1, 1)])
    def test_one_and_two_cell_boxes(self, extents):
        # the one aggregate is grounded: diagonal scaling alone
        mesh = build_box_mesh(extents, 1)
        fld = make_coefficient(ScalarCheckerboard(10.0, cell=1.0, m=2))
        load = np.random.default_rng(1).standard_normal(mesh.n_nodes * 2)
        direct, _ = NeumannSolver(mesh, fld).solve_bounded(load)
        solver = NeumannSolver(mesh, fld, SolveConfig(linear_solver="krylov", tolerance=1e-12))
        u, info = solver.solve_bounded(load)
        assert info.method == "bounded-cg" and solver._coarse[2] is None
        assert np.linalg.norm(u - direct) <= 1e-8 * np.linalg.norm(direct)

    def test_iterations_do_not_grow_with_refinement(self):
        # plain CG takes about twice the iterations at h = 1/9 as at h = 1/6
        fld = make_coefficient(ScalarCheckerboard(100.0, seed=3))
        cfg = SolveConfig(linear_solver="krylov")
        pole = (0.3, -0.4, -1.5)

        def iterations(h):
            mesh = build_truncated_graph_mesh(_wavy_floor, 0.5, ((-3, -3, -3), (3, 3, 3)), h)
            return int(build_kernel(mesh, fld, pole, cfg).telemetry["columns"][0]["iterations"])

        coarse, fine = iterations(1 / 6), iterations(1 / 9)
        assert fine <= 1.3 * coarse
        assert iterations(1 / 6) == coarse

    def test_bounded_iterations_do_not_grow_with_refinement(self):
        # the grounded coarse inverse amplifies a residual's roundoff along the
        # constants, K's null space, unless the residual is made mean-free first
        fld = make_coefficient(ScalarCheckerboard(1000.0))

        def iterations(n):
            solver = NeumannSolver(
                build_box_mesh((1, 1, 1), n), fld, SolveConfig(linear_solver="krylov")
            )
            load = np.random.default_rng(0).standard_normal(solver.n_dof)
            return int(solver.solve_bounded(load - load.mean())[1].iterations[0])

        assert iterations(20) <= 1.3 * iterations(32)


class TestNonFiniteCoefficients:
    @pytest.mark.parametrize("linear_solver", ["direct", "krylov"])
    def test_nan_field_is_numeric_failure(self, linear_solver):
        def ev(p):
            a = np.zeros((len(p), 3, 3, 1, 1))
            a[:, [0, 1, 2], [0, 1, 2]] = np.where(p[:, 0] > 0.5, np.nan, 1.0)[:, None, None, None]
            a[:, 0, 1] = 0.1  # not symmetric: the Krylov config would take LU
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


SYMMETRY_FIELDS = {
    "identity": Identity(),
    "checkerboard": ScalarCheckerboard(10.0, seed=2),
    "cellwise-random-m2": CellwiseRandom(0.5, 2.0, cell=0.25, seed=3, m=2),
    "skew-m1": SkewPerturbed(ScalarCheckerboard(10.0, seed=4), 0.5, seed=4),
    "skew-m3": SkewPerturbed(ScalarCheckerboard(10.0, seed=5, m=3), 0.5, seed=5),
}


GRAPH_MESH = build_truncated_graph_mesh(
    lambda x, y: 0.2 + 0.15 * np.sin(3 * x + 2 * y), 0.6, ((0, 0, 0), (1, 1, 1)), 1.0 / 8
)


class TestOperatorSetUp:
    @pytest.mark.parametrize("field", sorted(SYMMETRY_FIELDS))
    def test_symmetry_decision_matches_whole_difference(self, field):
        fld = make_coefficient(SYMMETRY_FIELDS[field])
        solver = NeumannSolver(build_box_mesh((1, 1, 1), 6), fld)
        K = solver.stiffness.matrix
        assert solver.symmetric == (abs(K - K.T).max() <= 1e-12 * max(abs(K).max(), 1.0))
        assert solver.symmetric == (not field.startswith("skew"))

    @pytest.mark.parametrize("mode", ["bounded", "graph"])
    @pytest.mark.parametrize("field", sorted(SYMMETRY_FIELDS))
    def test_symmetry_decision_ignores_dropped_entries(self, monkeypatch, field, mode):
        # the decision on every table entry, none dropped and no row left out
        mesh = build_box_mesh((1, 1, 1), 6) if mode == "bounded" else GRAPH_MESH
        fld = make_coefficient(SYMMETRY_FIELDS[field])
        solver = NeumannSolver(mesh, fld)
        monkeypatch.setattr(discretize, "_DROP_RTOL", 0.0)
        K = assemble_stiffness(mesh, fld).matrix
        assert solver.symmetric == (abs(K - K.T).max() <= 1e-12 * max(abs(K).max(), 1.0))

    @pytest.mark.parametrize("linear_solver", ["direct", "krylov"])
    @pytest.mark.parametrize("mode", ["bounded", "graph"])
    def test_reduced_block_is_free_submatrix(self, monkeypatch, unit_cube_8, mode, linear_solver):
        # LU factors K[free][:, free] as a CSC; CG runs on K over dofs itself and
        # factors only its coarse operator: m DOFs per aggregate of 4^3 lattice
        # nodes holding a kept DOF, less the m grounded in bounded mode
        mesh = unit_cube_8 if mode == "bounded" else GRAPH_MESH
        fld = make_coefficient(ScalarCheckerboard(100.0, seed=3))
        solver = NeumannSolver(mesh, fld, SolveConfig(linear_solver=linear_solver))
        K = assemble_stiffness(mesh, fld).matrix
        factored, real_splu = [], spla.splu

        def splu(A, **kwargs):
            factored.append(A)
            return real_splu(A, **kwargs)

        monkeypatch.setattr(spla, "splu", splu)
        solve = solver.solve_graph if mesh.is_graph else solver.solve_bounded
        solve(np.zeros(solver.n_dof))
        if linear_solver == "direct":
            free = solver.free_dofs
            (block,), ref = factored, K[free][:, free].tocsc()
        else:
            lattice = np.rint((mesh.nodes - mesh.origin) / mesh.h).astype(np.int64) // 4
            aggregates = len(np.unique(lattice[solver.dofs // solver.m], axis=0))
            grounded = 0 if mesh.is_graph else solver.m
            (coarse,) = factored
            assert coarse.shape == (aggregates * solver.m - grounded,) * 2
            assert coarse.shape[0] < len(solver.dofs) and solver.free_dofs is solver.dofs
            block, ref = solver.operator(), K[solver.dofs][:, solver.dofs]
        assert block.format == ref.format
        assert np.array_equal(block.data, ref.data)
        assert np.array_equal(block.indices, ref.indices)
        assert np.array_equal(block.indptr, ref.indptr)

    @pytest.mark.parametrize("linear_solver", ["direct", "krylov"])
    @pytest.mark.parametrize("field", ["checkerboard", "skew-m3"])
    def test_graph_operator_is_free_submatrix(self, field, linear_solver):
        fld = make_coefficient(SYMMETRY_FIELDS[field])
        solver = NeumannSolver(GRAPH_MESH, fld, SolveConfig(linear_solver=linear_solver))
        dofs = solver.dofs
        assert np.array_equal(dofs, np.sort(solver.free_dofs))
        K = assemble_stiffness(GRAPH_MESH, fld).matrix[dofs][:, dofs]
        for adjoint in (False, True):
            op = solver.operator(adjoint)
            assert op.shape == (len(dofs), len(dofs))
            assert (op != (K.T if adjoint and not solver.symmetric else K)).nnz == 0

    @pytest.mark.parametrize(
        "linear_solver,field,method",
        [("direct", "skew-m3", "direct"), ("krylov", "skew-m3", "direct"),
         ("krylov", "checkerboard-m3", "cg")],
    )
    @pytest.mark.parametrize("mode", ["bounded", "graph"])
    def test_solver_holds_one_sparse_matrix(self, mode, linear_solver, field, method):
        # the operator; a factor's input lives only while it is factored
        fields = {**SYMMETRY_FIELDS, "checkerboard-m3": ScalarCheckerboard(10.0, seed=5, m=3)}
        mesh = build_box_mesh((1, 1, 1), 4) if mode == "bounded" else GRAPH_MESH
        fld = make_coefficient(fields[field])
        solver = NeumannSolver(mesh, fld, SolveConfig(linear_solver=linear_solver))
        solve = solver.solve_graph if mesh.is_graph else solver.solve_bounded
        load = np.zeros(solver.n_dof)
        for adjoint in (False, True):
            assert solve(load, adjoint)[1].method == f"{mode}-{method}"
        assert len(solver._factors) == (2 if method == "direct" else 0)

        held = []

        def walk(value):
            if sp.issparse(value):
                held.append(value)
            elif isinstance(value, dict):
                for v in value.values():
                    walk(v)
            elif isinstance(value, (list, tuple)):
                for v in value:
                    walk(v)
            elif hasattr(value, "__dict__") and not isinstance(value, type):
                for v in vars(value).values():
                    walk(v)

        walk({k: v for k, v in vars(solver).items() if k not in ("mesh", "field")})
        assert len(held) == 1 and held[0] is solver.operator()

    def test_krylov_solver_builds_in_bounded_memory(self):
        # the stencil table and one cell chunk beside the CSR: about 2.5x its bytes
        fld = make_coefficient(ScalarCheckerboard(10.0))
        cfg = SolveConfig(linear_solver="krylov")
        NeumannSolver(build_box_mesh((1, 1, 1), 2), fld, cfg)
        mesh = build_box_mesh((1, 1, 1), 24)
        tracemalloc.start()
        try:
            solver = NeumannSolver(mesh, fld, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        K = solver.stiffness.matrix
        assert peak < 4 * (K.data.nbytes + K.indices.nbytes + K.indptr.nbytes)

    def test_graph_krylov_solver_holds_one_free_operator(self):
        # the stencil table and one cell chunk, or the free operator twice while
        # the table is freed; K over the far cut beside a reduced copy of it
        # does not fit, and would stay alive
        mesh = build_truncated_graph_mesh(
            lambda x, y: 0.2 + 0.15 * np.sin(3 * x + 2 * y), 0.6, ((0, 0, 0), (1, 1, 1)), 1 / 32
        )
        fld = make_coefficient(ScalarCheckerboard(100.0, seed=3))
        cfg = SolveConfig(linear_solver="krylov")
        NeumannSolver(build_box_mesh((1, 1, 1), 2), fld, cfg)
        tracemalloc.start()
        try:
            solver = NeumannSolver(mesh, fld, cfg)
            live, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        K = solver.operator()
        assert K is solver.stiffness.matrix and solver.free_dofs is solver.dofs
        assert K.shape[0] == len(solver.dofs)
        size = K.data.nbytes + K.indices.nbytes + K.indptr.nbytes
        assert live < 1.2 * size
        assert peak < 3.5 * size


class TestSolverMismatch:
    """A solver assembled for another mesh, field or config is refused, not reused."""

    @staticmethod
    def _f(p):
        return (np.pi**2 * np.cos(np.pi * p[:, 0]))[:, None]

    def test_bounded_other_field(self, unit_cube_8, identity_field, checkerboard_field):
        solver = NeumannSolver(unit_cube_8, checkerboard_field)
        with pytest.raises(InterfaceError, match="coefficient field"):
            solve_neumann_bounded(unit_cube_8, identity_field, self._f, None, solver=solver)

    def test_bounded_other_config(self, unit_cube_8, identity_field):
        solver = NeumannSolver(unit_cube_8, identity_field, SolveConfig())
        krylov = SolveConfig(linear_solver="krylov", tolerance=1e-3)
        with pytest.raises(InterfaceError, match="built with"):
            solve_neumann_bounded(unit_cube_8, identity_field, self._f, None, krylov, solver=solver)
        u = solve_neumann_bounded(unit_cube_8, identity_field, self._f, None, SolveConfig(), solver)
        assert u.info.method == "bounded-direct"

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
            build_kernel(unit_cube_8, identity_field, (0.5, 0.5, 0.5), solver=solver).column(0)

    def test_local_boundedness_other_field(self, unit_cube_8, identity_field, checkerboard_field):
        from neumannlab.estimates import test_local_boundedness as local_boundedness

        solver = NeumannSolver(unit_cube_8, checkerboard_field)
        with pytest.raises(InterfaceError, match="coefficient field"):
            local_boundedness(unit_cube_8, identity_field, trials=1, solver=solver)
