import itertools
import math
import os
import re
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from adjoint_reference import adjoint_coefficients
from mesh_reference import l_shape
from neumannlab.coeff import (
    CellwiseRandom,
    Identity,
    ScalarCheckerboard,
    SkewPerturbed,
    SmoothVMO,
    make_coefficient,
)
from neumannlab.discretize import (
    DiscreteField,
    boundary_mean,
    boundary_weight_vector,
    gauss_rule_1d,
    interpolate,
    l2_norm,
    shape_values,
)
from neumannlab.errors import (
    CoverageError,
    InterfaceError,
    InvalidGeometryError,
    NumericFailureError,
    OutOfDomainError,
)
from neumannlab.kernel import (
    MAX_KERNEL_SET_NODES,
    MOLLIFIER_NORMALIZATION,
    Mollifier,
    build_kernel,
    build_node_kernel_set,
    check_defining_identity,
    check_symmetry_identity,
    integrate_mollifier,
    kernel_at,
    mollified_readout,
    mollifier_load,
    representation_solve,
)
from neumannlab.mesh import build_box_mesh, build_truncated_graph_mesh
from neumannlab.oracle import cube_neumann_series_batch
from neumannlab.solve import NeumannSolver, SolveConfig, solve_neumann, solve_neumann_bounded

CENTER = (0.5, 0.5, 0.5)


class TestMollifier:
    def test_normalization_constant(self):
        # 4 pi int_0^1 (1 - r^2)^2 r^2 dr = 32 pi / 105
        r = np.linspace(0, 1, 20001)
        integral = 4 * np.pi * np.trapezoid((1 - r**2) ** 2 * r**2, r)
        assert_allclose(1.0 / integral, MOLLIFIER_NORMALIZATION, rtol=1e-8)

    def test_profile_sup_and_bound(self):
        # sup of the unscaled profile c (1 - |z|^2)_+^2, attained at z = 0
        mol = Mollifier(CENTER, 0.25)
        peak = mol(np.array(CENTER))[0] * mol.radius**3
        assert_allclose(peak, 105 / (32 * np.pi), rtol=1e-15)
        assert peak <= 2.0  # the admissible-bump bound

    @pytest.mark.parametrize("radius", [0.0, -0.1, float("nan")])
    def test_radius_must_be_positive(self, radius):
        with pytest.raises(ValueError, match="radius"):
            Mollifier(CENTER, radius)

    def test_support(self):
        mol = Mollifier(CENTER, 0.2)
        assert mol(np.array([0.71, 0.5, 0.5]))[0] == 0.0
        assert mol(np.array([0.5, 0.5, 0.5]))[0] > 0.0

    def test_unit_mass_refined_quadrature(self):
        mol = Mollifier(CENTER, 0.17)
        assert abs(integrate_mollifier(mol) - 1.0) < 1e-6

    @settings(max_examples=12, deadline=None)
    @given(
        st.tuples(*[st.floats(-3.0, 3.0)] * 3),
        st.floats(0.02, 0.6),
    )
    def test_mass_exact_property(self, center, radius):
        # the radial rule is exact for the degree-6 profile; what is left is
        # the rounding of center + offset, relative to the radius
        mol = Mollifier(center, radius)
        assert abs(integrate_mollifier(mol) - 1.0) <= 1e-13

    @pytest.mark.parametrize("radius", [0.02, 0.1, 1.0 / 6.0, 0.2, 0.6])
    def test_mass_exact_at_origin(self, radius):
        assert abs(integrate_mollifier(Mollifier((0.0, 0.0, 0.0), radius)) - 1.0) <= 4e-15

    def test_mass_near_tensor_rule(self):
        # an independent Cartesian rule: the 128^3 tensor rule's error at the
        # bump's C^1 edge is 6.55e-8
        mol = Mollifier((0.3, 0.55, 0.71), 0.17)
        assert abs(integrate_mollifier(mol) - point_array_mass(mol)) <= 1e-7

    def test_mass_allocates_no_cube_grid(self):
        # one double per point of the 128^3 rule would be 16.8 MB
        mol = Mollifier((0.3, 0.55, 0.71), 0.17)
        integrate_mollifier(mol)
        tracemalloc.start()
        try:
            integrate_mollifier(mol)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4e6

    @settings(max_examples=20, deadline=None)
    @given(st.floats(0.05, 0.5))
    def test_mass_scale_invariant(self, eps):
        mol = Mollifier((0.0, 0.0, 0.0), eps)
        assert abs(integrate_mollifier(mol) - 1.0) < 1e-5

    def test_discrete_load_normalized(self, unit_cube_12):
        load, raw = mollifier_load(unit_cube_12, CENTER, 2.0 / 12)
        assert load.shape == (unit_cube_12.n_nodes, 1)
        assert_allclose(load.sum(), 1.0, rtol=1e-14)
        assert abs(raw[0] - 1.0) < 1e-3  # quadrature mass before normalization


def point_array_mass(mol):
    """Phi_eps's mass by a 128^3 tensor Gauss rule over its support box, on an explicit point array."""
    x, w = gauss_rule_1d(2)
    edges = np.linspace(-mol.radius, mol.radius, 65)
    h = edges[1] - edges[0]
    pts1 = (edges[:-1, None] + h * x[None, :]).ravel()
    wts1 = np.tile(h * w, 64)
    P = np.stack(np.meshgrid(pts1, pts1, pts1, indexing="ij"), axis=-1).reshape(-1, 3)
    W = np.einsum("i,j,k->ijk", wts1, wts1, wts1).ravel()
    return float((mol(P + np.asarray(mol.center)) * W).sum())


def per_cell_load(mesh, center, eps, subdiv=3, order=2):
    """Unit-mass load of Phi_eps at center by subdivided Gauss quadrature over every cell."""
    x, w = gauss_rule_1d(order)
    sub = (np.arange(subdiv)[:, None] + x[None, :]).ravel() / subdiv
    wsub = np.tile(w / subdiv, subdiv)
    P = np.array(list(itertools.product(sub, sub, sub)))
    W = np.array([a * b * c for a, b, c in itertools.product(wsub, wsub, wsub)]) * mesh.h**3
    psi = shape_values(P)
    mol = Mollifier(tuple(center), eps)
    load = np.zeros(mesh.n_nodes)
    for cell, origin in zip(mesh.cells, mesh.cell_origins()):
        load[cell] += (W * mol(origin + mesh.h * P)) @ psi
    return load / load.sum(), load.sum()


def box_stencil_load(mesh, centers, eps):
    """``mollifier_load`` with the bump evaluated on every cell of the support's
    bounding box: (loads (n_nodes, k), raw masses (k,), occupied box cells (k,))."""
    centers = np.atleast_2d(np.asarray(centers, dtype=float))
    k, n, h = len(centers), mesh.n_nodes, mesh.h
    rel = (centers - mesh.origin) / h
    near = np.round(rel)
    snap = np.abs(rel - near) < 1e-12
    base = np.where(snap, near, np.floor(rel)).astype(np.int64)
    offsets, group = np.unique(np.where(snap, 0.0, rel - base), axis=0, return_inverse=True)
    group = group.reshape(-1)
    x, w = gauss_rule_1d(2)
    sub = (np.arange(3)[:, None] + x[None, :]).ravel() / 3
    wsub = np.tile(w / 3, 3)
    P = np.stack(np.meshgrid(sub, sub, sub, indexing="ij"), axis=-1).reshape(-1, 3)
    W = np.einsum("i,j,k->ijk", wsub, wsub, wsub).ravel() * h**3
    psi = shape_values(P)
    profile = Mollifier((0.0, 0.0, 0.0), eps)
    reach = (eps + 1e-12) / h
    hits = np.zeros(k, dtype=np.int64)
    index, weight = [], []
    for g, frac in enumerate(offsets):
        axes = [np.arange(int(np.floor(f - reach - 1)) + 1, int(np.ceil(f + reach))) for f in frac]
        D = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, 3)
        vals = profile((h * (D[:, None, :] + P[None, :, :] - frac)).reshape(-1, 3))
        stencil = (vals.reshape(len(D), -1) * W) @ psi
        members = np.flatnonzero(group == g)
        cells = mesh.cell_ids(base[members][:, None, :] + D[None])
        hits[members] = (cells >= 0).sum(axis=1)
        col, cell = np.nonzero((cells >= 0) & np.any(stencil != 0.0, axis=1))
        index.append((members[col][:, None] * n + mesh.cells[cells[col, cell]]).ravel())
        weight.append(stencil[cell].ravel())
    loads = np.bincount(
        np.concatenate(index), np.concatenate(weight), minlength=k * n
    ).reshape(k, n)
    raw = loads.sum(axis=1)
    with np.errstate(invalid="ignore"):  # a column of zero mass
        return (loads / raw[:, None]).T, raw, hits


LOAD_MESHES = {
    # name: (mesh, centers: a node, off-lattice, boundary-clipped ones)
    "box": (
        build_box_mesh((1, 1, 1), 6),
        [(0.5, 0.5, 0.5), (0.41, 0.53, 0.62), (0.0, 0.0, 0.0), (0.5, 0.02, 0.5), (1.05, 0.5, 0.5)],
    ),
    "staircase": (
        l_shape(0.25, origin=(-0.5, -0.5, -0.5)),
        [(0.0, 0.0, 0.0), (-0.2, 0.1, -0.05), (0.1, 0.1, 0.0), (-0.5, 0.5, 0.5), (0.3, -0.6, 0.2)],
    ),
    "graph": (
        build_truncated_graph_mesh(lambda x, y: 0.3 * x, 0.5, ((0, 0, 0), (1, 1, 1)), 1 / 6),
        [(0.5, 0.5, 0.5), (0.37, 0.61, 0.44), (1 / 6, 0.5, 1 / 6), (0.9, 0.2, 0.99)],
    ),
}


class TestLoadStencil:
    @pytest.mark.parametrize("name", sorted(LOAD_MESHES))
    def test_matches_per_cell_quadrature(self, name):
        mesh, centers = LOAD_MESHES[name]
        eps = 2 * mesh.h
        loads, raw = mollifier_load(mesh, centers, eps)
        assert loads.shape == (mesh.n_nodes, len(centers))
        for j, center in enumerate(centers):
            ref, ref_raw = per_cell_load(mesh, center, eps)
            assert np.abs(loads[:, j] - ref).max() <= 1e-14
            assert abs(raw[j] - ref_raw) <= 1e-14 * ref_raw
            single, _ = mollifier_load(mesh, center, eps)
            assert np.abs(single[:, 0] - ref).max() <= 1e-14

    @pytest.mark.parametrize("name", sorted(LOAD_MESHES))
    def test_matches_the_support_box_stencil(self, name):
        # the bump is evaluated on the cells within eps of the center only:
        # the loads and masses keep every bit of the whole-box evaluation
        mesh, centers = LOAD_MESHES[name]
        rng = np.random.default_rng(3)
        lo, hi = mesh.nodes.min(axis=0), mesh.nodes.max(axis=0)
        nodes = mesh.nodes[rng.choice(mesh.n_nodes, 10, replace=False)]
        inner = lo + (hi - lo) * rng.uniform(0.2, 0.8, size=(10, 3))
        clipped = lo + (hi - lo) * rng.uniform(-0.05, 0.05, size=(5, 3))
        centers = np.concatenate([centers, nodes, inner, clipped])
        for eps in (2 * mesh.h, 1.3 * mesh.h):
            loads, raw = mollifier_load(mesh, centers, eps)
            ref, ref_raw, _ = box_stencil_load(mesh, centers, eps)
            assert np.array_equal(loads, ref)
            assert np.array_equal(raw, ref_raw)

    def test_ball_off_the_mesh_inside_the_box(self, unit_cube_8):
        # the support box of (1.2, 1.2, 1.2) holds the corner cell, its ball
        # none: the mesh is missed, not met with zero mass
        _, _, hits = box_stencil_load(unit_cube_8, (1.2, 1.2, 1.2), 0.25)
        assert hits[0] == 1
        message = "mollifier at (1.2, 1.2, 1.2): support misses the mesh"
        with pytest.raises(InvalidGeometryError, match=re.escape(message)):
            mollifier_load(unit_cube_8, (1.2, 1.2, 1.2), 0.25)

    def test_support_off_the_mesh(self, unit_cube_8):
        # the point prints as plain floats, not np.float64(...)
        message = "mollifier at (3.0, 0.5, 0.5): support misses the mesh"
        with pytest.raises(InvalidGeometryError, match=re.escape(message)):
            mollifier_load(unit_cube_8, [CENTER, (3.0, 0.5, 0.5)], 0.25)


def mollified_column(solver, eps):
    """Bounded scalar kernel at CENTER mollified at radius eps: the load's own solve."""
    load, _ = mollifier_load(solver.mesh, CENTER, eps)
    u, _ = solver.solve(load[:, 0])
    return DiscreteField(solver.mesh, u)


ONE_FLUX_FIELDS = {
    "checkerboard-m1": ScalarCheckerboard(10.0, seed=2),
    "skew-m3": SkewPerturbed(ScalarCheckerboard(10.0, seed=5, m=3), 0.5, seed=5),
}


class TestOneFlux:
    @pytest.mark.parametrize("adjoint", [False, True])
    @pytest.mark.parametrize("linear_solver", ["direct", "krylov"])
    @pytest.mark.parametrize("field", sorted(ONE_FLUX_FIELDS))
    def test_bare_pole_loads_match_hand_built_flux(self, field, linear_solver, adjoint):
        # a bounded solve of unit-mass pole loads forms each column's flux
        # b / sum b, the discrete -(1/|dOmega|) e_c, itself: its solution is
        # that of the loads less the hand-built flux b / |dOmega|
        mesh = build_box_mesh((1, 1, 1), 6)
        cfg = SolveConfig(linear_solver=linear_solver, tolerance=1e-12)
        solver = NeumannSolver(mesh, make_coefficient(ONE_FLUX_FIELDS[field]), cfg)
        n, m = mesh.n_nodes, solver.m
        # a node pole, an off-lattice pole and a pole whose ball the boundary clips
        loads, _ = mollifier_load(mesh, [CENTER, (0.41, 0.52, 0.63), (0.1, 0.5, 0.5)], 2 * mesh.h)
        bare = np.zeros((n, m, loads.shape[1], m))
        for c in range(m):
            bare[:, c, :, c] = loads
        b = boundary_weight_vector(mesh)
        hand = bare - (b / mesh.boundary_measure)[:, None, None, None] * np.eye(m)[:, None, :]
        bare, hand = bare.reshape(solver.n_dof, -1), hand.reshape(solver.n_dof, -1)

        u, info = solver.solve(bare, adjoint)
        ref, _ = solver.solve(hand, adjoint)
        method = "cg" if linear_solver == "krylov" and solver.symmetric else "direct"
        assert info.method == f"bounded-{method}"
        assert np.abs(u - ref).max() <= 1e-12 * np.abs(ref).max()
        # the multiplier, read off as the flux bare - K u fitted to b, is
        # sum load / sum b per column: 1 / sum b in the column's own component
        flux = (bare - solver.operator(adjoint) @ u).reshape(n, m, -1)
        mu = np.tensordot(b, flux, axes=1) / (b @ b)
        expected = bare.reshape(n, m, -1).sum(axis=0) / b.sum()
        assert_allclose(expected, np.tile(np.eye(m), loads.shape[1]) / b.sum(), rtol=1e-14)
        assert np.abs(mu - expected).max() <= 1e-12 / b.sum()


class TestColumnBuild:
    def test_compatibility_by_construction(self, unit_cube_12, identity_field, solve_config):
        col = build_kernel(unit_cube_12, identity_field, CENTER, solve_config).column(0)
        assert np.abs(boundary_mean(col)).max() < 1e-10

    def test_ball_outside_domain(self, unit_cube_12, identity_field, solve_config):
        message = f"mollifier ball of radius {2 / 12} at (0.08, 0.5, 0.5) is not contained"
        with pytest.raises(InvalidGeometryError, match=re.escape(message)):
            build_kernel(unit_cube_12, identity_field, (0.08, 0.5, 0.5), solve_config).column(0)

    def test_energy_scaling_in_eps(self, identity_field, gradient_l2_norm):
        # ||Dv|| ~ eps^{(2-d)/2}: halving eps grows the energy by about sqrt(2)
        mesh = build_box_mesh((1, 1, 1), 32)
        solver = NeumannSolver(mesh, identity_field, SolveConfig(linear_solver="krylov"))
        e = {eps: gradient_l2_norm(mollified_column(solver, eps)) for eps in (4 / 32, 8 / 32)}
        ratio = e[4 / 32] / e[8 / 32]
        assert abs(ratio - np.sqrt(2)) / np.sqrt(2) < 0.25


class TestKernelBuild:
    def test_positive_near_pole(self, unit_cube_12, identity_field, solve_config):
        kern = build_kernel(unit_cube_12, identity_field, CENTER, solve_config)
        near = np.linalg.norm(unit_cube_12.nodes - np.array(CENTER), axis=1) < 0.2
        assert np.all(kern.values[near, 0, 0] > 0)

    def test_columns_have_zero_boundary_mean(self, unit_cube_12, checkerboard_field, solve_config):
        kern = build_kernel(unit_cube_12, checkerboard_field, CENTER, solve_config)
        for k in range(kern.m):
            assert np.abs(boundary_mean(kern.column(k))).max() < 1e-8

    def test_bit_reproducible(self, unit_cube_12, checkerboard_field, solve_config):
        a = build_kernel(unit_cube_12, checkerboard_field, CENTER, solve_config)
        b = build_kernel(unit_cube_12, checkerboard_field, CENTER, solve_config)
        assert np.array_equal(a.values, b.values)

    def test_eps_consistency(self, identity_field, solve_config):
        solver = NeumannSolver(build_box_mesh((1, 1, 1), 16), identity_field, solve_config)
        probes = np.array(CENTER) + np.array(
            [[6 / 16, 0, 0], [0, -7 / 16, 0], [5 / 16, 5 / 16, 0]]
        )
        a, b = (np.abs(interpolate(mollified_column(solver, eps), probes)[:, 0])
                for eps in (2 / 16, 3 / 16))
        assert np.max(np.abs(a - b) / b) < 0.05

    def test_pole_depth_enforced(self, unit_cube_12, identity_field, solve_config):
        with pytest.raises(InvalidGeometryError):
            build_kernel(unit_cube_12, identity_field, (0.25, 0.5, 0.5), solve_config)

    @pytest.mark.parametrize("pole", [(np.nan, 0.5, 0.5), (0.5, np.inf, 0.5), (0.5, 0.5, 1e300)])
    def test_non_finite_or_far_pole_is_outside(self, unit_cube_12, identity_field, solve_config,
                                               pole):
        with pytest.raises(OutOfDomainError):
            build_kernel(unit_cube_12, identity_field, pole, solve_config)

    def test_scale_consistency(self, identity_field, solve_config):
        # N_s(x, y) = s^{2-d} N_1(x/s, y/s) within discretization error
        m1 = build_box_mesh((1, 1, 1), 8)
        m2 = build_box_mesh((2, 2, 2), 4)
        k1 = build_kernel(m1, identity_field, CENTER, solve_config)
        k2 = build_kernel(m2, identity_field, (1.0, 1.0, 1.0), solve_config)
        probes1 = np.array(CENTER) + np.array([[0.375, 0, 0], [0, 0, -0.375]])
        v1 = k1.magnitude_at(probes1)
        v2 = k2.magnitude_at(2 * probes1)
        assert np.max(np.abs(0.5 * v1 - v2) / (0.5 * v1)) < 0.10

    def test_oracle_agreement_midrange(self, unit_cube_12, identity_field, solve_config):
        kern = build_kernel(unit_cube_12, identity_field, CENTER, solve_config)
        rng = np.random.default_rng(0)
        dirs = rng.standard_normal((8, 3))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        probes = np.array(CENTER) + (4 / 12) * dirs
        fe = kern.magnitude_at(probes)
        oracle = np.abs(cube_neumann_series_batch(probes, np.array(CENTER), 24))
        assert np.max(np.abs(fe - oracle) / oracle) < 0.10


class TestDefiningIdentity:
    def test_random_fields_bounded_mode(self, unit_cube_12, checkerboard_field, solve_config):
        kern = build_kernel(unit_cube_12, checkerboard_field, CENTER, solve_config)
        rng = np.random.default_rng(3)
        worst = 0.0
        for _ in range(20):
            phi = DiscreteField(unit_cube_12, rng.standard_normal((unit_cube_12.n_nodes, 1)))
            worst = max(worst, np.abs(check_defining_identity(kern, phi)).max())
        assert worst < 1e-8

    def test_constant_test_field(self, unit_cube_12, identity_field, solve_config):
        # B term vanishes, boundary term equals the mollified term exactly
        kern = build_kernel(unit_cube_12, identity_field, CENTER, solve_config)
        phi = DiscreteField(unit_cube_12, np.full((unit_cube_12.n_nodes, 1), 3.7))
        assert np.abs(check_defining_identity(kern, phi)).max() < 1e-10

    def test_field_supported_away_from_pole_and_boundary(
        self, unit_cube_12, identity_field, solve_config
    ):
        kern = build_kernel(unit_cube_12, identity_field, CENTER, solve_config)
        mesh = unit_cube_12
        vals = np.zeros((mesh.n_nodes, 1))
        sel = (
            (np.linalg.norm(mesh.nodes - np.array(CENTER), axis=1) > 0.3)
            & (mesh.nodes.min(axis=1) > 0.2)
            & (mesh.nodes.max(axis=1) < 0.8)
        )
        vals[sel] = 1.0
        phi = DiscreteField(mesh, vals)
        assert np.abs(check_defining_identity(kern, phi)).max() < 1e-8

    def test_graph_mode(self, flat_graph_12, identity_field, solve_config):
        kern = build_kernel(flat_graph_12, identity_field, (0.5, 0.5, 0.45), solve_config)
        rng = np.random.default_rng(4)
        worst = 0.0
        for _ in range(20):
            vals = rng.standard_normal((flat_graph_12.n_nodes, 1))
            vals[flat_graph_12.far_nodes] = 0.0
            worst = max(
                worst, np.abs(check_defining_identity(kern, DiscreteField(flat_graph_12, vals))).max()
            )
        assert worst < 1e-8

    def test_graph_mode_rejects_nonvanishing_fields(
        self, flat_graph_12, identity_field, solve_config
    ):
        kern = build_kernel(flat_graph_12, identity_field, (0.5, 0.5, 0.45), solve_config)
        phi = DiscreteField(flat_graph_12, np.ones((flat_graph_12.n_nodes, 1)))
        with pytest.raises(InterfaceError):
            check_defining_identity(kern, phi)

    @pytest.mark.parametrize("kernel_m,field_m", [(1, 2), (2, 1)])
    def test_component_count_mismatch(self, unit_cube_8, solve_config, kernel_m, field_m):
        # an m = 1 kernel against an m = 2 field returned a number, the other
        # way round raised a raw IndexError
        fld = make_coefficient(Identity(m=kernel_m))
        kern = build_kernel(unit_cube_8, fld, CENTER, solve_config)
        phi = DiscreteField(unit_cube_8, np.ones((unit_cube_8.n_nodes, field_m)))
        with pytest.raises(InterfaceError, match=f"{field_m} components, the kernel {kernel_m}"):
            check_defining_identity(kern, phi)

    def test_mesh_mismatch(self, unit_cube_12, unit_cube_8, identity_field, solve_config):
        kern = build_kernel(unit_cube_12, identity_field, CENTER, solve_config)
        phi = DiscreteField(unit_cube_8, np.zeros((unit_cube_8.n_nodes, 1)))
        with pytest.raises(InterfaceError):
            check_defining_identity(kern, phi)


class TestSymmetryIdentity:
    def test_self_adjoint_scalar(self, unit_cube_12, identity_field, solve_config):
        y = np.array([0.5, 0.5, 1 / 3])
        x = np.array([0.5, 0.5, 2 / 3])
        solver = NeumannSolver(unit_cube_12, identity_field, solve_config)
        kf = kernel_at(solver, y)
        ka = kernel_at(solver, x, adjoint=True)
        assert check_symmetry_identity(kf, ka) < 1e-8
        # pointwise symmetry for the self-adjoint operator
        kx = kernel_at(solver, x)
        assert abs(kf.value_at(x)[0, 0] - kx.value_at(y)[0, 0]) < 1e-6

    def test_skew_defect_small_but_kernel_asymmetric(self, unit_cube_12, solve_config):
        fld = make_coefficient(SkewPerturbed(ScalarCheckerboard(10.0), 0.5))
        poles = [
            np.array([0.5, 0.5, 1 / 3]),
            np.array([0.5, 0.5, 2 / 3]),
            np.array([1 / 3, 0.5, 0.5]),
            np.array([5 / 12, 5 / 12, 5 / 12]),
        ]
        solver = NeumannSolver(unit_cube_12, fld, solve_config)
        kerns = [kernel_at(solver, p) for p in poles]
        ka = kernel_at(solver, poles[1], adjoint=True)
        assert check_symmetry_identity(kerns[0], ka) < 1e-8
        asym = max(
            abs(kerns[j].value_at(poles[i])[0, 0] - kerns[i].value_at(poles[j])[0, 0])
            for i in range(len(poles))
            for j in range(i + 1, len(poles))
        )
        assert asym > 1e-3  # the check is not vacuous

    def test_same_pole_pairing(self, unit_cube_12, checkerboard_field, solve_config):
        y = np.array([0.5, 0.5, 0.5])
        solver = NeumannSolver(unit_cube_12, checkerboard_field, solve_config)
        kf = kernel_at(solver, y)
        ka = kernel_at(solver, y, adjoint=True)
        assert check_symmetry_identity(kf, ka) < 1e-8

    def test_vector_system(self, unit_cube_12, solve_config):
        fld = make_coefficient(SkewPerturbed(Identity(m=2), 0.4))
        y = np.array([5 / 12, 0.5, 0.5])
        x = np.array([7 / 12, 0.5, 0.5])
        solver = NeumannSolver(unit_cube_12, fld, solve_config)
        kf = kernel_at(solver, y)
        ka = kernel_at(solver, x, adjoint=True)
        assert check_symmetry_identity(kf, ka) < 1e-8

    def test_forward_solver_serves_both_directions(self, unit_cube_8, solve_config):
        # the forward field's solver builds the adjoint kernel too
        fld = make_coefficient(SkewPerturbed(ScalarCheckerboard(10.0), 0.5))
        solver = NeumannSolver(unit_cube_8, fld, solve_config)
        fwd = kernel_at(solver, CENTER)
        adj = kernel_at(solver, CENTER, adjoint=True)
        assert fwd.solver is adj.solver is solver
        assert not np.array_equal(fwd.values, adj.values)
        own = kernel_at(NeumannSolver(unit_cube_8, fld, solve_config), CENTER, adjoint=True)
        assert np.array_equal(adj.values, own.values)


class TestAdjointFromForwardSolver:
    """Adjoint kernels of the forward solver against solves of the assembled adjoint field."""

    Y = np.array([0.5, 0.5, 5 / 12])
    X = np.array([0.5, 0.5, 7 / 12])

    @staticmethod
    def reference(mesh, fld, y, cfg):
        adj = adjoint_coefficients(fld)
        return build_kernel(mesh, adj, y, cfg)

    @pytest.mark.parametrize(
        "spec",
        [
            Identity(),
            ScalarCheckerboard(10.0),
            CellwiseRandom(0.5, 2.0, seed=4, m=2),
            SmoothVMO(2.0, 0.5),
        ],
        ids=["identity", "checkerboard", "cellwise-random", "smooth"],
    )
    def test_symmetric_bit_identical(self, unit_cube_12, solve_config, spec):
        fld = make_coefficient(spec)
        solver = NeumannSolver(unit_cube_12, fld, solve_config)
        assert solver.symmetric
        ka = kernel_at(solver, self.Y, adjoint=True)
        ref = self.reference(unit_cube_12, fld, self.Y, solve_config)
        assert np.array_equal(ka.values, ref.values)

    @pytest.mark.parametrize("m", [1, 3])
    def test_skew_matches_adjoint_field(self, unit_cube_12, solve_config, m):
        fld = make_coefficient(SkewPerturbed(ScalarCheckerboard(10.0, seed=2, m=m), 0.5, seed=2))
        solver = NeumannSolver(unit_cube_12, fld, solve_config)
        assert not solver.symmetric
        ka = kernel_at(solver, self.Y, adjoint=True)
        ref = self.reference(unit_cube_12, fld, self.Y, solve_config)
        assert np.abs(ka.values - ref.values).max() <= 1e-12 * np.abs(ref.values).max()
        K = solver.stiffness.matrix
        assert (solver.operator(adjoint=True) != K.T).nnz == 0
        rng = np.random.default_rng(m)
        for _ in range(3):
            phi = DiscreteField(unit_cube_12, rng.standard_normal((unit_cube_12.n_nodes, m)))
            assert np.abs(check_defining_identity(ka, phi)).max() <= 1e-8

    @pytest.mark.parametrize("m", [1, 3])
    @pytest.mark.parametrize("linear_solver", ["direct", "krylov"])
    def test_skew_pairing_on_both_configs(self, unit_cube_12, m, linear_solver):
        fld = make_coefficient(SkewPerturbed(ScalarCheckerboard(10.0, seed=2, m=m), 0.5, seed=2))
        cfg = SolveConfig(linear_solver=linear_solver)
        solver = NeumannSolver(unit_cube_12, fld, cfg)
        kf = kernel_at(solver, self.Y)
        ka = kernel_at(solver, self.X, adjoint=True)
        assert kf.telemetry["columns"][0]["method"] == "bounded-direct"
        assert check_symmetry_identity(kf, ka) <= 1e-8


class TestNodeKernelSet:
    @pytest.fixture(scope="class")
    def skew_case(self):
        mesh = build_box_mesh((1, 1, 1), 6)
        spec = SkewPerturbed(ScalarCheckerboard(10.0, seed=3, m=3), 0.5, seed=3)
        return mesh, make_coefficient(spec), SolveConfig()

    def test_one_factor_one_load_few_solves(self, skew_case, monkeypatch):
        import neumannlab.kernel as kernelmod
        import neumannlab.solve as solvemod

        calls = {"splu": 0, "load": 0}
        solves = []  # one entry per blocked solve; list.append is atomic across workers
        splu, load = solvemod.spla.splu, kernelmod.mollifier_load

        class CountingLU:
            def __init__(self, lu):
                self.lu = lu

            def solve(self, rhs):
                solves.append(rhs.shape[1])
                return self.lu.solve(rhs)

        def counting_splu(*args, **kwargs):
            calls["splu"] += 1
            return CountingLU(splu(*args, **kwargs))

        def counting_load(*args, **kwargs):
            calls["load"] += 1
            return load(*args, **kwargs)

        monkeypatch.setattr(solvemod.spla, "splu", counting_splu)
        monkeypatch.setattr(kernelmod, "mollifier_load", counting_load)
        kernels = build_node_kernel_set(*skew_case)
        assert kernels.values.shape == (343, 343, 3, 3)
        assert kernels.loads.shape == (343, 343)
        assert calls["splu"] == 1 and calls["load"] == 1
        # 1029 columns in blocks of _POLE_BLOCK poles
        assert len(solves) == math.ceil(343 / kernelmod._POLE_BLOCK)
        assert sum(solves) == 1029

    def test_matches_per_pole_kernels(self, skew_case):
        mesh, fld, cfg = skew_case
        kernels = build_node_kernel_set(mesh, fld, cfg)
        m = fld.m
        solver = NeumannSolver(mesh, fld, cfg)
        for p in (0, 24, 171, 342):  # corner, centre of the face x = 0, centre, far corner
            # reference: the pole's own clipped load, one column per component,
            # each with the compensating boundary flux -(1/|dOmega|) e_c, solved
            # by a solver apart from the set's
            load, _ = mollifier_load(mesh, mesh.nodes[p], 2 * mesh.h)
            flux = solver.boundary_weights / mesh.boundary_measure
            rhs = np.zeros((mesh.n_nodes, m, m))
            for c in range(m):
                rhs[:, c, c] = load[:, 0] - flux
            u, _ = solver.solve(rhs.reshape(solver.n_dof, m), adjoint=True)
            own = u.reshape(mesh.n_nodes, m, m)
            scale = np.abs(own).max()
            assert np.abs(kernels.values[p] - own).max() <= 1e-12 * scale
            assert np.abs(kernels.loads[:, p] - load[:, 0]).max() <= 1e-15

    @pytest.mark.parametrize("case", ["skew-6", "checkerboard-8"])
    def test_bit_identical_at_any_worker_count(self, case, skew_case, unit_cube_8,
                                               checkerboard_field, monkeypatch):
        import neumannlab.kernel as kernelmod

        args = skew_case if case == "skew-6" else (unit_cube_8, checkerboard_field, SolveConfig())
        solve_poles = kernelmod._solve_poles
        threads = []

        def recording(*a, **kw):
            threads.append(threading.get_ident())
            return solve_poles(*a, **kw)

        monkeypatch.setattr(kernelmod, "_solve_poles", recording)
        built = []
        interval = sys.getswitchinterval()
        for workers in (1, 3):
            monkeypatch.setattr(kernelmod, "_workers", lambda blocks, w=workers: w)
            threads.clear()
            # frequent thread switches, so that a block written by the wrong
            # worker or a lost slice shows
            sys.setswitchinterval(1e-6)
            try:
                kernels = build_node_kernel_set(*args)
            finally:
                sys.setswitchinterval(interval)
            # every block is solved on a pool thread, even with one worker
            assert threading.get_ident() not in threads
            assert workers > 1 or len(set(threads)) == 1
            built.append(kernels)
        one, three = built
        assert one.values.shape == three.values.shape
        assert one.values.tobytes() == three.values.tobytes()

    def test_workers_without_affinity_call(self, unit_cube_8, checkerboard_field, monkeypatch):
        # macOS has no os.sched_getaffinity: every CPU counts as usable there
        import neumannlab.kernel as kernelmod

        expected = build_node_kernel_set(unit_cube_8, checkerboard_field, SolveConfig())
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        assert kernelmod._workers(64) == min(os.cpu_count() or 1, kernelmod._MAX_WORKERS)
        assert kernelmod._workers(1) == 1
        kernels = build_node_kernel_set(unit_cube_8, checkerboard_field, SolveConfig())
        assert kernels.values.tobytes() == expected.values.tobytes()
        monkeypatch.setattr(os, "cpu_count", lambda: None)  # a count it cannot tell
        assert kernelmod._workers(64) == 1

    @pytest.mark.parametrize("fail", [False, True])
    def test_threads_and_blas_counts_restored(self, skew_case, monkeypatch, fail):
        # a worker's typed error reaches the caller as that error, and the
        # pool's threads and the BLAS thread counts are gone and back either way
        import neumannlab.kernel as kernelmod
        import neumannlab.solve as solvemod

        libs = solvemod._loaded_openblas()
        if not libs:
            pytest.skip("no OpenBLAS with openblas_set_num_threads_local is loaded")
        solve_poles = kernelmod._solve_poles
        inside = []

        def recording(*a, **kw):
            inside.append(_blas_counts(libs))
            if fail:
                raise NumericFailureError("injected worker failure")
            return solve_poles(*a, **kw)

        monkeypatch.setattr(kernelmod, "_solve_poles", recording)
        # a prior count other than 1, so that a missed restore shows
        previous = [lib.openblas_set_num_threads_local(2) for lib in libs]
        try:
            before = set(threading.enumerate())
            prior = _blas_counts(libs)
            if fail:
                with pytest.raises(NumericFailureError, match="injected worker failure"):
                    build_node_kernel_set(*skew_case)
            else:
                build_node_kernel_set(*skew_case)
            assert set(threading.enumerate()) == before
            assert _blas_counts(libs) == prior == [2] * len(libs)
            assert inside and all(c == [1] * len(libs) for c in inside)
        finally:
            for lib, count in zip(libs, previous):
                lib.openblas_set_num_threads_local(count)

    def test_large_mesh_refused_before_assembly(self, identity_field, monkeypatch):
        import neumannlab.solve as solvemod

        def fail(*args, **kwargs):
            raise AssertionError("operator assembled before the size check")

        monkeypatch.setattr(solvemod, "assemble_stiffness", fail)
        mesh = build_box_mesh((1, 1, 1), 15)
        assert mesh.n_nodes > MAX_KERNEL_SET_NODES
        with pytest.raises(CoverageError):
            build_node_kernel_set(mesh, identity_field)


def _blas_counts(libs):
    """Each OpenBLAS library's thread count, read through its own getter."""
    getters = (
        "openblas_get_num_threads",
        "scipy_openblas_get_num_threads",
        "scipy_openblas_get_num_threads64_",
    )
    return [next(getattr(lib, g) for g in getters if hasattr(lib, g))() for lib in libs]


@pytest.fixture(scope="module")
def kernel_set(unit_cube_8, checkerboard_field, solve_config):
    return build_node_kernel_set(unit_cube_8, checkerboard_field, solve_config)


class TestRepresentation:

    def test_zero_data(self, kernel_set, unit_cube_8):
        u = representation_solve(kernel_set, None, None)
        assert_allclose(u.values, 0.0)

    def test_matches_direct_solve(self, kernel_set, unit_cube_8, checkerboard_field, solve_config):
        rng = np.random.default_rng(5)
        a = rng.uniform(-1, 1, 3)

        def f(p):
            return (
                a[0] * np.cos(np.pi * p[:, 0])
                + a[1] * np.cos(np.pi * p[:, 1]) * np.cos(2 * np.pi * p[:, 2])
            )[:, None]

        gconst = 0.2

        def g(p):
            return np.full((len(p), 1), gconst)

        def f_balanced(p):
            return f(p) - 6.0 * gconst

        direct = solve_neumann_bounded(unit_cube_8, checkerboard_field, f_balanced, g, solve_config)
        rep = representation_solve(kernel_set, f_balanced, g)
        readout = mollified_readout(kernel_set, direct)
        assert l2_norm(rep - readout) <= 1e-7 * l2_norm(readout)

    def test_readout_refuses_other_mesh(self, kernel_set, unit_cube_12):
        u = DiscreteField(unit_cube_12, np.zeros((unit_cube_12.n_nodes, 1)))
        with pytest.raises(InterfaceError, match="different mesh"):
            mollified_readout(kernel_set, u)

    def test_linearity(self, kernel_set):
        f1 = lambda p: np.cos(np.pi * p[:, :1])
        f2 = lambda p: np.cos(np.pi * p[:, 1:2])
        u1 = representation_solve(kernel_set, f1, None)
        u2 = representation_solve(kernel_set, f2, None)
        u12 = representation_solve(kernel_set, lambda p: f1(p) + f2(p), None)
        diff = DiscreteField(u12.mesh, u12.values - (u1.values + u2.values))
        assert l2_norm(diff) < 1e-12 * max(l2_norm(u12), 1.0)

    def test_manufactured_cosine(self, unit_cube_8, identity_field, solve_config):
        kernels = build_node_kernel_set(unit_cube_8, identity_field, solve_config)
        f = lambda p: (np.pi**2 * np.cos(np.pi * p[:, 0]))[:, None]
        rep = representation_solve(kernels, f, None)
        exact = DiscreteField(unit_cube_8, np.cos(np.pi * unit_cube_8.nodes[:, :1]))
        # mollified readout of the exact solution differs by O(eps^2 + h^2)
        assert l2_norm(rep - exact) < 0.1

    def test_graph_mesh_matches_direct_solve(self, checkerboard_field, solve_config):
        # the graph branches of the pole loads and of the representation pairing
        mesh = build_truncated_graph_mesh(
            lambda x, y: np.zeros_like(x), 0.0, ((0, 0, 0), (1, 1, 1)), 1.0 / 6
        )
        assert mesh.n_nodes == 343
        kernels = build_node_kernel_set(mesh, checkerboard_field, solve_config)

        def f(p):
            return (np.cos(np.pi * p[:, 0]) * np.cos(np.pi * p[:, 1]) + p[:, 2])[:, None]

        direct = solve_neumann(NeumannSolver(mesh, checkerboard_field, solve_config), f, None)
        rep = representation_solve(kernels, f, None)
        readout = mollified_readout(kernels, direct)
        assert l2_norm(rep - readout) <= 1e-12 * l2_norm(readout)
        with pytest.raises(InterfaceError, match="boundary density"):
            representation_solve(kernels, f, lambda p: np.ones((len(p), 1)))
