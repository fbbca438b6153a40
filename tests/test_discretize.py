import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp
from numpy.testing import assert_allclose

import neumannlab

from neumannlab.coeff import (
    CellwiseRandom,
    Identity,
    ScalarCheckerboard,
    SkewPerturbed,
    adjoint_coefficients,
    make_coefficient,
)
from neumannlab.discretize import (
    DiscreteField,
    assemble_boundary_load,
    assemble_stiffness,
    assemble_volume_load,
    boundary_mean,
    boundary_weight_vector,
    gradient_l2_norm,
    interpolate,
    l2_norm,
    shape_gradients,
    volume_quadrature,
)
from neumannlab.errors import InterfaceError, NumericFailureError, UnsupportedError
from neumannlab.mesh import build_box_mesh, build_staircase_mesh, build_truncated_graph_mesh


class TestStiffness:
    def test_constants_in_kernel(self, unit_cube_8, identity_field):
        K = assemble_stiffness(unit_cube_8, identity_field)
        ones = np.ones(K.n_dof)
        assert np.abs(K.matrix @ ones).max() < 1e-12

    def test_constants_in_kernel_rough(self, unit_cube_8):
        fld = make_coefficient(CellwiseRandom(0.5, 3.0, seed=5, m=2))
        K = assemble_stiffness(unit_cube_8, fld)
        const = np.tile([1.0, -2.0], unit_cube_8.n_nodes)
        assert np.abs(K.matrix @ const).max() < 1e-12

    def test_linear_field_energy(self, unit_cube_8, identity_field):
        K = assemble_stiffness(unit_cube_8, identity_field)
        u = unit_cube_8.nodes[:, 0].copy()
        assert_allclose(u @ (K.matrix @ u), 1.0, rtol=1e-12)

    def test_adjoint_assembles_to_transpose(self, unit_cube_8):
        fld = make_coefficient(SkewPerturbed(ScalarCheckerboard(3.0), 0.5))
        K = assemble_stiffness(unit_cube_8, fld).matrix
        Kt = assemble_stiffness(unit_cube_8, adjoint_coefficients(fld)).matrix
        assert abs(K - Kt.T).max() < 1e-14

    def test_coercivity_and_boundedness_on_constrained_fields(self, unit_cube_8):
        fld = make_coefficient(ScalarCheckerboard(10.0))
        K = assemble_stiffness(unit_cube_8, fld)
        b = boundary_weight_vector(unit_cube_8)
        rng = np.random.default_rng(2)
        for _ in range(100):
            v = rng.standard_normal(unit_cube_8.n_nodes)
            v -= b * (b @ v) / (b @ b)
            w = rng.standard_normal(unit_cube_8.n_nodes)
            w -= b * (b @ w) / (b @ b)
            dv = gradient_l2_norm(DiscreteField(unit_cube_8, v))
            dw = gradient_l2_norm(DiscreteField(unit_cube_8, w))
            energy = v @ (K.matrix @ v)
            assert energy >= fld.lam * dv**2 - 1e-10
            assert abs(w @ (K.matrix @ v)) <= fld.bound * dv * dw + 1e-10


def coo_stiffness(mesh, fld):
    """Reference assembly: per-cell element matrices summed through COO triples."""
    ref, w = volume_quadrature(2)
    grads = shape_gradients(ref) / mesh.h
    m = fld.m
    pts = mesh.cell_origins()[:, None, :] + mesh.h * ref[None, :, :]
    a = fld.evaluate(pts.reshape(-1, 3)).reshape(mesh.n_cells, len(ref), 3, 3, m, m)
    kcell = np.einsum("g,cgabij,gqb,gpa->cpiqj", w * mesh.h**3, a, grads, grads)
    dofs = (mesh.cells[:, :, None] * m + np.arange(m)).reshape(mesh.n_cells, 8 * m)
    rows = np.repeat(dofs, 8 * m, axis=1).ravel()
    cols = np.tile(dofs, (1, 8 * m)).ravel()
    n = mesh.n_nodes * m
    return sp.coo_matrix((kcell.ravel(), (rows, cols)), shape=(n, n)).tocsr()


ASSEMBLY_MESHES = {
    "box": build_box_mesh((1, 1, 1), 6),
    "staircase": build_staircase_mesh(
        [((0, 0, 0), (0.5, 1, 1)), ((0.5, 0, 0), (1, 0.5, 1))], 1.0 / 8
    ),
    "graph": build_truncated_graph_mesh(
        lambda x, y: 0.2 + 0.15 * np.sin(3 * x + 2 * y), 0.6, ((0, 0, 0), (1, 1, 1)), 1.0 / 8
    ),
}
ASSEMBLY_FIELDS = {
    "identity": Identity(),
    "checkerboard": ScalarCheckerboard(100.0, seed=3),
    "skew-m3": SkewPerturbed(CellwiseRandom(0.5, 3.0, seed=4, m=3), 0.5, seed=4),
}


class TestStencilAssembly:
    @pytest.mark.parametrize("field", sorted(ASSEMBLY_FIELDS))
    @pytest.mark.parametrize("name", sorted(ASSEMBLY_MESHES))
    def test_matches_coo_reference(self, name, field):
        mesh = ASSEMBLY_MESHES[name]
        fld = make_coefficient(ASSEMBLY_FIELDS[field])
        K = assemble_stiffness(mesh, fld).matrix
        ref = coo_stiffness(mesh, fld)
        assert K.has_canonical_format
        assert not np.any(K.data == 0.0)
        scale = abs(ref).max()
        assert abs(K - ref).max() <= 1e-14 * scale
        # the patterns differ only where one side's sum cancelled to exact zero
        ref.eliminate_zeros()
        ours = set(zip(*K.nonzero()))
        theirs = set(zip(*ref.nonzero()))
        for i, j in ours ^ theirs:
            assert max(abs(K[i, j]), abs(ref[i, j])) <= 1e-14 * scale
        assert len(ours ^ theirs) <= 0.01 * len(theirs)


#: Assembles a contrast-100 graph mesh and an m = 3 skew box and prints the
#: sha256 of each matrix's data, indices and indptr.
_HASH_SCRIPT = """
import hashlib
import numpy as np
from neumannlab.coeff import ScalarCheckerboard, SkewPerturbed, make_coefficient
from neumannlab.discretize import assemble_stiffness
from neumannlab.mesh import build_box_mesh, build_truncated_graph_mesh

def profile(x, y):
    return -2.7 + 0.1 * np.sin(2.5 * x + 0.3) + 0.08 * np.sin(3.0 * (0.6 * x + 0.8 * y))

cases = [
    (build_truncated_graph_mesh(profile, 0.5, ((-3, -3, -3), (3, 3, 3)), 1 / 6),
     ScalarCheckerboard(100.0, seed=1)),
    (build_box_mesh((1, 1, 1), 6),
     SkewPerturbed(ScalarCheckerboard(10.0, seed=1, m=3), 0.5, seed=1)),
]
for mesh, spec in cases:
    K = assemble_stiffness(mesh, make_coefficient(spec)).matrix
    digest = hashlib.sha256()
    for arr in (K.data, K.indices, K.indptr):
        digest.update(np.ascontiguousarray(arr).tobytes())
    print(digest.hexdigest())
"""


def test_assembly_independent_of_blas_threads():
    src = str(Path(neumannlab.__file__).resolve().parents[1])
    hashes = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        out = subprocess.run(
            [sys.executable, "-c", _HASH_SCRIPT], env=env, capture_output=True, text=True,
            check=True,
        )
        hashes.append(out.stdout.split())
    assert len(hashes[0]) == 2
    assert hashes[0] == hashes[1]


class TestLoads:
    def test_zero_data_zero_load(self, unit_cube_8):
        assert_allclose(assemble_volume_load(unit_cube_8, None, 1), 0.0)
        assert_allclose(assemble_boundary_load(unit_cube_8, None, 1), 0.0)

    def test_constant_volume_load_sums_to_volume(self, unit_cube_8):
        c = 2.5
        load = assemble_volume_load(unit_cube_8, lambda p: np.full((len(p), 1), c), 1)
        assert_allclose(load.sum(), c * unit_cube_8.volume, rtol=1e-12)

    def test_constant_boundary_load_sums_to_area(self, unit_cube_8):
        c = -0.75
        load = assemble_boundary_load(unit_cube_8, lambda p: np.full((len(p), 1), c), 1)
        assert_allclose(load.sum(), c * unit_cube_8.boundary_measure, rtol=1e-12)

    def test_linear_boundary_density(self, unit_cube_8):
        # int_{dOmega} x1 dsigma = 3 (faces x1=1 give 1, sides average 0.5 each over 4 sides)
        load = assemble_boundary_load(unit_cube_8, lambda p: p[:, :1], 1)
        assert_allclose(load.sum(), 3.0, rtol=1e-12)

    def test_graph_only_load(self, flat_graph_12):
        load = assemble_boundary_load(flat_graph_12, lambda p: np.ones((len(p), 1)), 1)
        assert_allclose(load.sum(), 1.0, rtol=1e-12)  # graph floor area only

    @pytest.mark.parametrize(
        "mesh",
        [
            build_box_mesh((1, 1, 1), 3),
            build_staircase_mesh([((0, 0, 0), (0.5, 1, 1)), ((0.5, 0, 0), (1, 0.5, 1))], 0.25),
            build_truncated_graph_mesh(
                lambda x, y: 0.25 * x, 0.5, ((0, 0, 0), (1, 1, 1)), 0.25
            ),
        ],
        ids=["box", "staircase", "graph"],
    )
    def test_boundary_load_exact_on_linear_test_functions(self, mesh):
        # sum_p load_p l(x_p) = int_{dOmega} g l for linear l: the trilinear
        # interpolant of l is l, and 2-point Gauss integrates g psi_p exactly;
        # on a graph mesh dOmega is the graph part
        def g(p):
            return np.stack([1 + p[:, 0] - 2 * p[:, 1] + 0.5 * p[:, 2], p[:, 1] ** 2], axis=1)

        def ell(p):
            return np.stack([0.3 + p[:, 0] - 0.7 * p[:, 1] + 2 * p[:, 2], 1 - p[:, 2]], axis=1)

        load = assemble_boundary_load(mesh, g, 2).reshape(-1, 2)
        discrete = (load * ell(mesh.nodes)).sum(axis=0)
        # reference: 3-point Gauss on every facet from its corner box
        x, w = np.polynomial.legendre.leggauss(3)
        x, w = 0.5 * (x + 1), 0.5 * w
        exact = np.zeros(2)
        sel = mesh.graph_facets if mesh.is_graph else slice(None)
        for lo, hi, area in zip(mesh.facet_lo[sel], mesh.facet_hi[sel], mesh.facet_area[sel]):
            tangential = np.flatnonzero(hi > lo)
            for xa, wa in zip(x, w):
                for xb, wb in zip(x, w):
                    p = lo.copy()
                    p[tangential] += (hi - lo)[tangential] * (xa, xb)
                    exact += area * wa * wb * (g(p[None]) * ell(p[None]))[0]
        assert_allclose(discrete, exact, rtol=1e-12)


class TestDiscreteFieldChecks:
    def test_row_count_mismatch(self, unit_cube_8):
        with pytest.raises(InterfaceError):
            DiscreteField(unit_cube_8, np.zeros((3, 1)))

    def test_non_finite_values(self, unit_cube_8):
        vals = np.zeros((unit_cube_8.n_nodes, 1))
        vals[5] = np.nan
        with pytest.raises(NumericFailureError):
            DiscreteField(unit_cube_8, vals)


class TestBoundaryMean:
    def test_constant_field(self, unit_cube_8):
        u = DiscreteField(unit_cube_8, np.ones((unit_cube_8.n_nodes, 1)))
        assert_allclose(boundary_mean(u), [6.0])
        assert_allclose(boundary_mean(u) / unit_cube_8.boundary_measure, [1.0])

    def test_cosine_field(self, unit_cube_8):
        # face-by-face: x1-faces give +1 and -1, side faces cancel pairwise
        u = DiscreteField(unit_cube_8, np.cos(np.pi * unit_cube_8.nodes[:, :1]))
        assert_allclose(boundary_mean(u), [0.0], atol=1e-13)

    def test_zero_field(self, unit_cube_8):
        u = DiscreteField(unit_cube_8, np.zeros((unit_cube_8.n_nodes, 1)))
        assert_allclose(boundary_mean(u), [0.0])

    def test_graph_mesh_unsupported(self, flat_graph_12):
        u = DiscreteField(flat_graph_12, np.ones((flat_graph_12.n_nodes, 1)))
        with pytest.raises(UnsupportedError):
            boundary_mean(u)


class TestInterpolation:
    def test_linear_reproduction(self, unit_cube_8):
        u = DiscreteField(unit_cube_8, unit_cube_8.nodes[:, :1])
        pts = np.array([[0.3, 0.4, 0.5], [0.125, 0.99, 0.01], [1.0, 1.0, 1.0]])
        assert_allclose(interpolate(u, pts)[:, 0], pts[:, 0], atol=1e-13)

    def test_l2_norm_of_linear(self, unit_cube_8):
        u = DiscreteField(unit_cube_8, unit_cube_8.nodes[:, :1])
        assert_allclose(l2_norm(u), np.sqrt(1.0 / 3.0), rtol=1e-12)
        assert_allclose(gradient_l2_norm(u), 1.0, rtol=1e-12)
