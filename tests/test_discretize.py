import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp
from numpy.testing import assert_allclose

import neumannlab
from neumannlab import discretize

from adjoint_reference import adjoint_coefficients
from mesh_reference import l_shape
from stiffness_reference import reference_stiffness, tensors_symmetric
from neumannlab.coeff import (
    CellwiseRandom,
    Identity,
    ScalarCheckerboard,
    SkewPerturbed,
    make_coefficient,
)
from neumannlab.discretize import (
    DiscreteField,
    assemble_boundary_load,
    assemble_stiffness,
    assemble_volume_load,
    boundary_mean,
    boundary_weight_vector,
    facet_quadrature,
    gradient_at_quadrature,
    interpolate,
    l2_norm,
    shape_gradients,
    shape_values,
    values_at_quadrature,
    volume_quadrature,
)
from neumannlab.errors import InterfaceError, NumericFailureError, UnsupportedError
from neumannlab.mesh import build_box_mesh, build_truncated_graph_mesh


class TestStiffness:
    def test_constants_in_kernel(self, unit_cube_8, identity_field):
        K = assemble_stiffness(unit_cube_8, identity_field)
        ones = np.ones(K.matrix.shape[0])
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

    def test_coercivity_and_boundedness_on_constrained_fields(self, unit_cube_8, gradient_l2_norm):
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


def drop_roundoff(K):
    """K without the off-diagonal entries |K_rc| <= _DROP_RTOL min(K_rr, K_cc)."""
    K = K.tocoo()
    d = K.diagonal()
    keep = np.abs(K.data) > discretize._DROP_RTOL * np.minimum(d[K.row], d[K.col])
    keep |= K.row == K.col
    return sp.csr_matrix((K.data[keep], (K.row[keep], K.col[keep])), shape=K.shape)


ASSEMBLY_MESHES = {
    "box": build_box_mesh((1, 1, 1), 6),
    "staircase": l_shape(1.0 / 8),
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
        ref = drop_roundoff(coo_stiffness(mesh, fld))
        assert K.has_canonical_format
        assert not np.any(K.data == 0.0)
        scale = abs(ref).max()
        assert abs(K - ref).max() <= 1e-14 * scale
        # the patterns differ only where one side's roundoff crossed the drop limit
        ours = set(zip(*K.nonzero()))
        theirs = set(zip(*ref.nonzero()))
        for i, j in ours ^ theirs:
            assert max(abs(K[i, j]), abs(ref[i, j])) <= 1e-14 * scale
        assert len(ours ^ theirs) <= 0.01 * len(theirs)


class TestDropRule:
    """K stores the structural stencil: entries at roundoff level are dropped."""

    @pytest.mark.parametrize("field", sorted(ASSEMBLY_FIELDS))
    @pytest.mark.parametrize("name", sorted(ASSEMBLY_MESHES))
    def test_drops_exactly_the_entries_below_the_limit(self, monkeypatch, name, field):
        mesh = ASSEMBLY_MESHES[name]
        fld = make_coefficient(ASSEMBLY_FIELDS[field])
        K, rtol = assemble_stiffness(mesh, fld).matrix, discretize._DROP_RTOL
        monkeypatch.setattr(discretize, "_DROP_RTOL", 0.0)
        table = assemble_stiffness(mesh, fld).matrix.tocoo()  # every nonzero table entry
        d = table.diagonal()
        limit = rtol * np.minimum(d[table.row], d[table.col])
        stored = np.asarray(K[table.row, table.col]).ravel()
        kept = stored != 0.0
        assert np.array_equal(stored[kept], table.data[kept])
        assert K.nnz == np.count_nonzero(kept)
        off = table.row != table.col
        assert np.all(np.abs(table.data[~kept]) <= limit[~kept])
        assert np.all(np.abs(table.data[kept & off]) > limit[kept & off])

    def test_interior_row_of_isotropic_field_holds_21_entries(self):
        # the 6 face-neighbour entries vanish in exact arithmetic
        mesh = build_box_mesh((1, 1, 1), 12)
        fld = make_coefficient(ScalarCheckerboard(10.0, seed=1))
        K = assemble_stiffness(mesh, fld).matrix
        ijk = np.rint((mesh.nodes - mesh.origin) / mesh.h)
        interior = np.all((ijk > 0) & (ijk < 12), axis=1)
        assert np.all(np.diff(K.indptr)[interior] == 21)
        assert K.nnz == 38485

    def test_skew_vector_field_drops_nothing(self, monkeypatch):
        mesh = build_box_mesh((1, 1, 1), 6)
        fld = make_coefficient(SkewPerturbed(ScalarCheckerboard(10.0, seed=1, m=3), 0.5, seed=1))
        nnz = assemble_stiffness(mesh, fld).matrix.nnz
        monkeypatch.setattr(discretize, "_DROP_RTOL", 0.0)
        assert nnz == assemble_stiffness(mesh, fld).matrix.nnz == 61731


#: mesh and field of each chunking case; the scalar meshes hold more than one
#: default assembly chunk (2048 cells)
CHUNK_CASES = {
    "box": (build_box_mesh((1, 1, 1), 14), "checkerboard"),
    "graph": (
        build_truncated_graph_mesh(
            lambda x, y: 0.2 + 0.15 * np.sin(3 * x + 2 * y), 0.6, ((0, 0, 0), (1, 1, 1)), 1 / 16
        ),
        "checkerboard",
    ),
    "box-m3": (ASSEMBLY_MESHES["box"], "skew-m3"),
}


def _interior_dofs(mesh, m):
    """Ascending DOFs of the nodes off a graph mesh's far boundary."""
    keep = np.ones(mesh.n_nodes * m, dtype=bool)
    keep.reshape(-1, m)[mesh.far_nodes] = False
    return np.flatnonzero(keep)


#: mesh, field spec and ``free`` of each read-off case: every assembly mesh
#: and field, a graph mesh with free DOFs, and the 6^3 m = 3 skew box, where
#: nothing is dropped, so each block's kept values overwrite its own rows
READ_OFF_CASES = {
    f"{name}-{field}": (ASSEMBLY_MESHES[name], ASSEMBLY_FIELDS[field], None)
    for name in ASSEMBLY_MESHES
    for field in ASSEMBLY_FIELDS
}
READ_OFF_CASES["graph-free-checkerboard"] = (
    ASSEMBLY_MESHES["graph"], ASSEMBLY_FIELDS["checkerboard"],
    _interior_dofs(ASSEMBLY_MESHES["graph"], 1),
)
READ_OFF_CASES["graph-free-skew-m3"] = (
    ASSEMBLY_MESHES["graph"], ASSEMBLY_FIELDS["skew-m3"], _interior_dofs(ASSEMBLY_MESHES["graph"], 3),
)
READ_OFF_CASES["box-nothing-dropped"] = (
    ASSEMBLY_MESHES["box"], SkewPerturbed(ScalarCheckerboard(10.0, seed=1, m=3), 0.5, seed=1), None,
)


class TestInPlaceReadOff:
    """The CSR written into the stencil table's own buffer is the list-and-join one."""

    # chunk 1 gives two-node read-off blocks: the most blocks written to the front
    @pytest.mark.parametrize(
        "chunk", [1, 7, pytest.param(discretize._ASSEMBLY_CHUNK, id="default")]
    )
    @pytest.mark.parametrize("case", sorted(READ_OFF_CASES))
    def test_bit_identical_to_list_and_join(self, monkeypatch, case, chunk):
        mesh, spec, free = READ_OFF_CASES[case]
        fld = make_coefficient(spec)
        monkeypatch.setattr(discretize, "_ASSEMBLY_CHUNK", chunk)
        ours, ref = assemble_stiffness(mesh, fld, free), reference_stiffness(mesh, fld, free)
        for name in ("data", "indices", "indptr"):
            got, want = getattr(ours.matrix, name), getattr(ref.matrix, name)
            assert got.dtype == want.dtype
            assert np.array_equal(got, want)
        assert ours.symmetric == ref.symmetric

    def test_same_matrix_under_a_tracer_that_reads_frame_locals(self):
        # a debugger's view of the frame's locals is one more reference to the
        # table, which the in-place shrink refuses; the read-off copies instead
        mesh, spec, free = READ_OFF_CASES["graph-free-checkerboard"]
        fld = make_coefficient(spec)

        def tracer(frame, event, arg):
            frame.f_locals
            return tracer

        outer = sys.gettrace()
        sys.settrace(tracer)
        try:
            traced = assemble_stiffness(mesh, fld, free).matrix
        finally:
            sys.settrace(outer)
        K = reference_stiffness(mesh, fld, free).matrix
        for name in ("data", "indices", "indptr"):
            assert np.array_equal(getattr(traced, name), getattr(K, name))

    def test_peak_memory_below_one_copy_of_the_stored_entries(self):
        # the list-and-join read-off held the stored values twice and peaked
        # above this bound; the table's own buffer holds them once
        mesh = build_box_mesh((1, 1, 1), 48)
        fld = make_coefficient(ASSEMBLY_FIELDS["checkerboard"])
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            K = assemble_stiffness(mesh, fld).matrix
            peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        table = (mesh.n_nodes + 1) * 27 * np.dtype(float).itemsize
        assert peak <= table + K.data.nbytes + K.indices.nbytes


class TestChunkedAssembly:
    @pytest.mark.parametrize(
        "chunk", [1, 7, pytest.param(discretize._ASSEMBLY_CHUNK, id="default")]
    )
    @pytest.mark.parametrize("case", sorted(CHUNK_CASES))
    def test_bit_identical_at_any_chunk_size(self, monkeypatch, case, chunk):
        mesh, field = CHUNK_CASES[case]
        fld = make_coefficient(ASSEMBLY_FIELDS[field])
        monkeypatch.setattr(discretize, "_ASSEMBLY_CHUNK", fld.m**2 * mesh.n_cells)  # one chunk
        whole = assemble_stiffness(mesh, fld)
        monkeypatch.setattr(discretize, "_ASSEMBLY_CHUNK", chunk)
        chunked = assemble_stiffness(mesh, fld)
        K, ref = chunked.matrix, whole.matrix
        assert np.array_equal(K.data, ref.data)
        assert np.array_equal(K.indices, ref.indices)
        assert np.array_equal(K.indptr, ref.indptr)
        assert chunked.symmetric == whole.symmetric == tensors_symmetric(mesh, fld)


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

    @pytest.mark.parametrize("assemble", [assemble_volume_load, assemble_boundary_load])
    def test_one_dimensional_density_is_an_interface_error(self, assemble):
        # a scalar density must return (n, 1), not (n,)
        with pytest.raises(InterfaceError, match="density returned shape"):
            assemble(build_box_mesh((1, 1, 1), 4), lambda p: np.cos(np.pi * p[:, 0]), 1)

    def test_constant_volume_load_sums_to_volume(self, unit_cube_8):
        c = 2.5
        load = assemble_volume_load(unit_cube_8, lambda p: np.full((len(p), 1), c), 1)
        assert_allclose(load.sum(), c, rtol=1e-12)  # the unit cube has volume 1

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
            l_shape(0.25),
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


#: an L-shaped mesh and an m = 2 field on it, for the per-cell references
def _l_shape_field(m):
    mesh = l_shape(0.125)
    values = np.random.default_rng(m).standard_normal((mesh.n_nodes, m))
    return mesh, DiscreteField(mesh, values)


class TestTableProducts:
    """Loads and Gauss-point values are products with shape tables; per-cell
    sums are the reference, to a few ulps of the largest entry."""

    @pytest.mark.parametrize("m", [1, 2])
    def test_loads_match_per_cell_sums(self, m):
        mesh, _ = _l_shape_field(m)

        def f(p):
            both = np.stack([np.cos(3 * p[:, 0]) + p[:, 1] * p[:, 2], np.sin(p[:, 2])], axis=1)
            return both[:, :m]

        ref, w = volume_quadrature(2)
        psi = shape_values(ref)
        expected = np.zeros((mesh.n_nodes, m))
        for cell, origin in zip(mesh.cells, mesh.cell_origins()):
            fv = f(origin + mesh.h * ref)  # (G, m)
            wfv = w[:, None, None] * mesh.h**3 * fv[:, None, :]
            expected[cell] += (wfv * psi[:, :, None]).sum(axis=0)
        load = assemble_volume_load(mesh, f, m).reshape(-1, m)
        assert np.abs(load - expected).max() <= 1e-15 * np.abs(expected).max() * 8
        pts, trace, w2 = facet_quadrature(mesh)
        expected = np.zeros((mesh.n_nodes, m))
        for nodes, facet_pts in zip(mesh.facet_nodes, pts):
            gv = f(facet_pts)  # (Gf, m)
            expected[nodes] += (w2[:, None, None] * trace[:, :, None] * gv[:, None, :]).sum(0)
        load = assemble_boundary_load(mesh, f, m).reshape(-1, m)
        assert np.abs(load - expected).max() <= 1e-15 * np.abs(expected).max() * 8

    @pytest.mark.parametrize("m", [1, 3])
    def test_gauss_point_values_match_per_cell_sums(self, m):
        mesh, u = _l_shape_field(m)
        ref, _ = volume_quadrature(2)
        psi, grads = shape_values(ref), shape_gradients(ref) / mesh.h
        nodal = u.values[mesh.cells]  # (C, 8, m)
        values = (psi[None, :, :, None] * nodal[:, None, :, :]).sum(axis=2)
        gradients = (grads[None, :, :, None, :] * nodal[:, None, :, :, None]).sum(axis=2)
        scale = np.abs(u.values).max()
        assert np.abs(values_at_quadrature(u) - values).max() <= 8e-15 * scale
        assert np.abs(gradient_at_quadrature(u) - gradients).max() <= 8e-15 * scale / mesh.h

    @pytest.mark.parametrize("m", [1, 3])
    def test_gauss_point_values_ignore_cells_layout(self, m, monkeypatch):
        # Mesh keeps cells column-major for speed; a C-ordered copy gives the same bits
        mesh, u = _l_shape_field(m)
        before = values_at_quadrature(u), gradient_at_quadrature(u)
        monkeypatch.setattr(mesh, "cells", np.ascontiguousarray(mesh.cells))
        after = values_at_quadrature(u), gradient_at_quadrature(u)
        assert all(a.tobytes() == b.tobytes() for a, b in zip(map(np.ascontiguousarray, before),
                                                              map(np.ascontiguousarray, after)))


class TestVolumeQuadrature:
    @pytest.mark.parametrize("order", [1, 2, 3])
    def test_shared_rules_are_read_only(self, order):
        # every caller gets the same arrays, so none may write into them
        pts, wts = volume_quadrature(order)
        assert pts is volume_quadrature(order)[0]
        with pytest.raises(ValueError):
            pts[0, 0] = 0.0
        with pytest.raises(ValueError):
            wts[0] = 0.0


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

    def test_l2_norm_of_linear(self, unit_cube_8, gradient_l2_norm):
        u = DiscreteField(unit_cube_8, unit_cube_8.nodes[:, :1])
        assert_allclose(l2_norm(u), np.sqrt(1.0 / 3.0), rtol=1e-12)
        assert_allclose(gradient_l2_norm(u), 1.0, rtol=1e-12)
