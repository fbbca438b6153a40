"""Trilinear hexahedral FE assembly on uniform lattice meshes.

Degrees of freedom are node-major: dof(p, i) = p * m + i for node p and
component i.  The bilinear form entry ((p,i),(q,j)) is
``int_Omega A[a,b,i,j] D_b psi_q D_a psi_p`` under tensor Gauss quadrature;
coefficients are sampled per quadrature point, so piecewise-constant fields
are integrated exactly.  The mean-boundary-trace functional b (b_p =
int_{dOmega} psi_p) doubles as the constraint row realizing the zero-trace
normalization and as the boundary-mean evaluator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .errors import InterfaceError, NumericFailureError, UnsupportedError
from .mesh import CELL_CORNERS, Mesh

#: Gauss points per axis of every assembly, load and norm (exact for the
#: trilinear stiffness and mass on piecewise-constant coefficients)
QUADRATURE_ORDER = 2
#: cells per stiffness-assembly chunk, and nodes per block of the CSR read-off,
#: for a scalar field (an m-component field takes 1/m^2 as many): a chunk's
#: Gauss-point tensors and element matrices stay a few MB, so the assembly's
#: transient memory is first the stencil table plus one chunk, then the table
#: plus the kept indices; the stored values, written into the table's own
#: buffer, are never held twice.  Chunks are scattered in cell order, which
#: alone fixes the summation order, so K is bit-identical at any chunk size
_ASSEMBLY_CHUNK = 2048

_GAUSS = {
    1: (np.array([0.5]), np.array([1.0])),
    2: (np.array([0.5 - 0.5 / np.sqrt(3.0), 0.5 + 0.5 / np.sqrt(3.0)]), np.array([0.5, 0.5])),
    3: (
        np.array([0.5 - 0.5 * np.sqrt(0.6), 0.5, 0.5 + 0.5 * np.sqrt(0.6)]),
        np.array([5.0 / 18.0, 8.0 / 18.0, 5.0 / 18.0]),
    ),
}


def gauss_rule_1d(order):
    """Gauss-Legendre points and weights on [0, 1] for order 1, 2 or 3."""
    return _GAUSS[order]


def shape_values(t):
    """Trilinear shape functions on the unit cell at points t (n, 3) -> (n, 8)."""
    t = np.atleast_2d(t)
    c = CELL_CORNERS[None, :, :]  # (1, 8, 3)
    u = t[:, None, :]
    return np.prod(np.where(c == 1, u, 1.0 - u), axis=2)


def shape_gradients(t):
    """Reference gradients at points t (n, 3) -> (n, 8, 3) (unit cell, no h scaling)."""
    t = np.atleast_2d(t)
    c = CELL_CORNERS[None, :, :]
    u = t[:, None, :]
    f = np.where(c == 1, u, 1.0 - u)  # (n, 8, 3)
    df = np.where(c == 1, 1.0, -1.0)
    grads = np.empty(f.shape)
    for a in range(3):
        others = [b for b in range(3) if b != a]
        grads[:, :, a] = df[:, :, a] * f[:, :, others[0]] * f[:, :, others[1]]
    return grads


def _tensor_rule(order):
    x, w = gauss_rule_1d(order)
    pts = np.stack(np.meshgrid(x, x, x, indexing="ij"), axis=-1).reshape(-1, 3)
    wts = np.prod(np.stack(np.meshgrid(w, w, w, indexing="ij"), axis=-1).reshape(-1, 3), axis=1)
    pts.setflags(write=False)
    wts.setflags(write=False)
    return pts, wts


_VOLUME_RULES = {order: _tensor_rule(order) for order in _GAUSS}
# the shape functions and their reference gradients at each rule's points,
# (G, 8) and (G, 8, 3): loads and Gauss-point values are products with these
_SHAPE_TABLES = {order: shape_values(rule[0]) for order, rule in _VOLUME_RULES.items()}
_GRADIENT_TABLES = {order: shape_gradients(rule[0]) for order, rule in _VOLUME_RULES.items()}
for _table in (*_SHAPE_TABLES.values(), *_GRADIENT_TABLES.values()):
    _table.setflags(write=False)


def volume_quadrature(order):
    """Tensor rule on the unit cell: read-only points (G, 3) and weights (G,)."""
    return _VOLUME_RULES[order]


def quadrature_points(mesh, order=QUADRATURE_ORDER):
    """Physical Gauss points (C, G, 3) and weights (G,) scaled by h^3."""
    ref, w = volume_quadrature(order)
    pts = mesh.cell_origins()[:, None, :] + mesh.h * ref[None, :, :]
    return pts, w * mesh.h**3


@dataclass
class DiscreteField:
    """Nodal vector-valued function: values (n_nodes, m)."""

    mesh: Mesh
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.ndim == 1:
            self.values = self.values[:, None]
        if self.values.shape[0] != self.mesh.n_nodes:
            raise InterfaceError(
                f"field has {self.values.shape[0]} rows for {self.mesh.n_nodes} mesh nodes"
            )
        if not np.all(np.isfinite(self.values)):
            raise NumericFailureError("discrete field has non-finite values")

    @property
    def m(self):
        return self.values.shape[1]

    def __sub__(self, other):
        return DiscreteField(self.mesh, self.values - other.values)


@dataclass
class StiffnessOperator:
    """Assembled bilinear form K over every DOF, or over the ascending DOFs it was given.

    ``symmetric``: whether A[a, b, i, j] == A[b, a, j, i] bit for bit at every
    Gauss point, so that K^T = K up to the roundoff of the element products."""

    matrix: sp.csr_matrix
    symmetric: bool


# slot of local corner q in the stencil of local corner p: the lexicographic
# rank of their offset in {-1, 0, 1}^3, the column order of Mesh._stencil_nodes
_PAIR_SLOT = (CELL_CORNERS[None, :, :] - CELL_CORNERS[:, None, :] + 1) @ np.array([9, 3, 1])
# an off-diagonal entry K_rc with |K_rc| <= _DROP_RTOL min(K_rr, K_cc) is not
# stored.  Cancellation leaves at most 3.4e-16 min(K_rr, K_cc) (measured on
# box, staircase and graph meshes up to contrast 1e6), and a real entry of a
# piecewise-constant field is far larger.  A nearly isotropic field has real
# face-neighbour entries of any size, though, and dropping one perturbs K's
# null space by its size, so the limit stays a few ulps: against a bordered
# solve of the same K, on 5^3-6^3 boxes with skew amplitudes 2^-20..2^-55, a
# bounded solve moved by up to 8.3e-9 at a limit of 1e-12, 7.4e-11 at 1e-14
# and 9.5e-12 at 1e-15 (3.1e-12 when only exact zeros are dropped)
_DROP_RTOL = 1e-15


def assemble_stiffness(mesh, fld, free=None):
    """Stiffness matrix as a canonical CSR read off a 27-point stencil table.

    Element matrices are one product of the (cells m m, 9G) Gauss-point
    tensors, rows (cell, i, j) and columns (g, a, b), with the (9G, 64)
    reference block w_g dpsi_p[a] dpsi_q[b].  BLAS splits a product across
    threads by output blocks, never inside one entry's sum.  ``np.add.at``
    adds the entries into an (n_dof, 27 m) table, row (p, i), slot (stencil
    offset of q from p, j), in input order: one cell chunk after another, in
    cell order.  So the chunk order fixes the summation order, and the matrix
    is bit-identical at any chunk size and any BLAS thread count.

    The adjoint system has the transposed coefficients, so K^T = K when
    A[a, b, i, j] == A[b, a, j, i]: the operator counts as symmetric iff that
    holds bit for bit at every Gauss point.  Each chunk's tensors are
    compared as they are evaluated, until one chunk differs.

    Only the structural stencil is stored: an off-diagonal entry with
    |K_rc| <= 1e-15 min(K_rr, K_cc) is roundoff left by a cancellation
    (a scalar isotropic field's face-neighbour entries are 0 in exact
    arithmetic) and is dropped, as are exact zeros.  The rule is symmetric in
    (r, c), so a symmetric K keeps a symmetric pattern.  ``free``, ascending
    DOF indices, keeps only those rows and columns, renumbered in that order:
    the result is K[free][:, free], and no other row is formed.

    Node ids and offsets are both lexicographic, so the kept entries of the
    table in row-major order form the CSR with sorted columns, read off one
    node block at a time into int32 index arrays (int64 past 2^31 table
    entries).  A block reads only its own rows, so its kept values are
    written into the front of the table itself as soon as they are copied
    out, and the table, shrunk to the stored count, becomes the CSR's data.
    So the transient memory is first the table plus one chunk, then the table
    plus the kept indices, and the stored values are never held twice.
    """
    ref, w = volume_quadrature(QUADRATURE_ORDER)
    grads = shape_gradients(ref) / mesh.h  # (G, 8, 3) physical
    block = np.einsum("g,gpa,gqb->gabpq", w * mesh.h**3, grads, grads).reshape(9 * len(ref), 64)
    m = fld.m
    n = mesh.n_nodes * m
    width = 27 * m
    # table position of entry (c, i, j, p, q), less that of row node p
    local = np.arange(m)[:, None, None, None] * width + np.arange(m)[:, None, None] + _PAIR_SLOT * m
    # one more node row stays zero: the stencil's -1 (no neighbour) reads it
    table = np.zeros((mesh.n_nodes + 1) * m * width)
    # numpy sends a one-row product to gemv, whose sums differ from gemm's, so
    # a chunk holds two cells or more (all of a one-cell mesh)
    step = max(_ASSEMBLY_CHUNK // m**2, 2)
    bounds = [*range(0, max(mesh.n_cells - 1, 1), step), mesh.n_cells]
    # partner[k]: flat index of A[b, a, j, i] for the entry k of A[a, b, i, j];
    # the k below partner[k] give each pair of entries that must agree once
    partner = np.arange(9 * m * m).reshape(3, 3, m, m).transpose(1, 0, 3, 2).ravel()
    upper = np.flatnonzero(np.arange(9 * m * m) < partner)
    symmetric = True
    for start, stop in zip(bounds, bounds[1:]):
        sel = slice(start, stop)
        origins = mesh.origin + mesh.h * mesh.cells_ijk[sel].astype(float)
        pts = origins[:, None, :] + mesh.h * ref[None, :, :]
        a = fld.evaluate(pts.reshape(-1, 3)).reshape(-1, len(ref), 3, 3, m, m)
        flat = a.reshape(-1, 9 * m * m)
        symmetric = symmetric and np.array_equal(flat[:, upper], flat[:, partner[upper]])
        a = np.ascontiguousarray(a.transpose(0, 4, 5, 1, 2, 3)).reshape(-1, 9 * len(ref))
        where = np.ascontiguousarray(mesh.cells[sel])[:, None, None, :, None] * (m * width) + local
        np.add.at(table, where.ravel(), (a @ block).ravel())
    del pts, a, flat, where  # the last chunk's arrays: freed before the read-off's peak
    stencil = table.reshape(-1, m, 27, m)  # (node p, i, offset s, j)
    index = np.int32 if table.size < 2**31 else np.int64  # scipy's index dtype for this size
    # DOF r's row and column in the result (-1: not kept, as for the extra
    # node's m entries, read for a missing neighbour) and its drop limit
    # _DROP_RTOL K_rr, which K_rr > 0 itself passes, or NaN if r is not kept:
    # no comparison with NaN holds, so its row and column are dropped too
    place = np.full(n + m, -1, dtype=index)
    kept = np.arange(n) if free is None else np.asarray(free)
    place[kept] = np.arange(len(kept), dtype=index)
    limit = _DROP_RTOL * stencil[:, np.arange(m), 13, np.arange(m)].ravel()
    limit[place < 0] = np.nan
    counts, indices = [], []
    stored = 0  # kept values written to the front of the table
    for start in range(0, mesh.n_nodes, step):
        nodes = slice(start, min(start + step, mesh.n_nodes))
        dofs = slice(nodes.start * m, nodes.stop * m)
        nbrs = mesh._stencil_nodes(nodes)
        size = np.abs(stencil[nodes]).reshape(-1, m, width)  # (p, i, (s, j))
        cols = (nbrs[:, None, :, None] * m + np.arange(m, dtype=index)).reshape(len(nbrs), 1, width)
        keep = size > np.minimum(limit[dofs].reshape(-1, m, 1), limit.take(cols))
        counts.append(np.count_nonzero(keep, axis=2).ravel())
        # at most the block's own entries, which start at or past ``stored``
        values = stencil[nodes].reshape(keep.shape)[keep]
        table[stored : stored + len(values)] = values
        stored += len(values)
        # renumber the kept entries only; without ``free`` a DOF is its own column
        cols = np.broadcast_to(cols, keep.shape)[keep]
        indices.append(cols if free is None else place.take(cols))
    del stencil  # the table's last view: resize needs its only reference
    try:
        table.resize(stored)
    except ValueError:  # a tracer that reads frame locals (a debugger) holds one more
        table = table[:stored].copy()
    indptr = np.zeros(len(kept) + 1, dtype=index)
    np.cumsum(np.concatenate(counts)[kept], out=indptr[1:])
    indices = np.concatenate(indices)
    matrix = sp.csr_matrix((table, indices, indptr), shape=(len(kept), len(kept)))
    return StiffnessOperator(matrix, symmetric)


def _as_components(vals, m, n):
    vals = np.asarray(vals, dtype=float)
    if vals.shape != (n, m):
        raise InterfaceError(f"density returned shape {vals.shape}, expected {(n, m)}")
    return vals


def _table_product(a, table):
    """sum_k a[c, k, i] table[k, q] as (c, i, q): the (c i, k) rows of ``a``,
    copied C-contiguous, times the table in one product, so the sums do not
    follow ``a``'s memory layout."""
    rows = np.ascontiguousarray(a.transpose(0, 2, 1)).reshape(-1, a.shape[1])
    return (rows @ table).reshape(len(a), a.shape[2], -1)


def assemble_volume_load(mesh, f, m):
    """Load entries (p, i) = int_Omega f^i psi_p."""
    out = np.zeros(mesh.n_nodes * m)
    if f is None:
        return out
    ref, w = volume_quadrature(QUADRATURE_ORDER)
    pts = mesh.cell_origins()[:, None, :] + mesh.h * ref[None, :, :]
    fv = _as_components(f(pts.reshape(-1, 3)), m, mesh.n_cells * len(ref))
    weighted = fv.reshape(mesh.n_cells, len(ref), m) * (w * mesh.h**3)[:, None]
    lcell = _table_product(weighted, _SHAPE_TABLES[QUADRATURE_ORDER])  # (C, m, 8)
    # entry (c, i, p) adds to DOF (cells[c, p], i), so each DOF sums its entries in cell order
    dofs = mesh.cells[:, None, :] * m + np.arange(m)[:, None]
    np.add.at(out, dofs.reshape(-1), lcell.reshape(-1))
    return out


def _facet_rule(order):
    """Facet Gauss coordinates s, t and weights (Gf,) on the unit square, and the
    read-only trace table (Gf, 4) of the facet's corner shape functions."""
    x, w = gauss_rule_1d(order)
    s, t = np.meshgrid(x, x, indexing="ij")
    s, t = s.ravel(), t.ravel()
    trace = np.stack([(1 - s) * (1 - t), s * (1 - t), s * t, (1 - s) * t], axis=1)
    trace.setflags(write=False)
    return s, t, np.outer(w, w).ravel(), trace


_FACET_RULE = _facet_rule(QUADRATURE_ORDER)


def facet_quadrature(mesh):
    """Gauss points on each boundary facet: (F, Gf, 3), trace values (Gf, 4), weights (Gf,).

    The trace columns follow the stored facet node order (s, t) = (0,0),
    (1,0), (1,1), (0,1) of ``CELL_FACES``.
    """
    s, t, w, trace = _FACET_RULE
    w2 = w * mesh.h**2
    # s runs along the lower tangential axis, t along the upper one
    normal = np.argmax(mesh.facet_normal != 0, axis=1)
    rows = np.arange(len(normal))
    local = np.zeros((len(normal), len(s), 3))
    local[rows, :, np.array([1, 0, 0])[normal]] = s
    local[rows, :, np.array([2, 2, 1])[normal]] = t
    lo = mesh.facet_lo
    pts = lo[:, None, :] + (mesh.facet_hi - lo)[:, None, :] * local
    return pts, trace, w2


def assemble_boundary_load(mesh, g, m):
    """Load entries (p, i) = int_{dOmega} g^i psi_p over boundary facets.

    On graph meshes only graph facets carry data (the far boundary is
    artificial).
    """
    if g is None:
        return np.zeros(mesh.n_nodes * m)
    return _boundary_load(mesh, g, m, facet_quadrature(mesh))


def _boundary_load(mesh, g, m, quadrature):
    """assemble_boundary_load of a density g on the mesh's ``facet_quadrature``."""
    out = np.zeros(mesh.n_nodes * m)
    if mesh.is_graph:
        sel = np.flatnonzero(mesh.graph_facets)
    else:
        sel = np.arange(len(mesh.facet_cell))
    pts, trace, w2 = quadrature
    gv = _as_components(g(pts[sel].reshape(-1, 3)), m, len(sel) * trace.shape[0])
    contrib = _table_product(gv.reshape(len(sel), len(w2), m) * w2[:, None], trace)  # (F, m, 4)
    np.add.at(out.reshape(-1, m), mesh.facet_nodes[sel], contrib.transpose(0, 2, 1))
    return out


def boundary_weight_vector(mesh):
    """b_p = int_{dOmega} psi_p: exact (area / 4 per adjacent facet)."""
    b = np.zeros(mesh.n_nodes)
    np.add.at(b, mesh.facet_nodes.ravel(), np.repeat(mesh.facet_area / 4.0, 4))
    return b


def boundary_mean(u):
    """Per-component boundary trace integral int_{dOmega} u."""
    if u.mesh.is_graph:
        raise UnsupportedError("boundary_mean is defined for bounded-domain meshes")
    return boundary_weight_vector(u.mesh) @ u.values


def interpolate(fld, points):
    """Trilinear interpolation of a DiscreteField at arbitrary points -> (n, m)."""
    cell_ids, local = fld.mesh.locate(points)
    psi = shape_values(local)  # (n, 8)
    conn = fld.mesh.cells[cell_ids]  # (n, 8)
    return np.einsum("np,npm->nm", psi, fld.values[conn])


def gradient_at_quadrature(fld, quadrature_order=QUADRATURE_ORDER):
    """Gradients of the trilinear field at Gauss points: (C, G, m, 3)."""
    grads = _GRADIENT_TABLES[quadrature_order] / fld.mesh.h  # (G, 8, 3) physical
    nodal = fld.values[fld.mesh.cells]  # (C, 8, m)
    out = _table_product(nodal, grads.transpose(1, 0, 2).reshape(8, -1))  # (C, m, G 3)
    return out.reshape(len(nodal), fld.m, -1, 3).transpose(0, 2, 1, 3)


def values_at_quadrature(fld, quadrature_order=QUADRATURE_ORDER):
    """Values of the trilinear field at Gauss points: (C, G, m)."""
    nodal = fld.values[fld.mesh.cells]  # (C, 8, m)
    psi = np.ascontiguousarray(_SHAPE_TABLES[quadrature_order].T)
    return _table_product(nodal, psi).transpose(0, 2, 1)


def ordered_sum(a, axis=None):
    """``a.sum(axis)`` summed in an order the code states, not in ``a``'s memory layout.

    numpy reduces an array in its memory order, so equal values laid out in
    another order can sum to other last bits.  This sums a C-contiguous copy
    with numpy's reductions, not BLAS.  With ``axis`` None it sums all the
    entries in C order, pairwise from 8 terms on.  Otherwise the summed axes
    move to the front, in the order given, and the slices along them are
    added one after another in index order; a short summed axis, such as
    the components of a Gauss-point value, stays cheap that way.  Every
    reduction of quadrature values that reaches a report goes through here,
    so its bits do not depend on how a gather or a product laid out its input.
    """
    if axis is None:
        return np.ascontiguousarray(a).sum()
    axes = (axis,) if np.ndim(axis) == 0 else tuple(axis)
    front = np.ascontiguousarray(np.moveaxis(a, axes, range(len(axes))))
    slices = front.shape[: len(axes)]
    return front.reshape(math.prod(slices), *front.shape[len(axes) :]).sum(axis=0)


def l2_norm(fld):
    vals = values_at_quadrature(fld)
    _, w = volume_quadrature(QUADRATURE_ORDER)
    return float(np.sqrt(ordered_sum(w * fld.mesh.h**3 * ordered_sum(vals**2, axis=2))))


def l2_error(fld, exact):
    """||u_h - exact||_{L2} with the exact function evaluated at 3-point Gauss points."""
    pts, w = quadrature_points(fld.mesh, 3)
    vals = values_at_quadrature(fld, 3)
    ex = np.asarray(exact(pts.reshape(-1, 3)), dtype=float)
    if ex.ndim == 1:
        ex = ex[:, None]
    diff = vals - ex.reshape(vals.shape)
    return float(np.sqrt(ordered_sum(w * ordered_sum(diff**2, axis=2))))
