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

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .errors import InterfaceError, NumericFailureError, UnsupportedError
from .mesh import CELL_CORNERS, Mesh

#: Gauss points per axis of every assembly, load and norm (exact for the
#: trilinear stiffness and mass on piecewise-constant coefficients)
QUADRATURE_ORDER = 2
#: cells per stiffness-assembly chunk; bounds the peak memory of large meshes
_ASSEMBLY_CHUNK = 120_000

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


def volume_quadrature(order):
    """Tensor rule on the unit cell: points (G, 3), weights (G,)."""
    x, w = gauss_rule_1d(order)
    pts = np.stack(np.meshgrid(x, x, x, indexing="ij"), axis=-1).reshape(-1, 3)
    wts = np.prod(np.stack(np.meshgrid(w, w, w, indexing="ij"), axis=-1).reshape(-1, 3), axis=1)
    return pts, wts


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
    flags: tuple = ()

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

    def component(self, i):
        return self.values[:, i]

    def __add__(self, other):
        return DiscreteField(self.mesh, self.values + other.values)

    def __sub__(self, other):
        return DiscreteField(self.mesh, self.values - other.values)

    def __mul__(self, scalar):
        return DiscreteField(self.mesh, self.values * float(scalar))

    __rmul__ = __mul__


@dataclass
class StiffnessOperator:
    """Assembled bilinear form."""

    matrix: sp.csr_matrix

    @property
    def n_dof(self):
        return self.matrix.shape[0]


# slot of local corner q in the stencil of local corner p: the lexicographic
# rank of their offset in {-1, 0, 1}^3, the column order of Mesh._stencil_nodes
_PAIR_SLOT = (CELL_CORNERS[None, :, :] - CELL_CORNERS[:, None, :] + 1) @ np.array([9, 3, 1])


def assemble_stiffness(mesh, fld):
    """Stiffness matrix as a canonical CSR read off a 27-point stencil table.

    Element matrices are one product of the (cells m m, 9G) Gauss-point
    tensors, rows (cell, i, j) and columns (g, a, b), with the (9G, 64)
    reference block w_g dpsi_p[a] dpsi_q[b].  BLAS splits a product across
    threads by output blocks, never inside one entry's sum, so the matrix is
    bit-identical at any BLAS thread count.  ``np.bincount`` sums the entries,
    one cell chunk at a time (bounding peak memory), into an (n_dof, 27 m)
    table: row (p, i), slot (stencil offset of q from p, j).  Node ids and
    offsets are both lexicographic, so the table's nonzero entries in
    row-major order form the CSR with sorted columns (exact zeros dropped).
    """
    ref, w = volume_quadrature(QUADRATURE_ORDER)
    grads = shape_gradients(ref) / mesh.h  # (G, 8, 3) physical
    block = np.einsum("g,gpa,gqb->gabpq", w * mesh.h**3, grads, grads).reshape(9 * len(ref), 64)
    m = fld.m
    n = mesh.n_nodes * m
    width = 27 * m
    # table position of entry (c, i, j, p, q), less that of row node p
    local = np.arange(m)[:, None, None, None] * width + np.arange(m)[:, None, None] + _PAIR_SLOT * m
    origins = mesh.cell_origins()
    table = np.zeros(n * width)
    for start in range(0, mesh.n_cells, _ASSEMBLY_CHUNK):
        sel = slice(start, min(start + _ASSEMBLY_CHUNK, mesh.n_cells))
        pts = origins[sel][:, None, :] + mesh.h * ref[None, :, :]
        a = fld.evaluate(pts.reshape(-1, 3)).reshape(-1, len(ref), 3, 3, m, m)
        a = np.ascontiguousarray(a.transpose(0, 4, 5, 1, 2, 3)).reshape(-1, 9 * len(ref))
        where = mesh.cells[sel, None, None, :, None] * (m * width) + local
        table += np.bincount(where.ravel(), weights=(a @ block).ravel(), minlength=len(table))
    table = table.reshape(n, width)
    cols = (mesh._stencil_nodes()[:, None, :, None] * m + np.arange(m)).reshape(-1, 1, width)
    cols = np.broadcast_to(cols, (mesh.n_nodes, m, width)).reshape(n, width)
    keep = table != 0.0
    indptr = np.concatenate([[0], np.cumsum(keep.sum(axis=1))])
    return StiffnessOperator(sp.csr_matrix((table[keep], cols[keep], indptr), shape=(n, n)))


def _as_components(vals, m, n):
    vals = np.asarray(vals, dtype=float)
    if vals.ndim == 1:
        vals = vals[:, None]
    if vals.shape != (n, m):
        raise ValueError(f"density returned shape {vals.shape}, expected {(n, m)}")
    return vals


def assemble_volume_load(mesh, f, m):
    """Load entries (p, i) = int_Omega f^i psi_p."""
    out = np.zeros(mesh.n_nodes * m)
    if f is None:
        return out
    ref, w = volume_quadrature(QUADRATURE_ORDER)
    psi = shape_values(ref)
    pts = mesh.cell_origins()[:, None, :] + mesh.h * ref[None, :, :]
    fv = _as_components(f(pts.reshape(-1, 3)), m, mesh.n_cells * len(ref))
    fv = fv.reshape(mesh.n_cells, len(ref), m)
    lcell = np.einsum("g,cgi,gp->cpi", w * mesh.h**3, fv, psi)
    np.add.at(out, (mesh.cells[:, :, None] * m + np.arange(m)).reshape(-1), lcell.reshape(-1))
    return out


def facet_quadrature(mesh):
    """Gauss points on each boundary facet: (F, Gf, 3), trace values (Gf, 4), weights (Gf,).

    The trace columns follow the stored facet node order (s, t) = (0,0),
    (1,0), (1,1), (0,1) of ``CELL_FACES``.
    """
    x, w = gauss_rule_1d(QUADRATURE_ORDER)
    s, t = np.meshgrid(x, x, indexing="ij")
    s, t = s.ravel(), t.ravel()
    w2 = np.outer(w, w).ravel() * mesh.h**2
    trace = np.stack([(1 - s) * (1 - t), s * (1 - t), s * t, (1 - s) * t], axis=1)
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
    out = np.zeros(mesh.n_nodes * m)
    if g is None:
        return out
    if mesh.is_graph:
        sel = np.flatnonzero(mesh.graph_facets)
    else:
        sel = np.arange(len(mesh.facet_cell))
    pts, trace, w2 = facet_quadrature(mesh)
    gv = _as_components(g(pts[sel].reshape(-1, 3)), m, len(sel) * trace.shape[0])
    gv = gv.reshape(len(sel), trace.shape[0], m)
    contrib = np.einsum("g,fgi,gc->fci", w2, gv, trace)  # (F, 4 corners, m)
    np.add.at(out.reshape(-1, m), mesh.facet_nodes[sel], contrib)
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
    ref, _ = volume_quadrature(quadrature_order)
    grads = shape_gradients(ref) / fld.mesh.h  # (G, 8, 3)
    nodal = fld.values[fld.mesh.cells]  # (C, 8, m)
    return np.einsum("gpa,cpm->cgma", grads, nodal)


def values_at_quadrature(fld, quadrature_order=QUADRATURE_ORDER):
    ref, _ = volume_quadrature(quadrature_order)
    psi = shape_values(ref)
    nodal = fld.values[fld.mesh.cells]
    return np.einsum("gp,cpm->cgm", psi, nodal)


def l2_norm(fld):
    vals = values_at_quadrature(fld)
    _, w = volume_quadrature(QUADRATURE_ORDER)
    return float(np.sqrt(np.einsum("g,cgm->", w * fld.mesh.h**3, vals**2)))


def gradient_l2_norm(fld):
    g = gradient_at_quadrature(fld)
    _, w = volume_quadrature(QUADRATURE_ORDER)
    return float(np.sqrt(np.einsum("g,cgma->", w * fld.mesh.h**3, g**2)))


def l2_error(fld, exact):
    """||u_h - exact||_{L2} with the exact function evaluated at 3-point Gauss points."""
    pts, w = quadrature_points(fld.mesh, 3)
    vals = values_at_quadrature(fld, 3)
    ex = np.asarray(exact(pts.reshape(-1, 3)), dtype=float)
    if ex.ndim == 1:
        ex = ex[:, None]
    diff = vals - ex.reshape(vals.shape)
    return float(np.sqrt(np.einsum("g,cgm->", w, diff**2)))
