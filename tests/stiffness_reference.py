"""List-and-join CSR read-off of the stencil table.

The reference for ``tests/test_discretize.py``: ``assemble_stiffness`` writes
the kept entries of each node block into the front of its own stencil table
as soon as it has copied them out, and shrinks the table to the stored
count.  This construction appends each block's kept values to a list, frees
the table and joins the lists; the matrix must match it bit for bit.  The
symmetry decision is checked apart from the assembly, on the coefficient
tensors at ``quadrature_points(mesh)``.  The construction reads
``_ASSEMBLY_CHUNK`` and ``_DROP_RTOL`` from ``discretize`` at call time, so a
test that patches them patches both constructions.
"""

import numpy as np
import scipy.sparse as sp

from neumannlab import discretize
from neumannlab.discretize import (
    QUADRATURE_ORDER,
    StiffnessOperator,
    quadrature_points,
    shape_gradients,
    volume_quadrature,
)

_PAIR_SLOT = discretize._PAIR_SLOT


def tensors_symmetric(mesh, fld):
    """Whether A[a, b, i, j] == A[b, a, j, i] bit for bit at every Gauss point."""
    pts, _ = quadrature_points(mesh)
    A = fld.evaluate(pts.reshape(-1, 3))
    return np.array_equal(A, A.transpose(0, 2, 1, 4, 3))


def reference_stiffness(mesh, fld, free=None):
    """``assemble_stiffness(mesh, fld, free)`` read off into lists that are joined
    after the table is freed, with ``tensors_symmetric`` as its symmetry."""
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
    step = max(discretize._ASSEMBLY_CHUNK // m**2, 2)
    bounds = [*range(0, max(mesh.n_cells - 1, 1), step), mesh.n_cells]
    for start, stop in zip(bounds, bounds[1:]):
        sel = slice(start, stop)
        origins = mesh.origin + mesh.h * mesh.cells_ijk[sel].astype(float)
        pts = origins[:, None, :] + mesh.h * ref[None, :, :]
        a = fld.evaluate(pts.reshape(-1, 3)).reshape(-1, len(ref), 3, 3, m, m)
        a = np.ascontiguousarray(a.transpose(0, 4, 5, 1, 2, 3)).reshape(-1, 9 * len(ref))
        where = np.ascontiguousarray(mesh.cells[sel])[:, None, None, :, None] * (m * width) + local
        np.add.at(table, where.ravel(), (a @ block).ravel())
    stencil = table.reshape(-1, m, 27, m)  # (node p, i, offset s, j)
    index = np.int32 if table.size < 2**31 else np.int64  # scipy's index dtype for this size
    # DOF r's row and column in the result (-1: not kept, as for the extra
    # node's m entries, read for a missing neighbour) and its drop limit
    # _DROP_RTOL K_rr, which K_rr > 0 itself passes, or NaN if r is not kept:
    # no comparison with NaN holds, so its row and column are dropped too
    place = np.full(n + m, -1, dtype=index)
    kept = np.arange(n) if free is None else np.asarray(free)
    place[kept] = np.arange(len(kept), dtype=index)
    limit = discretize._DROP_RTOL * stencil[:, np.arange(m), 13, np.arange(m)].ravel()
    limit[place < 0] = np.nan
    counts, data, indices = [], [], []
    for start in range(0, mesh.n_nodes, step):
        nodes = slice(start, min(start + step, mesh.n_nodes))
        dofs = slice(nodes.start * m, nodes.stop * m)
        nbrs = mesh._stencil_nodes(nodes)
        size = np.abs(stencil[nodes]).reshape(-1, m, width)  # (p, i, (s, j))
        cols = (nbrs[:, None, :, None] * m + np.arange(m, dtype=index)).reshape(len(nbrs), 1, width)
        keep = size > np.minimum(limit[dofs].reshape(-1, m, 1), limit.take(cols))
        counts.append(np.count_nonzero(keep, axis=2).ravel())
        data.append(stencil[nodes].reshape(keep.shape)[keep])
        # renumber the kept entries only; without ``free`` a DOF is its own column
        cols = np.broadcast_to(cols, keep.shape)[keep]
        indices.append(cols if free is None else place.take(cols))
    del table, stencil  # the table's last view: it is freed before the CSR is joined
    indptr = np.zeros(len(kept) + 1, dtype=index)
    np.cumsum(np.concatenate(counts)[kept], out=indptr[1:])
    data = np.concatenate(data)
    indices = np.concatenate(indices)
    matrix = sp.csr_matrix((data, indices, indptr), shape=(len(kept), len(kept)))
    return StiffnessOperator(matrix, tensors_symmetric(mesh, fld))
