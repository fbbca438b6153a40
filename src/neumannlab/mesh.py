"""Hexahedral lattice meshes: boxes and truncated Lipschitz-graph domains.

Every domain is a union of axis-aligned cubic cells of edge ``h`` on a common
lattice, so facet areas and outward unit normals are exact integers times
powers of ``h``; a union other than these two is one ``Mesh(origin, h,
occupancy)`` call.  Graph domains are realized as staircase approximations
of ``{x3 > profile(x1, x2)}`` clipped to a truncation box; their boundary
facets are split into "graph" facets (the staircase floor, where the natural
flux condition lives) and "far" facets (the artificial truncation cut).
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from .errors import InvalidGeometryError, LipschitzViolationError, OutOfDomainError

_SNAP = 1e-9

# Trilinear corner ordering: lattice offsets of the 8 local nodes.
CELL_CORNERS = np.array(
    [
        [0, 0, 0],
        [1, 0, 0],
        [1, 1, 0],
        [0, 1, 0],
        [0, 0, 1],
        [1, 0, 1],
        [1, 1, 1],
        [0, 1, 1],
    ],
    dtype=np.int64,
)

# Cell faces as (axis, side, local corner ids); side -1 is the lower face.
# Each corner list runs (s, t) = (0,0), (1,0), (1,1), (0,1), with s along the
# lower and t along the upper tangential axis; facet_quadrature's trace
# columns and assemble_boundary_load's scatter rely on this order.
CELL_FACES = (
    (0, -1, (0, 3, 7, 4)),
    (0, +1, (1, 2, 6, 5)),
    (1, -1, (0, 1, 5, 4)),
    (1, +1, (3, 2, 6, 7)),
    (2, -1, (0, 1, 2, 3)),
    (2, +1, (4, 5, 6, 7)),
)


class Mesh:
    """Immutable uniform hexahedral mesh with boundary facet data.

    Attributes
    ----------
    nodes : (N, 3) float array of node coordinates.
    cells : (C, 8) int array of node ids in trilinear corner order.
    h : uniform cell edge length.
    facet_nodes, facet_area, facet_normal, facet_cell : boundary facet data;
        each boundary facet is an axis-aligned square owned by exactly one cell.
    graph_facets : bool mask over facets (``graph`` meshes only), True where
        the facet belongs to the staircase floor rather than the truncation
        cut: every downward facet, and every side facet whose neighbour cell
        lies in the lattice box.  The box's side and top planes are far.

    The topology is built by lattice slices: the node marks, each cell's
    corner ids and each direction's exposed facets are the occupancy and
    node-id lattices shifted by one corner or face offset, read at the
    occupied cells, with no per-cell scatter or lookup.  ``cells``, ``nodes``
    and ``cells_ijk`` are column-major (the layout ``np.argwhere`` gives).
    No reported value depends on that layout: Gauss-point values and loads
    are products of C-contiguous copies, and reductions go through
    ``discretize.ordered_sum``.

    A bounded mesh (``graph=False``) must be one part, its cells joined
    through shared nodes: on parts that share no node the pure-Neumann
    solution is not unique, so a split cell set raises InvalidGeometryError.
    Graph meshes are not checked: ``build_truncated_graph_mesh`` makes one part.
    """

    def __init__(self, origin, h, occupancy, graph=False):
        self.origin = np.asarray(origin, dtype=float)
        self.h = float(h)
        occ = np.asarray(occupancy, dtype=bool)
        if not occ.any():
            raise InvalidGeometryError("empty cell set")
        self._occ = occ
        nx, ny, nz = occ.shape

        cells_ijk = np.argwhere(occ)  # lexicographic, deterministic
        # a node sits at lattice index v where some cell v - corner is occupied
        node_mark = np.zeros((nx + 1, ny + 1, nz + 1), dtype=bool)
        for dx, dy, dz in CELL_CORNERS:
            node_mark[dx : dx + nx, dy : dy + ny, dz : dz + nz] |= occ
        node_ijk = np.argwhere(node_mark)
        # node ids on the lattice, padded by one empty layer so that every
        # node's 27 neighbours are in range; -1 where no node sits
        self._node_id = np.full((nx + 3, ny + 3, nz + 3), -1, dtype=np.int32)
        node_id = self._node_id[1:-1, 1:-1, 1:-1]
        node_id[node_mark] = np.arange(len(node_ijk), dtype=np.int32)
        self._node_sites = np.flatnonzero(self._node_id >= 0)  # flat grid index of each node

        self.nodes = self.origin + self.h * node_ijk.astype(float)
        # corner k of every cell, in cell order: the id lattice shifted by the
        # corner's offset, read at the occupied cells; filled row by row and
        # transposed, so cells is column-major like cells_ijk
        cells = np.empty((len(CELL_CORNERS), len(cells_ijk)), dtype=np.int64)
        for k, (dx, dy, dz) in enumerate(CELL_CORNERS):
            cells[k] = node_id[dx : dx + nx, dy : dy + ny, dz : dz + nz][occ]
        self.cells = cells.T
        self.cells_ijk = cells_ijk

        self._cell_id = np.full((nx, ny, nz), -1, dtype=np.int64)
        self._cell_id[occ] = np.arange(len(cells_ijk))
        # a full box is one part, and so is every build_truncated_graph_mesh mesh
        if not graph and not occ.all():
            parts = _parts(self._cell_id)
            if parts > 1:
                raise InvalidGeometryError(
                    f"occupied cells form {parts} parts that share no node; "
                    "a bounded domain must be one part"
                )

        self._build_boundary(graph)

        self.boundary_measure = float(self.facet_area.sum())
        for arr in (
            self.nodes,
            self.cells,
            self.cells_ijk,
            self.facet_nodes,
            self.facet_area,
            self.facet_normal,
            self.facet_cell,
            self.facet_lo,
            self.facet_hi,
            self.facet_center,
            self._node_id,
            self._node_sites,
        ):
            arr.setflags(write=False)

    def _build_boundary(self, graph):
        occ = self._occ
        padded = np.pad(occ, 1)
        inner = (slice(1, -1),) * 3

        facet_nodes, normals, owners, graph_mask = [], [], [], []
        for axis, side, local in CELL_FACES:
            # a cell's facet is exposed where the padded occupancy, shifted by
            # one layer towards the facet, is empty
            nb = list(inner)
            nb[axis] = slice(1 + side, padded.shape[axis] - 1 + side)
            cids = self._cell_id[occ & ~padded[tuple(nb)]]  # ascending: ids number cells in C order
            facet_nodes.append(self.cells[np.ix_(cids, np.array(local))])
            n = np.zeros((len(cids), 3))
            n[:, axis] = float(side)
            normals.append(n)
            owners.append(cids)
            if graph and axis == 2:
                graph_mask.append(np.full(len(cids), side < 0))
            elif graph:
                beyond = self.cells_ijk[cids, axis] + side
                graph_mask.append((beyond >= 0) & (beyond < occ.shape[axis]))

        self.facet_nodes = np.concatenate(facet_nodes)
        self.facet_normal = np.concatenate(normals)
        self.facet_cell = np.concatenate(owners)
        # canonical facet order: by owning cell, then normal axis/side
        keys = np.lexsort(
            (self.facet_normal[:, 2], self.facet_normal[:, 1], self.facet_normal[:, 0], self.facet_cell)
        )
        self.facet_nodes = self.facet_nodes[keys]
        self.facet_normal = self.facet_normal[keys]
        self.facet_cell = self.facet_cell[keys]
        self.facet_area = np.full(len(self.facet_cell), self.h**2)
        if graph:
            self.graph_facets = np.concatenate(graph_mask)[keys]
            self.graph_facets.setflags(write=False)
        else:
            self.graph_facets = None

        # node coordinates grow with the lattice index, so a facet's corner
        # (s, t) = (0, 0) holds its least and (1, 1) its greatest coordinates
        self.facet_lo = self.nodes[self.facet_nodes[:, 0]]
        self.facet_hi = self.nodes[self.facet_nodes[:, 2]]
        self.facet_center = 0.5 * (self.facet_lo + self.facet_hi)
        if self.graph_facets is not None:
            far = np.zeros(self.n_nodes, dtype=bool)
            far[self.facet_nodes[~self.graph_facets]] = True
            self.far_nodes = np.flatnonzero(far)
            self.far_nodes.setflags(write=False)
        else:
            self.far_nodes = None

    # ------------------------------------------------------------------
    @property
    def n_nodes(self):
        return len(self.nodes)

    @property
    def n_cells(self):
        return len(self.cells)

    @property
    def is_graph(self):
        return self.graph_facets is not None

    def cell_origins(self):
        return self.origin + self.h * self.cells_ijk.astype(float)

    def _stencil_nodes(self, nodes):
        """int32 ids of the nodes at the lattice offsets {-1, 0, 1}^3 of each node
        of the slice ``nodes``, one row of 27 per node, in lexicographic order,
        -1 where none sits.  Node ids number the lattice in C order, so each
        row's ids ascend."""
        grid = self._node_id
        offsets = np.array(list(np.ndindex(3, 3, 3))) - 1
        steps = offsets @ (np.array(grid.strides) // grid.itemsize)
        return grid.ravel()[self._node_sites[nodes, None] + steps]

    def cell_ids(self, ijk):
        """Cell id at each lattice index of ijk (..., 3); -1 where no cell is occupied."""
        ijk = np.asarray(ijk, dtype=np.int64)
        inside = np.all((ijk >= 0) & (ijk < self._occ.shape), axis=-1)
        out = np.full(ijk.shape[:-1], -1, dtype=np.int64)
        q = ijk[inside]
        out[inside] = self._cell_id[q[:, 0], q[:, 1], q[:, 2]]
        return out

    def locate(self, points):
        """Map points to (cell id, local [0,1]^3 coordinates).

        A point on a face, edge or node shared by occupied cells resolves to
        the cell at its own lattice index floor((x - origin) / h) when that
        cell is occupied (the lexicographically last of them), else to the
        first occupied lower neighbour in ``_LOCATE_OFFSETS`` order.  Points
        farther than ``_SNAP`` outside raise OutOfDomainError.
        """
        cell_ids, local = self._find(points)
        if np.any(cell_ids < 0):
            point = np.atleast_2d(points)[np.argmax(cell_ids < 0)]
            raise OutOfDomainError(f"point {point} is outside the domain")
        return cell_ids, local

    def contains(self, points):
        """Bool mask of the points inside the domain; a bool for a single point."""
        inside = self._find(points)[0] >= 0
        return bool(inside[0]) if np.ndim(points) == 1 else inside

    def _find(self, points):
        """``locate`` with cell id -1 for points outside."""
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        # points off the lattice's box widened by a cell (NaN included) are
        # outside, before their lattice index is cast to int
        lo = self.origin - self.h
        hi = self.origin + (np.array(self._occ.shape) + 1) * self.h
        near = np.all((pts > lo) & (pts < hi), axis=1)
        rel = np.where(near[:, None], pts - self.origin, 0.0) / self.h
        base = np.floor(rel + _SNAP).astype(np.int64)
        cell_ids = np.full(len(pts), -1, dtype=np.int64)
        local = np.empty((len(pts), 3))
        todo = np.flatnonzero(near)
        for off in _LOCATE_OFFSETS:
            idx = base[todo] + off
            t = rel[todo] - idx
            cid = self.cell_ids(idx)
            hit = (cid >= 0) & np.all((t >= -_SNAP) & (t <= 1 + _SNAP), axis=1)
            cell_ids[todo[hit]] = cid[hit]
            local[todo[hit]] = np.clip(t[hit], 0.0, 1.0)
            todo = todo[~hit]
            if len(todo) == 0:
                break
        return cell_ids, local


#: the lattice offsets d at which two cells share a face, an edge or a
#: corner, one of each pair +-d: the 13 of {-1, 0, 1}^3 after (0, 0, 0)
_HALF_OFFSETS = [tuple(k - 1 for k in d) for d in np.ndindex(3, 3, 3) if d > (1, 1, 1)]


def _parts(cell_id):
    """Number of parts of the occupied cells of the cell-id lattice, two cells
    joined when they share a node."""
    # imported here: at package import it costs 2 MB of memory and 3 ms in every
    # process, and only a bounded cell set other than a full box reaches it
    from scipy.sparse.csgraph import connected_components

    edges = []
    for d in _HALF_OFFSETS:
        # the cell at index v and the one at v + d, where both are in the lattice
        lo = tuple(slice(max(-k, 0), n - max(k, 0)) for k, n in zip(d, cell_id.shape))
        hi = tuple(slice(max(k, 0), n - max(-k, 0)) for k, n in zip(d, cell_id.shape))
        a, b = cell_id[lo], cell_id[hi]
        both = (a >= 0) & (b >= 0)
        edges.append((a[both], b[both]))
    rows, cols = (np.concatenate(e) for e in zip(*edges))
    n = int(cell_id.max()) + 1
    graph = sp.csr_matrix((np.ones(len(rows)), (rows, cols)), shape=(n, n))
    return connected_components(graph, directed=False)[0]


_LOCATE_OFFSETS = np.array(
    [[0, 0, 0]]
    + [list(v) for v in np.ndindex(2, 2, 2) if any(v)],
    dtype=np.int64,
) * -1


def _lattice_count(length, h, what):
    if not np.isfinite(length):
        raise InvalidGeometryError(f"{what} {length} is not finite")
    n = length / h
    if abs(n - round(n)) > 1e-6:
        raise InvalidGeometryError(f"{what} {length} is not commensurate with h={h}")
    n = int(round(n))
    if n < 1:
        raise InvalidGeometryError(f"{what} {length} shorter than one cell (h={h})")
    return n


def build_box_mesh(extents, n):
    """Uniform mesh of the box (0, extents[0]) x (0, extents[1]) x (0, extents[2]).

    ``n`` is the number of cells per unit length, so h = 1/n and every extent
    must be a multiple of h.
    """
    extents = tuple(float(e) for e in np.atleast_1d(extents) * np.ones(3))
    if any(e <= 0 for e in extents) or not (n >= 1 and float(n).is_integer()):
        raise InvalidGeometryError(f"invalid box spec: extents={extents}, n={n}")
    h = 1.0 / int(n)
    counts = [_lattice_count(e, h, "extent") for e in extents]
    occ = np.ones(counts, dtype=bool)
    return Mesh(np.zeros(3), h, occ)


def build_truncated_graph_mesh(profile, lipschitz_constant, box, h):
    """Staircase mesh of {x3 > profile(x1, x2)} clipped to ``box``.

    ``profile`` is a callable evaluated on the lattice corner grid.  The
    staircase floor sits at the smallest lattice level above the max of the
    profile over each column footprint, so every node satisfies x3 >= profile
    and interior nodes are strictly above it.  Side and top facets of the box
    are flagged as far boundary.  The mesh is one part by construction: the
    profile stays a cell below the box top, so every column of cells reaches
    the top layer.  A step h or a Lipschitz constant that is NaN or out of
    range, non-finite profile samples, and a mesh with no node off the far
    boundary (the solver would keep no unknown) raise InvalidGeometryError.
    """
    h = float(h)
    lo = np.asarray(box[0], dtype=float)
    hi = np.asarray(box[1], dtype=float)
    if not h > 0:
        raise InvalidGeometryError(f"lattice step h={h} is not positive")
    if np.any(hi - lo <= 0):
        raise InvalidGeometryError("degenerate truncation box")
    if not lipschitz_constant >= 0:
        raise InvalidGeometryError(f"Lipschitz constant {lipschitz_constant} is not >= 0")
    counts = [_lattice_count(hi[a] - lo[a], h, "box extent") for a in range(3)]
    nx, ny, nz = counts

    gx = lo[0] + h * np.arange(nx + 1)
    gy = lo[1] + h * np.arange(ny + 1)
    X, Y = np.meshgrid(gx, gy, indexing="ij")
    phi = np.asarray(profile(X, Y), dtype=float)
    if phi.shape != (nx + 1, ny + 1):
        raise InvalidGeometryError(
            f"profile samples must have shape {(nx + 1, ny + 1)}, got {phi.shape}"
        )
    if not np.isfinite(phi).all():
        raise InvalidGeometryError("profile samples must be finite")
    _check_lipschitz(phi, h, lipschitz_constant)
    if phi.min() < lo[2] - _SNAP:
        raise InvalidGeometryError("box bottom must lie at or below the profile")
    if phi.max() > hi[2] - h + _SNAP:
        raise InvalidGeometryError("truncation box too short for the profile")

    # column floor: smallest level with level*h >= max of the 4 corner samples
    col_max = np.maximum.reduce([phi[:-1, :-1], phi[1:, :-1], phi[:-1, 1:], phi[1:, 1:]])
    floor = np.ceil((col_max - lo[2]) / h - _SNAP).astype(np.int64)
    occ = np.arange(nz)[None, None, :] >= floor[:, :, None]
    if not occ.any():
        raise InvalidGeometryError("profile leaves no cells inside the box")

    mesh = Mesh(lo, h, occ, graph=True)
    if len(mesh.far_nodes) == mesh.n_nodes:
        raise InvalidGeometryError(f"every node lies on the far boundary at h={h}: no unknowns")
    return mesh


def _check_lipschitz(phi, h, K):
    """Worst |phi(x) - phi(x')| / |x - x'| over all pairs of samples on the h-lattice.

    A pair's distance depends only on its lattice offset, so one pass per
    x-offset dx takes the largest gap of every (j, j') pair of rows and divides
    it by that distance (division is monotone, so this is the all-pairs worst
    ratio bit for bit).  Raises LipschitzViolationError above K, else returns it.
    """
    nx, ny = phi.shape
    dy = np.arange(ny)[None, :] - np.arange(ny)[:, None]  # (j, j') -> j' - j
    worst = 0.0
    for dx in range(nx):
        dist = h * np.sqrt(float(dx * dx) + dy * dy)
        if dx == 0:
            dist[dy == 0] = np.inf
        gap = np.abs(phi[dx:, None, :] - phi[: nx - dx, :, None]).max(axis=0)  # (j, j')
        worst = max(worst, float((gap / dist).max()))
    if worst > K * (1 + 1e-9) + 1e-12:
        raise LipschitzViolationError(f"profile has Lipschitz ratio {worst:.6g} > declared K={K}")
    return worst


def distance_to_boundary(mesh, point, include_far=True):
    """Exact distance from an interior point to the union of boundary facets.

    For graph meshes, ``include_far=False`` measures only to the staircase
    floor (the true boundary of the unbounded domain).
    """
    point = np.asarray(point, dtype=float)
    mesh.locate(point)  # raises OutOfDomainError if outside
    if include_far or mesh.graph_facets is None:
        lo, hi = mesh.facet_lo, mesh.facet_hi
    else:
        sel = mesh.graph_facets
        lo, hi = mesh.facet_lo[sel], mesh.facet_hi[sel]
    d = np.maximum(lo - point, 0.0) + np.maximum(point - hi, 0.0)
    return float(np.sqrt((d**2).sum(axis=1)).min())

