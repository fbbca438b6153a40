"""Hexahedral lattice meshes: boxes, staircase unions, truncated Lipschitz-graph domains.

Every domain is a union of axis-aligned cubic cells of edge ``h`` on a common
lattice, so volumes, facet areas, and outward unit normals are exact integers
times powers of ``h``.  Graph domains are realized as staircase approximations
of ``{x3 > profile(x1, x2)}`` clipped to a truncation box; their boundary
facets are split into "graph" facets (the staircase floor, where the natural
flux condition lives) and "far" facets (the artificial truncation cut).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

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


@dataclass(frozen=True)
class Box:
    extents: tuple


@dataclass(frozen=True)
class Staircase:
    boxes: tuple


@dataclass(frozen=True)
class TruncatedGraph:
    lipschitz_constant: float
    box: tuple


class Mesh:
    """Immutable uniform hexahedral mesh with boundary facet data.

    Attributes
    ----------
    nodes : (N, 3) float array of node coordinates.
    cells : (C, 8) int array of node ids in trilinear corner order.
    h : uniform cell edge length.
    facet_nodes, facet_area, facet_normal, facet_cell : boundary facet data;
        each boundary facet is an axis-aligned square owned by exactly one cell.
    graph_facets : bool mask over facets (graph domains only), True where the
        facet belongs to the staircase floor rather than the truncation cut.
    """

    dimension = 3

    def __init__(self, origin, h, occupancy, domain, graph_facet_rule=None):
        self.origin = np.asarray(origin, dtype=float)
        self.h = float(h)
        self.domain = domain
        occ = np.asarray(occupancy, dtype=bool)
        if not occ.any():
            raise InvalidGeometryError("empty cell set")
        self._occ = occ
        nx, ny, nz = occ.shape

        cells_ijk = np.argwhere(occ)  # lexicographic, deterministic
        corners = cells_ijk[:, None, :] + CELL_CORNERS[None, :, :]  # (C, 8, 3)

        node_mark = np.zeros((nx + 1, ny + 1, nz + 1), dtype=bool)
        node_mark[corners[..., 0], corners[..., 1], corners[..., 2]] = True
        node_ijk = np.argwhere(node_mark)
        # node ids on the lattice, padded by one empty layer so that every
        # node's 27 neighbours are in range; -1 where no node sits
        self._node_id = -np.ones((nx + 3, ny + 3, nz + 3), dtype=np.int64)
        node_id = self._node_id[1:-1, 1:-1, 1:-1]
        node_id[node_mark] = np.arange(len(node_ijk))

        self.nodes = self.origin + self.h * node_ijk.astype(float)
        self.cells = node_id[corners[..., 0], corners[..., 1], corners[..., 2]]
        self.cells_ijk = cells_ijk

        cell_id = -np.ones((nx, ny, nz), dtype=np.int64)
        cell_id[cells_ijk[:, 0], cells_ijk[:, 1], cells_ijk[:, 2]] = np.arange(len(cells_ijk))
        self._cell_id = cell_id

        self._build_boundary(graph_facet_rule)

        self.volume = len(self.cells) * self.h**3
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
            self.boundary_nodes,
            self._node_id,
        ):
            arr.setflags(write=False)

    def _build_boundary(self, graph_facet_rule):
        occ = self._occ
        nx, ny, nz = occ.shape
        padded = np.zeros((nx + 2, ny + 2, nz + 2), dtype=bool)
        padded[1:-1, 1:-1, 1:-1] = occ

        facet_nodes, normals, owners, graph_mask = [], [], [], []
        ijk = self.cells_ijk
        for axis, side, local in CELL_FACES:
            shift = np.zeros(3, dtype=np.int64)
            shift[axis] = side
            nb = ijk + shift
            exposed = ~padded[nb[:, 0] + 1, nb[:, 1] + 1, nb[:, 2] + 1]
            if not exposed.any():
                continue
            cids = np.flatnonzero(exposed)
            facet_nodes.append(self.cells[np.ix_(cids, np.array(local))])
            n = np.zeros((len(cids), 3))
            n[:, axis] = float(side)
            normals.append(n)
            owners.append(cids)
            if graph_facet_rule is not None:
                centers = self.origin + self.h * (ijk[cids].astype(float) + 0.5)
                centers[:, axis] += side * self.h / 2.0
                graph_mask.append(graph_facet_rule(axis, side, centers))

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
        if graph_facet_rule is not None:
            self.graph_facets = np.concatenate(graph_mask)[keys]
            self.graph_facets.setflags(write=False)
        else:
            self.graph_facets = None

        fverts = self.nodes[self.facet_nodes]  # (F, 4, 3)
        self.facet_lo = fverts.min(axis=1)
        self.facet_hi = fverts.max(axis=1)
        self.facet_center = 0.5 * (self.facet_lo + self.facet_hi)
        self.boundary_nodes = np.unique(self.facet_nodes)
        if self.graph_facets is not None:
            self.far_nodes = np.unique(self.facet_nodes[~self.graph_facets])
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
    def interior_nodes(self):
        mask = np.ones(self.n_nodes, dtype=bool)
        mask[self.boundary_nodes] = False
        return np.flatnonzero(mask)

    @property
    def is_graph(self):
        return self.graph_facets is not None

    def cell_centers(self):
        return self.origin + self.h * (self.cells_ijk.astype(float) + 0.5)

    def cell_origins(self):
        return self.origin + self.h * self.cells_ijk.astype(float)

    def _stencil_nodes(self):
        """(N, 27) ids of the nodes at each node's lattice offsets {-1, 0, 1}^3, in
        lexicographic order, -1 where none sits.  Node k is the k-th id of the
        lattice in C order, so each row's ids ascend."""
        grid = self._node_id
        offsets = np.array(list(np.ndindex(3, 3, 3))) - 1
        steps = offsets @ (np.array(grid.strides) // grid.itemsize)
        return grid.ravel()[np.flatnonzero(grid >= 0)[:, None] + steps]

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
        rel = (pts - self.origin) / self.h
        base = np.floor(rel + _SNAP).astype(np.int64)
        cell_ids = np.full(len(pts), -1, dtype=np.int64)
        local = np.empty((len(pts), 3))
        todo = np.arange(len(pts))
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


_LOCATE_OFFSETS = np.array(
    [[0, 0, 0]]
    + [list(v) for v in np.ndindex(2, 2, 2) if any(v)],
    dtype=np.int64,
) * -1


def _lattice_count(length, h, what):
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
    if any(e <= 0 for e in extents) or n < 1 or int(n) != n:
        raise InvalidGeometryError(f"invalid box spec: extents={extents}, n={n}")
    h = 1.0 / int(n)
    counts = [_lattice_count(e, h, "extent") for e in extents]
    occ = np.ones(counts, dtype=bool)
    return Mesh(np.zeros(3), h, occ, Box(extents))


def build_staircase_mesh(boxes, h):
    """Mesh the union of axis-aligned boxes, each snapped to the h-lattice.

    ``boxes`` is a sequence of (lo, hi) corner pairs.  The union must have
    connected interior (face-connected cells).
    """
    h = float(h)
    if h <= 0 or not boxes:
        raise InvalidGeometryError("staircase needs h > 0 and at least one box")
    boxes = [(np.asarray(lo, float), np.asarray(hi, float)) for lo, hi in boxes]
    lo_all = np.min([lo for lo, _ in boxes], axis=0)
    hi_all = np.max([hi for _, hi in boxes], axis=0)
    counts = [_lattice_count(hi_all[a] - lo_all[a], h, "bounding extent") for a in range(3)]
    occ = np.zeros(counts, dtype=bool)
    for lo, hi in boxes:
        if np.any(hi - lo <= 0):
            raise InvalidGeometryError("degenerate box in staircase profile")
        i0 = [(lo[a] - lo_all[a]) / h for a in range(3)]
        i1 = [(hi[a] - lo_all[a]) / h for a in range(3)]
        for v in i0 + i1:
            if abs(v - round(v)) > 1e-6:
                raise InvalidGeometryError("staircase box corner off the h-lattice")
        i0 = [int(round(v)) for v in i0]
        i1 = [int(round(v)) for v in i1]
        occ[i0[0] : i1[0], i0[1] : i1[1], i0[2] : i1[2]] = True
    _require_connected(occ)
    spec = Staircase(tuple((tuple(lo), tuple(hi)) for lo, hi in boxes))
    return Mesh(lo_all, h, occ, spec)


def _require_connected(occ):
    ids = np.argwhere(occ)
    if len(ids) == 0:
        raise InvalidGeometryError("empty staircase union")
    seen = np.zeros(occ.shape, dtype=bool)
    stack = [tuple(ids[0])]
    seen[tuple(ids[0])] = True
    count = 0
    while stack:
        i, j, k = stack.pop()
        count += 1
        for di, dj, dk in ((1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1)):
            a, b, c = i + di, j + dj, k + dk
            if 0 <= a < occ.shape[0] and 0 <= b < occ.shape[1] and 0 <= c < occ.shape[2]:
                if occ[a, b, c] and not seen[a, b, c]:
                    seen[a, b, c] = True
                    stack.append((a, b, c))
    if count != len(ids):
        raise InvalidGeometryError("staircase union has disconnected interior")


def build_truncated_graph_mesh(profile, lipschitz_constant, box, h):
    """Staircase mesh of {x3 > profile(x1, x2)} clipped to ``box``.

    ``profile`` is a callable evaluated on the lattice corner grid (or an
    array of corner samples).  The staircase floor sits at the smallest
    lattice level above the max of the profile over each column footprint,
    so every node satisfies x3 >= profile and interior nodes are strictly
    above it.  Side and top facets of the box are flagged as far boundary.
    """
    h = float(h)
    lo = np.asarray(box[0], dtype=float)
    hi = np.asarray(box[1], dtype=float)
    if np.any(hi - lo <= 0) or h <= 0:
        raise InvalidGeometryError("degenerate truncation box")
    counts = [_lattice_count(hi[a] - lo[a], h, "box extent") for a in range(3)]
    nx, ny, nz = counts

    gx = lo[0] + h * np.arange(nx + 1)
    gy = lo[1] + h * np.arange(ny + 1)
    if callable(profile):
        X, Y = np.meshgrid(gx, gy, indexing="ij")
        phi = np.asarray(profile(X, Y), dtype=float)
    else:
        phi = np.asarray(profile, dtype=float)
    if phi.shape != (nx + 1, ny + 1):
        raise InvalidGeometryError(
            f"profile samples must have shape {(nx + 1, ny + 1)}, got {phi.shape}"
        )
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

    def graph_rule(axis, side, centers):
        # graph boundary = staircase floor and its step walls; the box's four
        # side planes and top plane are the artificial far boundary
        if axis == 2:
            # downward facets are floor; upward facets only occur on the top plane
            return np.full(len(centers), side < 0)
        plane = hi[axis] if side > 0 else lo[axis]
        return np.abs(centers[:, axis] - plane) > _SNAP

    spec = TruncatedGraph(float(lipschitz_constant), (tuple(lo), tuple(hi)))
    return Mesh(lo, h, occ, spec, graph_facet_rule=graph_rule)


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

