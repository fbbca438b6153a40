"""Per-cell fancy-index construction of a lattice mesh's topology and boundary.

The reference for ``tests/test_mesh.py``: ``Mesh`` builds the same arrays from
shifted slices of its occupancy and node-id lattices, and must match this
construction in values, dtype and memory layout.  It scatters each cell's 8
corners to mark the nodes, gathers the corner node ids per cell, and finds a
cell's exposed facets by looking its 6 neighbours up in a padded occupancy.
A graph mesh's facet is far when its centre lies on the lattice box's top
plane or on one of its four side planes (within ``_SNAP``), else graph.

``l_shape`` meshes the L-shaped domain that the unit tests use besides boxes
and graph domains.
"""

import numpy as np

from neumannlab import mesh as meshmod
from neumannlab.mesh import _SNAP, CELL_CORNERS, CELL_FACES


def l_shape(h, origin=(0.0, 0.0, 0.0)):
    """Mesh of the unit cube at ``origin`` less its quarter column where both
    x1 and x2 exceed the origin's by more than 1/2; h must divide 1/2.
    ``Mesh`` is looked up on its module at each call, so a test that patches
    it records this call too."""
    n = round(1 / h)
    occ = np.ones((n, n, n), dtype=bool)
    occ[n // 2 :, n // 2 :, :] = False
    return meshmod.Mesh(origin, h, occ)


def reference_arrays(origin, h, occupancy, graph=False):
    """The topology and boundary arrays of ``Mesh(origin, h, occupancy, graph)``."""
    origin = np.asarray(origin, dtype=float)
    occ = np.asarray(occupancy, dtype=bool)
    nx, ny, nz = occ.shape

    cells_ijk = np.argwhere(occ)
    corners = cells_ijk[:, None, :] + CELL_CORNERS[None, :, :]  # (C, 8, 3)
    node_mark = np.zeros((nx + 1, ny + 1, nz + 1), dtype=bool)
    node_mark[corners[..., 0], corners[..., 1], corners[..., 2]] = True
    node_ijk = np.argwhere(node_mark)
    node_id_padded = -np.ones((nx + 3, ny + 3, nz + 3), dtype=np.int64)
    node_id = node_id_padded[1:-1, 1:-1, 1:-1]
    node_id[node_mark] = np.arange(len(node_ijk))
    nodes = origin + h * node_ijk.astype(float)
    cells = node_id[corners[..., 0], corners[..., 1], corners[..., 2]]
    cell_id = -np.ones((nx, ny, nz), dtype=np.int64)
    cell_id[cells_ijk[:, 0], cells_ijk[:, 1], cells_ijk[:, 2]] = np.arange(len(cells_ijk))

    padded = np.zeros((nx + 2, ny + 2, nz + 2), dtype=bool)
    padded[1:-1, 1:-1, 1:-1] = occ
    facet_nodes, normals, owners, graph_mask = [], [], [], []
    for axis, side, local in CELL_FACES:
        shift = np.zeros(3, dtype=np.int64)
        shift[axis] = side
        nb = cells_ijk + shift
        exposed = ~padded[nb[:, 0] + 1, nb[:, 1] + 1, nb[:, 2] + 1]
        if not exposed.any():
            continue
        cids = np.flatnonzero(exposed)
        facet_nodes.append(cells[np.ix_(cids, np.array(local))])
        n = np.zeros((len(cids), 3))
        n[:, axis] = float(side)
        normals.append(n)
        owners.append(cids)
        if graph:
            centers = origin + h * (cells_ijk[cids].astype(float) + 0.5)
            centers[:, axis] += side * h / 2.0
            box_plane = origin[axis] + (h * occ.shape[axis] if side > 0 else 0.0)
            on_plane = np.abs(centers[:, axis] - box_plane) <= _SNAP
            graph_mask.append(~on_plane if axis < 2 else np.full(len(cids), side < 0))

    facet_nodes = np.concatenate(facet_nodes)
    facet_normal = np.concatenate(normals)
    facet_cell = np.concatenate(owners)
    keys = np.lexsort((facet_normal[:, 2], facet_normal[:, 1], facet_normal[:, 0], facet_cell))
    out = {
        "nodes": nodes,
        "cells": cells,
        "cells_ijk": cells_ijk,
        "_cell_id": cell_id,
        "_node_id": node_id_padded,
        "_node_sites": np.flatnonzero(node_id_padded >= 0),
        "facet_nodes": facet_nodes[keys],
        "facet_normal": facet_normal[keys],
        "facet_cell": facet_cell[keys],
        "facet_area": np.full(len(facet_cell), h**2),
        "graph_facets": None,
        "far_nodes": None,
    }
    fverts = nodes[out["facet_nodes"]]
    out["facet_lo"] = fverts.min(axis=1)
    out["facet_hi"] = fverts.max(axis=1)
    out["facet_center"] = 0.5 * (out["facet_lo"] + out["facet_hi"])
    if graph:
        out["graph_facets"] = np.concatenate(graph_mask)[keys]
        out["far_nodes"] = np.unique(out["facet_nodes"][~out["graph_facets"]])
    return out
