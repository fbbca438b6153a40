import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from neumannlab.errors import (
    InvalidGeometryError,
    LipschitzViolationError,
    OutOfDomainError,
)
from neumannlab.mesh import (
    _LOCATE_OFFSETS,
    _SNAP,
    _check_lipschitz,
    build_box_mesh,
    build_staircase_mesh,
    build_truncated_graph_mesh,
    distance_to_boundary,
)


def brute_force_distance(mesh, point, k=60):
    """Independent oracle: min distance over a k x k sample grid per facet."""
    s = (np.arange(k) + 0.5) / k
    best = np.inf
    for f in range(len(mesh.facet_cell)):
        lo, hi = mesh.facet_lo[f], mesh.facet_hi[f]
        span = hi - lo
        axes = [a for a in range(3) if span[a] > 0]
        pts = np.tile(lo, (k * k, 1))
        grid = np.stack(np.meshgrid(s, s, indexing="ij"), axis=-1).reshape(-1, 2)
        pts[:, axes[0]] += span[axes[0]] * grid[:, 0]
        pts[:, axes[1]] += span[axes[1]] * grid[:, 1]
        best = min(best, np.linalg.norm(pts - point, axis=1).min())
    return best


class TestBoxMesh:
    def test_unit_cube_n1_counts(self):
        m = build_box_mesh((1, 1, 1), 1)
        assert m.n_nodes == 8
        assert m.n_cells == 1
        assert len(m.facet_area) == 6
        assert_allclose(m.boundary_measure, 6.0)

    def test_unit_cube_n2_counts(self):
        m = build_box_mesh((1, 1, 1), 2)
        assert m.n_nodes == 27
        assert m.n_cells == 8
        assert len(m.facet_area) == 24

    def test_box_211_surface_area(self):
        m = build_box_mesh((2, 1, 1), 2)  # h = 0.5
        assert_allclose(m.boundary_measure, 10.0)
        assert_allclose(m.volume, 2.0)

    @pytest.mark.parametrize("bad", [((0, 1, 1), 2), ((1, 1, 1), 0), ((-1, 1, 1), 2)])
    def test_invalid_geometry(self, bad):
        with pytest.raises(InvalidGeometryError):
            build_box_mesh(*bad)

    def test_normals_unit_length(self, unit_cube_8):
        assert_allclose(np.linalg.norm(unit_cube_8.facet_normal, axis=1), 1.0, atol=1e-12)

    def test_closure(self, unit_cube_8):
        total = (unit_cube_8.facet_area[:, None] * unit_cube_8.facet_normal).sum(axis=0)
        assert_allclose(total, 0.0, atol=1e-10)

    def test_refinement_keeps_exact_geometry(self):
        coarse = build_box_mesh((1, 1, 2), 2)
        fine = build_box_mesh((1, 1, 2), 4)
        assert_allclose(coarse.volume, fine.volume)
        assert_allclose(coarse.boundary_measure, fine.boundary_measure)


class TestStaircase:
    def test_single_box_reduces_to_box_mesh(self):
        a = build_staircase_mesh([((0, 0, 0), (1, 1, 1))], 0.5)
        b = build_box_mesh((1, 1, 1), 2)
        assert_allclose(a.nodes, b.nodes)
        assert np.array_equal(a.cells, b.cells)

    def test_l_shape_cell_count(self, l_shape):
        # enumeration: 2x4x4 + 2x2x4 lattice cells at h = 0.25
        assert l_shape.n_cells == 48
        assert_allclose(l_shape.volume, 0.75)

    def test_l_shape_surface_area(self, l_shape):
        # enumeration oracle: exposed lattice faces of the L-solid
        # outer 6 - removed (2 * 0.25 top/bottom + 0.5 + 0.5 sides) + inner (0.5 + 0.5)
        assert_allclose(l_shape.boundary_measure, 5.5)

    def test_l_shape_closure(self, l_shape):
        total = (l_shape.facet_area[:, None] * l_shape.facet_normal).sum(axis=0)
        assert_allclose(total, 0.0, atol=1e-10)

    def test_disconnected_union_rejected(self):
        with pytest.raises(InvalidGeometryError):
            build_staircase_mesh(
                [((0, 0, 0), (0.5, 0.5, 0.5)), ((1, 1, 1), (1.5, 1.5, 1.5))], 0.25
            )

    def test_facets_owned_once(self, l_shape):
        keys = {tuple(sorted(fn)) for fn in l_shape.facet_nodes}
        assert len(keys) == len(l_shape.facet_nodes)

    @settings(max_examples=20, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.integers(0, 2), st.integers(0, 2), st.integers(0, 2),
                st.integers(1, 2), st.integers(1, 2), st.integers(1, 2),
            ),
            min_size=1,
            max_size=3,
        )
    )
    def test_random_unions_closure(self, boxes):
        spec = [((x, y, z), (x + a, y + b, z + c)) for x, y, z, a, b, c in boxes]
        try:
            mesh = build_staircase_mesh(spec, 0.5)
        except InvalidGeometryError:
            return  # disconnected draw
        total = (mesh.facet_area[:, None] * mesh.facet_normal).sum(axis=0)
        assert_allclose(total, 0.0, atol=1e-10)
        assert_allclose(mesh.facet_area.sum(), mesh.boundary_measure)


class TestTruncatedGraph:
    def test_flat_profile_matches_cube(self, flat_graph_12, unit_cube_12):
        assert_allclose(flat_graph_12.nodes, unit_cube_12.nodes)
        assert np.array_equal(flat_graph_12.cells, unit_cube_12.cells)

    def test_flat_profile_facet_split(self):
        g = build_truncated_graph_mesh(lambda x, y: 0 * x, 0.0, ((0, 0, 0), (1, 1, 1)), 0.5)
        graph = g.graph_facets
        assert graph.sum() == 4  # bottom face at h = 0.5
        assert (~graph).sum() == 20
        assert np.all(g.facet_center[graph][:, 2] == 0.0)

    def test_partition(self, flat_graph_12):
        assert flat_graph_12.graph_facets.dtype == bool
        assert len(flat_graph_12.graph_facets) == len(flat_graph_12.facet_area)

    def test_wedge_interior_nodes_above_profile(self):
        g = build_truncated_graph_mesh(
            lambda x, y: 0.5 * np.abs(x - 0.5), 0.5, ((0, 0, 0), (1, 1, 1)), 0.125
        )
        pts = g.nodes[g.interior_nodes]
        assert np.all(pts[:, 2] > 0.5 * np.abs(pts[:, 0] - 0.5))

    def test_lipschitz_violation(self):
        with pytest.raises(LipschitzViolationError):
            build_truncated_graph_mesh(
                lambda x, y: 0.5 * np.abs(x - 0.5), 0.1, ((0, 0, 0), (1, 1, 1)), 0.125
            )

    def test_violation_only_between_distant_samples(self):
        # a plane rising along (5, 1): pairs at offsets parallel to (5, 1) reach
        # the slope s, while every pair closer than 5 cells stays below 0.9989 s
        s, h = 0.5, 0.125
        slope = s * np.array([5.0, 1.0]) / np.sqrt(26.0)

        def profile(x, y):
            return 0.1 + slope[0] * x + slope[1] * y

        K = 0.9996 * s
        idx = np.arange(9)
        I, J = np.meshgrid(idx, idx, indexing="ij")
        phi = profile(h * I, h * J)
        assert lipschitz_reference(phi, h, max_offset=4) < K
        with pytest.raises(LipschitzViolationError):
            build_truncated_graph_mesh(profile, K, ((0, 0, 0), (1, 1, 1)), h)

    def test_profile_below_box_rejected(self):
        with pytest.raises(InvalidGeometryError):
            build_truncated_graph_mesh(
                lambda x, y: -0.5 + 0 * x, 0.0, ((0, 0, 0), (1, 1, 1)), 0.25
            )


def lipschitz_reference(phi, h, max_offset=None):
    """All-pairs loop: worst |phi(a) - phi(b)| / |a - b| over pairs at most
    ``max_offset`` cells apart along each axis (all pairs by default)."""
    samples = [(i, j) for i in range(phi.shape[0]) for j in range(phi.shape[1])]
    worst = 0.0
    for a, (i, j) in enumerate(samples):
        for k, l in samples[a + 1 :]:
            if max_offset is not None and max(abs(k - i), abs(l - j)) > max_offset:
                continue
            dist = h * np.sqrt(float((k - i) ** 2) + float((l - j) ** 2))
            worst = max(worst, float(abs(phi[k, l] - phi[i, j]) / dist))
    return worst


class TestLipschitzCheck:
    @pytest.mark.parametrize("seed", range(4))
    def test_worst_ratio_bit_equal_to_all_pairs(self, seed):
        rng = np.random.default_rng(seed)
        shape = tuple(rng.integers(2, 9, size=2))
        h = float(rng.choice([1.0 / 3, 0.125, 0.2]))
        phi = rng.standard_normal(shape) * rng.uniform(0.01, 1.0)
        worst = lipschitz_reference(phi, h)
        assert _check_lipschitz(phi, h, worst) == worst
        with pytest.raises(LipschitzViolationError):
            _check_lipschitz(phi, h, 0.999 * worst)

    def test_flat_profile_ratio_zero(self):
        assert _check_lipschitz(np.full((5, 7), 0.3), 0.25, 0.0) == 0.0


class TestDistance:
    def test_cube_center(self, unit_cube_8):
        assert_allclose(distance_to_boundary(unit_cube_8, (0.5, 0.5, 0.5)), 0.5)

    def test_cube_near_face(self, unit_cube_8):
        assert_allclose(distance_to_boundary(unit_cube_8, (0.1, 0.5, 0.5)), 0.1)

    def test_outside_raises(self, unit_cube_8):
        with pytest.raises(OutOfDomainError):
            distance_to_boundary(unit_cube_8, (1.5, 0.5, 0.5))

    def test_l_shape_reentrant_corner(self, l_shape):
        # nearest boundary point is the re-entrant edge at (0.5, 0.5, z)
        d = distance_to_boundary(l_shape, (0.45, 0.45, 0.5))
        assert_allclose(d, np.sqrt(0.05**2 + 0.05**2), rtol=1e-12)

    def test_l_shape_inner_face(self, l_shape):
        assert_allclose(distance_to_boundary(l_shape, (0.45, 0.55, 0.5)), 0.05)

    @pytest.mark.parametrize(
        "point", [(0.45, 0.45, 0.5), (0.45, 0.55, 0.5), (0.2, 0.3, 0.7), (0.48, 0.9, 0.1)]
    )
    def test_against_brute_force(self, l_shape, point):
        exact = distance_to_boundary(l_shape, point)
        brute = brute_force_distance(l_shape, np.asarray(point))
        assert exact <= brute + 1e-12
        assert brute - exact <= l_shape.h * np.sqrt(2) / 60

    def test_graph_variant_excludes_far(self, flat_graph_12):
        p = (0.5, 0.5, 0.25)
        d_all = distance_to_boundary(flat_graph_12, p)
        d_graph = distance_to_boundary(flat_graph_12, p, include_far=False)
        assert_allclose(d_all, 0.25)
        assert_allclose(d_graph, 0.25)
        p2 = (0.5, 0.5, 0.75)
        assert_allclose(distance_to_boundary(flat_graph_12, p2), 0.25)
        assert_allclose(distance_to_boundary(flat_graph_12, p2, include_far=False), 0.75)


LOCATE_MESHES = {
    # name: (mesh, a point outside it)
    "box": (build_box_mesh((1, 1, 1), 12), (0.5, 0.5, 1.2)),
    "staircase": (
        build_staircase_mesh(
            [((-0.5, -0.5, -0.5), (0.0, 0.5, 0.5)), ((0.0, -0.5, -0.5), (0.5, 0.0, 0.5))], 0.25
        ),
        (0.3, 0.3, 0.0),  # in the notch of the bounding box
    ),
    "graph": (
        build_truncated_graph_mesh(lambda x, y: 0.3 * x, 0.5, ((0, 0, 0), (1, 1, 1)), 1 / 6),
        (0.9, 0.5, 0.05),  # below the staircase floor
    ),
}


def loop_locate(mesh, point):
    """Per-point reference: the first occupied cell in offset order whose closure holds the point."""
    r = (np.asarray(point, dtype=float) - mesh.origin) / mesh.h
    base = np.floor(r + _SNAP).astype(np.int64)
    for off in _LOCATE_OFFSETS:
        t = r - (base + off)
        if np.all(t >= -_SNAP) and np.all(t <= 1 + _SNAP) and mesh.cell_ids(base + off) >= 0:
            return mesh.cell_ids(base + off), np.clip(t, 0.0, 1.0)
    raise AssertionError(f"reference found no cell for {point}")


def locates(mesh, point):
    try:
        mesh.locate(point)
    except OutOfDomainError:
        return False
    return True


class TestLocate:
    @pytest.mark.parametrize("name", sorted(LOCATE_MESHES))
    def test_batch_matches_single_points(self, name):
        mesh, _ = LOCATE_MESHES[name]
        rng = np.random.default_rng(0)
        cells = rng.integers(0, mesh.n_cells, 200)
        inner = mesh.cell_origins()[cells] + mesh.h * rng.uniform(size=(200, 3))
        pts = np.concatenate([mesh.nodes, mesh.facet_center, inner])
        ids, local = mesh.locate(pts)
        for p, cid, t in zip(pts, ids, local):
            one_id, one_t = mesh.locate(p)
            assert one_id[0] == cid and np.array_equal(one_t[0], t)
            ref_id, ref_t = loop_locate(mesh, p)
            assert ref_id == cid and np.array_equal(ref_t, t)
        assert_allclose(mesh.cell_origins()[ids] + mesh.h * local, pts, atol=1e-12)

    @pytest.mark.parametrize("name", sorted(LOCATE_MESHES))
    def test_shared_node_takes_own_lattice_cell(self, name):
        mesh, _ = LOCATE_MESHES[name]
        own = mesh.cell_ids(np.round((mesh.nodes - mesh.origin) / mesh.h).astype(np.int64))
        ids, local = mesh.locate(mesh.nodes)
        assert np.array_equal(ids[own >= 0], own[own >= 0])
        assert np.all(local[own >= 0] == 0.0)

    def test_center_of_two_cube_goes_to_last_cell(self):
        mesh = build_box_mesh((1, 1, 1), 2)
        ids, local = mesh.locate((0.5, 0.5, 0.5))
        assert tuple(mesh.cells_ijk[ids[0]]) == (1, 1, 1)
        assert np.array_equal(local[0], np.zeros(3))

    @pytest.mark.parametrize("name", sorted(LOCATE_MESHES))
    def test_batch_contains_matches_single_points(self, name):
        mesh, outside = LOCATE_MESHES[name]
        rng = np.random.default_rng(1)
        lo = mesh.origin
        hi = lo + mesh.h * np.array(mesh.cells_ijk.max(axis=0) + 1)
        pts = np.concatenate(
            [mesh.nodes, mesh.facet_center, rng.uniform(lo - mesh.h, hi + mesh.h, (300, 3)),
             [outside]]
        )
        inside = mesh.contains(pts)
        assert inside.dtype == bool and inside.shape == (len(pts),)
        assert np.array_equal(inside, [mesh.contains(p) for p in pts])
        assert np.array_equal(inside, [locates(mesh, p) for p in pts])
        assert inside[: mesh.n_nodes].all() and not inside[-1]
        assert isinstance(mesh.contains(pts[0]), bool)

    @pytest.mark.parametrize("name", sorted(LOCATE_MESHES))
    def test_outside_point_in_batch_raises(self, name):
        mesh, outside = LOCATE_MESHES[name]
        with pytest.raises(OutOfDomainError):
            mesh.locate(np.vstack([mesh.nodes[:5], outside, mesh.nodes[5:9]]))
