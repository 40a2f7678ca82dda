import numpy as np
import pytest

from crownfit import fitting
from crownfit.errors import NonConvergenceError
from crownfit.fitting import (FittingParams, center_between_neighbors,
                              connected_components, detect_cusps, fit_crown,
                              interproximal_adapt, intersection_volume, is_posterior,
                              occlusal_correct_anterior, occlusal_correct_posterior,
                              occlusal_direction, points_inside_mesh, scale_about)
from crownfit.mesh import LabeledMesh, estimate_vertex_normals
from crownfit.synth import CrownDims, generate_crown_fixture
from helpers import make_box, make_uv_sphere

UP, DOWN = (0, 0, 1), (0, 0, -1)


def open_cap(center, half, facing=1, spacing=None):
    """A box without its bottom face (``facing`` +1) or its top face (-1),
    like a tooth patch cut at its gum line: the occlusal face, a grid of
    ``spacing`` (one cell when None), and the four walls down to the hole."""
    c, h = np.asarray(center, dtype=np.float64), np.asarray(half, dtype=np.float64)
    nx, ny = (1 if spacing is None else max(1, int(round(2 * e / spacing))) for e in h[:2])
    i, j = np.meshgrid(np.arange(nx + 1), np.arange(ny + 1), indexing="ij")
    top = np.column_stack([2 * i.ravel() / nx - 1, 2 * j.ravel() / ny - 1, np.ones(i.size)])
    idx = np.arange(i.size).reshape(nx + 1, ny + 1)
    k = idx[:-1, :-1].ravel()
    ring = np.concatenate([idx[:-1, 0], idx[-1, :-1], idx[:0:-1, -1], idx[0, :0:-1]])
    low = i.size + np.arange(len(ring))
    faces = np.concatenate([np.stack([k, k + ny + 1, k + ny + 2], axis=1),
                            np.stack([k, k + ny + 2, k + 1], axis=1),
                            np.stack([ring, low, np.roll(low, -1)], axis=1),
                            np.stack([ring, np.roll(low, -1), np.roll(ring, -1)], axis=1)])
    unit = np.concatenate([top, top[ring] * [1, 1, -1]])
    return LabeledMesh(c + unit * h * [1, 1, facing], faces)


def mirror_z(mesh):
    """Mirror across z = 0, keeping outward winding."""
    flip = np.array([1.0, 1.0, -1.0])
    normals = None if mesh.vertex_normals is None else mesh.vertex_normals * flip
    return LabeledMesh(mesh.vertices * flip, mesh.faces[:, [0, 2, 1]], normals, mesh.face_labels)


def two_walls(gap, half=(1.0, 6.0, 6.0), wall=make_box):
    """Two walls a gap apart along x: closed boxes, or ``wall(center, half)``."""
    w1, w2 = (wall((side * (gap / 2 + half[0]), 0, 0), half) for side in (-1, 1))
    return LabeledMesh(np.concatenate([w1.vertices, w2.vertices]),
                       np.concatenate([w1.faces, w2.faces + w1.n_vertices]))


def two_caps(gap, half=(1.0, 6.0, 6.0)):
    """Two neighbour patches facing +z, open at the bottom, a gap apart."""
    return two_walls(gap, half, wall=open_cap)


def open_plate(bottom):
    """An antagonist patch facing -z, open at the top; its occlusal face, at
    z = bottom, is a 0.25 mm grid."""
    return open_cap((0, 0, bottom + 3.0), (7.0, 7.0, 3.0), facing=-1, spacing=0.25)


class TestIntersectionVolume:
    def test_disjoint_cubes_zero(self):
        a = make_box((0, 0, 0), (0.5, 0.5, 0.5))
        b = make_box((10, 0, 0), (0.5, 0.5, 0.5))
        assert intersection_volume(a, b, UP, 0.05) == 0.0

    def test_half_overlap_slab(self):
        a = make_box((0, 0, 0), (0.5, 0.5, 0.5))
        b = make_box((0.5, 0, 0), (0.5, 0.5, 0.5))
        v = intersection_volume(a, b, UP, 0.02)
        assert abs(v - 0.5) / 0.5 < 0.05

    def test_identical_cubes_full_volume(self):
        a = make_box((0, 0, 0), (0.5, 0.5, 0.5))
        v = intersection_volume(a, make_box((0, 0, 0), (0.5, 0.5, 0.5)), UP, 0.02)
        assert abs(v - 1.0) < 0.05

    def test_sphere_cube_overlap_against_analytic_cap(self):
        # sphere of radius 2 centered so a cap of height 0.5 pokes into the box
        sphere = make_uv_sphere((0, 0, -1.5), 2.0, 48, 64)
        box = make_box((0, 0, 5.0), (4.0, 4.0, 5.0))  # z in [0, 10]
        cap_h = 0.5
        analytic = np.pi * cap_h**2 * (3 * 2.0 - cap_h) / 3.0
        v = intersection_volume(sphere, box, UP, 0.02)
        assert abs(v - analytic) / analytic < 0.05

    def test_bad_arguments(self):
        a = make_box((0, 0, 0), (1, 1, 1))
        with pytest.raises(ValueError):
            intersection_volume(a, a, UP, 0.0)


    def test_open_crown_rejected(self):
        box = make_box((0, 0, 0), (1, 1, 1))
        open_box = box.submesh(np.arange(1, box.n_faces))
        with pytest.raises(ValueError, match="watertight"):
            intersection_volume(open_box, make_box((0.5, 0, 0), (1, 1, 1)), UP, 0.05)

    @pytest.mark.parametrize("facing", [1, -1])
    def test_open_cap_matches_closed_box(self, facing):
        # a cap is tested from its occlusal side, so it holds what the box
        # holds; below its hole (beyond the gum line) lies outside this test
        center, half = (0.2, -0.1, 0.3), (1.0, 1.5, 0.8)
        box, cap = make_box(center, half), open_cap(center, half, facing)
        for crown in (make_uv_sphere((0.9, 0.4, 0.3 + 0.9 * facing), 0.8, 24, 32),
                      make_uv_sphere((-0.5, 1.2, 0.3 - 0.9 * facing), 0.7, 24, 32)):
            want = intersection_volume(crown, box, (0, 0, facing), 0.02)
            assert want > 0.01
            assert intersection_volume(crown, cap, (0, 0, facing), 0.02) == want
        pts = np.random.default_rng(3).uniform([-2, -2, -1], [2, 2, 2], size=(2000, 3))
        pts = pts[facing * (pts[:, 2] - 0.3) > -0.8]
        want = points_inside_mesh(pts, box, (0, 0, facing))
        assert 0 < want.sum() < len(pts)
        assert np.array_equal(points_inside_mesh(pts, cap, (0, 0, facing)), want)
        assert np.array_equal(points_inside_mesh(pts, box, (0, 0, -facing)), want)


class TestPointsInsideMesh:
    def test_box_inside_outside(self):
        box = make_box((0, 0, 0), (1, 1, 1))
        pts = [[0, 0, 0], [0.9, 0.9, 0.9], [1.1, 0, 0], [5, 5, 5]]
        inside = points_inside_mesh(pts, box, UP)
        assert inside.tolist() == [True, True, False, False]

    def test_sphere_inside(self):
        sphere = make_uv_sphere((1, 2, 3), 2.0, 24, 32)
        rng = np.random.default_rng(0)
        pts = rng.uniform(-2, 6, size=(500, 3))
        want = np.linalg.norm(pts - [1, 2, 3], axis=1) < 1.97  # mesh slightly inside
        got = points_inside_mesh(pts, sphere, UP)
        # chordal flattening makes the mesh slightly smaller than the sphere
        boundary = np.abs(np.linalg.norm(pts - [1, 2, 3], axis=1) - 2.0) < 0.05
        assert np.array_equal(got[~boundary],
                              (np.linalg.norm(pts - [1, 2, 3], axis=1) < 2.0)[~boundary])


def brute_force_inside(points, mesh, ray):
    """Oracle: ray parity over every (point, triangle) pair, along ``ray``."""
    tri = mesh.vertices[mesh.faces]
    e1, e2 = tri[:, 1] - tri[:, 0], tri[:, 2] - tri[:, 0]
    pvec = np.cross(ray, e2)
    det = np.einsum("ij,ij->i", e1, pvec)
    ok = np.abs(det) > 1e-14
    inside = []
    for p in np.asarray(points, dtype=np.float64):
        tvec = p - tri[:, 0]
        qvec = np.cross(tvec, e1)
        with np.errstate(divide="ignore", invalid="ignore"):
            u = np.einsum("ij,ij->i", tvec, pvec) / det
            v = qvec @ ray / det
            t = np.einsum("ij,ij->i", qvec, e2) / det
            hits = ok & (u >= 0) & (v >= 0) & (u + v <= 1) & (t > 0)
        inside.append(hits.sum() % 2 == 1)
    return np.array(inside)


def inside_probe_points(mesh, rng):
    """Random points around the mesh's box (many outside it), points below the
    mesh along the ray, and points just off the faces on both sides."""
    from crownfit.fitting import _RAY_DIR
    lo, hi = mesh.vertices.min(axis=0), mesh.vertices.max(axis=0)
    pad = 0.5 * (hi - lo)
    around = rng.uniform(lo - pad, hi + pad, size=(300, 3))
    below = rng.uniform(lo, hi, size=(100, 3)) - 3.0 * np.linalg.norm(hi - lo) * _RAY_DIR
    pick = rng.choice(mesh.n_faces, size=min(mesh.n_faces, 100), replace=False)
    centers = mesh.face_centroids()[pick]
    normals = mesh.face_normals()[pick]
    corners = mesh.vertices[mesh.faces[pick, 0]] + rng.normal(0, 1e-3, (len(pick), 3))
    return np.concatenate([around, below, centers + 1e-6 * normals,
                           centers - 1e-6 * normals, corners])


ORACLE_MESHES = {
    "box": lambda: make_box((0.3, -0.2, 0.1), (1.0, 2.0, 0.5)),
    "sphere": lambda: make_uv_sphere((1, 2, 3), 2.0, 24, 32),
    "crown": lambda: generate_crown_fixture("bumped_posterior")[0],
    "cap": lambda: open_cap((0.3, -0.2, 0.1), (1.0, 2.0, 0.5), spacing=0.5),
}


class TestCulledInsideTestEquivalence:
    @pytest.mark.parametrize("name", list(ORACLE_MESHES))
    def test_matches_all_pairs_oracle(self, name):
        from crownfit.fitting import _RAY_DIR
        mesh = ORACLE_MESHES[name]()
        pts = inside_probe_points(mesh, np.random.default_rng(7))
        for side, ray in ((UP, _RAY_DIR), (DOWN, -_RAY_DIR)):
            want = brute_force_inside(pts, mesh, ray)
            assert 0 < want.sum() < len(pts)
            assert np.array_equal(points_inside_mesh(pts, mesh, side), want)

    def test_empty_inputs(self):
        box = make_box((0, 0, 0), (1, 1, 1))
        assert points_inside_mesh(np.zeros((0, 3)), box, UP).shape == (0,)
        empty = LabeledMesh(np.zeros((0, 3)), np.zeros((0, 3), dtype=int))
        assert not points_inside_mesh([[0.0, 0.0, 0.0]], empty, UP).any()


class TestVoxelMaskEquivalence:
    @pytest.mark.parametrize("name", list(ORACLE_MESHES))
    def test_matches_all_pairs_oracle(self, name):
        from crownfit.fitting import _GRID_SHIFT, _UP, _column_inside, _triangles
        mesh = ORACLE_MESHES[name]()
        # a few thousand centres on _voxel_overlap's shifted grid, padded so
        # that some lie outside the mesh on every side
        lo, hi = mesh.vertices.min(axis=0), mesh.vertices.max(axis=0)
        lo, hi = lo - 0.1 * (hi - lo), hi + 0.1 * (hi - lo)
        res = float(np.prod(hi - lo) / 4000) ** (1 / 3)
        xs, ys, zs = (lo[k] + (np.arange(int(np.ceil((hi[k] - lo[k]) / res)))
                               + 0.5 + _GRID_SHIFT[k]) * res for k in range(3))
        centres = np.stack(np.meshgrid(xs, ys, zs, indexing="ij"), axis=-1).reshape(-1, 3)
        xy = centres[::len(zs), :2]
        for up in (True, False):
            want = brute_force_inside(centres, mesh, np.array([0.0, 0.0, 1.0 if up else -1.0]))
            assert 0 < want.sum() < len(want)
            assert np.array_equal(_column_inside(_triangles(mesh, _UP), xy, zs, up).ravel(), want)


class TestInterproximal:
    def test_case_a_collision_shrinks_clear(self):
        sphere = make_uv_sphere((0, 0, 0), 5.0, 36, 48)
        walls = two_walls(9.9)
        params = FittingParams(voxel_resolution=0.02)
        trace = []
        fitted, scale = interproximal_adapt(sphere, walls, UP, params, trace=trace)
        assert intersection_volume(fitted, walls, UP, 0.02) <= params.v_int_threshold
        assert scale < 1.0
        phases = [t["phase"] for t in trace]
        assert "grow" not in phases

    def test_case_b_grows_to_touch_then_shrinks(self):
        sphere = make_uv_sphere((0, 0, 0), 4.0, 36, 48)
        walls = two_walls(10.0)
        params = FittingParams(voxel_resolution=0.02)
        trace = []
        fitted, scale = interproximal_adapt(sphere, walls, UP, params, trace=trace)
        predicted = 10.0 / 8.0 * 0.99
        assert predicted * 0.99 <= scale <= predicted * 1.01  # within one step
        phases = [t["phase"] for t in trace]
        assert "shrink" not in phases
        assert phases[-1] == "functional_gap"
        assert intersection_volume(fitted, walls, UP, 0.02) <= params.v_int_threshold

    def test_just_touching_boundary_behavior(self):
        sphere = make_uv_sphere((0, 0, 0), 4.999, 36, 48)
        walls = two_walls(10.0)
        trace = []
        fitted, scale = interproximal_adapt(sphere, walls, UP,
                                            FittingParams(voxel_resolution=0.02),
                                            trace=trace)
        assert intersection_volume(fitted, walls, UP, 0.02) <= 1e-6
        assert len(trace) >= 2  # documented by the trace

    def test_scaling_keeps_centroid_fixed(self):
        sphere = make_uv_sphere((2.0, -1.0, 3.0), 5.0, 36, 48)
        walls = two_walls(9.9)
        walls = walls.with_vertices(walls.vertices + [2.0, -1.0, 3.0])
        fitted, _ = interproximal_adapt(sphere, walls, UP, FittingParams(voxel_resolution=0.02))
        drift = np.linalg.norm(fitted.centroid() - sphere.centroid())
        assert drift <= 1e-9

    def test_scale_trace_monotone_per_case(self):
        sphere = make_uv_sphere((0, 0, 0), 5.0, 36, 48)
        trace = []
        interproximal_adapt(sphere, two_walls(9.9), UP,
                            FittingParams(voxel_resolution=0.02), trace=trace)
        scales = [t["scale"] for t in trace if t["phase"] == "shrink"]
        assert all(b < a for a, b in zip(scales, scales[1:])) or len(scales) <= 1

    def test_non_convergence_raises_with_trace(self):
        sphere = make_uv_sphere((0, 0, 0), 5.0, 24, 32)
        walls = two_walls(9.0)
        with pytest.raises(NonConvergenceError) as err:
            interproximal_adapt(sphere, walls, UP,
                                FittingParams(voxel_resolution=0.05, max_scale_iters=2))
        assert len(err.value.trace) >= 1


    @pytest.mark.parametrize("radius, gap, phase", [(5.0, 9.9, "shrink"), (4.0, 10.0, "grow")])
    def test_open_patches(self, radius, gap, phase):
        sphere = make_uv_sphere((0, 0, 0), radius, 24, 32)
        trace = []
        params = FittingParams(voxel_resolution=0.02)
        fitted, scale = interproximal_adapt(sphere, two_caps(gap), UP, params, trace=trace)
        phases = {t["phase"] for t in trace}
        assert phase in phases and phases <= {"initial", phase, "functional_gap"}
        assert trace[0]["volume"] > 0 if phase == "shrink" else trace[0]["volume"] == 0
        assert trace[-1]["volume"] == 0.0
        # the crown ends clear of both caps, as against two closed walls
        assert np.abs(fitted.vertices[:, 0]).max() < gap / 2
        closed = []
        interproximal_adapt(sphere, two_walls(gap), UP, params, trace=closed)
        assert trace == closed
        if phase == "grow":
            predicted = gap / (2 * radius) * 0.99
            assert predicted * 0.99 <= scale <= predicted * 1.01

    def test_open_crown_rejected(self):
        sphere = make_uv_sphere((0, 0, 0), 4.0, 24, 32)
        open_crown = sphere.submesh(np.arange(1, sphere.n_faces))
        with pytest.raises(ValueError, match="watertight"):
            interproximal_adapt(open_crown, two_walls(10.0), UP)


class TestCentering:
    def test_moves_to_midpoint_xy_only(self):
        crown = make_uv_sphere((1.0, 0.5, 2.0), 3.0, 16, 24)
        moved = center_between_neighbors(crown, two_walls(10.0))
        assert np.allclose(moved.centroid()[:2], [0.0, 0.0], atol=1e-9)
        assert np.isclose(moved.centroid()[2], 2.0)

    def test_already_centered_is_identity(self):
        crown = make_uv_sphere((0.0, 0.0, 2.0), 3.0, 16, 24)
        moved = center_between_neighbors(crown, two_walls(10.0))
        assert np.allclose(moved.vertices, crown.vertices, atol=1e-9)

    def test_single_neighbor_rejected(self):
        crown = make_uv_sphere((0, 0, 0), 3.0, 16, 24)
        with pytest.raises(ValueError, match="2 neighbor components"):
            center_between_neighbors(crown, make_box((5, 0, 0), (1, 1, 1)))

    def test_connected_components_counts(self):
        assert len(connected_components(two_walls(10.0))) == 2
        assert len(connected_components(make_box((0, 0, 0), (1, 1, 1)))) == 1

    def test_connected_components_ordered_by_lowest_face(self):
        walls = two_walls(10.0)
        faces = np.concatenate([walls.faces[12:], walls.faces[:12]])
        comps = connected_components(LabeledMesh(walls.vertices, faces))
        assert [c.tolist() for c in comps] == [list(range(12)), list(range(12, 24))]


class TestCusps:
    def test_five_bump_apexes_found_exactly(self):
        crown, apexes = generate_crown_fixture("bumped_posterior")
        cusps = detect_cusps(crown, (0, 0, 1))
        assert sorted(cusps.tolist()) == sorted(apexes)

    def test_monotone_ramp_no_cusps(self):
        crown, _ = generate_crown_fixture("smooth_anterior")
        assert len(detect_cusps(crown, (0, 0, 1))) == 0

    def test_seven_bumps_top_five_selected(self):
        crown, apexes = generate_crown_fixture("bumped_posterior", CrownDims(n_bumps=7))
        cusps = detect_cusps(crown, (0, 0, 1))
        assert len(cusps) == 5
        tallest = sorted(apexes, key=lambda v: -apexes[v])[:5]
        assert sorted(cusps.tolist()) == sorted(tallest)

    def test_heights_descending(self):
        crown, _ = generate_crown_fixture("bumped_posterior", CrownDims(n_bumps=7))
        cusps = detect_cusps(crown, (0, 0, 1))
        assert np.all(np.diff(crown.vertices[cusps, 2]) <= 0)

    def test_normals_required(self):
        crown, _ = generate_crown_fixture("bumped_posterior")
        bare = LabeledMesh(crown.vertices, crown.faces)
        with pytest.raises(ValueError, match="normals"):
            detect_cusps(bare, (0, 0, 1))


class TestModeA:
    def plate_above(self, mesh, clearance):
        top = mesh.vertices[:, 2].max()
        return make_box((0, 0, top - clearance + 3.0), (12.0, 12.0, 3.0))

    def test_single_penetrating_cusp_resolved_locally(self):
        crown, _ = generate_crown_fixture("bumped_posterior")
        # the plate's bottom at 7.11 mm clips the three tallest cusps, at
        # 7.26, 7.20 and 7.14 mm; the tallest takes two rounds to clear
        plate = self.plate_above(crown, 0.15)
        params = FittingParams()
        trace = []
        out = occlusal_correct_posterior(crown, plate, (0, 0, 1), params, trace=trace)
        apex = int(np.argmax(crown.vertices[:, 2]))
        drop = crown.vertices[apex, 2] - out.vertices[apex, 2]
        assert np.isclose(drop, 0.2, atol=1e-9)  # two tap rounds of delta
        assert len([t for t in trace if t["colliding"]]) == 2
        assert not points_inside_mesh(out.vertices, plate, DOWN).any()
        # locality: vertices beyond the falloff radius of the colliding cusp
        # keep bit-identical coordinates
        colliding = {v for t in trace for v in t["colliding"]}
        d_to_coll = np.min(np.linalg.norm(
            crown.vertices[:, None, :] - crown.vertices[list(colliding)][None, :, :],
            axis=2), axis=1)
        far = d_to_coll > params.falloff_radius
        assert np.array_equal(out.vertices[far], crown.vertices[far])

    def test_no_collision_no_change(self):
        crown, _ = generate_crown_fixture("bumped_posterior")
        plate = self.plate_above(crown, -5.0)  # far above
        out = occlusal_correct_posterior(crown, plate, (0, 0, 1), FittingParams())
        assert np.array_equal(out.vertices, crown.vertices)

    def test_all_cusps_colliding_bounded_neighborhood(self):
        crown, apex_heights = generate_crown_fixture("bumped_posterior")
        plate = self.plate_above(crown, 0.6)  # clips all five cusps
        params = FittingParams()
        out = occlusal_correct_posterior(crown, plate, (0, 0, 1), params)
        moved = np.nonzero(np.any(out.vertices != crown.vertices, axis=1))[0]
        # the falloff ball follows the displaced cusp, so the reach from the
        # original apex grows by at most the largest total tap-down
        apex_ids = list(apex_heights)
        apexes = crown.vertices[apex_ids]
        max_drop = float((crown.vertices[apex_ids, 2] - out.vertices[apex_ids, 2]).max())
        d = np.min(np.linalg.norm(crown.vertices[moved][:, None, :] - apexes[None], axis=2),
                   axis=1)
        assert d.max() <= params.falloff_radius + max_drop + 1e-12

    def test_non_convergence_raises(self):
        crown, _ = generate_crown_fixture("bumped_posterior")
        plate = self.plate_above(crown, 3.0)  # hopeless within 2 rounds
        with pytest.raises(NonConvergenceError):
            occlusal_correct_posterior(crown, plate, (0, 0, 1),
                                       FittingParams(max_tap_rounds=2))


    def test_open_plate_tap_down(self):
        crown, apexes = generate_crown_fixture("bumped_posterior")
        plate_z = crown.vertices[:, 2].max() - 0.15
        plate = open_plate(plate_z)  # clips the three tallest cusps
        params = FittingParams()
        trace = []
        out = occlusal_correct_posterior(crown, plate, (0, 0, 1), params, trace=trace)
        clipped = [v for v in apexes if crown.vertices[v, 2] > plate_z]
        assert len(clipped) == 3
        assert sorted(trace[0]["colliding"]) == sorted(clipped)
        assert trace[-1]["colliding"] == []
        assert np.all(out.vertices[clipped, 2] < plate_z)
        assert not points_inside_mesh(out.vertices, plate, DOWN).any()
        colliding = {v for t in trace for v in t["colliding"]}
        d_to_coll = np.min(np.linalg.norm(
            crown.vertices[:, None, :] - crown.vertices[list(colliding)][None, :, :],
            axis=2), axis=1)
        far = d_to_coll > params.falloff_radius
        assert np.array_equal(out.vertices[far], crown.vertices[far])


def oracle_shifts(crown, plate, params):
    """Shift count of the anterior mode against an ``open_plate``, from
    all-pairs distances: a vertex interferes when it lies above the plate's
    occlusal face within its footprint or, if none does, within
    proximity_dist of a plate vertex."""
    lo, hi = plate.vertices.min(axis=0), plate.vertices.max(axis=0)
    for k in range(params.max_shift_iters + 1):
        pts = crown.vertices - [0, 0, k * params.delta]
        dist = np.linalg.norm(pts[:, None, :] - plate.vertices[None], axis=2).min(axis=1)
        inside = (pts[:, 2] > lo[2]) & np.all((pts[:, :2] > lo[:2]) & (pts[:, :2] < hi[:2]), axis=1)
        if not inside.any() and not (dist < params.proximity_dist).any():
            return k
    raise AssertionError("oracle found no clear shift")


class TestModeB:
    def test_shift_count_matches_penetration_depth(self):
        crown, _ = generate_crown_fixture("smooth_anterior")
        top = crown.vertices[:, 2].max()
        plate = make_box((0, 0, top - 0.25 + 3.0), (12.0, 12.0, 3.0))
        trace = []
        out = occlusal_correct_anterior(crown, plate, (0, 0, 1), FittingParams(),
                                        trace=trace)
        assert trace[-1]["shifts"] == 3
        assert np.isclose(crown.vertices[0, 2] - out.vertices[0, 2], 0.3)

    def test_no_interference_zero_shifts(self):
        crown, _ = generate_crown_fixture("smooth_anterior")
        plate = make_box((0, 0, crown.vertices[:, 2].max() + 10.0), (12, 12, 3))
        trace = []
        out = occlusal_correct_anterior(crown, plate, (0, 0, 1), FittingParams(),
                                        trace=trace)
        assert trace[0]["shifts"] == 0
        assert np.array_equal(out.vertices, crown.vertices)

    def test_rigidity_pairwise_distances(self, rng):
        crown, _ = generate_crown_fixture("smooth_anterior")
        top = crown.vertices[:, 2].max()
        plate = make_box((0, 0, top - 0.4 + 3.0), (12.0, 12.0, 3.0))
        out = occlusal_correct_anterior(crown, plate, (0, 0, 1), FittingParams())
        idx = rng.choice(crown.n_vertices, size=(60, 2))
        before = np.linalg.norm(crown.vertices[idx[:, 0]] - crown.vertices[idx[:, 1]], axis=1)
        after = np.linalg.norm(out.vertices[idx[:, 0]] - out.vertices[idx[:, 1]], axis=1)
        assert np.abs(before - after).max() <= 1e-12


    def test_open_plate_shift_count_matches_oracle(self):
        crown, _ = generate_crown_fixture("smooth_anterior")
        plate_z = crown.vertices[:, 2].max() - 0.25
        plate = open_plate(plate_z)
        params = FittingParams()
        trace = []
        out = occlusal_correct_anterior(crown, plate, (0, 0, 1), params, trace=trace)
        want = oracle_shifts(crown, plate, params)
        assert want > 3  # the vertex proximity term acts beyond the 0.25 mm depth
        assert trace[-1]["shifts"] == want
        assert np.allclose(crown.vertices - out.vertices, [0, 0, want * params.delta])

    def test_obstacle_derived_once_over_many_steps(self, monkeypatch):
        # shaped like a pipeline fit: open neighbour patches, a closed antagonist
        crown = generate_crown_fixture("smooth_anterior")[0]
        width = np.ptp(crown.vertices[:, 0])
        neighbors = two_caps(0.95 * width)
        # 1 mm into the crown before scaling, so the crown still reaches it after
        antagonist = make_box((0, 0, crown.vertices[:, 2].max() - 1.0 + 3.0), (12, 12, 3))
        builds, checks = [], []
        index_cls, watertight = fitting.SpatialIndex, fitting.is_watertight

        class CountingIndex(index_cls):
            def __init__(self, points):
                builds.append(len(points))
                super().__init__(points)

        def counting_watertight(mesh):
            checks.append(mesh.n_faces)
            return watertight(mesh)

        monkeypatch.setattr(fitting, "SpatialIndex", CountingIndex)
        monkeypatch.setattr(fitting, "is_watertight", counting_watertight)
        _, report = fit_crown(crown, neighbors, antagonist, fdi=41)
        assert report["mode"] == "anterior"
        assert len(report["scale_trace"]) > 3 and report["occlusal_trace"][-1]["shifts"] > 3
        assert builds == [antagonist.n_vertices]
        assert checks == [crown.n_faces] * 2  # interproximal scaling and the residual


class TestFitCrown:
    def posterior_case(self):
        crown, _ = generate_crown_fixture("bumped_posterior")
        walls = two_walls(8.6, half=(1.0, 6.0, 6.0))
        top = crown.vertices[:, 2].max()
        plate = make_box((0, 0, top - 0.1 + 3.0), (14.0, 14.0, 3.0))
        return crown, walls, plate

    def test_posterior_invariant_suite(self):
        crown, walls, plate = self.posterior_case()
        params = FittingParams(voxel_resolution=0.02)
        fitted, report = fit_crown(crown, walls, plate, fdi=36, params=params)
        assert report["mode"] == "posterior"
        assert report["centering_applied"]
        assert intersection_volume(fitted, walls, UP, 0.02) <= params.v_int_threshold
        assert not points_inside_mesh(fitted.vertices, plate, DOWN).any()
        assert report["final_scale"] > 0

    def test_upper_mirror_fits_like_lower(self):
        # a lower molar between open neighbour patches under an open
        # antagonist patch, and the same scene z-mirrored as an upper molar
        crown = generate_crown_fixture("bumped_posterior")[0]
        scene = (crown, two_caps(0.97 * np.ptp(crown.vertices[:, 0])),
                 open_plate(crown.vertices[:, 2].max() - 0.15))
        params = FittingParams(voxel_resolution=0.05)
        lower, low = fit_crown(*scene, fdi=36, params=params)
        upper, up = fit_crown(*(mirror_z(m) for m in scene), fdi=16, params=params)
        assert low["scale_trace"][0]["volume"] > 0
        assert [(t["phase"], t["scale"]) for t in up["scale_trace"]] == \
            [(t["phase"], t["scale"]) for t in low["scale_trace"]]
        assert up["occlusal_trace"] == low["occlusal_trace"]
        assert np.allclose(mirror_z(upper).vertices, lower.vertices, atol=1e-9)

    def test_anterior_mode_routing_rigid(self):
        crown, _ = generate_crown_fixture("smooth_anterior")
        walls = two_walls(7.4, half=(1.0, 5.0, 5.0))
        top = crown.vertices[:, 2].max()
        plate = make_box((0, 0, top - 0.2 + 3.0), (14.0, 14.0, 3.0))
        fitted, report = fit_crown(crown, walls, plate, fdi=41,
                                   params=FittingParams(voxel_resolution=0.02))
        assert report["mode"] == "anterior"

    def test_unequal_walls_centering_then_scaling_clears_both(self):
        # walls 1 mm and 2 mm thick: their centroids' midpoint sits 0.25 mm off
        # the middle of a gap only 2% wider than the crown
        crown = generate_crown_fixture("bumped_posterior")[0]
        lo, hi = crown.vertices[:, 0].min(), crown.vertices[:, 0].max()
        mid, gap = (lo + hi) / 2, 1.02 * (hi - lo)
        thin = make_box((mid - gap / 2 - 0.5, 0, 0), (0.5, 6.0, 6.0))
        thick = make_box((mid + gap / 2 + 1.0, 0, 0), (1.0, 6.0, 6.0))
        walls = LabeledMesh(np.concatenate([thin.vertices, thick.vertices]),
                            np.concatenate([thin.faces, thick.faces + 8]))
        params = FittingParams(voxel_resolution=0.02)
        fitted, report = fit_crown(crown, walls, None, fdi=36, params=params)
        assert report["centering_applied"]
        assert report["residual_neighbor_volume"] <= params.v_int_threshold
        assert intersection_volume(fitted, walls, UP, 0.02) <= params.v_int_threshold

    def test_missing_opposing_skips_step3(self):
        crown, walls, _ = self.posterior_case()
        fitted, report = fit_crown(crown, walls, None, fdi=36,
                                   params=FittingParams(voxel_resolution=0.02))
        assert report["mode"] == "skipped"
        assert report["occlusal_trace"] == []


def test_posterior_rule():
    assert is_posterior(36) and is_posterior(14) and is_posterior(48)
    assert not is_posterior(31) and not is_posterior(13) and not is_posterior(21)


def test_occlusal_direction_by_jaw():
    assert np.allclose(occlusal_direction(36), [0, 0, 1])   # lower: toward upper
    assert np.allclose(occlusal_direction(16), [0, 0, -1])  # upper: toward lower


def test_scale_about_exact_center():
    box = make_box((3, 3, 3), (1, 1, 1))
    out = scale_about(box, 0.5, (3, 3, 3))
    assert np.allclose(out.centroid(), [3, 3, 3], atol=1e-12)
