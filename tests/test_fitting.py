import numpy as np
import pytest

from crownfit.errors import NonConvergenceError, UnsupportedFeatureError
from crownfit.fitting import (CuspSet, FittingParams, center_between_neighbors,
                              connected_components, detect_cusps, fit_crown,
                              interproximal_adapt, intersection_volume, is_posterior,
                              occlusal_correct_anterior, occlusal_correct_posterior,
                              occlusal_direction, points_inside_mesh, scale_about)
from crownfit.mesh import LabeledMesh, estimate_vertex_normals
from crownfit.synth import CrownDims, generate_crown_fixture, make_box, make_uv_sphere


def two_walls(gap, half=(1.0, 6.0, 6.0)):
    w1 = make_box((-(gap / 2 + half[0]), 0, 0), half)
    w2 = make_box((gap / 2 + half[0], 0, 0), half)
    return LabeledMesh(np.concatenate([w1.vertices, w2.vertices]),
                       np.concatenate([w1.faces, w2.faces + 8]))


class TestIntersectionVolume:
    def test_disjoint_cubes_zero(self):
        a = make_box((0, 0, 0), (0.5, 0.5, 0.5))
        b = make_box((10, 0, 0), (0.5, 0.5, 0.5))
        assert intersection_volume(a, b, 0.05) == 0.0

    def test_half_overlap_slab(self):
        a = make_box((0, 0, 0), (0.5, 0.5, 0.5))
        b = make_box((0.5, 0, 0), (0.5, 0.5, 0.5))
        v = intersection_volume(a, b, 0.02)
        assert abs(v - 0.5) / 0.5 < 0.05

    def test_identical_cubes_full_volume(self):
        a = make_box((0, 0, 0), (0.5, 0.5, 0.5))
        v = intersection_volume(a, make_box((0, 0, 0), (0.5, 0.5, 0.5)), 0.02)
        assert abs(v - 1.0) < 0.05

    def test_sphere_cube_overlap_against_analytic_cap(self):
        # sphere of radius 2 centered so a cap of height 0.5 pokes into the box
        sphere = make_uv_sphere((0, 0, -1.5), 2.0, 48, 64)
        box = make_box((0, 0, 5.0), (4.0, 4.0, 5.0))  # z in [0, 10]
        cap_h = 0.5
        analytic = np.pi * cap_h**2 * (3 * 2.0 - cap_h) / 3.0
        v = intersection_volume(sphere, box, 0.02)
        assert abs(v - analytic) / analytic < 0.05

    def test_open_mesh_voxel_mode_rejected(self):
        open_mesh = LabeledMesh([[0, 0, 0], [1, 0, 0], [0, 1, 0]], [[0, 1, 2]])
        closed = make_box((0, 0, 0), (1, 1, 1))
        with pytest.raises(UnsupportedFeatureError, match="proximity"):
            intersection_volume(open_mesh, closed, 0.05, mode="voxel")

    def test_bad_arguments(self):
        a = make_box((0, 0, 0), (1, 1, 1))
        with pytest.raises(ValueError):
            intersection_volume(a, a, 0.0)
        with pytest.raises(ValueError):
            intersection_volume(a, a, 0.05, mode="exact")


class TestPointsInsideMesh:
    def test_box_inside_outside(self):
        box = make_box((0, 0, 0), (1, 1, 1))
        pts = [[0, 0, 0], [0.9, 0.9, 0.9], [1.1, 0, 0], [5, 5, 5]]
        inside = points_inside_mesh(pts, box)
        assert inside.tolist() == [True, True, False, False]

    def test_sphere_inside(self):
        sphere = make_uv_sphere((1, 2, 3), 2.0, 24, 32)
        rng = np.random.default_rng(0)
        pts = rng.uniform(-2, 6, size=(500, 3))
        want = np.linalg.norm(pts - [1, 2, 3], axis=1) < 1.97  # mesh slightly inside
        got = points_inside_mesh(pts, sphere)
        # chordal flattening makes the mesh slightly smaller than the sphere
        boundary = np.abs(np.linalg.norm(pts - [1, 2, 3], axis=1) - 2.0) < 0.05
        assert np.array_equal(got[~boundary],
                              (np.linalg.norm(pts - [1, 2, 3], axis=1) < 2.0)[~boundary])


def brute_force_inside(points, mesh):
    """Oracle: ray parity over every (point, triangle) pair, along the same ray."""
    from crownfit.fitting import _RAY_DIR
    tri = mesh.vertices[mesh.faces]
    e1, e2 = tri[:, 1] - tri[:, 0], tri[:, 2] - tri[:, 0]
    pvec = np.cross(_RAY_DIR, e2)
    det = np.einsum("ij,ij->i", e1, pvec)
    ok = np.abs(det) > 1e-14
    inside = []
    for p in np.asarray(points, dtype=np.float64):
        tvec = p - tri[:, 0]
        qvec = np.cross(tvec, e1)
        with np.errstate(divide="ignore", invalid="ignore"):
            u = np.einsum("ij,ij->i", tvec, pvec) / det
            v = qvec @ _RAY_DIR / det
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


class TestCulledInsideTestEquivalence:
    @pytest.mark.parametrize("name", ["box", "sphere", "crown"])
    def test_matches_all_pairs_oracle(self, name):
        mesh = {
            "box": lambda: make_box((0.3, -0.2, 0.1), (1.0, 2.0, 0.5)),
            "sphere": lambda: make_uv_sphere((1, 2, 3), 2.0, 24, 32),
            "crown": lambda: generate_crown_fixture("bumped_posterior").mesh,
        }[name]()
        pts = inside_probe_points(mesh, np.random.default_rng(7))
        want = brute_force_inside(pts, mesh)
        assert 0 < want.sum() < len(pts)
        assert np.array_equal(points_inside_mesh(pts, mesh), want)
        # a tiny chunk splits the candidate mask across many passes
        assert np.array_equal(points_inside_mesh(pts, mesh, chunk=997), want)

    def test_empty_inputs(self):
        box = make_box((0, 0, 0), (1, 1, 1))
        assert points_inside_mesh(np.zeros((0, 3)), box).shape == (0,)
        empty = LabeledMesh(np.zeros((0, 3)), np.zeros((0, 3), dtype=int))
        assert not points_inside_mesh([[0.0, 0.0, 0.0]], empty).any()


class TestInterproximal:
    def test_case_a_collision_shrinks_clear(self):
        sphere = make_uv_sphere((0, 0, 0), 5.0, 36, 48)
        walls = two_walls(9.9)
        params = FittingParams(voxel_resolution=0.02)
        trace = []
        fitted, scale = interproximal_adapt(sphere, walls, params, trace=trace)
        assert intersection_volume(fitted, walls, 0.02) <= params.v_int_threshold
        assert scale < 1.0
        phases = [t["phase"] for t in trace]
        assert "grow" not in phases

    def test_case_b_grows_to_touch_then_shrinks(self):
        sphere = make_uv_sphere((0, 0, 0), 4.0, 36, 48)
        walls = two_walls(10.0)
        params = FittingParams(voxel_resolution=0.02)
        trace = []
        fitted, scale = interproximal_adapt(sphere, walls, params, trace=trace)
        predicted = 10.0 / 8.0 * 0.99
        assert predicted * 0.99 <= scale <= predicted * 1.01  # within one step
        phases = [t["phase"] for t in trace]
        assert "shrink" not in phases
        assert phases[-1] == "functional_gap"
        assert intersection_volume(fitted, walls, 0.02) <= params.v_int_threshold

    def test_just_touching_boundary_behavior(self):
        sphere = make_uv_sphere((0, 0, 0), 4.999, 36, 48)
        walls = two_walls(10.0)
        trace = []
        fitted, scale = interproximal_adapt(sphere, walls,
                                            FittingParams(voxel_resolution=0.02),
                                            trace=trace)
        assert intersection_volume(fitted, walls, 0.02) <= 1e-6
        assert len(trace) >= 2  # documented by the trace

    def test_scaling_keeps_centroid_fixed(self):
        sphere = make_uv_sphere((2.0, -1.0, 3.0), 5.0, 36, 48)
        walls = two_walls(9.9)
        walls = walls.with_vertices(walls.vertices + [2.0, -1.0, 3.0])
        fitted, _ = interproximal_adapt(sphere, walls, FittingParams(voxel_resolution=0.02))
        drift = np.linalg.norm(fitted.centroid() - sphere.centroid())
        assert drift <= 1e-9

    def test_scale_trace_monotone_per_case(self):
        sphere = make_uv_sphere((0, 0, 0), 5.0, 36, 48)
        trace = []
        interproximal_adapt(sphere, two_walls(9.9),
                            FittingParams(voxel_resolution=0.02), trace=trace)
        scales = [t["scale"] for t in trace if t["phase"] == "shrink"]
        assert all(b < a for a, b in zip(scales, scales[1:])) or len(scales) <= 1

    def test_non_convergence_raises_with_trace(self):
        sphere = make_uv_sphere((0, 0, 0), 5.0, 24, 32)
        walls = two_walls(9.0)
        with pytest.raises(NonConvergenceError) as err:
            interproximal_adapt(sphere, walls,
                                FittingParams(voxel_resolution=0.05, max_scale_iters=2))
        assert len(err.value.trace) >= 1


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
        fixture = generate_crown_fixture("bumped_posterior")
        cusps = detect_cusps(fixture.mesh, (0, 0, 1))
        assert sorted(cusps.vertex_indices.tolist()) == sorted(fixture.cusp_vertices)

    def test_monotone_ramp_no_cusps(self):
        fixture = generate_crown_fixture("smooth_anterior")
        assert len(detect_cusps(fixture.mesh, (0, 0, 1))) == 0

    def test_seven_bumps_top_five_selected(self):
        fixture = generate_crown_fixture("bumped_posterior", CrownDims(n_bumps=7))
        cusps = detect_cusps(fixture.mesh, (0, 0, 1))
        assert len(cusps) == 5
        heights = {v: h for v, h in zip(fixture.cusp_vertices, fixture.cusp_heights)}
        tallest = sorted(fixture.cusp_vertices, key=lambda v: -heights[v])[:5]
        assert sorted(cusps.vertex_indices.tolist()) == sorted(tallest)

    def test_heights_descending(self):
        fixture = generate_crown_fixture("bumped_posterior", CrownDims(n_bumps=7))
        cusps = detect_cusps(fixture.mesh, (0, 0, 1))
        assert np.all(np.diff(cusps.heights) <= 0)

    def test_normals_required(self):
        fixture = generate_crown_fixture("bumped_posterior")
        bare = LabeledMesh(fixture.mesh.vertices, fixture.mesh.faces)
        with pytest.raises(ValueError, match="normals"):
            detect_cusps(bare, (0, 0, 1))

    def test_cusp_set_ordering_enforced(self):
        with pytest.raises(ValueError):
            CuspSet([0, 1], [1.0, 2.0])


class TestModeA:
    def plate_above(self, mesh, clearance):
        top = mesh.vertices[:, 2].max()
        return make_box((0, 0, top - clearance + 3.0), (12.0, 12.0, 3.0))

    def test_single_penetrating_cusp_resolved_locally(self):
        fixture = generate_crown_fixture("bumped_posterior")
        crown = fixture.mesh
        plate = self.plate_above(crown, 0.15)  # clips only the tallest cusp
        params = FittingParams()
        trace = []
        out = occlusal_correct_posterior(crown, plate, (0, 0, 1), params, trace=trace)
        apex = int(np.argmax(crown.vertices[:, 2]))
        drop = crown.vertices[apex, 2] - out.vertices[apex, 2]
        assert np.isclose(drop, 0.2, atol=1e-9)  # two tap rounds of delta
        assert len([t for t in trace if t["colliding"]]) == 2
        assert not points_inside_mesh(out.vertices, plate).any()
        # locality: vertices beyond the falloff radius of the colliding cusp
        # keep bit-identical coordinates
        colliding = {v for t in trace for v in t["colliding"]}
        d_to_coll = np.min(np.linalg.norm(
            crown.vertices[:, None, :] - crown.vertices[list(colliding)][None, :, :],
            axis=2), axis=1)
        far = d_to_coll > params.falloff_radius
        assert np.array_equal(out.vertices[far], crown.vertices[far])

    def test_no_collision_no_change(self):
        fixture = generate_crown_fixture("bumped_posterior")
        crown = fixture.mesh
        plate = self.plate_above(crown, -5.0)  # far above
        out = occlusal_correct_posterior(crown, plate, (0, 0, 1), FittingParams())
        assert np.array_equal(out.vertices, crown.vertices)

    def test_all_cusps_colliding_bounded_neighborhood(self):
        fixture = generate_crown_fixture("bumped_posterior")
        crown = fixture.mesh
        plate = self.plate_above(crown, 0.6)  # clips all five cusps
        params = FittingParams()
        out = occlusal_correct_posterior(crown, plate, (0, 0, 1), params)
        moved = np.nonzero(np.any(out.vertices != crown.vertices, axis=1))[0]
        # the falloff ball follows the displaced cusp, so the reach from the
        # original apex grows by at most the largest total tap-down
        apex_ids = list(fixture.cusp_vertices)
        apexes = crown.vertices[apex_ids]
        max_drop = float((crown.vertices[apex_ids, 2] - out.vertices[apex_ids, 2]).max())
        d = np.min(np.linalg.norm(crown.vertices[moved][:, None, :] - apexes[None], axis=2),
                   axis=1)
        assert d.max() <= params.falloff_radius + max_drop + 1e-12

    def test_non_convergence_raises(self):
        fixture = generate_crown_fixture("bumped_posterior")
        crown = fixture.mesh
        plate = self.plate_above(crown, 3.0)  # hopeless within 2 rounds
        with pytest.raises(NonConvergenceError):
            occlusal_correct_posterior(crown, plate, (0, 0, 1),
                                       FittingParams(max_tap_rounds=2))


class TestModeB:
    def test_shift_count_matches_penetration_depth(self):
        fixture = generate_crown_fixture("smooth_anterior")
        crown = fixture.mesh
        top = crown.vertices[:, 2].max()
        plate = make_box((0, 0, top - 0.25 + 3.0), (12.0, 12.0, 3.0))
        trace = []
        out = occlusal_correct_anterior(crown, plate, (0, 0, 1), FittingParams(),
                                        trace=trace)
        assert trace[-1]["shifts"] == 3
        assert np.isclose(crown.vertices[0, 2] - out.vertices[0, 2], 0.3)

    def test_no_interference_zero_shifts(self):
        fixture = generate_crown_fixture("smooth_anterior")
        crown = fixture.mesh
        plate = make_box((0, 0, crown.vertices[:, 2].max() + 10.0), (12, 12, 3))
        trace = []
        out = occlusal_correct_anterior(crown, plate, (0, 0, 1), FittingParams(),
                                        trace=trace)
        assert trace[0]["shifts"] == 0
        assert np.array_equal(out.vertices, crown.vertices)

    def test_rigidity_pairwise_distances(self, rng):
        fixture = generate_crown_fixture("smooth_anterior")
        crown = fixture.mesh
        top = crown.vertices[:, 2].max()
        plate = make_box((0, 0, top - 0.4 + 3.0), (12.0, 12.0, 3.0))
        out = occlusal_correct_anterior(crown, plate, (0, 0, 1), FittingParams())
        idx = rng.choice(crown.n_vertices, size=(60, 2))
        before = np.linalg.norm(crown.vertices[idx[:, 0]] - crown.vertices[idx[:, 1]], axis=1)
        after = np.linalg.norm(out.vertices[idx[:, 0]] - out.vertices[idx[:, 1]], axis=1)
        assert np.abs(before - after).max() <= 1e-12


class TestFitCrown:
    def posterior_case(self):
        fixture = generate_crown_fixture("bumped_posterior")
        crown = fixture.mesh
        walls = two_walls(8.6, half=(1.0, 6.0, 6.0))
        top = crown.vertices[:, 2].max()
        plate = make_box((0, 0, top - 0.1 + 3.0), (14.0, 14.0, 3.0))
        return crown, walls, plate

    def test_posterior_invariant_suite(self):
        crown, walls, plate = self.posterior_case()
        params = FittingParams(voxel_resolution=0.02)
        fitted, report = fit_crown(crown, walls, plate, fdi=36, params=params)
        assert report.mode == "posterior"
        assert report.centering_applied
        assert intersection_volume(fitted, walls, 0.02) <= params.v_int_threshold
        assert not points_inside_mesh(fitted.vertices, plate).any()
        assert report.final_scale > 0

    def test_anterior_mode_routing_rigid(self):
        fixture = generate_crown_fixture("smooth_anterior")
        crown = fixture.mesh
        walls = two_walls(7.4, half=(1.0, 5.0, 5.0))
        top = crown.vertices[:, 2].max()
        plate = make_box((0, 0, top - 0.2 + 3.0), (14.0, 14.0, 3.0))
        fitted, report = fit_crown(crown, walls, plate, fdi=41,
                                   params=FittingParams(voxel_resolution=0.02))
        assert report.mode == "anterior"

    def test_missing_opposing_skips_step3(self):
        crown, walls, _ = self.posterior_case()
        fitted, report = fit_crown(crown, walls, None, fdi=36,
                                   params=FittingParams(voxel_resolution=0.02))
        assert report.mode == "skipped"
        assert not report.opposing_checked


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
