import itertools
import warnings

import numpy as np
import pytest

from crownfit.alignment import (LABEL_BUCCAL, LABEL_MESIAL, AlignmentParams, align_crown,
                                fit_arch_spline, region_normals, robust_target,
                                spline_frame_at)
from crownfit.errors import AlignmentWarning, DegenerateGeometryError
from crownfit.mesh import LabeledMesh, RigidTransform
from crownfit.pipeline import arch_centroid_sequence
from crownfit.synth import (ArchSpec, _centerline_tangent, _outward, _s_at_arc, fdi_to_class,
                            generate_arch, generate_crown_fixture, partial_spec)
from helpers import closest_parameter


def z3(xy_points):
    return np.column_stack([np.asarray(xy_points, dtype=float), np.zeros(len(xy_points))])


@pytest.fixture(scope="module")
def posterior_crown():
    return generate_crown_fixture("bumped_posterior")[0]


UP = np.array([0.0, 0.0, 1.0])


def aligned_targets(crown):
    """Targets equal to the crown's own normals and centroid: the fixed-point
    setup, as ``align_crown``'s (v_mesial, v_buccal, prep_centroid,
    occlusal_axis)."""
    n_mesial, n_buccal, n_occlusal = region_normals(crown)
    return n_mesial, n_buccal, crown.centroid(), n_occlusal


def unit_tangent(spline, t):
    d = spline.derivative()(t)
    return d / np.linalg.norm(d, axis=-1, keepdims=True)


class TestArchSpline:
    def test_collinear_centroids_constant_tangent(self):
        pts = z3([[0, 0], [1, 0], [2, 0], [3, 0]])
        spline = fit_arch_spline(pts)
        for t in np.linspace(spline.x[0], spline.x[-1], 7):
            assert np.allclose(unit_tangent(spline, t), [1, 0], atol=1e-9)

    def test_interpolates_knots_exactly(self):
        pts = z3([[0, 0], [1, 2], [3, 1], [4, 4]])
        spline = fit_arch_spline(pts)
        assert np.allclose(spline.x, [0, np.sqrt(5), 2 * np.sqrt(5), 2 * np.sqrt(5) + np.sqrt(10)])
        for knot, p in zip(spline.x, pts[:, :2]):
            assert np.allclose(spline(knot), p, atol=1e-9)

    def test_parabola_midpoints_within_tolerance(self):
        xs = np.arange(-20, 21, 5, dtype=float)
        pts = z3(np.column_stack([xs, xs**2 / 20.0]))
        spline = fit_arch_spline(pts)
        for xm in (xs[:-1] + xs[1:]) / 2.0:
            target = np.array([xm, xm**2 / 20.0])
            t = closest_parameter(spline, target)
            assert np.linalg.norm(spline(t) - target) < 0.05

    def test_too_few_points_rejected(self):
        with pytest.raises(ValueError):
            fit_arch_spline(z3([[0, 0], [1, 1]]))

    def test_duplicate_consecutive_rejected(self):
        with pytest.raises(DegenerateGeometryError):
            fit_arch_spline(z3([[0, 0], [0, 0], [1, 1]]))


def first_molar_frames():
    """For each first molar of seeds 0-9, both jaws, on the full arch and on
    its side scan: the tooth's (FDI, mesial, buccal) references from its own
    ground-truth arch, with the generator's outward and right-to-left unit
    tangent at the tooth's arc position."""
    for seed, jaw in itertools.product(range(10), ("Upper", "Lower")):
        full = ArchSpec.standard(jaw, "full", seed=seed, jitter_sigma=0.3)
        specs = [full] + [partial_spec(jaw, side, seed=seed, jitter_sigma=0.3)
                          for side in ("left", "right")]
        for spec in specs:
            mesh, gt = generate_arch(spec)
            for tooth in spec.teeth:
                if tooth.fdi % 10 != 6:
                    continue
                seq, i = arch_centroid_sequence(gt.labels, mesh, tooth.fdi,
                                                fdi_to_class(tooth.fdi))
                spline = fit_arch_spline(seq)
                v_m, v_b = spline_frame_at(spline, spline.x[i], tooth.fdi)
                s = _s_at_arc(spec, tooth.arc_pos)
                yield (tooth.fdi, v_m[:2], v_b[:2], _outward(spec, s),
                       _centerline_tangent(spec, s))


@pytest.fixture(scope="module")
def knot_cases():
    """(FDI, centroid sequence, preparation index) for seeds 0-4, both jaws
    and every coverage, at each of 11, 16, 21, 26, 31, 36, 41 and 46 that
    the arch holds, from its ground-truth labels."""
    cases = []
    for seed, jaw, coverage in itertools.product(range(5), ("Upper", "Lower"),
                                                 ("full", "left", "right", "center")):
        spec = (ArchSpec.standard(jaw, "full", seed=seed, jitter_sigma=0.3)
                if coverage == "full" else partial_spec(jaw, coverage, seed=seed,
                                                        jitter_sigma=0.3))
        mesh, gt = generate_arch(spec)
        for tooth in spec.teeth:
            if tooth.fdi in (11, 16, 21, 26, 31, 36, 41, 46):
                seq, i = arch_centroid_sequence(gt.labels, mesh, tooth.fdi,
                                                fdi_to_class(tooth.fdi))
                cases.append((tooth.fdi, seq, i))
    return cases


class TestSplineFrame:
    def test_straight_line_buccal_is_anterior(self):
        # a line from the patient's right (-x) to the left (+x)
        spline = fit_arch_spline(z3([[0, 0], [1, 0], [2, 0], [3, 0], [4, 0]]))
        t = closest_parameter(spline, [2.0, 1.0])
        v_m_right, v_b = spline_frame_at(spline, t, 46)
        v_m_left, _ = spline_frame_at(spline, t, 36)
        assert np.allclose(v_b, [0, 1, 0], atol=1e-12)
        assert np.allclose(v_m_right, [1, 0, 0], atol=1e-12)
        assert np.allclose(v_m_left, [-1, 0, 0], atol=1e-12)

    def test_first_molars_buccal_outward_mesial_to_midline(self):
        frames = list(first_molar_frames())
        assert len(frames) == 80
        for fdi, v_m, v_b, outward, tangent in frames:
            assert v_b @ outward > 0, fdi
            # right side (quadrants 1, 4) runs toward the midline along the tangent
            assert (v_m @ tangent > 0) == (fdi // 10 in (1, 4)), fdi

    def test_tangent_has_zero_z(self):
        xs = np.arange(-20, 21, 5, dtype=float)
        pts = np.column_stack([xs, xs**2 / 20.0, np.linspace(-3, 3, len(xs))])
        spline = fit_arch_spline(pts)
        v_m, v_b = spline_frame_at(spline, closest_parameter(spline, [5.0, 2.0]), 36)
        assert v_m[2] == 0.0
        assert v_b[2] == 0.0

    def test_mesial_points_toward_midline(self):
        # downward-opening dental arch ordered right -> left, apex at +y
        xs = np.linspace(-20, 20, 11)
        pts = z3(np.column_stack([xs, 30.0 * (1 - (xs / 20.0) ** 2)]))
        spline = fit_arch_spline(pts)
        v_m_right, _ = spline_frame_at(
            spline, closest_parameter(spline, [-15.0, 30.0 * (1 - 0.5625)]), 46)
        v_m_left, _ = spline_frame_at(
            spline, closest_parameter(spline, [15.0, 30.0 * (1 - 0.5625)]), 36)
        assert v_m_right[0] > 0  # right side: mesial goes toward +x (midline)
        assert v_m_left[0] < 0

    def test_knot_matches_nearest_point_reference(self, knot_cases):
        assert len(knot_cases) == 100
        for fdi, seq, i in knot_cases:
            spline = fit_arch_spline(seq)
            t = closest_parameter(spline, seq[i][:2])
            assert abs(spline.x[i] - t) <= 1e-9, fdi
            for got, want in zip(spline_frame_at(spline, spline.x[i], fdi),
                                 spline_frame_at(spline, t, fdi)):
                assert np.abs(got - want).max() <= 1e-12, fdi

    def test_end_of_arch_reads_end_knot_without_warning(self, knot_cases):
        # side scans start or end at their central incisor
        ends = [(fdi, seq, i) for fdi, seq, i in knot_cases if i in (0, len(seq) - 1)]
        assert len(ends) == 20
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for fdi, seq, i in ends:
                spline = fit_arch_spline(seq)
                v_m, v_b = spline_frame_at(spline, spline.x[i], fdi)
                tan = unit_tangent(spline, spline.x[-1] if i else spline.x[0])
                assert np.allclose(v_b[:2], [-tan[1], tan[0]], atol=1e-12), fdi
                mesial = tan if fdi // 10 in (1, 4) else -tan
                assert np.allclose(v_m[:2], mesial, atol=1e-12), fdi


class TestRobustTarget:
    def test_all_equal_returns_ref(self):
        out = robust_target(np.tile([0.0, 0, 1], (5, 1)), [0, 0, 1])
        assert np.allclose(out, [0, 0, 1])

    def test_tau_admits_exactly_within_53_13_degrees(self):
        # acos(0.6) = 53.1301... degrees; the gate is a strict dot threshold
        assert np.isclose(np.degrees(np.arccos(AlignmentParams().tau)), 53.13010235415598)
        ref = np.array([0.0, 0.0, 1.0])
        inside = np.array([np.sin(np.radians(53.0)), 0, np.cos(np.radians(53.0))])
        outside = np.array([np.sin(np.radians(53.2)), 0, np.cos(np.radians(53.2))])
        out = robust_target([inside, outside], ref, AlignmentParams(tau=0.6))
        # only the inside normal passes: the mean equals it
        assert np.allclose(out, inside, atol=1e-12)

    def test_perpendicular_filtered_out(self):
        ref = np.array([1.0, 0, 0])
        out = robust_target([[1, 0, 0], [0, 1, 0]], ref)
        assert np.allclose(out, [1, 0, 0])

    def test_empty_filter_falls_back_with_warning(self):
        with pytest.warns(AlignmentWarning):
            out = robust_target([[0, 1, 0]], [1, 0, 0], AlignmentParams(tau=0.6))
        assert np.allclose(out, [1, 0, 0])

    @pytest.mark.parametrize("tau", [0.0, 1.5])
    def test_tau_outside_open_unit_interval_rejected(self, tau):
        # a direct caller's tau is checked once, where the params are built
        with pytest.raises(ValueError, match="tau"):
            robust_target([[0, 0, 1]], [0, 0, 1], AlignmentParams(tau=tau))

    def test_output_dot_ref_at_least_tau(self, rng):
        ref = np.array([0.0, 0, 1.0])
        normals = rng.normal(size=(200, 3))
        normals /= np.linalg.norm(normals, axis=1, keepdims=True)
        out = robust_target(normals, ref, AlignmentParams(tau=0.6))
        if not np.allclose(out, ref):
            assert np.dot(out, ref) >= 0.6


class TestAlignCrown:
    def test_already_aligned_identity(self, posterior_crown):
        transform, _ = align_crown(posterior_crown, *aligned_targets(posterior_crown))
        assert transform.rotation_angle_deg() < 1e-9
        assert np.linalg.norm(transform.translation) < 1e-9

    def test_inverts_constructed_rotation(self, posterior_crown):
        crown = posterior_crown
        targets = aligned_targets(crown)
        rot = RigidTransform.from_axis_angle((0, 0, 1), np.radians(30.0))
        rotated = crown.transformed(rot)
        transform, _ = align_crown(rotated, *targets)
        # the composition of the applied 30-degree turn and the alignment is identity
        residual = transform.compose(rot)
        assert residual.rotation_angle_deg() < 1e-6

    def test_per_step_postconditions(self, posterior_crown, rng):
        crown = posterior_crown
        for seed in range(5):
            r = np.random.default_rng(seed)
            v_m = r.normal(size=3)
            v_m /= np.linalg.norm(v_m)
            helper = r.normal(size=3)
            v_b = np.cross(v_m, helper)
            v_b /= np.linalg.norm(v_b)
            transform, trace = align_crown(crown, v_m, v_b, r.normal(size=3) * 10, UP)
            steps = {s["name"]: s for s in trace}
            assert steps["mesial"]["achieved_dot"] >= 1.0 - 1e-9
            buccal_err_rad = np.arccos(np.clip(steps["buccal"]["achieved_dot"], -1, 1))
            assert buccal_err_rad <= 1e-6
            assert steps["occlusal"]["achieved_dot"] >= 0.999
            r_mat = transform.rotation
            assert np.isclose(np.linalg.det(r_mat), 1.0, atol=1e-9)
            assert np.abs(r_mat @ r_mat.T - np.eye(3)).max() < 1e-9

    def test_buccal_step_preserves_mesial_exactly(self, posterior_crown):
        crown = posterior_crown
        v_m = np.array([0.0, 1.0, 0.0])
        v_b = np.array([0.0, 0.0, 1.0])
        n_mesial, n_buccal, _ = region_normals(crown)
        r1 = RigidTransform.rotation_between(n_mesial, v_m)
        b_now = r1 @ n_buccal
        b_proj = b_now - (b_now @ v_m) * v_m
        t_proj = v_b - (v_b @ v_m) * v_m
        angle = np.arctan2(np.dot(np.cross(b_proj / np.linalg.norm(b_proj),
                                           t_proj / np.linalg.norm(t_proj)), v_m),
                           np.dot(b_proj / np.linalg.norm(b_proj),
                                  t_proj / np.linalg.norm(t_proj)))
        r2 = RigidTransform.from_axis_angle(v_m, angle).rotation
        m_after = r2 @ (r1 @ n_mesial)
        assert np.dot(m_after, v_m) >= 1.0 - 1e-9

    def test_translation_takes_centroid_to_prep(self, posterior_crown):
        v_m, v_b, _, occlusal = aligned_targets(posterior_crown)
        transform, _ = align_crown(posterior_crown, v_m, v_b, [5.0, -3.0, 2.0], occlusal)
        moved = posterior_crown.transformed(transform)
        assert np.allclose(moved.centroid(), [5.0, -3.0, 2.0], atol=1e-9)

    def test_antiparallel_mesial_deterministic(self, posterior_crown):
        n_mesial, n_buccal, _ = region_normals(posterior_crown)
        targets = (-n_mesial, n_buccal, [0, 0, 0], UP)
        a, steps = align_crown(posterior_crown, *targets)
        b, _ = align_crown(posterior_crown, *targets)
        assert np.array_equal(a.rotation, b.rotation)
        assert [s["name"] for s in steps] == ["translate", "mesial", "buccal", "occlusal"]
        assert steps[1]["achieved_dot"] >= 1.0 - 1e-9

    def test_buccal_parallel_to_mesial_degenerate(self, posterior_crown):
        v = region_normals(posterior_crown)[1]
        with pytest.raises(DegenerateGeometryError):
            align_crown(posterior_crown, v, v, [0, 0, 0], UP)  # mesial target = buccal normal


class TestRegionNormals:
    def test_swapping_mesial_and_buccal_labels_swaps_their_normals(self, posterior_crown):
        labels = posterior_crown.face_labels
        swapped = np.where(labels == LABEL_MESIAL, LABEL_BUCCAL,
                           np.where(labels == LABEL_BUCCAL, LABEL_MESIAL, labels))
        mesial, buccal, occlusal = region_normals(posterior_crown)
        got = region_normals(posterior_crown.with_labels(swapped))
        assert np.array_equal(got[0], buccal)
        assert np.array_equal(got[1], mesial)
        assert np.array_equal(got[2], occlusal)

    def test_empty_region_rejected_by_name(self, posterior_crown):
        labels = posterior_crown.face_labels
        no_mesial = np.where(labels == LABEL_MESIAL, 0, labels)
        with pytest.raises(ValueError, match="mesial"):
            region_normals(posterior_crown.with_labels(no_mesial))

    def test_unlabeled_mesh_rejected(self, posterior_crown):
        bare = LabeledMesh(posterior_crown.vertices, posterior_crown.faces)
        with pytest.raises(ValueError, match="region labels"):
            region_normals(bare)
