import shutil

import numpy as np
import pytest
from scipy.spatial.distance import pdist

import crownfit.registration as registration
import crownfit.templates as templates
from crownfit.classify import ScanClass
from crownfit.errors import CoarseRegistrationError, RankDeficiencyError, RoutingError
from crownfit.features import compute_fpfh
from crownfit.mesh import LabeledMesh, PointCloud, RigidTransform, voxel_downsample
from crownfit.registration import (ROUTES, RegistrationParams, RegistrationResult,
                                   coarse_register, edge_gate, fine_register,
                                   load_template_library, match_features, prepare_cloud,
                                   register_pair, register_with_routing,
                                   store_prepared_templates, template_key)
from crownfit.spatial import SpatialIndex
from crownfit.synth import ArchSpec, generate_arch, partial_spec, perturb_pose
from crownfit.templates import build_template_library, load_template, save_template_library
from helpers import at_resolution, registration_perturb, traced_peak_mb, transformed_cloud

PARAMS = RegistrationParams()


@pytest.fixture(scope="module")
def arch_cloud():
    mesh, _ = generate_arch(ArchSpec.standard("Lower", "full"))
    return mesh.to_point_cloud()


@pytest.fixture(scope="module")
def library():
    upper = [generate_arch(ArchSpec.standard("Upper", "full", seed=s,
                                             jitter_sigma=0.3))[0] for s in range(3)]
    lower = [generate_arch(ArchSpec.standard("Lower", "full", seed=s,
                                             jitter_sigma=0.3))[0] for s in range(3)]
    return build_template_library(upper, lower)


@pytest.fixture(scope="module")
def prepared(library):
    """Template key -> ``(cloud, FPFH rows)`` of ``library``, prepared once."""
    return {key: prepare_cloud(mesh.to_point_cloud(), PARAMS) for key, mesh in library.items()}


@pytest.fixture(scope="module")
def saved_library(library, tmp_path_factory):
    """Directory of ``library`` saved with its store of prepared clouds."""
    directory = tmp_path_factory.mktemp("templates")
    save_template_library(library, directory)
    store_prepared_templates(library, directory, PARAMS)
    return directory


def edited_copy(directory, tmp_path, edit):
    """Copy of a saved library whose store's arrays (name -> array) ``edit``
    rewrites in place."""
    copy = tmp_path / "templates"
    shutil.copytree(directory, copy)
    with np.load(copy / "prepared.npz") as store:
        arrays = dict(store)
    edit(arrays)
    np.savez(copy / "prepared.npz", **arrays)
    return copy


def coarse(source, target, params=PARAMS):
    src, tgt = prepare_cloud(source, params), prepare_cloud(target, params)
    return coarse_register(src, tgt, match_features(src, tgt), params)


def pose_errors(recovered: RigidTransform, ideal: RigidTransform, probe):
    rot = recovered.rotation_distance_deg(ideal)
    trans = np.linalg.norm(recovered.apply(probe) - ideal.apply(probe))
    return rot, float(trans)


def spacing(cloud: PointCloud) -> float:
    return SpatialIndex(cloud.points).median_spacing()


class CountedReads:
    """A template mapping that records the key of each template read."""

    def __init__(self, templates):
        self.templates, self.reads = templates, []

    def __getitem__(self, key):
        self.reads.append(key)
        return self.templates[key]


class TestEdgeGate:
    def test_equal_triangles_pass(self):
        edges = pdist(np.array([[0, 0, 0], [4, 0, 0], [0, 3, 0]], dtype=float))
        assert edge_gate(edges, edges.copy(), 0.95, PARAMS.voxel).tolist() == [True] * 3

    def test_single_short_edge_rejected(self):
        src = np.array([[0, 0, 0], [10.0, 0, 0], [0, 10.0, 0]])
        tgt = src.copy()
        tgt[1, 0] = 9.0  # edge 0-1 ratio 0.90 < 0.95; edge 1-2 ratio 0.951
        assert edge_gate(pdist(src), pdist(tgt), 0.95, PARAMS.voxel).tolist() == \
            [False, True, True]
        assert edge_gate(pdist(src), pdist(tgt), 0.85, PARAMS.voxel).tolist() == [True] * 3

    def test_ratio_symmetric_and_inclusive(self):
        src = np.array([10.0, 9.5, 10.0])
        tgt = np.array([9.5, 10.0, 9.4])
        assert edge_gate(src, tgt, 0.95, PARAMS.voxel).tolist() == [True, True, False]

    def test_equals_ratio_of_min_to_max(self, rng):
        # ties, zero pairs and edges at the gate's own ratio among random ones
        src = rng.uniform(0, 3, size=2000)
        tgt = rng.uniform(0, 3, size=2000)
        tgt[:300] = src[:300]
        src[300:400] = tgt[300:400] = 0.0
        tgt[400:500] = 0.0
        tgt[500:600] = src[500:600] * 0.95
        longer = np.maximum(src, tgt)
        ratio = np.minimum(src, tgt) / np.where(longer == 0, 1, longer)
        want = (ratio >= 0.95) & (src > 0.5)
        assert np.array_equal(edge_gate(src, tgt.copy(), 0.95, 0.5), want)
        assert np.array_equal(edge_gate(src, tgt.copy(), 0.95, 0.0), (ratio >= 0.95) & (src > 0))

    def test_short_source_edges_rejected(self):
        # the minimum applies to the source edge, strictly; a zero pair never passes
        src = np.array([0.0, PARAMS.voxel, PARAMS.voxel + 0.01])
        tgt = src.copy()
        assert edge_gate(src, tgt, 0.95, PARAMS.voxel).tolist() == [False, False, True]


class TestCoarse:
    def test_self_registration_near_identity(self, arch_cloud):
        result = coarse(arch_cloud, arch_cloud, PARAMS)
        assert result.fitness >= 0.99
        assert result.transform.rotation_angle_deg() < 0.1
        assert np.linalg.norm(result.transform.translation) < 1e-3

    def test_recovers_known_transform(self, arch_cloud):
        applied = RigidTransform.from_axis_angle((0, 0, 1), np.pi / 2, (10.0, 0, 0))
        moved = transformed_cloud(arch_cloud, applied)
        result = coarse(moved, arch_cloud, PARAMS)
        rot, trans = pose_errors(result.transform, applied.inverse(),
                                 moved.points.mean(axis=0))
        assert rot < 2.0
        assert trans < 1.0

    def test_recovers_pose_with_half_the_matches_redirected(self, arch_cloud):
        rng = np.random.default_rng(17)
        applied = RigidTransform.from_axis_angle((0.3, -0.2, 1.0), 2.0, (-6.0, 4.0, 2.0))
        moved = transformed_cloud(arch_cloud, applied)
        src, tgt = prepare_cloud(moved, PARAMS), prepare_cloud(arch_cloud, PARAMS)
        corr, pool = match_features(src, tgt)
        corr = corr.copy()
        redirected = pool[rng.choice(len(pool), size=len(pool) // 2, replace=False)]
        corr[redirected] = rng.integers(0, len(tgt[0]), size=len(redirected))
        result = coarse_register(src, tgt, (corr, pool), PARAMS)
        rot, trans = pose_errors(result.transform, applied.inverse(),
                                 moved.points.mean(axis=0))
        assert rot < 2.0
        assert trans < 1.0
        assert result.iterations >= 1

    def test_too_few_points_rejected(self):
        tiny = PointCloud([[0, 0, 0]], normals=[[0, 0, 1]])
        with pytest.raises(CoarseRegistrationError):
            coarse(tiny, tiny, PARAMS)

    def test_too_few_reciprocal_matches_rejected(self, arch_cloud):
        # identical rows: every match goes to row 0 and only 0 -> 0 is reciprocal
        cloud = voxel_downsample(arch_cloud, PARAMS.voxel)
        flat = (cloud, np.ones((len(cloud), 33)))
        with pytest.raises(CoarseRegistrationError, match="reciprocal"):
            match_features(flat, flat)
        with pytest.raises(CoarseRegistrationError, match="reciprocal"):
            register_pair(flat, flat, PARAMS)

    def test_no_compatible_pairs_rejected(self, arch_cloud):
        # every edge doubles in length: no pair passes the gate
        src = cloud, fpfh = prepare_cloud(arch_cloud, PARAMS)
        doubled = (PointCloud(2.0 * cloud.points, cloud.normals), fpfh)
        pool = np.arange(200)
        with pytest.raises(CoarseRegistrationError, match="compatible"):
            coarse_register(src, doubled, (np.arange(len(cloud)), pool), PARAMS)

    def test_two_calls_bitwise_equal(self, arch_cloud):
        applied = RigidTransform.from_axis_angle((0, 0, 1), 1.0, (5.0, -3.0, 1.0))
        moved = transformed_cloud(arch_cloud, applied)
        a = coarse(moved, arch_cloud, PARAMS)
        b = coarse(moved, arch_cloud, PARAMS)
        assert a.transform.matrix().tobytes() == b.transform.matrix().tobytes()
        assert (a.fitness, a.inlier_rmse, a.iterations) == (b.fitness, b.inlier_rmse,
                                                            b.iterations)


class TestFine:
    def test_fixed_point_returns_init(self, arch_cloud):
        src = voxel_downsample(arch_cloud, PARAMS.voxel)
        result = fine_register(src, src, RigidTransform(), PARAMS)
        assert result.transform.rotation_angle_deg() < 1e-6
        assert np.linalg.norm(result.transform.translation) < 1e-6
        assert result.iterations == 1

    def test_converges_from_small_offset(self, arch_cloud):
        tgt = voxel_downsample(arch_cloud, PARAMS.voxel)
        applied = RigidTransform.from_axis_angle((0.2, 0.3, 1.0), np.radians(5.0),
                                                 (1.2, -1.0, 0.8))
        src = transformed_cloud(tgt, applied)
        result = fine_register(src, tgt, RigidTransform(), PARAMS)
        rot, trans = pose_errors(result.transform, applied.inverse(),
                                 src.points.mean(axis=0))
        assert rot < 0.2
        assert trans < 0.1

    def test_outliers_downweighted(self, arch_cloud):
        rng = np.random.default_rng(3)
        tgt = voxel_downsample(arch_cloud, PARAMS.voxel)
        applied = RigidTransform.from_axis_angle((0, 0, 1), np.radians(4.0), (1.0, 0.5, -0.5))
        src = transformed_cloud(tgt, applied)
        clean = fine_register(src, tgt, RigidTransform(), PARAMS)

        pts = src.points.copy()
        nrm = src.normals.copy()
        n_out = int(0.2 * len(pts))
        pick = rng.choice(len(pts), size=n_out, replace=False)
        pts[pick] += rng.uniform(20, 60, size=(n_out, 3))  # residuals >> 10 k
        contaminated = fine_register(PointCloud(pts, nrm), tgt,
                                     RigidTransform(), PARAMS)
        rot = contaminated.transform.rotation_distance_deg(clean.transform)
        probe = src.points.mean(axis=0)
        trans = np.linalg.norm(contaminated.transform.apply(probe)
                               - clean.transform.apply(probe))
        assert rot < 0.5
        assert trans < 0.3

    def test_objective_trace_monotone(self, arch_cloud):
        tgt = voxel_downsample(arch_cloud, PARAMS.voxel)
        applied = RigidTransform.from_axis_angle((0.1, 0.2, 0.9), np.radians(5.0),
                                                 (1.5, 1.0, -0.5))
        src = transformed_cloud(tgt, applied)
        trace = fine_register(src, tgt, RigidTransform(), PARAMS).objective_trace
        assert len(trace) >= 2
        assert all(b <= a + 1e-15 for a, b in zip(trace, trace[1:]))

    def test_line_search_warm_starts_and_ends_at_tolerance(self, arch_cloud, monkeypatch):
        # the candidates of one search are start, start/2, ... times its
        # Gauss-Newton step, none shorter than icp_tolerance; start is 1 at
        # first and min(1, 2 s) after a search accepted the fraction s
        tgt = voxel_downsample(arch_cloud, PARAMS.voxel)
        other, _ = generate_arch(ArchSpec.standard("Lower", "full", seed=3, jitter_sigma=0.3))
        applied = RigidTransform.from_axis_angle((0.1, 0.2, 0.9), np.radians(5.0),
                                                 (1.5, 1.0, -0.5))
        src = transformed_cloud(voxel_downsample(other.to_point_cloud(), PARAMS.voxel), applied)
        searches, tried = [], []  # (Gauss-Newton step, first candidate), (base, xi, moved)
        solve, apply = registration._gauss_newton_step, registration._apply_increment

        def recording_solve(*args):
            xi = solve(*args)
            searches.append((xi, len(tried)))
            return xi

        def recording_apply(transform, xi):
            moved = apply(transform, xi)
            tried.append((transform, xi, moved))
            return moved

        monkeypatch.setattr(registration, "_gauss_newton_step", recording_solve)
        monkeypatch.setattr(registration, "_apply_increment", recording_apply)
        result = fine_register(src, tgt, RigidTransform(), PARAMS)

        kept = {id(base) for base, _, _ in tried} | {id(result.transform)}
        start, starts = 1.0, []
        bounds = [first for _, first in searches] + [len(tried)]
        for (xi, first), end in zip(searches, bounds[1:]):
            norm = np.linalg.norm(xi)
            fractions = [np.linalg.norm(step) / norm for _, step, _ in tried[first:end]]
            expected = [start / 2**m for m in range(len(fractions))]
            assert fractions == expected
            assert all(f * norm >= PARAMS.icp_tolerance for f in fractions)
            starts.append(start)
            if fractions and id(tried[end - 1][2]) in kept:
                start = min(1.0, 2.0 * fractions[-1])
            else:  # rejected down to the tolerance
                assert start / 2**len(fractions) * norm < PARAMS.icp_tolerance
        assert len(result.objective_trace) >= 3 and min(starts) < 1.0
        assert result.evaluations == 1 + len(tried)

    def test_plane_raises_rank_deficiency(self):
        xs, ys = np.meshgrid(np.linspace(0, 10, 15), np.linspace(0, 10, 15))
        pts = np.column_stack([xs.ravel(), ys.ravel(), np.zeros(xs.size)])
        normals = np.tile([0.0, 0.0, 1.0], (len(pts), 1))
        plane = PointCloud(pts, normals)
        shifted = PointCloud(pts + [0.0, 0.0, 0.3], normals)
        with pytest.raises(RankDeficiencyError):
            fine_register(shifted, plane, RigidTransform(), PARAMS)

    def test_missing_target_normals_rejected(self, arch_cloud):
        bare = PointCloud(arch_cloud.points)
        with pytest.raises(ValueError, match="normals"):
            fine_register(arch_cloud, bare, RigidTransform(), PARAMS)

    def test_equivariance_under_source_pre_rotation(self, arch_cloud):
        tgt = voxel_downsample(arch_cloud, PARAMS.voxel)
        applied = RigidTransform.from_axis_angle((0, 0, 1), np.radians(3.0), (0.5, 0.4, 0.1))
        src = transformed_cloud(tgt, applied)
        base = fine_register(src, tgt, RigidTransform(), PARAMS)
        q = RigidTransform.from_axis_angle((0, 1, 0), np.radians(2.0), (0.7, 0, 0))
        pre = transformed_cloud(src, q)
        composed = fine_register(pre, tgt, base.transform.compose(q.inverse()), PARAMS)
        want = base.transform.compose(q.inverse())
        rot = composed.transform.rotation_distance_deg(want)
        probe = pre.points.mean(axis=0)
        trans = np.linalg.norm(composed.transform.apply(probe) - want.apply(probe))
        assert rot < 0.2
        assert trans < 0.1


class TestRouting:
    def test_lower_left_partial_chooses_lower_template(self, prepared):
        mesh, _ = generate_arch(partial_spec("Lower", "left", seed=9, jitter_sigma=0.3))
        moved, _ = perturb_pose(mesh, registration_perturb(seed=4))
        result = register_with_routing(moved, ScanClass.PARTIAL_LEFT, prepared, PARAMS)
        assert result.chosen_template == "partial_lower_left"
        # fitness and objective margins over the competing upper template
        upper = register_pair(
            prepare_cloud(moved.to_point_cloud(), PARAMS),
            prepared["partial_upper_left"],
            PARAMS)
        assert result.fitness - upper.fitness > 0.05
        assert result.objective_trace[-1] < upper.objective_trace[-1]

    def test_lower_objective_beats_higher_fitness(self, prepared):
        # the wrong (Upper) template overlaps more of this lower center scan,
        # at fitness 0.537 against 0.510, but its final ICP objective is
        # higher: 0.0320 against 0.0259
        mesh, _ = generate_arch(partial_spec("Lower", "center", seed=85, jitter_sigma=0.3))
        moved, pose = perturb_pose(mesh, registration_perturb(seed=85))
        result = register_with_routing(moved, ScanClass.PARTIAL_CENTER, prepared, PARAMS)
        assert result.chosen_template == "partial_lower_center"
        rot, trans = pose_errors(result.transform, pose.transform.inverse(),
                                 moved.vertices.mean(axis=0))
        assert rot < 2.0
        assert trans < 0.5

    def test_full_scan_single_attempt(self, prepared, monkeypatch):
        calls = []
        original = registration.register_pair

        def counting(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(registration, "register_pair", counting)
        mesh, _ = generate_arch(ArchSpec.standard("Upper", "full", seed=5, jitter_sigma=0.3))
        result = register_with_routing(mesh, ScanClass.FULL_UPPER, prepared, PARAMS)
        assert len(calls) == 1
        assert result.chosen_template == "master_upper"

    def test_partial_scan_two_attempts(self, prepared, monkeypatch):
        calls = []
        original = registration.register_pair

        def counting(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(registration, "register_pair", counting)
        mesh, _ = generate_arch(partial_spec("Upper", "right", seed=6, jitter_sigma=0.3))
        register_with_routing(mesh, ScanClass.PARTIAL_RIGHT, prepared, PARAMS)
        assert len(calls) == 2

    def test_identical_templates_tie_break_upper(self, prepared, monkeypatch):
        mesh, _ = generate_arch(partial_spec("Lower", "center", seed=2, jitter_sigma=0.3))

        fixed = RegistrationResult(RigidTransform(), 0.5, 0.1, objective_trace=(0.03,))
        monkeypatch.setattr(registration, "register_pair",
                            lambda *args, **kwargs: fixed)
        result = register_with_routing(mesh, ScanClass.PARTIAL_CENTER, prepared, PARAMS)
        assert result.chosen_template == "partial_upper_center"

    def test_scan_too_small_keeps_error_type(self, prepared):
        # three vertices inside one voxel downsample to a single point; the
        # scan is prepared before routing, so every class raises the same
        tiny = LabeledMesh([[0, 0, 0], [0.1, 0, 0], [0, 0.1, 0]], [[0, 1, 2]])
        for scan_class in ScanClass:
            with pytest.raises(CoarseRegistrationError, match="after downsampling"):
                register_with_routing(tiny, scan_class, prepared, PARAMS)

    def test_both_partials_failing_raise_routing_error(self, prepared, monkeypatch):
        def no_match(source, target, params):
            raise CoarseRegistrationError("no match")

        monkeypatch.setattr(registration, "prepare_cloud", lambda cloud, params, spacing: None)
        monkeypatch.setattr(registration, "register_pair", no_match)
        tiny = LabeledMesh([[0, 0, 0], [0.1, 0, 0], [0, 0.1, 0]], [[0, 1, 2]])
        with pytest.raises(RoutingError,
                           match="partial_upper_left: no match; partial_lower_left: no match"):
            register_with_routing(tiny, ScanClass.PARTIAL_LEFT, prepared, PARAMS)

    def test_full_scan_failing_raises_routing_error(self, prepared, monkeypatch):
        # a full class routes through the same loop as a partial one
        def no_match(source, target, params):
            raise CoarseRegistrationError("no match")

        monkeypatch.setattr(registration, "prepare_cloud", lambda cloud, params, spacing: None)
        monkeypatch.setattr(registration, "register_pair", no_match)
        tiny = LabeledMesh([[0, 0, 0], [0.1, 0, 0], [0, 0.1, 0]], [[0, 1, 2]])
        with pytest.raises(RoutingError, match="master_lower: no match$"):
            register_with_routing(tiny, ScanClass.FULL_LOWER, prepared, PARAMS)

    def test_template_key_format(self):
        assert template_key("Upper", None) == "master_upper"
        assert template_key("Lower", "Left") == "partial_lower_left"


class TestThinning:
    """``prepare_cloud`` thins a cloud denser than the spacing it is given
    (a scan finer than its templates) and leaves a sparser one as it is."""

    @pytest.fixture(scope="class")
    def master_spacing(self, prepared):
        return spacing(prepared["master_lower"][0])

    @pytest.fixture(scope="class", params=[2, 4])
    def dense_cloud(self, request):
        spec = ArchSpec.standard("Lower", "full", seed=4, jitter_sigma=0.3)
        return generate_arch(at_resolution(spec, request.param))[0].to_point_cloud()

    def test_cloud_no_denser_than_template_is_the_voxel_cloud(self, arch_cloud,
                                                              master_spacing):
        down = voxel_downsample(arch_cloud, PARAMS.voxel)
        fpfh = compute_fpfh(down, PARAMS.fpfh_radius)
        assert spacing(down) >= master_spacing
        for target in (master_spacing, spacing(down)):  # the bound is inclusive
            cloud, rows = prepare_cloud(arch_cloud, PARAMS, target)
            assert cloud.points.tobytes() == down.points.tobytes()
            assert cloud.normals.tobytes() == down.normals.tobytes()
            assert rows.tobytes() == fpfh.tobytes()

    def test_dense_cloud_reaches_template_spacing(self, dense_cloud, master_spacing):
        plain = voxel_downsample(dense_cloud, PARAMS.voxel)
        assert spacing(plain) < master_spacing
        cloud, rows = prepare_cloud(dense_cloud, PARAMS, master_spacing)
        assert spacing(cloud) >= master_spacing
        assert len(cloud) < len(plain)
        assert rows.tobytes() == compute_fpfh(cloud, PARAMS.fpfh_radius).tobytes()

    def test_two_calls_bitwise_equal(self, dense_cloud, master_spacing):
        (a, a_rows), (b, b_rows) = (prepare_cloud(dense_cloud, PARAMS, master_spacing)
                                    for _ in range(2))
        assert a.points.tobytes() == b.points.tobytes()
        assert a.normals.tobytes() == b.normals.tobytes()
        assert a_rows.tobytes() == b_rows.tobytes()

    def test_coincident_points_raise(self):
        cloud = PointCloud(np.full((50, 3), 2.0), np.tile([0.0, 0.0, 1.0], (50, 1)))
        with pytest.raises(CoarseRegistrationError, match="after downsampling"):
            prepare_cloud(cloud, PARAMS, 0.7)

    def test_fewer_than_3_points_raise(self):
        pair = PointCloud([[0.0, 0.0, 0.0], [5.0, 0.0, 0.0]], [[0.0, 0.0, 1.0]] * 2)
        with pytest.raises(CoarseRegistrationError, match="after downsampling"):
            prepare_cloud(pair, PARAMS, 0.7)

    def test_line_thins_to_the_spacing(self):
        x = np.linspace(0.05, 30.05, 601)  # 0.05 mm apart: 0.8 mm centroids
        line = PointCloud(np.column_stack([x, np.zeros_like(x), np.zeros_like(x)]),
                          np.tile([0.0, 0.0, 1.0], (len(x), 1)))
        assert spacing(voxel_downsample(line, PARAMS.voxel)) < 2.0
        cloud, _ = prepare_cloud(line, PARAMS, 2.0)
        assert spacing(cloud) >= 2.0

    def test_spacing_out_of_reach_raises(self, rng):
        normals = np.tile([0.0, 0.0, 1.0], (500, 1))
        # a cloud across the origin keeps a centroid per octant however large
        # the voxel, and those stay about 3 mm apart
        across = PointCloud(rng.uniform(-3, 3, size=(500, 3)), normals)
        with pytest.raises(CoarseRegistrationError, match="FPFH radius"):
            prepare_cloud(across, PARAMS, 50.0)
        # one inside a 1 mm cube collapses to a point first
        within = PointCloud(rng.uniform(0.01, 1, size=(500, 3)), normals)
        with pytest.raises(CoarseRegistrationError, match="after downsampling"):
            prepare_cloud(within, PARAMS, 3.0)


@pytest.mark.slow
@pytest.mark.parametrize("factor", [2, 4])
@pytest.mark.parametrize("jaw", ["Lower", "Upper"])
def test_scanner_resolution_routes_to_master(prepared, jaw, factor):
    """Full arches at 2x and 4x (seeds 0-2, fixed in advance) register to
    their jaw's master within 2 deg / 0.5 mm at round-trip poses."""
    scan_class = ScanClass.FULL_UPPER if jaw == "Upper" else ScanClass.FULL_LOWER
    for seed in range(3):
        spec = at_resolution(ArchSpec.standard(jaw, "full", seed=seed, jitter_sigma=0.3), factor)
        moved, pose = perturb_pose(generate_arch(spec)[0], registration_perturb(seed=seed))
        result = register_with_routing(moved, scan_class, prepared, PARAMS)
        rot, trans = pose_errors(result.transform, pose.transform.inverse(),
                                 moved.vertices.mean(axis=0))
        assert result.chosen_template == template_key(jaw, None)
        assert rot < 2.0 and trans < 0.5, (seed, rot, trans)


class TestFeatureCorrespondences:
    def test_integer_features_match_brute_force_first_on_ties(self, rng):
        # small integers make every distance exact, so ties are real ties
        src = rng.integers(0, 3, size=(1100, 33)).astype(float)  # nine buffer fills
        tgt = rng.integers(0, 3, size=(300, 33)).astype(float)
        tgt[150:] = tgt[:150]
        src[::4] = tgt[rng.integers(0, 300, size=len(src[::4]))]
        d2 = ((src[:, None, :] - tgt[None, :, :]) ** 2).sum(axis=2)
        got = registration._feature_correspondences(src, tgt)
        assert np.array_equal(got, np.argmin(d2, axis=1))
        assert np.all(got < 150)  # every row ties with its twin and takes the first

    @pytest.mark.parametrize("extra", [-1, 0, 1, 2 * registration._MATCH_BLOCK + 1])
    def test_rows_across_the_buffer_boundary(self, rng, extra):
        # the last fill of the buffer holds from 1 row to all of it
        rows = registration._MATCH_BLOCK + extra
        src = rng.integers(0, 3, size=(rows, 33)).astype(float)
        tgt = rng.integers(0, 3, size=(90, 33)).astype(float)
        tgt[45:] = tgt[:45]
        src[::2] = tgt[rng.integers(0, 90, size=len(src[::2]))]
        d2 = ((src[:, None, :] - tgt[None, :, :]) ** 2).sum(axis=2)
        assert np.array_equal(registration._feature_correspondences(src, tgt),
                              np.argmin(d2, axis=1))

    def test_memory_bounded_on_2x_arch(self, arch_2x_cloud):
        # a 2x scan's 5k FPFH rows against a template's 3k, both ways,
        # through one buffer of _MATCH_BLOCK rows of distances
        scan = (arch_2x_cloud, compute_fpfh(arch_2x_cloud, PARAMS.fpfh_radius))
        mesh, _ = generate_arch(ArchSpec.standard("Lower", "full", seed=5, jitter_sigma=0.3))
        template = prepare_cloud(mesh.to_point_cloud(), PARAMS)
        peak = traced_peak_mb(lambda: match_features(scan, template))
        assert peak < 12.0, f"{peak:.1f} MB"

    def test_reverse_search_of_matched_rows_gives_the_all_rows_pool(self, rng):
        src = rng.integers(0, 3, size=(700, 33)).astype(float)
        tgt = rng.integers(0, 3, size=(600, 33)).astype(float)
        tgt[300:] = tgt[:300]  # tied target rows
        src[::3] = tgt[rng.integers(0, 600, size=len(src[::3]))]
        src[1::3] = src[::3][:len(src[1::3])]  # tied source rows

        def prepared(feat):
            return PointCloud(np.zeros((len(feat), 3))), feat

        corr, pool = match_features(prepared(src), prepared(tgt))
        back = registration._feature_correspondences(tgt, src)
        assert np.array_equal(corr, registration._feature_correspondences(src, tgt))
        assert np.array_equal(pool, np.nonzero(back[corr] == np.arange(len(src)))[0])
        assert len(np.unique(corr)) < len(tgt) and 3 <= len(pool) < len(src)

    def test_bitwise_equal_to_unfused_distances(self, rng):
        src = rng.random((1100, 33)) * 100
        tgt = rng.random((700, 33)) * 100
        t2 = np.einsum("ij,ij->i", tgt, tgt)
        want = np.concatenate([np.argmin(t2 - 2.0 * (src[i:i + 512] @ tgt.T), axis=1)
                               for i in range(0, len(src), 512)])
        assert np.array_equal(registration._feature_correspondences(src, tgt), want)


class TestTemplateStore:
    def test_store_equals_prepare_cloud_on_reloaded_library(self, saved_library, library):
        loaded = load_template_library(saved_library, PARAMS)
        with np.load(saved_library / "prepared.npz") as store:
            assert (store["voxel"], store["fpfh_radius"]) == (PARAMS.voxel, PARAMS.fpfh_radius)
        for key in library:
            fresh_cloud, fresh_fpfh = prepare_cloud(
                load_template(saved_library, key).to_point_cloud(), PARAMS)
            cloud, fpfh = loaded[key]
            assert cloud.points.tobytes() == fresh_cloud.points.tobytes()
            assert cloud.normals.tobytes() == fresh_cloud.normals.tobytes()
            assert fpfh.tobytes() == fresh_fpfh.tobytes()

    @pytest.mark.parametrize("jaw, side, scan_class", [
        ("Upper", "full", ScanClass.FULL_UPPER), ("Lower", "left", ScanClass.PARTIAL_LEFT)])
    def test_routing_identical_with_and_without_store(self, saved_library, tmp_path, jaw, side,
                                                      scan_class):
        bare = tmp_path / "templates"
        shutil.copytree(saved_library, bare)
        (bare / "prepared.npz").unlink()
        spec = (ArchSpec.standard(jaw, "full", seed=5, jitter_sigma=0.3) if side == "full"
                else partial_spec(jaw, side, seed=5, jitter_sigma=0.3))
        mesh, _ = generate_arch(spec)
        a = register_with_routing(mesh, scan_class, load_template_library(saved_library, PARAMS),
                                  PARAMS)
        b = register_with_routing(mesh, scan_class, load_template_library(bare, PARAMS), PARAMS)
        assert a.transform.matrix().tobytes() == b.transform.matrix().tobytes()
        assert (a.fitness, a.inlier_rmse, a.chosen_template) == \
            (b.fitness, b.inlier_rmse, b.chosen_template)


class TestDerivedOnce:
    """Downsampling and FPFH run once per cloud, however many templates the
    cloud meets, apart from a full scan's thinning passes; each candidate
    template is read once; the coarse stage runs once per template; a saved
    template's PLY is read only when registration prepares that template
    itself."""

    @pytest.fixture
    def counts(self, monkeypatch):
        modules = {"compute_fpfh": registration, "voxel_downsample": registration,
                   "coarse_register": registration, "load_mesh": templates}
        counts = dict.fromkeys(modules, 0)
        for name, module in modules.items():
            original = getattr(module, name)

            def counting(*args, _name=name, _original=original, **kwargs):
                counts[_name] += 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(module, name, counting)
        return counts

    @pytest.fixture
    def passes(self, counts, monkeypatch):
        """``(points in, voxel)`` of each downsampling registration runs."""
        passes = []
        downsample = registration.voxel_downsample

        def recording(cloud, voxel):
            passes.append((len(cloud), voxel))
            return downsample(cloud, voxel)

        monkeypatch.setattr(registration, "voxel_downsample", recording)
        return passes

    @staticmethod
    def scan_passes(passes, scan):
        """The passes over ``scan``: the voxel, then distinct larger thinning
        voxels."""
        ours = [voxel for n, voxel in passes if n == scan.n_vertices]
        assert ours[0] == PARAMS.voxel and min(ours[1:], default=np.inf) > PARAMS.voxel
        assert len(set(ours)) == len(ours)
        return ours

    def register(self, mesh, scan_class, library):
        reads = CountedReads(library)
        register_with_routing(mesh, scan_class, reads, PARAMS)
        assert reads.reads == list(ROUTES[scan_class])

    def test_full_scan_one_coarse_pass(self, prepared, counts, passes):
        mesh, _ = generate_arch(ArchSpec.standard("Upper", "full", seed=5, jitter_sigma=0.3))
        self.register(mesh, ScanClass.FULL_UPPER, prepared)
        assert counts == {"compute_fpfh": 1, "voxel_downsample": len(passes),
                          "coarse_register": 1, "load_mesh": 0}
        assert len(self.scan_passes(passes, mesh)) == len(passes)

    def test_partial_scan_shares_source(self, prepared, counts):
        mesh, _ = generate_arch(partial_spec("Upper", "right", seed=6, jitter_sigma=0.3))
        self.register(mesh, ScanClass.PARTIAL_RIGHT, prepared)
        assert counts == {"compute_fpfh": 1, "voxel_downsample": 1, "coarse_register": 2,
                          "load_mesh": 0}

    def test_dense_partial_scan_keeps_its_voxel_cloud(self, prepared, counts, passes):
        spec = at_resolution(partial_spec("Upper", "right", seed=6, jitter_sigma=0.3), 2)
        mesh, _ = generate_arch(spec)
        self.register(mesh, ScanClass.PARTIAL_RIGHT, prepared)
        assert passes == [(mesh.n_vertices, PARAMS.voxel)]
        assert counts["compute_fpfh"] == 1

    def test_stored_templates_full_scan_prepares_only_the_scan(self, saved_library, counts,
                                                               passes):
        mesh, _ = generate_arch(ArchSpec.standard("Upper", "full", seed=5, jitter_sigma=0.3))
        self.register(mesh, ScanClass.FULL_UPPER, load_template_library(saved_library, PARAMS))
        assert counts == {"compute_fpfh": 1, "voxel_downsample": len(passes),
                          "coarse_register": 1, "load_mesh": 0}
        assert len(self.scan_passes(passes, mesh)) == len(passes)

    def test_stored_templates_partial_scan_prepares_only_the_scan(self, saved_library,
                                                                  counts):
        mesh, _ = generate_arch(partial_spec("Upper", "right", seed=6, jitter_sigma=0.3))
        self.register(mesh, ScanClass.PARTIAL_RIGHT,
                      load_template_library(saved_library, PARAMS))
        assert counts == {"compute_fpfh": 1, "voxel_downsample": 1, "coarse_register": 2,
                          "load_mesh": 0}

    def recomputes_one_template(self, directory, meshes, counts, passes):
        """The saved library in ``directory`` prepares ``master_upper`` from
        its PLY: one PLY read, one downsampling and one FPFH, before the
        scan's."""
        mesh, _ = generate_arch(ArchSpec.standard("Upper", "full", seed=5, jitter_sigma=0.3))
        self.register(mesh, ScanClass.FULL_UPPER, load_template_library(directory, PARAMS))
        assert (counts["compute_fpfh"], counts["load_mesh"]) == (2, 1)
        assert passes[0] == (meshes["master_upper"].n_vertices, PARAMS.voxel)
        assert counts["voxel_downsample"] == len(passes) == 1 + len(self.scan_passes(passes, mesh))

    def test_store_of_other_voxel_recomputes(self, saved_library, library, tmp_path, counts,
                                             passes):
        def other_voxel(arrays):
            arrays["voxel"] = PARAMS.voxel + 0.1

        self.recomputes_one_template(edited_copy(saved_library, tmp_path, other_voxel), library,
                                     counts, passes)

    def test_library_without_store_recomputes(self, saved_library, library, tmp_path, counts,
                                              passes):
        copy = tmp_path / "templates"
        shutil.copytree(saved_library, copy)
        (copy / "prepared.npz").unlink()
        self.recomputes_one_template(copy, library, counts, passes)

    def test_store_without_key_is_not_used(self, saved_library, tmp_path, counts):
        # a store written before it carried its key holds only the clouds;
        # registration prepares the template it meets from its PLY instead
        def drop_key(arrays):
            del arrays["voxel"], arrays["fpfh_radius"]

        mesh, _ = generate_arch(ArchSpec.standard("Upper", "full", seed=5, jitter_sigma=0.3))
        keyed = register_with_routing(mesh, ScanClass.FULL_UPPER,
                                      load_template_library(saved_library, PARAMS), PARAMS)
        assert counts["load_mesh"] == 0
        unkeyed = register_with_routing(
            mesh, ScanClass.FULL_UPPER,
            load_template_library(edited_copy(saved_library, tmp_path, drop_key), PARAMS),
            PARAMS)
        assert counts["load_mesh"] == 1
        assert unkeyed.transform.matrix().tobytes() == keyed.transform.matrix().tobytes()
        assert unkeyed.chosen_template == keyed.chosen_template


def test_params_validation():
    with pytest.raises(ValueError):
        RegistrationParams(voxel=0.0)
    with pytest.raises(ValueError):
        RegistrationParams(edge_similarity=1.5)
    with pytest.raises(ValueError):
        RegistrationParams(tukey_k=0.0)
