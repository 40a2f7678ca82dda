import numpy as np
import pytest

import crownfit.registration as registration
from crownfit.classify import ScanClass
from crownfit.errors import CoarseRegistrationError, RankDeficiencyError, RoutingError
from crownfit.mesh import LabeledMesh, PointCloud, RigidTransform, voxel_downsample
from crownfit.registration import (RegistrationParams, RegistrationResult, coarse_register,
                                   edge_gate, fine_register, match_features, prepare_cloud,
                                   register_pair, register_with_routing, template_key)
from crownfit.synth import (ArchSpec, PerturbSpec, generate_arch, partial_spec,
                            perturb_pose)
from crownfit.templates import build_template_library

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


def coarse(source, target, params=PARAMS, seed=None):
    src, tgt = prepare_cloud(source, params), prepare_cloud(target, params)
    return coarse_register(src, tgt, match_features(src, tgt), params, seed=seed)


def pose_errors(recovered: RigidTransform, ideal: RigidTransform, probe):
    rot = recovered.rotation_distance_deg(ideal)
    trans = np.linalg.norm(recovered.apply(probe) - ideal.apply(probe))
    return rot, float(trans)


class TestEdgeGate:
    def test_equal_triangles_pass(self):
        tri = np.array([[0, 0, 0], [4, 0, 0], [0, 3, 0]], dtype=float)
        assert edge_gate(tri[None], tri.copy()[None], 0.95, PARAMS.voxel).tolist() == [True]

    def test_single_short_edge_rejected(self):
        src = np.array([[0, 0, 0], [10.0, 0, 0], [0, 10.0, 0]])
        tgt = src.copy()
        tgt[1, 0] = 9.0  # one edge ratio 0.90 < 0.95
        assert edge_gate(src[None], tgt[None], 0.95, PARAMS.voxel).tolist() == [False]
        assert edge_gate(src[None], tgt[None], 0.85, PARAMS.voxel).tolist() == [True]


class TestCoarse:
    def test_self_registration_near_identity(self, arch_cloud):
        result = coarse(arch_cloud, arch_cloud, PARAMS, seed=1)
        assert result.fitness >= 0.99
        assert result.transform.rotation_angle_deg() < 0.1
        assert np.linalg.norm(result.transform.translation) < 1e-3

    def test_recovers_known_transform(self, arch_cloud):
        applied = RigidTransform.from_axis_angle((0, 0, 1), np.pi / 2, (10.0, 0, 0))
        moved = arch_cloud.transformed(applied)
        result = coarse(moved, arch_cloud, PARAMS, seed=2)
        rot, trans = pose_errors(result.transform, applied.inverse(),
                                 moved.points.mean(axis=0))
        assert rot < 2.0
        assert trans < 1.0

    def test_too_few_points_rejected(self):
        tiny = PointCloud([[0, 0, 0]], normals=[[0, 0, 1]])
        with pytest.raises(CoarseRegistrationError):
            coarse(tiny, tiny, PARAMS)

    def test_deterministic_for_fixed_seed(self, arch_cloud):
        applied = RigidTransform.from_axis_angle((0, 0, 1), 1.0, (5.0, -3.0, 1.0))
        moved = arch_cloud.transformed(applied)
        a = coarse(moved, arch_cloud, PARAMS, seed=7)
        b = coarse(moved, arch_cloud, PARAMS, seed=7)
        assert np.array_equal(a.transform.rotation, b.transform.rotation)
        assert np.array_equal(a.transform.translation, b.transform.translation)
        assert a.fitness == b.fitness


class TestFine:
    def test_fixed_point_returns_init(self, arch_cloud):
        src = voxel_downsample(arch_cloud, PARAMS.voxel)
        result = fine_register(src, src, RigidTransform.identity(), PARAMS)
        assert result.transform.rotation_angle_deg() < 1e-6
        assert np.linalg.norm(result.transform.translation) < 1e-6
        assert result.iterations == 1

    def test_converges_from_small_offset(self, arch_cloud):
        tgt = voxel_downsample(arch_cloud, PARAMS.voxel)
        applied = RigidTransform.from_axis_angle((0.2, 0.3, 1.0), np.radians(5.0),
                                                 (1.2, -1.0, 0.8))
        src = tgt.transformed(applied)
        result = fine_register(src, tgt, RigidTransform.identity(), PARAMS)
        rot, trans = pose_errors(result.transform, applied.inverse(),
                                 src.points.mean(axis=0))
        assert rot < 0.2
        assert trans < 0.1

    def test_outliers_downweighted(self, arch_cloud):
        rng = np.random.default_rng(3)
        tgt = voxel_downsample(arch_cloud, PARAMS.voxel)
        applied = RigidTransform.from_axis_angle((0, 0, 1), np.radians(4.0), (1.0, 0.5, -0.5))
        src = tgt.transformed(applied)
        clean = fine_register(src, tgt, RigidTransform.identity(), PARAMS)

        pts = src.points.copy()
        nrm = src.normals.copy()
        n_out = int(0.2 * len(pts))
        pick = rng.choice(len(pts), size=n_out, replace=False)
        pts[pick] += rng.uniform(20, 60, size=(n_out, 3))  # residuals >> 10 k
        contaminated = fine_register(PointCloud(pts, nrm), tgt,
                                     RigidTransform.identity(), PARAMS)
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
        src = tgt.transformed(applied)
        trace = []
        fine_register(src, tgt, RigidTransform.identity(), PARAMS, trace=trace)
        assert len(trace) >= 2
        assert all(b <= a + 1e-15 for a, b in zip(trace, trace[1:]))

    def test_plane_raises_rank_deficiency(self):
        xs, ys = np.meshgrid(np.linspace(0, 10, 15), np.linspace(0, 10, 15))
        pts = np.column_stack([xs.ravel(), ys.ravel(), np.zeros(xs.size)])
        normals = np.tile([0.0, 0.0, 1.0], (len(pts), 1))
        plane = PointCloud(pts, normals)
        shifted = PointCloud(pts + [0.0, 0.0, 0.3], normals)
        with pytest.raises(RankDeficiencyError):
            fine_register(shifted, plane, RigidTransform.identity(), PARAMS)

    def test_missing_target_normals_rejected(self, arch_cloud):
        bare = PointCloud(arch_cloud.points)
        with pytest.raises(ValueError, match="normals"):
            fine_register(arch_cloud, bare, RigidTransform.identity(), PARAMS)

    def test_equivariance_under_source_pre_rotation(self, arch_cloud):
        tgt = voxel_downsample(arch_cloud, PARAMS.voxel)
        applied = RigidTransform.from_axis_angle((0, 0, 1), np.radians(3.0), (0.5, 0.4, 0.1))
        src = tgt.transformed(applied)
        base = fine_register(src, tgt, RigidTransform.identity(), PARAMS)
        q = RigidTransform.from_axis_angle((0, 1, 0), np.radians(2.0), (0.7, 0, 0))
        pre = src.transformed(q)
        composed = fine_register(pre, tgt, base.transform.compose(q.inverse()), PARAMS)
        want = base.transform.compose(q.inverse())
        rot = composed.transform.rotation_distance_deg(want)
        probe = pre.points.mean(axis=0)
        trans = np.linalg.norm(composed.transform.apply(probe) - want.apply(probe))
        assert rot < 0.2
        assert trans < 0.1


class TestRouting:
    def test_lower_left_partial_chooses_lower_template(self, library):
        mesh, _ = generate_arch(partial_spec("Lower", "left", seed=9, jitter_sigma=0.3))
        moved, _ = perturb_pose(mesh, PerturbSpec.registration(seed=4))
        result = register_with_routing(moved, ScanClass.PARTIAL_LEFT, library,
                                       PARAMS, seed=3)
        assert result.chosen_template == "partial_lower_left"
        # fitness margin over the competing upper template
        upper = register_pair(
            prepare_cloud(registration._mesh_cloud(moved), PARAMS),
            prepare_cloud(registration._mesh_cloud(library.partial("Upper", "Left")), PARAMS),
            PARAMS, seed=3)
        assert result.fitness - upper.fitness > 0.05

    def test_full_scan_single_attempt(self, library, monkeypatch):
        calls = []
        original = registration.register_pair

        def counting(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(registration, "register_pair", counting)
        mesh, _ = generate_arch(ArchSpec.standard("Upper", "full", seed=5, jitter_sigma=0.3))
        result = register_with_routing(mesh, ScanClass.FULL_UPPER, library, PARAMS, seed=1)
        assert len(calls) == 1
        assert result.chosen_template == "master_upper"

    def test_partial_scan_two_attempts(self, library, monkeypatch):
        calls = []
        original = registration.register_pair

        def counting(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(registration, "register_pair", counting)
        mesh, _ = generate_arch(partial_spec("Upper", "right", seed=6, jitter_sigma=0.3))
        register_with_routing(mesh, ScanClass.PARTIAL_RIGHT, library, PARAMS, seed=1)
        assert len(calls) == 2

    def test_identical_templates_tie_break_upper(self, library, monkeypatch):
        mesh, _ = generate_arch(partial_spec("Lower", "center", seed=2, jitter_sigma=0.3))

        fixed = RegistrationResult(RigidTransform.identity(), 0.5, 0.1)
        monkeypatch.setattr(registration, "register_pair",
                            lambda *args, **kwargs: fixed)
        result = register_with_routing(mesh, ScanClass.PARTIAL_CENTER, library, PARAMS)
        assert result.chosen_template == "partial_upper_center"

    def test_scan_too_small_keeps_error_type(self, library):
        # three vertices inside one voxel downsample to a single point
        tiny = LabeledMesh([[0, 0, 0], [0.1, 0, 0], [0, 0.1, 0]], [[0, 1, 2]])
        with pytest.raises(CoarseRegistrationError):
            register_with_routing(tiny, ScanClass.FULL_LOWER, library, PARAMS)
        with pytest.raises(RoutingError):
            register_with_routing(tiny, ScanClass.PARTIAL_LEFT, library, PARAMS)

    def test_template_key_format(self):
        assert template_key("Upper", None) == "master_upper"
        assert template_key("Lower", "Left") == "partial_lower_left"


class TestDerivedOnce:
    """Downsampling and FPFH run once per cloud, however many restarts and
    templates the cloud meets."""

    @pytest.fixture
    def counts(self, monkeypatch):
        counts = {"compute_fpfh": 0, "voxel_downsample": 0, "coarse_register": 0}
        for name in counts:
            original = getattr(registration, name)

            def counting(*args, _name=name, _original=original, **kwargs):
                counts[_name] += 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(registration, name, counting)
        return counts

    def test_full_scan_all_restarts(self, library, counts):
        mesh, _ = generate_arch(ArchSpec.standard("Upper", "full", seed=5, jitter_sigma=0.3))
        params = RegistrationParams(good_fitness=1.01)  # unreachable: every restart runs
        register_with_routing(mesh, ScanClass.FULL_UPPER, library, params, seed=1)
        assert counts == {"compute_fpfh": 2, "voxel_downsample": 2,
                          "coarse_register": params.restarts}

    def test_partial_scan_shares_source(self, library, counts):
        mesh, _ = generate_arch(partial_spec("Upper", "right", seed=6, jitter_sigma=0.3))
        register_with_routing(mesh, ScanClass.PARTIAL_RIGHT, library, PARAMS, seed=1)
        assert (counts["compute_fpfh"], counts["voxel_downsample"]) == (3, 3)


def test_registration_result_validation():
    with pytest.raises(ValueError):
        RegistrationResult(RigidTransform.identity(), 1.2, 0.0)
    with pytest.raises(ValueError):
        RegistrationResult(RigidTransform.identity(), 0.5, -1.0)


def test_params_validation():
    with pytest.raises(ValueError):
        RegistrationParams(voxel=0.0)
    with pytest.raises(ValueError):
        RegistrationParams(edge_similarity=1.5)
    with pytest.raises(ValueError):
        RegistrationParams(tukey_k=0.0)
