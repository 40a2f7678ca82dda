import numpy as np
import pytest

from crownfit.classify import (BaselineGeometricClassifier, ConstantClassifier,
                               ExternalSidecarClassifier, ScanClass, classify)
from crownfit.errors import ClassificationError
from crownfit.mesh import RigidTransform, estimate_vertex_normals
from crownfit.synth import (ArchSpec, PerturbSpec, generate_arch, mirror_x, partial_spec,
                            perturb_pose)


def all_class_cases(seeds, jitter=0.4):
    cases = []
    for seed in seeds:
        for jaw in ("Lower", "Upper"):
            cases.append((ArchSpec.standard(jaw, "full", seed=seed, jitter_sigma=jitter),
                          ScanClass.FULL_LOWER if jaw == "Lower" else ScanClass.FULL_UPPER))
            for side, want in (("left", ScanClass.PARTIAL_LEFT),
                               ("right", ScanClass.PARTIAL_RIGHT),
                               ("center", ScanClass.PARTIAL_CENTER)):
                cases.append((partial_spec(jaw, side, seed=seed, jitter_sigma=jitter), want))
    return cases


class TestBaseline:
    def test_synthetic_fixtures_classified(self):
        provider = BaselineGeometricClassifier()
        hits = 0
        cases = all_class_cases(range(3))
        for spec, want in cases:
            mesh, gt = generate_arch(spec)
            got, confidence = classify(provider, mesh)
            assert gt.scan_class is want
            hits += got is want
            assert 0.0 <= confidence <= 1.0
        assert hits == len(cases)

    def test_mirror_swaps_left_right(self):
        provider = BaselineGeometricClassifier()
        for seed in range(3):
            mesh, _ = generate_arch(partial_spec("Lower", "left", seed=seed))
            left, _ = classify(provider, mesh)
            mirrored, _ = classify(provider, estimate_vertex_normals(mirror_x(mesh)))
            assert left is ScanClass.PARTIAL_LEFT
            assert mirrored is ScanClass.PARTIAL_RIGHT

    def test_mirror_fixes_center(self):
        provider = BaselineGeometricClassifier()
        mesh, _ = generate_arch(partial_spec("Upper", "center", seed=2))
        a, _ = classify(provider, mesh)
        b, _ = classify(provider, estimate_vertex_normals(mirror_x(mesh)))
        assert a is b is ScanClass.PARTIAL_CENTER

    @pytest.mark.parametrize("angle", [-9.0, -5.0, 5.0, 9.0])
    def test_small_z_rotation_stable(self, angle):
        provider = BaselineGeometricClassifier()
        for spec, want in all_class_cases([1]):
            mesh, _ = generate_arch(spec)
            rot = RigidTransform.from_axis_angle((0, 0, 1), np.radians(angle))
            got, _ = classify(provider, mesh.transformed(rot))
            assert got is want

    def test_deterministic(self, lower_arch):
        mesh, _ = lower_arch
        provider = BaselineGeometricClassifier()
        first = classify(provider, mesh)
        second = classify(provider, mesh)
        assert first == second

    def test_too_few_points_rejected(self):
        from crownfit.features import compute_point_features
        from crownfit.mesh import PointCloud
        f = compute_point_features(PointCloud(np.random.default_rng(0).normal(size=(50, 3)),
                                              normals=np.tile([0.0, 0, 1], (50, 1))))
        with pytest.raises(ClassificationError):
            BaselineGeometricClassifier().classify(f, None)


class TestProviders:
    def test_constant_provider_routes_unconditionally(self, lower_arch):
        mesh, _ = lower_arch
        got, conf = classify(ConstantClassifier(ScanClass.PARTIAL_RIGHT, 0.8), mesh)
        assert got is ScanClass.PARTIAL_RIGHT
        assert conf == 0.8

    def test_external_sidecar(self, tmp_path, lower_arch):
        mesh, _ = lower_arch
        scan_path = tmp_path / "scan.ply"
        sidecar = ExternalSidecarClassifier.sidecar_for(scan_path)
        sidecar.write_text('{"class": "PartialCenter", "confidence": 0.66}')
        provider = ExternalSidecarClassifier().for_scan(scan_path)
        got, conf = classify(provider, mesh)
        assert got is ScanClass.PARTIAL_CENTER
        assert conf == 0.66

    def test_external_sidecar_missing_raises_with_stage(self, tmp_path, lower_arch):
        mesh, _ = lower_arch
        provider = ExternalSidecarClassifier().for_scan(tmp_path / "absent.ply")
        with pytest.raises(ClassificationError) as err:
            classify(provider, mesh)
        assert err.value.stage == "classify"


def test_accuracy_on_100_scans_20_per_class():
    """At least 95% accuracy on 100 scans, 20 per class, under mild pose offsets."""
    provider = BaselineGeometricClassifier()
    per_class = {c: 0 for c in ScanClass}
    hits = total = 0
    for seed in range(10):
        cases = [(ArchSpec.standard("Lower", "full", seed=seed, jitter_sigma=0.4),
                  ScanClass.FULL_LOWER),
                 (ArchSpec.standard("Upper", "full", seed=seed + 50, jitter_sigma=0.4),
                  ScanClass.FULL_UPPER),
                 (ArchSpec.standard("Lower", "full", seed=seed + 100, jitter_sigma=0.4),
                  ScanClass.FULL_LOWER),
                 (ArchSpec.standard("Upper", "full", seed=seed + 150, jitter_sigma=0.4),
                  ScanClass.FULL_UPPER)]
        for jaw in ("Lower", "Upper"):
            for side, want in (("left", ScanClass.PARTIAL_LEFT),
                               ("right", ScanClass.PARTIAL_RIGHT),
                               ("center", ScanClass.PARTIAL_CENTER)):
                cases.append((partial_spec(jaw, side, seed=seed + 200, jitter_sigma=0.4),
                              want))
        for spec, want in cases:
            mesh, _ = generate_arch(spec)
            pert = PerturbSpec((5, 5, 15), (5, 5, 2), (1.0, 1.0), seed=total)
            mesh, _ = perturb_pose(mesh, pert)
            got, _ = classify(provider, mesh)
            hits += got is want
            per_class[want] += 1
            total += 1
    assert total == 100
    assert all(n == 20 for n in per_class.values())
    assert hits / total >= 0.95
