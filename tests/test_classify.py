import json

import numpy as np
import pytest

from crownfit.classify import (BaselineGeometricClassifier, ExternalSidecarClassifier,
                               ScanClass, classify)
from crownfit.config import config_from_dict
from crownfit.errors import ClassificationError
from crownfit.mesh import RigidTransform, estimate_vertex_normals
from crownfit.meshio import save_mesh
from crownfit.pipeline import run_pipeline
from crownfit.synth import ArchSpec, PerturbSpec, generate_arch, partial_spec, perturb_pose
from helpers import ConstantClassifier, mirror_x


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
            BaselineGeometricClassifier().classify(f)


class TestProviders:
    def test_constant_provider_routes_unconditionally(self, lower_arch):
        mesh, _ = lower_arch
        got, conf = classify(ConstantClassifier(ScanClass.PARTIAL_RIGHT, 0.8), mesh)
        assert got is ScanClass.PARTIAL_RIGHT
        assert conf == 0.8

    def test_external_sidecar(self, tmp_path, lower_arch):
        mesh, _ = lower_arch
        scan_path = tmp_path / "scan.ply"
        provider = ExternalSidecarClassifier(scan_path)
        assert provider.sidecar_path == tmp_path / "scan.ply.class.json"
        provider.sidecar_path.write_text('{"class": "PartialCenter", "confidence": 0.66}')
        got, conf = classify(provider, mesh)
        assert got is ScanClass.PARTIAL_CENTER
        assert conf == 0.66

    def test_external_sidecar_missing_raises_with_stage(self, tmp_path, lower_arch):
        # the error names the sidecar; the run's report names the stage
        mesh, _ = lower_arch
        scan_path = tmp_path / "absent.ply"
        save_mesh(mesh, scan_path, "PLY")
        cfg = config_from_dict({"classifier": {"provider": "external"},
                                "output_dir": str(tmp_path / "out")})
        with pytest.raises(ClassificationError, match="bad classification sidecar") as err:
            run_pipeline(scan_path, 36, cfg)
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert report["error"] == {"stage": "classify", "type": "ClassificationError",
                                   "message": str(err.value)}
        assert report["stages"] == []

    def test_provider_error_keeps_its_type(self, lower_arch):
        class Broken:
            def classify(self, features):
                raise ZeroDivisionError("provider bug")

        with pytest.raises(ZeroDivisionError, match="provider bug"):
            classify(Broken(), lower_arch[0])


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
