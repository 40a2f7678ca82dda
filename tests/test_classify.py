import json

import numpy as np
import pytest

from crownfit.classify import (ClassifierParams, ScanClass, baseline_geometric_classify,
                               read_classification_sidecar)
from crownfit.config import config_from_dict
from crownfit.errors import ClassificationError
from crownfit.mesh import LabeledMesh, RigidTransform, estimate_vertex_normals
from crownfit.meshio import save_mesh
from crownfit.pipeline import run_pipeline
from crownfit.synth import ArchSpec, PerturbSpec, generate_arch, partial_spec, perturb_pose
from helpers import mirror_x


def classify(mesh):
    return baseline_geometric_classify(mesh, ClassifierParams())


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
        hits = 0
        cases = all_class_cases(range(3))
        for spec, want in cases:
            mesh, gt = generate_arch(spec)
            got, confidence = classify(mesh)
            assert gt.scan_class is want
            hits += got is want
            assert 0.0 <= confidence <= 1.0
        assert hits == len(cases)

    def test_mirror_swaps_left_right(self):
        for seed in range(3):
            mesh, _ = generate_arch(partial_spec("Lower", "left", seed=seed))
            left, _ = classify(mesh)
            mirrored, _ = classify(estimate_vertex_normals(mirror_x(mesh)))
            assert left is ScanClass.PARTIAL_LEFT
            assert mirrored is ScanClass.PARTIAL_RIGHT

    def test_mirror_fixes_center(self):
        mesh, _ = generate_arch(partial_spec("Upper", "center", seed=2))
        a, _ = classify(mesh)
        b, _ = classify(estimate_vertex_normals(mirror_x(mesh)))
        assert a is b is ScanClass.PARTIAL_CENTER

    @pytest.mark.parametrize("angle", [-9.0, -5.0, 5.0, 9.0])
    def test_small_z_rotation_stable(self, angle):
        for spec, want in all_class_cases([1]):
            mesh, _ = generate_arch(spec)
            rot = RigidTransform.from_axis_angle((0, 0, 1), np.radians(angle))
            got, _ = classify(mesh.transformed(rot))
            assert got is want

    def test_deterministic(self, lower_arch):
        mesh, _ = lower_arch
        assert classify(mesh) == classify(mesh)

    def test_too_few_points_rejected(self):
        mesh = LabeledMesh(np.random.default_rng(0).normal(size=(50, 3)), [[0, 1, 2]],
                           np.tile([0.0, 0, 1], (50, 1)))
        with pytest.raises(ClassificationError, match="too few points"):
            classify(mesh)


class TestProviders:
    def test_external_sidecar(self, tmp_path):
        (tmp_path / "scan.ply.class.json").write_text(
            '{"class": "PartialCenter", "confidence": 0.66}')
        got, conf = read_classification_sidecar(tmp_path / "scan.ply")
        assert got is ScanClass.PARTIAL_CENTER
        assert conf == 0.66

    @pytest.mark.parametrize("text", [
        "[1, 2]",
        '"FullUpper"',
        "null",
        "{",
        '{"confidence": 0.5}',
        '{"class": "Full", "confidence": 0.5}',
        '{"class": ["FullUpper"], "confidence": 0.5}',
        '{"class": "FullUpper"}',
        '{"class": "FullUpper", "confidence": null}',
        '{"class": "FullUpper", "confidence": [0.5]}',
        '{"class": "FullUpper", "confidence": 7.5}',
        '{"class": "FullUpper", "confidence": -0.1}',
        '{"class": "FullUpper", "confidence": NaN}',
        '{"class": "FullUpper", "confidence": Infinity}',
    ])
    def test_malformed_sidecar_rejected(self, tmp_path, text):
        sidecar = tmp_path / "scan.ply.class.json"
        sidecar.write_text(text)
        with pytest.raises(ClassificationError, match="^bad classification sidecar ") as err:
            read_classification_sidecar(tmp_path / "scan.ply")
        assert str(sidecar) in str(err.value)

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

    def test_nan_confidence_fails_the_run(self, tmp_path, lower_arch):
        # no NaN reaches the report, which stays standard JSON
        mesh, _ = lower_arch
        scan_path = tmp_path / "scan.ply"
        save_mesh(mesh, scan_path, "PLY")
        (tmp_path / "scan.ply.class.json").write_text('{"class": "FullLower", "confidence": NaN}')
        cfg = config_from_dict({"classifier": {"provider": "external"},
                                "output_dir": str(tmp_path / "out")})
        with pytest.raises(ClassificationError, match="bad classification sidecar"):
            run_pipeline(scan_path, 36, cfg, stop_after="classify")

        def reject(name):
            raise AssertionError(f"report.json holds {name}")

        report = json.loads((tmp_path / "out" / "report.json").read_text(),
                            parse_constant=reject)
        assert report["error"]["stage"] == "classify"
        assert report["stages"] == []


def test_accuracy_on_100_scans_20_per_class():
    """At least 95% accuracy on 100 scans, 20 per class, under mild pose offsets."""
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
            got, _ = classify(mesh)
            hits += got is want
            per_class[want] += 1
            total += 1
    assert total == 100
    assert all(n == 20 for n in per_class.values())
    assert hits / total >= 0.95
