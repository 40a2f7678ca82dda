import json
import shutil
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

from crownfit.cli import main
from crownfit.config import PipelineConfig, config_from_dict, load_config
from crownfit.errors import PipelineError
from crownfit.fixtures import generate_fixture_corpus
from crownfit.mesh import PREPARED
from crownfit.meshio import load_mesh
from crownfit.pipeline import (STAGES, evaluate_labels, neighbor_fdis,
                               run_pipeline, segmentation_metrics)
from crownfit.synth import fdi_to_class


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    root = tmp_path_factory.mktemp("corpus")
    manifest = generate_fixture_corpus(root, seed=0)
    return root, manifest


@pytest.fixture(scope="module")
def finished_run(corpus):
    root, manifest = corpus
    cfg = load_config(root / "config.json")
    out_dir = root / "run_out"
    cfg = _with_output(cfg, out_dir)
    report = run_pipeline(manifest["case"]["scan"], manifest["case"]["target_fdi"], cfg,
                          antagonist_path=manifest["case"]["antagonist"])
    return root, manifest, cfg, report


def _with_output(cfg, out_dir):
    from dataclasses import replace
    return replace(cfg, output_dir=str(out_dir))


class TestNeighborArithmetic:
    def test_interior_position(self):
        assert neighbor_fdis(36) == (35, 37)

    def test_midline_crossing(self):
        assert neighbor_fdis(31) == (41, 32)
        assert neighbor_fdis(11) == (21, 12)

    def test_distal_absent_at_position_8(self):
        mesial, distal = neighbor_fdis(38)
        assert mesial == 37
        assert distal is None

    def test_invalid(self):
        with pytest.raises(ValueError):
            neighbor_fdis(10)


class TestConfig:
    def test_defaults_round_trip(self, tmp_path):
        from crownfit.config import save_config
        cfg = PipelineConfig()
        save_config(cfg, tmp_path / "c.json")
        back = load_config(tmp_path / "c.json")
        assert back.registration.voxel == cfg.registration.voxel
        assert back.fitting.v_int_threshold == cfg.fitting.v_int_threshold

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError, match="unknown config key"):
            config_from_dict({"nope": 1})
        with pytest.raises(ValueError, match="unknown keys"):
            config_from_dict({"registration": {"vixel": 0.8}})

    def test_relative_paths_resolved(self, tmp_path):
        (tmp_path / "c.json").write_text(json.dumps({"template_dir": "templates"}))
        cfg = load_config(tmp_path / "c.json")
        assert cfg.template_dir == str(tmp_path / "templates")


class TestRunPipeline:
    def test_end_to_end_report_and_outputs(self, finished_run):
        root, manifest, cfg, report = finished_run
        names = [s["name"] for s in report.stages]
        assert names == list(STAGES)
        out_dir = Path(cfg.output_dir)
        for artifact in ("canonical_pose.ply", "refined_labels.ply",
                         "aligned_crown.ply", "fitted_crown.ply", "report.json"):
            assert (out_dir / artifact).exists()
        reg = report.stages[1]
        assert reg["fitness"] > 0.9
        assert reg["chosen_template"] == "master_lower"
        fit = report.stages[5]
        assert fit["residual_neighbor_volume"] <= cfg.fitting.v_int_threshold

    def test_fitted_crown_passes_post_invariants(self, finished_run):
        from crownfit.fitting import intersection_volume, penetrating_vertices
        root, manifest, cfg, report = finished_run
        out_dir = Path(cfg.output_dir)
        fitted = load_mesh(out_dir / "fitted_crown.ply")
        refined = load_mesh(out_dir / "refined_labels.ply")
        labels = refined.face_labels
        mesial, distal = neighbor_fdis(manifest["case"]["target_fdi"])
        faces = np.nonzero(np.isin(labels, [fdi_to_class(mesial), fdi_to_class(distal)]))[0]
        neighbors = refined.submesh(faces)
        v = intersection_volume(fitted, neighbors, cfg.fitting.voxel_resolution,
                                band=cfg.fitting.proximity_band)
        assert v <= cfg.fitting.v_int_threshold
        antagonist = load_mesh(manifest["case"]["antagonist"])
        assert not penetrating_vertices(fitted.vertices, antagonist).any()

    def test_refine_metrics_recorded(self, finished_run):
        _, _, _, report = finished_run
        refine = report.stages[2]
        assert refine["metrics"]["macro"]["dsc"] > 0.9
        ctx = refine["metrics"]["context"]
        assert ctx["prepared"]["class"] == PREPARED
        assert not ctx["prepared"]["miss"]

    def test_stop_after_gates_artifacts(self, corpus, tmp_path):
        root, manifest = corpus
        cfg = _with_output(load_config(root / "config.json"), tmp_path / "gated")
        report = run_pipeline(manifest["case"]["scan"], 36, cfg, stop_after="register")
        assert [s["name"] for s in report.stages] == ["classify", "register"]
        out = Path(cfg.output_dir)
        assert (out / "canonical_pose.ply").exists()
        assert not (out / "refined_labels.ply").exists()
        assert not (out / "fitted_crown.ply").exists()

    def test_missing_antagonist_skips_step3_with_flag(self, corpus, tmp_path):
        root, manifest = corpus
        cfg = _with_output(load_config(root / "config.json"), tmp_path / "noant")
        report = run_pipeline(manifest["case"]["scan"], 36, cfg, antagonist_path=None)
        fit = report.stages[5]
        assert fit["antagonist_missing"]
        assert fit["mode"] == "skipped"

    def test_invalid_fdi_rejected(self, corpus):
        root, manifest = corpus
        cfg = load_config(root / "config.json")
        with pytest.raises(ValueError, match="FDI"):
            run_pipeline(manifest["case"]["scan"], 99, cfg)

    def test_determinism_byte_identical_modulo_timings(self, corpus, tmp_path):
        root, manifest = corpus
        outputs = []
        reports = []
        for run in range(2):
            cfg = _with_output(load_config(root / "config.json"), tmp_path / f"det{run}")
            run_pipeline(manifest["case"]["scan"], 36, cfg,
                         antagonist_path=manifest["case"]["antagonist"])
            out = Path(cfg.output_dir)
            outputs.append({p.name: p.read_bytes() for p in out.glob("*.ply")})
            payload = json.loads((out / "report.json").read_text())
            for stage in payload["stages"]:
                stage["seconds"] = 0.0
            payload["outputs"] = {k: Path(v).name for k, v in payload["outputs"].items()}
            reports.append(payload)
        assert outputs[0].keys() == outputs[1].keys()
        for name in outputs[0]:
            assert outputs[0][name] == outputs[1][name], f"{name} differs between runs"
        assert reports[0] == reports[1]

    def test_stage_error_carries_tag_and_partial_report(self, corpus, tmp_path):
        root, manifest = corpus
        cfg = _with_output(load_config(root / "config.json"), tmp_path / "err")
        from dataclasses import replace
        cfg = replace(cfg, retrieval=replace(cfg.retrieval, jaw_store=None))
        with pytest.raises(PipelineError) as err:
            run_pipeline(manifest["case"]["scan"], 36, cfg)
        assert err.value.stage == "retrieve"
        payload = json.loads((Path(cfg.output_dir) / "report.json").read_text())
        assert payload["error"]["stage"] == "retrieve"
        assert [s["name"] for s in payload["stages"]] == ["classify", "register", "refine"]


# one callee per stage, looked up through crownfit.pipeline
STAGE_CALLEES = {
    "classify": "classify",
    "register": "register_with_routing",
    "refine": "graphcut_refine",
    "retrieve": "match_context",
    "align": "align_crown",
    "fit": "fit_crown",
}


class TestFaultInjection:
    @pytest.mark.parametrize("stage", STAGES)
    def test_any_exception_is_reported_with_its_stage(self, corpus, tmp_path,
                                                      monkeypatch, stage):
        import crownfit.pipeline as pipeline

        def boom(*args, **kwargs):
            raise ValueError(f"injected into {stage}")

        monkeypatch.setattr(pipeline, STAGE_CALLEES[stage], boom)
        root, manifest = corpus
        cfg = _with_output(load_config(root / "config.json"), tmp_path / "fault")
        with pytest.raises(ValueError, match="injected"):
            run_pipeline(manifest["case"]["scan"], 36, cfg,
                         antagonist_path=manifest["case"]["antagonist"])
        payload = json.loads((Path(cfg.output_dir) / "report.json").read_text())
        assert payload["error"] == {"stage": stage, "type": "ValueError",
                                    "message": f"injected into {stage}"}
        assert [s["name"] for s in payload["stages"]] == list(STAGES[:STAGES.index(stage)])

    def test_non_convergence_trace_is_reported(self, corpus, tmp_path, monkeypatch):
        import crownfit.pipeline as pipeline
        from crownfit.errors import NonConvergenceError

        def stuck(*args, **kwargs):
            raise NonConvergenceError("stuck", trace=[{"phase": "grow", "scale": 1.01}],
                                      stage="fit")

        monkeypatch.setattr(pipeline, "fit_crown", stuck)
        root, manifest = corpus
        cfg = _with_output(load_config(root / "config.json"), tmp_path / "stuck")
        with pytest.raises(NonConvergenceError):
            run_pipeline(manifest["case"]["scan"], 36, cfg)
        error = json.loads((Path(cfg.output_dir) / "report.json").read_text())["error"]
        assert error["stage"] == "fit"
        assert error["type"] == "NonConvergenceError"
        assert error["trace"] == [{"phase": "grow", "scale": 1.01}]


class TestEvaluate:
    def test_perfect_prediction(self, corpus, tmp_path):
        root, manifest = corpus
        gt_path = root / "case" / "gt_labels.json"
        mesh_path = manifest["case"]["scan"]
        out = evaluate_labels(gt_path, gt_path, mesh_path, prep_fdi=36)
        assert out["macro"]["dsc"] == 1.0
        assert out["context"]["prepared"]["centroid_error_mm"] == 0.0
        assert not out["context"]["prepared"]["miss"]

    def test_empty_prepared_prediction_gets_miss_penalty(self, corpus, tmp_path):
        root, manifest = corpus
        gt = np.asarray(json.loads((root / "case" / "gt_labels.json").read_text()))
        pred = gt.copy()
        pred[pred == PREPARED] = 0  # prepared tooth predicted empty
        pred_path = tmp_path / "pred.json"
        pred_path.write_text(json.dumps(pred.tolist()))
        out = evaluate_labels(pred_path, root / "case" / "gt_labels.json",
                              manifest["case"]["scan"], prep_fdi=36)
        from crownfit.mesh import bounding_box_diagonal
        mesh = load_mesh(manifest["case"]["scan"])
        row = out["context"]["prepared"]
        assert row["miss"]
        assert np.isclose(row["centroid_error_mm"], bounding_box_diagonal(mesh))

    def test_corrupted_labels_match_naive_reference(self, corpus, tmp_path, rng):
        root, manifest = corpus
        gt = np.asarray(json.loads((root / "case" / "gt_labels.json").read_text()))
        pred = gt.copy()
        flip = rng.choice(len(pred), size=int(0.05 * len(pred)), replace=False)
        pred[flip] = rng.integers(0, 18, size=len(flip))
        pred_path = tmp_path / "pred.json"
        pred_path.write_text(json.dumps(pred.tolist()))
        out = evaluate_labels(pred_path, root / "case" / "gt_labels.json",
                              manifest["case"]["scan"])
        # naive reference evaluator: pure python loops over the label arrays
        for cls_str, row in out["per_class"].items():
            cls = int(cls_str)
            tp = sum(1 for p, g in zip(pred, gt) if p == cls and g == cls)
            fp = sum(1 for p, g in zip(pred, gt) if p == cls and g != cls)
            fn = sum(1 for p, g in zip(pred, gt) if p != cls and g == cls)
            want_dsc = 2 * tp / (2 * tp + fp + fn) if 2 * tp + fp + fn else None
            assert row["dsc"] == want_dsc
            assert row["precision"] == (tp / (tp + fp) if tp + fp else None)
            assert row["recall"] == (tp / (tp + fn) if tp + fn else None)

    def test_face_count_mismatch_rejected(self, corpus, tmp_path):
        root, manifest = corpus
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps([0, 1, 2]))
        with pytest.raises(ValueError, match="face count"):
            evaluate_labels(bad, bad, manifest["case"]["scan"])


class TestCli:
    def test_classify_command(self, corpus):
        root, manifest = corpus
        runner = CliRunner()
        result = runner.invoke(main, ["classify", manifest["case"]["scan"]])
        assert result.exit_code == 0, result.output
        assert "FullLower" in result.output

    def test_register_command(self, corpus, tmp_path):
        root, manifest = corpus
        runner = CliRunner()
        out = tmp_path / "canon.ply"
        rep = tmp_path / "reg.json"
        result = runner.invoke(main, [
            "--config", str(root / "config.json"),
            "register", manifest["case"]["scan"],
            "--out", str(out), "--report", str(rep),
        ])
        assert result.exit_code == 0, result.output
        assert out.exists()
        assert json.loads(rep.read_text())["fitness"] > 0.9

    @staticmethod
    def _run_config(root, tmp_path):
        cfg_path = tmp_path / "config.json"
        payload = json.loads((root / "config.json").read_text())
        payload["output_dir"] = str(tmp_path / "cli_out")
        payload["template_dir"] = str(root / "templates")
        payload["retrieval"]["jaw_store"] = str(root / "jaws.bin")
        payload["retrieval"]["crown_dir"] = str(root / "crowns")
        cfg_path.write_text(json.dumps(payload))
        return cfg_path

    def test_run_command_with_stop_after(self, corpus, tmp_path):
        root, manifest = corpus
        runner = CliRunner()
        cfg_path = self._run_config(root, tmp_path)
        result = runner.invoke(main, [
            "--config", str(cfg_path),
            "run", manifest["case"]["scan"], "--fdi", "36",
            "--stop-after", "refine",
        ])
        assert result.exit_code == 0, result.output
        assert (tmp_path / "cli_out" / "refined_labels.ply").exists()
        assert not (tmp_path / "cli_out" / "aligned_crown.ply").exists()

    def test_run_command_reports_any_failure(self, corpus, tmp_path, monkeypatch):
        import crownfit.pipeline as pipeline

        def boom(*args, **kwargs):
            raise ValueError("injected into refine")

        monkeypatch.setattr(pipeline, "graphcut_refine", boom)
        root, manifest = corpus
        cfg_path = self._run_config(root, tmp_path)
        result = CliRunner().invoke(main, [
            "--config", str(cfg_path), "run", manifest["case"]["scan"], "--fdi", "36",
        ])
        assert result.exit_code == 1
        assert "pipeline failed at stage refine: ValueError: injected into refine" in result.output
        result = CliRunner().invoke(main, [
            "--config", str(cfg_path), "run", manifest["case"]["scan"], "--fdi", "99",
        ])
        assert result.exit_code == 1
        assert "pipeline failed before any stage: ValueError: invalid FDI" in result.output

    def test_evaluate_command(self, corpus, tmp_path):
        root, manifest = corpus
        runner = CliRunner()
        gt = str(root / "case" / "gt_labels.json")
        rep = tmp_path / "eval.json"
        result = runner.invoke(main, [
            "evaluate", "--pred", gt, "--gt", gt,
            "--mesh", manifest["case"]["scan"], "--prep-fdi", "36",
            "--report", str(rep),
        ])
        assert result.exit_code == 0, result.output
        assert json.loads(rep.read_text())["macro"]["dsc"] == 1.0

    def test_fixtures_command(self, tmp_path):
        runner = CliRunner()
        result = runner.invoke(main, [
            "fixtures", "--out", str(tmp_path / "fx"),
            "--population", "2", "--donor-jaws", "2",
        ])
        assert result.exit_code == 0, result.output
        assert (tmp_path / "fx" / "templates" / "templates.json").exists()
        assert (tmp_path / "fx" / "crowns" / "crowns.bin").exists()
        assert (tmp_path / "fx" / "config.json").exists()

    def test_refine_command_with_probability_file(self, finished_run, tmp_path):
        from crownfit.labels import corrupt_labels, save_probabilities
        root, manifest, cfg, _ = finished_run
        canonical = Path(cfg.output_dir) / "refined_labels.ply"
        mesh = load_mesh(canonical)
        probs = corrupt_labels(mesh.face_labels, 18, 0.05, 0.3, seed=4)
        probs_path = tmp_path / "probs.bin"
        save_probabilities(probs, probs_path)
        out = tmp_path / "labels.json"
        runner = CliRunner()
        result = runner.invoke(main, [
            "--config", str(root / "config.json"),
            "refine", str(canonical), "--probs", str(probs_path), "--out", str(out),
        ])
        assert result.exit_code == 0, result.output
        labels = json.loads(out.read_text())
        assert len(labels) == mesh.n_faces

    def test_retrieve_command(self, finished_run):
        root, manifest, cfg, report = finished_run
        refined = Path(cfg.output_dir) / "refined_labels.ply"
        runner = CliRunner()
        result = runner.invoke(main, [
            "--config", str(root / "config.json"),
            "retrieve", str(refined), "--fdi", "36",
        ])
        assert result.exit_code == 0, result.output
        retrieve_stage = report.stages[3]
        assert retrieve_stage["template_id"] in result.output

    def test_align_and_fit_commands(self, finished_run, tmp_path):
        root, manifest, cfg, report = finished_run
        refined = Path(cfg.output_dir) / "refined_labels.ply"
        crown_manifest = json.loads((root / "crowns" / "crowns.json").read_text())
        template_id = report.stages[3]["template_id"]
        crown_path = root / "crowns" / crown_manifest["templates"][template_id]
        aligned_out = tmp_path / "aligned.ply"
        runner = CliRunner()
        result = runner.invoke(main, [
            "--config", str(root / "config.json"),
            "align", str(refined), "--crown", str(crown_path),
            "--fdi", "36", "--out", str(aligned_out),
        ])
        assert result.exit_code == 0, result.output
        assert aligned_out.exists()
        assert "occlusal" in result.output
        fitted_out = tmp_path / "fitted.ply"
        result = runner.invoke(main, [
            "--config", str(root / "config.json"),
            "fit", str(aligned_out), "--scan", str(refined), "--fdi", "36",
            "--antagonist", manifest["case"]["antagonist"],
            "--out", str(fitted_out),
        ])
        assert result.exit_code == 0, result.output
        assert fitted_out.exists()
        assert "mode=posterior" in result.output


def test_segmentation_metrics_macro_excludes_absent(self=None):
    gt = np.array([0, 0, 1, 1])
    pred = np.array([0, 0, 1, 1])
    vertices = [[0, 0, 0], [1, 0, 0], [0, 1, 0], [1, 1, 0], [2, 0, 0], [2, 1, 0]]
    from crownfit.mesh import LabeledMesh
    mesh = LabeledMesh(vertices, [[0, 1, 2], [1, 3, 2], [1, 4, 3], [4, 5, 3]])
    out = segmentation_metrics(pred, gt, mesh)
    assert out["macro"]["dsc"] == 1.0
