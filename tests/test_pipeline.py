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
from crownfit.mesh import PREPARED, is_watertight
from crownfit.meshio import load_mesh
from crownfit.pipeline import (STAGES, evaluate_labels, neighbor_fdis,
                               run_pipeline, segmentation_metrics, stage_retrieve)
from crownfit.synth import fdi_to_class


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    root = tmp_path_factory.mktemp("corpus")
    manifest = generate_fixture_corpus(root, seed=0)
    # the manifest names the case files relative to the corpus root
    case = dict(manifest["case"], scan=str(root / manifest["case"]["scan"]),
                antagonist=str(root / manifest["case"]["antagonist"]))
    return root, dict(manifest, case=case)


def test_corpus_manifest_relocates(corpus, tmp_path, monkeypatch):
    root, _ = corpus
    shutil.copytree(root, tmp_path / "moved")
    monkeypatch.chdir(tmp_path)
    copy = Path("moved")
    case = json.loads((copy / "fixtures.json").read_text())["case"]
    for key in ("scan", "antagonist"):
        path = copy / case[key]
        assert path.resolve().is_relative_to((tmp_path / "moved").resolve())
        assert path.read_bytes() == (root / "case" / f"{key}.ply").read_bytes()


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
        saved = json.loads((tmp_path / "c.json").read_text())
        assert saved == {
            "seed": 0,
            "output_dir": "out",
            "template_dir": None,
            "classifier": {"full_span_deg": 240.0, "center_band_deg": 30.0, "span_bins": 72,
                           "span_mass_threshold": 0.5, "span_radial_power": 1.5,
                           "occlusal_dot_min": 0.7, "min_points": 100,
                           "provider": "baseline"},
            "registration": {"voxel": 0.8, "fpfh_radius_factor": 7.0, "edge_similarity": 0.95,
                             "icp_max_corr_dist": 1.0, "icp_max_iters": 60,
                             "icp_tolerance": 1e-4, "tukey_k": 0.5},
            "refine": {"smoothness": 30.0, "dihedral_sharpness": 5.0,
                       "min_component_faces": 10},
            "segmentation": {"provider": "corruptor", "flip_fraction": 0.05, "softness": 0.3,
                             "probabilities_path": None},
            "retrieval": {"jaw_store": None, "crown_dir": None},
            "alignment": {"tau": 0.6},
            "fitting": {"v_int_threshold": 1e-6, "shrink": 0.99, "grow": 1.01, "delta": 0.1,
                        "falloff_radius": 1.0, "cusp_count": 5, "cusp_normal_dot_min": 0.5,
                        "proximity_dist": 0.2, "max_scale_iters": 500, "max_tap_rounds": 50,
                        "max_shift_iters": 200, "voxel_resolution": 0.05},
        }
        assert config_from_dict(saved) == cfg

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError, match="unknown config key"):
            config_from_dict({"nope": 1})
        with pytest.raises(ValueError, match="unknown keys"):
            config_from_dict({"registration": {"vixel": 0.8}})

    @pytest.mark.parametrize("key", ["ransac_max_iters", "ransac_confidence",
                                     "ransac_distance_threshold", "restarts",
                                     "good_fitness", "seed"])
    def test_retired_registration_keys_rejected(self, key):
        with pytest.raises(ValueError, match=key):
            config_from_dict({"registration": {key: 1}})

    def test_retired_fitting_key_rejected(self):
        with pytest.raises(ValueError, match="proximity_band"):
            config_from_dict({"fitting": {"proximity_band": 0.5}})

    @pytest.mark.parametrize("section, key, value", [
        ("fitting", "falloff_radius", 0.0),
        ("fitting", "cusp_count", -1),
        ("fitting", "proximity_dist", -0.1),
        ("refine", "smoothness", -1.0),
        ("segmentation", "flip_fraction", 1.5),
        ("segmentation", "softness", 1.5),
        ("alignment", "tau", 1.5),
    ])
    def test_values_that_fail_mid_run_rejected_at_load(self, tmp_path, section, key, value):
        (tmp_path / "c.json").write_text(json.dumps({section: {key: value}}))
        with pytest.raises(ValueError, match=key):
            load_config(tmp_path / "c.json")

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
        assert 1 <= reg["icp_iterations"] < reg["icp_evaluations"]
        fit = report.stages[5]
        assert fit["residual_neighbor_volume"] <= cfg.fitting.v_int_threshold

    def test_fitted_crown_passes_post_invariants(self, finished_run):
        from crownfit.fitting import intersection_volume, occlusal_direction, points_inside_mesh
        root, manifest, cfg, report = finished_run
        out_dir = Path(cfg.output_dir)
        fitted = load_mesh(out_dir / "fitted_crown.ply")
        refined = load_mesh(out_dir / "refined_labels.ply")
        labels = refined.face_labels
        neighbors = [refined.submesh(labels == fdi_to_class(fdi))
                     for fdi in neighbor_fdis(manifest["case"]["target_fdi"])]
        up = occlusal_direction(manifest["case"]["target_fdi"])
        v = intersection_volume(fitted, neighbors, up, cfg.fitting.voxel_resolution)
        assert v <= cfg.fitting.v_int_threshold
        antagonist = load_mesh(manifest["case"]["antagonist"])
        assert is_watertight(antagonist)
        assert not points_inside_mesh(fitted.vertices, antagonist, -up).any()

    def test_refine_metrics_recorded(self, finished_run):
        _, _, _, report = finished_run
        refine = report.stages[2]
        assert refine["metrics"]["macro"]["dsc"] > 0.9
        ctx = refine["metrics"]["context"]
        assert ctx["prepared"]["class"] == PREPARED
        assert not ctx["prepared"]["miss"]

    @pytest.mark.parametrize("stop_after", STAGES)
    def test_stop_after_gates_artifacts(self, corpus, tmp_path, stop_after):
        root, manifest = corpus
        cfg = _with_output(load_config(root / "config.json"), tmp_path / "gated")
        report = run_pipeline(manifest["case"]["scan"], 36, cfg, stop_after=stop_after)
        ran = list(STAGES[:STAGES.index(stop_after) + 1])
        assert [s["name"] for s in report.stages] == ran
        artifacts = {"register": "canonical_pose", "refine": "refined_labels",
                     "align": "aligned_crown", "fit": "fitted_crown"}
        out = Path(cfg.output_dir)
        assert report.outputs == {artifacts[s]: str(out / f"{artifacts[s]}.ply")
                                  for s in ran if s in artifacts}
        for stage, name in artifacts.items():
            assert (out / f"{name}.ply").exists() == (stage in ran), name

    def test_missing_antagonist_skips_step3_with_flag(self, corpus, tmp_path):
        root, manifest = corpus
        cfg = _with_output(load_config(root / "config.json"), tmp_path / "noant")
        report = run_pipeline(manifest["case"]["scan"], 36, cfg, antagonist_path=None)
        fit = report.stages[5]
        assert fit["mode"] == "skipped"
        assert not fit["occlusal_trace"]
        # ``mode`` alone says that no antagonist was checked
        assert "antagonist_missing" not in fit and "opposing_checked" not in fit

    def test_antagonist_path_that_does_not_exist_fails_the_fit(self, corpus, tmp_path):
        root, manifest = corpus
        cfg = _with_output(load_config(root / "config.json"), tmp_path / "typo")
        with pytest.raises(FileNotFoundError):
            run_pipeline(manifest["case"]["scan"], 36, cfg,
                         antagonist_path=tmp_path / "antagonst.ply")
        payload = json.loads((Path(cfg.output_dir) / "report.json").read_text())
        assert payload["error"]["stage"] == "fit"
        assert [s["name"] for s in payload["stages"]] == list(STAGES[:-1])

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

    def test_stage_error_leaves_partial_report(self, corpus, tmp_path):
        root, manifest = corpus
        cfg = _with_output(load_config(root / "config.json"), tmp_path / "err")
        from dataclasses import replace
        cfg = replace(cfg, retrieval=replace(cfg.retrieval, jaw_store=None))
        with pytest.raises(PipelineError) as err:
            run_pipeline(manifest["case"]["scan"], 36, cfg)
        expected = {"stage": "retrieve", "type": "PipelineError",
                    "message": "retrieval needs jaw_store and crown_dir configured"}
        # the stage is named once, by the report, not in the message
        assert str(err.value) == expected["message"]
        payload = json.loads((Path(cfg.output_dir) / "report.json").read_text())
        assert payload["error"] == expected
        assert [s["name"] for s in payload["stages"]] == ["classify", "register", "refine"]

    def test_retrieve_without_context_teeth_fails(self, corpus):
        root, manifest = corpus
        scan = load_mesh(manifest["case"]["scan"])
        labels = np.zeros(scan.n_faces, dtype=np.int64)  # gingiva only
        with pytest.raises(PipelineError, match="no context teeth"):
            stage_retrieve(scan, labels, 36, load_config(root / "config.json"))


# one callee per stage, looked up through crownfit.pipeline
STAGE_CALLEES = {
    "classify": "baseline_geometric_classify",
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
            raise NonConvergenceError("stuck", trace=[{"phase": "grow", "scale": 1.01}])

        monkeypatch.setattr(pipeline, "fit_crown", stuck)
        root, manifest = corpus
        cfg = _with_output(load_config(root / "config.json"), tmp_path / "stuck")
        with pytest.raises(NonConvergenceError):
            run_pipeline(manifest["case"]["scan"], 36, cfg)
        error = json.loads((Path(cfg.output_dir) / "report.json").read_text())["error"]
        assert error["stage"] == "fit"
        assert error["type"] == "NonConvergenceError"
        assert error["message"] == "stuck"
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
    @staticmethod
    def _stage_entry(report, name):
        entry = next(s for s in report.stages if s["name"] == name)
        return {k: v for k, v in entry.items() if k not in ("name", "seconds")}

    def test_classify_command(self, finished_run, tmp_path):
        root, manifest, _, report = finished_run
        rep = tmp_path / "cls.json"
        result = CliRunner().invoke(main, [
            "--config", str(root / "config.json"),
            "classify", manifest["case"]["scan"], "--report", str(rep),
        ])
        assert result.exit_code == 0, result.output
        assert "FullLower" in result.output
        assert json.loads(rep.read_text()) == self._stage_entry(report, "classify")

    def test_register_command(self, finished_run, tmp_path):
        root, manifest, _, report = finished_run
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
        assert json.loads(rep.read_text()) == self._stage_entry(report, "register")

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
        rep = tmp_path / "copy.json"
        run = ["--config", str(cfg_path), "run", manifest["case"]["scan"], "--report", str(rep)]
        result = CliRunner().invoke(main, run + ["--fdi", "36", "--stop-after", "register"])
        assert result.exit_code == 0, result.output
        assert json.loads(rep.read_text())["error"] is None
        # --report gets this run's partial report, not the earlier run's
        result = CliRunner().invoke(main, run + ["--fdi", "36"])
        assert result.exit_code == 1
        assert "pipeline failed at stage refine: ValueError: injected into refine" in result.output
        assert rep.read_bytes() == (tmp_path / "cli_out" / "report.json").read_bytes()
        assert json.loads(rep.read_text())["error"]["stage"] == "refine"
        result = CliRunner().invoke(main, run + ["--fdi", "99"])
        assert result.exit_code == 1
        assert "pipeline failed before any stage: ValueError: invalid FDI" in result.output
        assert not rep.exists()

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
        assert (tmp_path / "fx" / "templates" / "prepared.npz").exists()
        assert not (tmp_path / "fx" / "templates" / "templates.json").exists()
        assert (tmp_path / "fx" / "crowns" / "crowns.bin").exists()
        assert (tmp_path / "fx" / "config.json").exists()

    def test_refine_command_with_probability_file(self, finished_run, tmp_path):
        from crownfit.labels import corrupt_labels
        from helpers import save_probabilities
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
