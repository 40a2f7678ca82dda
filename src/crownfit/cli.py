"""Command-line interface: per-stage subcommands plus the end-to-end run.

All subcommands honor --config/--seed from the group; reports are versioned
JSON written where --report points.
"""

from __future__ import annotations

import json
import sys
from dataclasses import replace
from pathlib import Path

import click

from .classify import ScanClass
from .config import PipelineConfig, load_config
from .fixtures import generate_fixture_corpus
from .meshio import load_mesh, save_mesh
from .pipeline import (STAGES, evaluate_labels, run_pipeline, stage_align, stage_classify,
                       stage_fit, stage_refine, stage_register, stage_retrieve, with_normals)


def _load_cfg(ctx) -> PipelineConfig:
    cfg = ctx.obj.get("config")
    if cfg is None:
        cfg = PipelineConfig()
    seed = ctx.obj.get("seed")
    if seed is not None:
        cfg = replace(cfg, seed=seed)
    return cfg


@click.group()
@click.option("--config", "config_path", type=click.Path(exists=True), default=None,
              help="Pipeline config JSON.")
@click.option("--seed", type=int, default=None, help="Override the config seed.")
@click.pass_context
def main(ctx, config_path, seed):
    """Crown-fitting pipeline for intraoral scans."""
    ctx.ensure_object(dict)
    ctx.obj["config"] = load_config(config_path) if config_path else None
    ctx.obj["seed"] = seed


def _write_report(report_path, payload):
    if report_path:
        Path(report_path).write_text(json.dumps(payload, indent=2, sort_keys=True))


@main.command("classify")
@click.argument("scan", type=click.Path(exists=True))
@click.option("--report", "report_path", type=click.Path(), default=None)
@click.pass_context
def classify_cmd(ctx, scan, report_path):
    """Assign the scan class (full/partial, side, jaw)."""
    _, payload = stage_classify(with_normals(load_mesh(scan)), _load_cfg(ctx), scan)
    click.echo(f"{payload['class']} confidence={payload['confidence']:.3f}")
    _write_report(report_path, payload)


@main.command("register")
@click.argument("scan", type=click.Path(exists=True))
@click.option("--scan-class", "scan_class_name", type=click.Choice([c.value for c in ScanClass]),
              default=None, help="Skip classification and use this class.")
@click.option("--out", "out_path", type=click.Path(), default="canonical_pose.ply")
@click.option("--report", "report_path", type=click.Path(), default=None)
@click.pass_context
def register_cmd(ctx, scan, scan_class_name, out_path, report_path):
    """Register the scan into the canonical template frame."""
    cfg = _load_cfg(ctx)
    if cfg.template_dir is None:
        raise click.UsageError("registration needs template_dir in the config")
    mesh = with_normals(load_mesh(scan))
    if scan_class_name:
        scan_class = ScanClass(scan_class_name)
    else:
        scan_class, _ = stage_classify(mesh, cfg, scan)
    canonical, payload = stage_register(mesh, scan_class, cfg)
    save_mesh(canonical, out_path, "PLY")
    click.echo(f"template={payload['chosen_template']} fitness={payload['fitness']:.4f} "
               f"rmse={payload['inlier_rmse']:.4f}")
    _write_report(report_path, payload)


@main.command("refine")
@click.argument("scan", type=click.Path(exists=True))
@click.option("--probs", "probs_path", type=click.Path(exists=True), default=None,
              help="Probability matrix file (binary or JSON).")
@click.option("--out", "out_path", type=click.Path(), default="refined_labels.json")
@click.pass_context
def refine_cmd(ctx, scan, probs_path, out_path):
    """Graph-cut refine per-face labels (from a probability file or the
    ground-truth corruptor)."""
    cfg = _load_cfg(ctx)
    if probs_path:
        cfg = replace(cfg, segmentation=replace(
            cfg.segmentation, provider="file", probabilities_path=probs_path))
    labels, _ = stage_refine(with_normals(load_mesh(scan)), None, cfg, scan)
    Path(out_path).write_text(json.dumps([int(v) for v in labels]))
    click.echo(f"wrote {out_path} ({len(labels)} faces)")


@main.command("retrieve")
@click.argument("scan", type=click.Path(exists=True))
@click.option("--fdi", type=int, required=True)
@click.pass_context
def retrieve_cmd(ctx, scan, fdi):
    """Pick the donor jaw and crown template for the target position."""
    mesh = with_normals(load_mesh(scan))
    if mesh.face_labels is None:
        raise click.UsageError("retrieve needs a labeled canonical scan")
    _, payload = stage_retrieve(mesh, mesh.face_labels, fdi, _load_cfg(ctx))
    click.echo(f"donor={payload['donor_jaw']} score={payload['jaw_score']:.4f} "
               f"template={payload['template_id']} crown_score={payload['crown_score']:.4f}")


@main.command("align")
@click.argument("scan", type=click.Path(exists=True))
@click.option("--crown", "crown_path", type=click.Path(exists=True), required=True,
              help="Annotated crown template PLY (region labels 101/102/103).")
@click.option("--fdi", type=int, required=True)
@click.option("--out", "out_path", type=click.Path(), default="aligned_crown.ply")
@click.pass_context
def align_cmd(ctx, scan, crown_path, fdi, out_path):
    """Spline-guided sequential alignment of a crown template."""
    from .alignment import CrownTemplate

    mesh = with_normals(load_mesh(scan))
    if mesh.face_labels is None:
        raise click.UsageError("align needs a labeled canonical scan")
    crown = CrownTemplate.from_mesh(with_normals(load_mesh(crown_path)))
    aligned, payload = stage_align(mesh, mesh.face_labels, fdi, crown, _load_cfg(ctx))
    save_mesh(aligned, out_path, "PLY")
    for step in payload["steps"]:
        click.echo(f"{step['name']}: angle={step['angle_deg']:.3f} deg "
                   f"dot={step['achieved_dot']:.6f}")


@main.command("fit")
@click.argument("crown", type=click.Path(exists=True))
@click.option("--scan", "scan_path", type=click.Path(exists=True), required=True,
              help="Labeled canonical scan providing the neighbor teeth.")
@click.option("--fdi", type=int, required=True)
@click.option("--antagonist", "antagonist_path", type=click.Path(exists=True), default=None)
@click.option("--out", "out_path", type=click.Path(), default="fitted_crown.ply")
@click.pass_context
def fit_cmd(ctx, crown, scan_path, fdi, antagonist_path, out_path):
    """Interproximal scaling, centering, and occlusal correction."""
    scan = with_normals(load_mesh(scan_path))
    if scan.face_labels is None:
        raise click.UsageError("fit needs a labeled canonical scan")
    fitted, payload = stage_fit(load_mesh(crown), scan, scan.face_labels, fdi,
                                antagonist_path, _load_cfg(ctx))
    save_mesh(fitted, out_path, "PLY")
    click.echo(f"mode={payload['mode']} final_scale={payload['final_scale']:.4f} "
               f"residual={payload['residual_neighbor_volume']:.2e}")


@main.command("run")
@click.argument("scan", type=click.Path(exists=True))
@click.option("--fdi", type=int, required=True, help="Target FDI tooth number.")
@click.option("--antagonist", "antagonist_path", type=click.Path(exists=True), default=None)
@click.option("--stop-after", type=click.Choice(STAGES), default=None)
@click.option("--report", "report_path", type=click.Path(), default=None,
              help="Copy the run report here as well.")
@click.pass_context
def run_cmd(ctx, scan, fdi, antagonist_path, stop_after, report_path):
    """Run the full pipeline on a scan."""
    cfg = _load_cfg(ctx)
    run_report = Path(cfg.output_dir) / "report.json"
    # a failure is told from this run's report only
    for stale in filter(None, (run_report, report_path)):
        Path(stale).unlink(missing_ok=True)
    try:
        report = run_pipeline(scan, fdi, cfg, antagonist_path=antagonist_path,
                              stop_after=stop_after)
    except Exception as exc:  # argument checks fail before any report is written
        where = (f"at stage {json.loads(run_report.read_text())['error']['stage']}"
                 if run_report.exists() else "before any stage")
        click.echo(f"pipeline failed {where}: {type(exc).__name__}: {exc}", err=True)
        sys.exit(1)
    finally:
        if report_path and run_report.exists():
            Path(report_path).write_bytes(run_report.read_bytes())
    for stage in report.stages:
        click.echo(f"{stage['name']}: {stage['seconds']:.2f}s")
    click.echo(f"report: {run_report}")


@main.command("evaluate")
@click.option("--pred", "pred_path", type=click.Path(exists=True), required=True)
@click.option("--gt", "gt_path", type=click.Path(exists=True), required=True)
@click.option("--mesh", "mesh_path", type=click.Path(exists=True), required=True)
@click.option("--prep-fdi", type=int, default=None)
@click.option("--report", "report_path", type=click.Path(), default=None)
@click.pass_context
def evaluate_cmd(ctx, pred_path, gt_path, mesh_path, prep_fdi, report_path):
    """Segmentation metrics for predicted vs ground-truth label files."""
    cfg = _load_cfg(ctx)
    out = evaluate_labels(pred_path, gt_path, mesh_path, prep_fdi=prep_fdi, seed=cfg.seed)
    click.echo(json.dumps(out["macro"], indent=2, sort_keys=True))
    _write_report(report_path, out)


@main.command("fixtures")
@click.option("--out", "out_dir", type=click.Path(), required=True)
@click.option("--population", type=int, default=4)
@click.option("--donor-jaws", type=int, default=6)
@click.pass_context
def fixtures_cmd(ctx, out_dir, population, donor_jaws):
    """Regenerate the synthetic fixture corpus."""
    cfg = _load_cfg(ctx)
    manifest = generate_fixture_corpus(out_dir, seed=cfg.seed, population=population,
                                       donor_jaws=donor_jaws)
    click.echo(json.dumps({k: v for k, v in manifest.items() if k != "case"},
                          indent=2, sort_keys=True))


if __name__ == "__main__":
    main()
