"""crownfit benchmark: closed-loop ``run_pipeline`` cases on one workload.

    python3 perfbench/run.py --workload arch_full --seed 1 --seconds 40 --trace 0

Workloads: ``arch_full``, ``arch_2x``, ``arch_partial`` and ``arch_4x`` (see
inputs.py and context.json; BENCHMARK.json lists the first two). Run from the
root of a source tree. One run:

1. writes the workload's inputs for ``--seed`` to disk (inputs.py);
2. starts the measured process (client.py): a single-threaded client with
   BLAS threads pinned to 1 that runs one case after another for
   ``--seconds``, then to the end of the current round of cases;
3. with ``--trace 0``, measures set-up in separate fresh processes and
   reports their median; with ``--trace 1``, repeats the same cases in a
   fresh traced process (tracing.py), checks that the traced outputs are
   byte-identical to the untraced ones and reports per-layer metrics from
   the spans, plus the tracing overhead;
4. checks every case's outputs, prints each metric with its unit and a
   reason for every failed case, and ends with one JSON line holding the
   metrics ``BENCHMARK.json`` lists for the mode.

The fixture corpus is cached and the spans of traced runs are kept under
``.perfbench_work``; everything else a run writes is removed.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SETUP_PROBES = 5
RUN_BUDGET_S = 170.0          # every child is killed past this point
ROT_TOL_DEG = 2.0             # registration tolerance of the acceptance round trip
TRANS_TOL_MM = 0.5
STAGES = ("classify", "register", "refine", "retrieve", "align", "fit")
# every end-to-end metric a run prints; BENCHMARK.json bounds the steady ones
E2E_UNITS = {"setup_s": "s", "case_s_p50": "s", "cases_per_min": "1/min",
             "peak_rss_mb": "MB", "fail_ratio": "ratio", "rot_err_deg_p50": "deg",
             "dsc_p50": "ratio", "fit_residual_mm3_max": "mm3"}


class RunError(Exception):
    """The benchmark could not produce a result."""


def child_env(repo: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(repo / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    for key in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[key] = "1"
    return env


def run_client(repo: Path, deadline: float, result: Path, *args: str) -> dict:
    cmd = [sys.executable, str(HERE / "client.py"), "--result", str(result), *args]
    try:
        proc = subprocess.run(cmd, cwd=repo, env=child_env(repo), capture_output=True,
                              text=True, timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired as exc:
        raise RunError(f"client exceeded the {RUN_BUDGET_S:.0f} s run budget") from exc
    if proc.returncode != 0:
        raise RunError(f"client exited with {proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads(result.read_text())


# ---------------------------------------------------------------- checks


class Checker:
    """Output check of one case.

    Every reason makes the case fail. A case that the program reports as
    complete but whose outputs contradict that also makes the run incorrect;
    raises, time-outs and accuracy misses are failures, not incorrectness,
    as the acceptance criteria allow a share of registration misses.
    """

    def __init__(self, manifest: dict):
        import numpy as np
        from crownfit.mesh import RigidTransform
        from crownfit.meshio import load_mesh

        self.np, self.rigid, self.load_mesh = np, RigidTransform, load_mesh
        crown_dir = Path(manifest["crown_dir"])
        files = json.loads((crown_dir / "crowns.json").read_text())["templates"]
        self.crown_faces = {k: load_mesh(crown_dir / v).n_faces for k, v in files.items()}

    def _transform(self, matrix):
        m = self.np.asarray(matrix, dtype=float)
        return self.rigid(m[:3, :3], m[:3, 3])

    def check(self, case: dict, execution: dict) -> dict:
        out = Path(execution["out"])
        reasons, invalid, quality = [], [], {}
        if execution["error"]:
            reasons.append(f"raised {execution['error']}")
        try:
            report = json.loads((out / "report.json").read_text())
        except (OSError, ValueError):
            report = {"stages": [], "error": "no readable report.json"}
        stages = {s["name"]: s for s in report["stages"]}
        missing = [s for s in STAGES if s not in stages]
        if missing:
            reasons.append(f"stages missing from report.json: {missing}")
            if not execution["error"] and report["error"] is None:
                invalid.append(reasons[-1])
        if "register" in stages:
            reg = stages["register"]
            if reg["chosen_template"] != case["expected_template"]:
                reasons.append(f"routed to {reg['chosen_template']}, "
                               f"expected {case['expected_template']}")
            got = self._transform(reg["transform"])
            ideal = self._transform(case["pose"]).inverse()
            probe = self.np.asarray(case["probe"])
            rot = got.rotation_distance_deg(ideal)
            trans = float(self.np.linalg.norm(got.apply(probe) - ideal.apply(probe)))
            quality.update(rot_err_deg=rot, trans_err_mm=trans)
            if rot > ROT_TOL_DEG or trans > TRANS_TOL_MM:
                reasons.append(f"registration {rot:.3f} deg / {trans:.3f} mm off the "
                               f"known pose (tolerance {ROT_TOL_DEG} deg / {TRANS_TOL_MM} mm)")
        if "refine" in stages:
            quality["dsc"] = stages["refine"]["metrics"]["macro"]["dsc"]
        if "fit" in stages:
            fit = stages["fit"]
            quality["residual_mm3"] = fit["residual_neighbor_volume"]
            quality["scale_iters"] = sum(1 for t in fit["scale_trace"]
                                         if t["phase"] in ("shrink", "grow"))
            quality["occlusal_rounds"] = len(fit["occlusal_trace"])
            expected = self.crown_faces[stages["retrieve"]["template_id"]]
            fitted = out / "fitted_crown.ply"
            faces = self.load_mesh(fitted).n_faces if fitted.exists() else None
            if faces != expected:
                reasons.append(f"fitted_crown.ply has {faces} faces, crown has {expected}")
                if not execution["error"] and report["error"] is None:
                    invalid.append(reasons[-1])
        quality["stage_s"] = {name: stages[name]["seconds"] for name in stages}
        return {"reasons": reasons, "invalid": invalid, "quality": quality}


def timed_out(execution: dict) -> bool:
    return (execution["error"] or "").startswith("CaseTimeout")


def normalized_outputs(out: Path) -> dict:
    """PLY bytes plus report.json with timing fields zeroed."""
    files = {p.name: p.read_bytes() for p in sorted(out.glob("*.ply"))}
    report = json.loads((out / "report.json").read_text())
    for stage in report["stages"]:
        stage["seconds"] = 0.0
    report["outputs"] = {k: Path(v).name for k, v in report["outputs"].items()}
    files["report.json"] = json.dumps(report, sort_keys=True).encode()
    return files


# ---------------------------------------------------------------- metrics


def end_to_end(setup: list, client: dict, checks: list) -> dict:
    walls = [e["wall_s"] for e in client["executions"]]
    passed = sum(1 for c in checks if not c["reasons"])
    quality = [c["quality"] for c in checks]

    def median_of(key, missing):
        values = [q[key] for q in quality if key in q]
        return statistics.median(values) if values else missing

    return {
        "setup_s": statistics.median(setup),
        "case_s_p50": statistics.median(walls),
        "cases_per_min": passed / (client["loop_wall_s"] / 60.0),
        "peak_rss_mb": client["peak_rss_mb"],
        "fail_ratio": (len(checks) - passed) / len(checks),
        "rot_err_deg_p50": median_of("rot_err_deg", float("nan")),
        # no refined labels at all scores as no overlap
        "dsc_p50": median_of("dsc", 0.0),
        "fit_residual_mm3_max": max(q.get("residual_mm3", 0.0) for q in quality),
    }


def self_times(spans: list) -> list:
    """Span duration minus the time its child spans cover."""
    own = [end - start for _, start, end, _, _, _ in spans]
    for _, start, end, parent, _, _ in spans:
        if parent is not None:
            own[parent] -= end - start
    return own


def per_layer(traced: dict, checks: list, untraced_walls: list) -> dict:
    spans = traced["spans"]
    own = self_times(spans)
    n = len(traced["executions"])
    calls, secs, attrs = {}, {}, {}
    for span, t in zip(spans, own):
        name, a = span[0], span[5]
        calls[name] = calls.get(name, 0) + 1
        secs[name] = secs.get(name, 0.0) + t
        for key, value in a.items():
            if isinstance(value, (int, float)):
                attrs[(name, key)] = attrs.get((name, key), 0) + value
        if "error" in a:
            attrs[(name, "errors")] = attrs.get((name, "errors"), 0) + 1

    def c(name):
        return calls.get(name, 0) / n

    def s(name):
        return secs.get(name, 0.0) / n

    def a(name, key):
        return attrs.get((name, key), 0) / n

    stage_s = [q["quality"]["stage_s"] for q in checks]
    walls = [e["wall_s"] for e in traced["executions"]]
    m = {f"pipeline.{st}_s": sum(x.get(st, 0.0) for x in stage_s) / n for st in STAGES}
    m["pipeline.outside_stages_s"] = sum(
        w - sum(x.values()) for w, x in zip(walls, stage_s)) / n
    load_s = secs.get("meshio.load_mesh", 0.0)
    m.update({
        "meshio.load_mesh_calls": c("meshio.load_mesh"),
        "meshio.load_mesh_s": s("meshio.load_mesh"),
        "meshio.load_mesh_mb_per_s":
            attrs.get(("meshio.load_mesh", "bytes"), 0) / 1e6 / load_s if load_s else 0.0,
        "meshio.save_mesh_s": s("meshio.save_mesh"),
        "templates.load_template_library_calls": c("templates.load_template_library"),
        "templates.load_template_library_s": s("templates.load_template_library"),
        "mesh.estimate_vertex_normals_s": s("mesh.estimate_vertex_normals"),
        "mesh.voxel_downsample_calls": c("mesh.voxel_downsample"),
        "mesh.is_watertight_calls": c("mesh.is_watertight"),
        "mesh.is_watertight_s": s("mesh.is_watertight"),
        "features.compute_fpfh_calls": c("features.compute_fpfh"),
        "features.compute_fpfh_s": s("features.compute_fpfh"),
        "features.compute_fpfh_points": a("features.compute_fpfh", "points"),
        "registration.coarse_register_calls": c("registration.coarse_register"),
        "registration.coarse_register_s": s("registration.coarse_register"),
        "registration.ransac_trials": a("registration.coarse_register", "trials"),
        "registration.coarse_failures": a("registration.coarse_register", "errors"),
        "registration.fine_register_calls": c("registration.fine_register"),
        "registration.fine_register_s": s("registration.fine_register"),
        "registration.icp_iters": a("registration.fine_register", "iters"),
        # attempts whose result is returned (one per routed registration)
        # over the coarse+fine attempts made
        "registration.kept_attempt_ratio":
            (calls.get("registration.register_with_routing", 0)
             - attrs.get(("registration.register_with_routing", "errors"), 0))
            / max(1, calls.get("registration.coarse_register", 0)),
        "labels.graphcut_refine_s": s("labels.graphcut_refine"),
        "labels.maximum_flow_calls": c("labels.maximum_flow"),
        "labels.maximum_flow_s": s("labels.maximum_flow"),
        "labels.reassign_small_components_s": s("labels.reassign_small_components"),
        "metrics.summarize_s": s("metrics.summarize"),
        "retrieval.load_embedding_index_s": s("retrieval.load_embedding_index"),
        "retrieval.geometric_embedding_calls": c("retrieval.geometric_embedding"),
        "alignment.align_crown_s": s("alignment.align_crown"),
        "fitting.interproximal_adapt_s": s("fitting.interproximal_adapt"),
        "fitting.scale_iters": sum(q["quality"].get("scale_iters", 0) for q in checks) / n,
        "fitting.intersection_volume_calls": c("fitting.intersection_volume"),
        "fitting.points_inside_mesh_calls": c("fitting.points_inside_mesh"),
        "fitting.points_inside_mesh_s": s("fitting.points_inside_mesh"),
        "fitting.inside_test_mpairs": a("fitting.points_inside_mesh", "pairs") / 1e6,
        "fitting.occlusal_correct_s": s("fitting.occlusal_correct"),
        "fitting.occlusal_rounds":
            sum(q["quality"].get("occlusal_rounds", 0) for q in checks) / n,
        "spatial.index_builds": c("spatial.index_build"),
        "spatial.index_build_s": s("spatial.index_build"),
        "trace.overhead_s": statistics.median(walls) - statistics.median(untraced_walls),
    })
    return m


# ---------------------------------------------------------------- run


def benchmark(repo: Path, args, work: Path, deadline: float) -> tuple[dict, dict]:
    sys.path[:0] = [str(repo / "src"), str(HERE)]
    from inputs import write_inputs

    manifest = write_inputs(repo, work, args.workload, args.seed)
    cases = {case["id"]: case for case in manifest["cases"]}
    man = str(work / "manifest.json")
    untraced = run_client(repo, deadline, work / "untraced.json", "--manifest", man,
                          "--out", str(work / "untraced"), "--seconds", str(args.seconds))
    checker = Checker(manifest)
    checks = [checker.check(cases[e["id"]], e) for e in untraced["executions"]]
    info = {"environment": untraced["environment"], "checks": checks,
            "executions": untraced["executions"]}

    if not args.trace:
        setup = [run_client(repo, deadline, work / f"setup{i}.json", "--manifest", man,
                            "--setup-only", "--import", ",".join(untraced["lazy_modules"])
                            )["setup_s"] for i in range(SETUP_PROBES)]
        info["setup_samples"] = setup
        return end_to_end(setup, untraced, checks), info

    # a case stopped at the case limit is not repeated: its outputs end
    # wherever the limit fell, so there is nothing to compare
    completed = [e for e in untraced["executions"] if not timed_out(e)]
    if not completed:
        raise RunError("every case was stopped at the case limit; nothing to trace")
    traced = run_client(repo, deadline, work / "traced.json", "--manifest", man,
                        "--out", str(work / "traced"), "--trace",
                        "--cases", ",".join(e["id"] for e in completed))
    traced_checks = [checker.check(cases[e["id"]], e) for e in traced["executions"]]
    info["differing_outputs"] = [
        e["id"] for e, t in zip(completed, traced["executions"])
        if not timed_out(t)
        and normalized_outputs(Path(e["out"])) != normalized_outputs(Path(t["out"]))]
    layers = per_layer(traced, traced_checks, [e["wall_s"] for e in completed])
    traces = work.parent / "traces"
    traces.mkdir(exist_ok=True)
    (traces / f"{args.workload}-seed{args.seed}.json").write_text(json.dumps({
        "workload": args.workload, "seed": args.seed,
        "environment": traced["environment"],
        "span_fields": ["name", "start", "end", "parent", "case", "attrs"],
        "spans": traced["spans"], "per_layer": layers,
    }))
    return layers, info


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    # a terminated run still kills and waits for its client (subprocess.run
    # does so on any exception) and removes its work directory
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    repo = Path.cwd()
    if not (repo / "src" / "crownfit" / "pipeline.py").is_file():
        print(f"error: no crownfit source tree under {repo}/src", file=sys.stderr)
        return 2
    spec = json.loads((repo / "BENCHMARK.json").read_text())
    listed = spec["per_layer" if args.trace else "end_to_end"]
    units = {**{m["name"]: m["unit"] for m in spec["per_layer"]}, **E2E_UNITS}

    deadline = time.monotonic() + RUN_BUDGET_S
    work_root = repo / ".perfbench_work"
    work = work_root / f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        values, info = benchmark(repo, args, work, deadline)
    except (RunError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    env = info["environment"]
    print(f"# {args.workload} seed={args.seed} trace={args.trace}: python {env['python']}, "
          f"numpy {env['numpy']}, scipy {env['scipy']}, nproc {env['nproc']}, "
          f"BLAS threads {env['blas_threads']}")
    checks = info["checks"]
    failed = sum(1 for c in checks if c["reasons"])
    for e, c in zip(info["executions"], checks):
        q = c["quality"]
        stages = " ".join(f"{k} {v:.2f}" for k, v in q["stage_s"].items())
        print(f"# case {e['k']} {e['id']}: {e['wall_s']:.3f} s, cpu {e['cpu_s']:.3f} s ({stages}), "
              f"registration {q.get('rot_err_deg', float('nan')):.3f} deg / "
              f"{q.get('trans_err_mm', float('nan')):.3f} mm, dsc {q.get('dsc', float('nan')):.4f}, "
              f"fit residual {q.get('residual_mm3', float('nan')):.3g} mm3")
        for reason in c["reasons"]:
            print(f"# FAILED case {e['k']} ({e['id']}): {reason}")
    notes = {"case_s_p50": f"over {len(checks)} cases",
             "fail_ratio": f"{failed} failed of {len(checks)} attempted"}
    if not args.trace:
        notes["setup_s"] = "median of " + ", ".join(f"{s:.4f}" for s in info["setup_samples"])
    else:
        differ = info["differing_outputs"]
        print(f"# traced outputs byte-identical to untraced: {not differ}"
              + (f" (differ: {differ})" if differ else ""))
    for name, value in values.items():
        note = f" ({notes[name]})" if name in notes else ""
        print(f"# {name} = {value:.6g} {units[name]}{note}")

    missing = [m["name"] for m in listed if m["name"] not in values]
    if missing:
        print(f"error: BENCHMARK.json lists metrics the benchmark does not compute: {missing}",
              file=sys.stderr)
        return 1
    correct = not any(c["invalid"] for c in checks) and not info.get("differing_outputs")
    print(json.dumps({
        "correct": correct,
        "attempted": len(checks),
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in listed},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
