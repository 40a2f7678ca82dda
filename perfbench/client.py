"""The measured process: one closed-loop client calling ``run_pipeline``.

It times its own set-up (cold import of ``crownfit.pipeline`` with numpy and
scipy, plus loading the config), then runs the manifest's cases one after
another, each into its own output directory, until ``--seconds`` have passed
and a round of the workload's case mix is complete (at least one round).
With ``--cases`` it runs exactly those cases instead, which is how a traced
run repeats the cases of the untraced run before it.
``--setup-only`` measures set-up and exits; ``--import`` adds the modules the
first case imported lazily, whose cost set-up also carries. The result is
written as JSON to ``--result``.
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import sys  # noqa: E402
from dataclasses import replace  # noqa: E402
from pathlib import Path  # noqa: E402

BLAS_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


class CaseTimeout(Exception):
    """Raised into a case that outlives the manifest's ``case_limit_s``."""


def environment() -> dict:
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": {k: os.environ.get(k) for k in BLAS_ENV},
        "machine": platform.machine(),
    }


def set_up(config_path: str, extra_modules=()):
    """Cold import and config load, as every ``crownfit`` invocation pays."""
    import crownfit.pipeline  # noqa: F401
    from crownfit.config import load_config

    config = load_config(config_path)
    for name in extra_modules:
        importlib.import_module(name)
    return config, time.perf_counter() - T_START


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--manifest", required=True)
    ap.add_argument("--result", required=True)
    ap.add_argument("--out", default=None)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--cases", default=None, help="comma-separated case ids, in order")
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--import", dest="modules", default="")
    args = ap.parse_args()

    manifest = json.loads(Path(args.manifest).read_text())
    modules = [m for m in args.modules.split(",") if m]
    config, setup_s = set_up(manifest["config"], modules)
    result = {"setup_s": setup_s}
    if args.setup_only:
        Path(args.result).write_text(json.dumps(result))
        return

    from crownfit.pipeline import run_pipeline

    by_id = {case["id"]: case for case in manifest["cases"]}
    order = args.cases.split(",") if args.cases else None
    tracer = None
    if args.trace:
        sys.path.insert(0, str(Path(__file__).resolve().parent))
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()

    out_root = Path(args.out)
    limit = manifest["case_limit_s"]

    def expire(signum, frame):
        raise CaseTimeout(f"stopped at the {limit:g} s case limit")

    signal.signal(signal.SIGALRM, expire)
    executions = []
    before = set(sys.modules)
    loop_start = time.perf_counter()
    try:
        k = 0
        while True:
            if order is not None:
                if k == len(order):
                    break
                case = by_id[order[k]]
            else:
                if (k > 0 and k % manifest["round"] == 0
                        and time.perf_counter() - loop_start >= args.seconds):
                    break
                case = manifest["cases"][k % len(manifest["cases"])]
            out_dir = out_root / f"{k:03d}"
            run_config = replace(config, output_dir=str(out_dir))
            error = None
            t0, c0 = time.perf_counter(), time.process_time()
            signal.setitimer(signal.ITIMER_REAL, limit)
            try:
                if tracer is None:
                    run_pipeline(case["scan"], case["fdi"], run_config,
                                 antagonist_path=case["antagonist"])
                else:
                    tracer.case = k
                    tracer.span("pipeline.run_pipeline", run_pipeline, case["scan"],
                                case["fdi"], run_config, antagonist_path=case["antagonist"])
            except Exception as exc:  # a failed case is counted, the loop goes on
                error = f"{type(exc).__name__}: {exc}"
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
            wall = time.perf_counter() - t0
            executions.append({"k": k, "id": case["id"], "out": str(out_dir),
                               "wall_s": wall, "cpu_s": time.process_time() - c0,
                               "error": error})
            if k == 0:
                lazy = sorted(set(sys.modules) - before)
            k += 1
        loop_wall = time.perf_counter() - loop_start
    finally:
        if tracer is not None:
            tracer.restore()

    result.update({
        "loop_wall_s": loop_wall,
        "executions": executions,
        "lazy_modules": lazy,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "environment": environment(),
    })
    if tracer is not None:
        result["spans"] = tracer.spans
    Path(args.result).write_text(json.dumps(result))


if __name__ == "__main__":
    main()
