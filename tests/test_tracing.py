"""The benchmark's span tracer still finds every layer it wraps.

``perfbench/tracing.py`` patches functions by module attribute; a refactor
that drops or renames one of them fails here rather than in a traced run.
"""

import importlib
import importlib.util
from pathlib import Path

from helpers import make_box

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_trace_targets_install_and_restore():
    tracing = load_tracing()
    sites = ([(mod, attr) for mod, attr, _ in tracing.TARGETS]
             + [(mod, "SpatialIndex") for mod in tracing.INDEX_MODULES])
    original = {site: getattr(importlib.import_module(site[0]), site[1]) for site in sites}
    tracer = tracing.Tracer()
    try:
        tracer.install()
        for (mod, attr), value in original.items():
            assert getattr(importlib.import_module(mod), attr) is not value, f"{mod}.{attr}"
        fitting = importlib.import_module("crownfit.fitting")
        fitting.points_inside_mesh([[0.0, 0.0, 0.0]], make_box((0, 0, 0), (1, 1, 1)))
        assert [span[0] for span in tracer.spans] == ["fitting.points_inside_mesh"]
    finally:
        tracer.restore()
    for (mod, attr), value in original.items():
        assert getattr(importlib.import_module(mod), attr) is value, f"{mod}.{attr} not restored"
