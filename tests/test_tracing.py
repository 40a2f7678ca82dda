"""The benchmark's span tracer still finds every layer it wraps.

``perfbench/tracing.py`` patches functions by module attribute; a refactor
that drops or renames one of them, or routes a call around it, fails here
rather than in a traced run.
"""

import importlib
import importlib.util
from dataclasses import replace
from pathlib import Path

from crownfit.config import load_config
from crownfit.fixtures import generate_fixture_corpus
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
        fitting.points_inside_mesh([[0.0, 0.0, 0.0]], make_box((0, 0, 0), (1, 1, 1)),
                                   (0, 0, 1))
        assert [span[0] for span in tracer.spans] == ["fitting.points_inside_mesh"]
    finally:
        tracer.restore()
    for (mod, attr), value in original.items():
        assert getattr(importlib.import_module(mod), attr) is value, f"{mod}.{attr} not restored"


def test_traced_fit_reaches_every_fitting_layer():
    fitting = importlib.import_module("crownfit.fitting")
    crown = make_box((0, 0, 0), (2.0, 2.0, 2.0))
    neighbors = [make_box((x, 0, 0), (1.0, 3.0, 3.0)) for x in (-3.2, 3.2)]
    plate = make_box((0, 0, 2.9), (3.0, 3.0, 1.0))  # 0.1 mm into the crown's top
    tracer = load_tracing().Tracer()
    try:
        tracer.install()
        _, report = fitting.fit_crown(crown, neighbors, plate, fdi=31)
    finally:
        tracer.restore()
    names = [span[0] for span in tracer.spans]
    assert report["mode"] == "anterior"
    for name in ("fitting.interproximal_adapt", "fitting.occlusal_correct",
                 "fitting.points_inside_mesh"):
        assert name in names, name
    assert names.count("fitting.intersection_volume") == 1  # the residual


def test_traced_run_records_every_target(tmp_path):
    root = tmp_path / "corpus"
    case = generate_fixture_corpus(root, seed=0)["case"]
    config = replace(load_config(root / "config.json"), output_dir=str(tmp_path / "out"))
    pipeline = importlib.import_module("crownfit.pipeline")
    tracing = load_tracing()
    tracer = tracing.Tracer()
    try:
        tracer.install()
        pipeline.run_pipeline(root / case["scan"], case["target_fdi"], config,
                              antagonist_path=root / case["antagonist"])
    finally:
        tracer.restore()
    recorded = {span[0] for span in tracer.spans}
    assert case["target_fdi"] == 36
    missing = sorted({name for _, _, name in tracing.TARGETS} - recorded)
    assert not missing, missing
