"""Input generation for the crownfit benchmark.

Every input is written to disk before a measured process starts: the fixture
corpus (template library, crown library, donor-jaw store and config, from
``generate_fixture_corpus``) and, per run, the workload's cases (scan,
antagonist, known pose and ground-truth labels). The corpus is the fixed
library a clinic would ship, so it is built once per source tree from corpus
seed 0 and cached; the cases come from the workload seed.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
from dataclasses import replace
from pathlib import Path

import numpy as np

from crownfit.fixtures import generate_fixture_corpus
from crownfit.meshio import save_mesh
from crownfit.registration import template_key
from crownfit.synth import ArchSpec, PerturbSpec, generate_arch, partial_spec, perturb_pose

CORPUS_SEED = 0
# mesh resolution factor per workload (cells_per_mm and cross_cells scaled)
RESOLUTION = {"arch_2x": 2, "arch_4x": 4}

# rounds of (jaw, coverage, target FDI) case slots per workload. The closed
# loop ends a run only at a round boundary, so every run measures whole
# rounds. Targets are fixed per slot (first molars on full arches and side
# scans, central incisors on center scans) because the crown they retrieve
# sets most of the fitting work; the seed varies the arch and its pose. A
# partial round holds a left and a right side scan and a center scan of each
# jaw; the seed picks which of the two rounds a run starts with.
WORKLOAD_ROUNDS = {
    # lower arches like the demo case (7.7k faces), upper antagonists
    "arch_full": [[("Lower", "full", 36)], [("Lower", "full", 46)]] * 3,
    "arch_partial": [[("Lower", "left", 36), ("Upper", "center", 11),
                      ("Upper", "right", 16), ("Lower", "center", 41)],
                     [("Upper", "left", 26), ("Lower", "center", 31),
                      ("Lower", "right", 46), ("Upper", "center", 21)]],
    # arch_full's case slots at twice the resolution (30k faces); a 2x case
    # takes about 15 s, so four cases cover a run
    "arch_2x": [[("Lower", "full", 36)], [("Lower", "full", 46)]] * 2,
    # one 115k-face lower arch (127k-face antagonist): a case outlasts a run
    "arch_4x": [[("Lower", "full", 36)]],
}
# a case still running after this long is stopped and counted as failed,
# like a request that misses its latency limit; it keeps one run of a
# workload within its time budget when a misrouted scan makes fitting crawl
CASE_LIMIT_S = {"arch_full": 20.0, "arch_partial": 20.0, "arch_2x": 50.0, "arch_4x": 120.0}
WORKLOADS = tuple(WORKLOAD_ROUNDS)


def source_digest(repo: Path) -> str:
    """Hash of the program and this generator: the corpus cache key."""
    h = hashlib.sha256()
    for path in sorted((repo / "src" / "crownfit").glob("*.py")) + [Path(__file__)]:
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def ensure_corpus(repo: Path, cache_root: Path) -> Path:
    """Return the cached corpus directory, building it on first use."""
    corpus = cache_root / f"corpus-{source_digest(repo)}"
    if corpus.exists():
        return corpus
    tmp = cache_root / f"corpus-tmp-{os.getpid()}"
    shutil.rmtree(tmp, ignore_errors=True)
    generate_fixture_corpus(tmp, seed=CORPUS_SEED)
    os.replace(tmp, corpus)
    return corpus


def _scaled(spec: ArchSpec, factor: int) -> ArchSpec:
    return replace(spec, cells_per_mm=spec.cells_per_mm * factor,
                   cross_cells=spec.cross_cells * factor)


def write_case(case_dir: Path, case_id: str, jaw: str, coverage: str, fdi: int,
               arch_seed: int, factor: int) -> dict:
    """Scan with a prepared target, its full antagonist, pose and labels."""
    case_dir.mkdir(parents=True, exist_ok=True)
    if coverage == "full":
        spec = ArchSpec.standard(jaw, "full", prepared=(fdi,), seed=arch_seed,
                                 jitter_sigma=0.3)
    else:
        spec = partial_spec(jaw, coverage, prepared=(fdi,), seed=arch_seed,
                            jitter_sigma=0.3)
    mesh, gt = generate_arch(_scaled(spec, factor))
    # the mild rigid offset of the demo case: scans are metric, so no scale
    pose_spec = replace(PerturbSpec.mild(seed=arch_seed + 1), scale_range=(1.0, 1.0))
    scan, pose = perturb_pose(mesh, pose_spec)
    save_mesh(scan, case_dir / "scan.ply", "PLY")
    (case_dir / "gt_labels.json").write_text(json.dumps(gt.labels.tolist()))

    other = "Upper" if jaw == "Lower" else "Lower"
    ant_spec = ArchSpec.standard(other, "full", seed=arch_seed + 2, jitter_sigma=0.3)
    antagonist, _ = generate_arch(_scaled(ant_spec, factor))
    save_mesh(antagonist, case_dir / "antagonist.ply", "PLY")
    return {
        "id": case_id,
        "fdi": fdi,
        "scan": str(case_dir / "scan.ply"),
        "antagonist": str(case_dir / "antagonist.ply"),
        "gt_labels": str(case_dir / "gt_labels.json"),
        "pose": pose.transform.matrix().tolist(),
        # registration error is measured at the scan's centre, as in the
        # acceptance round trip
        "probe": scan.vertices.mean(axis=0).tolist(),
        "expected_template": template_key(jaw, None if coverage == "full" else coverage),
    }


def write_inputs(repo: Path, work: Path, workload: str, seed: int) -> dict:
    """Write one run's cases and ``manifest.json``, building the corpus on first use."""
    if workload not in WORKLOAD_ROUNDS:
        raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")
    corpus = ensure_corpus(repo, work.parent)
    rng = np.random.default_rng([WORKLOADS.index(workload), seed % 2**63])
    factor = RESOLUTION.get(workload, 1)
    cases = []
    rounds = WORKLOAD_ROUNDS[workload]
    start = seed % len(rounds)
    rounds = rounds[start:] + rounds[:start]
    slots = [slot for r in rounds for slot in r]
    for slot, (jaw, coverage, fdi) in enumerate(slots):
        arch_seed = int(rng.integers(1_000, 1_000_000))
        case_id = f"{slot:02d}-{jaw.lower()}-{coverage}-{fdi}"
        cases.append(write_case(work / "cases" / case_id, case_id, jaw, coverage, fdi,
                                arch_seed, factor))
    manifest = {
        "workload": workload,
        "seed": seed,
        "config": str(corpus / "config.json"),
        "crown_dir": str(corpus / "crowns"),
        "round": len(rounds[0]),
        "case_limit_s": CASE_LIMIT_S[workload],
        "cases": cases,
    }
    (work / "manifest.json").write_text(json.dumps(manifest, indent=1))
    return manifest

