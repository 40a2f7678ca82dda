"""Synthetic fixture corpus: template library, crown library with embeddings,
donor-jaw embedding store, and a wired demo case.

Everything is deterministic for a fixed seed; config.json and the manifest
fixtures.json name every file relative to the corpus directory, so the
directory is relocatable.
"""

from __future__ import annotations

import json
from dataclasses import replace
from pathlib import Path

import numpy as np

from .config import PipelineConfig, save_config
from .meshio import save_mesh
from .registration import store_prepared_templates
from .retrieval import geometric_embedding, save_embedding_store
from .synth import (ArchSpec, CrownDims, PerturbSpec, class_to_fdi, generate_arch,
                    generate_crown_fixture, perturb_pose)
from .templates import build_template_library, save_template_library

CROWN_KINDS = {
    "posterior_small": ("bumped_posterior", CrownDims(half_mesial=3.6, half_buccal=3.2, base_height=5.2)),
    "posterior_medium": ("bumped_posterior", CrownDims(half_mesial=4.5, half_buccal=4.0, base_height=6.0)),
    "posterior_large": ("bumped_posterior", CrownDims(half_mesial=5.2, half_buccal=4.6, base_height=6.6)),
    "anterior_small": ("smooth_anterior", CrownDims(half_mesial=3.0, half_buccal=2.6, base_height=5.6)),
    "anterior_medium": ("smooth_anterior", CrownDims(half_mesial=3.6, half_buccal=3.0, base_height=6.2)),
}


def build_crown_library(directory) -> None:
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    manifest = {"templates": {}}
    embeddings, keys = [], []
    for name, (kind, dims) in sorted(CROWN_KINDS.items()):
        mesh, _ = generate_crown_fixture(kind, dims)
        filename = f"{name}.ply"
        save_mesh(mesh, directory / filename, "PLY")
        manifest["templates"][name] = filename
        embeddings.append(geometric_embedding(mesh))
        keys.append({"template": name})
    save_embedding_store(embeddings, keys, directory / "crowns.bin")
    (directory / "crowns.json").write_text(json.dumps(manifest, indent=2, sort_keys=True))


def build_donor_store(path, n_jaws: int, seed: int) -> None:
    embeddings, keys = [], []
    for j in range(n_jaws):
        for jaw in ("Upper", "Lower"):
            spec = ArchSpec.standard(jaw, "full", seed=seed + 100 + j, jitter_sigma=0.35)
            mesh, gt = generate_arch(spec)
            for cls in np.unique(gt.labels).tolist():
                if not 1 <= cls <= 16:
                    continue
                faces = np.nonzero(gt.labels == cls)[0]
                embeddings.append(geometric_embedding(mesh, faces))
                keys.append({"jaw": f"donor_{jaw.lower()}_{j:02d}", "fdi": class_to_fdi(cls, jaw)})
    save_embedding_store(embeddings, keys, Path(path))


def build_demo_case(root: Path, seed: int = 0) -> dict:
    """Lower-jaw scan with prepared molar 36 and its antagonist, written to
    ``root/case``; the returned paths are relative to ``root``."""
    fdi = 36
    directory = root / "case"
    directory.mkdir(parents=True, exist_ok=True)
    spec = ArchSpec.standard("Lower", "full", prepared=(fdi,), seed=seed + 500, jitter_sigma=0.3)
    mesh, gt = generate_arch(spec)
    # rigid pose offset only: scans are metric, scale ranges are for
    # augmentation of training data, not for registration inputs
    pose_spec = replace(PerturbSpec.mild(seed=seed + 501), scale_range=(1.0, 1.0))
    perturbed, pose = perturb_pose(mesh, pose_spec)
    save_mesh(perturbed, directory / "scan.ply", "PLY")
    (directory / "gt_labels.json").write_text(json.dumps(gt.labels.tolist()))

    ant_spec = ArchSpec.standard("Upper", "full", seed=seed + 502, jitter_sigma=0.3)
    ant_mesh, _ = generate_arch(ant_spec)
    save_mesh(ant_mesh, directory / "antagonist.ply", "PLY")
    return {
        "scan": "case/scan.ply",
        "antagonist": "case/antagonist.ply",
        "target_fdi": fdi,
        "pose": {"matrix": pose.transform.matrix().tolist(), "scale": pose.scale},
    }


def generate_fixture_corpus(out_dir, seed: int = 0, population: int = 4,
                            donor_jaws: int = 6) -> dict:
    """Write the full corpus and return its manifest, ``fixtures.json``:
    every path in it is relative to ``out_dir``."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)

    upper = [generate_arch(ArchSpec.standard("Upper", "full", seed=seed + i, jitter_sigma=0.3))[0]
             for i in range(population)]
    lower = [generate_arch(ArchSpec.standard("Lower", "full", seed=seed + i, jitter_sigma=0.3))[0]
             for i in range(population)]
    library = build_template_library(upper, lower)
    save_template_library(library, out / "templates")

    build_crown_library(out / "crowns")
    build_donor_store(out / "jaws.bin", n_jaws=donor_jaws, seed=seed)
    case = build_demo_case(out, seed=seed)

    # smoothness tuned on a held-out validation arch, then applied unchanged
    from .labels import corrupt_labels, tune_smoothness
    from .mesh import NUM_CLASSES

    base = PipelineConfig()
    val_mesh, val_gt = generate_arch(
        ArchSpec.standard("Lower", "full", seed=seed + 900, jitter_sigma=0.3))
    val_probs = corrupt_labels(val_gt.labels, NUM_CLASSES, base.segmentation.flip_fraction,
                               base.segmentation.softness, seed=seed + 901)
    smoothness = tune_smoothness([(val_mesh, val_probs, val_gt.labels)], base.refine)

    config = PipelineConfig(
        seed=seed,
        output_dir="out",
        template_dir="templates",
        refine=replace(base.refine, smoothness=smoothness),
        retrieval=replace(base.retrieval, jaw_store="jaws.bin", crown_dir="crowns"),
    )
    save_config(config, out / "config.json")
    # the templates' registration clouds, for the registration this config runs
    store_prepared_templates(library, out / "templates", config.registration)

    manifest = {
        "templates": "templates",
        "crowns": "crowns",
        "jaw_store": "jaws.bin",
        "config": "config.json",
        "case": case,
        "seed": seed,
    }
    (out / "fixtures.json").write_text(json.dumps(manifest, indent=2, sort_keys=True))
    return manifest
