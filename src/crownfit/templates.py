"""Canonical template construction: population centroid curve, master
selection, and derived partial templates.

The library holds 8 templates keyed by ``template_key``: one master mesh per
jaw plus six partials (jaw x Left/Right/Center) cropped from the masters,
built as a dict in that order. A saved library is a directory of
``<template key>.ply`` files, and ``load_template`` reads one back. The
store of the templates' registration clouds belongs to registration
(``registration.store_prepared_templates``).
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from .errors import DegenerateGeometryError
from .mesh import GINGIVA, LabeledMesh
from .meshio import load_mesh, save_mesh
from .spatial import SpatialIndex

# which tooth classes each derived partial template keeps, and each partial
# scan covers (``synth.coverage_classes``)
DEFAULT_CUT_SPECS = {
    "Left": tuple(range(9, 17)),            # left incisors through molars
    "Right": tuple(range(1, 9)),            # right incisors through molars
    "Center": (1, 2, 3, 9, 10, 11),         # incisors and canines, both sides
}
GINGIVA_MARGIN_MM = 2.0
SIDES = ("Left", "Right", "Center")
JAWS = ("Upper", "Lower")


def template_key(jaw: str, side: str | None) -> str:
    """``master_<jaw>`` or ``partial_<jaw>_<side>``, lower case: a template's
    name in the library, in reports, in the store and in its PLY file name."""
    return f"master_{jaw.lower()}" if side is None else f"partial_{jaw.lower()}_{side.lower()}"


def extract_tooth_centroids(scan: LabeledMesh) -> dict[int, np.ndarray]:
    """Area-weighted centroid per labeled class (gingiva excluded)."""
    if scan.face_labels is None or not np.any(scan.face_labels > GINGIVA):
        raise ValueError("scan carries no tooth labels")
    areas = scan.face_areas()
    out = {}
    for cls in np.unique(scan.face_labels):
        faces = np.nonzero(scan.face_labels == cls)[0]
        if cls != GINGIVA and areas[faces].sum() > 0:
            out[int(cls)] = scan.centroid(faces)
    return out


def build_average_curve(scans: list[LabeledMesh]) -> dict[int, np.ndarray]:
    """Population-mean tooth centroid per class id: the arithmetic mean of
    per-scan centroids over scans containing each class."""
    if not scans:
        raise ValueError("no scans given")
    sums: dict[int, np.ndarray] = {}
    counts: dict[int, int] = {}
    for scan in scans:
        for cls, c in extract_tooth_centroids(scan).items():
            if not 1 <= cls <= 16:
                continue
            sums[cls] = sums.get(cls, 0.0) + c
            counts[cls] = counts.get(cls, 0) + 1
    return {cls: sums[cls] / counts[cls] for cls in sums}


def select_canonical(scans: list[LabeledMesh], curve: dict[int, np.ndarray]) -> int:
    """Index of the scan minimizing the mean centroid distance to the curve.

    The distance sums over classes present in both the scan and the curve and
    is normalized by the shared-class count so partial dentitions compete
    fairly; ties break to the lowest index.
    """
    best_idx = None
    best_val = np.inf
    for i, scan in enumerate(scans):
        cents = extract_tooth_centroids(scan)
        shared = [cls for cls in cents if cls in curve]
        if not shared:
            raise ValueError(f"scan {i} shares no class with the curve")
        val = np.mean([np.linalg.norm(cents[cls] - curve[cls]) for cls in shared])
        if val < best_val - 1e-15:
            best_val = val
            best_idx = i
    return best_idx


def derive_partials(master: LabeledMesh, side: str) -> LabeledMesh:
    """Crop a partial template: faces of the side's ``DEFAULT_CUT_SPECS``
    classes plus nearby gingiva.

    Gingiva faces are kept when their centroid lies within GINGIVA_MARGIN_MM
    of any kept tooth face vertex. Coordinates are preserved exactly.
    """
    cut_spec = DEFAULT_CUT_SPECS[side]
    if master.face_labels is None:
        raise ValueError("master template carries no labels")
    labels = master.face_labels
    tooth_mask = np.isin(labels, cut_spec)
    if not tooth_mask.any():
        raise DegenerateGeometryError(f"cut spec {sorted(cut_spec)} selects no tooth faces")
    tooth_vertices = master.vertices[np.unique(master.faces[tooth_mask])]
    index = SpatialIndex(tooth_vertices)
    gingiva_mask = labels == GINGIVA
    keep = tooth_mask.copy()
    if gingiva_mask.any():
        _, dist = index.nearest(master.face_centroids()[gingiva_mask])
        near = np.zeros(master.n_faces, dtype=bool)
        near[np.nonzero(gingiva_mask)[0][dist <= GINGIVA_MARGIN_MM]] = True
        keep |= near
    return master.submesh(keep)


def build_template_library(
    upper_scans: list[LabeledMesh],
    lower_scans: list[LabeledMesh],
) -> dict:
    """Template key -> mesh: the canonical masters, selected against the
    shared average curve, each followed by the three partials cropped from
    it."""
    curve = build_average_curve(upper_scans + lower_scans)
    meshes = {}
    for jaw, scans in zip(JAWS, (upper_scans, lower_scans)):
        master = scans[select_canonical(scans, curve)]
        meshes[template_key(jaw, None)] = master
        for side in SIDES:
            meshes[template_key(jaw, side)] = derive_partials(master, side)
    return meshes


def save_template_library(library: dict, directory) -> None:
    """Write each template of ``library`` as ``<template key>.ply``."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    for key, mesh in library.items():
        save_mesh(mesh, directory / f"{key}.ply", "PLY")


def load_template(directory, key: str) -> LabeledMesh:
    """Template ``key`` of the library saved in ``directory``."""
    return load_mesh(Path(directory) / f"{key}.ply", "PLY")
