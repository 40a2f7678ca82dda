"""Canonical template construction: population centroid curve, master
selection, and derived partial templates.

The library holds 8 templates keyed by ``template_key``: one master mesh per
jaw plus six partials (jaw x Left/Right/Center) cropped from the masters. It
persists as a directory of PLY files with a JSON manifest; a loaded library
reads a template's PLY only when that mesh is asked for. The directory may
also hold each template's registration cloud (downsampled points, normals
and FPFH rows) in ``prepared.npz``, which the manifest keys by the ``voxel``
and ``fpfh_radius`` it was prepared with.
"""

from __future__ import annotations

import json
from collections.abc import Mapping
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import DegenerateGeometryError
from .mesh import GINGIVA, LabeledMesh, PointCloud
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


TEMPLATE_KEYS = tuple(template_key(jaw, side) for jaw in JAWS for side in (None, *SIDES))


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


class _PlyMeshes(Mapping):
    """Template key -> LabeledMesh of a saved library, each PLY read on first
    access and kept."""

    def __init__(self, files: dict):
        self._files = files
        self._loaded = {}

    def __getitem__(self, key):
        if key not in self._loaded:
            self._loaded[key] = load_mesh(self._files[key], "PLY")
        return self._loaded[key]

    def __iter__(self):
        return iter(self._files)

    def __len__(self):
        return len(self._files)


@dataclass(frozen=True)
class TemplateLibrary:
    meshes: Mapping  # template key -> LabeledMesh, in TEMPLATE_KEYS order
    # the store of prepared registration clouds of a saved library and the
    # (voxel, fpfh_radius) they were prepared with; None without a store
    prepared_file: Path = None
    prepared_key: tuple = None

    def __post_init__(self):
        if set(self.meshes) != set(TEMPLATE_KEYS):
            raise ValueError(f"template library holds {sorted(self.meshes)}, "
                             f"not the templates {list(TEMPLATE_KEYS)}")
        if list(self.meshes) != list(TEMPLATE_KEYS):
            object.__setattr__(self, "meshes", {key: self.meshes[key] for key in TEMPLATE_KEYS})

    def prepared_cloud(self, key: str) -> tuple:
        """``(PointCloud, FPFH rows)`` of one template, read from the store
        when asked for, so a case holds only the templates it meets."""
        with np.load(self.prepared_file) as store:
            return (PointCloud(store[f"{key}.points"], store[f"{key}.normals"]),
                    store[f"{key}.fpfh"])


def build_template_library(
    upper_scans: list[LabeledMesh],
    lower_scans: list[LabeledMesh],
) -> TemplateLibrary:
    """Select canonical masters against the shared average curve, then crop
    the six partial templates."""
    curve = build_average_curve(upper_scans + lower_scans)
    meshes = {}
    for jaw, scans in zip(JAWS, (upper_scans, lower_scans)):
        master = scans[select_canonical(scans, curve)]
        meshes[template_key(jaw, None)] = master
        for side in SIDES:
            meshes[template_key(jaw, side)] = derive_partials(master, side)
    return TemplateLibrary(meshes)


MANIFEST_NAME = "templates.json"
MANIFEST_VERSION = 1
PREPARED_NAME = "prepared.npz"


def save_template_library(library: TemplateLibrary, directory) -> None:
    """Write each template as ``<template key>.ply`` and the manifest, which
    lists the masters by key and the partials by ``<jaw>/<side>``."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    manifest = {"version": MANIFEST_VERSION, "masters": {}, "partials": {}}
    for jaw in JAWS:
        for side in (None, *SIDES):
            key = template_key(jaw, side)
            save_mesh(library.meshes[key], directory / f"{key}.ply", "PLY")
            if side is None:
                manifest["masters"][key] = f"{key}.ply"
            else:
                manifest["partials"][f"{jaw}/{side}"] = f"{key}.ply"
    (directory / MANIFEST_NAME).write_text(json.dumps(manifest, indent=2, sort_keys=True))


def save_prepared_clouds(directory, key: tuple, clouds: dict) -> None:
    """Store ``clouds`` (template key -> (PointCloud with normals, FPFH rows))
    in ``prepared.npz`` next to a saved library and record ``key``, the
    ``(voxel, fpfh_radius)`` they were prepared with, in its manifest."""
    directory = Path(directory)
    arrays = {}
    for name, (cloud, fpfh) in clouds.items():
        arrays.update({f"{name}.points": cloud.points, f"{name}.normals": cloud.normals,
                       f"{name}.fpfh": fpfh})
    np.savez(directory / PREPARED_NAME, **arrays)
    path = directory / MANIFEST_NAME
    manifest = json.loads(path.read_text())
    manifest["prepared"] = {"file": PREPARED_NAME, "voxel": key[0], "fpfh_radius": key[1]}
    path.write_text(json.dumps(manifest, indent=2, sort_keys=True))


def load_template_library(directory) -> TemplateLibrary:
    """The library saved in ``directory``; a template's PLY is read when its
    mesh is first asked for, so a case whose templates come from the store
    reads none."""
    directory = Path(directory)
    manifest = json.loads((directory / MANIFEST_NAME).read_text())
    if manifest.get("version") != MANIFEST_VERSION:
        raise ValueError(f"unsupported template manifest version {manifest.get('version')}")
    files = dict(manifest["masters"])
    for jaw_side, name in manifest["partials"].items():
        files[template_key(*jaw_side.split("/"))] = name
    # TEMPLATE_KEYS order first, so the library keeps the mapping unread
    files = {key: files[key] for key in TEMPLATE_KEYS if key in files} | files
    meshes = _PlyMeshes({key: directory / name for key, name in files.items()})
    # the cut is always DEFAULT_CUT_SPECS: a "cut_specs" entry of an older
    # manifest is not read
    prepared_file = prepared_key = None
    if "prepared" in manifest:
        entry = manifest["prepared"]
        prepared_file = directory / entry["file"]
        prepared_key = (entry["voxel"], entry["fpfh_radius"])
    return TemplateLibrary(meshes, prepared_file, prepared_key)
