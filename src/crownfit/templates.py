"""Canonical template construction: population centroid curve, master
selection, and derived partial templates.

The library holds one master mesh per jaw plus six partials (jaw x
Left/Right/Center) cropped from the masters, and persists as a directory of
PLY files with a JSON manifest. The directory may also hold each template's
registration cloud (downsampled points, normals and FPFH rows) in
``prepared.npz``, which the manifest keys by the ``voxel`` and ``fpfh_radius``
it was prepared with.
"""

from __future__ import annotations

import json
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
    name in reports, in the store and in its PLY file name."""
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


@dataclass(frozen=True)
class CentroidCurve:
    """Population-mean tooth centroids keyed by class id."""

    means: dict


def build_average_curve(scans: list[LabeledMesh]) -> CentroidCurve:
    """Arithmetic mean of per-scan centroids over scans containing each class."""
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
    means = {cls: sums[cls] / counts[cls] for cls in sums}
    return CentroidCurve(means)


def select_canonical(scans: list[LabeledMesh], curve: CentroidCurve) -> int:
    """Index of the scan minimizing the mean centroid distance to the curve.

    The distance sums over classes present in both the scan and the curve and
    is normalized by the shared-class count so partial dentitions compete
    fairly; ties break to the lowest index.
    """
    best_idx = None
    best_val = np.inf
    for i, scan in enumerate(scans):
        cents = extract_tooth_centroids(scan)
        shared = [cls for cls in cents if cls in curve.means]
        if not shared:
            raise ValueError(f"scan {i} shares no class with the curve")
        val = np.mean([np.linalg.norm(cents[cls] - curve.means[cls]) for cls in shared])
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


@dataclass(frozen=True)
class TemplateLibrary:
    master_upper: LabeledMesh
    master_lower: LabeledMesh
    partials: dict  # (jaw, side) -> LabeledMesh
    # the store of prepared registration clouds of a saved library and the
    # (voxel, fpfh_radius) they were prepared with; None without a store
    prepared_file: Path = None
    prepared_key: tuple = None

    def __post_init__(self):
        missing = [(j, s) for j in JAWS for s in SIDES if (j, s) not in self.partials]
        if missing:
            raise ValueError(f"template library incomplete, missing partials: {missing}")

    def master(self, jaw: str) -> LabeledMesh:
        return self.master_upper if jaw == "Upper" else self.master_lower

    def partial(self, jaw: str, side: str) -> LabeledMesh:
        return self.partials[(jaw, side)]

    def mesh(self, jaw: str, side: str | None) -> LabeledMesh:
        """The master of ``jaw`` when ``side`` is None, else its partial."""
        return self.master(jaw) if side is None else self.partial(jaw, side)

    def prepared_cloud(self, jaw: str, side: str | None) -> tuple:
        """``(PointCloud, FPFH rows)`` of one template, read from the store
        when asked for, so a case holds only the templates it meets."""
        name = template_key(jaw, side)
        with np.load(self.prepared_file) as store:
            return (PointCloud(store[f"{name}.points"], store[f"{name}.normals"]),
                    store[f"{name}.fpfh"])


def build_template_library(
    upper_scans: list[LabeledMesh],
    lower_scans: list[LabeledMesh],
) -> TemplateLibrary:
    """Select canonical masters against the shared average curve, then crop
    the six partial templates."""
    curve = build_average_curve(upper_scans + lower_scans)
    master_upper = upper_scans[select_canonical(upper_scans, curve)]
    master_lower = lower_scans[select_canonical(lower_scans, curve)]
    partials = {}
    for jaw, master in (("Upper", master_upper), ("Lower", master_lower)):
        for side in SIDES:
            partials[(jaw, side)] = derive_partials(master, side)
    return TemplateLibrary(master_upper, master_lower, partials)


MANIFEST_NAME = "templates.json"
MANIFEST_VERSION = 1
PREPARED_NAME = "prepared.npz"


def save_template_library(library: TemplateLibrary, directory) -> None:
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    files = {"master_upper": "master_upper.ply", "master_lower": "master_lower.ply"}
    save_mesh(library.master_upper, directory / files["master_upper"], "PLY")
    save_mesh(library.master_lower, directory / files["master_lower"], "PLY")
    partial_files = {}
    for (jaw, side), mesh in library.partials.items():
        name = f"{template_key(jaw, side)}.ply"
        save_mesh(mesh, directory / name, "PLY")
        partial_files[f"{jaw}/{side}"] = name
    manifest = {
        "version": MANIFEST_VERSION,
        "masters": files,
        "partials": partial_files,
    }
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
    directory = Path(directory)
    manifest = json.loads((directory / MANIFEST_NAME).read_text())
    if manifest.get("version") != MANIFEST_VERSION:
        raise ValueError(f"unsupported template manifest version {manifest.get('version')}")
    masters = {k: load_mesh(directory / v, "PLY") for k, v in manifest["masters"].items()}
    partials = {}
    for key, name in manifest["partials"].items():
        jaw, side = key.split("/")
        partials[(jaw, side)] = load_mesh(directory / name, "PLY")
    # the cut is always DEFAULT_CUT_SPECS: a "cut_specs" entry of an older
    # manifest is not read
    prepared_file = prepared_key = None
    if "prepared" in manifest:
        entry = manifest["prepared"]
        prepared_file = directory / entry["file"]
        prepared_key = (entry["voxel"], entry["fpfh_radius"])
    return TemplateLibrary(masters["master_upper"], masters["master_lower"], partials,
                           prepared_file, prepared_key)
