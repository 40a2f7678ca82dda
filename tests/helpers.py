"""Test-only helpers: simple solids, a mirrored mesh, a moved point cloud,
a probability-file writer, the registration round trip's pose ranges, an
arch spec at scanner resolution, a per-face centroid oracle, a traced
memory peak and a nearest-point search along a spline. The pipeline never
needs them."""

import json
import struct
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np

from crownfit.labels import _PROB_MAGIC
from crownfit.mesh import GINGIVA, LabeledMesh, PointCloud
from crownfit.synth import ArchSpec, PerturbSpec


def fdi_jaw(fdi: int) -> str:
    return "Upper" if fdi // 10 in (1, 2) else "Lower"


def make_box(center, half_extents) -> LabeledMesh:
    """Axis-aligned watertight box (12 triangles, outward winding)."""
    c = np.asarray(center, dtype=np.float64)
    e = np.asarray(half_extents, dtype=np.float64)
    corners = np.array(
        [[sx, sy, sz] for sx in (-1, 1) for sy in (-1, 1) for sz in (-1, 1)],
        dtype=np.float64,
    )
    vertices = c + corners * e
    faces = np.array(
        [
            [0, 1, 3], [0, 3, 2],   # x-
            [4, 6, 7], [4, 7, 5],   # x+
            [0, 4, 5], [0, 5, 1],   # y-
            [2, 3, 7], [2, 7, 6],   # y+
            [0, 2, 6], [0, 6, 4],   # z-
            [1, 5, 7], [1, 7, 3],   # z+
        ],
        dtype=np.int64,
    )
    return LabeledMesh(vertices, faces)


def make_uv_sphere(center, radius: float, n_lat: int = 24, n_lon: int = 32) -> LabeledMesh:
    """Watertight UV sphere with outward winding."""
    c = np.asarray(center, dtype=np.float64)
    verts = [c + np.array([0.0, 0.0, radius])]
    for i in range(1, n_lat):
        theta = np.pi * i / n_lat
        for j in range(n_lon):
            phi = 2 * np.pi * j / n_lon
            verts.append(
                c + radius * np.array(
                    [np.sin(theta) * np.cos(phi), np.sin(theta) * np.sin(phi), np.cos(theta)]
                )
            )
    verts.append(c + np.array([0.0, 0.0, -radius]))
    vertices = np.asarray(verts)
    last = len(vertices) - 1

    def ring(i, j):
        return 1 + (i - 1) * n_lon + (j % n_lon)

    faces = []
    for j in range(n_lon):
        faces.append((0, ring(1, j), ring(1, j + 1)))
    for i in range(1, n_lat - 1):
        for j in range(n_lon):
            a, b = ring(i, j), ring(i, j + 1)
            d, e2 = ring(i + 1, j), ring(i + 1, j + 1)
            faces.append((a, d, e2))
            faces.append((a, e2, b))
    for j in range(n_lon):
        faces.append((last, ring(n_lat - 1, j + 1), ring(n_lat - 1, j)))
    return LabeledMesh(vertices, np.asarray(faces, dtype=np.int64))


def mirror_x(mesh: LabeledMesh) -> LabeledMesh:
    """Mirror across the sagittal plane (x -> -x), keeping outward winding."""
    v = mesh.vertices.copy()
    v[:, 0] *= -1.0
    n = None
    if mesh.vertex_normals is not None:
        n = mesh.vertex_normals.copy()
        n[:, 0] *= -1.0
    return LabeledMesh(v, mesh.faces[:, [0, 2, 1]], n, mesh.face_labels)


def transformed_cloud(cloud: PointCloud, transform) -> PointCloud:
    """``cloud`` moved by the rigid ``transform``, normals rotated."""
    n = None if cloud.normals is None else cloud.normals @ transform.rotation.T
    return PointCloud(transform.apply(cloud.points), n)


def save_probabilities(probs: np.ndarray, path) -> None:
    """Write the (n_faces, n_classes) matrix ``probs`` in the JSON (``.json``
    suffix) or binary form ``load_probabilities`` reads."""
    path = Path(path)
    n_faces, n_classes = probs.shape
    if path.suffix == ".json":
        payload = {"faces": n_faces, "classes": n_classes, "rows": probs.tolist()}
        path.write_text(json.dumps(payload))
        return
    header = _PROB_MAGIC + struct.pack("<II", n_faces, n_classes)
    path.write_bytes(header + probs.astype("<f4").tobytes())


def registration_perturb(seed: int = 0) -> PerturbSpec:
    """Round-trip ranges: up to +-180 deg about z and +-20 mm translation."""
    return PerturbSpec((0.0, 0.0, 180.0), (20.0, 20.0, 20.0), (1.0, 1.0), seed)


def at_resolution(spec: ArchSpec, factor: int) -> ArchSpec:
    """``spec`` meshed ``factor`` times finer along and across the arch: at
    4x a full arch has about 115k faces, a scanner mesh's size."""
    return replace(spec, cells_per_mm=factor * spec.cells_per_mm,
                   cross_cells=factor * spec.cross_cells)


def face_accumulated_centroids(mesh: LabeledMesh, labels) -> dict:
    """Area-weighted centroid per tooth class of ``labels``, accumulated one
    face at a time: an oracle independent of ``extract_tooth_centroids``."""
    sums, areas = {}, {}
    for face, cls in zip(mesh.faces, np.asarray(labels).tolist()):
        if cls == GINGIVA:
            continue
        p0, p1, p2 = mesh.vertices[face]
        area = 0.5 * float(np.linalg.norm(np.cross(p1 - p0, p2 - p0)))
        sums[cls] = sums.get(cls, 0.0) + (p0 + p1 + p2) / 3.0 * area
        areas[cls] = areas.get(cls, 0.0) + area
    return {cls: sums[cls] / areas[cls] for cls in sums}


def traced_peak_mb(fn) -> float:
    """Peak of the memory that ``fn()`` allocates through Python and numpy
    above what was allocated before the call, in MB, from tracemalloc."""
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    tracemalloc.reset_peak()
    before = tracemalloc.get_traced_memory()[0]
    try:
        fn()
        return (tracemalloc.get_traced_memory()[1] - before) / 2**20
    finally:
        if started:
            tracemalloc.stop()


def closest_parameter(spline, point_xy) -> float:
    """Parameter of the point of the 2-D ``spline`` closest to ``point_xy``:
    the nearest of 4,096 samples, refined by 60 golden-section steps on the
    bracket of its two neighbouring samples. The reference for the knot that
    alignment reads the preparation's frame at."""
    p = np.asarray(point_xy, dtype=np.float64).reshape(2)
    ts = np.linspace(spline.x[0], spline.x[-1], 4096)
    i = int(np.argmin(np.sum((spline(ts) - p) ** 2, axis=1)))
    a, b = ts[max(0, i - 1)], ts[min(len(ts) - 1, i + 1)]
    gr = (np.sqrt(5.0) - 1.0) / 2.0
    c, d = b - gr * (b - a), a + gr * (b - a)
    for _ in range(60):
        if np.sum((spline(c) - p) ** 2) < np.sum((spline(d) - p) ** 2):
            b = d
        else:
            a = c
        c, d = b - gr * (b - a), a + gr * (b - a)
    return float((a + b) / 2.0)
