"""Mesh and point-cloud data types plus basic geometric operations.

All coordinates are millimetres. Types are immutable after construction
(arrays are frozen), so instances are safe to share across threads.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np
from scipy.sparse import csgraph, csr_matrix

from .errors import MeshWarning

GINGIVA = 0
PREPARED = 17
NUM_CLASSES = 18  # 0 gingiva, 1-16 tooth positions, 17 prepared

_UNIT_TOL = 1e-6
_ORTHO_TOL = 1e-9


def _freeze(arr: np.ndarray) -> np.ndarray:
    arr = np.ascontiguousarray(arr)
    arr.flags.writeable = False
    return arr


def _skew(axis: np.ndarray) -> np.ndarray:
    """Cross-product matrix: _skew(a) @ v == np.cross(a, v)."""
    return np.array([[0, -axis[2], axis[1]], [axis[2], 0, -axis[0]], [-axis[1], axis[0], 0]])


@dataclass(frozen=True)
class LabeledMesh:
    """Triangle mesh with optional per-face semantic labels and vertex normals.

    ``face_labels`` values: 0 gingiva, 1-16 tooth position classes, 17 prepared.
    Crown templates reuse the same field for region annotation (101/102/103).
    """

    vertices: np.ndarray
    faces: np.ndarray
    vertex_normals: np.ndarray | None = None
    face_labels: np.ndarray | None = None

    def __post_init__(self):
        v = np.asarray(self.vertices, dtype=np.float64).reshape(-1, 3)
        f = np.asarray(self.faces, dtype=np.int64).reshape(-1, 3)
        object.__setattr__(self, "vertices", _freeze(v))
        object.__setattr__(self, "faces", _freeze(f))
        if f.size and (f.min() < 0 or f.max() >= len(v)):
            raise ValueError("face indices out of range")
        if self.vertex_normals is not None:
            n = np.asarray(self.vertex_normals, dtype=np.float64).reshape(-1, 3)
            if len(n) != len(v):
                raise ValueError("vertex_normals length does not match vertices")
            norms = np.linalg.norm(n, axis=1)
            if n.size and np.any(np.abs(norms - 1.0) > _UNIT_TOL):
                raise ValueError("vertex normals must be unit length within 1e-6")
            object.__setattr__(self, "vertex_normals", _freeze(n))
        if self.face_labels is not None:
            lab = np.asarray(self.face_labels, dtype=np.int64).reshape(-1)
            if len(lab) != len(f):
                raise ValueError("face_labels length does not match faces")
            object.__setattr__(self, "face_labels", _freeze(lab))

    @property
    def n_vertices(self) -> int:
        return len(self.vertices)

    @property
    def n_faces(self) -> int:
        return len(self.faces)

    def face_centroids(self) -> np.ndarray:
        return self.vertices[self.faces].mean(axis=1)

    def face_areas(self) -> np.ndarray:
        tri = self.vertices[self.faces]
        cross = np.cross(tri[:, 1] - tri[:, 0], tri[:, 2] - tri[:, 0])
        return 0.5 * np.linalg.norm(cross, axis=1)

    def face_normals(self) -> np.ndarray:
        """Unit face normals by winding; degenerate faces get a zero normal."""
        tri = self.vertices[self.faces]
        cross = np.cross(tri[:, 1] - tri[:, 0], tri[:, 2] - tri[:, 0])
        norms = np.linalg.norm(cross, axis=1)
        out = np.zeros_like(cross)
        ok = norms > 0
        out[ok] = cross[ok] / norms[ok, None]
        return out

    def centroid(self, faces=None) -> np.ndarray:
        """Area-weighted surface centroid of the mesh (its geometric center),
        or of the faces indexed by ``faces``; the plain mean of their face
        centroids when they have no area."""
        part = self if faces is None else LabeledMesh(self.vertices, self.faces[faces])
        if part.n_faces == 0:
            raise ValueError("empty face set has no centroid")
        areas = part.face_areas()
        total = areas.sum()
        if total <= 0:
            return part.face_centroids().mean(axis=0)
        return (part.face_centroids() * areas[:, None]).sum(axis=0) / total

    def with_labels(self, face_labels) -> "LabeledMesh":
        return LabeledMesh(self.vertices, self.faces, self.vertex_normals, face_labels)

    def with_vertices(self, vertices) -> "LabeledMesh":
        """Same topology and labels with new vertex positions; normals dropped."""
        return LabeledMesh(vertices, self.faces, None, self.face_labels)

    def transformed(self, transform: "RigidTransform") -> "LabeledMesh":
        v = transform.apply(self.vertices)
        n = None
        if self.vertex_normals is not None:
            n = self.vertex_normals @ transform.rotation.T
        return LabeledMesh(v, self.faces, n, self.face_labels)

    def submesh(self, face_mask) -> "LabeledMesh":
        """Faces selected by mask/indices; vertices reindexed, coordinates kept."""
        faces = self.faces[face_mask]
        used = np.unique(faces)
        remap = np.full(self.n_vertices, -1, dtype=np.int64)
        remap[used] = np.arange(len(used))
        labels = self.face_labels[face_mask] if self.face_labels is not None else None
        normals = self.vertex_normals[used] if self.vertex_normals is not None else None
        return LabeledMesh(self.vertices[used], remap[faces], normals, labels)

    def to_point_cloud(self) -> "PointCloud":
        return PointCloud(self.vertices, self.vertex_normals)


@dataclass(frozen=True)
class PointCloud:
    points: np.ndarray
    normals: np.ndarray | None = None

    def __post_init__(self):
        p = np.asarray(self.points, dtype=np.float64).reshape(-1, 3)
        object.__setattr__(self, "points", _freeze(p))
        if self.normals is not None:
            n = np.asarray(self.normals, dtype=np.float64).reshape(-1, 3)
            if len(n) != len(p):
                raise ValueError("normals length does not match points")
            object.__setattr__(self, "normals", _freeze(n))

    def __len__(self) -> int:
        return len(self.points)


@dataclass(frozen=True)
class RigidTransform:
    """Proper rigid motion x -> R x + t in mm space."""

    rotation: np.ndarray = field(default_factory=lambda: np.eye(3))
    translation: np.ndarray = field(default_factory=lambda: np.zeros(3))

    def __post_init__(self):
        r = np.asarray(self.rotation, dtype=np.float64).reshape(3, 3)
        t = np.asarray(self.translation, dtype=np.float64).reshape(3)
        if abs(np.linalg.det(r) - 1.0) > _ORTHO_TOL * 100:
            raise ValueError(f"rotation determinant {np.linalg.det(r)} != +1")
        if np.max(np.abs(r @ r.T - np.eye(3))) > _ORTHO_TOL * 100:
            raise ValueError("rotation is not orthonormal")
        object.__setattr__(self, "rotation", _freeze(r))
        object.__setattr__(self, "translation", _freeze(t))

    @staticmethod
    def from_axis_angle(axis, angle_rad: float, translation=(0.0, 0.0, 0.0)) -> "RigidTransform":
        axis = np.asarray(axis, dtype=np.float64)
        n = np.linalg.norm(axis)
        if n == 0:
            raise ValueError("zero rotation axis")
        axis = axis / n
        k = _skew(axis)
        r = np.eye(3) + np.sin(angle_rad) * k + (1 - np.cos(angle_rad)) * (k @ k)
        return RigidTransform(r, np.asarray(translation, dtype=np.float64))

    @staticmethod
    def rotation_between(a, b) -> np.ndarray:
        """Minimal rotation matrix taking unit vector ``a`` onto unit vector ``b``.

        Antiparallel input resolves to a 180-degree turn about the
        smallest-index canonical axis perpendicular to both.
        """
        a = np.asarray(a, dtype=np.float64)
        b = np.asarray(b, dtype=np.float64)
        a = a / np.linalg.norm(a)
        b = b / np.linalg.norm(b)
        c = float(np.dot(a, b))
        if c > 1.0 - 1e-15:
            return np.eye(3)
        if c < -1.0 + 1e-12:
            for i in range(3):
                cand = np.zeros(3)
                cand[i] = 1.0
                perp = cand - np.dot(cand, a) * a
                if np.linalg.norm(perp) > 1e-8:
                    axis = perp / np.linalg.norm(perp)
                    break
            k = _skew(axis)
            return np.eye(3) + 2.0 * (k @ k)
        axis = np.cross(a, b)
        s = np.linalg.norm(axis)
        axis = axis / s
        k = _skew(axis)
        return np.eye(3) + s * k + (1 - c) * (k @ k)

    def apply(self, points) -> np.ndarray:
        pts = np.asarray(points, dtype=np.float64)
        return pts @ self.rotation.T + self.translation

    def compose(self, other: "RigidTransform") -> "RigidTransform":
        """Transform equal to applying ``other`` first, then ``self``."""
        return RigidTransform(
            self.rotation @ other.rotation,
            self.rotation @ other.translation + self.translation,
        )

    def inverse(self) -> "RigidTransform":
        rt = self.rotation.T
        return RigidTransform(rt, -rt @ self.translation)

    def matrix(self) -> np.ndarray:
        m = np.eye(4)
        m[:3, :3] = self.rotation
        m[:3, 3] = self.translation
        return m

    def rotation_angle_deg(self) -> float:
        c = (np.trace(self.rotation) - 1.0) / 2.0
        return float(np.degrees(np.arccos(np.clip(c, -1.0, 1.0))))

    def rotation_distance_deg(self, other: "RigidTransform") -> float:
        return self.compose(other.inverse()).rotation_angle_deg()


def estimate_vertex_normals(mesh: LabeledMesh) -> LabeledMesh:
    """Area-weighted per-vertex normals oriented by face winding.

    Zero-area faces are skipped; vertices with no usable incident face fall
    back to (0, 0, 1) and a MeshWarning is emitted listing them.
    """
    if mesh.n_faces < 1:
        raise ValueError("mesh has no faces")
    tri = mesh.vertices[mesh.faces]
    cross = np.cross(tri[:, 1] - tri[:, 0], tri[:, 2] - tri[:, 0])
    area2 = np.linalg.norm(cross, axis=1)
    usable = area2 > 0
    acc = np.zeros((mesh.n_vertices, 3))
    for k in range(3):
        np.add.at(acc, mesh.faces[usable, k], cross[usable])
    norms = np.linalg.norm(acc, axis=1)
    fallback = norms <= 1e-30
    if np.any(fallback):
        idx = np.nonzero(fallback)[0]
        warnings.warn(
            f"{len(idx)} vertices without usable incident faces; "
            f"fallback normal (0,0,1) assigned (first: {idx[:8].tolist()})",
            MeshWarning,
            stacklevel=2,
        )
        acc[fallback] = (0.0, 0.0, 1.0)
        norms[fallback] = 1.0
    normals = acc / norms[:, None]
    # renormalize exactly: guard against accumulated rounding
    normals /= np.linalg.norm(normals, axis=1)[:, None]
    return LabeledMesh(mesh.vertices, mesh.faces, normals, mesh.face_labels)


def voxel_downsample(cloud: PointCloud, voxel: float) -> PointCloud:
    """One output point per occupied voxel: the centroid of its members, in
    the lexicographic (x, y, z) order of the voxels.

    Normals, when present, are averaged then renormalized; voxel keys use the
    floor convention on point/voxel. Each voxel is one int64 key, its offsets
    from the cloud's lowest voxel in mixed radix, so sorting keys sorts voxels.
    """
    if voxel <= 0:
        raise ValueError("voxel size must be positive")
    if len(cloud) == 0:
        return cloud
    cells = np.floor(cloud.points / voxel).astype(np.int64)
    cells -= cells.min(axis=0)
    span = [int(c) + 1 for c in cells.max(axis=0)]
    if span[0] * span[1] * span[2] > np.iinfo(np.int64).max:
        raise ValueError(f"{span} voxels of {voxel} do not fit one int64 key")
    keys = (cells[:, 0] * span[1] + cells[:, 1]) * span[2] + cells[:, 2]
    _, inverse, counts = np.unique(keys, return_inverse=True, return_counts=True)

    def sums(values):  # per voxel, added in point order as np.add.at would
        return np.column_stack([np.bincount(inverse, weights=v, minlength=len(counts))
                                for v in values.T])

    centroids = sums(cloud.points) / counts[:, None]
    normals = None
    if cloud.normals is not None:
        acc = sums(cloud.normals)
        norms = np.linalg.norm(acc, axis=1)
        norms[norms == 0] = 1.0
        normals = acc / norms[:, None]
    return PointCloud(centroids, normals)


def bounding_box_diagonal(mesh: LabeledMesh) -> float:
    """Length of the axis-aligned bounding-box diagonal (the miss penalty)."""
    if mesh.n_vertices < 1:
        raise ValueError("mesh has no vertices")
    extent = mesh.vertices.max(axis=0) - mesh.vertices.min(axis=0)
    return float(np.linalg.norm(extent))


def mesh_edges(mesh: LabeledMesh) -> np.ndarray:
    """Directed edges (3 per face), shape (3*n_faces, 2)."""
    f = mesh.faces
    return np.concatenate([f[:, [0, 1]], f[:, [1, 2]], f[:, [2, 0]]], axis=0)


def is_watertight(mesh: LabeledMesh) -> bool:
    """True when every edge is shared by exactly two consistently wound faces."""
    if mesh.n_faces == 0:
        return False
    a, b = mesh_edges(mesh).T
    n = mesh.n_vertices
    # 1-D int64 edge keys: sorting them is far cheaper than unique rows
    _, counts = np.unique(np.minimum(a, b) * n + np.maximum(a, b), return_counts=True)
    if not np.all(counts == 2):
        return False
    # consistent winding: no directed edge may repeat
    directed = np.sort(a * n + b)
    return bool(np.all(directed[1:] != directed[:-1]))


def component_ids(n_nodes: int, pairs) -> np.ndarray:
    """Connected-component id per node of the undirected graph on ``pairs``."""
    graph = csr_matrix((np.ones(len(pairs)), (pairs[:, 0], pairs[:, 1])),
                       shape=(n_nodes, n_nodes))
    return csgraph.connected_components(graph, directed=False)[1]


def face_adjacency(mesh: LabeledMesh) -> np.ndarray:
    """Pairs of face indices sharing an edge used by exactly two faces, shape (k, 2)."""
    edges = np.sort(mesh_edges(mesh), axis=1)
    face_ids = np.tile(np.arange(mesh.n_faces), 3)
    order = np.lexsort((edges[:, 1], edges[:, 0]))
    edges = edges[order]
    face_ids = face_ids[order]
    same = np.all(edges[:-1] == edges[1:], axis=1)
    # runs of identical edges; keep only runs of length exactly 2
    run_start = np.concatenate([[True], ~same])
    run_id = np.cumsum(run_start) - 1
    run_sizes = np.bincount(run_id)
    pair_mask = same & (run_sizes[run_id[:-1]] == 2)
    a = face_ids[:-1][pair_mask]
    b = face_ids[1:][pair_mask]
    return np.stack([a, b], axis=1)
