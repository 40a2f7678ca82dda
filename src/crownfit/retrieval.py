"""Context-aware crown retrieval over 256-D embeddings.

Donor-jaw selection scores each candidate jaw by the macro-average cosine
similarity over context slots shared with the query (jaws sharing fewer than
half the query slots are skipped); crown lookup is an exact argmax over the
crown library. An embedding is an opaque float64 vector of length
``EMBEDDING_DIM``; a deterministic geometric embedder stands in for the
trained feature extractor.
"""

from __future__ import annotations

import json
import struct
from pathlib import Path

import numpy as np

from .errors import MeshFormatError, NoMatchError
from .mesh import LabeledMesh
from .meshio import _read_float32_matrix

EMBEDDING_DIM = 256
_PROJECTION_SEED = 7  # seed of the geometric embedder's fixed projection


def cosine(a: np.ndarray, b: np.ndarray) -> float:
    return float(np.dot(a, b) / (np.linalg.norm(a) * np.linalg.norm(b)))


def match_context(slots: dict, target_fdi: int, jaws: dict) -> tuple[str, float]:
    """Donor jaw with the highest macro-average cosine over shared slots.

    ``slots`` maps each context FDI position to its embedding, ``jaws`` each
    jaw id to its own such dict. Jaws sharing fewer than half of the query
    slots are skipped, as are jaws lacking the target position. Exact ties
    break to the lexicographically smaller jaw id.
    """
    best = None
    for jaw_id in sorted(jaws, key=str):
        donor = jaws[jaw_id]
        if target_fdi not in donor:
            continue
        shared = [p for p in slots if p in donor]
        if 2 * len(shared) < len(slots):
            continue
        score = float(np.mean([cosine(slots[p], donor[p]) for p in shared]))
        if best is None or score > best[1]:
            best = (jaw_id, score)
    if best is None:
        raise NoMatchError(
            f"no candidate jaw shares at least half of the {len(slots)} context slots"
        )
    return best


def retrieve_crown(donor: np.ndarray, crowns: dict) -> tuple[str, float]:
    """Crown template (``crowns``: template id -> embedding) with the highest
    cosine to the donor tooth embedding."""
    if not crowns:
        raise ValueError("crown library is empty")
    best = None
    for template_id in sorted(crowns, key=str):
        score = cosine(donor, crowns[template_id])
        if best is None or score > best[1]:
            best = (template_id, score)
    return best


# ---------------------------------------------------------------- store I/O

_STORE_MAGIC = b"EMBD"


def save_embedding_store(rows, keys: list, path) -> None:
    """Binary store: magic + uint32 count + uint32 dim + float32 rows, plus a
    JSON sidecar mapping each row to its key."""
    path = Path(path)
    rows = np.asarray(rows, dtype="<f4").reshape(len(keys), EMBEDDING_DIM)
    header = _STORE_MAGIC + struct.pack("<II", len(rows), EMBEDDING_DIM)
    path.write_bytes(header + rows.tobytes())
    sidecar = path.with_suffix(path.suffix + ".json")
    sidecar.write_text(json.dumps(keys, indent=2, sort_keys=True))


def load_embedding_store(path) -> tuple[np.ndarray, list]:
    """The store's rows, as a float64 (count, dim) matrix, and their keys.
    Every row must be finite and nonzero: a cosine against any other would
    be NaN."""
    rows = _read_float32_matrix(path, _STORE_MAGIC, "embedding store").astype(np.float64)
    count, dim = rows.shape
    if dim != EMBEDDING_DIM:
        raise MeshFormatError(f"embedding store dim {dim} != {EMBEDDING_DIM}")
    bad = np.flatnonzero(~np.isfinite(rows).all(axis=1) | ~rows.any(axis=1))
    if bad.size:
        raise MeshFormatError(f"embedding store {path} row {bad[0]} is not finite or is zero",
                              byte_offset=12 + 4 * dim * int(bad[0]))
    keys = json.loads(Path(str(path) + ".json").read_text())
    if len(keys) != count:
        raise MeshFormatError(f"embedding sidecar row count mismatch for {path}")
    return rows, keys


def load_embedding_index(jaw_store_path, crown_store_path) -> tuple[dict, dict]:
    """The jaw dict, jaw id -> {fdi -> embedding}, from a store of rows keyed
    {"jaw", "fdi"}, and the crown dict, template id -> embedding, from one
    keyed {"template"}; a key repeated within a store is a format error."""
    jaw_rows, jaw_keys = load_embedding_store(jaw_store_path)
    jaws: dict = {}
    for row, key in zip(jaw_rows, jaw_keys):
        slots = jaws.setdefault(str(key["jaw"]), {})
        if int(key["fdi"]) in slots:
            raise MeshFormatError(f"duplicate row {key} in embedding store {jaw_store_path}")
        slots[int(key["fdi"])] = row
    crown_rows, crown_keys = load_embedding_store(crown_store_path)
    crowns = {}
    for row, key in zip(crown_rows, crown_keys):
        if str(key["template"]) in crowns:
            raise MeshFormatError(f"duplicate row {key} in embedding store {crown_store_path}")
        crowns[str(key["template"])] = row
    return jaws, crowns


# ---------------------------------------------------------------- geometric stand-in


def geometric_embedding(mesh: LabeledMesh, face_indices=None) -> np.ndarray:
    """Deterministic 256-D embedding of a tooth region from geometric moments.

    A stand-in for the trained feature extractor: a fixed seeded projection
    of scale/shape moments (extents, central second moments, height profile,
    surface area). Similar shapes map to nearby vectors; the output depends
    only on the geometry. The region is the faces ``face_indices`` of
    ``mesh``, all of them by default, and only its faces are measured.
    """
    region = mesh if face_indices is None else LabeledMesh(
        mesh.vertices, mesh.faces[np.asarray(face_indices, dtype=np.int64)])
    if region.n_faces == 0:
        raise ValueError("cannot embed an empty face set")
    areas = region.face_areas()
    total = areas.sum()
    local = region.face_centroids() - region.centroid()
    cov = (local * areas[:, None]).T @ local / total
    eigvals = np.sort(np.linalg.eigvalsh(cov))[::-1]
    extents = local.max(axis=0) - local.min(axis=0)
    z = local[:, 2]
    zq = np.quantile(z, [0.1, 0.25, 0.5, 0.75, 0.9])
    moments = np.concatenate(
        [
            [total, np.sqrt(total)],
            extents,
            eigvals,
            np.sqrt(np.maximum(eigvals, 0.0)),
            zq,
            [float(np.mean(np.linalg.norm(local, axis=1)))],
        ]
    )
    # bring the moments to comparable magnitude at tooth scale (mm, mm^2)
    scale = np.concatenate([[50.0, 7.0], [8.0] * 3, [4.0] * 3, [2.0] * 3, [2.0] * 5, [4.0]])
    moments = moments / scale
    rng = np.random.default_rng(_PROJECTION_SEED)
    projection = rng.normal(size=(EMBEDDING_DIM, len(moments)))
    vec = projection @ moments
    return vec / np.linalg.norm(vec)
