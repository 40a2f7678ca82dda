"""Context-aware crown retrieval over 256-D embeddings.

Donor-jaw selection scores each candidate jaw by the macro-average cosine
similarity over context slots shared with the query (jaws sharing fewer than
half the query slots are skipped); crown lookup is an exact argmax over the
crown library. Embeddings are opaque vectors; a deterministic geometric
embedder stands in for the trained feature extractor.
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import MeshFormatError, NoMatchError
from .mesh import LabeledMesh, _freeze

EMBEDDING_DIM = 256


@dataclass(frozen=True)
class Embedding:
    vector: np.ndarray
    key: tuple = ()

    def __post_init__(self):
        v = np.asarray(self.vector, dtype=np.float64).reshape(-1)
        if v.shape[0] != EMBEDDING_DIM:
            raise ValueError(f"embedding dimension {v.shape[0]} != {EMBEDDING_DIM}")
        if np.linalg.norm(v) == 0:
            raise ValueError("embedding must have nonzero norm")
        object.__setattr__(self, "vector", _freeze(v))


def cosine(a: Embedding, b: Embedding) -> float:
    va, vb = a.vector, b.vector
    return float(np.dot(va, vb) / (np.linalg.norm(va) * np.linalg.norm(vb)))


@dataclass(frozen=True)
class EmbeddingIndex:
    """Per-jaw context embeddings plus the crown template library."""

    jaws: dict            # jaw id -> {fdi position -> Embedding}
    crown_library: dict   # template id -> Embedding

    def __post_init__(self):
        for jaw_id, slots in self.jaws.items():
            if len(slots) != len(set(slots)):
                raise ValueError(f"duplicate slots in jaw {jaw_id}")


@dataclass(frozen=True)
class ContextQuery:
    """Embeddings of the context environment around the target position."""

    target_fdi: int
    slots: dict  # context FDI position -> Embedding

    def __post_init__(self):
        if not self.slots:
            raise ValueError("context query needs at least one slot")
        if self.target_fdi in self.slots:
            raise ValueError("target position must not appear among context slots")


def match_context(query: ContextQuery, index: EmbeddingIndex,
                  require_target: bool = True) -> tuple[str, float]:
    """Donor jaw with the highest macro-average cosine over shared slots.

    Jaws sharing fewer than half of the query slots are skipped, as are jaws
    lacking the target position when ``require_target`` is set. Exact ties
    break to the lexicographically smaller jaw id.
    """
    if not index.jaws:
        raise NoMatchError("embedding index is empty", stage="retrieve")
    n_query = len(query.slots)
    best = None
    for jaw_id in sorted(index.jaws, key=str):
        slots = index.jaws[jaw_id]
        if require_target and query.target_fdi not in slots:
            continue
        shared = [p for p in query.slots if p in slots]
        if 2 * len(shared) < n_query:
            continue
        score = float(np.mean([cosine(query.slots[p], slots[p]) for p in shared]))
        if best is None or score > best[1]:
            best = (jaw_id, score)
    if best is None:
        raise NoMatchError(
            f"no candidate jaw shares at least half of the {n_query} context slots",
            stage="retrieve",
        )
    return best


def retrieve_crown(donor: Embedding, index: EmbeddingIndex) -> tuple[str, float]:
    """Crown template with the highest cosine to the donor tooth embedding."""
    if not index.crown_library:
        raise ValueError("crown library is empty")
    best = None
    for template_id in sorted(index.crown_library, key=str):
        score = cosine(donor, index.crown_library[template_id])
        if best is None or score > best[1]:
            best = (template_id, score)
    return best


# ---------------------------------------------------------------- store I/O

_STORE_MAGIC = b"EMBD"


def save_embedding_store(embeddings: list[Embedding], keys: list, path) -> None:
    """Binary store: magic + uint32 count + uint32 dim + float32 rows, plus a
    JSON sidecar mapping each row to its key."""
    path = Path(path)
    count = len(embeddings)
    rows = np.stack([e.vector for e in embeddings]) if count else np.zeros((0, EMBEDDING_DIM))
    header = _STORE_MAGIC + struct.pack("<II", count, EMBEDDING_DIM)
    path.write_bytes(header + rows.astype("<f4").tobytes())
    sidecar = path.with_suffix(path.suffix + ".json")
    sidecar.write_text(json.dumps(keys, indent=2, sort_keys=True))


def load_embedding_store(path) -> tuple[list[Embedding], list]:
    path = Path(path)
    data = path.read_bytes()
    if data[:4] != _STORE_MAGIC:
        raise MeshFormatError(f"bad embedding store magic in {path}", byte_offset=0)
    count, dim = struct.unpack_from("<II", data, 4)
    if dim != EMBEDDING_DIM:
        raise MeshFormatError(f"embedding store dim {dim} != {EMBEDDING_DIM}")
    expected = 12 + 4 * count * dim
    if len(data) < expected:
        raise MeshFormatError(f"truncated embedding store {path}", byte_offset=len(data))
    rows = np.frombuffer(data[12:expected], dtype="<f4").reshape(count, dim)
    keys = json.loads(Path(str(path) + ".json").read_text())
    if len(keys) != count:
        raise MeshFormatError(f"embedding sidecar row count mismatch for {path}")
    return [Embedding(row.astype(np.float64)) for row in rows], keys


def load_embedding_index(jaw_store_path, crown_store_path) -> EmbeddingIndex:
    """Index from two stores: jaw rows keyed {"jaw", "fdi"}, crown rows
    keyed {"template"}."""
    jaw_embeddings, jaw_keys = load_embedding_store(jaw_store_path)
    jaws: dict = {}
    for emb, key in zip(jaw_embeddings, jaw_keys):
        jaws.setdefault(str(key["jaw"]), {})[int(key["fdi"])] = emb
    crown_embeddings, crown_keys = load_embedding_store(crown_store_path)
    crowns = {str(key["template"]): emb for emb, key in zip(crown_embeddings, crown_keys)}
    return EmbeddingIndex(jaws, crowns)


# ---------------------------------------------------------------- geometric stand-in


def geometric_embedding(mesh: LabeledMesh, face_indices=None, seed: int = 7) -> Embedding:
    """Deterministic 256-D embedding of a tooth region from geometric moments.

    A stand-in for the trained feature extractor: a fixed seeded projection
    of scale/shape moments (extents, central second moments, height profile,
    surface area). Similar shapes map to nearby vectors; the output depends
    only on the geometry and the seed.
    """
    if face_indices is None:
        faces = np.arange(mesh.n_faces)
    else:
        faces = np.asarray(face_indices, dtype=np.int64)
    if faces.size == 0:
        raise ValueError("cannot embed an empty face set")
    areas = mesh.face_areas()[faces]
    centers = mesh.face_centroids()[faces]
    total = areas.sum()
    centroid = (centers * areas[:, None]).sum(axis=0) / total
    local = centers - centroid
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
    rng = np.random.default_rng(seed)
    projection = rng.normal(size=(EMBEDDING_DIM, len(moments)))
    vec = projection @ moments
    vec = vec / np.linalg.norm(vec)
    return Embedding(vec)
