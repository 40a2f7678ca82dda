"""Per-face label refinement: alpha-expansion graph cuts over label
probabilities plus small-component cleanup.

Energy: sum_f -log p_f(l_f) + lambda * sum_adjacent w_fg [l_f != l_g] with
w_fg = exp(-beta (1 - cos theta_fg)) for the dihedral angle theta between
face normals. Each expansion move is solved exactly by max-flow, so the
refined energy never exceeds the argmax labeling's energy.

The s-t graph's pattern is built once per refinement and each move refills
its capacities; cuts and components come from scipy's csgraph, with no
Python loop per face.
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import breadth_first_order, maximum_flow

from .errors import MeshFormatError
from .mesh import GINGIVA, LabeledMesh, _freeze, component_ids, face_adjacency

PROB_CLAMP = 1e-12
_MAX_SWEEPS = 10        # alpha-expansion sweeps over all labels
_FLOW_SCALE = 1e8       # preferred float-energy -> integer capacity scale
_FLOW_CAP_MAX = 1.8e9   # scipy's max-flow wraps beyond int32; stay under it


@dataclass(frozen=True)
class FaceLabelProbabilities:
    """Row-stochastic (n_faces, n_classes) matrix of per-face probabilities."""

    matrix: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=np.float64)
        if m.ndim != 2:
            raise ValueError("probability matrix must be 2-D")
        if not np.all(np.isfinite(m)):
            raise ValueError("probabilities must be finite")
        if np.any(m < 0):
            raise ValueError("probabilities must be non-negative")
        sums = m.sum(axis=1)
        if m.size and np.any(np.abs(sums - 1.0) > 1e-6):
            raise ValueError("probability rows must sum to 1 within 1e-6")
        object.__setattr__(self, "matrix", _freeze(m))

    @property
    def n_faces(self) -> int:
        return self.matrix.shape[0]

    @property
    def n_classes(self) -> int:
        return self.matrix.shape[1]

    def argmax_labels(self) -> np.ndarray:
        return self.matrix.argmax(axis=1)


@dataclass(frozen=True)
class RefineParams:
    """Graph-cut refinement and small-component cleanup: the ``refine``
    section of the pipeline config."""

    smoothness: float = 30.0          # lambda
    dihedral_sharpness: float = 5.0   # beta
    min_component_faces: int = 10

    def __post_init__(self):
        if self.smoothness < 0:
            raise ValueError("smoothness must be non-negative")


def pairwise_weights(mesh: LabeledMesh, params: RefineParams):
    """Adjacent face pairs and their smoothness weights (lambda included)."""
    pairs = face_adjacency(mesh)
    if len(pairs) == 0:
        return pairs, np.zeros(0)
    normals = mesh.face_normals()
    cos = np.einsum("ij,ij->i", normals[pairs[:, 0]], normals[pairs[:, 1]])
    cos = np.clip(cos, -1.0, 1.0)
    w = params.smoothness * np.exp(-params.dihedral_sharpness * (1.0 - cos))
    return pairs, w


def labeling_energy(unary: np.ndarray, pairs: np.ndarray, weights: np.ndarray,
                    labels: np.ndarray) -> float:
    e = float(unary[np.arange(len(labels)), labels].sum())
    if len(pairs):
        e += float(weights[labels[pairs[:, 0]] != labels[pairs[:, 1]]].sum())
    return e


def _cut_pattern(n: int, pairs: np.ndarray) -> tuple:
    """CSR (indptr, indices) of the (n+2)-node s-t graph of every expansion
    move, plus ``slot``: the CSR position of each s->f t-link, f->t t-link,
    pair arc and zero-capacity reverse pair arc, in that order."""
    source, sink = n, n + 1
    rows = np.concatenate([np.full(n, source), np.arange(n), pairs[:, 0], pairs[:, 1]])
    cols = np.concatenate([np.arange(n), np.full(n, sink), pairs[:, 1], pairs[:, 0]])
    keys, slot = np.unique(rows * (n + 2) + cols, return_inverse=True)
    indptr = np.concatenate([[0], np.cumsum(np.bincount(keys // (n + 2), minlength=n + 2))])
    return indptr, keys % (n + 2), slot


def _min_cut_assignment(cost0: np.ndarray, cost1: np.ndarray, pair_caps: np.ndarray,
                        pattern: tuple) -> np.ndarray:
    """Exact binary submodular minimization; returns x in {0,1} per node.

    cost0/cost1 are per-node state costs; pair_caps is the capacity of the
    directed edge a->b cut when x_a=0, x_b=1 (B+C-A-D of the reduction), for
    the pairs whose ``_cut_pattern`` is ``pattern``.
    """
    n = len(cost0)
    source, sink = n, n + 1
    indptr, indices, slot = pattern
    # s->f is cut when f lands on the sink side (x=1) and costs cost1;
    # f->t is cut when f stays on the source side (x=0) and costs cost0
    vals = np.concatenate([cost1, cost0, pair_caps, np.zeros(len(pair_caps))])
    # capacities must fit int32: scipy's max-flow wraps silently above that
    peak = float(vals.max()) if len(vals) else 0.0
    scale = _FLOW_SCALE if peak <= 0 else min(_FLOW_SCALE, _FLOW_CAP_MAX / peak)
    caps = np.round(vals * scale).astype(np.int64)
    # every s-t cut severs exactly one t-link per node, so taking their common
    # part off both leaves the set of minimum cuts, and so the minimal source
    # side read off below, unchanged; the max-flow just has less to push
    common = np.minimum(caps[:n], caps[n:2 * n])
    caps[:n] -= common
    caps[n:2 * n] -= common
    data = np.bincount(slot, weights=caps, minlength=len(indices)).astype(np.int64)
    graph = csr_matrix((data, indices, indptr), shape=(n + 2, n + 2))
    residual = graph - maximum_flow(graph, source, sink).flow
    # BFS from the source over strictly positive residual arcs (csgraph
    # would walk stored zeros and negatives): reachable nodes keep x=0
    residual.data[residual.data < 0] = 0
    residual.eliminate_zeros()
    reachable = np.zeros(n + 2, dtype=bool)
    reachable[breadth_first_order(residual, source, return_predecessors=False)] = True
    return (~reachable[:n]).astype(np.int64)  # sink side takes x=1


def graphcut_refine(
    mesh: LabeledMesh,
    probs: FaceLabelProbabilities,
    params: RefineParams = RefineParams(),
) -> np.ndarray:
    """Alpha-expansion refinement of the argmax labeling.

    Returns per-face labels whose energy never exceeds the argmax labeling's;
    with zero smoothness the argmax labels are returned unchanged.
    """
    if probs.n_faces != mesh.n_faces:
        raise ValueError(
            f"probability rows ({probs.n_faces}) != face count ({mesh.n_faces})"
        )
    labels = probs.argmax_labels()
    if params.smoothness == 0 or mesh.n_faces == 0:
        return labels
    unary = -np.log(np.clip(probs.matrix, PROB_CLAMP, 1.0))
    pairs, weights = pairwise_weights(mesh, params)
    energy = labeling_energy(unary, pairs, weights, labels)
    n = len(labels)
    pattern = _cut_pattern(n, pairs)
    ends = np.concatenate([pairs[:, 0], pairs[:, 1]])

    for _ in range(_MAX_SWEEPS):
        improved = False
        for alpha in range(probs.n_classes):
            if np.all(labels == alpha):
                continue
            current_unary = unary[np.arange(n), labels]
            cost0 = current_unary          # keep current label
            cost1 = unary[:, alpha]        # switch to alpha
            pinned = labels == alpha       # already alpha: both states identical
            cost0 = np.where(pinned, cost1, cost0)
            la = labels[pairs[:, 0]]
            lb = labels[pairs[:, 1]]
            # Potts expansion: A=w[la!=lb], B=w[la!=alpha], C=w[alpha!=lb], D=0
            a_cost = weights * (la != lb)
            b_cost = weights * (la != alpha)
            c_cost = weights * (lb != alpha)
            pair_caps = b_cost + c_cost - a_cost
            lin_f = c_cost - a_cost    # coefficient of x_f
            lin_g = -c_cost            # coefficient of x_g (D - C)
            lin = np.concatenate([lin_f, lin_g])
            # bincount sums in input order, as sequential accumulation would
            extra_s = np.bincount(ends, np.maximum(lin, 0.0), n)
            extra_t = np.bincount(ends, np.maximum(-lin, 0.0), n)
            x = _min_cut_assignment(cost0 + extra_t, cost1 + extra_s, pair_caps, pattern)
            new_labels = np.where(x == 1, alpha, labels)
            new_energy = labeling_energy(unary, pairs, weights, new_labels)
            if new_energy < energy - 1e-12:
                labels = new_labels
                energy = new_energy
                improved = True
        if not improved:
            break
    return labels


def tune_smoothness(
    cases: list,
    params: RefineParams,
    candidates=(1.0, 2.0, 5.0, 10.0, 20.0, 30.0),
) -> float:
    """Validation-set tuning of the smoothness weight.

    ``cases`` is a list of (mesh, probabilities, ground-truth labels); the
    candidate maximizing mean refined accuracy wins, ties to the smaller
    value. Each candidate replaces only the smoothness of ``params``. The
    chosen value is then applied unchanged downstream.
    """
    if not cases:
        raise ValueError("tuning needs at least one validation case")
    best = None
    for lam in candidates:
        trial = replace(params, smoothness=lam)
        accs = []
        for mesh, probs, gt in cases:
            refined = graphcut_refine(mesh, probs, trial)
            accs.append(float((refined == np.asarray(gt)).mean()))
        score = float(np.mean(accs))
        if best is None or score > best[0]:
            best = (score, lam)
    return best[1]


def reassign_small_components(
    labels: np.ndarray,
    mesh: LabeledMesh,
    min_faces: int,
) -> np.ndarray:
    """Relabel same-label connected components smaller than min_faces to gingiva."""
    labels = np.asarray(labels, dtype=np.int64).copy()
    pairs = face_adjacency(mesh)
    same = pairs[labels[pairs[:, 0]] == labels[pairs[:, 1]]]
    comp = component_ids(mesh.n_faces, same)
    labels[np.bincount(comp)[comp] < min_faces] = GINGIVA
    return labels


# ---------------------------------------------------------------- providers & I/O

_PROB_MAGIC = b"FPRB"


def load_probabilities(path) -> FaceLabelProbabilities:
    path = Path(path)
    if path.suffix == ".json":
        payload = json.loads(path.read_text())
        m = np.asarray(payload["rows"], dtype=np.float64)
        if m.shape != (payload["faces"], payload["classes"]):
            raise MeshFormatError(f"probability JSON shape mismatch in {path}")
        return FaceLabelProbabilities(_renormalize(m))
    data = path.read_bytes()
    if data[:4] != _PROB_MAGIC:
        raise MeshFormatError(f"bad probability file magic in {path}", byte_offset=0)
    if len(data) < 12:
        raise MeshFormatError(f"probability file {path} shorter than its 12-byte header",
                              byte_offset=len(data))
    n, k = struct.unpack_from("<II", data, 4)
    expected = 12 + 4 * n * k
    if len(data) < expected:
        raise MeshFormatError(f"truncated probability file {path}", byte_offset=len(data))
    m = np.frombuffer(data[12:expected], dtype="<f4").reshape(n, k).astype(np.float64)
    return FaceLabelProbabilities(_renormalize(m))


def _renormalize(m: np.ndarray) -> np.ndarray:
    sums = m.sum(axis=1, keepdims=True)
    sums[sums == 0] = 1.0
    return m / sums


def corrupt_labels(
    labels: np.ndarray,
    n_classes: int,
    flip_fraction: float,
    softness: float,
    seed: int,
) -> FaceLabelProbabilities:
    """Ground-truth corruptor provider: flip a fraction of labels, then soften.

    The (possibly flipped) label gets probability 1 - softness, the remainder
    spreads uniformly, giving the graph cut real boundary noise to clean up.
    """
    labels = np.asarray(labels, dtype=np.int64)
    if np.any(labels >= n_classes):
        raise ValueError("label id outside the class range")
    rng = np.random.default_rng(seed)
    noisy = labels.copy()
    n_flip = int(round(flip_fraction * len(labels)))
    if n_flip:
        pick = rng.choice(len(labels), size=n_flip, replace=False)
        offsets = rng.integers(1, n_classes, size=n_flip)
        noisy[pick] = (noisy[pick] + offsets) % n_classes
    m = np.full((len(labels), n_classes), softness / max(1, n_classes - 1))
    m[np.arange(len(labels)), noisy] = 1.0 - softness
    return FaceLabelProbabilities(m)
