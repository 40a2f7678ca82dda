"""Per-face label refinement: alpha-expansion graph cuts over label
probabilities plus small-component cleanup.

Probabilities are a float64 (n_faces, n_classes) matrix. Outside data
reaches refinement only through ``load_probabilities``, which rejects
non-finite or negative values and rows without a positive sum, then divides
each row by its sum; the corruptor provider builds its rows stochastic.

Energy: sum_f -log p_f(l_f) + lambda * sum_adjacent w_fg [l_f != l_g] with
w_fg = exp(-beta (1 - cos theta_fg)) for the dihedral angle theta between
face normals.

Each expansion move is banded (Lombaert et al., ICCV 2005). The move for
alpha solves only the faces not labelled alpha within ``_BAND_RINGS``
adjacency rings of a seed: a face labelled alpha, or one whose alpha unary
is strictly below its current label's. Every other face keeps its label,
and its pairwise terms fold into the t-links of its band neighbours. What
is exact:
- each move: max-flow finds the lowest-energy labeling that switches part
  of the band to alpha;
- each move's energy change, summed over its band: faces outside it keep
  their labels, so that is the whole labeling's change;
- accepting a move only when it lowers the energy, so the refined energy
  never exceeds the argmax labeling's.
What is not: a full-graph move may also switch faces outside the band. A
face there is no seed and has no alpha neighbour, so switching alone
cannot lower the energy; a group of such faces can, by removing label
boundaries inside it. And a full move breaks exact ties toward alpha, so
it also flips far faces whose switch costs nothing. On the benchmark's
cases the final energy equals full expansion's.

The adjacent pairs come from ``face_adjacency`` once per refinement and are
shared with the small-component cleanup; each move builds the s-t graph of
its band, and cuts and components come from scipy's csgraph, with no
Python loop per face.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import breadth_first_order, maximum_flow

from .errors import MeshFormatError
from .mesh import GINGIVA, LabeledMesh, component_ids, face_adjacency
from .meshio import _read_float32_matrix

PROB_CLAMP = 1e-12
_MAX_SWEEPS = 10        # alpha-expansion sweeps over all labels
_BAND_RINGS = 2         # adjacency rings a move's band reaches past its seeds
_FLOW_SCALE = 1e8       # preferred float-energy -> integer capacity scale
_FLOW_CAP_MAX = 1.8e9   # scipy's max-flow wraps beyond int32; stay under it


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


def pairwise_weights(mesh: LabeledMesh, pairs: np.ndarray, params: RefineParams) -> np.ndarray:
    """Smoothness weight (lambda included) of each adjacent face pair."""
    if len(pairs) == 0:
        return np.zeros(0)
    normals = mesh.face_normals()
    cos = np.einsum("ij,ij->i", normals[pairs[:, 0]], normals[pairs[:, 1]])
    cos = np.clip(cos, -1.0, 1.0)
    return params.smoothness * np.exp(-params.dihedral_sharpness * (1.0 - cos))


def _min_cut_assignment(cost0: np.ndarray, cost1: np.ndarray, pair_caps: np.ndarray,
                        pairs: np.ndarray) -> np.ndarray:
    """Exact binary submodular minimization; returns x in {0,1} per node.

    cost0/cost1 are per-node state costs; pair_caps is the capacity of the
    directed edge a->b of each row (a, b) of ``pairs``, cut when x_a=0,
    x_b=1 (B+C-A-D of the reduction).
    """
    n = len(cost0)
    source, sink = n, n + 1
    # s->f is cut when f lands on the sink side (x=1) and costs cost1;
    # f->t is cut when f stays on the source side (x=0) and costs cost0
    rows = np.concatenate([np.full(n, source), np.arange(n), pairs[:, 0]])
    cols = np.concatenate([np.arange(n), np.full(n, sink), pairs[:, 1]])
    vals = np.concatenate([cost1, cost0, pair_caps])
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
    # repeated arcs add up; max-flow adds the reverse arcs itself
    graph = csr_matrix((caps, (rows, cols)), shape=(n + 2, n + 2))
    residual = graph - maximum_flow(graph, source, sink).flow
    # BFS from the source over strictly positive residual arcs (csgraph
    # would walk stored zeros and negatives): reachable nodes keep x=0
    residual.data[residual.data < 0] = 0
    residual.eliminate_zeros()
    reachable = np.zeros(n + 2, dtype=bool)
    reachable[breadth_first_order(residual, source, return_predecessors=False)] = True
    return (~reachable[:n]).astype(np.int64)  # sink side takes x=1


def _neighbour_table(n: int, pairs: np.ndarray, weights: np.ndarray) -> tuple:
    """(3, n) tables of each face's adjacent faces and pair weights. A face
    is in at most one pair per edge, so 3 rows hold them all; the rest are
    padded with the face itself at weight 0."""
    ends = np.concatenate([pairs[:, 0], pairs[:, 1]])
    order = np.argsort(ends, kind="stable")
    counts = np.bincount(ends, minlength=n)
    rank = np.arange(len(ends)) - np.repeat(np.cumsum(counts) - counts, counts)
    nbr = np.repeat(np.arange(n)[None], 3, axis=0)
    wtab = np.zeros((3, n))
    nbr[rank, ends[order]] = np.concatenate([pairs[:, 1], pairs[:, 0]])[order]
    wtab[rank, ends[order]] = np.concatenate([weights, weights])[order]
    return nbr, wtab


def _expansion_band(unary: np.ndarray, nbr: np.ndarray, labels: np.ndarray,
                    alpha: int) -> np.ndarray:
    """Mask of the faces the move for ``alpha`` solves: those not labelled
    alpha within ``_BAND_RINGS`` adjacency rings (``nbr``) of a seed, a face
    labelled alpha or whose alpha unary is strictly below its current
    label's."""
    band = (labels == alpha) | (unary[:, alpha] < unary[np.arange(len(labels)), labels])
    for _ in range(_BAND_RINGS):
        band = band | band[nbr[0]] | band[nbr[1]] | band[nbr[2]]
    return band & (labels != alpha)


def _band_move(unary: np.ndarray, nbr: np.ndarray, wtab: np.ndarray, labels: np.ndarray,
               alpha: int, band: np.ndarray) -> tuple[np.ndarray, float]:
    """The faces of ``band`` to switch to alpha, with every other face's
    label kept, for the lowest energy (an exact min cut over the band), and
    the energy change of that switch."""
    nodes = np.flatnonzero(band)
    nb, w = nbr[:, nodes], wtab[:, nodes]
    own, other = labels[nodes], labels[nb]
    # a pair with a face outside the band is a unary term of its band face:
    # the Potts cost against the fixed label when the band face keeps its
    # label, and when it switches to alpha (a fixed face keeps its label, or
    # is alpha already, in both states)
    fixed = w * ~band[nb]
    cost0 = unary[nodes, own] + (fixed * (other != own)).sum(axis=0)
    cost1 = unary[nodes, alpha] + (fixed * (other != alpha)).sum(axis=0)
    # each pair inside the band once; a face's padding is itself, so never
    # above it. ``nodes`` is sorted: a partner's rank in it is its local index
    slot, a = np.nonzero(band[nb] & (nb > nodes))
    b = np.searchsorted(nodes, nb[slot, a])
    w = w[slot, a]
    # Potts expansion: A=w[la!=lb], B=w[la!=alpha], C=w[alpha!=lb], D=0;
    # neither end is alpha, so B=C=w
    a_cost = w * (own[a] != own[b])
    ends = np.concatenate([a, b])
    lin = np.concatenate([w - a_cost, -w])   # coefficients of x_a (C-A), x_b (D-C)
    x = _min_cut_assignment(cost0 + np.bincount(ends, np.maximum(-lin, 0.0), len(nodes)),
                            cost1 + np.bincount(ends, np.maximum(lin, 0.0), len(nodes)),
                            2 * w - a_cost, np.column_stack([a, b]))
    # every term the switch changes is a band face's or an in-band pair's: a
    # pair with one end switched goes from A to w, one with both from A to 0
    switch = x == 1
    moved = switch[a] | switch[b]
    change = (cost1 - cost0)[switch].sum() + ((switch[a] != switch[b]) * w - a_cost)[moved].sum()
    return nodes[switch], float(change)


def graphcut_refine(
    mesh: LabeledMesh,
    probs: np.ndarray,
    params: RefineParams,
    pairs: np.ndarray,
) -> np.ndarray:
    """Banded alpha-expansion refinement of the argmax labeling of the
    (n_faces, n_classes) probability matrix ``probs`` over the adjacent face
    pairs ``pairs`` (``face_adjacency(mesh)``).

    Returns per-face labels whose energy never exceeds the argmax labeling's;
    with zero smoothness the argmax labels are returned unchanged.
    """
    if len(probs) != mesh.n_faces:
        raise ValueError(
            f"probability rows ({len(probs)}) != face count ({mesh.n_faces})"
        )
    labels = probs.argmax(axis=1)
    if params.smoothness == 0 or mesh.n_faces == 0:
        return labels
    unary = -np.log(np.clip(probs, PROB_CLAMP, 1.0))
    nbr, wtab = _neighbour_table(len(labels), pairs, pairwise_weights(mesh, pairs, params))

    for _ in range(_MAX_SWEEPS):
        improved = False
        for alpha in range(probs.shape[1]):
            band = _expansion_band(unary, nbr, labels, alpha)
            if not band.any():
                continue
            switch, change = _band_move(unary, nbr, wtab, labels, alpha, band)
            if change < -1e-12:
                labels[switch] = alpha
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

    ``cases`` is a list of (mesh, probability matrix, ground-truth labels); the
    candidate maximizing mean refined accuracy wins, ties to the smaller
    value. Each candidate replaces only the smoothness of ``params``. The
    chosen value is then applied unchanged downstream.
    """
    if not cases:
        raise ValueError("tuning needs at least one validation case")
    best = None
    adjacency = [face_adjacency(mesh) for mesh, _, _ in cases]
    for lam in candidates:
        trial = replace(params, smoothness=lam)
        accs = []
        for (mesh, probs, gt), pairs in zip(cases, adjacency):
            refined = graphcut_refine(mesh, probs, trial, pairs)
            accs.append(float((refined == np.asarray(gt)).mean()))
        score = float(np.mean(accs))
        if best is None or score > best[0]:
            best = (score, lam)
    return best[1]


def reassign_small_components(
    labels: np.ndarray,
    pairs: np.ndarray,
    min_faces: int,
) -> np.ndarray:
    """Relabel same-label connected components smaller than min_faces to
    gingiva; components are connected through the adjacent face pairs
    ``pairs``."""
    labels = np.asarray(labels, dtype=np.int64).copy()
    same = pairs[labels[pairs[:, 0]] == labels[pairs[:, 1]]]
    comp = component_ids(len(labels), same)
    labels[np.bincount(comp)[comp] < min_faces] = GINGIVA
    return labels


# ---------------------------------------------------------------- providers & I/O

_PROB_MAGIC = b"FPRB"


def load_probabilities(path) -> np.ndarray:
    """The float64 (n_faces, n_classes) probability matrix of a JSON
    (``.json`` suffix) or binary file, each row divided by its sum.

    Raises MeshFormatError for a malformed file: in JSON, anything but an
    object with ``faces``, ``classes`` and a ``rows`` matrix of that shape.
    Raises ValueError unless every stored value is finite and non-negative
    and every row's sum is positive.
    """
    path = Path(path)
    if path.suffix == ".json":
        try:
            payload = json.loads(path.read_text())
            if not isinstance(payload, dict):
                raise ValueError(f"expected a JSON object, got {type(payload).__name__}")
            m = np.asarray(payload["rows"], dtype=np.float64)
            shape = (payload["faces"], payload["classes"])
            if m.shape != shape:
                raise ValueError(f"rows of shape {m.shape}, expected {shape}")
        except (KeyError, TypeError, ValueError) as exc:
            raise MeshFormatError(
                f"bad probability JSON {path}: {type(exc).__name__}: {exc}"
            ) from exc
    else:
        m = _read_float32_matrix(path, _PROB_MAGIC, "probability file").astype(np.float64)
    if not np.all(np.isfinite(m)):
        raise ValueError(f"probabilities in {path} must be finite")
    if np.any(m < 0):
        raise ValueError(f"probabilities in {path} must be non-negative")
    sums = m.sum(axis=1, keepdims=True)
    if np.any(sums <= 0):
        raise ValueError(f"every probability row in {path} must have a positive sum")
    return m / sums


def corrupt_labels(
    labels: np.ndarray,
    n_classes: int,
    flip_fraction: float,
    softness: float,
    seed: int,
) -> np.ndarray:
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
    return m
