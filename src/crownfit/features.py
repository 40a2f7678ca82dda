"""Per-point FPFH descriptors in the Rusu 2009 formulation: 11 bins per
pair-feature angle, distance-weighted neighbor accumulation, each 11-bin
block normalized to sum 100, with no loop over points. Pair features are
computed once per unordered pair of ``SpatialIndex.radius_pairs``; the
reverse direction repeats f1 and f2 and negates f3, except on exact ties
``|a1| == |a2|``. Features are taken ``_PAIR_BLOCK`` pairs at a time, and
``np.bincount`` adds both directions' bins of each block to one count
array, so memory does not grow with the pair count; one sparse product, its
rows ordered by source, distance and neighbour so that every sum is
reproducible to the bit, adds the 1/distance-weighted neighbours.
"""

from __future__ import annotations

import warnings

import numpy as np
from scipy.sparse import csr_matrix

from .errors import MeshWarning
from .mesh import PointCloud, _freeze
from .spatial import SpatialIndex

FPFH_BINS = 11
_PAIR_BLOCK = 32768  # unordered pairs whose features and bin counts are taken at once


def _bin_indices(f1, f2, f3):
    i1 = np.clip(np.floor(FPFH_BINS * (f1 + np.pi) / (2 * np.pi)), 0, FPFH_BINS - 1)
    i2 = np.clip(np.floor(FPFH_BINS * (f2 + 1.0) / 2.0), 0, FPFH_BINS - 1)
    i3 = np.clip(np.floor(FPFH_BINS * (f3 + 1.0) / 2.0), 0, FPFH_BINS - 1)
    return i1.astype(np.int64), i2.astype(np.int64), i3.astype(np.int64)


def _pair_features_batch(n, m, d, dist):
    """f1, f2, f3, the validity mask and the tie mask ``|a1| == |a2|`` of pairs
    with source normals ``n``, target normals ``m`` and offsets ``d`` = target
    - source of length ``dist``."""
    ok = dist > 0
    a1 = np.einsum("ij,ij->i", n, d)
    a2 = np.einsum("ij,ij->i", m, d)
    with np.errstate(invalid="ignore", divide="ignore"):
        a1 = np.where(ok, a1 / dist, 0.0)
        a2 = np.where(ok, a2 / dist, 0.0)
    swap = np.abs(a1) < np.abs(a2)  # larger |cos| = smaller angle = source
    ns = np.where(swap[:, None], m, n)
    nt = np.where(swap[:, None], n, m)
    dd = np.where(swap[:, None], -d, d)
    f3 = np.where(swap, a2, a1)
    v = np.cross(dd, ns)
    vn = np.linalg.norm(v, axis=1)
    ok &= vn > 0
    v = np.where(ok[:, None], v / np.where(vn[:, None] == 0, 1.0, vn[:, None]), 0.0)
    w = np.cross(ns, v)
    f2 = np.einsum("ij,ij->i", v, nt)
    f1 = np.arctan2(np.einsum("ij,ij->i", w, nt), np.einsum("ij,ij->i", ns, nt))
    return f1, f2, f3, ok, np.abs(a1) == np.abs(a2)


def compute_fpfh(cloud: PointCloud, radius: float) -> np.ndarray:
    """Two-pass FPFH: SPFH per point over radius neighbors, then 1/distance
    weighted neighbor accumulation. Returns the frozen (n, 33) histograms,
    3 blocks of 11 bins, each block summing to 100. Points with no neighbors
    get a zero histogram and are reported in a MeshWarning.
    """
    if radius <= 0:
        raise ValueError("FPFH radius must be positive")
    if cloud.normals is None:
        raise ValueError("FPFH requires normals")
    pts = cloud.points
    nrm = cloud.normals
    n = len(pts)
    i, j, dist = SpatialIndex(pts).radius_pairs(radius)

    counts = np.zeros(3 * FPFH_BINS * n, dtype=np.int64)
    for start in range(0, len(i), _PAIR_BLOCK):
        block = slice(start, start + _PAIR_BLOCK)
        bi, bj, bd = i[block], j[block], dist[block]
        # j -> i repeats f1 and f2 of i -> j and negates f3, except on exact ties
        f1, f2, f3, ok, tie = _pair_features_batch(nrm[bi], nrm[bj], pts[bj] - pts[bi], bd)
        f1, f2, f3, ok = np.tile(f1, 2), np.tile(f2, 2), np.concatenate([f3, -f3]), np.tile(ok, 2)
        back = np.concatenate([np.zeros_like(tie), tie])
        f1[back], f2[back], f3[back], ok[back], _ = _pair_features_batch(
            nrm[bj[tie]], nrm[bi[tie]], pts[bi[tie]] - pts[bj[tie]], bd[tie])
        i1, i2, i3 = _bin_indices(f1[ok], f2[ok], f3[ok])
        cells = np.column_stack([i1, FPFH_BINS + i2, 2 * FPFH_BINS + i3])
        cells += 3 * FPFH_BINS * np.concatenate([bi, bj])[ok, None]
        counts += np.bincount(cells.ravel(), minlength=len(counts))
    counts = counts.reshape(n, 3 * FPFH_BINS)
    pair_counts = counts[:, :FPFH_BINS].sum(axis=1)  # a valid pair adds 1 to each block
    spfh = counts.astype(np.float64)
    nonzero = pair_counts > 0
    spfh[nonzero] /= pair_counts[nonzero, None]

    # row s of the sparse product adds w * spfh[t] over its pairs by distance,
    # then t; i + j orders t within a row, so the pairs are ranked by (distance,
    # i + j) and the rows sorted on one int64 key, below n * n_pairs
    level = np.unique(dist, return_inverse=True)[1]
    rank = np.empty(len(i), dtype=np.int64)
    rank[np.argsort(level * (2 * n) + i + j)] = np.arange(len(i))
    src, dst = np.concatenate([i, j]), np.concatenate([j, i])
    order = np.argsort(src * len(i) + np.tile(rank, 2))
    w = np.divide(1.0, dist, out=np.zeros_like(dist), where=dist > 0)  # coincident: 0
    k_counts = np.bincount(src, minlength=n)
    indptr = np.concatenate([[0], np.cumsum(k_counts)])
    acc = csr_matrix((np.tile(w, 2)[order], dst[order], indptr), shape=(n, n)) @ spfh
    fpfh = spfh + acc / np.maximum(k_counts, 1)[:, None]

    isolated = np.nonzero(~nonzero)[0]
    if len(isolated):
        warnings.warn(f"{len(isolated)} points with no FPFH neighbors; zero histograms "
                      f"(first: {isolated[:8].tolist()})", MeshWarning, stacklevel=2)
        fpfh[isolated] = 0.0

    # percentage convention per 11-bin block; an empty block stays zero
    blocks = fpfh.reshape(n, 3, FPFH_BINS)
    sums = blocks.sum(axis=2, keepdims=True)
    blocks[:] = blocks / np.where(sums > 0, sums, 1.0) * 100.0
    return _freeze(fpfh)
