"""Per-point FPFH descriptors in the Rusu 2009 formulation: 11 bins per
pair-feature angle, distance-weighted neighbor accumulation, each 11-bin
block normalized to sum 100, with no loop over points and no float64 or
int64 array over all directed pairs.

Pair features are computed once per unordered pair of
``SpatialIndex.radius_pairs``, ``_PAIR_BLOCK`` pairs at a time, on (3, k)
coordinate columns; the reverse direction repeats f1 and f2 and negates
f3, except on exact ties ``|a1| == |a2|``. ``np.bincount`` adds both
directions' bins of each block to one count array. The 1/distance-weighted
neighbour sum is a sparse product per ``_ROW_BLOCK`` source points, each
row's terms ordered by distance, then neighbour, so that every sum is
reproducible to the bit: the pairs are ranked once by (distance, i + j),
and each row block takes its directed pairs in that rank and sorts them
stably by source on a narrow integer key.
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
_ROW_BLOCK = 1024    # source points whose neighbour sums are taken at once


def _bin_indices(f1, f2, f3):
    i1 = np.clip(np.floor(FPFH_BINS * (f1 + np.pi) / (2 * np.pi)), 0, FPFH_BINS - 1)
    i2 = np.clip(np.floor(FPFH_BINS * (f2 + 1.0) / 2.0), 0, FPFH_BINS - 1)
    i3 = np.clip(np.floor(FPFH_BINS * (f3 + 1.0) / 2.0), 0, FPFH_BINS - 1)
    return i1.astype(np.int64), i2.astype(np.int64), i3.astype(np.int64)


def _dot(a, b):
    """Column-wise dot products of (3, k) columns, added as numpy's einsum
    adds a row of 3 in its two-lane SIMD loop, (x0 y0 + x2 y2) + x1 y1, so
    they equal ``np.einsum("ij,ij->i")`` over (k, 3) rows bit for bit."""
    return (a[0] * b[0] + a[2] * b[2]) + a[1] * b[1]


def _norm(a):
    """Column-wise lengths of (3, k) columns, as ``np.linalg.norm`` of rows."""
    return np.sqrt(a[0] * a[0] + a[1] * a[1] + a[2] * a[2])


def _cross(a, b):
    """Column-wise cross products of (3, k) columns, as ``np.cross`` of rows."""
    return np.stack([a[1] * b[2] - a[2] * b[1],
                     a[2] * b[0] - a[0] * b[2],
                     a[0] * b[1] - a[1] * b[0]])


def _pair_features(n, m, d):
    """Distance, f1, f2, f3, the validity mask and the tie mask
    ``|a1| == |a2|`` of pairs with source normals ``n``, target normals
    ``m`` and offsets ``d`` = target - source, all (3, k) columns."""
    dist = _norm(d)
    ok = dist > 0
    with np.errstate(invalid="ignore", divide="ignore"):
        a1 = np.where(ok, _dot(n, d) / dist, 0.0)
        a2 = np.where(ok, _dot(m, d) / dist, 0.0)
    swap = np.abs(a1) < np.abs(a2)  # larger |cos| = smaller angle = source
    ns = np.where(swap, m, n)
    nt = np.where(swap, n, m)
    f3 = np.where(swap, a2, a1)
    v = _cross(np.where(swap, -d, d), ns)
    vn = _norm(v)
    ok &= vn > 0
    v = np.where(ok, v / np.where(vn == 0, 1.0, vn), 0.0)
    f2 = _dot(v, nt)
    f1 = np.arctan2(_dot(_cross(ns, v), nt), _dot(ns, nt))
    return dist, f1, f2, f3, ok, np.abs(a1) == np.abs(a2)


def _pair_bin_counts(xyz, nxyz, i, j):
    """``(counts, dist)``: the (n, 33) bin counts that both directions of
    the pairs ``(i, j)`` add to their sources, and the pairs' distances,
    for points and normals given as (3, n) columns ``xyz`` and ``nxyz``."""
    n = xyz.shape[1]
    dist = np.empty(len(i))
    counts = np.zeros(3 * FPFH_BINS * n, dtype=np.int64)
    for start in range(0, len(i), _PAIR_BLOCK):
        block = slice(start, start + _PAIR_BLOCK)
        bi, bj = i[block], j[block]
        dist[block], f1, f2, f3, ok, tie = _pair_features(
            nxyz[:, bi], nxyz[:, bj], xyz[:, bj] - xyz[:, bi])
        # j -> i repeats f1 and f2 of i -> j and negates f3, except on exact ties
        f1, f2, f3, ok = np.tile(f1, 2), np.tile(f2, 2), np.concatenate([f3, -f3]), np.tile(ok, 2)
        back = np.concatenate([np.zeros_like(tie), tie])
        _, f1[back], f2[back], f3[back], ok[back], _ = _pair_features(
            nxyz[:, bj[tie]], nxyz[:, bi[tie]], xyz[:, bi[tie]] - xyz[:, bj[tie]])
        i1, i2, i3 = _bin_indices(f1[ok], f2[ok], f3[ok])
        cells = np.column_stack([i1, FPFH_BINS + i2, 2 * FPFH_BINS + i3])
        cells += 3 * FPFH_BINS * np.concatenate([bi, bj])[ok, None]
        counts += np.bincount(cells.ravel(), minlength=len(counts))
    return counts.reshape(n, 3 * FPFH_BINS), dist


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
    xyz = np.ascontiguousarray(cloud.points.T)
    nxyz = np.ascontiguousarray(cloud.normals.T)
    n = len(cloud)
    i, j = SpatialIndex(cloud.points).radius_pairs(radius)

    counts, dist = _pair_bin_counts(xyz, nxyz, i, j)
    pair_counts = counts[:, :FPFH_BINS].sum(axis=1)  # a valid pair adds 1 to each block
    spfh = counts.astype(np.float64)
    nonzero = pair_counts > 0
    spfh[nonzero] /= pair_counts[nonzero, None]

    # row s of the sum adds w * spfh[t] over its pairs by distance, then t;
    # i + j = s + t within a row, so the pairs are ranked by (distance, i + j):
    # one argsort of the distances, then its runs of equal distances by i + j
    rank = np.argsort(dist)
    dist = dist[rank]
    runs = np.flatnonzero(dist[1:] == dist[:-1])
    runs = np.union1d(runs, runs + 1)
    tied = rank[runs]
    rank[runs] = tied[np.lexsort((i[tied] + j[tied], dist[runs]))]
    # the ranked pairs' ends (i0, j0, i1, j1, ...): directed pair e runs from
    # ends[e] to ends[e ^ 1] with weight w[e >> 1]
    ends = np.stack([i, j], axis=1)
    del i, j
    ends = ends[rank].ravel()
    del rank
    w = np.divide(1.0, dist, out=dist, where=dist > 0)  # coincident: 0
    k_counts = np.bincount(ends, minlength=n)
    acc = np.empty_like(spfh)
    for start in range(0, n, _ROW_BLOCK):
        e = np.flatnonzero((ends >= start) & (ends < start + _ROW_BLOCK))
        rows = (ends[e] - start).astype(np.min_scalar_type(_ROW_BLOCK))
        e = e[np.argsort(rows, kind="stable")]  # by source, then rank
        stop = min(start + _ROW_BLOCK, n)
        indptr = np.concatenate([[0], np.cumsum(k_counts[start:stop])])
        acc[start:stop] = csr_matrix((w[e >> 1], ends[e ^ 1], indptr),
                                     shape=(stop - start, n)) @ spfh
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
