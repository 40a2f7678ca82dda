"""Per-point feature computation: 8-D geometric vectors and FPFH descriptors.

The 8-D vector per point is (x, y, z, nx, ny, nz, r, phi) where (r, phi) are
polar coordinates in the XY-plane about the cloud centroid after centering.
FPFH follows the Rusu 2009 formulation: 11 bins per pair-feature angle,
distance-weighted neighbor accumulation, each 11-bin block normalized to
sum 100, with no loop over points. Pair features are computed once per
unordered pair of ``SpatialIndex.radius_pairs``; the reverse direction repeats
f1 and f2 and negates f3, except on exact ties ``|a1| == |a2|``. One
``np.bincount`` counts both directions' bins and one sparse product, its rows
ordered by source, distance and neighbour so that every sum is reproducible
to the bit, adds the 1/distance-weighted neighbours.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
from scipy.sparse import csr_matrix

from .errors import MeshWarning
from .mesh import PointCloud, _freeze
from .spatial import SpatialIndex

FPFH_BINS = 11


@dataclass(frozen=True)
class PointFeatures:
    """Columns: x, y, z (centered, mm), nx, ny, nz, r (mm), phi (rad in (-pi, pi])."""

    values: np.ndarray
    centroid: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "values", _freeze(np.asarray(self.values, dtype=np.float64)))
        object.__setattr__(self, "centroid", _freeze(np.asarray(self.centroid, dtype=np.float64)))

    def __len__(self) -> int:
        return len(self.values)

    @property
    def positions(self) -> np.ndarray:
        return self.values[:, 0:3]

    @property
    def normals(self) -> np.ndarray:
        return self.values[:, 3:6]

    @property
    def radius(self) -> np.ndarray:
        return self.values[:, 6]

    @property
    def azimuth(self) -> np.ndarray:
        return self.values[:, 7]


def compute_point_features(cloud: PointCloud, unit_scale: bool = False) -> PointFeatures:
    """8-D features for a cloud with unit normals.

    ``unit_scale`` divides the centered coordinates (and r) by the largest
    point radius, leaving normals and phi untouched.
    """
    if cloud.normals is None:
        raise ValueError("point features require normals")
    norms = np.linalg.norm(cloud.normals, axis=1)
    if np.any(np.abs(norms - 1.0) > 1e-6):
        raise ValueError("normals must be unit length")
    centroid = cloud.points.mean(axis=0)
    pos = cloud.points - centroid
    if unit_scale:
        extent = np.linalg.norm(pos, axis=1).max()
        if extent > 0:
            pos = pos / extent
    r = np.hypot(pos[:, 0], pos[:, 1])
    phi = np.arctan2(pos[:, 1], pos[:, 0])
    phi[(pos[:, 0] == 0) & (pos[:, 1] == 0)] = 0.0
    values = np.column_stack([pos, cloud.normals, r, phi])
    return PointFeatures(values, centroid)


@dataclass(frozen=True)
class FpfhDescriptor:
    """Per-point 33-bin histograms (3 blocks of 11); each block sums to 100."""

    histograms: np.ndarray

    def __post_init__(self):
        object.__setattr__(
            self, "histograms", _freeze(np.asarray(self.histograms, dtype=np.float64))
        )

    def __len__(self) -> int:
        return len(self.histograms)


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


def compute_fpfh(cloud: PointCloud, radius: float) -> FpfhDescriptor:
    """Two-pass FPFH: SPFH per point over radius neighbors, then 1/distance
    weighted neighbor accumulation. Points with no neighbors get a zero
    histogram and are reported in a MeshWarning.
    """
    if radius <= 0:
        raise ValueError("FPFH radius must be positive")
    if cloud.normals is None:
        raise ValueError("FPFH requires normals")
    pts = cloud.points
    nrm = cloud.normals
    n = len(pts)
    i, j, dist = SpatialIndex(pts).radius_pairs(radius)
    src, dst = np.concatenate([i, j]), np.concatenate([j, i])

    # j -> i repeats f1 and f2 of i -> j and negates f3, except on exact ties
    f1, f2, f3, ok, tie = _pair_features_batch(nrm[i], nrm[j], pts[j] - pts[i], dist)
    f1, f2, f3, ok = np.tile(f1, 2), np.tile(f2, 2), np.concatenate([f3, -f3]), np.tile(ok, 2)
    back = np.concatenate([np.zeros_like(tie), tie])
    f1[back], f2[back], f3[back], ok[back], _ = _pair_features_batch(
        nrm[j[tie]], nrm[i[tie]], pts[i[tie]] - pts[j[tie]], dist[tie])
    i1, i2, i3 = _bin_indices(f1[ok], f2[ok], f3[ok])
    src_ok = src[ok]
    cells = np.column_stack([i1, FPFH_BINS + i2, 2 * FPFH_BINS + i3])
    cells += 3 * FPFH_BINS * src_ok[:, None]
    spfh = np.bincount(cells.ravel(), minlength=3 * FPFH_BINS * n)
    spfh = spfh.reshape(n, 3 * FPFH_BINS).astype(np.float64)
    pair_counts = np.bincount(src_ok, minlength=n)
    nonzero = pair_counts > 0
    spfh[nonzero] /= pair_counts[nonzero, None]

    # row s of the sparse product adds w * spfh[t] over its pairs by distance,
    # then t; i + j orders t within a row, so the pairs are ranked by (distance,
    # i + j) and the rows sorted on one int64 key, below n * n_pairs
    level = np.unique(dist, return_inverse=True)[1]
    rank = np.empty(len(i), dtype=np.int64)
    rank[np.argsort(level * (2 * n) + i + j)] = np.arange(len(i))
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
    return FpfhDescriptor(fpfh)
