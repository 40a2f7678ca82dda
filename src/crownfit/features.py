"""Per-point feature computation: 8-D geometric vectors and FPFH descriptors.

The 8-D vector per point is (x, y, z, nx, ny, nz, r, phi) where (r, phi) are
polar coordinates in the XY-plane about the cloud centroid after centering.
FPFH follows the Rusu 2009 formulation: 11 bins per pair-feature angle,
distance-weighted neighbor accumulation, each 11-bin block normalized to
sum 100. It runs on one flat list of (source, neighbour) pairs from
``SpatialIndex.radius_pairs``: bin counts come from one ``np.bincount`` and
the 1/distance-weighted neighbour sum from one sparse row-by-histogram
product, with no loop over points.
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


def _pair_features_batch(p, n, q, m):
    """Vectorized pair features for aligned arrays of source/target points."""
    d = q - p
    dist = np.linalg.norm(d, axis=1)
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
    return f1, f2, f3, dist, ok


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
    src, dst = SpatialIndex(pts).radius_pairs(radius)

    f1, f2, f3, dist, ok = _pair_features_batch(pts[src], nrm[src], pts[dst], nrm[dst])
    i1, i2, i3 = _bin_indices(f1[ok], f2[ok], f3[ok])
    src_ok = src[ok]
    cells = np.column_stack([i1, FPFH_BINS + i2, 2 * FPFH_BINS + i3])
    cells += 3 * FPFH_BINS * src_ok[:, None]
    spfh = np.bincount(cells.ravel(), minlength=3 * FPFH_BINS * n)
    spfh = spfh.reshape(n, 3 * FPFH_BINS).astype(np.float64)
    pair_counts = np.bincount(src_ok, minlength=n)
    nonzero = pair_counts > 0
    spfh[nonzero] /= pair_counts[nonzero, None]

    # row i of the sparse product adds w * spfh[dst] over i's pairs one at a
    # time, in list order; coincident neighbours count with weight 0
    w = np.zeros_like(dist)
    pos = dist > 0
    w[pos] = 1.0 / dist[pos]
    k_counts = np.bincount(src, minlength=n)
    indptr = np.concatenate([[0], np.cumsum(k_counts)])
    acc = csr_matrix((w, dst, indptr), shape=(n, n)) @ spfh
    fpfh = spfh + acc / np.maximum(k_counts, 1)[:, None]

    isolated = ~nonzero
    if np.any(isolated):
        idx = np.nonzero(isolated)[0]
        warnings.warn(
            f"{len(idx)} points with no FPFH neighbors; zero histograms "
            f"(first: {idx[:8].tolist()})",
            MeshWarning,
            stacklevel=2,
        )
        fpfh[isolated] = 0.0

    # percentage convention per 11-bin block
    for b in range(3):
        block = fpfh[:, b * FPFH_BINS:(b + 1) * FPFH_BINS]
        sums = block.sum(axis=1)
        ok = sums > 0
        block[ok] = block[ok] / sums[ok, None] * 100.0
    return FpfhDescriptor(fpfh)
