"""Exact nearest-neighbor queries and radius pairs over 3-D point sets.

Thin wrapper around a k-d tree; nearest-neighbour results are exact and
deterministically ordered so they can be compared against linear scans.
``radius_pairs`` returns each unordered pair within a radius once, unsorted;
FPFH derives both directions and its summation order from it. The index is
read-only after construction and safe for concurrent queries.
"""

from __future__ import annotations

import numpy as np
from scipy.spatial import cKDTree


class SpatialIndex:
    def __init__(self, points):
        points = np.asarray(points, dtype=np.float64).reshape(-1, 3)
        if len(points) == 0:
            raise ValueError("cannot index an empty point set")
        self._points = points
        self._tree = cKDTree(points)

    def __len__(self) -> int:
        return len(self._points)

    @property
    def points(self) -> np.ndarray:
        return self._points

    def nearest(self, query, k: int = 1):
        """Indices and distances of the k nearest points to each query point.

        Returns ``(indices, distances)`` shaped (k,) for a single query or
        (n, k) for a batch.
        """
        query = np.asarray(query, dtype=np.float64)
        single = query.ndim == 1
        dist, idx = self._tree.query(np.atleast_2d(query), k=k)
        dist = np.atleast_2d(dist).reshape(-1, k)
        idx = np.atleast_2d(idx).reshape(-1, k)
        if single:
            return idx[0], dist[0]
        return idx, dist

    def radius_pairs(self, radius: float):
        """``(i, j, distance)`` arrays of every pair of distinct indexed points
        at most ``radius`` apart (inclusive), once each with ``i < j``, unsorted;
        coincident duplicates pair up at distance 0."""
        i, j = self._tree.query_pairs(radius, output_type="ndarray").T
        return i, j, np.linalg.norm(self._points[j] - self._points[i], axis=1)
