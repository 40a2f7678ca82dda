"""Exact nearest-neighbor and radius queries over 3-D point sets.

Thin wrapper around a k-d tree; results are exact and deterministically
ordered (distance, then index) so they can be compared against linear scans.
The index is read-only after construction and safe for concurrent queries.
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

    def radius(self, query, radius: float):
        """Indices of points within ``radius`` (inclusive), sorted by distance."""
        query = np.asarray(query, dtype=np.float64).reshape(3)
        idx = np.asarray(self._tree.query_ball_point(query, radius), dtype=np.int64)
        if len(idx) == 0:
            return idx
        dist = np.linalg.norm(self._points[idx] - query, axis=1)
        order = np.lexsort((idx, dist))
        return idx[order]

    def radius_batch(self, queries, radius: float):
        """List of sorted index arrays, one per query point."""
        queries = np.asarray(queries, dtype=np.float64).reshape(-1, 3)
        raw = self._tree.query_ball_point(queries, radius)
        out = []
        for q, members in zip(queries, raw):
            idx = np.asarray(members, dtype=np.int64)
            if len(idx):
                dist = np.linalg.norm(self._points[idx] - q, axis=1)
                idx = idx[np.lexsort((idx, dist))]
            out.append(idx)
        return out
