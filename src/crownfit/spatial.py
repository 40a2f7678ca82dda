"""Exact nearest-neighbor queries and radius pairs over 3-D point sets.

Thin wrapper around a k-d tree; results are exact and deterministically
ordered so they can be compared against linear scans. ``radius_pairs``
returns every (source, neighbour) pair of indexed points within a radius as
one flat list, ordered by source, then distance, then neighbour index. The
index is read-only after construction and safe for concurrent queries.
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
        """Flat ``(source, neighbour)`` index arrays of all pairs of distinct
        indexed points at most ``radius`` apart (inclusive), both directions.

        Sorted by source, then distance, then neighbour index; coincident
        duplicates pair up at distance 0, self-pairs are dropped.
        """
        pairs = self._tree.query_pairs(radius, output_type="ndarray")
        src = np.concatenate([pairs[:, 0], pairs[:, 1]])
        dst = np.concatenate([pairs[:, 1], pairs[:, 0]])
        dist = np.linalg.norm(self._points[dst] - self._points[src], axis=1)
        order = np.lexsort((dst, dist, src))
        return src[order], dst[order]
