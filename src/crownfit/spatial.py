"""Exact nearest-neighbor queries and radius pairs over 3-D point sets.

Thin wrapper around a k-d tree; nearest-neighbour results are exact and
deterministically ordered so they can be compared against linear scans;
``nearest_within`` prunes the search at a gate distance, and
``median_spacing`` measures a point set's density.
``radius_pairs`` returns each unordered pair within a radius once, unsorted,
as int32 indices; FPFH derives both directions, their distances and its
summation order from it. The index is read-only after construction and safe
for concurrent queries.
"""

from __future__ import annotations

import numpy as np
from scipy.spatial import cKDTree


class SpatialIndex:
    def __init__(self, points):
        points = np.asarray(points, dtype=np.float64).reshape(-1, 3)
        if len(points) == 0:
            raise ValueError("cannot index an empty point set")
        self._tree = cKDTree(points)

    def nearest(self, query):
        """``(indices, distances)``, shaped (n,), of the nearest indexed point
        to each of the (n, 3) query points."""
        query = np.asarray(query, dtype=np.float64).reshape(-1, 3)
        dist, idx = self._tree.query(query, k=1)
        return idx, dist

    def nearest_within(self, query, max_dist: float):
        """``(indices, distances)``, shaped (n,), of the nearest indexed point
        to each of the (n, 3) query points, searched only out to ``max_dist``.

        A query whose nearest point is at most ``max_dist`` away (inclusive)
        gets the same answer as from ``nearest``; callers gate on
        ``distance <= max_dist``. A query with nothing in reach gets the
        number of indexed points as its index, and distance inf. scipy's
        bound is strict, hence the next float above ``max_dist``.
        """
        query = np.asarray(query, dtype=np.float64).reshape(-1, 3)
        dist, idx = self._tree.query(query, k=1,
                                     distance_upper_bound=np.nextafter(max_dist, np.inf))
        return idx, dist

    def median_spacing(self) -> float:
        """Median, over the indexed points, of the distance from each to its
        nearest other indexed point: coincident points are 0 apart, and a
        single point, which has no other, is inf."""
        dist, _ = self._tree.query(self._tree.data, k=2)
        return float(np.median(dist[:, 1]))

    def radius_pairs(self, radius: float):
        """``(i, j)`` int32 arrays of every pair of distinct indexed points at
        most ``radius`` apart (inclusive), once each with ``i < j``, unsorted;
        coincident duplicates pair up."""
        pairs = self._tree.query_pairs(radius, output_type="ndarray")
        return pairs[:, 0].astype(np.int32), pairs[:, 1].astype(np.int32)
