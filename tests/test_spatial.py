import numpy as np
import pytest

from crownfit.spatial import SpatialIndex


def linear_nearest(points, query):
    d = np.linalg.norm(points - query, axis=1)
    return int(np.argmin(d)), float(d.min())


def test_query_at_indexed_point(rng):
    pts = rng.normal(size=(50, 3))
    index = SpatialIndex(pts)
    idx, dist = index.nearest(pts[17])
    assert idx[0] == 17
    assert dist[0] == 0.0


def test_matches_linear_scan_on_random_instances(rng):
    pts = rng.uniform(-5, 5, size=(1000, 3))
    index = SpatialIndex(pts)
    queries = rng.uniform(-6, 6, size=(100, 3))
    idx, dist = index.nearest(queries)
    for q, i, d in zip(queries, idx[:, 0], dist[:, 0]):
        oi, od = linear_nearest(pts, q)
        assert i == oi
        assert np.isclose(d, od)


def linear_radius_pairs(points, radius):
    """All (source, neighbour, distance) triples of distinct indices within radius."""
    out = []
    for i, p in enumerate(points):
        d = np.linalg.norm(points - p, axis=1)
        out += [(i, j, d[j]) for j in np.nonzero(d <= radius)[0] if j != i]
    return out


def test_radius_matches_linear_scan(rng):
    pts = rng.uniform(0, 1, size=(300, 3))
    pts[5] = pts[9]  # a coincident pair
    src, dst = SpatialIndex(pts).radius_pairs(0.25)
    want = linear_radius_pairs(pts, 0.25)
    assert set(zip(src.tolist(), dst.tolist())) == {(i, j) for i, j, _ in want}
    assert len(src) == len(want)
    assert not np.any(src == dst)


def test_radius_zero_returns_only_coincident(rng):
    pts = np.array([[0.0, 0, 0], [1, 0, 0], [0, 0, 0]])
    src, dst = SpatialIndex(pts).radius_pairs(0.0)
    assert list(zip(src.tolist(), dst.tolist())) == [(0, 2), (2, 0)]


def test_radius_results_sorted_by_distance(rng):
    pts = rng.uniform(0, 1, size=(200, 3))
    pts[7] = pts[3] = pts[150]  # equal distances break ties by neighbour index
    src, dst = SpatialIndex(pts).radius_pairs(0.4)
    want = sorted(linear_radius_pairs(pts, 0.4), key=lambda t: (t[0], t[2], t[1]))
    assert list(zip(src.tolist(), dst.tolist())) == [(i, j) for i, j, _ in want]


def test_empty_input_rejected():
    with pytest.raises(ValueError):
        SpatialIndex(np.zeros((0, 3)))
