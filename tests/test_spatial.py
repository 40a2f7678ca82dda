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


def test_radius_matches_linear_scan(rng):
    pts = rng.uniform(0, 1, size=(300, 3))
    index = SpatialIndex(pts)
    for q in rng.uniform(0, 1, size=(20, 3)):
        got = set(index.radius(q, 0.25).tolist())
        want = set(np.nonzero(np.linalg.norm(pts - q, axis=1) <= 0.25)[0].tolist())
        assert got == want


def test_radius_zero_returns_only_coincident(rng):
    pts = np.array([[0.0, 0, 0], [1, 0, 0], [0, 0, 0]])
    index = SpatialIndex(pts)
    hits = index.radius([0, 0, 0], 0.0)
    assert set(hits.tolist()) == {0, 2}


def test_radius_results_sorted_by_distance(rng):
    pts = rng.uniform(0, 1, size=(200, 3))
    index = SpatialIndex(pts)
    hits = index.radius([0.5, 0.5, 0.5], 0.4)
    d = np.linalg.norm(pts[hits] - [0.5, 0.5, 0.5], axis=1)
    assert np.all(np.diff(d) >= 0)


def test_empty_input_rejected():
    with pytest.raises(ValueError):
        SpatialIndex(np.zeros((0, 3)))
