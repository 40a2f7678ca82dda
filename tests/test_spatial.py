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
    """{(i, j): distance} of all unordered pairs i < j within radius."""
    out = {}
    for i, p in enumerate(points):
        d = np.linalg.norm(points - p, axis=1)
        out.update({(i, int(j)): d[j] for j in np.nonzero(d <= radius)[0] if j > i})
    return out


def test_radius_matches_linear_scan(rng):
    pts = rng.uniform(0, 1, size=(300, 3))
    pts[5] = pts[9]  # a coincident pair
    i, j, dist = SpatialIndex(pts).radius_pairs(0.25)
    want = linear_radius_pairs(pts, 0.25)
    assert set(zip(i.tolist(), j.tolist())) == set(want)
    assert len(i) == len(want)
    assert np.all(i < j)  # each pair once, no self-pairs
    assert np.allclose(dist, [want[p] for p in zip(i.tolist(), j.tolist())], rtol=0, atol=1e-12)


def test_radius_zero_returns_only_coincident(rng):
    pts = np.array([[0.0, 0, 0], [1, 0, 0], [0, 0, 0]])
    i, j, dist = SpatialIndex(pts).radius_pairs(0.0)
    assert list(zip(i.tolist(), j.tolist())) == [(0, 2)]
    assert dist.tolist() == [0.0]


def test_radius_pairs_once_with_exact_distances(rng):
    pts = rng.uniform(0, 1, size=(200, 3))
    pts[7] = pts[3] = pts[150]  # coincident triple: three pairs at distance 0
    i, j, dist = SpatialIndex(pts).radius_pairs(0.4)
    assert len(set(zip(i.tolist(), j.tolist()))) == len(i) == len(linear_radius_pairs(pts, 0.4))
    assert np.all(i < j)
    assert dist.tobytes() == np.linalg.norm(pts[j] - pts[i], axis=1).tobytes()
    assert {(a, b) for a, b, d in zip(i.tolist(), j.tolist(), dist) if d == 0} == {
        (3, 7), (3, 150), (7, 150)}


def test_empty_input_rejected():
    with pytest.raises(ValueError):
        SpatialIndex(np.zeros((0, 3)))
