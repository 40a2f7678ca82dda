import numpy as np
import pytest
from scipy.spatial.distance import pdist, squareform

from crownfit.spatial import SpatialIndex


def linear_nearest(points, query):
    d = np.linalg.norm(points - query, axis=1)
    return int(np.argmin(d)), float(d.min())


def test_query_at_indexed_point(rng):
    pts = rng.normal(size=(50, 3))
    index = SpatialIndex(pts)
    idx, dist = index.nearest(pts[17:18])  # a single query is a batch of one
    assert idx.shape == dist.shape == (1,)
    assert idx[0] == 17
    assert dist[0] == 0.0


def test_matches_linear_scan_on_random_instances(rng):
    pts = rng.uniform(-5, 5, size=(1000, 3))
    index = SpatialIndex(pts)
    queries = rng.uniform(-6, 6, size=(100, 3))
    idx, dist = index.nearest(queries)
    assert idx.shape == dist.shape == (100,)
    for q, i, d in zip(queries, idx, dist):
        oi, od = linear_nearest(pts, q)
        assert i == oi
        assert np.isclose(d, od)


def test_nearest_within_equals_nearest_inside_gate(rng):
    pts = rng.uniform(-5, 5, size=(1000, 3))
    index = SpatialIndex(pts)
    queries = rng.uniform(-6, 6, size=(301, 3))
    idx, dist = index.nearest(queries)
    gate = float(np.median(dist))  # one query lies exactly at the gate
    inside = dist <= gate
    got_idx, got_dist = index.nearest_within(queries, gate)
    assert np.array_equal(got_dist <= gate, inside)
    assert np.array_equal(got_idx[inside], idx[inside])
    assert np.array_equal(got_dist[inside], dist[inside])
    assert np.all(got_idx[~inside] == len(pts))
    assert np.all(np.isinf(got_dist[~inside]))


def test_nearest_within_keeps_point_exactly_at_gate():
    index = SpatialIndex([[0.0, 0.0, 0.0], [9.0, 9.0, 9.0]])
    query = [[1.0, 0.0, 0.0], [0.0, 0.0, -1.0]]
    idx, dist = index.nearest_within(query, 1.0)
    assert idx.tolist() == [0, 0] and dist.tolist() == [1.0, 1.0]
    idx, dist = index.nearest_within(query, np.nextafter(1.0, 0.0))
    assert idx.tolist() == [2, 2] and np.all(np.isinf(dist))


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
    i, j = SpatialIndex(pts).radius_pairs(0.25)
    want = linear_radius_pairs(pts, 0.25)
    assert i.dtype == j.dtype == np.int32
    assert set(zip(i.tolist(), j.tolist())) == set(want)
    assert len(i) == len(want)
    assert np.all(i < j)  # each pair once, no self-pairs


def test_radius_zero_returns_only_coincident(rng):
    pts = np.array([[0.0, 0, 0], [1, 0, 0], [0, 0, 0]])
    i, j = SpatialIndex(pts).radius_pairs(0.0)
    assert list(zip(i.tolist(), j.tolist())) == [(0, 2)]


def test_radius_pairs_once_with_exact_distances(rng):
    pts = rng.uniform(0, 1, size=(200, 3))
    pts[7] = pts[3] = pts[150]  # coincident triple: three pairs at distance 0
    pts[20], pts[21] = [0.5, 0.5, 0.5], [0.75, 0.5, 0.5]  # exactly the radius apart
    i, j = SpatialIndex(pts).radius_pairs(0.25)
    assert len(set(zip(i.tolist(), j.tolist()))) == len(i) == len(linear_radius_pairs(pts, 0.25))
    assert np.all(i < j)
    dist = np.linalg.norm(pts[j] - pts[i], axis=1)
    assert {(a, b) for a, b, d in zip(i.tolist(), j.tolist(), dist) if d == 0} == {
        (3, 7), (3, 150), (7, 150)}
    assert dist[(i == 20) & (j == 21)].tolist() == [0.25]  # the radius is inclusive


def pdist_median_spacing(points):
    """Median nearest-other-point distance by brute force over all pairs."""
    d = squareform(pdist(points))
    np.fill_diagonal(d, np.inf)
    return float(np.median(d.min(axis=1)))


@pytest.mark.parametrize("n", [2, 3, 4, 51, 400])
def test_median_spacing_matches_pdist(rng, n):
    pts = rng.uniform(-5, 5, size=(n, 3))
    assert SpatialIndex(pts).median_spacing() == pytest.approx(pdist_median_spacing(pts),
                                                               rel=1e-12)


def test_median_spacing_with_coincident_points(rng):
    pts = rng.uniform(0, 1, size=(60, 3))
    pts[10] = pts[11] = pts[12]  # a coincident triple
    pts[30] = pts[31]
    assert SpatialIndex(pts).median_spacing() == pytest.approx(pdist_median_spacing(pts),
                                                               rel=1e-12)
    pts[:31] = pts[0]  # most points coincide: the median is 0
    assert SpatialIndex(pts).median_spacing() == pdist_median_spacing(pts) == 0.0
    assert SpatialIndex(np.zeros((5, 3))).median_spacing() == 0.0


def test_median_spacing_of_one_point_is_inf():
    assert SpatialIndex([[1.0, 2.0, 3.0]]).median_spacing() == np.inf


def test_median_spacing_on_a_line():
    pts = np.column_stack([np.arange(10) * 0.5, np.zeros(10), np.zeros(10)])
    assert SpatialIndex(pts).median_spacing() == 0.5


def test_empty_input_rejected():
    with pytest.raises(ValueError):
        SpatialIndex(np.zeros((0, 3)))
