import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crownfit.mesh import LabeledMesh
from crownfit.metrics import (bootstrap_ci, centroid_error, class_metrics, macro_average,
                              summarize)


def naive_confusion(pred, gt):
    classes = sorted(set(pred) | set(gt))
    tp, fp, fn = {}, {}, {}
    for c in classes:
        tp[c] = sum(1 for p, g in zip(pred, gt) if p == c and g == c)
        fp[c] = sum(1 for p, g in zip(pred, gt) if p == c and g != c)
        fn[c] = sum(1 for p, g in zip(pred, gt) if p != c and g == c)
    return tp, fp, fn


class TestConfusion:
    def test_perfect_prediction(self):
        scores = class_metrics([1, 2, 2, 0], [1, 2, 2, 0])
        assert list(scores) == [0, 1, 2]
        assert all(row == {"dsc": 1.0, "precision": 1.0, "recall": 1.0}
                   for row in scores.values())

    def test_all_zero_vs_all_one(self):
        scores = class_metrics([0] * 10, [1] * 10)
        assert scores == {0: {"dsc": 0.0, "precision": 0.0, "recall": None},
                          1: {"dsc": 0.0, "precision": None, "recall": 0.0}}

    def test_matches_naive_counter(self, rng):
        pred = rng.integers(0, 5, size=100)
        gt = rng.integers(0, 5, size=100)
        scores = class_metrics(pred, gt)
        tp, fp, fn = naive_confusion(pred.tolist(), gt.tolist())
        assert list(scores) == sorted(tp)
        for c, row in scores.items():
            assert row["dsc"] == 2 * tp[c] / (2 * tp[c] + fp[c] + fn[c])
            assert row["precision"] == (tp[c] / (tp[c] + fp[c]) if tp[c] + fp[c] else None)
            assert row["recall"] == (tp[c] / (tp[c] + fn[c]) if tp[c] + fn[c] else None)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            class_metrics([0, 1], [0])


class TestDsc:
    def test_perfect(self):
        assert class_metrics([3] * 5, [3] * 5)[3]["dsc"] == 1.0

    def test_hand_arithmetic(self):
        # TP=3, FP=1, FN=2 -> 6/9
        pred = [1, 1, 1, 1, 0, 0]
        gt = [1, 1, 1, 0, 1, 1]
        value = class_metrics(pred, gt)[1]["dsc"]
        assert np.isclose(value, 6.0 / 9.0)
        assert value == 2 * 3 / (2 * 3 + 1 + 2)

    def test_no_overlap_zero(self):
        pred = [1, 1, 1, 1, 0, 0, 0, 0]
        gt = [0, 0, 0, 0, 1, 1, 1, 1]
        assert class_metrics(pred, gt)[1]["dsc"] == 0.0

    def test_absent_class_undefined(self):
        # a class in neither label array has no row
        assert 5 not in class_metrics([0, 0], [0, 0])

    @settings(max_examples=50, deadline=None)
    @given(st.integers(0, 2**31 - 1))
    def test_bounds_and_swap_symmetry(self, seed):
        rng = np.random.default_rng(seed)
        pred = rng.integers(0, 4, size=30)
        gt = rng.integers(0, 4, size=30)
        a = class_metrics(pred, gt)
        b = class_metrics(gt, pred)
        assert list(a) == list(b)
        for c in a:
            va, vb = a[c]["dsc"], b[c]["dsc"]
            assert (va is None) == (vb is None)
            assert (a[c]["precision"], a[c]["recall"]) == (b[c]["recall"], b[c]["precision"])
            if va is not None:
                assert 0.0 <= va <= 1.0
                assert np.isclose(va, vb)
                if va == 1.0:
                    assert a[c]["precision"] == a[c]["recall"] == 1.0


class TestPrecisionRecall:
    def test_hand_arithmetic(self):
        pred = [1, 1, 1, 1, 0, 0]
        gt = [1, 1, 1, 0, 1, 1]
        row = class_metrics(pred, gt)[1]
        assert row["precision"] == 0.75
        assert row["recall"] == 0.6

    def test_perfect(self):
        row = class_metrics([2] * 4, [2] * 4)[2]
        assert (row["precision"], row["recall"]) == (1.0, 1.0)

    def test_zero_precision(self):
        row = class_metrics([1] * 5, [0] * 5)[1]
        assert row["precision"] == 0.0
        assert row["recall"] is None  # class 1 absent from ground truth


class TestMacroAverage:
    def test_excludes_undefined(self):
        assert macro_average([1.0, None, 0.5]) == 0.75

    def test_all_undefined(self):
        assert macro_average([None, None]) is None


class TestCentroidError:
    def make_mesh(self):
        # two unit right triangles far apart with equal areas
        vertices = [[0, 0, 0], [1, 0, 0], [0, 1, 0],
                    [3, 4, 0], [4, 4, 0], [3, 5, 0]]
        return LabeledMesh(vertices, [[0, 1, 2], [3, 4, 5]])

    def test_identical_regions_zero(self):
        mesh = self.make_mesh()
        err, miss = centroid_error([0], [0], mesh, 42.0)
        assert err == 0.0
        assert not miss

    def test_hand_euclidean_distance(self):
        mesh = self.make_mesh()
        # centroid(face 0) = (1/3, 1/3, 0); centroid(face 1) = (10/3, 13/3, 0)
        err, miss = centroid_error([1], [0], mesh, 42.0)
        assert np.isclose(err, 5.0)
        assert not miss

    def test_empty_prediction_gets_bbox_penalty(self):
        mesh = self.make_mesh()
        err, miss = centroid_error([], [0], mesh, 42.0)
        assert err == 42.0
        assert miss

    def test_empty_gt_rejected(self):
        with pytest.raises(ValueError):
            centroid_error([0], [], self.make_mesh(), 42.0)

    def test_rigid_invariance(self, rng):
        from crownfit.mesh import RigidTransform
        mesh = self.make_mesh()
        t = RigidTransform.from_axis_angle(rng.normal(size=3), 0.9, rng.normal(size=3))
        moved = mesh.transformed(t)
        a, _ = centroid_error([1], [0], mesh, 42.0)
        b, _ = centroid_error([1], [0], moved, 42.0)
        assert np.isclose(a, b, atol=1e-9)


def independent_bootstrap(samples, b, seed):
    """Second bootstrap implementation: row-by-row resampling."""
    samples = np.sort(np.asarray(samples, dtype=np.float64))
    rng = np.random.default_rng(seed)
    means = np.empty(b)
    for i in range(b):
        idx = rng.integers(0, len(samples), size=len(samples))
        means[i] = samples[idx].mean()
    return tuple(np.percentile(means, [2.5, 97.5]))


class TestBootstrap:
    def test_identical_samples_degenerate_ci(self):
        lo, hi = bootstrap_ci([3.3] * 10, b=500, seed=0)
        assert lo == hi == 3.3

    def test_against_independent_reimplementation(self):
        samples = np.array([0.0] * 500 + [1.0] * 500)
        lo, hi = bootstrap_ci(samples, b=10_000, seed=42)
        lo2, hi2 = independent_bootstrap(samples, 10_000, 42)
        assert 0.45 <= lo <= 0.5 <= hi <= 0.55
        assert abs(lo - lo2) < 0.01
        assert abs(hi - hi2) < 0.01

    def test_deterministic_and_order_invariant(self, rng):
        samples = rng.normal(size=40)
        a = bootstrap_ci(samples, b=2000, seed=7)
        b = bootstrap_ci(samples, b=2000, seed=7)
        c = bootstrap_ci(samples[::-1], b=2000, seed=7)
        assert a == b == c

    def test_too_few_samples_rejected(self):
        with pytest.raises(ValueError):
            bootstrap_ci([1.0], b=100, seed=0)


class TestSummarize:
    def test_hand_values(self):
        s = summarize([1.0, 2.0, 3.0], b=1000, seed=0)
        assert list(s) == ["mean", "std", "median", "ci_low", "ci_high", "miss_rate", "n"]
        assert s["mean"] == 2.0
        assert s["std"] == 1.0
        assert s["median"] == 2.0
        assert s["ci_low"] <= s["mean"] <= s["ci_high"]
        assert s["n"] == 3

    def test_even_count_median_midpoint(self):
        s = summarize([1.0, 2.0, 3.0, 10.0], b=500, seed=0)
        assert s["median"] == 2.5

    def test_single_sample(self):
        s = summarize([4.2])
        assert s["std"] is None
        assert s["mean"] == s["median"] == s["ci_low"] == s["ci_high"] == 4.2

    def test_miss_rate(self):
        s = summarize(np.ones(41), misses=2, b=500, seed=0)
        assert np.isclose(s["miss_rate"], 2 / 41)
        assert np.isclose(s["miss_rate"], 0.0488, atol=5e-5)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            summarize([])

    def test_miss_count_outside_range_rejected(self):
        for misses in (-1, 3):
            with pytest.raises(ValueError, match="miss count"):
                summarize([1.0, 2.0], misses=misses)


def test_region_centroid_area_weighted():
    vertices = [[0, 0, 0], [2, 0, 0], [0, 2, 0],       # area 2
                [10, 0, 0], [11, 0, 0], [10, 1, 0],    # area 0.5
                [20, 0, 0], [21, 0, 0], [22, 0, 0]]    # area 0
    mesh = LabeledMesh(vertices, [[0, 1, 2], [3, 4, 5], [6, 7, 8]])
    c = mesh.centroid([0, 1])
    manual = (2.0 * np.array([2 / 3, 2 / 3, 0]) + 0.5 * np.array([31 / 3, 1 / 3, 0])) / 2.5
    assert np.allclose(c, manual)
    # a face set without area falls back to the plain mean of its face centroids
    assert np.allclose(mesh.centroid([2]), [21, 0, 0])
    with pytest.raises(ValueError):
        mesh.centroid([])
