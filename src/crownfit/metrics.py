"""Segmentation and localization metrics with statistical reporting.

Per-class DSC / precision / recall from face-level confusion counts, centroid
error with the bounding-box-diagonal miss penalty, and per-scan summaries:
mean, sample std, median, percentile-bootstrap CI, miss rate. Metrics with a
zero denominator return None and are excluded from macro averages.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .mesh import LabeledMesh


@dataclass(frozen=True)
class ConfusionCounts:
    tp: dict
    fp: dict
    fn: dict

    def classes(self) -> tuple[int, ...]:
        keys = set(self.tp) | set(self.fp) | set(self.fn)
        return tuple(sorted(keys))


def confusion(pred, gt) -> ConfusionCounts:
    pred = np.asarray(pred, dtype=np.int64)
    gt = np.asarray(gt, dtype=np.int64)
    if pred.shape != gt.shape:
        raise ValueError(f"label length mismatch: {pred.shape} vs {gt.shape}")
    tp, fp, fn = {}, {}, {}
    for cls in np.union1d(pred, gt):
        cls = int(cls)
        p = pred == cls
        g = gt == cls
        tp[cls] = int(np.sum(p & g))
        fp[cls] = int(np.sum(p & ~g))
        fn[cls] = int(np.sum(~p & g))
    return ConfusionCounts(tp, fp, fn)


def dsc(counts: ConfusionCounts, cls: int) -> float | None:
    """Dice similarity 2TP/(2TP+FP+FN); None when the class is absent from both."""
    tp = counts.tp.get(cls, 0)
    fp = counts.fp.get(cls, 0)
    fn = counts.fn.get(cls, 0)
    denom = 2 * tp + fp + fn
    if denom == 0:
        return None
    return 2.0 * tp / denom


def precision_recall(counts: ConfusionCounts, cls: int) -> tuple[float | None, float | None]:
    tp = counts.tp.get(cls, 0)
    fp = counts.fp.get(cls, 0)
    fn = counts.fn.get(cls, 0)
    precision = tp / (tp + fp) if tp + fp > 0 else None
    recall = tp / (tp + fn) if tp + fn > 0 else None
    return precision, recall


def macro_average(values) -> float | None:
    """Arithmetic mean over defined (non-None) values only."""
    defined = [v for v in values if v is not None]
    if not defined:
        return None
    return float(np.mean(defined))


def centroid_error(pred_faces, gt_faces, mesh: LabeledMesh, bbox_diag: float) -> tuple[float, bool]:
    """Distance between predicted and ground-truth region centroids, in mm.

    An empty prediction is a catastrophic localization failure: the error is
    the scan bounding-box diagonal and the miss flag is set.
    """
    gt_faces = np.asarray(gt_faces, dtype=np.int64)
    if gt_faces.size == 0:
        raise ValueError("ground-truth region is empty")
    pred_faces = np.asarray(pred_faces, dtype=np.int64)
    if pred_faces.size == 0:
        return float(bbox_diag), True
    d = np.linalg.norm(mesh.centroid(pred_faces) - mesh.centroid(gt_faces))
    return float(d), False


def bootstrap_ci(samples, b: int, seed: int) -> tuple[float, float]:
    """95% percentile bootstrap CI of the mean over ``b`` resamples with replacement.

    Samples are sorted before resampling so the result is invariant to input
    order; deterministic for a fixed seed.
    """
    samples = np.sort(np.asarray(samples, dtype=np.float64))
    if len(samples) < 2:
        raise ValueError("bootstrap needs at least 2 samples")
    rng = np.random.default_rng(seed)
    idx = rng.integers(0, len(samples), size=(b, len(samples)))
    means = samples[idx].mean(axis=1)
    lo, hi = np.percentile(means, (2.5, 97.5))
    return float(lo), float(hi)


@dataclass(frozen=True)
class MetricSummary:
    mean: float
    std: float | None          # None for a single sample
    median: float
    ci_low: float
    ci_high: float
    miss_rate: float
    n: int

    def __post_init__(self):
        if self.ci_low > self.ci_high:
            raise ValueError("ci_low must not exceed ci_high")
        if self.std is not None and self.std < 0:
            raise ValueError("std must be non-negative")
        if not 0.0 <= self.miss_rate <= 1.0:
            raise ValueError("miss_rate must lie in [0, 1]")


def summarize(samples, misses: int = 0, b: int = 10_000, seed: int = 0) -> MetricSummary:
    """Mean, sample std (n-1), median (midpoint for even n), bootstrap CI and
    miss rate. A single sample gets a degenerate CI and an undefined std."""
    samples = np.asarray(samples, dtype=np.float64)
    if samples.size == 0:
        raise ValueError("cannot summarize zero samples")
    if not 0 <= misses <= samples.size:
        raise ValueError("miss count outside [0, n]")
    mean = float(samples.mean())
    median = float(np.median(samples))
    if samples.size == 1:
        return MetricSummary(mean, None, median, mean, mean, misses / samples.size, 1)
    std = float(samples.std(ddof=1))
    lo, hi = bootstrap_ci(samples, b=b, seed=seed)
    return MetricSummary(mean, std, median, lo, hi, misses / samples.size, int(samples.size))
