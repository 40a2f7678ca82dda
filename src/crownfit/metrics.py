"""Segmentation and localization metrics with statistical reporting.

Per-class DSC / precision / recall from one face-level confusion matrix,
centroid error with the bounding-box-diagonal miss penalty, and per-scan
summaries as plain dicts: mean, sample std, median, percentile-bootstrap CI,
miss rate. Metrics with a zero denominator are None and are excluded from
macro averages.
"""

from __future__ import annotations

import numpy as np

from .mesh import LabeledMesh


def class_metrics(pred, gt) -> dict[int, dict]:
    """Per-class ``dsc`` 2TP/(2TP+FP+FN), ``precision`` TP/(TP+FP) and
    ``recall`` TP/(TP+FN), None where the denominator is 0, for every class
    in either label array, ascending.

    The counts come from one confusion matrix over the classes present.
    """
    pred = np.asarray(pred, dtype=np.int64)
    gt = np.asarray(gt, dtype=np.int64)
    if pred.shape != gt.shape:
        raise ValueError(f"label length mismatch: {pred.shape} vs {gt.shape}")
    classes, index = np.unique(np.concatenate([pred.ravel(), gt.ravel()]),
                               return_inverse=True)
    k = len(classes)
    # rows: predicted class, columns: ground-truth class
    cm = np.bincount(index[:pred.size] * k + index[pred.size:], minlength=k * k).reshape(k, k)
    tp = np.diag(cm).tolist()
    predicted = cm.sum(axis=1).tolist()  # TP + FP
    actual = cm.sum(axis=0).tolist()     # TP + FN
    return {
        cls: {
            "dsc": 2 * t / (p + a) if p + a else None,
            "precision": t / p if p else None,
            "recall": t / a if a else None,
        }
        for cls, t, p, a in zip(classes.tolist(), tp, predicted, actual)
    }


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


def summarize(samples, misses: int = 0, b: int = 10_000, seed: int = 0) -> dict:
    """``mean``, sample ``std`` (n-1), ``median`` (midpoint for even n),
    bootstrap ``ci_low`` and ``ci_high``, ``miss_rate`` and ``n``. A single
    sample gets a degenerate CI and a None std."""
    samples = np.asarray(samples, dtype=np.float64)
    if samples.size == 0:
        raise ValueError("cannot summarize zero samples")
    if not 0 <= misses <= samples.size:
        raise ValueError("miss count outside [0, n]")
    mean = float(samples.mean())
    if samples.size == 1:
        std, lo, hi = None, mean, mean
    else:
        std = float(samples.std(ddof=1))
        lo, hi = bootstrap_ci(samples, b=b, seed=seed)
    return {"mean": mean, "std": std, "median": float(np.median(samples)), "ci_low": lo,
            "ci_high": hi, "miss_rate": misses / samples.size, "n": int(samples.size)}
