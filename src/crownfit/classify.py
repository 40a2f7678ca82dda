"""Scan-class assignment routing template selection and segmentation.

The deterministic geometric baseline replaces a trained classifier: azimuthal
coverage of the centered point mass separates full from partial scans, the
circular mean azimuth relative to the anterior direction separates partial
sides, and the mean normal z-orientation of occlusal-facing points separates
upper from lower full arches (upper teeth point -z in the canonical frame).
The external provider reads the class from a JSON sidecar next to the scan.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from enum import Enum
from pathlib import Path

import numpy as np

from .errors import ClassificationError
from .mesh import LabeledMesh


class ScanClass(Enum):
    FULL_UPPER = "FullUpper"
    FULL_LOWER = "FullLower"
    PARTIAL_LEFT = "PartialLeft"
    PARTIAL_RIGHT = "PartialRight"
    PARTIAL_CENTER = "PartialCenter"


@dataclass(frozen=True)
class ClassifierParams:
    """The classify stage's config section: the provider and the baseline's
    thresholds."""

    provider: str = "baseline"        # "baseline" | "external" (the scan's sidecar)
    full_span_deg: float = 240.0      # azimuthal coverage separating full from partial
    center_band_deg: float = 30.0     # |circular mean - anterior| band for Center
    span_bins: int = 72               # 5-degree azimuth bins
    span_mass_threshold: float = 0.5  # bin mass gate, fraction of uniform mass
    span_radial_power: float = 1.5    # point mass weighted by r**power
    occlusal_dot_min: float = 0.7     # |nz| gate for "occlusal-facing" points
    min_points: int = 100

    def __post_init__(self):
        if self.provider not in ("baseline", "external"):
            raise ValueError(f"unknown classifier provider {self.provider!r}")


def _polar(points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Radius (mm) and azimuth (rad in (-pi, pi]) of each point in the XY plane
    about the centroid; a point on the centroid's z axis has azimuth 0."""
    pos = points - points.mean(axis=0)
    phi = np.arctan2(pos[:, 1], pos[:, 0])
    phi[(pos[:, 0] == 0) & (pos[:, 1] == 0)] = 0.0
    return np.hypot(pos[:, 0], pos[:, 1]), phi


def _azimuthal_span_deg(phi: np.ndarray, r: np.ndarray, params: ClassifierParams) -> float:
    """Angular extent of azimuth bins whose point mass exceeds the gate.

    Mass is radius-weighted (r**power): a short anterior segment surrounds
    its own centroid with near-field points, so unweighted occupancy cannot
    tell it from a full horseshoe. Calibrated against the synthetic fixtures.
    """
    w = r**params.span_radial_power
    hist, _ = np.histogram(phi, bins=params.span_bins, range=(-np.pi, np.pi), weights=w)
    gate = params.span_mass_threshold * w.sum() / params.span_bins
    occupied = hist > gate
    return occupied.sum() * 360.0 / params.span_bins


def _circular_mean(phi: np.ndarray) -> float:
    return float(np.arctan2(np.mean(np.sin(phi)), np.mean(np.cos(phi))))


def baseline_geometric_classify(scan: LabeledMesh,
                                params: ClassifierParams) -> tuple[ScanClass, float]:
    """The class of a scan, which carries vertex normals, and a confidence in
    [0, 1]."""
    if scan.vertex_normals is None:
        raise ValueError("baseline classification needs vertex normals")
    if scan.n_vertices < params.min_points:
        raise ClassificationError(
            f"too few points for classification ({scan.n_vertices} < {params.min_points})"
        )
    r, phi = _polar(scan.vertices)
    span = _azimuthal_span_deg(phi, r, params)
    span_margin = min(1.0, abs(span - params.full_span_deg) / 120.0)

    if span > params.full_span_deg:
        nz = scan.vertex_normals[:, 2]
        occlusal = np.abs(nz) > params.occlusal_dot_min
        mean_nz = float(nz[occlusal].mean()) if occlusal.any() else float(nz.mean())
        cls = ScanClass.FULL_LOWER if mean_nz > 0 else ScanClass.FULL_UPPER
        confidence = min(span_margin, min(1.0, abs(mean_nz)))
        return cls, confidence

    # partial side: circular mean azimuth against the anterior direction (+y)
    mean_phi = _circular_mean(phi)
    dev = np.degrees(np.arctan2(np.sin(mean_phi - np.pi / 2), np.cos(mean_phi - np.pi / 2)))
    band = params.center_band_deg
    if abs(dev) <= band:
        cls = ScanClass.PARTIAL_CENTER
        side_margin = min(1.0, (band - abs(dev)) / band)
    elif dev < 0:
        # circular mean toward +x (phi < pi/2): the patient's left side
        cls = ScanClass.PARTIAL_LEFT
        side_margin = min(1.0, (abs(dev) - band) / (90.0 - band))
    else:
        cls = ScanClass.PARTIAL_RIGHT
        side_margin = min(1.0, (abs(dev) - band) / (90.0 - band))
    return cls, min(span_margin, side_margin)


def read_classification_sidecar(scan_path) -> tuple[ScanClass, float]:
    """The class and confidence in a scan's sidecar JSON, the scan path with a
    ``.class.json`` suffix: ``{"class": ..., "confidence": ...}`` with a
    confidence in [0, 1]."""
    path = Path(f"{scan_path}.class.json")
    try:
        payload = json.loads(path.read_text())
        if not isinstance(payload, dict):
            raise ValueError(f"expected a JSON object, got {type(payload).__name__}")
        scan_class = ScanClass(payload["class"])
        confidence = float(payload["confidence"])
        if not 0.0 <= confidence <= 1.0:  # false for NaN
            raise ValueError(f"confidence {confidence} is not in [0, 1]")
    except (OSError, KeyError, TypeError, ValueError) as exc:
        raise ClassificationError(f"bad classification sidecar {path}: {exc}") from exc
    return scan_class, confidence
