"""Scan-class assignment routing template selection and segmentation.

The deterministic geometric baseline replaces a trained classifier: azimuthal
coverage of the centered point mass separates full from partial scans, the
circular mean azimuth relative to the anterior direction separates partial
sides, and the mean normal z-orientation of occlusal-facing points separates
upper from lower full arches (upper teeth point -z in the canonical frame).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from enum import Enum
from pathlib import Path

import numpy as np

from .errors import ClassificationError
from .features import PointFeatures, compute_point_features
from .mesh import LabeledMesh


class ScanClass(Enum):
    FULL_UPPER = "FullUpper"
    FULL_LOWER = "FullLower"
    PARTIAL_LEFT = "PartialLeft"
    PARTIAL_RIGHT = "PartialRight"
    PARTIAL_CENTER = "PartialCenter"

    @property
    def is_full(self) -> bool:
        return self in (ScanClass.FULL_UPPER, ScanClass.FULL_LOWER)

    @property
    def side(self) -> str | None:
        return {
            ScanClass.PARTIAL_LEFT: "Left",
            ScanClass.PARTIAL_RIGHT: "Right",
            ScanClass.PARTIAL_CENTER: "Center",
        }.get(self)


@dataclass(frozen=True)
class ClassifierConfig:
    full_span_deg: float = 240.0      # azimuthal coverage separating full from partial
    center_band_deg: float = 30.0     # |circular mean - anterior| band for Center
    span_bins: int = 72               # 5-degree azimuth bins
    span_mass_threshold: float = 0.5  # bin mass gate, fraction of uniform mass
    span_radial_power: float = 1.5    # point mass weighted by r**power
    occlusal_dot_min: float = 0.7     # |nz| gate for "occlusal-facing" points
    min_points: int = 100


def _azimuthal_span_deg(phi: np.ndarray, r: np.ndarray, cfg: ClassifierConfig) -> float:
    """Angular extent of azimuth bins whose point mass exceeds the gate.

    Mass is radius-weighted (r**power): a short anterior segment surrounds
    its own centroid with near-field points, so unweighted occupancy cannot
    tell it from a full horseshoe. Calibrated against the synthetic fixtures.
    """
    w = r**cfg.span_radial_power
    hist, _ = np.histogram(phi, bins=cfg.span_bins, range=(-np.pi, np.pi), weights=w)
    gate = cfg.span_mass_threshold * w.sum() / cfg.span_bins
    occupied = hist > gate
    return occupied.sum() * 360.0 / cfg.span_bins


def _circular_mean(phi: np.ndarray) -> float:
    return float(np.arctan2(np.mean(np.sin(phi)), np.mean(np.cos(phi))))


def baseline_geometric_classify(
    features: PointFeatures,
    config: ClassifierConfig = ClassifierConfig(),
) -> tuple[ScanClass, float]:
    if len(features) < config.min_points:
        raise ClassificationError(
            f"too few points for classification ({len(features)} < {config.min_points})"
        )
    phi = features.azimuth
    span = _azimuthal_span_deg(phi, features.radius, config)
    span_margin = min(1.0, abs(span - config.full_span_deg) / 120.0)

    if span > config.full_span_deg:
        nz = features.normals[:, 2]
        occlusal = np.abs(nz) > config.occlusal_dot_min
        mean_nz = float(nz[occlusal].mean()) if occlusal.any() else float(nz.mean())
        cls = ScanClass.FULL_LOWER if mean_nz > 0 else ScanClass.FULL_UPPER
        confidence = min(span_margin, min(1.0, abs(mean_nz)))
        return cls, confidence

    # partial side: circular mean azimuth against the anterior direction (+y)
    mean_phi = _circular_mean(phi)
    dev = np.degrees(np.arctan2(np.sin(mean_phi - np.pi / 2), np.cos(mean_phi - np.pi / 2)))
    band = config.center_band_deg
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


class BaselineGeometricClassifier:
    """Deterministic geometric provider (no training, raw-mm features)."""

    def __init__(self, config: ClassifierConfig = ClassifierConfig()):
        self.config = config

    def classify(self, features: PointFeatures) -> tuple[ScanClass, float]:
        return baseline_geometric_classify(features, self.config)


class ExternalSidecarClassifier:
    """Reads {"class": ..., "confidence": ...} from a scan's sidecar JSON: the
    scan path with a ``.class.json`` suffix."""

    def __init__(self, scan_path):
        p = Path(scan_path)
        self.sidecar_path = p.with_suffix(p.suffix + ".class.json")

    def classify(self, features: PointFeatures) -> tuple[ScanClass, float]:
        try:
            payload = json.loads(self.sidecar_path.read_text())
            cls = ScanClass(payload["class"])
            confidence = float(payload["confidence"])
        except (OSError, KeyError, ValueError) as exc:
            raise ClassificationError(
                f"bad classification sidecar {self.sidecar_path}: {exc}"
            ) from exc
        return cls, confidence


def classify(provider, scan: LabeledMesh) -> tuple[ScanClass, float]:
    """Compute features from the scan, which carries vertex normals, and
    delegate to the provider, whose errors propagate as raised."""
    return provider.classify(compute_point_features(scan.to_point_cloud()))
