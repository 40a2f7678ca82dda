"""Spline-guided sequential crown alignment.

Step 1 fits a 2-D cubic spline through the arch tooth centroids and reads the
reference mesial (tangent) and buccal (outward in-plane normal) directions at
the preparation site. Step 2 hardens the references into robust targets by
averaging the prepared tooth's vertex normals that pass the dot threshold.
Step 3 aligns the annotated crown: translate to the prep centroid, rotate
mesial onto the robust mesial target, rotate about that axis to fix buccal,
then rotate occlusal onto the occlusal axis.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np
from scipy.interpolate import CubicSpline

from .errors import AlignmentWarning, DegenerateGeometryError
from .mesh import LabeledMesh, RigidTransform, _freeze

LABEL_MESIAL = 101
LABEL_BUCCAL = 102
LABEL_OCCLUSAL = 103
DEFAULT_TAU = 0.6
_CURVATURE_EPS = 1e-9


@dataclass(frozen=True)
class ArchSpline:
    """Natural cubic spline through tooth-centroid (x, y), chord-length knots.

    ``midline_t`` marks the dental midline parameter used to orient mesial
    directions; when the caller cannot supply one it defaults to the apex
    heuristic (point farthest from the endpoint chord), falling back to the
    middle knot for straight arches.
    """

    knots: np.ndarray       # (n,) parameter values
    points: np.ndarray      # (n, 2) interpolated centroids
    midline_t: float
    _spline: CubicSpline = field(repr=False, compare=False, default=None)

    def __post_init__(self):
        object.__setattr__(self, "knots", _freeze(np.asarray(self.knots, dtype=np.float64)))
        object.__setattr__(self, "points", _freeze(np.asarray(self.points, dtype=np.float64)))
        if self._spline is None:
            object.__setattr__(
                self, "_spline", CubicSpline(self.knots, self.points, bc_type="natural")
            )

    @property
    def t_min(self) -> float:
        return float(self.knots[0])

    @property
    def t_max(self) -> float:
        return float(self.knots[-1])

    def evaluate(self, t) -> np.ndarray:
        return self._spline(np.clip(t, self.t_min, self.t_max))

    def tangent(self, t) -> np.ndarray:
        d = self._spline.derivative()(np.clip(t, self.t_min, self.t_max))
        n = np.linalg.norm(d, axis=-1, keepdims=True)
        return d / n

    def curvature(self, t) -> float:
        t = float(np.clip(t, self.t_min, self.t_max))
        dx, dy = self._spline.derivative()(t)
        ddx, ddy = self._spline.derivative(2)(t)
        speed = np.hypot(dx, dy)
        if speed == 0:
            return 0.0
        return float((dx * ddy - dy * ddx) / speed**3)

    def project(self, point_xy) -> float:
        """Parameter of the closest spline point (dense sampling + refinement)."""
        p = np.asarray(point_xy, dtype=np.float64).reshape(2)
        ts = np.linspace(self.t_min, self.t_max, 4096)
        d2 = np.sum((self._spline(ts) - p) ** 2, axis=1)
        i = int(np.argmin(d2))
        lo = ts[max(0, i - 1)]
        hi = ts[min(len(ts) - 1, i + 1)]
        # golden-section refinement on the bracket
        gr = (np.sqrt(5.0) - 1.0) / 2.0
        a, b = lo, hi
        c = b - gr * (b - a)
        d = a + gr * (b - a)
        for _ in range(60):
            fc = np.sum((self._spline(c) - p) ** 2)
            fd = np.sum((self._spline(d) - p) ** 2)
            if fc < fd:
                b = d
            else:
                a = c
            c = b - gr * (b - a)
            d = a + gr * (b - a)
        return float((a + b) / 2.0)


def fit_arch_spline(centroids, midline_index: float | None = None) -> ArchSpline:
    """Natural cubic spline through the (x, y) of arch-ordered centroids.

    ``midline_index`` is the (possibly fractional) position of the dental
    midline within the ordered list; omitted, the apex heuristic applies.
    """
    pts = np.asarray(centroids, dtype=np.float64).reshape(-1, 3)[:, :2]
    if len(pts) < 3:
        raise ValueError(f"arch spline needs at least 3 centroids, got {len(pts)}")
    seg = np.linalg.norm(np.diff(pts, axis=0), axis=1)
    if np.any(seg == 0):
        raise DegenerateGeometryError("duplicate consecutive centroids")
    knots = np.concatenate([[0.0], np.cumsum(seg)])

    if midline_index is not None:
        if not 0 <= midline_index <= len(pts) - 1:
            raise ValueError("midline_index outside the centroid list")
        i = int(np.floor(midline_index))
        frac = midline_index - i
        midline_t = knots[i] if i == len(pts) - 1 else knots[i] * (1 - frac) + knots[i + 1] * frac
    else:
        chord = pts[-1] - pts[0]
        norm = np.linalg.norm(chord)
        if norm > 0:
            d = np.abs(np.cross(np.append(chord / norm, 0.0),
                                np.c_[pts - pts[0], np.zeros(len(pts))])[:, 2])
            if d.max() > 1e-9:
                midline_t = float(knots[int(np.argmax(d))])
            else:
                midline_t = float(knots[len(pts) // 2])
        else:
            midline_t = float(knots[len(pts) // 2])
    return ArchSpline(knots, pts, float(midline_t))


def spline_frame_at(spline: ArchSpline, c_prep) -> tuple[np.ndarray, np.ndarray]:
    """Reference mesial and buccal unit vectors (z = 0) at the prep site.

    Mesial is the tangent oriented toward the dental midline; buccal is the
    in-plane normal oriented away from the concave side, with the
    arch-centroid fallback when the spline is locally straight.
    """
    c_prep = np.asarray(c_prep, dtype=np.float64).reshape(-1)
    p = c_prep[:2]
    t = spline.project(p)
    edge = 1e-9 * (spline.t_max - spline.t_min)
    if t <= spline.t_min + edge or t >= spline.t_max - edge:
        warnings.warn("prep projection clamped to the spline range", AlignmentWarning, stacklevel=2)
    tan = spline.tangent(t)
    # mesial: along the spline toward the midline parameter
    if t > spline.midline_t:
        tan = -tan
    v_m = np.array([tan[0], tan[1], 0.0])

    normal = np.array([-tan[1], tan[0]])  # +90 degree rotation of the tangent
    kappa = spline.curvature(t)
    if t > spline.midline_t:
        kappa = -kappa  # curvature sign follows the (possibly flipped) tangent
    if abs(kappa) > _CURVATURE_EPS:
        outward = -normal if kappa > 0 else normal
    else:
        arch_center = spline.points.mean(axis=0)
        radial = p - arch_center
        if np.linalg.norm(radial) < 1e-12:
            radial = normal
        outward = normal if np.dot(normal, radial) > 0 else -normal
    v_b = np.array([outward[0], outward[1], 0.0])
    v_b /= np.linalg.norm(v_b)
    return v_m, v_b


def robust_target(prep_normals, ref, tau: float = DEFAULT_TAU) -> np.ndarray:
    """Renormalized mean of the normals with dot(ref) > tau.

    Falls back to ``ref`` itself (with a warning) when no normal passes.
    """
    normals = np.asarray(prep_normals, dtype=np.float64).reshape(-1, 3)
    if normals.size == 0:
        raise ValueError("no normals given")
    ref = np.asarray(ref, dtype=np.float64).reshape(3)
    ref = ref / np.linalg.norm(ref)
    keep = normals @ ref > tau
    if not keep.any():
        warnings.warn(
            f"no normal within acos({tau:.2f}) of the reference; using the reference",
            AlignmentWarning,
            stacklevel=2,
        )
        return ref
    mean = normals[keep].mean(axis=0)
    return mean / np.linalg.norm(mean)


@dataclass(frozen=True)
class CrownTemplate:
    """Annotated crown mesh with mesial/buccal/occlusal region masks."""

    mesh: LabeledMesh
    mesial_faces: np.ndarray
    buccal_faces: np.ndarray
    occlusal_faces: np.ndarray

    def __post_init__(self):
        masks = {}
        for name in ("mesial_faces", "buccal_faces", "occlusal_faces"):
            idx = np.asarray(getattr(self, name), dtype=np.int64).reshape(-1)
            if idx.size == 0:
                raise ValueError(f"{name} region is empty")
            masks[name] = idx
            object.__setattr__(self, name, _freeze(idx))
        sets = [set(m.tolist()) for m in masks.values()]
        if sets[0] & sets[1] or sets[0] & sets[2] or sets[1] & sets[2]:
            raise ValueError("crown region masks must be pairwise disjoint")

    @staticmethod
    def from_mesh(mesh: LabeledMesh) -> "CrownTemplate":
        if mesh.face_labels is None:
            raise ValueError("crown template mesh carries no region labels")
        lab = mesh.face_labels
        return CrownTemplate(
            mesh,
            np.nonzero(lab == LABEL_MESIAL)[0],
            np.nonzero(lab == LABEL_BUCCAL)[0],
            np.nonzero(lab == LABEL_OCCLUSAL)[0],
        )

    def _region_normal(self, faces: np.ndarray) -> np.ndarray:
        normals = self.mesh.face_normals()[faces]
        areas = self.mesh.face_areas()[faces]
        mean = (normals * areas[:, None]).sum(axis=0)
        n = np.linalg.norm(mean)
        if n == 0:
            raise DegenerateGeometryError("region normals cancel out")
        return mean / n

    @property
    def mesial_normal(self) -> np.ndarray:
        return self._region_normal(self.mesial_faces)

    @property
    def buccal_normal(self) -> np.ndarray:
        return self._region_normal(self.buccal_faces)

    @property
    def occlusal_normal(self) -> np.ndarray:
        return self._region_normal(self.occlusal_faces)


@dataclass(frozen=True)
class TargetVectors:
    """Alignment targets extracted at the preparation site.

    ``occlusal_axis`` is the standardized occlusal direction: +z in the
    canonical frame; the caller flips it for upper-jaw work so it points
    toward the antagonist.
    """

    v_mesial_ref: np.ndarray
    v_buccal_ref: np.ndarray
    v_mesial_robust: np.ndarray
    v_buccal_robust: np.ndarray
    prep_centroid: np.ndarray
    tau: float = DEFAULT_TAU
    occlusal_axis: np.ndarray = field(default_factory=lambda: np.array([0.0, 0.0, 1.0]))

    def __post_init__(self):
        for name in ("v_mesial_ref", "v_buccal_ref", "v_mesial_robust",
                     "v_buccal_robust", "occlusal_axis"):
            v = np.asarray(getattr(self, name), dtype=np.float64).reshape(3)
            if abs(np.linalg.norm(v) - 1.0) > 1e-9:
                raise ValueError(f"{name} must be unit length")
            object.__setattr__(self, name, _freeze(v))
        object.__setattr__(
            self, "prep_centroid",
            _freeze(np.asarray(self.prep_centroid, dtype=np.float64).reshape(3)),
        )
        if not 0.0 < self.tau < 1.0:
            raise ValueError("tau must lie in (0, 1)")


@dataclass(frozen=True)
class AlignmentStep:
    name: str
    angle_deg: float
    achieved_dot: float


@dataclass(frozen=True)
class AlignmentResult:
    transform: RigidTransform
    steps: tuple

    def step(self, name: str) -> AlignmentStep:
        for s in self.steps:
            if s.name == name:
                return s
        raise KeyError(name)


def align_crown(crown: CrownTemplate, targets: TargetVectors) -> AlignmentResult:
    """Sequential crown alignment: translate, mesial, buccal-about-mesial,
    occlusal. Returns the composed rigid transform plus a per-step trace.

    The buccal step rotates only about the mesial target axis, so mesial
    alignment survives it exactly; the final occlusal step may disturb both
    (the sequence is strict, no re-orthogonalization pass).
    """
    centroid = crown.mesh.centroid()
    n_mesial = crown.mesial_normal
    n_buccal = crown.buccal_normal
    n_occlusal = crown.occlusal_normal
    steps = []

    # (i) translation: crown centroid onto the prep centroid
    r_total = np.eye(3)
    steps.append(AlignmentStep("translate", 0.0, 1.0))

    # (ii) minimal rotation: mesial normal onto the robust mesial target
    r1 = RigidTransform.rotation_between(n_mesial, targets.v_mesial_robust)
    r_total = r1 @ r_total
    m = r_total @ n_mesial
    steps.append(AlignmentStep("mesial", RigidTransform(r1).rotation_angle_deg(),
                               float(m @ targets.v_mesial_robust)))

    # (iii) rotation about the mesial axis matching the buccal projections
    axis = targets.v_mesial_robust
    b_now = r_total @ n_buccal
    b_proj = b_now - (b_now @ axis) * axis
    t_proj = targets.v_buccal_robust - (targets.v_buccal_robust @ axis) * axis
    nb = np.linalg.norm(b_proj)
    nt = np.linalg.norm(t_proj)
    if nb < 1e-12 or nt < 1e-12:
        raise DegenerateGeometryError(
            "buccal normal parallel to the mesial axis; constrained rotation undefined"
        )
    b_proj /= nb
    t_proj /= nt
    angle = float(np.arctan2(np.dot(np.cross(b_proj, t_proj), axis), np.dot(b_proj, t_proj)))
    r2 = RigidTransform.from_axis_angle(axis, angle).rotation
    r_total = r2 @ r_total
    b_after = r_total @ n_buccal
    b_after_proj = b_after - (b_after @ axis) * axis
    b_after_proj /= np.linalg.norm(b_after_proj)
    steps.append(AlignmentStep(
        "buccal", float(np.degrees(angle)), float(b_after_proj @ t_proj)
    ))

    # (iv) minimal rotation: occlusal normal onto the occlusal axis
    o_now = r_total @ n_occlusal
    r3 = RigidTransform.rotation_between(o_now, targets.occlusal_axis)
    r_total = r3 @ r_total
    o_after = r_total @ n_occlusal
    steps.append(AlignmentStep("occlusal", RigidTransform(r3).rotation_angle_deg(),
                               float(o_after @ targets.occlusal_axis)))

    transform = RigidTransform(r_total, targets.prep_centroid - r_total @ centroid)
    return AlignmentResult(transform, tuple(steps))
