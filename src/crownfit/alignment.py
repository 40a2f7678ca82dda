"""Spline-guided sequential crown alignment.

Step 1 fits a 2-D cubic spline through the arch tooth centroids and reads the
reference mesial and buccal directions from its unit tangent at the
preparation's knot: the prepared tooth's centroid is one of the centroids,
so the spline passes through it there, at either end of the arch too. The
canonical frame fixes which way they point: the centroids run from the right
distal tooth to the left distal one, anterior is +y and the patient's left
+x, so the outside of the arch always lies on the left of the direction of
travel. Buccal is the tangent turned +90 degrees; mesial is the
tangent on the right side and its negation on the left. Step 2 hardens the
references into robust targets by averaging the prepared tooth's vertex
normals that pass the dot threshold. Step 3 aligns the crown, a
``LabeledMesh`` whose face labels mark its mesial (101), buccal (102) and
occlusal (103) regions; ``region_normals`` reads their area-weighted normals.
It translates the crown to the prep centroid, rotates mesial onto the robust
mesial target, rotates about that axis to fix buccal, then rotates occlusal
onto the occlusal axis.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
from scipy.interpolate import CubicSpline

from .errors import AlignmentWarning, DegenerateGeometryError
from .mesh import LabeledMesh, RigidTransform

LABEL_MESIAL = 101
LABEL_BUCCAL = 102
LABEL_OCCLUSAL = 103


def fit_arch_spline(centroids) -> CubicSpline:
    """Natural cubic spline through the (x, y) of arch-ordered centroids,
    with chord-length knots (``spline.x``)."""
    pts = np.asarray(centroids, dtype=np.float64).reshape(-1, 3)[:, :2]
    if len(pts) < 3:
        raise ValueError(f"arch spline needs at least 3 centroids, got {len(pts)}")
    seg = np.linalg.norm(np.diff(pts, axis=0), axis=1)
    if np.any(seg == 0):
        raise DegenerateGeometryError("duplicate consecutive centroids")
    return CubicSpline(np.concatenate([[0.0], np.cumsum(seg)]), pts, bc_type="natural")


def spline_frame_at(spline: CubicSpline, t: float, fdi: int) -> tuple[np.ndarray, np.ndarray]:
    """Reference mesial and buccal unit vectors (z = 0) for tooth ``fdi``,
    from the spline's unit tangent at parameter ``t``, the knot of the
    preparation's centroid.

    Buccal is the tangent turned +90 degrees, outward for a spline that
    runs from the right distal tooth to the left distal one. Mesial is the
    tangent for a right-side tooth (FDI quadrants 1 and 4) and its negation
    for a left-side one: toward the midline either way.
    """
    d = spline.derivative()(t)
    tan = d / np.linalg.norm(d, axis=-1, keepdims=True)
    v_b = np.array([-tan[1], tan[0], 0.0])
    v_b /= np.linalg.norm(v_b)
    if fdi // 10 not in (1, 4):
        tan = -tan
    return np.array([tan[0], tan[1], 0.0]), v_b


@dataclass(frozen=True)
class AlignmentParams:
    """Step 2's gate, the ``alignment`` section of the pipeline config: a
    normal joins a robust target when its dot with the reference exceeds
    ``tau``."""

    tau: float = 0.6

    def __post_init__(self):
        if not 0 < self.tau < 1:
            raise ValueError("tau must lie in (0, 1)")


def robust_target(prep_normals, ref, params: AlignmentParams = AlignmentParams()) -> np.ndarray:
    """Renormalized mean of the normals with dot(ref) > ``params.tau``.

    Falls back to ``ref`` itself (with a warning) when no normal passes.
    """
    normals = np.asarray(prep_normals, dtype=np.float64).reshape(-1, 3)
    if normals.size == 0:
        raise ValueError("no normals given")
    ref = np.asarray(ref, dtype=np.float64).reshape(3)
    ref = ref / np.linalg.norm(ref)
    keep = normals @ ref > params.tau
    if not keep.any():
        warnings.warn(
            f"no normal within acos({params.tau:.2f}) of the reference; using the reference",
            AlignmentWarning,
            stacklevel=2,
        )
        return ref
    mean = normals[keep].mean(axis=0)
    return mean / np.linalg.norm(mean)


def region_normals(crown: LabeledMesh) -> list[np.ndarray]:
    """Area-weighted unit normals of the crown's mesial, buccal and occlusal
    faces (labels 101, 102, 103), in that order."""
    if crown.face_labels is None:
        raise ValueError("crown template mesh carries no region labels")
    normals, areas = crown.face_normals(), crown.face_areas()
    out = []
    for name, label in (("mesial", LABEL_MESIAL), ("buccal", LABEL_BUCCAL),
                        ("occlusal", LABEL_OCCLUSAL)):
        faces = crown.face_labels == label
        if not faces.any():
            raise ValueError(f"crown {name} region is empty")
        mean = (normals[faces] * areas[faces][:, None]).sum(axis=0)
        n = np.linalg.norm(mean)
        if n == 0:
            raise DegenerateGeometryError(f"crown {name} region normals cancel out")
        out.append(mean / n)
    return out


def align_crown(crown: LabeledMesh, v_mesial, v_buccal, prep_centroid,
                occlusal_axis) -> tuple[RigidTransform, list]:
    """Sequential alignment of a region-labelled crown onto unit targets:
    translate its centroid onto ``prep_centroid``, rotate its mesial normal
    onto ``v_mesial``, rotate about that axis to fix buccal, then rotate its
    occlusal normal onto ``occlusal_axis``. Returns the composed rigid
    transform plus a per-step trace of ``{name, angle_deg, achieved_dot}``
    dicts.

    The buccal step rotates only about the mesial target axis, so mesial
    alignment survives it exactly; the final occlusal step may disturb both
    (the sequence is strict, no re-orthogonalization pass).
    """
    centroid = crown.centroid()
    n_mesial, n_buccal, n_occlusal = region_normals(crown)

    # (i) translation: crown centroid onto the prep centroid
    r_total = np.eye(3)
    steps = [("translate", 0.0, 1.0)]  # (name, angle_deg, achieved_dot)

    # (ii) minimal rotation: mesial normal onto the robust mesial target
    r1 = RigidTransform.rotation_between(n_mesial, v_mesial)
    r_total = r1 @ r_total
    m = r_total @ n_mesial
    steps.append(("mesial", RigidTransform(r1).rotation_angle_deg(),
                  float(m @ v_mesial)))

    # (iii) rotation about the mesial axis matching the buccal projections
    axis = v_mesial
    b_now = r_total @ n_buccal
    b_proj = b_now - (b_now @ axis) * axis
    t_proj = v_buccal - (v_buccal @ axis) * axis
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
    steps.append(("buccal", float(np.degrees(angle)), float(b_after_proj @ t_proj)))

    # (iv) minimal rotation: occlusal normal onto the occlusal axis
    o_now = r_total @ n_occlusal
    r3 = RigidTransform.rotation_between(o_now, occlusal_axis)
    r_total = r3 @ r_total
    o_after = r_total @ n_occlusal
    steps.append(("occlusal", RigidTransform(r3).rotation_angle_deg(),
                  float(o_after @ occlusal_axis)))

    transform = RigidTransform(r_total, prep_centroid - r_total @ centroid)
    return transform, [{"name": n, "angle_deg": a, "achieved_dot": d} for n, a, d in steps]
