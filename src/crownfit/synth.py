"""Deterministic synthetic jaw and crown generators for desk-scale testing.

Geometric conventions used throughout the repo:

* Canonical frame: the occlusal plane is the global XY-plane.
* Lower-jaw teeth point +z; upper-jaw teeth point -z (jaws in occlusion).
* Anterior (incisors) at +y; the patient's left side is +x.
* FDI quadrants: 1 upper right, 2 upper left, 3 lower left, 4 lower right.
* Per-face class ids: position 1-8 on the right, 8+position on the left,
  shared between jaws; 0 is gingiva, 17 a prepared stump.

Arches and crowns are closed slabs (``_closed_slab``): a height-field top
grid, the bottom grid below it, and four walls stitching their rims. An arch
is a "pillow" over a parabolic ridge, its top carrying superellipse tooth
bumps and its bottom a V-keel; a crown is a flat-bottomed block with
Gaussian cusp bumps. Both are watertight with consistent outward winding and
fully deterministic for a fixed spec.

``generate_arch`` returns the mesh with its ``GroundTruth``: the per-face
class ids (the segmentation answer) and the ``ScanClass`` (the classification
answer). Anything else a test needs, such as per-tooth centroids, it derives
from those labels.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .classify import ScanClass
from .errors import DegenerateGeometryError
from .mesh import GINGIVA, PREPARED, LabeledMesh, RigidTransform, estimate_vertex_normals
from .templates import DEFAULT_CUT_SPECS

# nominal slot widths (mm) per within-quadrant position 1..7
_SLOT_WIDTHS = {1: 8.0, 2: 7.0, 3: 8.0, 4: 7.5, 5: 7.5, 6: 10.5, 7: 10.0}
# nominal bump heights (mm) per position
_BUMP_HEIGHTS = {1: 4.6, 2: 4.2, 3: 4.8, 4: 4.2, 5: 4.2, 6: 3.8, 7: 3.6}


def fdi_quadrant(fdi: int) -> int:
    return fdi // 10


def fdi_position(fdi: int) -> int:
    return fdi % 10


def fdi_is_valid(fdi: int) -> bool:
    return 1 <= fdi_quadrant(fdi) <= 4 and 1 <= fdi_position(fdi) <= 8


def fdi_to_class(fdi: int) -> int:
    """Jaw-shared class id: right positions 1-8, left positions 9-16."""
    if not fdi_is_valid(fdi):
        raise ValueError(f"invalid FDI code {fdi}")
    pos = fdi_position(fdi)
    return pos if fdi_quadrant(fdi) in (1, 4) else 8 + pos


def class_to_fdi(cls: int, jaw: str) -> int:
    if not 1 <= cls <= 16:
        raise ValueError(f"class {cls} has no FDI position")
    left = cls > 8
    pos = cls - 8 if left else cls
    if jaw == "Upper":
        return (20 if left else 10) + pos
    return (30 if left else 40) + pos


@dataclass(frozen=True)
class ToothSpec:
    fdi: int
    arc_pos: float          # arc-length position of the tooth center (mm)
    half_arc: float         # bump half-extent along the arch (mm)
    half_cross: float       # bump half-extent across the ridge (mm)
    height: float           # bump height above the gingiva base (mm)
    cross_pos: float = 0.0  # bump center offset across the ridge (mm)
    prepared: bool = False


@dataclass(frozen=True)
class ArchSpec:
    jaw: str                            # "Upper" | "Lower"
    coverage: str                       # "full" | "left" | "right" | "center"
    half_width: float
    depth: float
    ridge_width: float = 9.0
    gingiva_height: float = 3.0
    teeth: tuple[ToothSpec, ...] = ()
    seed: int = 0
    cells_per_mm: float = 1.6           # grid resolution along the arch
    cross_cells: int = 12

    @staticmethod
    def standard(
        jaw: str = "Lower",
        coverage: str = "full",
        prepared: tuple[int, ...] = (),
        seed: int = 0,
        jitter_sigma: float = 0.0,
    ) -> "ArchSpec":
        """Auto-laid-out arch of positions 1-7 per quadrant. Jaw picks the
        dimensions; coverage the tooth span."""
        if jaw not in ("Upper", "Lower"):
            raise ValueError(f"jaw must be Upper or Lower, got {jaw!r}")
        if coverage not in ("full", "left", "right", "center"):
            raise ValueError(f"unknown coverage {coverage!r}")
        if jaw == "Upper":
            half_width, depth, h_scale = 26.0, 42.0, 1.0
        else:
            half_width, depth, h_scale = 24.0, 38.0, 0.92
        spec = ArchSpec(jaw=jaw, coverage=coverage, half_width=half_width, depth=depth, seed=seed)
        arc_len = _arc_length(spec)

        # tooth sequence along u: right distal -> midline -> left distal
        q_right = 1 if jaw == "Upper" else 4
        q_left = 2 if jaw == "Upper" else 3
        seq = [q_right * 10 + p for p in range(7, 0, -1)]
        seq += [q_left * 10 + p for p in range(1, 8)]

        widths = np.array([_SLOT_WIDTHS[fdi_position(f)] for f in seq])
        margin = 3.0
        scale = (arc_len - 2 * margin) / widths.sum()
        centers = margin + np.cumsum(widths * scale) - widths * scale / 2.0

        rng = np.random.default_rng(seed)
        teeth = []
        for fdi, w, c in zip(seq, widths * scale, centers):
            pos = fdi_position(fdi)
            height = _BUMP_HEIGHTS[pos] * h_scale
            arc_pos = float(c)
            cross_pos = 0.0
            if jitter_sigma > 0:
                # truncated so auto-laid-out footprints can never collide
                arc_clip = 0.075 * w
                arc_pos += float(np.clip(rng.normal(0.0, jitter_sigma), -arc_clip, arc_clip))
                cross_pos = float(np.clip(rng.normal(0.0, jitter_sigma), -0.9, 0.9))
                height += float(np.clip(rng.normal(0.0, jitter_sigma * 0.3), -0.5, 0.5))
            is_prep = fdi in prepared
            half_arc = 0.42 * w
            half_cross = min(3.4, spec.ridge_width / 2.0 - 1.0)
            if is_prep:
                half_arc *= 0.75
                half_cross *= 0.75
                height *= 0.45
            teeth.append(ToothSpec(fdi, arc_pos, half_arc, half_cross, height, cross_pos, is_prep))
        return replace(spec, teeth=tuple(teeth))


@dataclass(frozen=True)
class PerturbSpec:
    rot_deg: tuple[float, float, float] = (0.0, 0.0, 0.0)    # half-ranges X/Y/Z
    trans_mm: tuple[float, float, float] = (0.0, 0.0, 0.0)   # half-ranges X/Y/Z
    scale_range: tuple[float, float] = (1.0, 1.0)
    seed: int = 0

    @staticmethod
    def mild(seed: int = 0) -> "PerturbSpec":
        """Augmentation-style ranges: +-5 deg X/Y, +-15 deg Z, +-5 mm X/Y, +-2 mm Z, scale 0.9-1.1."""
        return PerturbSpec((5.0, 5.0, 15.0), (5.0, 5.0, 2.0), (0.9, 1.1), seed)


@dataclass(frozen=True)
class GroundTruth:
    scan_class: ScanClass
    labels: np.ndarray                       # per-face class ids


@dataclass(frozen=True)
class PoseSample:
    transform: RigidTransform
    scale: float


# ---------------------------------------------------------------- arch geometry


def _centerline(spec: ArchSpec, s):
    """Parabolic centerline at s in [-1, 1]: right distal -> left distal."""
    s = np.asarray(s, dtype=np.float64)
    x = spec.half_width * s
    y = spec.depth * (1.0 - s * s)
    return np.stack([x, y], axis=-1)


def _centerline_tangent(spec: ArchSpec, s):
    s = np.asarray(s, dtype=np.float64)
    tx = np.full_like(s, spec.half_width)
    ty = -2.0 * spec.depth * s
    t = np.stack([tx, ty], axis=-1)
    return t / np.linalg.norm(t, axis=-1, keepdims=True)


def _outward(spec: ArchSpec, s):
    t = _centerline_tangent(spec, s)
    # rotate tangent by +90 deg: (-ty, tx); at the apex this is +y (outward)
    return np.stack([-t[..., 1], t[..., 0]], axis=-1)


_ARC_SAMPLES = 4001


def _arc_table(spec: ArchSpec):
    s = np.linspace(-1.0, 1.0, _ARC_SAMPLES)
    pts = _centerline(spec, s)
    seg = np.linalg.norm(np.diff(pts, axis=0), axis=1)
    cum = np.concatenate([[0.0], np.cumsum(seg)])
    return s, cum


def _arc_length(spec: ArchSpec) -> float:
    return float(_arc_table(spec)[1][-1])


def _s_at_arc(spec: ArchSpec, arc):
    s, cum = _arc_table(spec)
    return np.interp(arc, cum, s)


def _coverage_arc_range(spec: ArchSpec) -> tuple[float, float]:
    total = _arc_length(spec)
    if not spec.teeth:
        return 0.0, total
    lo = min(t.arc_pos - t.half_arc for t in spec.teeth)
    hi = max(t.arc_pos + t.half_arc for t in spec.teeth)
    margin = 2.5
    return max(0.0, lo - margin), min(total, hi + margin)


def _closed_slab(nu: int, nv: int) -> np.ndarray:
    """Faces of the closed slab over an (nu+1) x (nv+1) top grid, vertex
    ``i * (nv+1) + j``, and the bottom grid stored after it.

    Order: per cell (i, j), row-major, two top then two bottom triangles;
    then per i the j = 0 and j = nv wall pairs; then per j the i = 0 and
    i = nu wall pairs. Top faces wind towards +z, bottom faces towards -z and
    walls outward.
    """
    top = np.arange((nu + 1) * (nv + 1)).reshape(nu + 1, nv + 1)
    bot = top + top.size

    def tris(*corners):
        return np.stack([np.stack(c, axis=-1) for c in corners], axis=-2)

    # cell corners (i, j), (i+1, j), (i+1, j+1), (i, j+1); upper case on the bottom
    a, b, c, d = top[:-1, :-1], top[1:, :-1], top[1:, 1:], top[:-1, 1:]
    A, B, C, D = bot[:-1, :-1], bot[1:, :-1], bot[1:, 1:], bot[:-1, 1:]
    cells = tris((a, b, c), (a, c, d), (A, C, B), (A, D, C))

    def rims(t, b):
        """Segment ends of a top rim ``t`` and the bottom rim ``b`` below it."""
        return t[:-1], t[1:], b[:-1], b[1:]

    t0, t1, b0, b1 = rims(top[:, 0], bot[:, 0])
    T0, T1, B0, B1 = rims(top[:, nv], bot[:, nv])
    walls_i = tris((t0, b0, b1), (t0, b1, t1), (T0, T1, B1), (T0, B1, B0))
    t0, t1, b0, b1 = rims(top[0], bot[0])
    T0, T1, B0, B1 = rims(top[nu], bot[nu])
    walls_j = tris((t0, t1, b1), (t0, b1, b0), (T0, B0, B1), (T0, B1, T1))
    return np.concatenate([block.reshape(-1, 3) for block in (cells, walls_i, walls_j)])


def generate_arch(spec: ArchSpec) -> tuple[LabeledMesh, GroundTruth]:
    """Closed labeled arch mesh plus its ground truth. Deterministic per spec."""
    teeth = sorted(spec.teeth, key=lambda t: t.arc_pos)
    for a, b in zip(teeth, teeth[1:]):
        if b.arc_pos - a.arc_pos < a.half_arc + b.half_arc:
            raise DegenerateGeometryError(
                f"tooth footprints overlap: FDI {a.fdi} and {b.fdi}"
            )

    arc_lo, arc_hi = _coverage_arc_range(spec)
    span = arc_hi - arc_lo
    nu = max(8, int(round(span * spec.cells_per_mm)))
    nv = spec.cross_cells
    zsign = 1.0 if spec.jaw == "Lower" else -1.0

    arcs = np.linspace(arc_lo, arc_hi, nu + 1)
    s_vals = _s_at_arc(spec, arcs)
    center = _centerline(spec, s_vals)            # (nu+1, 2)
    outward = _outward(spec, s_vals)              # (nu+1, 2)
    v_vals = np.linspace(-0.5, 0.5, nv + 1)       # across the ridge

    xy = center[:, None, :] + outward[:, None, :] * (v_vals[None, :, None] * spec.ridge_width)
    cross_mm = v_vals * spec.ridge_width
    # underside is a V-keel, not a flat plate: its slopes stay outside the
    # occlusal-facing normal gate and avoid a point-to-plane degeneracy
    keel_slope = 1.2

    def height_and_label(arc_grid, cross_grid):
        base = spec.gingiva_height * (1.0 - 2.0 * (cross_grid / spec.ridge_width) ** 2)
        h = base.copy()
        label = np.full(arc_grid.shape, GINGIVA, dtype=np.int64)
        pedestal = 0.22  # abrupt rise at the rim: the tooth-gingiva crease
        for t in teeth:
            q = (np.abs(arc_grid - t.arc_pos) / t.half_arc) ** 4 \
                + (np.abs(cross_grid - t.cross_pos) / t.half_cross) ** 4
            inside = q < 1.0
            bump = np.zeros_like(h)
            bump[inside] = t.height * (pedestal + (1.0 - pedestal) * (1.0 - q[inside]) ** 2)
            h = np.maximum(h, base + bump)
            cls = PREPARED if t.prepared else fdi_to_class(t.fdi)
            label[inside] = cls
        return h, label

    arc_grid = np.broadcast_to(arcs[:, None], (nu + 1, nv + 1))
    cross_grid = np.broadcast_to(cross_mm[None, :], (nu + 1, nv + 1))
    h_grid, _ = height_and_label(arc_grid, cross_grid)
    keel_grid = -keel_slope * (spec.ridge_width / 2.0 - np.abs(cross_grid))

    top = np.concatenate([xy, h_grid[..., None]], axis=-1)
    bottom = np.concatenate([xy, keel_grid[..., None]], axis=-1)
    vertices = np.concatenate([top.reshape(-1, 3), bottom.reshape(-1, 3)], axis=0)

    # face labels come from the cell-center footprint test; the top pair of
    # each cell takes its label, the bottom and every wall stay gingiva
    cell_arc = (arcs[:-1] + arcs[1:]) / 2.0
    cell_cross = (cross_mm[:-1] + cross_mm[1:]) / 2.0
    _, cell_label = height_and_label(
        np.broadcast_to(cell_arc[:, None], (nu, nv)),
        np.broadcast_to(cell_cross[None, :], (nu, nv)),
    )
    faces = _closed_slab(nu, nv)
    labels = np.full(len(faces), GINGIVA, dtype=np.int64)
    labels[: 4 * nu * nv].reshape(nu, nv, 4)[..., :2] = cell_label[..., None]

    if zsign < 0:  # upper jaw: mirror z and flip winding to keep outward normals
        vertices[:, 2] *= -1.0
        faces = faces[:, [0, 2, 1]]
    # canonical frame: the occlusal plane is z=0; tooth tips overshoot it
    # slightly so jaws in occlusion make light cusp contact
    overshoot = 0.25
    if zsign > 0:
        z_shift = overshoot - vertices[:, 2].max()
    else:
        z_shift = -overshoot - vertices[:, 2].min()
    vertices[:, 2] += z_shift
    mesh = estimate_vertex_normals(LabeledMesh(vertices, faces, None, labels))

    if spec.coverage == "full":
        scan_class = ScanClass.FULL_UPPER if spec.jaw == "Upper" else ScanClass.FULL_LOWER
    elif spec.coverage == "left":
        scan_class = ScanClass.PARTIAL_LEFT
    elif spec.coverage == "right":
        scan_class = ScanClass.PARTIAL_RIGHT
    else:
        scan_class = ScanClass.PARTIAL_CENTER

    return mesh, GroundTruth(scan_class=scan_class, labels=labels)


def coverage_classes(coverage: str) -> tuple[int, ...]:
    """Class ids covered by a scan type: all 16 for "full", else the classes
    its side's partial template keeps."""
    if coverage == "full":
        return tuple(range(1, 17))
    if coverage not in ("left", "right", "center"):
        raise ValueError(f"unknown coverage {coverage!r}")
    return DEFAULT_CUT_SPECS[coverage.capitalize()]


def partial_spec(
    jaw: str,
    side: str,
    prepared: tuple[int, ...] = (),
    seed: int = 0,
    jitter_sigma: float = 0.0,
) -> ArchSpec:
    """Arch spec restricted to one partial coverage, dropping out-of-span teeth."""
    full = ArchSpec.standard(jaw, "full", prepared=prepared, seed=seed,
                             jitter_sigma=jitter_sigma)
    keep = set(coverage_classes(side))
    teeth = tuple(t for t in full.teeth if fdi_to_class(t.fdi) in keep)
    if not teeth:
        raise DegenerateGeometryError("partial coverage retains no teeth")
    return replace(full, coverage=side, teeth=teeth)


# ---------------------------------------------------------------- pose perturbation


def perturb_pose(mesh: LabeledMesh, spec: PerturbSpec) -> tuple[LabeledMesh, PoseSample]:
    """Apply a random similarity pose sampled uniformly within the given ranges.

    Points map as p -> scale * R p + t with R = Rz Ry Rx; the exact transform
    is returned for round-trip assertions.
    """
    rng = np.random.default_rng(spec.seed)
    ang = [np.radians(rng.uniform(-r, r)) if r > 0 else 0.0 for r in spec.rot_deg]
    trans = np.array([rng.uniform(-t, t) if t > 0 else 0.0 for t in spec.trans_mm])
    lo, hi = spec.scale_range
    scale = float(rng.uniform(lo, hi)) if hi > lo else float(lo)

    rx = RigidTransform.from_axis_angle((1, 0, 0), ang[0])
    ry = RigidTransform.from_axis_angle((0, 1, 0), ang[1])
    rz = RigidTransform.from_axis_angle((0, 0, 1), ang[2])
    rot = rz.compose(ry).compose(rx)
    transform = RigidTransform(rot.rotation, trans)

    pts = scale * (mesh.vertices @ transform.rotation.T) + trans
    normals = None
    if mesh.vertex_normals is not None:
        normals = mesh.vertex_normals @ transform.rotation.T
    out = LabeledMesh(pts, mesh.faces, normals, mesh.face_labels)
    return out, PoseSample(transform=transform, scale=scale)


# ---------------------------------------------------------------- crown fixtures


@dataclass(frozen=True)
class CrownDims:
    half_mesial: float = 4.5     # local +x half extent
    half_buccal: float = 4.0     # local +y half extent
    base_height: float = 6.0
    bump_height: float = 1.2
    bump_sigma: float = 0.7
    n_bumps: int = 5
    cells: int = 26


def generate_crown_fixture(kind: str, dims: CrownDims = CrownDims()):
    """Closed crown shell with region labels and (for posterior) analytic cusps.

    Local frame: mesial +x, buccal +y, occlusal +z. Returns the
    region-labelled mesh and its apexes: each bump's exact apex vertex index mapped
    to its height, in bump order (none for the anterior kind).
    """
    from .alignment import LABEL_MESIAL, LABEL_BUCCAL, LABEL_OCCLUSAL

    if dims.half_mesial <= 0 or dims.half_buccal <= 0 or dims.base_height <= 0:
        raise ValueError("crown dimensions must be positive")
    if kind not in ("bumped_posterior", "smooth_anterior"):
        raise ValueError(f"unknown crown fixture kind {kind!r}")

    n = dims.cells
    xs = np.linspace(-dims.half_mesial, dims.half_mesial, n + 1)
    ys = np.linspace(-dims.half_buccal, dims.half_buccal, n + 1)
    gx, gy = np.meshgrid(xs, ys, indexing="ij")

    bump_centers = []
    if kind == "bumped_posterior":
        # bump centers snapped onto grid vertices so apexes are exact vertices
        frac = [(0.28, 0.28), (0.72, 0.28), (0.28, 0.72), (0.72, 0.72), (0.5, 0.5),
                (0.5, 0.24), (0.5, 0.76)]
        heights = [1.0, 0.95, 0.9, 0.85, 1.05, 0.8, 0.75]
        for (fx, fy), hscale in list(zip(frac, heights))[: dims.n_bumps]:
            i = int(round(fx * n))
            j = int(round(fy * n))
            bump_centers.append((i, j, dims.bump_height * hscale))

    h = np.full_like(gx, dims.base_height)
    if kind == "smooth_anterior":
        h = h + 0.25 * (gx + dims.half_mesial)  # monotone ramp: no local maxima
    for i, j, height in bump_centers:
        d2 = (gx - xs[i]) ** 2 + (gy - ys[j]) ** 2
        h = h + height * np.exp(-d2 / (2.0 * dims.bump_sigma**2))

    top = np.stack([gx, gy, h], axis=-1).reshape(-1, 3)
    bot = np.stack([gx, gy, np.zeros_like(h)], axis=-1).reshape(-1, 3)
    vertices = np.concatenate([top, bot], axis=0)

    faces = _closed_slab(n, n)
    labels = np.zeros(len(faces), dtype=np.int64)
    labels[: 4 * n * n].reshape(n, n, 4)[..., :2] = LABEL_OCCLUSAL
    # per i: the y- wall (lingual) stays unlabeled, the y+ wall is buccal;
    # per j: the x- wall (distal) stays unlabeled, the x+ wall is mesial
    labels[4 * n * n: 4 * n * (n + 1)].reshape(n, 4)[:, 2:] = LABEL_BUCCAL
    labels[4 * n * (n + 1):].reshape(n, 4)[:, 2:] = LABEL_MESIAL

    mesh = estimate_vertex_normals(LabeledMesh(vertices, faces, None, labels))
    apexes = {i * (n + 1) + j: float(h[i, j]) for i, j, _ in bump_centers}
    return mesh, apexes
