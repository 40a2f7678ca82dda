"""Intersection-driven crown fitting: interproximal scaling against a volume
threshold, geometric centering between the neighbors, and two-mode occlusal
correction (posterior cusp tap-down, anterior global shift).

Every inside test is ray parity from one ray-crossing kernel, ``_ray_hits``,
which runs Moller-Trumbore only on the (origin, triangle) pairs that a grid
across the ray puts together, so its cost follows the origins near the mesh
rather than origins x triangles. It has two callers. Points are tested
along a fixed skewed ray (``points_inside_mesh``). Intersection volumes of
watertight meshes cast +z rays from below the mesh, one per column of a
shared voxel grid, and count the voxel centres with odd crossing parity
below them; open shells fall back to a proximity estimate. The error of the
voxel estimate is O(surface area x resolution); the 1e-6 mm^3 threshold
therefore acts as "no detectable overlap" at the configured resolution.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NonConvergenceError
from .mesh import (LabeledMesh, component_ids, estimate_vertex_normals, is_watertight,
                   mesh_edges)
from .spatial import SpatialIndex

# deterministic sub-voxel grid offsets and ray skew: keep sample lines off
# mesh vertices/edges of axis-aligned fixtures
_GRID_SHIFT = (4.9e-4, 7.3e-4)
_RAY_DIR = np.array([0.0317, 0.0523, 1.0]) / np.linalg.norm([0.0317, 0.0523, 1.0])
_MAX_VOXELS = 6.0e7
_CULL_EPS = 1e-6  # mm; far above the rounding of the ray-triangle test


@dataclass(frozen=True)
class FittingParams:
    v_int_threshold: float = 1e-6     # mm^3
    shrink: float = 0.99
    grow: float = 1.01
    delta: float = 0.1                # tap-down / shift step, mm
    falloff_radius: float = 1.0       # mm
    cusp_count: int = 5
    cusp_normal_dot_min: float = 0.5
    proximity_dist: float = 0.2       # mm
    proximity_band: float = 0.5       # offset band for open-shell penetration, mm
    max_scale_iters: int = 500
    max_tap_rounds: int = 50
    max_shift_iters: int = 200
    voxel_resolution: float = 0.05    # mm

    def __post_init__(self):
        if not 0 < self.shrink < 1 < self.grow:
            raise ValueError("need 0 < shrink < 1 < grow")
        if self.delta <= 0 or self.v_int_threshold < 0 or self.voxel_resolution <= 0:
            raise ValueError("steps and thresholds must be positive")


@dataclass(frozen=True)
class CuspSet:
    """Cusp apex vertices ordered by descending height along the occlusal axis."""

    vertex_indices: np.ndarray
    heights: np.ndarray

    def __post_init__(self):
        idx = np.asarray(self.vertex_indices, dtype=np.int64).reshape(-1)
        h = np.asarray(self.heights, dtype=np.float64).reshape(-1)
        if len(idx) != len(h):
            raise ValueError("indices and heights must align")
        if len(h) > 1 and np.any(np.diff(h) > 0):
            raise ValueError("cusps must be ordered by descending height")
        object.__setattr__(self, "vertex_indices", idx)
        object.__setattr__(self, "heights", h)

    def __len__(self) -> int:
        return len(self.vertex_indices)


# ---------------------------------------------------------------- inside tests


def _group_ranks(counts: np.ndarray) -> np.ndarray:
    """0, 1, ..., c - 1 for each count c, concatenated."""
    return np.arange(counts.sum()) - np.repeat(np.cumsum(counts) - counts, counts)


def _ray_hits(origins: np.ndarray, mesh: LabeledMesh,
              direction: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Origin index and ``t > 0`` of every crossing of the line
    ``origin + t * direction`` with a triangle (Moller-Trumbore).

    The test runs only on candidate (origin, triangle) pairs: the origins are
    bucketed on a uniform grid across the ray, about one triangle wide, and
    each triangle's box across the ray, widened by ``_CULL_EPS``, is spread
    over the cells it covers; a candidate also lies below the triangle's top
    vertex along the ray.
    """
    tri = mesh.vertices[mesh.faces]
    # boxes in (across, across, along) ray coordinates; along the ray only the
    # top vertex bounds a candidate
    frame = np.array([np.cross(direction, [1, 0, 0]), np.cross(direction, [0, 1, 0]), direction])
    proj = tri @ frame.T
    lo, hi = proj.min(axis=1) - _CULL_EPS, proj.max(axis=1) + _CULL_EPS
    lo[:, 2] = -np.inf
    q = origins @ frame.T
    # an origin outside the union of the boxes has no candidate at all, nor
    # has a triangle whose box misses the remaining origins' box
    near = np.nonzero(np.all((q >= lo.min(axis=0, initial=np.inf))
                             & (q <= hi.max(axis=0, initial=-np.inf)), axis=1))[0]
    reach = np.all((lo <= q[near].max(axis=0, initial=-np.inf))
                   & (hi >= q[near].min(axis=0, initial=np.inf)), axis=1)
    tri, lo, hi = tri[reach], lo[reach], hi[reach]
    e1 = tri[:, 1] - tri[:, 0]
    e2 = tri[:, 2] - tri[:, 0]
    pvec = np.cross(direction, e2)
    det = np.einsum("ij,ij->i", e1, pvec)
    ok = np.abs(det) > 1e-14  # near-parallel triangles never hit
    inv_det = 1.0 / det[ok]
    tri, lo, hi, e1, e2, pvec = (x[ok] for x in (tri, lo, hi, e1, e2, pvec))
    if len(tri) == 0:
        return np.zeros(0, dtype=np.int64), np.zeros(0)
    # cells of the median triangle width, coarser if that many cells would
    # outnumber the origins and triangles together
    across = q[near, :2]
    base = across.min(axis=0)
    extent = across.max(axis=0) - base
    cell = max(np.median((hi - lo)[:, :2].max(axis=1)),
               np.sqrt(extent[0] * extent[1] / (len(near) + len(tri))))
    dims = np.floor(extent / cell).astype(np.int64) + 1
    key = (np.floor((across - base) / cell).astype(np.int64) * [dims[1], 1]).sum(axis=1)
    order = np.argsort(key, kind="stable")
    starts = np.searchsorted(key[order], np.arange(dims[0] * dims[1] + 1))
    first = np.maximum(np.floor((lo[:, :2] - base) / cell), 0).astype(np.int64)
    last = np.minimum(np.floor((hi[:, :2] - base) / cell), dims - 1).astype(np.int64)
    width = last - first + 1
    # every (triangle, covered cell), then every origin in that cell
    n_cells = width[:, 0] * width[:, 1]
    ti = np.repeat(np.arange(len(tri)), n_cells)
    rank = _group_ranks(n_cells)
    cells = ((first[ti, 0] + rank // width[ti, 1]) * dims[1]
             + first[ti, 1] + rank % width[ti, 1])
    per = starts[cells + 1] - starts[cells]
    ti = np.repeat(ti, per)
    oi = near[order[np.repeat(starts[cells], per) + _group_ranks(per)]]
    qo = q[oi]
    box = ((qo[:, 0] >= lo[ti, 0]) & (qo[:, 0] <= hi[ti, 0])
           & (qo[:, 1] >= lo[ti, 1]) & (qo[:, 1] <= hi[ti, 1]) & (qo[:, 2] <= hi[ti, 2]))
    oi, ti = oi[box], ti[box]
    tvec = origins[oi] - tri[ti, 0]
    u = np.einsum("ij,ij->i", tvec, pvec[ti]) * inv_det[ti]
    qvec = np.cross(tvec, e1[ti])
    v = np.einsum("ij,j->i", qvec, direction) * inv_det[ti]
    t = np.einsum("ij,ij->i", qvec, e2[ti]) * inv_det[ti]
    hit = (u >= 0) & (v >= 0) & (u + v <= 1) & (t > 0)
    return oi[hit], t[hit]


def points_inside_mesh(points, mesh: LabeledMesh) -> np.ndarray:
    """Ray-parity inside test for a watertight mesh (skewed fixed direction)."""
    pts = np.asarray(points, dtype=np.float64).reshape(-1, 3)
    idx, _ = _ray_hits(pts, mesh, _RAY_DIR)
    return np.bincount(idx, minlength=len(pts)) % 2 == 1


def _column_inside(mesh: LabeledMesh, xs: np.ndarray, ys: np.ndarray,
                   zs: np.ndarray) -> np.ndarray:
    """Inside mask (len(xs) * len(ys), len(zs)) of the voxel centres: the
    parity of the +z crossings at or below each centre, counted from one
    origin per (x, y) column below the mesh."""
    gx, gy = np.meshgrid(xs, ys, indexing="ij")
    z0 = mesh.vertices[:, 2].min() - 1.0
    origins = np.column_stack([gx.ravel(), gy.ravel(), np.full(gx.size, z0)])
    col, t = _ray_hits(origins, mesh, np.array([0.0, 0.0, 1.0]))
    flips = np.zeros((len(origins), len(zs) + 1), dtype=bool)
    np.logical_xor.at(flips, (col, np.searchsorted(zs, z0 + t)), True)
    return np.logical_xor.accumulate(flips[:, :-1], axis=1)


def _points_in_offset_band(points, mesh: LabeledMesh, band: float) -> np.ndarray:
    """Open-shell penetration heuristic: behind the nearest vertex normal AND
    within the offset band of the surface."""
    if mesh.vertex_normals is None:
        mesh = estimate_vertex_normals(mesh)
    pts = np.asarray(points, dtype=np.float64).reshape(-1, 3)
    index = SpatialIndex(mesh.vertices)
    idx, dist = index.nearest(pts)
    nearest = mesh.vertices[idx[:, 0]]
    normals = mesh.vertex_normals[idx[:, 0]]
    behind = np.einsum("ij,ij->i", pts - nearest, normals) < 0
    return behind & (dist[:, 0] < band)


def penetrating_vertices(points, mesh: LabeledMesh, band: float = 0.5) -> np.ndarray:
    """Mask of points inside the mesh: exact parity when watertight, the
    offset-band side test otherwise."""
    return _penetrating(points, mesh, is_watertight(mesh), band)


def _penetrating(points, mesh: LabeledMesh, watertight: bool, band: float) -> np.ndarray:
    if watertight:
        return points_inside_mesh(points, mesh)
    return _points_in_offset_band(points, mesh, band)


def intersection_volume(a: LabeledMesh, b: LabeledMesh, resolution: float = 0.05,
                        band: float = 0.5) -> float:
    """Volume of the overlap of two meshes, mm^3.

    Two watertight meshes count the shared-grid voxel centres inside both;
    otherwise penetrating-vertex counts approximate it for open shells.
    """
    if resolution <= 0:
        raise ValueError("resolution must be positive")
    return _overlap_volume(a, _components(a), b, _components(b), resolution, band)


def _components(mesh: LabeledMesh) -> list[np.ndarray] | None:
    """Face index arrays of a watertight mesh's connected components; None for
    an open mesh. Both follow from the faces alone, so scaling keeps them."""
    return connected_components(mesh) if is_watertight(mesh) else None


def _overlap_volume(a: LabeledMesh, comps_a, b: LabeledMesh, comps_b, resolution: float,
                    band: float) -> float:
    if comps_a is None or comps_b is None:
        n_pen = int(_penetrating(a.vertices, b, comps_b is not None, band).sum())
        n_pen += int(_penetrating(b.vertices, a, comps_a is not None, band).sum())
        return n_pen * resolution**3

    # per component pair: disjoint solids make the volumes additive and keep
    # the voxel grid tight around each actual overlap region
    total = 0.0
    parts_b = _component_meshes(b, comps_b)
    for fa in _component_meshes(a, comps_a):
        for fb in parts_b:
            total += _voxel_overlap(fa, fb, resolution)
    return total


def _component_meshes(mesh: LabeledMesh, comps: list[np.ndarray]) -> list[LabeledMesh]:
    return [mesh] if len(comps) <= 1 else [mesh.submesh(c) for c in comps]


def _voxel_overlap(a: LabeledMesh, b: LabeledMesh, resolution: float) -> float:
    lo = np.maximum(a.vertices.min(axis=0), b.vertices.min(axis=0))
    hi = np.minimum(a.vertices.max(axis=0), b.vertices.max(axis=0))
    if np.any(hi <= lo):
        return 0.0
    counts = [max(1, int(np.ceil((hi[k] - lo[k]) / resolution))) for k in range(3)]
    if counts[0] * counts[1] * counts[2] > _MAX_VOXELS:
        raise ValueError(
            f"voxel grid {counts} exceeds the budget; use a coarser resolution"
        )
    xs = lo[0] + (np.arange(counts[0]) + 0.5 + _GRID_SHIFT[0]) * resolution
    ys = lo[1] + (np.arange(counts[1]) + 0.5 + _GRID_SHIFT[1]) * resolution
    zs = lo[2] + (np.arange(counts[2]) + 0.5 + _GRID_SHIFT[1] * 2) * resolution
    inside = _column_inside(a, xs, ys, zs) & _column_inside(b, xs, ys, zs)
    return float(inside.sum()) * resolution**3


# ---------------------------------------------------------------- step 1 & 2


def scale_about(mesh: LabeledMesh, factor: float, center) -> LabeledMesh:
    center = np.asarray(center, dtype=np.float64)
    return mesh.with_vertices(center + factor * (mesh.vertices - center))


def interproximal_adapt(
    crown: LabeledMesh,
    neighbors: LabeledMesh,
    params: FittingParams = FittingParams(),
    trace: list | None = None,
) -> tuple[LabeledMesh, float]:
    """Two-stage interproximal scaling about the crown's geometric center.

    Case A (initial overlap): shrink by the shrink factor until the
    intersection volume drops to the threshold. Case B: grow until contact
    appears. Either way a final shrink opens the functional gap. Returns the
    scaled crown and the cumulative scale factor.
    """
    center = crown.centroid()
    scale = 1.0
    current = crown
    if trace is None:
        trace = []  # the trace also rides on any non-convergence error
    comps, neighbor_comps = _components(crown), _components(neighbors)  # once per fit

    def volume(mesh):
        return _overlap_volume(mesh, comps, neighbors, neighbor_comps,
                               params.voxel_resolution, params.proximity_band)

    v = volume(current)
    trace.append({"phase": "initial", "scale": scale, "volume": v})
    if v > params.v_int_threshold:
        factor, phase, keep_going = params.shrink, "shrink", lambda vol: vol > params.v_int_threshold
    else:
        factor, phase, keep_going = params.grow, "grow", lambda vol: vol <= params.v_int_threshold
    iters = 0
    while keep_going(v):
        iters += 1
        if iters > params.max_scale_iters:
            raise NonConvergenceError(
                f"interproximal scaling did not converge in {params.max_scale_iters} steps",
                trace=trace,
                stage="fit",
            )
        scale *= factor
        current = scale_about(crown, scale, center)
        v = volume(current)
        trace.append({"phase": phase, "scale": scale, "volume": v})
    scale *= params.shrink  # functional gap
    current = scale_about(crown, scale, center)
    trace.append({"phase": "functional_gap", "scale": scale, "volume": volume(current)})
    return current, scale


def connected_components(mesh: LabeledMesh) -> list[np.ndarray]:
    """Face index arrays of the mesh's vertex-connected components, ordered
    by their lowest face index."""
    face_comp = component_ids(mesh.n_vertices, mesh_edges(mesh))[mesh.faces[:, 0]]
    _, first = np.unique(face_comp, return_index=True)
    return [np.nonzero(face_comp == face_comp[f])[0] for f in np.sort(first)]


def center_between_neighbors(crown: LabeledMesh, neighbors: LabeledMesh) -> LabeledMesh:
    """Translate the crown so its centroid XY hits the neighbor midpoint XY.

    The z coordinate is left unchanged; the two neighbors must form exactly
    two connected components.
    """
    comps = connected_components(neighbors)
    if len(comps) != 2:
        raise ValueError(f"expected exactly 2 neighbor components, found {len(comps)}")
    mids = [neighbors.submesh(c).centroid() for c in comps]
    midpoint = (mids[0] + mids[1]) / 2.0
    shift = midpoint - crown.centroid()
    shift[2] = 0.0
    return crown.with_vertices(crown.vertices + shift)


# ---------------------------------------------------------------- step 3


def detect_cusps(crown: LabeledMesh, occlusal_dir, params: FittingParams = FittingParams()) -> CuspSet:
    """Strict one-ring height maxima whose normal faces the opposing jaw,
    keeping the top ``cusp_count`` by height."""
    if crown.vertex_normals is None:
        raise ValueError("cusp detection requires vertex normals")
    d = np.asarray(occlusal_dir, dtype=np.float64)
    d = d / np.linalg.norm(d)
    heights = crown.vertices @ d
    facing = crown.vertex_normals @ d > params.cusp_normal_dot_min
    # an apex has outgoing edges, each to a strictly lower vertex (NaN never is)
    v, nb = mesh_edges(crown).T
    n_out = np.bincount(v, minlength=crown.n_vertices)
    n_below = np.bincount(v[heights[nb] < heights[v]], minlength=crown.n_vertices)
    apexes = np.nonzero(facing & (n_out > 0) & (n_below == n_out))[0]
    order = np.argsort(-heights[apexes], kind="stable")
    keep = apexes[order][: params.cusp_count]
    return CuspSet(keep, heights[keep])


def _colliding_cusps(crown: LabeledMesh, cusps: CuspSet, opposing: LabeledMesh,
                     params: FittingParams) -> np.ndarray:
    """Cusp vertices colliding with (or, failing that, near) the opposing jaw."""
    if len(cusps) == 0:
        return np.zeros(0, dtype=np.int64)
    pts = crown.vertices[cusps.vertex_indices]
    hit = penetrating_vertices(pts, opposing, params.proximity_band)
    if hit.any():
        return cusps.vertex_indices[hit]
    index = SpatialIndex(opposing.vertices)
    _, dist = index.nearest(pts)
    near = dist[:, 0] < params.proximity_dist
    return cusps.vertex_indices[near]


def occlusal_correct_posterior(
    crown: LabeledMesh,
    opposing: LabeledMesh,
    occlusal_dir,
    params: FittingParams = FittingParams(),
    trace: list | None = None,
) -> LabeledMesh:
    """Mode A: tap colliding cusps down locally until no interference remains.

    Only vertices within the falloff radius of a colliding cusp move (along
    the negative occlusal direction, Gaussian falloff, strongest cusp wins);
    every other coordinate stays bit-identical.
    """
    d = np.asarray(occlusal_dir, dtype=np.float64)
    d = d / np.linalg.norm(d)
    work = crown if crown.vertex_normals is not None else estimate_vertex_normals(crown)
    cusps = detect_cusps(work, d, params)
    vertices = crown.vertices.copy()
    labels = crown.face_labels
    sigma = params.falloff_radius / 2.0
    if trace is None:
        trace = []
    for round_no in range(params.max_tap_rounds):
        current = LabeledMesh(vertices, crown.faces, None, labels)
        coll = _colliding_cusps(current, cusps, opposing, params)
        trace.append({"round": round_no, "colliding": [int(c) for c in coll]})
        if len(coll) == 0:
            return current
        displacement = np.zeros(len(vertices))
        for cusp in coll:
            dist = np.linalg.norm(vertices - vertices[cusp], axis=1)
            within = dist <= params.falloff_radius
            mag = params.delta * np.exp(-dist[within] ** 2 / (2.0 * sigma**2))
            displacement[within] = np.maximum(displacement[within], mag)
        moved = displacement > 0
        vertices[moved] -= displacement[moved, None] * d
    raise NonConvergenceError(
        f"cusp tap-down unresolved after {params.max_tap_rounds} rounds",
        trace=trace,
        stage="fit",
    )


def _has_interference(crown: LabeledMesh, opposing: LabeledMesh,
                      opposing_index: SpatialIndex, params: FittingParams) -> bool:
    inside = penetrating_vertices(crown.vertices, opposing, params.proximity_band)
    if inside.any():
        return True
    _, dist = opposing_index.nearest(crown.vertices)
    return bool(np.any(dist[:, 0] < params.proximity_dist))


def occlusal_correct_anterior(
    crown: LabeledMesh,
    opposing: LabeledMesh,
    occlusal_dir,
    params: FittingParams = FittingParams(),
    trace: list | None = None,
) -> LabeledMesh:
    """Mode B: rigid global shifts away from the antagonist until clear."""
    d = np.asarray(occlusal_dir, dtype=np.float64)
    d = d / np.linalg.norm(d)
    index = SpatialIndex(opposing.vertices)
    current = crown
    if trace is None:
        trace = []
    for step in range(params.max_shift_iters + 1):
        if not _has_interference(current, opposing, index, params):
            trace.append({"shifts": step, "offset": step * params.delta})
            return current
        current = current.with_vertices(current.vertices - params.delta * d)
        trace.append({"shifts": step + 1, "offset": (step + 1) * params.delta})
    raise NonConvergenceError(
        f"anterior shift unresolved after {params.max_shift_iters} steps",
        trace=trace,
        stage="fit",
    )


# ---------------------------------------------------------------- orchestration


def is_posterior(fdi: int) -> bool:
    """Premolars and molars: within-quadrant position 4-8."""
    return fdi % 10 >= 4


def occlusal_direction(fdi: int) -> np.ndarray:
    """Occlusal axis pointing toward the antagonist jaw."""
    return np.array([0.0, 0.0, -1.0]) if fdi // 10 in (1, 2) else np.array([0.0, 0.0, 1.0])


@dataclass(frozen=True)
class FittingReport:
    final_scale: float
    scale_trace: tuple
    mode: str                 # "posterior" | "anterior" | "skipped"
    occlusal_trace: tuple
    centering_applied: bool
    opposing_checked: bool
    residual_neighbor_volume: float

    def to_dict(self) -> dict:
        return {
            "final_scale": self.final_scale,
            "scale_trace": list(self.scale_trace),
            "mode": self.mode,
            "occlusal_trace": list(self.occlusal_trace),
            "centering_applied": self.centering_applied,
            "opposing_checked": self.opposing_checked,
            "residual_neighbor_volume": self.residual_neighbor_volume,
        }


def fit_crown(
    crown: LabeledMesh,
    neighbors: LabeledMesh,
    opposing: LabeledMesh | None,
    fdi: int,
    params: FittingParams = FittingParams(),
) -> tuple[LabeledMesh, FittingReport]:
    """Interproximal adaptation, centering, then occlusal correction.

    A missing antagonist skips the occlusal step (flagged in the report);
    centering requires exactly two neighbor components and is skipped with a
    flag otherwise.
    """
    scale_trace: list = []
    current, scale = interproximal_adapt(crown, neighbors, params, trace=scale_trace)

    centering_applied = True
    try:
        current = center_between_neighbors(current, neighbors)
    except ValueError:
        centering_applied = False

    occlusal_trace: list = []
    if opposing is None:
        mode = "skipped"
    elif is_posterior(fdi):
        mode = "posterior"
        current = occlusal_correct_posterior(
            current, opposing, occlusal_direction(fdi), params, trace=occlusal_trace
        )
    else:
        mode = "anterior"
        current = occlusal_correct_anterior(
            current, opposing, occlusal_direction(fdi), params, trace=occlusal_trace
        )

    residual = intersection_volume(current, neighbors, params.voxel_resolution,
                                   band=params.proximity_band)
    report = FittingReport(
        final_scale=scale,
        scale_trace=tuple(scale_trace),
        mode=mode,
        occlusal_trace=tuple(occlusal_trace),
        centering_applied=centering_applied,
        opposing_checked=opposing is not None,
        residual_neighbor_volume=residual,
    )
    return current, report
