"""Intersection-driven crown fitting: geometric centering between the
neighbors, interproximal scaling against a volume threshold, and two-mode
occlusal correction (posterior cusp tap-down, anterior global shift).

The crown is a watertight solid; interproximal scaling and
``intersection_volume`` reject any other. The neighbours arrive as a list
of meshes, one per tooth. The neighbours and the antagonist are obstacles,
open or watertight, and every inside test against one is the parity of
crossings on a ray from the point toward the obstacle's occlusal side: the
side facing the crown's jaw for the antagonist, the side facing the
antagonist for the neighbours. A neighbour patch cut from a scan is open
only at its gum line, on the other side, so the ray never leaves through the
hole; a watertight mesh gives the same parity along any ray.

Every ray-parity test comes from one ray-crossing kernel, ``_ray_hits``,
which runs Moller-Trumbore only on the (origin, triangle) pairs that a grid
across the ray puts together, so its cost follows the origins near the mesh
rather than origins x triangles. A mesh's projected triangle boxes
(``_Triangles``) are derived once per mesh and ray direction: the
neighbours' once per interproximal scaling, not at every scaling step, and
once more for the residual overlap; edge vectors are computed per call,
only for the triangles the origins can reach. It has two callers. Points
are tested along a fixed skewed ray (``points_inside_mesh``). The overlap
volume is summed over the neighbour teeth, each on a voxel grid shared by
the crown and that tooth alone. It casts +z rays from below the meshes, one
per grid column, and counts the voxel centres with odd crossing parity
toward the occlusal side in both meshes; the crown's columns are cast only
where the tooth has an inside voxel. Parity needs no split of a mesh into
its pieces: a union of disjoint solids holds exactly the centres that one
of them holds.
The error of the voxel estimate is O(surface area x resolution); the 1e-6
mm^3 threshold therefore acts as "no detectable overlap" at the configured
resolution.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NonConvergenceError
from .mesh import LabeledMesh, estimate_vertex_normals, is_watertight, mesh_edges
from .spatial import SpatialIndex

# deterministic sub-voxel grid offsets and ray skew: keep sample lines off
# mesh vertices/edges of axis-aligned fixtures
_GRID_SHIFT = (4.9e-4, 7.3e-4, 1.46e-3)
_RAY_DIR = np.array([0.0317, 0.0523, 1.0]) / np.linalg.norm([0.0317, 0.0523, 1.0])
_MAX_VOXELS = 6.0e7
_CULL_EPS = 1e-6  # mm; far above the rounding of the ray-triangle test
_UP = np.array([0.0, 0.0, 1.0])


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
    max_scale_iters: int = 500
    max_tap_rounds: int = 50
    max_shift_iters: int = 200
    voxel_resolution: float = 0.05    # mm

    def __post_init__(self):
        if not 0 < self.shrink < 1 < self.grow:
            raise ValueError("need 0 < shrink < 1 < grow")
        for name in ("delta", "falloff_radius", "voxel_resolution"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        for name in ("v_int_threshold", "cusp_count", "proximity_dist"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative")


# ---------------------------------------------------------------- inside tests


def _group_ranks(counts: np.ndarray) -> np.ndarray:
    """0, 1, ..., c - 1 for each count c, concatenated."""
    return np.arange(counts.sum()) - np.repeat(np.cumsum(counts) - counts, counts)


@dataclass(frozen=True)
class _Triangles:
    """A mesh's triangle boxes as rays along ``direction`` see them: in
    (across, across, along) ray coordinates, widened by ``_CULL_EPS``, with
    their union and their widths across the ray. Derived once per mesh and
    direction."""

    mesh: LabeledMesh
    direction: np.ndarray
    frame: np.ndarray     # rows: the two across-ray axes, then the ray
    lo: np.ndarray        # (3, n) box corners; along the ray only the top
    hi: np.ndarray        # vertex bounds a candidate, so lo[2] = -inf
    union_lo: np.ndarray
    union_hi: np.ndarray
    width: np.ndarray


def _triangles(mesh: LabeledMesh, direction: np.ndarray) -> _Triangles:
    frame = np.array([np.cross(direction, [1, 0, 0]), np.cross(direction, [0, 1, 0]), direction])
    corners = (mesh.vertices @ frame.T)[mesh.faces.T]  # (corner, face, axis)
    lo = np.ascontiguousarray((corners.min(axis=0) - _CULL_EPS).T)
    hi = np.ascontiguousarray((corners.max(axis=0) + _CULL_EPS).T)
    lo[2] = -np.inf
    return _Triangles(mesh, direction, frame, lo, hi, lo.min(axis=1, initial=np.inf),
                      hi.max(axis=1, initial=-np.inf), np.maximum(hi[0] - lo[0], hi[1] - lo[1]))


def _in_box(q: np.ndarray, lo, hi) -> np.ndarray:
    """Mask of the rows of q within [lo, hi] on every axis."""
    return ((q[:, 0] >= lo[0]) & (q[:, 0] <= hi[0]) & (q[:, 1] >= lo[1]) & (q[:, 1] <= hi[1])
            & (q[:, 2] >= lo[2]) & (q[:, 2] <= hi[2]))


def _ray_hits(origins: np.ndarray, tris: _Triangles) -> tuple[np.ndarray, np.ndarray]:
    """Origin index and ``t > 0`` of every crossing of the line
    ``origin + t * tris.direction`` with a triangle (Moller-Trumbore).

    The test runs only on candidate (origin, triangle) pairs: the origins are
    bucketed on a uniform grid across the ray, about one triangle wide, and
    each triangle's box across the ray is spread over the cells it covers; a
    candidate also lies below the triangle's top vertex along the ray.
    """
    q = origins @ tris.frame.T
    # an origin outside the union of the boxes has no candidate at all, nor
    # has a triangle whose box misses the remaining origins' box
    near = np.nonzero(_in_box(q, tris.union_lo, tris.union_hi))[0]
    q_lo, q_hi = q[near].min(axis=0, initial=np.inf), q[near].max(axis=0, initial=-np.inf)
    reach = ((tris.lo[0] <= q_hi[0]) & (tris.lo[1] <= q_hi[1])   # lo[2] is -inf
             & (tris.hi[0] >= q_lo[0]) & (tris.hi[1] >= q_lo[1]) & (tris.hi[2] >= q_lo[2]))
    tri = tris.mesh.vertices[tris.mesh.faces[reach]]
    e1 = tri[:, 1] - tri[:, 0]
    e2 = tri[:, 2] - tri[:, 0]
    pvec = np.cross(tris.direction, e2)
    det = np.einsum("ij,ij->i", e1, pvec)
    ok = np.abs(det) > 1e-14  # near-parallel triangles never hit
    inv_det = 1.0 / det[ok]
    v0, e1, e2, pvec = tri[ok, 0], e1[ok], e2[ok], pvec[ok]
    kept = np.flatnonzero(reach)[ok]
    lo, hi = tris.lo[:, kept], tris.hi[:, kept]
    if len(v0) == 0:
        return np.zeros(0, dtype=np.int64), np.zeros(0)
    # cells of the median triangle width, coarser if that many cells would
    # outnumber the origins and triangles together
    across = q[near, :2]
    base = across.min(axis=0)
    extent = across.max(axis=0) - base
    cell = max(np.median(tris.width[kept]),
               np.sqrt(extent[0] * extent[1] / (len(near) + len(v0))))
    dims = np.floor(extent / cell).astype(np.int64) + 1
    key = (np.floor((across - base) / cell).astype(np.int64) * [dims[1], 1]).sum(axis=1)
    order = np.argsort(key, kind="stable")
    starts = np.searchsorted(key[order], np.arange(dims[0] * dims[1] + 1))
    corner = base[:, None]
    first = np.maximum(np.floor((lo[:2] - corner) / cell), 0).astype(np.int64)
    last = np.minimum(np.floor((hi[:2] - corner) / cell), dims[:, None] - 1).astype(np.int64)
    width = last - first + 1
    # every (triangle, covered cell), then every origin in that cell
    n_cells = width[0] * width[1]
    ti = np.repeat(np.arange(len(v0)), n_cells)
    rank = _group_ranks(n_cells)
    cells = ((first[0, ti] + rank // width[1, ti]) * dims[1]
             + first[1, ti] + rank % width[1, ti])
    per = starts[cells + 1] - starts[cells]
    ti = np.repeat(ti, per)
    oi = near[order[np.repeat(starts[cells], per) + _group_ranks(per)]]
    keep = _in_box(q[oi], lo[:, ti], hi[:, ti])
    oi, ti = oi[keep], ti[keep]
    tvec = origins[oi] - v0[ti]
    u = np.einsum("ij,ij->i", tvec, pvec[ti]) * inv_det[ti]
    qvec = np.cross(tvec, e1[ti])
    v = np.einsum("ij,j->i", qvec, tris.direction) * inv_det[ti]
    t = np.einsum("ij,ij->i", qvec, e2[ti]) * inv_det[ti]
    hit = (u >= 0) & (v >= 0) & (u + v <= 1) & (t > 0)
    return oi[hit], t[hit]


def points_inside_mesh(points, mesh: LabeledMesh, direction) -> np.ndarray:
    """Ray-parity inside test along a fixed skewed ray, cast toward the side
    ``direction`` points to: any side of a watertight mesh, the side away
    from the hole of an open one."""
    pts = np.asarray(points, dtype=np.float64).reshape(-1, 3)
    ray = _RAY_DIR if _RAY_DIR @ np.asarray(direction, dtype=np.float64) >= 0 else -_RAY_DIR
    idx, _ = _ray_hits(pts, _triangles(mesh, ray))
    return np.bincount(idx, minlength=len(pts)) % 2 == 1


def _column_inside(columns: _Triangles, xy: np.ndarray, zs: np.ndarray, up: bool) -> np.ndarray:
    """Inside mask (len(xy), len(zs)) of the voxel centres above the columns
    ``xy``: the parity of the column's crossings above each centre when
    ``up``, else at or below it, from one +z ray per column (``columns``
    holds the mesh's triangles along +z) cast from below the mesh."""
    z0 = columns.mesh.vertices[:, 2].min() - 1.0
    origins = np.column_stack([xy, np.full(len(xy), z0)])
    col, t = _ray_hits(origins, columns)
    flips = np.zeros((len(origins), len(zs) + 1), dtype=bool)
    np.logical_xor.at(flips, (col, np.searchsorted(zs, z0 + t)), True)
    below = np.logical_xor.accumulate(flips, axis=1)
    # the last entry is the column's total parity: crossings above a centre
    # are the total less those at or below it
    return below[:, :-1] ^ below[:, -1:] if up else below[:, :-1]


def intersection_volume(crown: LabeledMesh, others: list[LabeledMesh], occlusal_dir,
                        resolution: float) -> float:
    """Volume of the overlap of a watertight crown with a list of meshes,
    mm^3: the sum over the meshes of the shared-grid voxel centres inside
    both, each mesh tested from the side ``occlusal_dir`` points to."""
    if resolution <= 0:
        raise ValueError("resolution must be positive")
    if not is_watertight(crown):
        raise ValueError("the crown must be a watertight solid")
    return _overlap_volume(_triangles(crown, _UP), [_triangles(m, _UP) for m in others],
                           occlusal_dir, resolution)


def _overlap_volume(crown: _Triangles, others: list[_Triangles], occlusal_dir,
                    resolution: float) -> float:
    # a grid per obstacle stays tight around that obstacle's overlap
    up = bool(occlusal_dir[2] > 0)
    total = 0.0
    for other in others:
        total += _voxel_overlap(crown, other, up, resolution)
    return total


def _voxel_overlap(crown: _Triangles, solid: _Triangles, up: bool, resolution: float) -> float:
    lo = np.maximum(crown.mesh.vertices.min(axis=0), solid.mesh.vertices.min(axis=0))
    hi = np.minimum(crown.mesh.vertices.max(axis=0), solid.mesh.vertices.max(axis=0))
    if np.any(hi <= lo):
        return 0.0
    counts = [max(1, int(np.ceil((hi[k] - lo[k]) / resolution))) for k in range(3)]
    if counts[0] * counts[1] * counts[2] > _MAX_VOXELS:
        raise ValueError(
            f"voxel grid {counts} exceeds the budget; use a coarser resolution"
        )
    centres = [lo[k] + (np.arange(counts[k]) + 0.5 + _GRID_SHIFT[k]) * resolution
               for k in range(3)]
    # beyond the shared box a closed mesh holds no centre, and an open one
    # would reach past its hole
    xs, ys, zs = (c[c < hi[k]] for k, c in enumerate(centres))
    xy = np.stack(np.meshgrid(xs, ys, indexing="ij"), axis=-1).reshape(-1, 2)
    inside = _column_inside(solid, xy, zs, up)
    # only columns with an inside voxel of the solid can add volume
    cols = inside.any(axis=1)
    both = inside[cols] & _column_inside(crown, xy[cols], zs, up)
    return float(both.sum()) * resolution**3


# ---------------------------------------------------------------- step 1 & 2


def scale_about(mesh: LabeledMesh, factor: float, center) -> LabeledMesh:
    center = np.asarray(center, dtype=np.float64)
    return mesh.with_vertices(center + factor * (mesh.vertices - center))


def interproximal_adapt(
    crown: LabeledMesh,
    neighbors: list[LabeledMesh],
    occlusal_dir,
    params: FittingParams = FittingParams(),
    trace: list | None = None,
) -> tuple[LabeledMesh, float]:
    """Two-stage interproximal scaling about the crown's geometric center.

    Case A (initial overlap): shrink by the shrink factor until the
    intersection volume drops to the threshold. Case B: grow until contact
    appears. Either way a final shrink opens the functional gap. The
    neighbour teeth, one mesh each, are tested from ``occlusal_dir``, the
    side facing the antagonist. Returns the scaled crown and the cumulative
    scale factor.
    """
    center = crown.centroid()
    scale = 1.0
    current = crown
    if trace is None:
        trace = []  # the trace also rides on any non-convergence error
    if not is_watertight(crown):
        raise ValueError("the crown must be a watertight solid")
    neighbor_columns = [_triangles(n, _UP) for n in neighbors]

    def volume(mesh):
        return _overlap_volume(_triangles(mesh, _UP), neighbor_columns, occlusal_dir,
                               params.voxel_resolution)

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
            )
        scale *= factor
        current = scale_about(crown, scale, center)
        v = volume(current)
        trace.append({"phase": phase, "scale": scale, "volume": v})
    scale *= params.shrink  # functional gap
    current = scale_about(crown, scale, center)
    trace.append({"phase": "functional_gap", "scale": scale, "volume": volume(current)})
    return current, scale


def center_between_neighbors(crown: LabeledMesh, neighbors: list[LabeledMesh]) -> LabeledMesh:
    """Translate the crown so its centroid XY hits the XY midpoint of the
    two neighbour teeth's centroids.

    The z coordinate is left unchanged; ``neighbors`` must hold exactly the
    two teeth, each one mesh however many pieces it has.
    """
    mesial, distal = neighbors
    midpoint = (mesial.centroid() + distal.centroid()) / 2.0
    shift = midpoint - crown.centroid()
    shift[2] = 0.0
    return crown.with_vertices(crown.vertices + shift)


# ---------------------------------------------------------------- step 3


def detect_cusps(crown: LabeledMesh, occlusal_dir,
                 params: FittingParams = FittingParams()) -> np.ndarray:
    """Vertex indices of the strict one-ring height maxima whose normal faces
    the opposing jaw: the top ``cusp_count`` by height, in descending order."""
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
    return apexes[order][: params.cusp_count]


def _interfering(points, opposing: LabeledMesh, side, index: SpatialIndex,
                 params: FittingParams) -> np.ndarray:
    """Mask of the points inside ``opposing``, tested from ``side``, or, when
    none is, of the points within ``proximity_dist`` of its vertices
    (``index``)."""
    hit = points_inside_mesh(points, opposing, side)
    if hit.any():
        return hit
    _, dist = index.nearest(points)
    return dist < params.proximity_dist


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
    tips = detect_cusps(work, d, params)
    vertices = crown.vertices.copy()
    labels = crown.face_labels
    sigma = params.falloff_radius / 2.0
    if trace is None:
        trace = []
    index = SpatialIndex(opposing.vertices)
    for round_no in range(params.max_tap_rounds):
        current = LabeledMesh(vertices, crown.faces, None, labels)
        coll = tips[_interfering(vertices[tips], opposing, -d, index, params)]
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
        f"cusp tap-down unresolved after {params.max_tap_rounds} rounds", trace=trace
    )


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
        if not _interfering(current.vertices, opposing, -d, index, params).any():
            trace.append({"shifts": step, "offset": step * params.delta})
            return current
        current = current.with_vertices(current.vertices - params.delta * d)
        trace.append({"shifts": step + 1, "offset": (step + 1) * params.delta})
    raise NonConvergenceError(
        f"anterior shift unresolved after {params.max_shift_iters} steps", trace=trace
    )


# ---------------------------------------------------------------- orchestration


def is_posterior(fdi: int) -> bool:
    """Premolars and molars: within-quadrant position 4-8."""
    return fdi % 10 >= 4


def occlusal_direction(fdi: int) -> np.ndarray:
    """Occlusal axis pointing toward the antagonist jaw."""
    return np.array([0.0, 0.0, -1.0]) if fdi // 10 in (1, 2) else np.array([0.0, 0.0, 1.0])


def fit_crown(
    crown: LabeledMesh,
    neighbors: list[LabeledMesh],
    opposing: LabeledMesh | None,
    fdi: int,
    params: FittingParams = FittingParams(),
) -> tuple[LabeledMesh, dict]:
    """Centering, interproximal adaptation, then occlusal correction.

    Returns the fitted crown and its report dict: ``final_scale``,
    ``scale_trace``, ``mode`` ("posterior" or "anterior"), ``occlusal_trace``,
    ``centering_applied`` and ``residual_neighbor_volume``.

    Centering comes first: the neighbour-centroid midpoint is not the middle
    of the gap, so centering a crown already scaled to clear both neighbours
    could push it back into one.
    A missing antagonist skips the occlusal step (report ``mode`` "skipped");
    centering requires two neighbour teeth, one mesh each, and is skipped
    with a flag otherwise.
    """
    centering_applied = len(neighbors) == 2
    if centering_applied:
        crown = center_between_neighbors(crown, neighbors)

    d = occlusal_direction(fdi)
    scale_trace: list = []
    current, scale = interproximal_adapt(crown, neighbors, d, params, trace=scale_trace)

    occlusal_trace: list = []
    if opposing is None:
        mode = "skipped"
    elif is_posterior(fdi):
        mode = "posterior"
        current = occlusal_correct_posterior(current, opposing, d, params, trace=occlusal_trace)
    else:
        mode = "anterior"
        current = occlusal_correct_anterior(current, opposing, d, params, trace=occlusal_trace)

    residual = intersection_volume(current, neighbors, d, params.voxel_resolution)
    return current, {
        "final_scale": scale,
        "scale_trace": scale_trace,
        "mode": mode,
        "occlusal_trace": occlusal_trace,
        "centering_applied": centering_applied,
        "residual_neighbor_volume": residual,
    }
