"""Classification-guided coarse-to-fine rigid registration.

Coarse: reciprocal FPFH correspondences, filtered by second-order spatial
compatibility (SC2-PCR, Chen et al. 2022) under an edge-length similarity
gate; no random sampling. Fine: point-to-plane ICP with a Tukey biweight
kernel and a warm-started backtracking line search: each iteration first
tries twice the step fraction the previous one accepted, and ICP stops when
no step down to ``icp_tolerance`` lowers the robust objective, so the traced
objective is strictly decreasing by construction. A scan registers against
each template its class routes to (``ROUTES``): a full scan its jaw's master,
a partial scan the upper and lower partial templates of its side; the lower
final ICP objective wins. Fitness rewards overlap alone: a partial scan can
cover more of the wrong jaw's template, at a worse fit.

Nothing is derived twice: ``prepare_cloud`` downsamples a cloud and computes
its FPFH once, as one ``(cloud, FPFH rows)`` pair (the scan once, however
many templates it meets). Registration meets templates only as such pairs,
by template key, and prepares a full scan at its master's density: a scan
whose 0.8 mm voxel cloud is denser than the master's (a scanner mesh finer
than the library's) is downsampled instead at the least larger voxel whose
median nearest-neighbour spacing reaches the master's. So a full scan's
FPFH, the matching and every coarse and ICP query stop growing with scanner
resolution; the FPFH radius and every threshold stay tied to ``voxel``, and
a partial scan keeps its voxel cloud (``MASTERS``). A saved library
(``load_template_library``) serves each template it is asked for from
``prepared.npz``, the store that
``store_prepared_templates`` writes with the ``voxel`` and ``fpfh_radius``
it was prepared with; without a store of those parameters it prepares the
template from its PLY. ``register_pair`` matches features, picks a coarse
pose and runs ICP once per pair. Each correspondence search serves every
number taken at its pose: the coarse polish re-fits on the winning group's
search, and ICP's fitness and RMSE come from its last accepted objective.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np
from scipy.spatial.distance import pdist, squareform

from .classify import ScanClass
from .errors import CoarseRegistrationError, RankDeficiencyError, RoutingError
from .features import compute_fpfh
from .mesh import LabeledMesh, PointCloud, RigidTransform, voxel_downsample
from .spatial import SpatialIndex
from .templates import load_template, template_key


@dataclass(frozen=True)
class RegistrationParams:
    voxel: float = 0.8                       # downsampling size, mm
    fpfh_radius_factor: float = 7.0          # FPFH radius = factor * voxel
    edge_similarity: float = 0.95            # pairwise edge-length gate
    icp_max_corr_dist: float = 1.0           # mm; also the fitness gate
    icp_max_iters: int = 60
    icp_tolerance: float = 1e-4              # shortest step ICP tries, |(omega rad, v mm)|
    tukey_k: float = 0.5                     # mm of point-to-plane residual

    def __post_init__(self):
        if self.voxel <= 0:
            raise ValueError("voxel must be positive")
        if not 0 < self.edge_similarity <= 1:
            raise ValueError("edge_similarity must be in (0, 1]")
        if self.tukey_k <= 0:
            raise ValueError("tukey_k must be positive")

    @property
    def fpfh_radius(self) -> float:
        return self.fpfh_radius_factor * self.voxel


@dataclass(frozen=True)
class RegistrationResult:
    transform: RigidTransform
    fitness: float           # inliers / source points at icp_max_corr_dist
    inlier_rmse: float       # mm over those inliers
    chosen_template: str = ""
    iterations: int = 0
    evaluations: int = 0     # ICP objective evaluations, each a correspondence search
    objective_trace: tuple = ()


_THIN_STEP = 1.05  # least factor by which thinning grows a voxel short of the spacing
_THIN_TOL = 1.03   # thinning's voxel is the least reaching the spacing, to this factor


def prepare_cloud(cloud: PointCloud, params: RegistrationParams, spacing: float = 0.0) -> tuple:
    """``(downsampled cloud, its FPFH rows)``: downsample once and compute
    FPFH once, for every template the cloud is registered against.

    The cloud is voxel-downsampled at ``params.voxel``. When that leaves a
    median nearest-neighbour spacing below ``spacing`` (a full scan denser
    than its master), ``cloud`` is downsampled instead at the least
    larger voxel, found to within ``_THIN_TOL``, whose cloud reaches
    ``spacing`` (``_thinned``). A cloud that sparse already, like every
    cloud at the default ``spacing`` of 0, is the ``params.voxel`` cloud.
    FPFH runs once, on the final cloud, at ``params.fpfh_radius`` whatever
    the voxel.

    Raises CoarseRegistrationError when fewer than 3 points remain, or when
    the voxel would outgrow the FPFH radius before the spacing is reached.
    """
    down = _downsampled(cloud, params.voxel)
    if spacing > 0:
        down = _thinned(cloud, down, params, spacing)
    return down, compute_fpfh(down, params.fpfh_radius)


def _downsampled(cloud: PointCloud, voxel: float) -> PointCloud:
    down = voxel_downsample(cloud, voxel)
    if len(down) < 3:
        raise CoarseRegistrationError(f"need >=3 points after downsampling, got {len(down)}")
    return down


def _thinned(cloud: PointCloud, down: PointCloud, params: RegistrationParams,
             spacing: float) -> PointCloud:
    """``down``, ``cloud``'s ``params.voxel`` cloud, if its median spacing
    reaches ``spacing``; otherwise ``cloud`` at the least voxel that reaches
    it, to within ``_THIN_TOL``. A dense cloud's voxel centroids space out
    about in proportion to the voxel, so the voxel first grows by the
    spacing's shortfall (by ``_THIN_STEP`` at least) until it reaches the
    spacing, then the last voxel short of it and the first reaching it are
    bisected."""
    short, voxel = None, params.voxel
    while (reached := SpatialIndex(down.points).median_spacing()) < spacing:
        short = voxel
        voxel *= max(spacing / reached, _THIN_STEP) if reached > 0 else _THIN_STEP
        if voxel > params.fpfh_radius:
            raise CoarseRegistrationError(
                f"no voxel up to the FPFH radius thins the cloud to {spacing:.3f} mm spacing")
        down = _downsampled(cloud, voxel)
    while short is not None and voxel / short > _THIN_TOL:
        middle = (short * voxel) ** 0.5
        trial = _downsampled(cloud, middle)
        if SpatialIndex(trial.points).median_spacing() >= spacing:
            voxel, down = middle, trial
        else:
            short = middle
    return down


def edge_gate(src_len: np.ndarray, tgt_len: np.ndarray, similarity: float,
              min_edge: float) -> np.ndarray:
    """Pairwise compatibility gate over matching edge lengths: True where the
    ratio short/long is >= ``similarity`` and the source edge is longer than
    ``min_edge`` (rejects near-coincident pairs).

    The ratios are divided in place into ``tgt_len``, which is overwritten,
    so a gate over all pool pairs holds no float64 array beyond its inputs.
    """
    gate = src_len > min_edge
    shorter_src = src_len < tgt_len
    np.divide(src_len, tgt_len, out=tgt_len, where=shorter_src)
    np.divide(tgt_len, src_len, out=tgt_len, where=~shorter_src & (src_len > 0))  # 0 / 0: 0
    gate &= tgt_len >= similarity
    return gate


def _kabsch(src: np.ndarray, dst: np.ndarray) -> RigidTransform:
    """Least-squares rigid transform taking src points onto dst points."""
    sc = src.mean(axis=0)
    dc = dst.mean(axis=0)
    h = (src - sc).T @ (dst - dc)
    u, _, vt = np.linalg.svd(h)
    d = np.sign(np.linalg.det(vt.T @ u.T))
    r = vt.T @ np.diag([1.0, 1.0, d]) @ u.T
    return RigidTransform(r, dc - r @ sc)


def _fitness_rmse(dist: np.ndarray, max_dist: float) -> tuple[float, float]:
    """Inlier fraction and inlier RMSE of NN distances gated at ``max_dist``."""
    inlier = dist <= max_dist
    fitness = float(inlier.mean()) if len(dist) else 0.0
    rmse = float(np.sqrt(np.mean(dist[inlier] ** 2))) if inlier.any() else 0.0
    return fitness, rmse


def _evaluate(points: np.ndarray, transform: RigidTransform, target_index: SpatialIndex,
              max_dist: float) -> tuple[float, float, np.ndarray, np.ndarray]:
    """Fitness, inlier RMSE, NN indices and distances for transformed points."""
    idx, dist = target_index.nearest_within(transform.apply(points), max_dist)
    return (*_fitness_rmse(dist, max_dist), idx, dist)


_MATCH_BLOCK = 128  # source rows whose feature distances are held at once


def _feature_correspondences(src_feat: np.ndarray, tgt_feat: np.ndarray) -> np.ndarray:
    """Nearest target row (squared L2 over 33-D histograms) for each source
    row, the first one on ties.

    ``|t|^2 - 2 s.t`` for ``_MATCH_BLOCK`` source rows at a time, written
    into one reused buffer, with the -2 folded into the target once: scaling
    by a power of two is exact, so the distances are bitwise those of
    ``t2 - 2.0 * (s @ T.T)``.
    """
    t2 = np.einsum("ij,ij->i", tgt_feat, tgt_feat)
    tm2 = (-2.0 * tgt_feat).T
    out = np.empty(len(src_feat), dtype=np.int64)
    buffer = np.empty((min(_MATCH_BLOCK, len(src_feat)), len(tgt_feat)))
    for start in range(0, len(src_feat), _MATCH_BLOCK):
        rows = src_feat[start:start + _MATCH_BLOCK]
        d2 = np.matmul(rows, tm2, out=buffer[:len(rows)])
        d2 += t2
        out[start:start + len(rows)] = np.argmin(d2, axis=1)
    return out


def match_features(source: tuple, target: tuple):
    """``(corr, pool)`` of two prepared ``(cloud, FPFH rows)`` pairs: the
    nearest target FPFH row for each source point, and the source points
    whose match is reciprocal, which the coarse stage draws its
    correspondences from.

    Mutual filtering drops most hallucinated matches on self-similar arch
    regions and points outside the shared coverage. Only the target rows
    some source row matched are searched back. Raises
    CoarseRegistrationError when fewer than 3 matches are reciprocal.
    """
    (_, src_feat), (_, tgt_feat) = source, target
    corr = _feature_correspondences(src_feat, tgt_feat)
    rows, slot = np.unique(corr, return_inverse=True)
    back = _feature_correspondences(tgt_feat[rows], src_feat)
    pool = np.nonzero(back[slot] == np.arange(len(corr)))[0]
    if len(pool) < 3:
        raise CoarseRegistrationError(f"need >=3 reciprocal feature matches, got {len(pool)}")
    return corr, pool


_SEEDS = 100       # correspondences with the most second-order support tried as seeds
_SEED_GROUP = 30   # strongest partners fitted with each seed


def coarse_register(
    source: tuple,
    target: tuple,
    matches: tuple[np.ndarray, np.ndarray],
    params: RegistrationParams = RegistrationParams(),
) -> RegistrationResult:
    """Global registration of the prepared source onto the prepared target
    over the ``match_features`` matches, by second-order spatial
    compatibility.

    Two correspondences are compatible when their pair passes ``edge_gate``;
    ``sc2 = C * (C @ C)`` counts, for each compatible pair, the
    correspondences compatible with both. The ``_SEEDS`` correspondences with
    the largest ``sc2`` row sums each fit one pose (Kabsch) with their
    ``_SEED_GROUP`` strongest partners, skipping seeds already in an earlier
    group; the pose with the most full-cloud inliers, then the lowest RMSE,
    wins and is re-fitted on its inliers. Deterministic: no sampling.
    ``iterations`` counts the groups evaluated. Raises
    CoarseRegistrationError when no group has 3 members.
    """
    corr, pool = matches
    spts = source[0].points
    tpts = target[0].points
    s, t = spts[pool], tpts[corr[pool]]
    # 0/1 entries and counts below 2**24: float32 products are exact
    compat = squareform(edge_gate(pdist(s), pdist(t), params.edge_similarity,
                                  params.voxel).astype(np.float32))
    sc2 = compat @ compat
    sc2 *= compat
    seeds = np.argsort(-sc2.sum(axis=1, dtype=np.float64), kind="stable")[:_SEEDS]

    tgt_index = SpatialIndex(tpts)
    threshold = 1.5 * params.voxel  # inlier distance of the coarse stage
    grouped = np.zeros(len(pool), dtype=bool)
    best = None  # (inliers, -rmse), transform, NN indices, NN distances
    evaluated = 0
    for seed in seeds:
        if grouped[seed]:
            continue
        row = sc2[seed]
        partners = np.argsort(-row, kind="stable")[:_SEED_GROUP]
        group = np.concatenate([[seed], partners[row[partners] > 0]])
        grouped[group] = True
        if len(group) < 3:
            continue
        candidate = _kabsch(s[group], t[group])
        fitness, rmse, idx, dist = _evaluate(spts, candidate, tgt_index, threshold)
        evaluated += 1
        key = (int(round(fitness * len(spts))), -rmse)
        if best is None or key > best[0]:
            best = (key, candidate, idx, dist)

    if best is None:
        raise CoarseRegistrationError("no correspondence has 2 compatible partners")

    _, transform, idx, dist = best
    # one polish pass: re-fit on the inlier correspondences of the best model
    inlier = dist <= threshold
    if inlier.sum() >= 3:
        transform = _kabsch(spts[inlier], tpts[idx[inlier]])
    fitness, rmse, _, _ = _evaluate(spts, transform, tgt_index, params.icp_max_corr_dist)
    return RegistrationResult(transform, fitness, rmse, iterations=evaluated)


# ---------------------------------------------------------------- fine (ICP)


def _tukey_rho(r: np.ndarray, k: float) -> np.ndarray:
    rho = np.full_like(r, k * k / 6.0)
    inside = np.abs(r) <= k
    u = 1.0 - (r[inside] / k) ** 2
    rho[inside] = k * k / 6.0 * (1.0 - u**3)
    return rho


def _tukey_weight(r: np.ndarray, k: float) -> np.ndarray:
    w = np.zeros_like(r)
    inside = np.abs(r) <= k
    w[inside] = (1.0 - (r[inside] / k) ** 2) ** 2
    return w


def _objective(points, transform, target_index, target_points, target_normals, params):
    """Mean Tukey loss of point-to-plane residuals, unmatched points
    saturated, with the NN indices and distances of its query."""
    moved = transform.apply(points)
    idx, dist = target_index.nearest_within(moved, params.icp_max_corr_dist)
    matched = dist <= params.icp_max_corr_dist
    k = params.tukey_k
    rho = np.full(len(points), k * k / 6.0)
    if matched.any():
        n = target_normals[idx[matched]]
        q = target_points[idx[matched]]
        r = np.einsum("ij,ij->i", n, moved[matched] - q)
        rho[matched] = _tukey_rho(r, k)
    return float(rho.mean()), idx, dist


def _gauss_newton_step(moved, n, r, w):
    """Point-to-plane Gauss-Newton step xi = (omega, v) for residuals ``r``,
    weighted by ``w`` (None: unweighted), or None when the 6x6 normal
    equations are degenerate."""
    j = np.concatenate([np.cross(moved, n), n], axis=1)  # (m, 6)
    jw = j if w is None else j * w[:, None]
    a = jw.T @ j
    if np.abs(np.diag(a)).max() <= 0:
        return None
    eig = np.linalg.eigvalsh(a)
    if eig[0] < 1e-12 * eig[-1] or eig[-1] <= 0:
        return None
    return np.linalg.solve(a, -jw.T @ r)


def _apply_increment(transform: RigidTransform, xi: np.ndarray) -> RigidTransform:
    omega, v = xi[:3], xi[3:]
    angle = np.linalg.norm(omega)
    if angle < 1e-18:
        delta = RigidTransform(np.eye(3), v)
    else:
        delta = RigidTransform.from_axis_angle(omega / angle, angle, v)
    return delta.compose(transform)


def fine_register(
    source: PointCloud,
    target: PointCloud,
    init: RigidTransform,
    params: RegistrationParams = RegistrationParams(),
) -> RegistrationResult:
    """Tukey-weighted point-to-plane ICP refinement of ``init``.

    Each iteration solves the Tukey-weighted Gauss-Newton system, and the
    unweighted one only when the weighted one gives no step, then line
    searches the robust objective (mean Tukey loss, unmatched points
    saturated) with fresh correspondences for every candidate. The search
    starts at ``min(1, 2 s)`` of the step, ``s`` the fraction the previous
    iteration accepted (1 at first), and halves it until it lowers the
    objective or gets shorter than ``icp_tolerance``; an iteration that
    accepts nothing ends ICP, so ``objective_trace`` is strictly
    decreasing. Fitness and RMSE come from the last accepted objective's
    query. Raises RankDeficiencyError for degenerate normal covariance.
    """
    if target.normals is None:
        raise ValueError("fine registration requires target normals")
    tgt_index = SpatialIndex(target.points)
    tpts, tnrm = target.points, target.normals
    pts = source.points
    k = params.tukey_k

    transform = init
    obj, idx, dist = _objective(pts, transform, tgt_index, tpts, tnrm, params)
    trace = [obj]
    evaluations = 1
    start = 1.0  # fraction of its Gauss-Newton step the next line search tries first
    iterations = 0
    for iterations in range(1, params.icp_max_iters + 1):
        matched = dist <= params.icp_max_corr_dist
        if not matched.any():
            break
        moved = transform.apply(pts)[matched]
        n = tnrm[idx[matched]]
        r = np.einsum("ij,ij->i", n, moved - tpts[idx[matched]])

        step = None
        for w in (_tukey_weight(r, k), None):
            xi = _gauss_newton_step(moved, n, r, w)
            if xi is None:
                if w is None:
                    raise RankDeficiencyError(
                        "degenerate normal covariance in point-to-plane system"
                    )
                continue
            frac = start
            while frac * np.linalg.norm(xi) >= params.icp_tolerance:
                cand = _apply_increment(transform, frac * xi)
                cand_obj, cand_idx, cand_dist = _objective(
                    pts, cand, tgt_index, tpts, tnrm, params
                )
                evaluations += 1
                if cand_obj < obj:
                    step = (frac, cand, cand_obj, cand_idx, cand_dist)
                    break
                frac /= 2.0
            if step is not None:
                break
        if step is None:
            break  # no step down to icp_tolerance lowers the objective
        frac, transform, obj, idx, dist = step
        start = min(1.0, 2.0 * frac)
        trace.append(obj)

    fitness, rmse = _fitness_rmse(dist, params.icp_max_corr_dist)
    return RegistrationResult(transform, fitness, rmse, iterations=iterations,
                              evaluations=evaluations, objective_trace=tuple(trace))


# ---------------------------------------------------------------- routing


def register_pair(
    source: tuple,
    target: tuple,
    params: RegistrationParams,
) -> RegistrationResult:
    """Coarse then fine registration of prepared ``(cloud, FPFH rows)``
    pairs: feature matching, one ``coarse_register`` and ICP from its pose."""
    coarse = coarse_register(source, target, match_features(source, target), params)
    return fine_register(source[0], target[0], coarse.transform, params)


PREPARED_NAME = "prepared.npz"


def store_prepared_templates(library: dict, directory, params: RegistrationParams) -> None:
    """Store the registration cloud of each template of ``library`` (template
    key -> mesh), as saved in ``directory``, in ``prepared.npz`` there,
    together with ``params``' ``voxel`` and ``fpfh_radius``, its key.

    A saved PLY holds the meshes' doubles, so the stored clouds are exactly
    what registration would prepare from the saved library.
    """
    arrays = {"voxel": params.voxel, "fpfh_radius": params.fpfh_radius}
    for key, mesh in library.items():
        cloud, fpfh = prepare_cloud(mesh.to_point_cloud(), params)
        arrays.update({f"{key}.points": cloud.points, f"{key}.normals": cloud.normals,
                       f"{key}.fpfh": fpfh})
    np.savez(Path(directory) / PREPARED_NAME, **arrays)


@dataclass(frozen=True)
class _SavedTemplates:
    """Template key -> ``(cloud, FPFH rows)`` of a saved library: read from
    ``store``, or without one prepared from the template's PLY."""
    directory: Path
    params: RegistrationParams
    store: Path | None

    def __getitem__(self, key: str) -> tuple:
        if self.store is None:
            return prepare_cloud(load_template(self.directory, key).to_point_cloud(), self.params)
        with np.load(self.store) as arrays:
            return (PointCloud(arrays[f"{key}.points"], arrays[f"{key}.normals"]),
                    arrays[f"{key}.fpfh"])


def load_template_library(directory, params: RegistrationParams) -> _SavedTemplates:
    """The templates of the library saved in ``directory``, each read when
    registration meets it, so a case holds only the templates it meets.

    They come from the store when its key equals ``params``' ``(voxel,
    fpfh_radius)``. A store with another key, or without one, is not used:
    each template is then prepared from its PLY.
    """
    directory = Path(directory)
    store = directory / PREPARED_NAME
    key = ()
    if store.exists():
        with np.load(store) as arrays:
            key = tuple(float(arrays[name]) for name in ("voxel", "fpfh_radius")
                        if name in arrays)
    return _SavedTemplates(directory, params,
                           store if key == (params.voxel, params.fpfh_radius) else None)


# the templates each scan class registers against, first candidate first on ties
ROUTES = {
    ScanClass.FULL_UPPER: (template_key("Upper", None),),
    ScanClass.FULL_LOWER: (template_key("Lower", None),),
    ScanClass.PARTIAL_LEFT: (template_key("Upper", "Left"), template_key("Lower", "Left")),
    ScanClass.PARTIAL_RIGHT: (template_key("Upper", "Right"), template_key("Lower", "Right")),
    ScanClass.PARTIAL_CENTER: (template_key("Upper", "Center"), template_key("Lower", "Center")),
}


# The templates a scan's cloud is thinned to. A partial template is cropped
# from its jaw's master, and its cloud's spacing reads its region's shape as
# well as the mesh resolution (0.74-0.75 mm in the fixture library against
# 0.68 mm for the masters). A partial scan keeps its voxel cloud: thinning it
# lowered the share of true matches in its FPFH pool and cost round trips at
# 2x and 4x in the registration surveys (ROADMAP item 3), and a partial
# scan's route and pose hang on that pool.
MASTERS = (template_key("Upper", None), template_key("Lower", None))


def register_with_routing(
    scan: LabeledMesh,
    scan_class: ScanClass,
    templates,
    params: RegistrationParams = RegistrationParams(),
) -> RegistrationResult:
    """Register a scan, which carries vertex normals, against each template
    its class routes to (``ROUTES``): a full class's master, or a partial
    class's Upper and Lower partials of its side. ``templates`` maps each
    template key to its prepared ``(cloud, FPFH rows)`` pair: a dict, or a
    saved library from ``load_template_library``.

    The lowest final ICP objective (``objective_trace[-1]``) wins, the first
    candidate on exact ties. Fitness is not the criterion: the wrong jaw's
    template can overlap more of a partial scan at a worse fit. The scan is
    prepared once, before routing: each candidate is read once, first, and
    a full scan's cloud is thinned to its master's median spacing
    (``prepare_cloud``); a partial scan keeps its voxel cloud (``MASTERS``).
    A scan too small to prepare raises ``CoarseRegistrationError`` whatever
    its class; a class whose every candidate fails coarse registration
    raises ``RoutingError``.
    """
    keys = ROUTES[scan_class]
    targets = [templates[key] for key in keys]
    spacing = max((SpatialIndex(cloud.points).median_spacing()
                   for key, (cloud, _) in zip(keys, targets) if key in MASTERS), default=0.0)
    source = prepare_cloud(scan.to_point_cloud(), params, spacing)
    results = []
    failures = []
    for key, target in zip(keys, targets):
        try:
            result = register_pair(source, target, params)
        except CoarseRegistrationError as exc:
            failures.append(f"{key}: {exc}")
            continue
        results.append(replace(result, chosen_template=key))
    if not results:
        raise RoutingError("coarse registration failed against every candidate: "
                           + "; ".join(failures))
    # min keeps the first of equal objectives
    return min(results, key=lambda result: result.objective_trace[-1])
