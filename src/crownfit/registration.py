"""Classification-guided coarse-to-fine rigid registration.

Coarse: FPFH correspondences + RANSAC over 3-point sets with an edge-length
similarity gate. Fine: point-to-plane ICP with a Tukey biweight kernel and a
backtracking line search, so the traced robust objective is non-increasing
by construction. Partial scans compete against the upper and lower partial
templates of their side; the higher fitness wins.

Nothing seed-independent is derived twice: ``prepare_cloud`` downsamples a
cloud and computes its FPFH once (the scan once, however many templates it
meets), templates arrive prepared from the library's store
(``store_prepared_templates``), ``register_pair`` matches features once per
pair, and each restart only redraws RANSAC samples, polishes and runs ICP on
the same clouds.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .classify import ScanClass
from .errors import CoarseRegistrationError, RankDeficiencyError, RoutingError
from .features import compute_fpfh
from .mesh import LabeledMesh, PointCloud, RigidTransform, voxel_downsample
from .spatial import SpatialIndex
from .templates import (JAWS, SIDES, TemplateLibrary, load_template_library,
                        save_prepared_clouds, template_key)


@dataclass(frozen=True)
class RegistrationParams:
    voxel: float = 0.8                       # downsampling size, mm
    fpfh_radius_factor: float = 7.0          # FPFH radius = factor * voxel
    edge_similarity: float = 0.95            # RANSAC edge-length gate
    ransac_max_iters: int = 100_000
    ransac_confidence: float = 0.999
    ransac_distance_threshold: float | None = None  # default 1.5 * voxel
    icp_max_corr_dist: float = 1.0           # mm; also the fitness gate
    icp_max_iters: int = 60
    icp_tolerance: float = 1e-6              # parameter-change stop
    tukey_k: float = 0.5                     # mm of point-to-plane residual
    restarts: int = 3                        # coarse+fine attempts per pair
    good_fitness: float = 0.8                # stop restarting at this fitness
    seed: int = 0

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

    @property
    def ransac_threshold(self) -> float:
        return self.ransac_distance_threshold or 1.5 * self.voxel


@dataclass(frozen=True)
class RegistrationResult:
    transform: RigidTransform
    fitness: float           # inliers / source points at icp_max_corr_dist
    inlier_rmse: float       # mm over those inliers
    chosen_template: str = ""
    iterations: int = 0
    objective_trace: tuple = ()

    def __post_init__(self):
        if not 0.0 <= self.fitness <= 1.0:
            raise ValueError("fitness must lie in [0, 1]")
        if self.inlier_rmse < 0:
            raise ValueError("inlier_rmse must be non-negative")


@dataclass(frozen=True)
class PreparedCloud:
    """A voxel-downsampled cloud and its FPFH rows, shared by every restart
    and every template the cloud is registered against."""

    cloud: PointCloud
    fpfh: np.ndarray


def prepare_cloud(cloud: PointCloud, params: RegistrationParams) -> PreparedCloud:
    """Downsample once and compute FPFH once.

    Raises CoarseRegistrationError when fewer than 3 points remain.
    """
    down = voxel_downsample(cloud, params.voxel)
    if len(down) < 3:
        raise CoarseRegistrationError(
            f"need >=3 points after downsampling, got {len(down)}", stage="register"
        )
    return PreparedCloud(down, compute_fpfh(down, params.fpfh_radius).histograms)


def edge_gate(src_tris: np.ndarray, tgt_tris: np.ndarray, similarity: float,
              min_edge: float) -> np.ndarray:
    """RANSAC gate over (b, 3, 3) triangle batches: True where every edge-length
    ratio (short/long) is >= ``similarity`` and every source edge is longer
    than ``min_edge`` (rejects degenerate, near-coincident samples)."""
    ok = np.ones(len(src_tris), dtype=bool)
    for i, j in [(0, 1), (1, 2), (0, 2)]:
        a = np.linalg.norm(src_tris[:, i] - src_tris[:, j], axis=1)
        b = np.linalg.norm(tgt_tris[:, i] - tgt_tris[:, j], axis=1)
        longer = np.maximum(a, b)
        ratio = np.where(longer > 0, np.minimum(a, b) / np.where(longer == 0, 1, longer), 0.0)
        ok &= ratio >= similarity
        ok &= a > min_edge
    return ok


def _kabsch(src: np.ndarray, dst: np.ndarray) -> RigidTransform:
    """Least-squares rigid transform taking src points onto dst points."""
    sc = src.mean(axis=0)
    dc = dst.mean(axis=0)
    h = (src - sc).T @ (dst - dc)
    u, _, vt = np.linalg.svd(h)
    d = np.sign(np.linalg.det(vt.T @ u.T))
    r = vt.T @ np.diag([1.0, 1.0, d]) @ u.T
    return RigidTransform(r, dc - r @ sc)


def _evaluate(points: np.ndarray, transform: RigidTransform, target_index: SpatialIndex,
              max_dist: float) -> tuple[float, float, np.ndarray, np.ndarray]:
    """Fitness, inlier RMSE, NN indices and distances for transformed points."""
    moved = transform.apply(points)
    idx, dist = target_index.nearest_within(moved, max_dist)
    inlier = dist <= max_dist
    fitness = float(inlier.mean()) if len(points) else 0.0
    rmse = float(np.sqrt(np.mean(dist[inlier] ** 2))) if inlier.any() else 0.0
    return fitness, rmse, idx, dist


def _feature_correspondences(src_feat: np.ndarray, tgt_feat: np.ndarray) -> np.ndarray:
    """Nearest target row (squared L2 over 33-D histograms) for each source
    row, the first one on ties.

    ``|t|^2 - 2 s.t`` in one pass per 512-row block, with the -2 folded into
    the target once: scaling by a power of two is exact, so the distances are
    bitwise those of ``t2 - 2.0 * (s @ T.T)``.
    """
    t2 = np.einsum("ij,ij->i", tgt_feat, tgt_feat)
    tm2 = (-2.0 * tgt_feat).T
    out = np.empty(len(src_feat), dtype=np.int64)
    block = 512
    for start in range(0, len(src_feat), block):
        d2 = src_feat[start:start + block] @ tm2
        d2 += t2
        out[start:start + block] = np.argmin(d2, axis=1)
    return out


def match_features(source: PreparedCloud, target: PreparedCloud):
    """``(corr, pool)``: the nearest target FPFH row for each source point, and
    the source points whose match is reciprocal, which RANSAC samples from.

    Mutual filtering drops most hallucinated matches on self-similar arch
    regions and points outside the shared coverage; with fewer than 3
    reciprocal matches every source point stays in the pool.
    """
    corr = _feature_correspondences(source.fpfh, target.fpfh)
    back = _feature_correspondences(target.fpfh, source.fpfh)
    pool = np.nonzero(back[corr] == np.arange(len(corr)))[0]
    return corr, pool if len(pool) >= 3 else np.arange(len(corr))


def coarse_register(
    source: PreparedCloud,
    target: PreparedCloud,
    matches: tuple[np.ndarray, np.ndarray],
    params: RegistrationParams = RegistrationParams(),
    seed: int | None = None,
) -> RegistrationResult:
    """RANSAC global registration of source onto target over the
    ``match_features`` matches.

    Deterministic for a fixed seed. Raises CoarseRegistrationError with
    best-attempt diagnostics when no candidate survives pruning.
    """
    corr, pool = matches
    rng = np.random.default_rng(params.seed if seed is None else seed)
    spts = source.cloud.points
    tpts = target.cloud.points
    tgt_index = SpatialIndex(tpts)
    threshold = params.ransac_threshold

    best = None  # (inliers, -rmse, transform)
    tried = 0
    pruned_edges = 0
    batch = 256
    min_trials = min(3 * batch, params.ransac_max_iters)
    needed = params.ransac_max_iters
    while tried < max(min(needed, params.ransac_max_iters), min_trials):
        n_draw = min(batch, params.ransac_max_iters - tried)
        if n_draw <= 0:
            break
        triples = pool[np.stack([rng.choice(len(pool), size=3, replace=False)
                                 for _ in range(n_draw)])]
        tried += n_draw
        s_tri = spts[triples]                       # (b, 3, 3)
        t_tri = tpts[corr[triples]]
        ok = edge_gate(s_tri, t_tri, params.edge_similarity, params.voxel)
        pruned_edges += int((~ok).sum())
        for row in np.nonzero(ok)[0]:
            candidate = _kabsch(s_tri[row], t_tri[row])
            moved = candidate.apply(s_tri[row])
            if np.max(np.linalg.norm(moved - t_tri[row], axis=1)) > threshold:
                continue
            fitness, rmse, _, _ = _evaluate(spts, candidate, tgt_index, threshold)
            inliers = int(round(fitness * len(spts)))
            key = (inliers, -rmse)
            if best is None or key > best[0]:
                best = (key, candidate)
                w = max(inliers / len(spts), 1e-3)
                est = np.log(max(1e-12, 1.0 - params.ransac_confidence)) / np.log(
                    max(1e-12, 1.0 - min(w, 1.0 - 1e-9) ** 3)
                )
                needed = min(needed, max(1, int(np.ceil(est))))
        if best is not None and tried >= max(needed, min_trials):
            break

    if best is None:
        raise CoarseRegistrationError(
            "no RANSAC candidate survived pruning",
            diagnostics={"tried": tried, "pruned_edge_gate": pruned_edges},
            stage="register",
        )

    transform = best[1]
    # one polish pass: re-fit on the inlier correspondences of the best model
    _, _, idx, dist = _evaluate(spts, transform, tgt_index, threshold)
    inlier = dist <= threshold
    if inlier.sum() >= 3:
        transform = _kabsch(spts[inlier], tpts[idx[inlier]])
    fitness, rmse, _, _ = _evaluate(spts, transform, tgt_index, params.icp_max_corr_dist)
    return RegistrationResult(transform, fitness, rmse, iterations=tried)


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
    """Mean Tukey loss of point-to-plane residuals; unmatched points saturate."""
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
    return float(rho.mean()), idx, matched


def _solve_increment(moved, q, n, w):
    """Weighted point-to-plane Gauss-Newton step (omega, v) and the 6x6 system."""
    r = np.einsum("ij,ij->i", n, moved - q)
    j = np.concatenate([np.cross(moved, n), n], axis=1)  # (m, 6)
    a = (j * w[:, None]).T @ j
    b = -(j * w[:, None]).T @ r
    return a, b


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
    trace: list | None = None,
) -> RegistrationResult:
    """Tukey-weighted point-to-plane ICP refinement of ``init``.

    The robust objective (mean Tukey loss, unmatched points saturated) is
    re-evaluated with fresh correspondences for every accepted step, so the
    recorded trace is monotone non-increasing. Raises RankDeficiencyError for
    degenerate normal covariance.
    """
    if target.normals is None:
        raise ValueError("fine registration requires target normals")
    tgt_index = SpatialIndex(target.points)
    tpts, tnrm = target.points, target.normals
    pts = source.points
    k = params.tukey_k

    transform = init
    obj, idx, matched = _objective(pts, transform, tgt_index, tpts, tnrm, params)
    if trace is not None:
        trace.append(obj)
    iterations = 0
    for iterations in range(1, params.icp_max_iters + 1):
        if not matched.any():
            break
        moved = transform.apply(pts)[matched]
        q = tpts[idx[matched]]
        n = tnrm[idx[matched]]
        r = np.einsum("ij,ij->i", n, moved - q)
        w = _tukey_weight(r, k)

        candidates = []
        a, b = _solve_increment(moved, q, n, w)
        candidates.append((a, b, True))
        a_u, b_u = _solve_increment(moved, q, n, np.ones_like(w))
        candidates.append((a_u, b_u, False))

        step = None
        for a, b, weighted in candidates:
            scale = np.abs(np.diag(a)).max()
            if scale <= 0:
                continue
            eig = np.linalg.eigvalsh(a)
            if eig[0] < 1e-12 * eig[-1] or eig[-1] <= 0:
                if not weighted:
                    raise RankDeficiencyError(
                        "degenerate normal covariance in point-to-plane system",
                        stage="register",
                    )
                continue
            xi = np.linalg.solve(a, b)
            # backtracking line search on the full robust objective
            for _ in range(10):
                cand = _apply_increment(transform, xi)
                cand_obj, cand_idx, cand_matched = _objective(
                    pts, cand, tgt_index, tpts, tnrm, params
                )
                if cand_obj < obj:
                    step = (xi, cand, cand_obj, cand_idx, cand_matched)
                    break
                xi = xi / 2.0
            if step is not None:
                break
        if step is None:
            break  # no descent direction: converged at a robust minimum
        xi, transform, obj, idx, matched = step
        if trace is not None:
            trace.append(obj)
        if np.linalg.norm(xi) < params.icp_tolerance:
            break

    fitness, rmse, _, _ = _evaluate(pts, transform, tgt_index, params.icp_max_corr_dist)
    return RegistrationResult(
        transform, fitness, rmse, iterations=iterations,
        objective_trace=tuple(trace) if trace is not None else (),
    )


# ---------------------------------------------------------------- routing


def _mesh_cloud(mesh: LabeledMesh) -> PointCloud:
    if mesh.vertex_normals is None:
        from .mesh import estimate_vertex_normals

        mesh = estimate_vertex_normals(mesh)
    return mesh.to_point_cloud()


def register_pair(
    source: PreparedCloud,
    target: PreparedCloud,
    params: RegistrationParams,
    seed: int | None = None,
) -> RegistrationResult:
    """Coarse then fine registration of prepared (downsampled) clouds.

    Re-runs the coarse stage with derived seeds (best final fitness wins)
    when the refined fitness stays below ``good_fitness``: self-similar arch
    regions occasionally trap RANSAC in a rotated lock. The feature matches
    do not depend on the seed and are computed once.
    """
    base_seed = params.seed if seed is None else seed
    matches = match_features(source, target)
    best = None
    last_error = None
    for attempt in range(max(1, params.restarts)):
        attempt_seed = base_seed + attempt * 1_000_003
        try:
            coarse = coarse_register(source, target, matches, params, seed=attempt_seed)
        except CoarseRegistrationError as exc:
            last_error = exc
            continue
        fine = fine_register(source.cloud, target.cloud, coarse.transform, params)
        if best is None or fine.fitness > best.fitness:
            best = fine
        if best.fitness >= params.good_fitness:
            break
    if best is None:
        raise last_error
    return best


def _template_cloud(library: TemplateLibrary, jaw: str, side: str | None,
                    params: RegistrationParams) -> PreparedCloud:
    """The library's stored cloud for a template when the store was prepared
    with ``params``' ``voxel`` and ``fpfh_radius``, else ``prepare_cloud``."""
    if library.prepared_key == (params.voxel, params.fpfh_radius):
        return PreparedCloud(*library.prepared_cloud(jaw, side))
    return prepare_cloud(_mesh_cloud(library.mesh(jaw, side)), params)


def store_prepared_templates(directory, params: RegistrationParams) -> None:
    """Prepare every template of the library saved in ``directory`` and store
    the clouds with it, keyed by ``params``' ``voxel`` and ``fpfh_radius``.

    The library is the one ``load_template_library`` returns, so the stored
    clouds are exactly what registration would prepare from it.
    """
    library = load_template_library(directory)
    clouds = {}
    for jaw in JAWS:
        for side in (None, *SIDES):
            prepared = prepare_cloud(_mesh_cloud(library.mesh(jaw, side)), params)
            clouds[template_key(jaw, side)] = (prepared.cloud, prepared.fpfh)
    save_prepared_clouds(directory, (params.voxel, params.fpfh_radius), clouds)


def register_with_routing(
    scan: LabeledMesh,
    scan_class: ScanClass,
    library: TemplateLibrary,
    params: RegistrationParams = RegistrationParams(),
    seed: int | None = None,
) -> RegistrationResult:
    """Register a scan against the templates its class routes to.

    Full classes use the single matching master. Partial classes compete
    against the upper and lower partials of the side; the higher fitness
    wins, ties break to Upper.
    """
    if scan_class.is_full:
        jaw = "Upper" if scan_class is ScanClass.FULL_UPPER else "Lower"
        source = prepare_cloud(_mesh_cloud(scan), params)
        target = _template_cloud(library, jaw, None, params)
        result = register_pair(source, target, params, seed=seed)
        return replace(result, chosen_template=template_key(jaw, None))

    side = scan_class.side
    try:
        source = prepare_cloud(_mesh_cloud(scan), params)
    except CoarseRegistrationError as exc:
        raise RoutingError(f"scan cannot be registered against the {side} partials: {exc}",
                           stage="register") from exc
    candidates = []
    failures = []
    for jaw in ("Upper", "Lower"):
        try:
            target = _template_cloud(library, jaw, side, params)
            result = register_pair(source, target, params, seed=seed)
        except CoarseRegistrationError as exc:
            failures.append((jaw, exc))
            continue
        candidates.append((jaw, result))
    if not candidates:
        raise RoutingError(
            f"coarse registration failed against both {side} partials: "
            + "; ".join(f"{jaw}: {exc}" for jaw, exc in failures),
            stage="register",
        )
    # highest fitness wins; Upper first on exact ties
    jaw, result = max(candidates, key=lambda item: (item[1].fitness, item[0] == "Upper"))
    return replace(result, chosen_template=template_key(jaw, side))
