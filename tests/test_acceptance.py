"""Acceptance suite: one test per acceptance criterion, each printing a
single PASS/FAIL line (run with ``pytest tests/test_acceptance.py -v -s``).

Tolerances are pinned here, not calibrated elsewhere. Discrete-count metrics
must match the naive reference exactly; centroid errors are compared at 1e-9
(float summation order differs between the vectorized and looped paths).
"""

import itertools
import json
import time
from pathlib import Path

import numpy as np
import pytest

from crownfit.alignment import AlignmentParams, align_crown, robust_target
from crownfit.classify import ScanClass
from crownfit.fitting import (FittingParams, detect_cusps, fit_crown, interproximal_adapt,
                              intersection_volume, occlusal_correct_anterior,
                              points_inside_mesh)
from crownfit.labels import RefineParams, graphcut_refine, labeling_energy, pairwise_weights
from crownfit.mesh import LabeledMesh, PointCloud, RigidTransform, face_adjacency, voxel_downsample
from crownfit.metrics import bootstrap_ci, centroid_error, class_metrics
from crownfit.registration import (RegistrationParams, fine_register, prepare_cloud,
                                   register_with_routing)
from crownfit.retrieval import EMBEDDING_DIM, cosine, retrieve_crown
from crownfit.synth import (ArchSpec, CrownDims, generate_arch, generate_crown_fixture,
                            partial_spec, perturb_pose)
from crownfit.templates import build_template_library
from helpers import make_box, make_uv_sphere, registration_perturb


def report(name: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


@pytest.fixture(scope="module")
def template_library():
    """Template key -> registration's ``(cloud, FPFH rows)``, prepared once."""
    upper = [generate_arch(ArchSpec.standard("Upper", "full", seed=s,
                                             jitter_sigma=0.3))[0] for s in range(3)]
    lower = [generate_arch(ArchSpec.standard("Lower", "full", seed=s,
                                             jitter_sigma=0.3))[0] for s in range(3)]
    return {key: prepare_cloud(mesh.to_point_cloud(), RegistrationParams())
            for key, mesh in build_template_library(upper, lower).items()}


@pytest.fixture(scope="module")
def routing_runs(template_library):
    """100 round-trip registrations, 20 per scan class, shared by two criteria."""
    params = RegistrationParams()
    runs = []
    case_id = 0
    # 20 scans per class: full classes map to one jaw, partial classes pool
    # both jaws (10 + 10)
    for jaw in ("Lower", "Upper"):
        for coverage in ("full", "left", "right", "center"):
            n = 20 if coverage == "full" else 10
            for k in range(n):
                seed = 40 + case_id
                if coverage == "full":
                    spec = ArchSpec.standard(jaw, "full", seed=seed, jitter_sigma=0.3)
                else:
                    spec = partial_spec(jaw, coverage, seed=seed, jitter_sigma=0.3)
                mesh, gt = generate_arch(spec)
                moved, pose = perturb_pose(mesh, registration_perturb(seed=seed))
                t0 = time.perf_counter()
                result = register_with_routing(moved, gt.scan_class, template_library, params)
                elapsed = time.perf_counter() - t0
                ideal = pose.transform.inverse()
                rot_err = result.transform.rotation_distance_deg(ideal)
                probe = moved.vertices.mean(axis=0)
                trans_err = float(np.linalg.norm(result.transform.apply(probe)
                                                 - ideal.apply(probe)))
                runs.append({
                    "jaw": jaw,
                    "coverage": coverage,
                    "rot_err": rot_err,
                    "trans_err": trans_err,
                    "seconds": elapsed,
                    "chosen": result.chosen_template,
                })
                case_id += 1
    return runs


@pytest.mark.slow
def test_registration_round_trip(routing_runs):
    ok_count = sum(1 for r in routing_runs
                   if r["rot_err"] <= 2.0 and r["trans_err"] <= 0.5)
    slowest = max(r["seconds"] for r in routing_runs)
    ok = ok_count >= 95 and slowest <= 10.0
    report("registration-round-trip", ok,
           f"{ok_count}/100 within 2 deg / 0.5 mm; slowest scan {slowest:.2f}s (<= 10s)")


@pytest.mark.slow
def test_dual_template_routing(routing_runs):
    partials = [r for r in routing_runs if r["coverage"] != "full"]
    sample = partials[:40]
    correct = sum(1 for r in sample if r["chosen"].split("_")[1] == r["jaw"].lower())
    ok = correct >= 38
    report("dual-template-routing", ok, f"{correct}/40 partial scans routed to the true jaw")


def test_robust_icp_outlier_tolerance():
    params = RegistrationParams()
    base, _ = generate_arch(ArchSpec.standard("Lower", "full"))
    target = voxel_downsample(base.to_point_cloud(), params.voxel)
    clean_rot, clean_trans, cont_rot, cont_trans = [], [], [], []
    for seed in range(50):
        rng = np.random.default_rng(1000 + seed)
        applied = RigidTransform.from_axis_angle(
            rng.normal(size=3), np.radians(rng.uniform(2.0, 5.0)),
            rng.uniform(-2.0, 2.0, size=3))
        noisy = target.points + rng.normal(0.0, 0.05, size=target.points.shape)
        src_pts = applied.apply(noisy)
        src_nrm = target.normals @ applied.rotation.T
        clean = fine_register(PointCloud(src_pts, src_nrm), target,
                              RigidTransform(), params)
        pts = src_pts.copy()
        n_out = int(0.2 * len(pts))
        pick = rng.choice(len(pts), size=n_out, replace=False)
        pts[pick] += rng.uniform(20.0, 60.0, size=(n_out, 3))  # residuals >> 10k
        cont = fine_register(PointCloud(pts, src_nrm), target,
                             RigidTransform(), params)
        ideal = applied.inverse()
        probe = src_pts.mean(axis=0)
        clean_rot.append(clean.transform.rotation_distance_deg(ideal))
        clean_trans.append(np.linalg.norm(clean.transform.apply(probe) - ideal.apply(probe)))
        cont_rot.append(cont.transform.rotation_distance_deg(ideal))
        cont_trans.append(np.linalg.norm(cont.transform.apply(probe) - ideal.apply(probe)))
    rot_ratio = np.mean(cont_rot) / np.mean(clean_rot)
    trans_ratio = np.mean(cont_trans) / np.mean(clean_trans)
    ok = rot_ratio <= 2.0 and trans_ratio <= 2.0
    report("robust-icp", ok,
           f"50 trials, 20% gross outliers: rotation error ratio {rot_ratio:.2f}x, "
           f"translation {trans_ratio:.2f}x (<= 2x)")


def test_metrics_oracle_equivalence(rng):
    mismatches = 0
    for trial in range(1000):
        r = np.random.default_rng(trial)
        n = int(r.integers(5, 40))
        k = int(r.integers(2, 6))
        pred = r.integers(0, k, size=n)
        gt = r.integers(0, k, size=n)
        scores = class_metrics(pred, gt)
        if list(scores) != sorted(set(pred.tolist()) | set(gt.tolist())):
            mismatches += 1
        for cls, row in scores.items():
            tp = sum(1 for p, g in zip(pred, gt) if p == cls and g == cls)
            fp = sum(1 for p, g in zip(pred, gt) if p == cls and g != cls)
            fn = sum(1 for p, g in zip(pred, gt) if p != cls and g == cls)
            want_dsc = 2 * tp / (2 * tp + fp + fn) if 2 * tp + fp + fn else None
            p_got, r_got = row["precision"], row["recall"]
            if row["dsc"] != want_dsc:
                mismatches += 1
            if p_got != (tp / (tp + fp) if tp + fp else None):
                mismatches += 1
            if r_got != (tp / (tp + fn) if tp + fn else None):
                mismatches += 1
    # hand examples reproduced exactly
    hand = class_metrics([1, 1, 1, 1, 0, 0], [1, 1, 1, 0, 1, 1])[1]
    exact = hand == {"dsc": 6 / 9, "precision": 0.75, "recall": 0.6}
    vertices = [[0, 0, 0], [1, 0, 0], [0, 1, 0], [3, 4, 0], [4, 4, 0], [3, 5, 0]]
    mesh = LabeledMesh(vertices, [[0, 1, 2], [3, 4, 5]])
    ce, _ = centroid_error([1], [0], mesh, 42.0)
    exact = exact and ce == 5.0
    # CE vs naive loop accumulation (1e-9: float summation order differs)
    ce_ok = True
    areas_mesh, _ = generate_arch(ArchSpec.standard("Lower", "full"))
    for trial in range(20):
        r = np.random.default_rng(trial)
        faces_a = r.choice(areas_mesh.n_faces, size=30, replace=False)
        faces_b = r.choice(areas_mesh.n_faces, size=30, replace=False)
        got, _ = centroid_error(faces_a, faces_b, areas_mesh, 99.0)
        def naive_centroid(faces):
            acc = np.zeros(3)
            area = 0.0
            for f in faces:
                p0, p1, p2 = areas_mesh.vertices[areas_mesh.faces[f]]
                a = 0.5 * np.linalg.norm(np.cross(p1 - p0, p2 - p0))
                acc += a * (p0 + p1 + p2) / 3.0
                area += a
            return acc / area
        want = np.linalg.norm(naive_centroid(faces_a) - naive_centroid(faces_b))
        if abs(got - want) > 1e-9:
            ce_ok = False
    ok = mismatches == 0 and exact and ce_ok
    report("metrics-oracle-equivalence", ok,
           f"1000 label maps: {mismatches} DSC/P/R mismatches; hand examples exact; "
           f"CE within 1e-9 of the naive evaluator")


def test_bootstrap_coverage():
    hits = 0
    reps = 1000
    for rep in range(reps):
        rng = np.random.default_rng(5000 + rep)
        samples = rng.normal(1.0, 1.0, size=50)
        lo, hi = bootstrap_ci(samples, b=10_000, seed=rep)
        hits += lo <= 1.0 <= hi
    coverage = hits / reps
    deterministic = bootstrap_ci(np.arange(10.0), b=10_000, seed=3) == \
        bootstrap_ci(np.arange(10.0), b=10_000, seed=3)
    ok = 0.92 <= coverage <= 0.98 and deterministic
    report("bootstrap-coverage", ok,
           f"coverage {coverage:.3f} over {reps} repetitions (target 0.95 +- 0.03); "
           f"deterministic under fixed seed: {deterministic}")


def strip_mesh(n_faces, seed=0):
    r = np.random.default_rng(seed)
    verts = [[i * 1.0, i % 2, r.uniform(-0.3, 0.3)] for i in range(n_faces + 2)]
    faces = [[i, i + 1, i + 2] if i % 2 == 0 else [i, i + 2, i + 1]
             for i in range(n_faces)]
    return LabeledMesh(np.array(verts), np.array(faces))


def enumerate_optimum(unary, pairs, weights, n_classes):
    n = len(unary)
    total = n_classes**n
    codes = np.arange(total, dtype=np.int64)
    energy = np.zeros(total)
    labels = np.empty((total, n), dtype=np.int8)
    for f in range(n):
        labels[:, f] = (codes // (n_classes**f)) % n_classes
        energy += unary[f, labels[:, f]]
    for (a, b), w in zip(pairs, weights):
        energy += w * (labels[:, a] != labels[:, b])
    return float(energy.min())


def test_graphcut_energy():
    optimum_hits = 0
    argmax_ok = True
    for trial in range(100):
        r = np.random.default_rng(trial)
        n = int(r.integers(8, 13))
        mesh = strip_mesh(n, seed=trial)
        m = r.dirichlet(np.ones(3), size=n)
        params = RefineParams(smoothness=float(r.uniform(0.05, 2.5)))
        pairs = face_adjacency(mesh)
        refined = graphcut_refine(mesh, m, params, pairs)
        unary = -np.log(np.clip(m, 1e-12, 1.0))
        w = pairwise_weights(mesh, pairs, params)
        e_ref = labeling_energy(unary, pairs, w, refined)
        e_arg = labeling_energy(unary, pairs, w, m.argmax(axis=1))
        argmax_ok &= e_ref <= e_arg + 1e-9
        optimum_hits += e_ref <= enumerate_optimum(unary, pairs, w, 3) * 1.0 + 1e-9
    # zero smoothness is the exact argmax identity
    mesh = strip_mesh(10, seed=7)
    m = np.random.default_rng(7).dirichlet(np.ones(3), size=10)
    identity_ok = np.array_equal(
        graphcut_refine(mesh, m, RefineParams(smoothness=0.0), face_adjacency(mesh)),
        m.argmax(axis=1))
    ok = argmax_ok and optimum_hits >= 90 and identity_ok
    report("graph-cut", ok,
           f"energy <= argmax on all 100 fixtures: {argmax_ok}; brute-force optimum "
           f"attained on {optimum_hits}/100 (>= 90); lambda=0 identity: {identity_ok}")


def test_crown_alignment_steps():
    worst_mesial = 1.0
    worst_buccal_rad = 0.0
    worst_occlusal = 1.0
    fixtures = [generate_crown_fixture("bumped_posterior")[0],
                generate_crown_fixture("smooth_anterior")[0],
                generate_crown_fixture("bumped_posterior",
                                       CrownDims(half_mesial=3.6, half_buccal=3.2))[0]]
    count = 0
    for trial in range(50):
        r = np.random.default_rng(200 + trial)
        crown = fixtures[trial % len(fixtures)]
        v_m = r.normal(size=3)
        v_m /= np.linalg.norm(v_m)
        v_b = np.cross(v_m, r.normal(size=3))
        v_b /= np.linalg.norm(v_b)
        _, trace = align_crown(crown, v_m, v_b, r.uniform(-20, 20, size=3), np.array([0.0, 0, 1]))
        steps = {s["name"]: s["achieved_dot"] for s in trace}
        worst_mesial = min(worst_mesial, steps["mesial"])
        err = np.arccos(np.clip(steps["buccal"], -1, 1))
        worst_buccal_rad = max(worst_buccal_rad, err)
        worst_occlusal = min(worst_occlusal, steps["occlusal"])
        count += 1
    # tau = 0.6 admits exactly the normals within acos(0.6) of the reference
    tau_angle = float(np.degrees(np.arccos(0.6)))
    tau_exact = abs(tau_angle - 53.13010235415598) < 1e-9
    ref = np.array([0.0, 0.0, 1.0])
    import warnings as _warnings
    for deg, admitted in ((53.0, True), (53.2, False)):
        n = np.array([np.sin(np.radians(deg)), 0.0, np.cos(np.radians(deg))])
        with _warnings.catch_warnings():
            _warnings.simplefilter("ignore")  # rejected case falls back by design
            got = robust_target([n, -ref], ref, AlignmentParams(tau=0.6))
        tau_exact &= np.allclose(got, n if admitted else ref, atol=1e-12)
    ok = (count == 50 and worst_mesial >= 1.0 - 1e-9
          and worst_buccal_rad <= 1e-6 and worst_occlusal >= 0.999 and tau_exact)
    report("crown-alignment", ok,
           f"50 fixtures: mesial dot >= {worst_mesial:.12f}, buccal error "
           f"{worst_buccal_rad:.2e} rad, occlusal dot >= {worst_occlusal:.6f}; "
           f"tau gate at acos(0.6)={tau_angle:.4f} deg exact: {tau_exact}")


def two_walls(gap, half=(1.0, 6.0, 6.0)):
    return [make_box((-(gap / 2 + half[0]), 0, 0), half),
            make_box((gap / 2 + half[0], 0, 0), half)]


def test_crown_fitting_invariants():
    params = FittingParams(voxel_resolution=0.02)
    failures = []
    for case in range(30):
        r = np.random.default_rng(700 + case)
        dims = CrownDims(
            half_mesial=float(r.uniform(3.4, 5.0)),
            half_buccal=float(r.uniform(3.0, 4.4)),
            base_height=float(r.uniform(5.2, 6.6)),
        )
        crown = generate_crown_fixture("bumped_posterior", dims)[0]
        width = 2 * dims.half_mesial
        gap = width * float(r.uniform(0.92, 1.08))  # both Case A and Case B occur
        walls = two_walls(gap)
        clearance = float(r.uniform(0.05, 0.3))
        top = crown.vertices[:, 2].max()
        plate = make_box((0, 0, top - clearance + 3.0), (14.0, 14.0, 3.0))

        trace = []
        scaled, scale = interproximal_adapt(crown, walls, (0, 0, 1), params, trace=trace)
        drift = float(np.linalg.norm(scaled.centroid() - crown.centroid()))
        fitted, rep = fit_crown(crown, walls, plate, fdi=36, params=params)
        residual = intersection_volume(fitted, walls, (0, 0, 1), params.voxel_resolution)
        inside = int(points_inside_mesh(fitted.vertices, plate, (0, 0, -1)).sum())
        phases = {t["phase"] for t in trace} - {"initial", "functional_gap"}
        monotone = len(phases) <= 1  # only shrinks in Case A, only grows in Case B
        if not (residual <= params.v_int_threshold and inside == 0
                and drift <= 1e-9 and monotone):
            failures.append((case, residual, inside, drift))
    # Mode-B rigidity on anterior cases
    rigid_ok = True
    for case in range(5):
        crown = generate_crown_fixture("smooth_anterior")[0]
        top = crown.vertices[:, 2].max()
        plate = make_box((0, 0, top - 0.3 + 3.0), (14.0, 14.0, 3.0))
        out = occlusal_correct_anterior(crown, plate, (0, 0, 1), params)
        r = np.random.default_rng(case)
        idx = r.choice(crown.n_vertices, size=(50, 2))
        before = np.linalg.norm(crown.vertices[idx[:, 0]] - crown.vertices[idx[:, 1]], axis=1)
        after = np.linalg.norm(out.vertices[idx[:, 0]] - out.vertices[idx[:, 1]], axis=1)
        rigid_ok &= np.abs(before - after).max() <= 1e-12
    # analytic sphere-between-walls scale
    sphere = make_uv_sphere((0, 0, 0), 4.0, 36, 48)
    _, scale = interproximal_adapt(sphere, two_walls(10.0), (0, 0, 1), params)
    predicted = 10.0 / 8.0 * 0.99
    analytic_ok = predicted * 0.99 <= scale <= predicted * 1.01
    ok = not failures and rigid_ok and analytic_ok
    report("crown-fitting", ok,
           f"30 posterior cases clean (failures: {failures[:3]}); Mode-B rigidity to "
           f"1e-12: {rigid_ok}; sphere-between-walls scale {scale:.4f} within one step "
           f"of {predicted:.4f}: {analytic_ok}")


def test_cusp_detection():
    five, apexes5 = generate_crown_fixture("bumped_posterior")
    got5 = detect_cusps(five, (0, 0, 1))
    exact5 = sorted(got5.tolist()) == sorted(apexes5)
    smooth, _ = generate_crown_fixture("smooth_anterior")
    none_on_ramp = len(detect_cusps(smooth, (0, 0, 1))) == 0
    seven, apexes7 = generate_crown_fixture("bumped_posterior", CrownDims(n_bumps=7))
    got7 = detect_cusps(seven, (0, 0, 1))
    tallest = sorted(apexes7, key=lambda v: -apexes7[v])[:5]
    top5 = sorted(got7.tolist()) == sorted(tallest)
    ok = exact5 and none_on_ramp and top5
    report("cusp-detection", ok,
           f"5-bump exact: {exact5}; monotone surface clean: {none_on_ramp}; "
           f"7-bump top-5: {top5}")


def test_retrieval_brute_force_and_scale_invariance():
    all_match = True
    for trial in range(20):
        r = np.random.default_rng(300 + trial)
        library = {}
        for i in range(int(r.integers(5, 60))):
            v = r.normal(size=EMBEDDING_DIM)
            library[f"t{i:03d}"] = v / np.linalg.norm(v)
        donor = r.normal(size=EMBEDDING_DIM)
        donor /= np.linalg.norm(donor)
        got, _ = retrieve_crown(donor, library)
        want = max(sorted(library), key=lambda k: cosine(donor, library[k]))
        all_match &= got == want
        # positive rescaling leaves the argmax unchanged
        scaled = {k: e * r.uniform(0.05, 20.0) for k, e in library.items()}
        got2, _ = retrieve_crown(donor * r.uniform(0.05, 20.0), scaled)
        all_match &= got2 == want
    report("retrieval", all_match,
           "argmax equals the linear-scan oracle on 20 random libraries, "
           "invariant under positive rescaling")


def test_end_to_end_determinism(tmp_path):
    from crownfit.config import load_config
    from crownfit.fixtures import generate_fixture_corpus
    from crownfit.pipeline import run_pipeline
    from dataclasses import replace

    root = tmp_path / "fx"
    case = generate_fixture_corpus(root, seed=0)["case"]
    cfg0 = load_config(root / "config.json")
    outputs, reports, elapsed = [], [], []
    for run in range(2):
        cfg = replace(cfg0, output_dir=str(tmp_path / f"run{run}"))
        t0 = time.perf_counter()
        run_pipeline(root / case["scan"], case["target_fdi"], cfg,
                     antagonist_path=root / case["antagonist"])
        elapsed.append(time.perf_counter() - t0)
        out = Path(cfg.output_dir)
        outputs.append({p.name: p.read_bytes() for p in sorted(out.glob("*.ply"))})
        payload = json.loads((out / "report.json").read_text())
        for stage in payload["stages"]:
            stage["seconds"] = 0.0
        payload["outputs"] = {k: Path(v).name for k, v in payload["outputs"].items()}
        reports.append(payload)
    identical = outputs[0] == outputs[1] and reports[0] == reports[1]
    within_budget = max(elapsed) <= 60.0
    ok = identical and within_budget
    report("end-to-end-determinism", ok,
           f"two runs byte-identical modulo timings: {identical}; "
           f"wall time {max(elapsed):.1f}s (<= 60s)")
