"""End-to-end orchestration: classify, register, refine, retrieve, align, fit.

Each stage records its outcome and wall time in the run report; outputs are
written as PLY meshes plus a versioned JSON report. A fixed config seed makes
the whole run deterministic (reports differ only in timing fields).
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .alignment import (AlignmentResult, CrownTemplate, TargetVectors, align_crown,
                        fit_arch_spline, robust_target, spline_frame_at)
from .classify import BaselineGeometricClassifier, ExternalSidecarClassifier, classify
from .config import PipelineConfig
from .errors import NonConvergenceError, PipelineError
from .fitting import FittingReport, fit_crown, occlusal_direction
from .labels import (FaceLabelProbabilities, corrupt_labels, graphcut_refine,
                     load_probabilities, reassign_small_components)
from .mesh import (NUM_CLASSES, PREPARED, LabeledMesh, bounding_box_diagonal,
                   estimate_vertex_normals)
from .meshio import load_mesh, save_mesh
from .metrics import (centroid_error, confusion, dsc, macro_average, precision_recall,
                      summarize)
from .registration import register_with_routing
from .retrieval import (ContextQuery, geometric_embedding, load_embedding_index,
                        match_context, retrieve_crown)
from .synth import fdi_is_valid, fdi_jaw, fdi_to_class
from .templates import load_template_library

REPORT_SCHEMA_VERSION = 1
STAGES = ("classify", "register", "refine", "retrieve", "align", "fit")


def neighbor_fdis(fdi: int) -> tuple[int, int | None]:
    """(mesial, distal) neighbors by FDI arithmetic.

    Position 1 crosses the midline for its mesial neighbor; position 8 has
    no distal neighbor (absent is representable as None).
    """
    if not fdi_is_valid(fdi):
        raise ValueError(f"invalid FDI code {fdi}")
    q, p = fdi // 10, fdi % 10
    if p > 1:
        mesial = q * 10 + (p - 1)
    else:
        mirror = {1: 2, 2: 1, 3: 4, 4: 3}[q]
        mesial = mirror * 10 + 1
    distal = q * 10 + (p + 1) if p < 8 else None
    return mesial, distal


def opposing_fdi(fdi: int) -> int:
    """Same side and position on the antagonist jaw."""
    q, p = fdi // 10, fdi % 10
    return {1: 4, 2: 3, 3: 2, 4: 1}[q] * 10 + p


@dataclass
class RunReport:
    schema_version: int = REPORT_SCHEMA_VERSION
    scan_path: str = ""
    target_fdi: int = 0
    seed: int = 0
    stages: list = field(default_factory=list)  # ordered {name, seconds, ...}
    outputs: dict = field(default_factory=dict)
    error: dict | None = None

    def add_stage(self, name: str, seconds: float, payload: dict) -> None:
        self.stages.append({"name": name, "seconds": seconds, **payload})

    def to_dict(self) -> dict:
        return {
            "schema_version": self.schema_version,
            "scan_path": self.scan_path,
            "target_fdi": self.target_fdi,
            "seed": self.seed,
            "stages": self.stages,
            "outputs": self.outputs,
            "error": self.error,
        }

    def write(self, path) -> None:
        Path(path).write_text(json.dumps(self.to_dict(), indent=2, sort_keys=True))


def _classifier_for(config: PipelineConfig, scan_path):
    if config.classifier.provider == "external":
        return ExternalSidecarClassifier().for_scan(scan_path)
    return BaselineGeometricClassifier(config.classifier.thresholds())


def _ensure_normals(mesh: LabeledMesh) -> LabeledMesh:
    return mesh if mesh.vertex_normals is not None else estimate_vertex_normals(mesh)


# ---------------------------------------------------------------- stages


def stage_refine(canonical: LabeledMesh, config: PipelineConfig,
                 scan_path=None) -> tuple[np.ndarray, FaceLabelProbabilities]:
    seg = config.segmentation
    if seg.provider == "corruptor":
        if canonical.face_labels is None:
            raise PipelineError(
                "corruptor segmentation provider needs ground-truth labels on the scan",
                stage="refine",
            )
        probs = corrupt_labels(
            canonical.face_labels, NUM_CLASSES, seg.flip_fraction, seg.softness, config.seed
        )
    else:
        path = seg.probabilities_path
        if path is None and scan_path is not None:
            path = str(Path(scan_path).with_suffix(".probs"))
        if path is None or not Path(path).exists():
            raise PipelineError(f"probability file not found: {path}", stage="refine")
        probs = load_probabilities(path)
    labels = graphcut_refine(canonical, probs, config.refine.graphcut_params())
    labels = reassign_small_components(labels, canonical, config.refine.min_component_faces)
    return labels, probs


def segmentation_metrics(pred: np.ndarray, gt: np.ndarray, mesh: LabeledMesh,
                         prep_fdi: int | None = None, seed: int = 0) -> dict:
    """Per-class and macro metrics plus the clinical context rows."""
    counts = confusion(pred, gt)
    diag = bounding_box_diagonal(mesh)
    per_class = {}
    for cls in counts.classes():
        p, r = precision_recall(counts, cls)
        per_class[str(cls)] = {"dsc": dsc(counts, cls), "precision": p, "recall": r}
    macro = {
        "dsc": macro_average(v["dsc"] for v in per_class.values()),
        "precision": macro_average(v["precision"] for v in per_class.values()),
        "recall": macro_average(v["recall"] for v in per_class.values()),
    }
    dsc_values = [v["dsc"] for v in per_class.values() if v["dsc"] is not None]
    out = {
        "per_class": per_class,
        "macro": macro,
        "summary": {
            "dsc": summarize(dsc_values, seed=seed).to_dict() if len(dsc_values) else None,
        },
        "bbox_diagonal": diag,
    }
    if prep_fdi is not None:
        mesial, distal = neighbor_fdis(prep_fdi)
        rows = {}
        regions = [("prepared", None), ("adjacent_mesial", mesial), ("adjacent_distal", distal)]
        for name, f in regions:
            if name == "prepared":
                gt_cls = PREPARED if np.any(gt == PREPARED) else fdi_to_class(prep_fdi)
            elif f is None:
                rows[name] = {"absent": True}
                continue
            else:
                gt_cls = fdi_to_class(f)
            gt_faces = np.nonzero(gt == gt_cls)[0]
            if gt_faces.size == 0:
                rows[name] = {"absent": True}
                continue
            pred_faces = np.nonzero(pred == gt_cls)[0]
            err, missed = centroid_error(pred_faces, gt_faces, mesh, diag)
            rows[name] = {
                "class": int(gt_cls),
                "dsc": dsc(counts, int(gt_cls)),
                "centroid_error_mm": err,
                "miss": missed,
            }
        out["context"] = rows
    return out


@dataclass(frozen=True)
class RetrievalOutcome:
    donor_jaw: str
    jaw_score: float
    template_id: str
    crown_score: float
    crown: CrownTemplate


def stage_retrieve(canonical: LabeledMesh, labels: np.ndarray, fdi: int,
                   config: PipelineConfig) -> RetrievalOutcome:
    rc = config.retrieval
    if rc.jaw_store is None or rc.crown_dir is None:
        raise PipelineError("retrieval needs jaw_store and crown_dir configured", stage="retrieve")
    crown_dir = Path(rc.crown_dir)
    index = load_embedding_index(rc.jaw_store, crown_dir / "crowns.bin")

    slots = {}
    mesial, distal = neighbor_fdis(fdi)
    for ctx_fdi in [mesial] + ([distal] if distal is not None else []):
        faces = np.nonzero(labels == fdi_to_class(ctx_fdi))[0]
        if faces.size:
            slots[ctx_fdi] = geometric_embedding(canonical, faces)
    if not slots:
        raise PipelineError("no context teeth found for retrieval", stage="retrieve")
    query = ContextQuery(target_fdi=fdi, slots=slots)
    donor_jaw, jaw_score = match_context(query, index)
    donor_embedding = index.jaws[donor_jaw][fdi]
    template_id, crown_score = retrieve_crown(donor_embedding, index)

    manifest = json.loads((crown_dir / "crowns.json").read_text())
    mesh = load_mesh(crown_dir / manifest["templates"][template_id], "PLY")
    crown = CrownTemplate.from_mesh(_ensure_normals(mesh))
    return RetrievalOutcome(donor_jaw, jaw_score, template_id, crown_score, crown)


def arch_centroid_sequence(labels: np.ndarray, mesh: LabeledMesh, jaw: str,
                           target_fdi: int) -> tuple[list, float, np.ndarray]:
    """Arch-ordered tooth centroids, the midline index, and the prep centroid.

    The prepared region (class 17 when present, else the target class) takes
    the target position's slot in the ordering.
    """
    from .templates import extract_tooth_centroids

    cents = extract_tooth_centroids(mesh.with_labels(labels))
    target_cls = fdi_to_class(target_fdi)
    if PREPARED in cents:
        prep_centroid = cents.pop(PREPARED)
    elif target_cls in cents:
        prep_centroid = cents[target_cls]
    else:
        raise PipelineError(
            f"no faces labeled for the target FDI {target_fdi}", stage="align"
        )
    cents[target_cls] = prep_centroid
    # ordering: right distal (class 8) -> midline -> left distal (class 16)
    order = list(range(8, 0, -1)) + list(range(9, 17))
    seq = [(cls, cents[cls]) for cls in order if cls in cents]
    if len(seq) < 3:
        raise PipelineError(
            f"arch spline needs >=3 tooth centroids, found {len(seq)}", stage="align"
        )
    classes = [cls for cls, _ in seq]
    # midline sits between the class-1 and class-9 entries of the ordering
    left_start = next((i for i, cls in enumerate(classes) if cls >= 9), None)
    if left_start is None:
        midline_index = float(len(classes) - 1)
    elif left_start == 0:
        midline_index = 0.0
    else:
        midline_index = left_start - 0.5
    return seq, midline_index, prep_centroid


def stage_align(canonical: LabeledMesh, labels: np.ndarray, fdi: int,
                crown: CrownTemplate, config: PipelineConfig
                ) -> tuple[AlignmentResult, LabeledMesh, TargetVectors]:
    jaw = fdi_jaw(fdi)
    seq, midline_index, prep_centroid = arch_centroid_sequence(labels, canonical, jaw, fdi)
    spline = fit_arch_spline([c for _, c in seq], midline_index=midline_index)
    v_m_ref, v_b_ref = spline_frame_at(spline, prep_centroid)

    target_cls = fdi_to_class(fdi)
    prep_mask = labels == (PREPARED if np.any(labels == PREPARED) else target_cls)
    prep_vertices = np.unique(canonical.faces[prep_mask])
    mesh = _ensure_normals(canonical)
    prep_normals = mesh.vertex_normals[prep_vertices]

    tau = config.alignment.tau
    targets = TargetVectors(
        v_mesial_ref=v_m_ref,
        v_buccal_ref=v_b_ref,
        v_mesial_robust=robust_target(prep_normals, v_m_ref, tau),
        v_buccal_robust=robust_target(prep_normals, v_b_ref, tau),
        prep_centroid=prep_centroid,
        tau=tau,
        occlusal_axis=occlusal_direction(fdi),
    )
    result = align_crown(crown, targets)
    aligned = crown.mesh.transformed(result.transform)
    return result, aligned, targets


def stage_fit(aligned: LabeledMesh, canonical: LabeledMesh, labels: np.ndarray,
              fdi: int, antagonist: LabeledMesh | None, config: PipelineConfig
              ) -> tuple[LabeledMesh, FittingReport]:
    mesial, distal = neighbor_fdis(fdi)
    neighbor_faces = []
    for ctx in [mesial] + ([distal] if distal is not None else []):
        neighbor_faces.append(np.nonzero(labels == fdi_to_class(ctx))[0])
    neighbor_faces = np.concatenate([f for f in neighbor_faces if f.size]) \
        if any(f.size for f in neighbor_faces) else np.zeros(0, dtype=np.int64)
    if neighbor_faces.size == 0:
        raise PipelineError("no neighbor faces found for fitting", stage="fit")
    neighbors = canonical.submesh(neighbor_faces)
    return fit_crown(aligned, neighbors, antagonist, fdi, config.fitting)


# ---------------------------------------------------------------- end-to-end


def run_pipeline(
    scan_path,
    fdi: int,
    config: PipelineConfig,
    antagonist_path=None,
    stop_after: str | None = None,
) -> RunReport:
    """Execute the pipeline, writing stage artifacts and the JSON report.

    ``stop_after`` gates execution to the stages up to and including the
    named one. Any exception aborts the run with a partial report whose
    ``error`` names the stage in flight, the exception type and message (and
    a ``NonConvergenceError``'s trace); the exception is then re-raised.
    """
    if not fdi_is_valid(fdi):
        raise ValueError(f"invalid FDI tooth number {fdi}")
    if stop_after is not None and stop_after not in STAGES:
        raise ValueError(f"unknown stage {stop_after!r}; expected one of {STAGES}")
    out_dir = Path(config.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    report = RunReport(scan_path=str(scan_path), target_fdi=fdi, seed=config.seed)

    def do_stage(name):
        return stop_after is None or STAGES.index(name) <= STAGES.index(stop_after)

    stage = "classify"
    try:
        scan = _ensure_normals(load_mesh(scan_path))

        t0 = time.perf_counter()
        scan_class, confidence = classify(_classifier_for(config, scan_path), scan)
        report.add_stage("classify", time.perf_counter() - t0,
                         {"class": scan_class.value, "confidence": confidence})
        if not do_stage("register"):
            return report

        stage = "register"
        if config.template_dir is None:
            raise PipelineError("registration needs template_dir configured", stage="register")
        library = load_template_library(config.template_dir)
        t0 = time.perf_counter()
        reg = register_with_routing(scan, scan_class, library, config.registration,
                                    seed=config.seed)
        canonical = scan.transformed(reg.transform)
        canonical_path = out_dir / "canonical_pose.ply"
        save_mesh(canonical, canonical_path, "PLY")
        report.add_stage("register", time.perf_counter() - t0, {
            "fitness": reg.fitness,
            "inlier_rmse": reg.inlier_rmse,
            "chosen_template": reg.chosen_template,
            "transform": reg.transform.matrix().tolist(),
        })
        report.outputs["canonical_pose"] = str(canonical_path)
        if not do_stage("refine"):
            return report

        stage = "refine"
        t0 = time.perf_counter()
        labels, probs = stage_refine(canonical, config, scan_path)
        refined = canonical.with_labels(labels)
        refined_path = out_dir / "refined_labels.ply"
        save_mesh(refined, refined_path, "PLY")
        payload = {"n_classes": probs.n_classes}
        if canonical.face_labels is not None:
            payload["metrics"] = segmentation_metrics(
                labels, canonical.face_labels, canonical, prep_fdi=fdi, seed=config.seed
            )
        report.add_stage("refine", time.perf_counter() - t0, payload)
        report.outputs["refined_labels"] = str(refined_path)
        if not do_stage("retrieve"):
            return report

        stage = "retrieve"
        t0 = time.perf_counter()
        retrieval = stage_retrieve(canonical, labels, fdi, config)
        report.add_stage("retrieve", time.perf_counter() - t0, {
            "donor_jaw": retrieval.donor_jaw,
            "jaw_score": retrieval.jaw_score,
            "template_id": retrieval.template_id,
            "crown_score": retrieval.crown_score,
        })
        if not do_stage("align"):
            return report

        stage = "align"
        t0 = time.perf_counter()
        align_result, aligned, targets = stage_align(canonical, labels, fdi,
                                                     retrieval.crown, config)
        aligned_path = out_dir / "aligned_crown.ply"
        save_mesh(aligned, aligned_path, "PLY")
        report.add_stage("align", time.perf_counter() - t0, {
            "steps": [
                {"name": s.name, "angle_deg": s.angle_deg, "achieved_dot": s.achieved_dot}
                for s in align_result.steps
            ],
            "prep_centroid": targets.prep_centroid.tolist(),
        })
        report.outputs["aligned_crown"] = str(aligned_path)
        if not do_stage("fit"):
            return report

        stage = "fit"
        antagonist = None
        if antagonist_path is not None and Path(antagonist_path).exists():
            antagonist = load_mesh(antagonist_path)
        t0 = time.perf_counter()
        fitted, fit_report = stage_fit(aligned, canonical, labels, fdi, antagonist, config)
        fitted_path = out_dir / "fitted_crown.ply"
        save_mesh(fitted, fitted_path, "PLY")
        payload = fit_report.to_dict()
        payload["antagonist_missing"] = antagonist is None
        report.add_stage("fit", time.perf_counter() - t0, payload)
        report.outputs["fitted_crown"] = str(fitted_path)
        return report
    except Exception as exc:
        report.error = {"stage": stage, "type": type(exc).__name__, "message": str(exc)}
        if isinstance(exc, NonConvergenceError):
            report.error["trace"] = list(exc.trace)
        raise
    finally:
        report.write(out_dir / "report.json")


def evaluate_labels(pred_path, gt_path, mesh_path, prep_fdi: int | None = None,
                    seed: int = 0) -> dict:
    """CLI evaluation entry: label JSON files against a mesh."""
    pred = np.asarray(json.loads(Path(pred_path).read_text()), dtype=np.int64)
    gt = np.asarray(json.loads(Path(gt_path).read_text()), dtype=np.int64)
    mesh = load_mesh(mesh_path)
    if len(pred) != mesh.n_faces or len(gt) != mesh.n_faces:
        raise ValueError(
            f"label counts ({len(pred)}, {len(gt)}) do not match face count {mesh.n_faces}"
        )
    out = segmentation_metrics(pred, gt, mesh, prep_fdi=prep_fdi, seed=seed)
    out["schema_version"] = REPORT_SCHEMA_VERSION
    return out
