"""End-to-end orchestration: classify, register, refine, retrieve, align, fit.

Each ``stage_<name>`` returns its result and its report payload; the CLI's
subcommands call the same functions. ``run_pipeline`` runs them in one loop
that times each stage, saves its artifact and records its payload, plus a
versioned JSON report. A stage's time covers everything it reads, computes
and writes; only loading the scan comes before the first stage. A fixed
config seed makes the whole run deterministic (reports differ only in timing
fields).
"""

from __future__ import annotations

import json
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from .alignment import align_crown, fit_arch_spline, robust_target, spline_frame_at
from .classify import ScanClass, baseline_geometric_classify, read_classification_sidecar
from .config import PipelineConfig
from .errors import NonConvergenceError, PipelineError
from .fitting import fit_crown, occlusal_direction
from .labels import corrupt_labels, graphcut_refine, load_probabilities, reassign_small_components
from .mesh import (NUM_CLASSES, PREPARED, LabeledMesh, bounding_box_diagonal,
                   estimate_vertex_normals, face_adjacency)
from .meshio import load_mesh, save_mesh
from .metrics import centroid_error, class_metrics, macro_average, summarize
from .registration import load_template_library, register_with_routing
from .retrieval import geometric_embedding, load_embedding_index, match_context, retrieve_crown
from .synth import fdi_is_valid, fdi_to_class
from .templates import extract_tooth_centroids

REPORT_SCHEMA_VERSION = 2
STAGES = ("classify", "register", "refine", "retrieve", "align", "fit")
# the mesh a stage leaves, saved as <name>.ply in the output directory
ARTIFACTS = {"register": "canonical_pose", "refine": "refined_labels",
             "align": "aligned_crown", "fit": "fitted_crown"}


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


def context_faces(labels: np.ndarray, fdi: int) -> dict[int, np.ndarray]:
    """Face indices of each labeled neighbor of ``fdi``, mesial then distal."""
    out = {}
    for ctx in filter(None, neighbor_fdis(fdi)):  # no distal neighbor is None
        faces = np.nonzero(labels == fdi_to_class(ctx))[0]
        if faces.size:
            out[ctx] = faces
    return out


def prepared_class(labels: np.ndarray, fdi: int) -> int:
    """Prepared (class 17) when any face carries it, else the class of ``fdi``."""
    return PREPARED if np.any(labels == PREPARED) else fdi_to_class(fdi)


@dataclass
class RunReport:
    schema_version: int = REPORT_SCHEMA_VERSION
    scan_path: str = ""
    target_fdi: int = 0
    seed: int = 0
    stages: list = field(default_factory=list)  # ordered {name, seconds, ...}
    outputs: dict = field(default_factory=dict)
    error: dict | None = None

    def write(self, path) -> None:
        Path(path).write_text(json.dumps(asdict(self), indent=2, sort_keys=True))


def with_normals(mesh: LabeledMesh) -> LabeledMesh:
    """The mesh as loaded, with vertex normals estimated if it carries none."""
    return mesh if mesh.vertex_normals is not None else estimate_vertex_normals(mesh)


# ---------------------------------------------------------------- stages


def stage_classify(scan: LabeledMesh, config: PipelineConfig,
                   scan_path) -> tuple[ScanClass, dict]:
    """The scan's class from the configured provider: the geometric baseline
    or the scan's sidecar."""
    if config.classifier.provider == "external":
        scan_class, confidence = read_classification_sidecar(scan_path)
    else:
        scan_class, confidence = baseline_geometric_classify(scan, config.classifier)
    return scan_class, {"class": scan_class.value, "confidence": confidence}


def stage_register(scan: LabeledMesh, scan_class: ScanClass,
                   config: PipelineConfig) -> tuple[LabeledMesh, dict]:
    """The scan moved into the canonical template frame; the payload's ICP
    counts are the chosen template's."""
    if config.template_dir is None:
        raise PipelineError("registration needs template_dir configured")
    templates = load_template_library(config.template_dir, config.registration)
    reg = register_with_routing(scan, scan_class, templates, config.registration)
    return scan.transformed(reg.transform), {
        "fitness": reg.fitness,
        "inlier_rmse": reg.inlier_rmse,
        "chosen_template": reg.chosen_template,
        "transform": reg.transform.matrix().tolist(),
        "icp_iterations": reg.iterations,
        "icp_evaluations": reg.evaluations,
    }


def stage_refine(canonical: LabeledMesh, fdi: int | None, config: PipelineConfig,
                 scan_path) -> tuple[np.ndarray, dict]:
    """Refined face labels; with ground truth on the scan, metrics too."""
    seg = config.segmentation
    if seg.provider == "corruptor":
        if canonical.face_labels is None:
            raise PipelineError(
                "corruptor segmentation provider needs ground-truth labels on the scan"
            )
        probs = corrupt_labels(
            canonical.face_labels, NUM_CLASSES, seg.flip_fraction, seg.softness, config.seed
        )
    else:
        path = seg.probabilities_path
        if path is None and scan_path is not None:
            path = str(Path(scan_path).with_suffix(".probs"))
        if path is None or not Path(path).exists():
            raise PipelineError(f"probability file not found: {path}")
        probs = load_probabilities(path)
    pairs = face_adjacency(canonical)
    labels = graphcut_refine(canonical, probs, config.refine, pairs)
    labels = reassign_small_components(labels, pairs, config.refine.min_component_faces)
    payload = {"n_classes": probs.shape[1]}
    if canonical.face_labels is not None:
        payload["metrics"] = segmentation_metrics(
            labels, canonical.face_labels, canonical, prep_fdi=fdi, seed=config.seed
        )
    return labels, payload


def segmentation_metrics(pred: np.ndarray, gt: np.ndarray, mesh: LabeledMesh,
                         prep_fdi: int | None = None, seed: int = 0) -> dict:
    """Per-class and macro metrics plus the clinical context rows."""
    scores = class_metrics(pred, gt)
    diag = bounding_box_diagonal(mesh)
    per_class = {str(cls): row for cls, row in scores.items()}
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
            "dsc": summarize(dsc_values, seed=seed) if len(dsc_values) else None,
        },
        "bbox_diagonal": diag,
    }
    if prep_fdi is not None:
        mesial, distal = neighbor_fdis(prep_fdi)
        regions = {
            "prepared": prepared_class(gt, prep_fdi),
            "adjacent_mesial": fdi_to_class(mesial),
            "adjacent_distal": fdi_to_class(distal) if distal is not None else None,
        }
        rows = {}
        for name, gt_cls in regions.items():
            gt_faces = np.nonzero(gt == gt_cls)[0] if gt_cls is not None else []
            if len(gt_faces) == 0:
                rows[name] = {"absent": True}
                continue
            pred_faces = np.nonzero(pred == gt_cls)[0]
            err, missed = centroid_error(pred_faces, gt_faces, mesh, diag)
            rows[name] = {
                "class": int(gt_cls),
                "dsc": scores[int(gt_cls)]["dsc"],
                "centroid_error_mm": err,
                "miss": missed,
            }
        out["context"] = rows
    return out


def stage_retrieve(canonical: LabeledMesh, labels: np.ndarray, fdi: int,
                   config: PipelineConfig) -> tuple[LabeledMesh, dict]:
    """The crown template retrieved for ``fdi`` from its context teeth."""
    rc = config.retrieval
    if rc.jaw_store is None or rc.crown_dir is None:
        raise PipelineError("retrieval needs jaw_store and crown_dir configured")
    crown_dir = Path(rc.crown_dir)
    jaws, crowns = load_embedding_index(rc.jaw_store, crown_dir / "crowns.bin")

    slots = {ctx: geometric_embedding(canonical, faces)
             for ctx, faces in context_faces(labels, fdi).items()}
    if not slots:
        raise PipelineError("no context teeth found for retrieval")
    donor_jaw, jaw_score = match_context(slots, fdi, jaws)
    template_id, crown_score = retrieve_crown(jaws[donor_jaw][fdi], crowns)

    manifest = json.loads((crown_dir / "crowns.json").read_text())
    mesh = load_mesh(crown_dir / manifest["templates"][template_id], "PLY")
    return with_normals(mesh), {
        "donor_jaw": donor_jaw,
        "jaw_score": jaw_score,
        "template_id": template_id,
        "crown_score": crown_score,
    }


def arch_centroid_sequence(labels: np.ndarray, mesh: LabeledMesh, target_fdi: int,
                           prep_cls: int) -> tuple[list, int]:
    """Tooth centroids ordered from the right distal tooth (class 8) to the
    left distal one (class 16), and the index of the preparation's centroid
    in that sequence.

    In the canonical frame this order runs with the outside of the arch on
    its left, which is what ``spline_frame_at`` reads buccal from. The
    prepared region, class ``prep_cls``, takes the target position's slot in
    the ordering.
    """
    cents = extract_tooth_centroids(mesh.with_labels(labels))
    if prep_cls not in cents:
        raise PipelineError(f"no faces labeled for the target FDI {target_fdi}")
    target_cls = fdi_to_class(target_fdi)
    cents[target_cls] = cents.pop(prep_cls)
    order = [cls for cls in list(range(8, 0, -1)) + list(range(9, 17)) if cls in cents]
    if len(order) < 3:
        raise PipelineError(f"arch spline needs >=3 tooth centroids, found {len(order)}")
    return [cents[cls] for cls in order], order.index(target_cls)


def stage_align(canonical: LabeledMesh, labels: np.ndarray, fdi: int,
                crown: LabeledMesh, config: PipelineConfig) -> tuple[LabeledMesh, dict]:
    """The region-labelled crown moved onto the preparation, the faces of
    ``prepared_class``, by spline-guided alignment."""
    prep_cls = prepared_class(labels, fdi)
    seq, i = arch_centroid_sequence(labels, canonical, fdi, prep_cls)
    spline = fit_arch_spline(seq)
    v_m_ref, v_b_ref = spline_frame_at(spline, spline.x[i], fdi)

    prep_vertices = np.unique(canonical.faces[labels == prep_cls])
    prep_normals = canonical.vertex_normals[prep_vertices]

    transform, steps = align_crown(crown, robust_target(prep_normals, v_m_ref, config.alignment),
                                   robust_target(prep_normals, v_b_ref, config.alignment),
                                   seq[i], occlusal_direction(fdi))
    return crown.transformed(transform), {
        "steps": steps,
        "prep_centroid": seq[i].tolist(),
    }


def stage_fit(aligned: LabeledMesh, canonical: LabeledMesh, labels: np.ndarray,
              fdi: int, antagonist_path, config: PipelineConfig) -> tuple[LabeledMesh, dict]:
    """The aligned crown fitted between its neighbour teeth, one mesh each,
    and, when an antagonist path is given, against the antagonist loaded
    from it."""
    antagonist = load_mesh(antagonist_path) if antagonist_path is not None else None
    neighbors = [canonical.submesh(faces) for faces in context_faces(labels, fdi).values()]
    if not neighbors:
        raise PipelineError("no neighbor faces found for fitting")
    return fit_crown(aligned, neighbors, antagonist, fdi, config.fitting)


# ---------------------------------------------------------------- end-to-end


def _stages(scan, scan_path, fdi, config, antagonist_path):
    """Run the stages in ``STAGES`` order, yielding each one's payload and the
    mesh it leaves (None for a stage without an artifact)."""
    scan_class, payload = stage_classify(scan, config, scan_path)
    yield payload, None
    canonical, payload = stage_register(scan, scan_class, config)
    yield payload, canonical
    labels, payload = stage_refine(canonical, fdi, config, scan_path)
    yield payload, canonical.with_labels(labels)
    crown, payload = stage_retrieve(canonical, labels, fdi, config)
    yield payload, None
    aligned, payload = stage_align(canonical, labels, fdi, crown, config)
    yield payload, aligned
    fitted, payload = stage_fit(aligned, canonical, labels, fdi, antagonist_path, config)
    yield payload, fitted


def run_pipeline(
    scan_path,
    fdi: int,
    config: PipelineConfig,
    antagonist_path=None,
    stop_after: str | None = None,
) -> RunReport:
    """Execute the pipeline, writing stage artifacts and the JSON report.

    ``stop_after`` gates execution to the stages up to and including the
    named one. Without ``antagonist_path`` the fit skips occlusal
    correction; a given path that cannot be loaded fails the fit. Any
    exception aborts the run with a partial report whose ``error`` names the
    stage in flight (``classify`` while the scan loads), the exception type
    and message (and a ``NonConvergenceError``'s trace); the exception is
    then re-raised.
    """
    if not fdi_is_valid(fdi):
        raise ValueError(f"invalid FDI tooth number {fdi}")
    if stop_after is not None and stop_after not in STAGES:
        raise ValueError(f"unknown stage {stop_after!r}; expected one of {STAGES}")
    out_dir = Path(config.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    report = RunReport(scan_path=str(scan_path), target_fdi=fdi, seed=config.seed)
    stage = STAGES[0]
    try:
        scan = with_normals(load_mesh(scan_path))
        steps = _stages(scan, scan_path, fdi, config, antagonist_path)
        for stage in STAGES[:STAGES.index(stop_after or STAGES[-1]) + 1]:
            t0 = time.perf_counter()
            payload, artifact = next(steps)
            if stage in ARTIFACTS:
                path = out_dir / f"{ARTIFACTS[stage]}.ply"
                save_mesh(artifact, path, "PLY")
                report.outputs[ARTIFACTS[stage]] = str(path)
            report.stages.append({"name": stage, "seconds": time.perf_counter() - t0,
                                  **payload})
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
