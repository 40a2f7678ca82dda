"""Pipeline configuration: one human-readable JSON file with per-stage blocks.

Each stage module owns its block's class and defaults, the classifier's
provider choice included; this module adds the segmentation and retrieval
blocks and the paths. Unknown keys are rejected so typos fail fast; paths
are resolved relative to the config file's directory and validated when a
stage needs them.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field, fields, is_dataclass, replace
from pathlib import Path

from .alignment import AlignmentParams
from .classify import ClassifierParams
from .fitting import FittingParams
from .labels import RefineParams
from .registration import RegistrationParams


@dataclass(frozen=True)
class SegmentationConfig:
    provider: str = "corruptor"        # "corruptor" | "file"
    flip_fraction: float = 0.05
    softness: float = 0.3
    probabilities_path: str | None = None

    def __post_init__(self):
        if self.provider not in ("corruptor", "file"):
            raise ValueError(f"unknown segmentation provider {self.provider!r}")
        for name in ("flip_fraction", "softness"):
            if not 0 <= getattr(self, name) <= 1:
                raise ValueError(f"{name} must lie in [0, 1]")


@dataclass(frozen=True)
class RetrievalConfig:
    jaw_store: str | None = None       # donor-jaw embedding store
    crown_dir: str | None = None       # crown library directory


@dataclass(frozen=True)
class PipelineConfig:
    seed: int = 0
    output_dir: str = "out"
    template_dir: str | None = None
    classifier: ClassifierParams = field(default_factory=ClassifierParams)
    registration: RegistrationParams = field(default_factory=RegistrationParams)
    refine: RefineParams = field(default_factory=RefineParams)
    segmentation: SegmentationConfig = field(default_factory=SegmentationConfig)
    retrieval: RetrievalConfig = field(default_factory=RetrievalConfig)
    alignment: AlignmentParams = field(default_factory=AlignmentParams)
    fitting: FittingParams = field(default_factory=FittingParams)


def config_from_dict(payload: dict, base_dir: Path | None = None) -> PipelineConfig:
    """The config a JSON object describes; a ``PipelineConfig`` field whose
    default is a dataclass is a section, read into that class."""
    known = {f.name: f.default_factory for f in fields(PipelineConfig)}
    kwargs = {}
    for key, value in payload.items():
        if key not in known:
            raise ValueError(f"unknown config key {key!r}")
        section_cls = known[key]
        if is_dataclass(section_cls):
            unknown = set(value) - {f.name for f in fields(section_cls)}
            if unknown:
                raise ValueError(f"unknown keys in config section {key!r}: {sorted(unknown)}")
            value = section_cls(**value)
        kwargs[key] = value
    cfg = PipelineConfig(**kwargs)
    if base_dir is not None:
        cfg = _resolve_paths(cfg, base_dir)
    return cfg


def _resolve_paths(cfg: PipelineConfig, base: Path) -> PipelineConfig:
    def resolve(p):
        if p is None:
            return None
        path = Path(p)
        return str(path if path.is_absolute() else base / path)

    return replace(
        cfg,
        output_dir=resolve(cfg.output_dir),
        template_dir=resolve(cfg.template_dir),
        segmentation=replace(
            cfg.segmentation,
            probabilities_path=resolve(cfg.segmentation.probabilities_path),
        ),
        retrieval=replace(
            cfg.retrieval,
            jaw_store=resolve(cfg.retrieval.jaw_store),
            crown_dir=resolve(cfg.retrieval.crown_dir),
        ),
    )


def load_config(path) -> PipelineConfig:
    path = Path(path)
    return config_from_dict(json.loads(path.read_text()), base_dir=path.parent)


def save_config(cfg: PipelineConfig, path) -> None:
    Path(path).write_text(json.dumps(asdict(cfg), indent=2, sort_keys=True))
