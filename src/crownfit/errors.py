"""Exception and warning types shared across the pipeline."""


class PipelineError(Exception):
    """Base class for pipeline failures. Carries an optional stage tag."""

    def __init__(self, message, stage=None):
        super().__init__(message)
        self.stage = stage

    def __str__(self):
        base = super().__str__()
        if self.stage:
            return f"[{self.stage}] {base}"
        return base


class MeshFormatError(PipelineError):
    """Malformed mesh file. ``byte_offset`` locates the first bad byte when known."""

    def __init__(self, message, byte_offset=None, stage=None):
        super().__init__(message, stage=stage)
        self.byte_offset = byte_offset

    def __str__(self):
        base = super().__str__()
        if self.byte_offset is not None:
            return f"{base} (at byte offset {self.byte_offset})"
        return base


class UnsupportedFeatureError(PipelineError):
    """Requested a feature the target format cannot represent (e.g. STL labels)."""


class ClassificationError(PipelineError):
    """Scan classification could not produce a class."""


class CoarseRegistrationError(PipelineError):
    """Coarse global registration failed."""


class RoutingError(PipelineError):
    """All candidate templates failed the coarse registration stage."""


class RankDeficiencyError(PipelineError):
    """Normal equations of the ICP step are rank deficient (degenerate geometry)."""


class DegenerateGeometryError(PipelineError):
    """Input geometry does not admit the requested construction."""


class NonConvergenceError(PipelineError):
    """Iterative procedure hit its iteration cap. ``trace`` holds the history."""

    def __init__(self, message, trace=None, stage=None):
        super().__init__(message, stage=stage)
        self.trace = trace or []


class NoMatchError(PipelineError):
    """Retrieval found no candidate satisfying the matching gate."""


class MeshWarning(UserWarning):
    """Non-fatal mesh irregularity (degenerate faces, isolated vertices, ...)."""


class AlignmentWarning(UserWarning):
    """Non-fatal alignment irregularity (empty robust-normal filter, clamping, ...)."""
