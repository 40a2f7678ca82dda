"""Exception and warning types shared across the pipeline.

An exception says what went wrong, not where: none carries a stage. The
stage that failed is named once, by ``run_pipeline``'s stage loop, in the
report's ``error.stage``.
"""


class PipelineError(Exception):
    """Base class for pipeline failures."""


class MeshFormatError(PipelineError):
    """Malformed mesh file. ``byte_offset`` locates the first bad byte when known."""

    def __init__(self, message, byte_offset=None):
        super().__init__(message)
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

    def __init__(self, message, trace=None):
        super().__init__(message)
        self.trace = trace or []


class NoMatchError(PipelineError):
    """Retrieval found no candidate satisfying the matching gate."""


class MeshWarning(UserWarning):
    """Non-fatal mesh irregularity (degenerate faces, isolated vertices, ...)."""


class AlignmentWarning(UserWarning):
    """Non-fatal alignment irregularity: no normal passes a robust target's
    dot gate."""
