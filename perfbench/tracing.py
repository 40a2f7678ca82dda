"""Span tracing of crownfit's layers from outside the program.

Each traced function is replaced at the module attribute its caller
resolves (``crownfit.registration.compute_fpfh``, not
``crownfit.features.compute_fpfh``, because registration imported the name),
so the program itself is unchanged. Spans are kept in memory as
``[name, start, end, parent, case, attrs]`` lists and written out by the
caller; ``Tracer.restore`` puts every original attribute back.
"""

from __future__ import annotations

import importlib
import os
import time

# (module, attribute, span name); a name listed under several modules is one
# layer reached through several import sites
TARGETS = [
    ("crownfit.pipeline", "load_mesh", "meshio.load_mesh"),
    ("crownfit.templates", "load_mesh", "meshio.load_mesh"),
    ("crownfit.pipeline", "save_mesh", "meshio.save_mesh"),
    ("crownfit.pipeline", "load_template_library", "templates.load_template_library"),
    ("crownfit.pipeline", "estimate_vertex_normals", "mesh.estimate_vertex_normals"),
    ("crownfit.mesh", "estimate_vertex_normals", "mesh.estimate_vertex_normals"),
    ("crownfit.fitting", "estimate_vertex_normals", "mesh.estimate_vertex_normals"),
    ("crownfit.registration", "voxel_downsample", "mesh.voxel_downsample"),
    ("crownfit.fitting", "is_watertight", "mesh.is_watertight"),
    ("crownfit.registration", "compute_fpfh", "features.compute_fpfh"),
    ("crownfit.pipeline", "register_with_routing", "registration.register_with_routing"),
    ("crownfit.registration", "coarse_register", "registration.coarse_register"),
    ("crownfit.registration", "fine_register", "registration.fine_register"),
    ("crownfit.pipeline", "graphcut_refine", "labels.graphcut_refine"),
    ("crownfit.labels", "maximum_flow", "labels.maximum_flow"),
    ("crownfit.pipeline", "reassign_small_components", "labels.reassign_small_components"),
    ("crownfit.pipeline", "summarize", "metrics.summarize"),
    ("crownfit.pipeline", "load_embedding_index", "retrieval.load_embedding_index"),
    ("crownfit.pipeline", "geometric_embedding", "retrieval.geometric_embedding"),
    ("crownfit.pipeline", "align_crown", "alignment.align_crown"),
    ("crownfit.fitting", "interproximal_adapt", "fitting.interproximal_adapt"),
    ("crownfit.fitting", "intersection_volume", "fitting.intersection_volume"),
    ("crownfit.fitting", "points_inside_mesh", "fitting.points_inside_mesh"),
    ("crownfit.fitting", "occlusal_correct_posterior", "fitting.occlusal_correct"),
    ("crownfit.fitting", "occlusal_correct_anterior", "fitting.occlusal_correct"),
]
# every module that builds a spatial index through its own imported name
INDEX_MODULES = ("crownfit.spatial", "crownfit.features", "crownfit.registration",
                 "crownfit.fitting", "crownfit.templates")


def _file_bytes(args, kwargs):
    path = args[0] if args else kwargs.get("path")
    return {"bytes": os.path.getsize(path)}


def _fpfh_points(args, kwargs):
    return {"points": len(args[0])}


def _inside_pairs(args, kwargs):
    points, mesh = args[0], args[1]
    return {"pairs": len(points) * mesh.n_faces}


# attributes taken from the arguments before the call, or from the result
BEFORE = {
    "meshio.load_mesh": _file_bytes,
    "features.compute_fpfh": _fpfh_points,
    "fitting.points_inside_mesh": _inside_pairs,
}
AFTER = {
    "registration.coarse_register": lambda result: {"trials": result.iterations},
    "registration.fine_register": lambda result: {"iters": result.iterations},
}


class Tracer:
    """Installs span-recording wrappers; ``case`` tags the spans of one case."""

    def __init__(self):
        self.spans: list = []
        self.case = None
        self._stack: list = []
        self._saved: list = []

    def span(self, name, fn, *args, **kwargs):
        """Call ``fn`` inside a span named ``name``."""
        attrs = BEFORE[name](args, kwargs) if name in BEFORE else {}
        record = [name, 0.0, 0.0, self._stack[-1] if self._stack else None, self.case, attrs]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        record[1] = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        except Exception as exc:
            attrs["error"] = type(exc).__name__
            raise
        finally:
            record[2] = time.perf_counter()
            self._stack.pop()
        if name in AFTER:
            attrs.update(AFTER[name](result))
        return result

    def _wrap(self, name, fn):
        def traced(*args, **kwargs):
            return self.span(name, fn, *args, **kwargs)

        return traced

    def _patch(self, module, attr, value):
        self._saved.append((module, attr, getattr(module, attr)))
        setattr(module, attr, value)

    def install(self) -> None:
        for mod_name, attr, name in TARGETS:
            module = importlib.import_module(mod_name)
            self._patch(module, attr, self._wrap(name, getattr(module, attr)))

        spatial = importlib.import_module("crownfit.spatial")
        base = spatial.SpatialIndex
        tracer = self

        class TracedSpatialIndex(base):
            def __init__(self, *args, **kwargs):
                tracer.span("spatial.index_build", super().__init__, *args, **kwargs)

        TracedSpatialIndex.__name__ = base.__name__
        TracedSpatialIndex.__qualname__ = base.__qualname__
        for mod_name in INDEX_MODULES:
            self._patch(importlib.import_module(mod_name), "SpatialIndex", TracedSpatialIndex)

    def restore(self) -> None:
        while self._saved:
            module, attr, value = self._saved.pop()
            setattr(module, attr, value)
