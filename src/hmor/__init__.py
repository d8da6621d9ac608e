"""Hierarchical multi-person ordinal relations for 3D pose estimation.

A numpy library covering:

* pinhole camera geometry and virtual-view sampling (:mod:`hmor.geometry`),
* the scene/skeleton data model (:mod:`hmor.skeleton`),
* instance/part/joint ordinal relation losses (:mod:`hmor.ordinal`),
* coarse-to-fine human-depth arithmetic and data-term losses
  (:mod:`hmor.depth`),
* multi-person pose metrics (:mod:`hmor.metrics`),
* deterministic synthetic scenes (:mod:`hmor.synth`),
* a gradient-descent refinement solver (:mod:`hmor.solver`),
* scene file I/O and the ``hmor`` CLI (:mod:`hmor.sceneio`, :mod:`hmor.cli`).

``import hmor`` loads none of them: each public name below, and each of
these submodules, is imported on first access (PEP 562), so a caller
pays only for the modules it uses.
"""

import importlib

_EXPORTS = {
    "depth": ("DepthEstimate", "equivalent_depth", "loss_abs", "loss_init", "loss_pose",
              "loss_refine", "normalize_depth", "recover_absolute_depth"),
    "errors": ("BehindCameraError", "GenerationError", "HmorError", "InvalidDepthError",
               "InvalidInputError", "NumericalError"),
    "geometry": ("Camera", "ViewVector", "back_project", "project", "sample_view"),
    "metrics": ("Matching", "MetricReport", "ViolationCounts", "auc", "evaluate",
                "match_persons", "mpjpe", "optimal_assignment", "ordinal_violations", "pck",
                "similarity_align"),
    "ordinal": ("HmorConfig", "HmorLoss", "RelationPairs", "enumerate_pairs", "hmor_loss",
                "part_relations_from_2d"),
    "sceneio": ("load_scene", "save_scene"),
    "skeleton": ("AbsolutePose", "BoundingBox", "Person", "RelativePose", "Scene",
                 "SkeletonTopology", "assemble_absolute"),
    "solver": ("SolverConfig", "TraceEntry", "grad_check", "objective", "objective_terms",
               "refine"),
    "synth": ("DepthSwap", "GaussNoise", "GenSpec", "RootOffset", "generate_scene",
              "perturb"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)
__version__ = "0.1.0"


def __getattr__(name):
    if name in _EXPORTS:
        return importlib.import_module(f".{name}", __name__)
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_MODULE_OF[name]}", __name__), name)
    globals()[name] = value  # later lookups skip this function
    return value


def __dir__():
    return sorted({*globals(), *__all__, *_EXPORTS})
