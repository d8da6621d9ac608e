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
"""

from .depth import (DepthEstimate, equivalent_depth, loss_abs, loss_init,
                    loss_pose, loss_refine, normalize_depth,
                    recover_absolute_depth)
from .errors import (BehindCameraError, GenerationError, HmorError,
                     InvalidDepthError, InvalidInputError, NumericalError,
                     SolverError)
from .geometry import (Camera, ViewVector, back_project, project,
                       project_to_plane, sample_view)
from .metrics import (Matching, MetricReport, ViolationCounts, auc, evaluate,
                      match_persons, mpjpe, optimal_assignment,
                      ordinal_violations, pck, similarity_align)
from .ordinal import (HmorConfig, HmorLoss, RelationPairs, count_violations,
                      enumerate_pairs, hmor_loss, part_relations_from_2d)
from .sceneio import load_scene, save_scene
from .skeleton import (AbsolutePose, BoundingBox, Person, RelativePose, Scene,
                       SkeletonTopology, assemble_absolute, instance_position,
                       part_vectors)
from .solver import (SolverConfig, TraceEntry, grad_check, objective, objective_terms,
                     refine)
from .synth import (DepthSwap, GaussNoise, GenSpec, RootOffset, generate_scene,
                    perturb)

__version__ = "0.1.0"
