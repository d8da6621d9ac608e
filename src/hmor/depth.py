"""Coarse-to-fine human-depth arithmetic and the data-term losses.

Absolute root depths are made camera-independent by dividing out the
focal lengths, then rescaled to the "equivalent depth" of the resized
person crop via the box/RoI area ratio. The refinement residual is
learned in that normalized space and inverted back to millimeters at
recovery time. All losses are plain L1 means, defined once on
whole-scene arrays (:func:`l1_term`, :func:`init_term`,
:func:`refine_term`) from one residual each (:func:`l1_residual`,
:func:`refine_residual`). The depth terms take prepared targets, the
ground truth's depths through :func:`normalize_depth` (and
:func:`equivalent_depth`), which the solver builds once per run and the
``loss_*`` functions per call for per-person arguments.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import InvalidDepthError, InvalidInputError
from .geometry import Camera
from .skeleton import AbsolutePose, RelativePose


def _positive(x) -> bool:
    """Whether every value of ``x`` is positive and finite (NaN is not)."""
    return all(0 < v < math.inf for v in np.ravel(x).tolist())


def _check_areas(a_box, a_roi) -> None:
    if not (_positive(a_box) and _positive(a_roi)):
        raise InvalidInputError(
            f"areas must be positive and finite, got a_box={a_box}, a_roi={a_roi}")


@dataclass(frozen=True)
class DepthEstimate:
    """Per-person depth quantities in normalized (mm/pixel) units.

    z_init_norm is the focal-normalized initial depth, z_eq_init its
    equivalent-depth rescaling by sqrt(a_box / a_roi), and delta the
    predicted correction residual in the same equivalent units.
    """

    z_init_norm: float
    z_eq_init: float
    delta: float
    a_box: float
    a_roi: float

    def __post_init__(self):
        _check_areas(self.a_box, self.a_roi)


def normalize_depth(z_abs, camera: Camera):
    """Divide an absolute depth, or an array of them, by the geometric mean
    of the focal lengths."""
    if not _positive(z_abs):
        raise InvalidDepthError(f"depth must be positive and finite, got {z_abs}")
    return z_abs / np.sqrt(camera.fx * camera.fy)


def equivalent_depth(z_norm, a_box, a_roi):
    """Rescale a normalized depth to the resized-crop equivalent.

    Shrinking a person's box to a fixed RoI looks, under the pinhole
    model, like moving the person farther by sqrt(a_box / a_roi). The
    areas may be numbers, arrays or lists of per-person areas.
    """
    _check_areas(a_box, a_roi)
    return z_norm * np.sqrt(np.asarray(a_box, dtype=float) / np.asarray(a_roi, dtype=float))


def recover_absolute_depth(delta: float, z_eq_init: float, camera: Camera,
                           a_box: float, a_roi: float) -> float:
    """Invert the normalization chain: refined equivalent depth back to mm."""
    _check_areas(a_box, a_roi)
    z_abs = (delta + z_eq_init) * np.sqrt(camera.fx * camera.fy * a_roi / a_box)
    if not _positive(z_abs):
        raise InvalidDepthError(f"recovered depth {z_abs} is not positive and finite")
    return float(z_abs)


def _checked(*arrays) -> list[np.ndarray]:
    """The arrays as floats, if they share one non-empty shape."""
    out = [np.asarray(a, dtype=float) for a in arrays]
    if len({a.shape for a in out}) > 1 or out[0].size == 0:
        raise InvalidInputError(
            f"data-term arrays must share one non-empty shape, got {[a.shape for a in out]}")
    return out


def _l1(diff: np.ndarray):
    return float(np.abs(diff).sum() / math.prod(diff.shape[:2])), np.sign(diff)


def l1_residual(pred, target) -> np.ndarray:
    """``pred - target``: the residual of the pose, abs and init terms."""
    pred, target = _checked(pred, target)
    return pred - target


def refine_residual(delta, z_eq_init, target_z_eq) -> np.ndarray:
    """The refine term's residual ``delta - (target_z_eq - z_eq_init)``:
    predicted residuals against the ones that take the initial equivalent
    depths to the targets."""
    delta, z_eq_init, target = _checked(delta, z_eq_init, target_z_eq)
    return delta - (target - z_eq_init)


def l1_term(pred, target):
    """The pose ((N, J, 3) box-relative coordinates) and abs ((N, J, 3)
    camera-frame ones) data terms: the mean over persons and joints of
    ``|pred - target|`` summed over coordinates, and ``sign(pred - target)``
    (:func:`l1_residual`). Every term returns its sign, the gradient of its
    summed ``|residual|``: the term's own gradient is the sign over its N·J
    (or N) rows, a factor a caller folds into its weight."""
    return _l1(l1_residual(pred, target))


def init_term(pred_z_norm, target_z_norm):
    """The init term of (N,) focal-normalized initial depths against
    prepared targets, the ground truth's depths through
    :func:`normalize_depth`: :func:`l1_term` of the two."""
    return l1_term(pred_z_norm, target_z_norm)


def refine_term(delta, z_eq_init, target_z_eq):
    """The refine term of (N,) predicted residuals (:func:`refine_residual`)
    against prepared targets, the ground truth's depths through
    :func:`normalize_depth` and :func:`equivalent_depth` under the
    prediction's boxes; its sign is the gradient w.r.t. ``delta`` and
    ``z_eq_init`` alike."""
    return _l1(refine_residual(delta, z_eq_init, target_z_eq))


def loss_init(pred_z_norm, gt_z_abs, camera: Camera) -> float:
    """Mean L1 gap of focal-normalized initial depths (:func:`init_term`)."""
    pred, gt = _checked(pred_z_norm, gt_z_abs)
    return init_term(pred, normalize_depth(gt, camera))[0]


def loss_refine(pred: Sequence[DepthEstimate], gt_z_abs, camera: Camera) -> float:
    """Mean L1 gap of the refinement residuals (:func:`refine_term`)."""
    delta, z_eq_init, gt, a_box, a_roi = _checked(
        [e.delta for e in pred], [e.z_eq_init for e in pred], gt_z_abs,
        [e.a_box for e in pred], [e.a_roi for e in pred])
    return refine_term(delta, z_eq_init,
                       equivalent_depth(normalize_depth(gt, camera), a_box, a_roi))[0]


def loss_pose(pred_rel: Sequence[RelativePose], gt_rel: Sequence[RelativePose]) -> float:
    """L1 loss on box-relative coordinates (:func:`l1_term`)."""
    return l1_term(*([getattr(p, "joints", p) for p in poses] for poses in (pred_rel, gt_rel)))[0]


def loss_abs(pred_abs: Sequence[AbsolutePose], gt_abs: Sequence[AbsolutePose]) -> float:
    """L1 loss on absolute camera-frame coordinates (:func:`l1_term`)."""
    return loss_pose(pred_abs, gt_abs)
