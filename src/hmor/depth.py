"""Coarse-to-fine human-depth arithmetic and the data-term losses.

Absolute root depths are made camera-independent by dividing out the
focal lengths, then rescaled to the "equivalent depth" of the resized
person crop via the box/RoI area ratio. The refinement residual is
learned in that normalized space and inverted back to millimeters at
recovery time. All losses are plain L1 means.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import InvalidDepthError, InvalidInputError
from .geometry import Camera
from .skeleton import AbsolutePose, RelativePose


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
        if self.a_box <= 0 or self.a_roi <= 0:
            raise InvalidInputError(
                f"areas must be positive, got a_box={self.a_box}, a_roi={self.a_roi}")


def normalize_depth(z_abs: float, camera: Camera) -> float:
    """Divide an absolute depth by the geometric mean of the focal lengths."""
    if z_abs <= 0:
        raise InvalidDepthError(f"depth must be positive, got {z_abs}")
    return z_abs / np.sqrt(camera.fx * camera.fy)


def equivalent_depth(z_norm: float, a_box: float, a_roi: float) -> float:
    """Rescale a normalized depth to the resized-crop equivalent.

    Shrinking a person's box to a fixed RoI looks, under the pinhole
    model, like moving the person farther by sqrt(a_box / a_roi).
    """
    if a_box <= 0 or a_roi <= 0:
        raise InvalidInputError(f"areas must be positive, got a_box={a_box}, a_roi={a_roi}")
    return z_norm * np.sqrt(a_box / a_roi)


def recover_absolute_depth(delta: float, z_eq_init: float, camera: Camera,
                           a_box: float, a_roi: float) -> float:
    """Invert the normalization chain: refined equivalent depth back to mm."""
    if a_box <= 0 or a_roi <= 0:
        raise InvalidInputError(f"areas must be positive, got a_box={a_box}, a_roi={a_roi}")
    z_abs = (delta + z_eq_init) * np.sqrt(camera.fx * camera.fy * a_roi / a_box)
    if z_abs <= 0:
        raise InvalidDepthError(f"recovered depth {z_abs} is not positive")
    return float(z_abs)


def loss_init_grad(pred_z_norm, gt_z_abs, camera: Camera):
    """Mean L1 gap between normalized ground-truth depths and initial
    predictions, plus the gradient w.r.t. the predictions."""
    pred = np.asarray(pred_z_norm, dtype=float)
    gt = np.asarray(gt_z_abs, dtype=float)
    if pred.shape != gt.shape or pred.ndim != 1 or len(pred) < 1:
        raise InvalidInputError(f"mismatched depth vectors: {pred.shape} vs {gt.shape}")
    resid = gt / np.sqrt(camera.fx * camera.fy) - pred
    grad = -np.sign(resid) / len(pred)
    return float(np.abs(resid).mean()), grad


def loss_init(pred_z_norm, gt_z_abs, camera: Camera) -> float:
    return loss_init_grad(pred_z_norm, gt_z_abs, camera)[0]


def loss_refine_grad(pred: Sequence[DepthEstimate], gt_z_abs, camera: Camera):
    """Mean L1 residual gap of the refinement step and its gradient
    w.r.t. the per-person deltas."""
    gt = np.asarray(gt_z_abs, dtype=float)
    if len(pred) != len(gt) or len(pred) < 1:
        raise InvalidInputError(f"{len(pred)} estimates vs {len(gt)} ground-truth depths")
    resid = np.empty(len(pred))
    for i, (est, z) in enumerate(zip(pred, gt)):
        gt_eq = equivalent_depth(normalize_depth(z, camera), est.a_box, est.a_roi)
        resid[i] = gt_eq - est.z_eq_init - est.delta
    grad = -np.sign(resid) / len(pred)
    return float(np.abs(resid).mean()), grad


def loss_refine(pred: Sequence[DepthEstimate], gt_z_abs, camera: Camera) -> float:
    return loss_refine_grad(pred, gt_z_abs, camera)[0]


def _stack_poses(poses, attr: str) -> np.ndarray:
    return np.stack([np.asarray(getattr(p, attr) if hasattr(p, attr) else p, dtype=float)
                     for p in poses])


def loss_pose_grad(pred_rel: Sequence[RelativePose], gt_rel: Sequence[RelativePose]):
    """L1 regression loss on box-relative coordinates, averaged over
    persons and joints, with the gradient w.r.t. the predictions."""
    pred = _stack_poses(pred_rel, "joints")
    gt = _stack_poses(gt_rel, "joints")
    if pred.shape != gt.shape:
        raise InvalidInputError(f"pose shape mismatch: {pred.shape} vs {gt.shape}")
    n, j = pred.shape[0], pred.shape[1]
    diff = pred - gt
    grad = np.sign(diff) / (n * j)
    return float(np.abs(diff).sum() / (n * j)), grad


def loss_pose(pred_rel, gt_rel) -> float:
    return loss_pose_grad(pred_rel, gt_rel)[0]


def loss_abs_grad(pred_abs: Sequence[AbsolutePose], gt_abs: Sequence[AbsolutePose]):
    """L1 loss on absolute camera-frame coordinates: the same L1 body as
    :func:`loss_pose_grad`, applied to AbsolutePose joints."""
    return loss_pose_grad(pred_abs, gt_abs)


def loss_abs(pred_abs, gt_abs) -> float:
    return loss_abs_grad(pred_abs, gt_abs)[0]


def total_loss(components, weights=None) -> float:
    """Weighted sum of loss components, default weight 1 for each.

    ``components`` maps term names to values; ``weights`` may override
    any subset. Every value must be finite.
    """
    total = 0.0
    for name, value in components.items():
        if not np.isfinite(value):
            raise InvalidInputError(f"component {name!r} is not finite: {value}")
        w = 1.0 if weights is None else weights.get(name, 1.0)
        total += w * value
    return float(total)
