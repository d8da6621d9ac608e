"""Hierarchical ordinal relations between persons, body parts, and joints.

Three levels of pairwise order supervision over a multi-person scene:

* instance level -- depth order of whole persons (mean of joints),
* part level -- turning direction of bone-vector pairs seen along a view,
* joint level -- depth order of individual joints.

Ground-truth relation labels take values +1/-1/0. The error of a pair is
zero whenever the predicted pair is ordered consistently with its label,
and grows with the violation margin otherwise, so a prediction equal to
the ground truth always scores exactly zero.

Depth margins enter the losses in scaled units (default meters, via
``HmorConfig.depth_unit_scale``) to keep the log penalties well-scaled
for human-size scenes.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import InvalidDepthError, InvalidInputError
from .geometry import ViewVector
from .skeleton import Scene, SkeletonTopology


@dataclass(frozen=True)
class HmorConfig:
    """Knobs for pair enumeration and loss aggregation.

    depth_unit_scale converts millimeters into the unit depth margins are
    penalized in (1/1000 = meters). equality_tolerance widens the band of
    margins labeled 0; the default 0 keeps labels strict, which is right
    for exact synthetic ground truth. part_mode selects the bone-pair
    representation: "vector" compares turning directions, "particle"
    compares the depths of bone midpoints.
    """

    depth_unit_scale: float = 1e-3
    equality_tolerance: float = 0.0
    w_instance: float = 1.0
    w_part: float = 1.0
    w_joint: float = 1.0
    pair_cap: int | None = None
    part_mode: str = "vector"
    cross_person_parts: bool = True
    cross_person_joints: bool = True

    def __post_init__(self):
        if self.depth_unit_scale <= 0:
            raise InvalidInputError("depth_unit_scale must be positive")
        if self.equality_tolerance < 0:
            raise InvalidInputError("equality_tolerance must be >= 0")
        if min(self.w_instance, self.w_part, self.w_joint) < 0:
            raise InvalidInputError("level weights must be >= 0")
        if self.part_mode not in ("vector", "particle"):
            raise InvalidInputError(f"unknown part_mode {self.part_mode!r}")
        if self.pair_cap is not None and self.pair_cap < 0:
            raise InvalidInputError("pair_cap must be >= 0 or None")


@dataclass(frozen=True)
class RelationPairs:
    """Enumerated pair sets with ground-truth labels under one view.

    instance_pairs rows are (person_a, person_b, label); part_pairs rows
    are (person_1, part_1, person_2, part_2, label); joint_pairs rows are
    (person_1, joint_1, person_2, joint_2, label). Pairs are unordered
    (first index lexicographically smaller) and deduplicated.
    """

    view: np.ndarray
    instance_pairs: np.ndarray
    part_pairs: np.ndarray
    joint_pairs: np.ndarray


@dataclass(frozen=True)
class HmorLoss:
    """Weighted total, the per-level mean errors, and the per-level
    (instance, part, joint) counts of pairs whose predicted label
    disagrees with the ground truth."""

    total: float
    instance: float
    part: float
    joint: float
    violations: tuple[int, int, int]


def _view_array(view) -> np.ndarray:
    if isinstance(view, ViewVector):
        return view.direction
    v = np.asarray(view, dtype=float)
    if v.shape != (3,):
        raise InvalidInputError(f"view must be a 3-vector, got shape {v.shape}")
    return v


def _threshold_label(margin, eps: float):
    """+1 for margin < -eps, -1 for margin > eps, 0 inside the band."""
    m = np.asarray(margin)
    return np.where(m < -eps, 1, np.where(m > eps, -1, 0)).astype(int)


# ---------------------------------------------------------------------------
# scalar relations and errors (reference forms; the scene-level loss is
# vectorized but must agree with these exactly)

def relation_instance(gt_a, gt_b, view, eps: float = 0.0) -> int:
    """+1 if a is closer than b along the view, -1 if farther, 0 if tied."""
    n = _view_array(view)
    margin = float(np.dot(np.asarray(gt_a, float) - np.asarray(gt_b, float), n))
    return int(_threshold_label(margin, eps))


def err_instance_grad(pred_a, pred_b, label: int, view):
    """Instance ordinal error and its gradients w.r.t. both positions.

    err = log(1 + max(0, label * (pred_a - pred_b) . view)); the
    subgradient at the clamp boundary is taken as zero.
    """
    n = _view_array(view)
    a = np.asarray(pred_a, float)
    b = np.asarray(pred_b, float)
    g = label * float(np.dot(a - b, n))
    if g <= 0.0:
        return 0.0, np.zeros(3), np.zeros(3)
    w = label / (1.0 + g)
    return float(np.log1p(g)), w * n, -w * n


def err_instance(pred_a, pred_b, label: int, view) -> float:
    return err_instance_grad(pred_a, pred_b, label, view)[0]


def relation_joint(gt_a, gt_b, view, eps: float = 0.0) -> int:
    """Joint-level depth relation; same rule as the instance level."""
    return relation_instance(gt_a, gt_b, view, eps)


def err_joint_grad(pred_k1, pred_k2, label: int, view):
    """Joint ordinal error and gradients; clamps the label-product,
    exactly as the instance error does."""
    return err_instance_grad(pred_k1, pred_k2, label, view)


def err_joint(pred_k1, pred_k2, label: int, view) -> float:
    return err_joint_grad(pred_k1, pred_k2, label, view)[0]


def relation_part(gt_t1, gt_t2, view, eps: float = 0.0) -> int:
    """Turning-direction relation of two bone vectors seen along ``view``.

    The label is -sign((t1 x t2) . view), banded by eps, so that a
    correctly ordered prediction makes label * (t1 x t2) . view negative
    and the part error clamp to zero. Parallel projections give 0.
    """
    n = _view_array(view)
    c = float(np.dot(np.cross(np.asarray(gt_t1, float), np.asarray(gt_t2, float)), n))
    return int(_threshold_label(c, eps))


def err_part_grad(pred_t1, pred_t2, label: int, view):
    """Part ordinal error [label * (t1 x t2) . view]_+ and gradients."""
    n = _view_array(view)
    t1 = np.asarray(pred_t1, float)
    t2 = np.asarray(pred_t2, float)
    a = label * float(np.dot(np.cross(t1, t2), n))
    if a <= 0.0:
        return 0.0, np.zeros(3), np.zeros(3)
    return float(a), label * np.cross(t2, n), -label * np.cross(t1, n)


def err_part(pred_t1, pred_t2, label: int, view) -> float:
    return err_part_grad(pred_t1, pred_t2, label, view)[0]


def err_part_particle_grad(pred_c1, pred_c2, label: int, view):
    """Particle-part variant: depth-order error of bone midpoints."""
    return err_instance_grad(pred_c1, pred_c2, label, view)


def err_part_particle(pred_c1, pred_c2, label: int, view) -> float:
    return err_part_particle_grad(pred_c1, pred_c2, label, view)[0]


# ---------------------------------------------------------------------------
# scene-level enumeration and loss

def scene_joint_array(scene: Scene, scale: float = 1.0) -> np.ndarray:
    """Absolute joints of every person as one (N, J, 3) array times scale.

    Same arithmetic as per-person back-projection, vectorized across the
    scene (this sits on the hot path of loss evaluation).
    """
    cam = scene.camera
    rel = np.stack([p.rel_pose.joints for p in scene.persons])
    u_top = np.array([p.box.u_top for p in scene.persons])[:, None]
    v_top = np.array([p.box.v_top for p in scene.persons])[:, None]
    z_root = np.array([p.root_depth for p in scene.persons])[:, None]
    d = rel[:, :, 2] + z_root
    if np.any(d <= 0):
        raise InvalidDepthError("scene contains non-positive joint depths")
    K = np.empty_like(rel)
    K[:, :, 0] = d * (rel[:, :, 0] + u_top - cam.cx) / cam.fx
    K[:, :, 1] = d * (rel[:, :, 1] + v_top - cam.cy) / cam.fy
    K[:, :, 2] = d
    if scale != 1.0:
        K *= scale
    return K


def _cross_dot(t1: np.ndarray, t2: np.ndarray, n: np.ndarray) -> np.ndarray:
    """Row-wise (t1 x t2) . n, component order matching np.cross + dot."""
    c0 = t1[:, 1] * t2[:, 2] - t1[:, 2] * t2[:, 1]
    c1 = t1[:, 2] * t2[:, 0] - t1[:, 0] * t2[:, 2]
    c2 = t1[:, 0] * t2[:, 1] - t1[:, 1] * t2[:, 0]
    return c0 * n[0] + c1 * n[1] + c2 * n[2]


def _cross_rows(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise cross product of (P, 3) against one 3-vector."""
    out = np.empty_like(a)
    out[:, 0] = a[:, 1] * b[2] - a[:, 2] * b[1]
    out[:, 1] = a[:, 2] * b[0] - a[:, 0] * b[2]
    out[:, 2] = a[:, 0] * b[1] - a[:, 1] * b[0]
    return out


def _part_endpoints(topology: SkeletonTopology):
    idx = np.asarray(topology.parts, dtype=int).reshape(-1, 2)
    return idx[:, 0], idx[:, 1]


def _part_vectors_flat(joints: np.ndarray, topology: SkeletonTopology) -> np.ndarray:
    starts, ends = _part_endpoints(topology)
    return (joints[:, ends] - joints[:, starts]).reshape(-1, 3)


def _part_midpoints_flat(joints: np.ndarray, topology: SkeletonTopology) -> np.ndarray:
    starts, ends = _part_endpoints(topology)
    return 0.5 * (joints[:, ends] + joints[:, starts]).reshape(-1, 3)


@functools.lru_cache(maxsize=64)
def _entity_pairs(n_entities: int, per_person: int, cross_person: bool) -> np.ndarray:
    a, b = np.triu_indices(n_entities, k=1)
    if not cross_person and per_person > 0:
        keep = (a // per_person) == (b // per_person)
        a, b = a[keep], b[keep]
    pairs = np.column_stack([a, b])
    pairs.setflags(write=False)  # cached, shared between callers
    return pairs


def _subsample(pairs: np.ndarray, cap: int | None, rng) -> np.ndarray:
    if cap is None or len(pairs) <= cap:
        return pairs
    if rng is None:
        rng = np.random.default_rng(0)
    keep = np.sort(rng.choice(len(pairs), size=cap, replace=False))
    return pairs[keep]


def enumerate_pairs(gt_scene: Scene, view, config: HmorConfig | None = None,
                    rng: np.random.Generator | None = None) -> RelationPairs:
    """Enumerate all relation pairs of a scene and label them from ground truth.

    Instance pairs are all unordered person pairs (none for a single
    person). Part and joint pairs cover the whole scene, both within and
    across persons, unless the config restricts them to within-person
    pairs. ``pair_cap`` uniformly subsamples each level with the given
    generator (a fixed default generator if none is passed).
    """
    cfg = config or HmorConfig()
    n = _view_array(view)
    eps = cfg.equality_tolerance
    K = scene_joint_array(gt_scene, cfg.depth_unit_scale)
    N, J, _ = K.shape
    S = gt_scene.topology.part_count

    positions = K.mean(axis=1)
    ipairs = _entity_pairs(N, 0, True)
    imargin = (positions[ipairs[:, 0]] - positions[ipairs[:, 1]]) @ n
    instance = np.column_stack([ipairs, _threshold_label(imargin, eps)])

    if cfg.part_mode == "particle":
        mids = _part_midpoints_flat(K, gt_scene.topology)
        ppairs = _entity_pairs(N * S, S, cfg.cross_person_parts)
        pmargin = (mids[ppairs[:, 0]] - mids[ppairs[:, 1]]) @ n
        plabels = _threshold_label(pmargin, eps)
    else:
        T = _part_vectors_flat(K, gt_scene.topology)
        ppairs = _entity_pairs(N * S, S, cfg.cross_person_parts)
        pmargin = _cross_dot(T[ppairs[:, 0]], T[ppairs[:, 1]], n)
        plabels = _threshold_label(pmargin, eps)
    part = np.column_stack([ppairs[:, 0] // S, ppairs[:, 0] % S,
                            ppairs[:, 1] // S, ppairs[:, 1] % S, plabels])

    flat = K.reshape(-1, 3)
    jpairs = _entity_pairs(N * J, J, cfg.cross_person_joints)
    jmargin = (flat[jpairs[:, 0]] - flat[jpairs[:, 1]]) @ n
    joint = np.column_stack([jpairs[:, 0] // J, jpairs[:, 0] % J,
                             jpairs[:, 1] // J, jpairs[:, 1] % J,
                             _threshold_label(jmargin, eps)])

    return RelationPairs(
        view=n,
        instance_pairs=_subsample(instance, cfg.pair_cap, rng),
        part_pairs=_subsample(part, cfg.pair_cap, rng),
        joint_pairs=_subsample(joint, cfg.pair_cap, rng),
    )


def _label_margins(m: np.ndarray, labels: np.ndarray, eps: float):
    """Signed margins ``labels * m`` of raw margins ``m``, and the number of
    pairs whose label thresholded from ``m`` differs from ``labels``.

    That count equals ``count_nonzero(_threshold_label(m, eps) != labels)``.
    A +-1 pair agrees only when its signed margin is below -eps; a 0 pair
    (signed margin 0) agrees only when |m| <= eps. Both tests are written
    as negations so a NaN margin, which thresholds to 0, disagrees with
    +-1 and agrees with 0.
    """
    margins = labels * m
    violations = len(margins) - np.count_nonzero(margins < -eps)
    if np.count_nonzero(labels) < len(labels):
        violations -= np.count_nonzero((labels == 0) & ~(np.abs(m) > eps))
    return margins, int(violations)


def _level_depth_errors(entities: np.ndarray, idx_a, idx_b, labels, view, eps: float):
    """Depth-order errors log(1 + [margin]_+), signed margins and the
    violation count of one level."""
    m = (np.take(entities, idx_a, axis=0) - np.take(entities, idx_b, axis=0)) @ view
    margins, violations = _label_margins(m, labels, eps)
    return np.log1p(np.maximum(0.0, margins)), margins, violations


def _depth_grad_rows(margins: np.ndarray, labels: np.ndarray, scale: float,
                     view: np.ndarray) -> np.ndarray:
    """Gradient of ``scale`` times each depth-order error w.r.t. the first
    entity of its pair, one (P, 3) row per pair; the second entity gets
    the negation. Zero where the error is clamped."""
    w = np.divide(labels, 1.0 + margins, out=np.zeros(len(margins)), where=margins > 0)
    w *= scale
    return w[:, None] * view[None, :]


def hmor_loss_on_joints(K: np.ndarray, topology: SkeletonTopology,
                        pairs: RelationPairs, config: HmorConfig | None = None,
                        want_grad: bool = True):
    """Loss, gradient and violation counts on an (N, J, 3) scaled joint array.

    Returns (HmorLoss, dK) where dK is the gradient of the weighted total
    with respect to every joint coordinate (None when want_grad is off).
    Each level derives its error, gradient weight and violation count
    from one raw margin per pair. A level with weight 0 is still counted
    but adds nothing to dK. Clamp boundaries contribute zero subgradient.
    This is the vectorized core behind :func:`hmor_loss`,
    :func:`count_violations` and the refinement solver.
    """
    cfg = config or HmorConfig()
    n = pairs.view
    eps = cfg.equality_tolerance
    J = K.shape[1]
    S = topology.part_count
    flat = K.reshape(-1, 3)
    dK = np.zeros_like(K) if want_grad else None
    flat_grad = dK.reshape(-1, 3) if want_grad else None

    # instance level
    mean_instance, v_instance = 0.0, 0
    if len(pairs.instance_pairs):
        a, b, lab = pairs.instance_pairs.T
        errs, margins, v_instance = _level_depth_errors(K.mean(axis=1), a, b, lab, n, eps)
        mean_instance = float(errs.mean())
        if want_grad and cfg.w_instance > 0:
            dP = _depth_grad_rows(margins, lab, cfg.w_instance / (len(errs) * J), n)
            # each person's position averages its joints, so every joint
            # of person a (resp. b) receives the same share
            all_joints = np.arange(J)
            np.add.at(flat_grad, (a[:, None] * J + all_joints).ravel(),
                      np.repeat(dP, J, axis=0))
            np.add.at(flat_grad, (b[:, None] * J + all_joints).ravel(),
                      np.repeat(-dP, J, axis=0))

    # part level
    mean_part, v_part = 0.0, 0
    if len(pairs.part_pairs):
        m1, s1, m2, s2, lab = pairs.part_pairs.T
        pa, pb = m1 * S + s1, m2 * S + s2
        if cfg.part_mode == "particle":
            errs, margins, v_part = _level_depth_errors(
                _part_midpoints_flat(K, topology), pa, pb, lab, n, eps)
        else:
            T = _part_vectors_flat(K, topology)
            t1, t2 = np.take(T, pa, axis=0), np.take(T, pb, axis=0)
            margins, v_part = _label_margins(_cross_dot(t1, t2, n), lab, eps)
            errs = np.maximum(0.0, margins)
        mean_part = float(errs.mean())
        if want_grad and cfg.w_part > 0:
            if cfg.part_mode == "particle":
                half = 0.5 * _depth_grad_rows(margins, lab, cfg.w_part / len(errs), n)
                grads = (half, half, -half, -half)
            else:
                coeff = np.where(margins > 0, lab * cfg.w_part / len(errs), 0.0)
                g1 = coeff[:, None] * _cross_rows(t2, n)
                g2 = -coeff[:, None] * _cross_rows(t1, n)
                grads = (g1, -g1, g2, -g2)
            # (end, start) joints of part a, then of part b
            starts, ends = _part_endpoints(topology)
            joints = (m1 * J + ends[s1], m1 * J + starts[s1],
                      m2 * J + ends[s2], m2 * J + starts[s2])
            for idx, g in zip(joints, grads):
                np.add.at(flat_grad, idx, g)

    # joint level
    mean_joint, v_joint = 0.0, 0
    if len(pairs.joint_pairs):
        m1, j1, m2, j2, lab = pairs.joint_pairs.T
        ia = m1 * J + j1
        ib = m2 * J + j2
        errs, margins, v_joint = _level_depth_errors(flat, ia, ib, lab, n, eps)
        mean_joint = float(errs.mean())
        if want_grad and cfg.w_joint > 0:
            dj = _depth_grad_rows(margins, lab, cfg.w_joint / len(errs), n)
            np.add.at(flat_grad, ia, dj)
            np.add.at(flat_grad, ib, -dj)

    total = (cfg.w_instance * mean_instance + cfg.w_part * mean_part
             + cfg.w_joint * mean_joint)
    return (HmorLoss(total, mean_instance, mean_part, mean_joint,
                     (v_instance, v_part, v_joint)), dK)


def hmor_loss(pred_scene: Scene, pairs: RelationPairs, view=None,
              config: HmorConfig | None = None) -> HmorLoss:
    """Evaluate the hierarchical ordinal loss of a predicted scene.

    ``pairs`` must have been enumerated from the ground truth under the
    same view. The total is the weighted sum of the per-level mean
    errors; a level with no pairs contributes zero.
    """
    cfg = config or HmorConfig()
    if view is not None:
        v = _view_array(view)
        if not np.array_equal(v, pairs.view):
            raise InvalidInputError("view does not match the view the pairs were labeled under")
    K = scene_joint_array(pred_scene, cfg.depth_unit_scale)
    loss, _ = hmor_loss_on_joints(K, pred_scene.topology, pairs, cfg, want_grad=False)
    return loss


def count_violations(pred_scene: Scene, pairs: RelationPairs,
                     config: HmorConfig | None = None) -> tuple[int, int, int]:
    """Count pairs whose predicted relation label disagrees with ground truth.

    Returns (instance, part, joint) disagreement counts under the view
    the pairs were labeled with. Labels are recomputed from the predicted
    scene with the same tolerance used for the ground truth; the counts
    come from the same pass as :func:`hmor_loss`.
    """
    return hmor_loss(pred_scene, pairs, config=config).violations


def part_relations_from_2d(gt_pixels: Sequence[np.ndarray],
                           topology: SkeletonTopology,
                           eps: float = 0.0,
                           cross_person: bool = True) -> np.ndarray:
    """Part-pair labels from 2D keypoints alone.

    2D skeletons are treated as image-plane projections of the bone
    vectors: each pixel-space bone (du, dv) lifts to (du, dv, 0) and the
    turning-direction rule is applied with the view (0, 0, 1). Rows match
    the part_pairs layout (m1, s1, m2, s2, label).
    """
    stacked = np.stack([np.asarray(p, dtype=float) for p in gt_pixels])
    if stacked.ndim != 3 or stacked.shape[2] != 2:
        raise InvalidInputError(f"expected per-person (J, 2) keypoints, got {stacked.shape}")
    if stacked.shape[1] != topology.joint_count:
        raise InvalidInputError(
            f"keypoints have {stacked.shape[1]} joints, topology expects {topology.joint_count}")
    starts, ends = _part_endpoints(topology)
    N = stacked.shape[0]
    S = topology.part_count
    T = (stacked[:, ends] - stacked[:, starts]).reshape(-1, 2)
    pairs = _entity_pairs(N * S, S, cross_person)
    a, b = pairs[:, 0], pairs[:, 1]
    cross = T[a, 0] * T[b, 1] - T[a, 1] * T[b, 0]
    labels = _threshold_label(cross, eps)
    return np.column_stack([a // S, a % S, b // S, b % S, labels])
