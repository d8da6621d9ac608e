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
    compares the depths of bone midpoints. pair_cap keeps a uniform
    subset of at most that many pairs per level; the subset depends only
    on the pair count and the generator, so inside ``refine`` (which
    passes none) one subset is shared by every view.
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
    """+1.0 for margin < -eps, -1.0 for margin > eps, 0.0 inside the band."""
    m = np.asarray(margin)
    return np.subtract(m < -eps, m > eps, dtype=float)


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


def _part_endpoints(topology: SkeletonTopology):
    idx = np.asarray(topology.parts, dtype=int).reshape(-1, 2)
    return idx[:, 0], idx[:, 1]


@functools.lru_cache(maxsize=64)
def _entity_pairs(n_entities: int, per_person: int, cross_person: bool) -> np.ndarray:
    """(2, P) entity pairs a < b, optionally only within persons."""
    a, b = np.triu_indices(n_entities, k=1)
    if not cross_person and per_person > 0:
        keep = (a // per_person) == (b // per_person)
        a, b = a[keep], b[keep]
    pairs = np.stack([a, b])
    pairs.setflags(write=False)  # cached, shared between callers
    return pairs


def _subsample(pairs: np.ndarray, cap: int | None, rng) -> np.ndarray:
    if cap is None or pairs.shape[1] <= cap:
        return pairs
    if rng is None:
        rng = np.random.default_rng(0)
    keep = np.sort(rng.choice(pairs.shape[1], size=cap, replace=False))
    return pairs[:, keep]


@functools.lru_cache(maxsize=64)
def _incidence(topology: SkeletonTopology, part_mode: str) -> np.ndarray:
    """(J, S) matrix D: ``D.T`` maps a person's joints to its part points,
    bone vectors end - start ("vector") or bone midpoints ("particle")."""
    starts, ends = _part_endpoints(topology)
    D = np.zeros((topology.joint_count, topology.part_count))
    parts = np.arange(topology.part_count)
    D[ends, parts], D[starts, parts] = (0.5, 0.5) if part_mode == "particle" else (1.0, -1.0)
    D.setflags(write=False)  # cached, shared between callers
    return D


def _entity_points(K: np.ndarray, D: np.ndarray):
    """Each level's (n, 3) entity points of a scaled (N, J, 3) joint array:
    person positions (joint means), part points ``D.T @ K`` (flat id
    ``person * S + part``) and joints (flat id ``person * J + joint``)."""
    return K.mean(axis=1), (D.T @ K).reshape(-1, 3), K.reshape(-1, 3)


def _project(X: np.ndarray, views: np.ndarray) -> np.ndarray:
    """(k, n) projections of (n, 3) points on (k, 3) views, written out so
    a view's row has the same bits in any stack (a matmul's do not)."""
    return views[:, :1] * X[:, 0] + views[:, 1:2] * X[:, 1] + views[:, 2:] * X[:, 2]


def _cross_views(T: np.ndarray, views: np.ndarray) -> np.ndarray:
    """(k, n, 3) cross products ``t x v`` of (n, 3) vectors and (k, 3) views."""
    x, y, z = T.T
    vx, vy, vz = views.T[:, :, None]
    return np.stack([y * vz - z * vy, z * vx - x * vz, x * vy - y * vx], axis=-1)


def _margins(points, views: np.ndarray, index, vector_parts: bool):
    """Raw (k, P) margins of each level's (2, P) entity pairs under (k, 3)
    views, from one scalar per entity and view: ``z_a - z_b`` of the
    projections ``z`` for depth levels, and ``(t_a x t_b) . v = t_a .
    (t_b x v)`` for vector parts, read from ``M = T @ C.T`` per view with
    ``C = T x v``. Also returns C (None for particle parts). The (n, n)
    products are made one view at a time: a (k, n, n) stack soon passes
    glibc's default 128 KiB mmap threshold, and then every call pays for
    fresh pages."""
    out, C = [], None
    for level, (X, (a, b)) in enumerate(zip(points, index)):
        if level == 1 and vector_parts:
            C = _cross_views(X, views)
            flat = a * len(X) + b
            out.append(np.array([(X @ Cv.T).take(flat) for Cv in C]).reshape(len(C), len(flat)))
        else:
            z = _project(X, views)
            out.append(z.take(a, axis=1) - z.take(b, axis=1))
    return out, C


@dataclass(frozen=True)
class LabelledViews:
    """Ground-truth labels of one pair set under a stack of k views.

    ``views`` is (k, 3). ``index`` holds each level's (2, P) entity
    pairs: persons (instance), flat part ids ``person * S + part`` and
    flat joint ids ``person * J + joint``. ``labels`` holds each level's
    (k, P) float labels, one row per view.
    """

    views: np.ndarray
    index: tuple[np.ndarray, np.ndarray, np.ndarray]
    labels: tuple[np.ndarray, np.ndarray, np.ndarray]

    @classmethod
    def from_pairs(cls, pairs_seq: Sequence[RelationPairs],
                   topology: SkeletonTopology) -> LabelledViews:
        """Stack RelationPairs enumerated under k views. Every element must
        hold the same pairs (as ``enumerate_pairs`` gives for any view
        with the same ``pair_cap`` generator)."""
        first = pairs_seq[0]
        cols = (first.instance_pairs[:, :2], first.part_pairs[:, :4], first.joint_pairs[:, :4])
        for pairs in pairs_seq[1:]:
            others = (pairs.instance_pairs, pairs.part_pairs, pairs.joint_pairs)
            if not all(np.array_equal(o[:, :-1], c) for o, c in zip(others, cols)):
                raise InvalidInputError("pair sets differ between views; enumerate "
                                        "every view with the same pair_cap subset")
        J, S = topology.joint_count, topology.part_count
        inst, part, joint = (np.ascontiguousarray(c.T) for c in cols)
        index = (inst, part[0::2] * S + part[1::2], joint[0::2] * J + joint[1::2])
        labels = tuple(np.array([rows[:, -1] for rows in level], dtype=float) for level in zip(
            *((p.instance_pairs, p.part_pairs, p.joint_pairs) for p in pairs_seq)))
        return cls(np.array([p.view for p in pairs_seq]), index, labels)

    def rows(self, rows) -> LabelledViews:
        """The sub-stack of the view rows ``rows`` (any numpy index)."""
        return LabelledViews(self.views[rows], self.index, tuple(m[rows] for m in self.labels))


class LabelledTruth:
    """The pair sets of a ground-truth scene, enumerated once and labelled
    under any stack of views.

    The pair indices (subsampled per ``pair_cap`` with ``rng``) and each
    level's ground-truth entity points are kept; labelling k views
    thresholds the margins :func:`ordinal_pass` computes for a prediction
    (:func:`_margins`), so the ground truth itself scores exactly zero.
    """

    def __init__(self, gt_scene: Scene, config: HmorConfig | None = None,
                 rng: np.random.Generator | None = None):
        cfg = config or HmorConfig()
        K = scene_joint_array(gt_scene, cfg.depth_unit_scale)
        N, J, _ = K.shape
        S = gt_scene.topology.part_count
        levels = ((N, 0, True), (N * S, S, cfg.cross_person_parts),
                  (N * J, J, cfg.cross_person_joints))
        self.index = tuple(_subsample(_entity_pairs(*level), cfg.pair_cap, rng)
                           for level in levels)
        self.points = _entity_points(K, _incidence(gt_scene.topology, cfg.part_mode))
        self.vector_parts = cfg.part_mode == "vector"
        self.eps = cfg.equality_tolerance

    def label(self, views, base: LabelledViews | None = None) -> LabelledViews:
        """Label the (k, 3) ``views``, appended to the views of ``base``."""
        views = np.asarray(views, dtype=float).reshape(-1, 3)
        margins, _ = _margins(self.points, views, self.index, self.vector_parts)
        labels = tuple(_threshold_label(m, self.eps) for m in margins)
        if base is not None:
            views = np.concatenate([base.views, views])
            labels = tuple(np.concatenate(both) for both in zip(base.labels, labels))
        return LabelledViews(views, self.index, labels)


def enumerate_pairs(gt_scene: Scene, view, config: HmorConfig | None = None,
                    rng: np.random.Generator | None = None) -> RelationPairs:
    """Enumerate all relation pairs of a scene and label them from ground truth.

    Instance pairs are all unordered person pairs (none for a single
    person). Part and joint pairs cover the whole scene, both within and
    across persons, unless the config restricts them to within-person
    pairs. ``pair_cap`` uniformly subsamples each level with the given
    generator (a fixed default generator if none is passed).
    """
    n = _view_array(view)
    labelled = LabelledTruth(gt_scene, config, rng).label(n)
    per_person = (None, gt_scene.topology.part_count, gt_scene.topology.joint_count)
    rows = []
    for (a, b), labels, per in zip(labelled.index, labelled.labels, per_person):
        cols = [a, b] if per is None else [a // per, a % per, b // per, b % per]
        rows.append(np.column_stack(cols + [labels[0].astype(int)]))
    return RelationPairs(n, *rows)


def _row_counts(mask: np.ndarray) -> np.ndarray:
    # a loop over k rows beats count_nonzero(axis=1) for the few views used
    return np.array([np.count_nonzero(row) for row in mask])


def _label_margins(m: np.ndarray, labels: np.ndarray, eps: float):
    """Signed margins ``labels * m`` of (k, P) raw margins ``m``, and the
    (k,) numbers of pairs whose label thresholded from ``m`` differs from
    ``labels``.

    That count equals ``count_nonzero(_threshold_label(m, eps) != labels)``.
    A +-1 pair agrees only when its signed margin is below -eps; a 0 pair
    (signed margin 0) agrees only when |m| <= eps. Both tests are written
    as negations so a NaN margin, which thresholds to 0, disagrees with
    +-1 and agrees with 0.
    """
    margins = labels * m
    violations = m.shape[1] - _row_counts(margins < -eps)
    if np.count_nonzero(labels) < labels.size:
        violations -= _row_counts((labels == 0) & ~(np.abs(m) > eps))
    return margins, violations


def _depth_weights(margins: np.ndarray, labels: np.ndarray, scale: float) -> np.ndarray:
    """d(scale * log(1 + [margin]_+)) / d(raw margin) per view and pair;
    zero where the error is clamped."""
    w = np.divide(labels, 1.0 + margins, out=np.zeros_like(margins), where=margins > 0)
    w *= scale
    return w


def ordinal_pass(K: np.ndarray, topology: SkeletonTopology, labelled: LabelledViews,
                 config: HmorConfig | None = None, want_grad: bool = True,
                 grad_views=None):
    """Per-view losses, violation counts and gradient of an (N, J, 3)
    scaled joint array under k labelled views, in one pass per level.

    Returns (totals, levels, violations, dK): the (k,) weighted totals;
    the (3, k) per-level mean errors (instance, part, joint); the (3, k)
    per-level counts of pairs whose predicted label disagrees with the
    ground truth; and the gradient of ``totals[grad_views].sum()`` with
    respect to every joint coordinate (None when want_grad is off).
    ``grad_views`` indexes view rows (default all); the gradient runs the
    same code on those rows alone, so its bits equal a pass over the
    sub-stack ``labelled.rows(grad_views)``. Margins come from
    per-entity scalars (:func:`_margins`) and so does the gradient:
    ``dX = g.T @ V`` with ``g[v, e] = sum_{a=e} W - sum_{b=e} W`` for
    depth levels, ``dT = sum_v (W_v - W_v.T) @ C_v`` for vector parts;
    a person's share goes ``/ J`` to each joint and a part's through D.
    A level with weight 0 is still counted but adds nothing to dK. Clamp
    boundaries contribute zero subgradient.
    """
    cfg = config or HmorConfig()
    V = labelled.views
    k = len(V)
    N, J, _ = K.shape
    vector_parts = cfg.part_mode == "vector"
    D = _incidence(topology, cfg.part_mode)
    points = _entity_points(K, D)
    raw, C = _margins(points, V, labelled.index, vector_parts)
    rows = slice(None) if grad_views is None else grad_views
    V, C = V[rows], None if C is None else C[rows]
    weights = (cfg.w_instance, cfg.w_part, cfg.w_joint)
    levels = np.zeros((3, k))
    violations = np.zeros((3, k), dtype=int)
    dK = np.zeros_like(K) if want_grad else None

    for level, (m, labels, (a, b), n, w) in enumerate(
            zip(raw, labelled.labels, labelled.index, map(len, points), weights)):
        P = m.shape[1]
        if not m.size:  # no pairs or no views
            continue
        margins, violations[level] = _label_margins(m, labels, cfg.equality_tolerance)
        linear = level == 1 and vector_parts
        errs = np.maximum(0.0, margins)
        levels[level] = (errs if linear else np.log1p(errs)).sum(axis=1) / P
        if not (want_grad and w > 0):
            continue
        margins, labels = margins[rows], labels[rows]
        if linear:
            Wd = np.zeros((len(V), n * n))
            Wd[:, a * n + b] = np.where(margins > 0, labels * (w / P), 0.0)
            Wd = Wd.reshape(-1, n, n)
            dX = ((Wd - Wd.transpose(0, 2, 1)) @ C).sum(axis=0)
        else:
            W = _depth_weights(margins, labels, w / P)
            dX = np.array([np.bincount(a, Wv, minlength=n) - np.bincount(b, Wv, minlength=n)
                           for Wv in W]).T @ V
        if level == 0:
            dK += dX[:, None] / J  # a person's position averages its joints
        else:
            dK += D @ dX.reshape(N, -1, 3) if level == 1 else dX.reshape(N, J, 3)

    totals = cfg.w_instance * levels[0] + cfg.w_part * levels[1] + cfg.w_joint * levels[2]
    return totals, levels, violations, dK


def hmor_loss_on_joints(K: np.ndarray, topology: SkeletonTopology,
                        pairs: RelationPairs, config: HmorConfig | None = None,
                        want_grad: bool = True):
    """Loss, gradient and violation counts on an (N, J, 3) scaled joint array.

    Returns (HmorLoss, dK) where dK is the gradient of the weighted total
    with respect to every joint coordinate (None when want_grad is off).
    This is :func:`ordinal_pass` with one view, and the core behind
    :func:`hmor_loss` and :func:`count_violations`.
    """
    labelled = LabelledViews.from_pairs([pairs], topology)
    totals, levels, violations, dK = ordinal_pass(K, topology, labelled, config, want_grad)
    loss = HmorLoss(float(totals[0]), *(float(x) for x in levels[:, 0]),
                    tuple(int(v) for v in violations[:, 0]))
    return loss, dK


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
    a, b = _entity_pairs(N * S, S, cross_person)
    cross = T[a, 0] * T[b, 1] - T[a, 1] * T[b, 0]
    labels = _threshold_label(cross, eps).astype(int)
    return np.column_stack([a // S, a % S, b // S, b % S, labels])
