"""Multi-person 3D pose evaluation.

Predictions are matched to ground truth with an optimal (not greedy)
one-to-one assignment, then scored with the MPJPE family (no alignment,
root alignment, similarity alignment), distance-threshold PCK with its
area-under-curve summary, and ordinal-violation audits of the relation
levels.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError, NumericalError
from .geometry import project_points
from .ordinal import HmorConfig, LabelledTruth, _view_array, scene_joint_array
from .skeleton import AbsolutePose, Scene, check_matched, check_topologies_match

DEFAULT_PCK_THRESHOLD_MM = 150.0
DEFAULT_AUC_GRID_MM = (1.0, 150.0, 1.0)  # first and last threshold, step


def auc_grid(min_mm: float, max_mm: float, step_mm: float) -> np.ndarray:
    """AUC thresholds from min_mm to max_mm inclusive, step_mm apart."""
    return np.arange(min_mm, max_mm + 0.5 * step_mm, step_mm)


DEFAULT_AUC_THRESHOLDS_MM = auc_grid(*DEFAULT_AUC_GRID_MM)
DEFAULT_AUC_THRESHOLDS_MM.flags.writeable = False  # shared by every report's curve


@dataclass(frozen=True)
class Matching:
    """One-to-one assignment between predicted and ground-truth persons."""

    pairs: tuple[tuple[int, int], ...]
    unmatched_pred: tuple[int, ...]
    unmatched_gt: tuple[int, ...]


@dataclass(frozen=True)
class ViolationCounts:
    """Ordinal disagreements per relation level, summed over audit views."""

    instance: int
    part: int
    joint: int

    @property
    def total(self) -> int:
        return self.instance + self.part + self.joint


class PckCurve(Sequence):
    """PCK curve rows (threshold_mm, pck_rel, pck_abs), kept as correct-joint
    counts in the smallest integer type that holds them: a 150-point curve
    takes under 1 KB instead of ~20 KB of float tuples. Each row is built on
    access with pck()'s arithmetic and equals the tuple it stands for."""

    __slots__ = ("_thresholds", "_counts", "_total")

    def __init__(self, thresholds: np.ndarray, rel_counts, abs_counts, total: int):
        self._thresholds = thresholds
        self._counts = np.stack([rel_counts, abs_counts]).astype(np.min_scalar_type(total))
        self._total = total

    def __len__(self) -> int:
        return len(self._thresholds)

    def __getitem__(self, k):
        if isinstance(k, slice):
            return tuple(self)[k]
        rel, ab = self._counts[:, k].tolist()
        return (float(self._thresholds[k]), 100.0 * rel / self._total, 100.0 * ab / self._total)

    def __eq__(self, other) -> bool:
        return isinstance(other, (tuple, PckCurve)) and tuple(self) == tuple(other)

    def __hash__(self) -> int:
        return hash(tuple(self))

    def __repr__(self) -> str:
        return repr(tuple(self))


@dataclass(frozen=True)
class MetricReport:
    mpjpe: float
    pa_mpjpe: float
    abs_mpjpe: float
    pck_rel: float
    pck_abs: float
    auc_rel: float
    ordinal_violations: ViolationCounts
    matched_pairs: tuple[tuple[int, int], ...]
    pck_curve: Sequence[tuple[float, float, float]] = ()


def similarity_align(source: np.ndarray, target: np.ndarray) -> np.ndarray:
    """Align source points to target with the least-squares similarity
    transform (rotation, translation, uniform scale) of Umeyama (1991).

    ``source`` and ``target`` are (J, D) point sets, or stacks of them of
    shape (..., J, D), D = 3 for joints. Each set of a stack is aligned
    on its own, with one batched SVD and determinant pair for the stack,
    and its result equals, bit for bit, a 2-D call on that set alone. A
    set with a reflection as its best rotation takes the best proper
    rotation; a set whose points coincide (variance under 1e-18) is only
    translated. A shape mismatch, fewer than 2 dimensions or an empty
    point set raises InvalidInputError; a NaN or infinite coordinate
    raises NumericalError.
    """
    x = np.asarray(source, dtype=float)
    y = np.asarray(target, dtype=float)
    if x.shape != y.shape:
        raise InvalidInputError(f"point sets must share shape, got {x.shape} vs {y.shape}")
    if x.ndim < 2 or 0 in x.shape[-2:]:
        raise InvalidInputError(f"point sets must be non-empty (..., J, D) arrays, got {x.shape}")
    if not (np.isfinite(x).all() and np.isfinite(y).all()):
        raise NumericalError("point sets have non-finite coordinates")
    n = x.shape[-2]
    mu_x = x.mean(axis=-2, keepdims=True)
    mu_y = y.mean(axis=-2, keepdims=True)
    xc = x - mu_x
    yc = y - mu_y
    var_x = (xc ** 2).sum(axis=(-2, -1)) / n
    degenerate = var_x < 1e-18
    cov = np.swapaxes(yc, -1, -2) @ xc / n
    U, d, Vt = np.linalg.svd(cov)
    s = np.ones_like(d)
    s[..., -1] = np.where(np.linalg.det(U) * np.linalg.det(Vt) < 0, -1.0, 1.0)
    Rt = np.swapaxes((U * s[..., None, :]) @ Vt, -1, -2)
    # a degenerate set divides by 1 here and takes the translation below
    c = ((d * s).sum(axis=-1) / np.where(degenerate, 1.0, var_x))[..., None, None]
    aligned = c * x @ Rt + (mu_y - mu_x @ (c * Rt))
    return np.where(degenerate[..., None, None], x - mu_x + mu_y, aligned)


def _aligned_distances(p: np.ndarray, g: np.ndarray, alignment: str,
                       root: int) -> np.ndarray:
    """Per-joint distances of matched (M, J, 3) joint stacks, shape (M, J)."""
    if alignment == "root":
        p = p - p[:, root, None]
        g = g - g[:, root, None]
    elif alignment == "procrustes":
        p = similarity_align(p, g)
    elif alignment != "none":
        raise InvalidInputError(f"unknown alignment {alignment!r}")
    return np.linalg.norm(p - g, axis=-1)


def joint_distances(pred: AbsolutePose, gt: AbsolutePose,
                    alignment: str = "root", root_index: int = 0) -> np.ndarray:
    """Per-joint Euclidean distances under the requested alignment."""
    p, g = pred.joints, gt.joints
    if p.shape != g.shape:
        raise InvalidInputError(f"joint count mismatch: {p.shape} vs {g.shape}")
    return _aligned_distances(p[None], g[None], alignment, root_index)[0]


def mpjpe(pred: AbsolutePose, gt: AbsolutePose, alignment: str = "root",
          root_index: int = 0) -> float:
    """Mean per-joint position error in millimeters.

    alignment "none" scores absolute camera-frame coordinates, "root"
    translates both roots to the origin first, and "procrustes" applies
    the optimal similarity alignment before measuring.
    """
    return float(joint_distances(pred, gt, alignment, root_index).mean())


def _joint_arrays(pred: Scene, gt: Scene) -> tuple[np.ndarray, np.ndarray]:
    check_topologies_match(pred, gt)
    return scene_joint_array(pred), scene_joint_array(gt)


def _match_cost(pred: Scene, gt: Scene, P: np.ndarray, G: np.ndarray,
                cost: str) -> np.ndarray:
    if cost == "root_aligned_3d":
        root = gt.topology.root_index
        a, b = P - P[:, root, None], G - G[:, root, None]
    elif cost == "projected_2d":
        a, b = (np.stack(project_points(s.camera, K), axis=-1) for s, K in ((pred, P), (gt, G)))
    else:
        raise InvalidInputError(f"unknown matching cost {cost!r}")
    return np.linalg.norm(a[:, None] - b[None], axis=-1).mean(axis=-1)


def _augmenting_path(cost: list, u: list, v: list, path: list, row4col: list, i: int):
    """Shortest augmenting path from the free row ``i`` (Crouse 2016,
    Algorithm 1): the sink column, the path length, the shortest reduced
    path cost to every column, and the rows and columns visited. Columns
    are scanned ``nc-1 ... 0`` with swap-removal; at an equal reduced cost
    an unassigned column replaces the current pick."""
    nc = len(v)
    remaining = list(range(nc - 1, -1, -1))
    shortest = [math.inf] * nc
    rows_seen, cols_seen = [], []
    min_val = 0.0
    while True:
        rows_seen.append(i)
        row, ui = cost[i], u[i]
        index, lowest = -1, math.inf
        for it, j in enumerate(remaining):
            s = shortest[j]
            r = min_val + row[j] - ui - v[j]
            if r < s:
                path[j] = i
                shortest[j] = s = r
            if s < lowest:
                lowest, index = s, it
            elif s == lowest and row4col[j] < 0:
                index = it
        min_val = lowest
        j = remaining[index]
        cols_seen.append(j)
        remaining[index] = remaining[-1]
        remaining.pop()
        if row4col[j] < 0:
            return j, min_val, shortest, rows_seen, cols_seen
        i = row4col[j]


def optimal_assignment(cost_matrix: np.ndarray):
    """Row and column indices of the minimum-total-cost one-to-one
    assignment of a (possibly rectangular) 2-D cost matrix.

    The solver is the shortest augmenting path method of Jonker and
    Volgenant (1987) in Crouse's (2016) rectangular form, which scipy's
    ``linear_sum_assignment`` runs, and it returns scipy's result, ties
    included: a tall matrix is solved transposed and its rows returned in
    ascending order, and each search scans the columns from last to first
    and, at an equal reduced cost, takes an unassigned column, so a
    constant matrix gives the identity. A matrix that is not 2-D raises
    InvalidInputError; a non-finite entry raises NumericalError.
    """
    cost = np.asarray(cost_matrix, dtype=float)
    if cost.ndim != 2:
        raise InvalidInputError(f"matching cost must be a 2-D matrix, got shape {cost.shape}")
    if not np.isfinite(cost).all():
        raise NumericalError("matching cost matrix has non-finite entries")
    if cost.size == 0:
        return np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64)
    transpose = cost.shape[1] < cost.shape[0]
    c = (cost.T if transpose else cost).tolist()
    nr, nc = len(c), len(c[0])
    u, v = [0.0] * nr, [0.0] * nc
    path, col4row, row4col = [-1] * nc, [-1] * nr, [-1] * nc
    for cur in range(nr):
        sink, min_val, shortest, rows_seen, cols_seen = _augmenting_path(
            c, u, v, path, row4col, cur)
        u[cur] += min_val
        for i in rows_seen[1:]:
            u[i] += min_val - shortest[col4row[i]]
        for j in cols_seen:
            v[j] -= min_val - shortest[j]
        j = sink
        while True:
            i = path[j]
            row4col[j] = i
            col4row[i], j = j, col4row[i]
            if i == cur:
                break
    if transpose:
        rows, cols = zip(*sorted(zip(col4row, range(nr))))
    else:
        rows, cols = range(nr), col4row
    return np.array(rows, dtype=np.int64), np.array(cols, dtype=np.int64)


def _match(pred: Scene, gt: Scene, P: np.ndarray, G: np.ndarray, cost: str) -> Matching:
    rows, cols = (a.tolist() for a in optimal_assignment(_match_cost(pred, gt, P, G, cost)))
    return Matching(tuple(zip(rows, cols)),
                    tuple(sorted(set(range(len(P))) - set(rows))),
                    tuple(sorted(set(range(len(G))) - set(cols))))


def match_persons(pred: Scene, gt: Scene, cost: str = "root_aligned_3d") -> Matching:
    """Minimum-total-cost one-to-one assignment of predictions to ground truth.

    The assignment is globally optimal, not greedy. Persons left over on
    either side (when counts differ) are reported unmatched.
    """
    return _match(pred, gt, *_joint_arrays(pred, gt), cost)


def _matched_distances(pred: Scene, gt: Scene, alignments, matching: Matching | None):
    """Back-project each scene once, match the persons unless ``matching``
    is given, and return the matching, the (M, J) per-joint distances of
    the matched pairs under each alignment, and both (N, J, 3) arrays."""
    P, G = _joint_arrays(pred, gt)
    if matching is None:
        matching = _match(pred, gt, P, G, "root_aligned_3d")
    idx = np.array(matching.pairs, dtype=int).reshape(-1, 2)
    p, g = P[idx[:, 0]], G[idx[:, 1]]
    root = gt.topology.root_index
    return matching, {a: _aligned_distances(p, g, a, root) for a in alignments}, P, G


def _pck_counts(dists: np.ndarray, matching: Matching, thresholds) -> tuple[np.ndarray, int]:
    """Correct-joint counts at every threshold from one sort of the (M, J)
    matched distances, and the gt joint total they are out of: all joints
    of unmatched gt persons count as wrong. ``side="right"`` counts a
    distance equal to the threshold as correct."""
    t = np.asarray(thresholds, dtype=float).ravel()
    bad = t[~(t > 0)]
    if bad.size:
        raise InvalidInputError(f"threshold must be positive, got {bad[0]}")
    counts = np.searchsorted(np.sort(dists, axis=None), t, side="right")
    return counts, (len(dists) + len(matching.unmatched_gt)) * dists.shape[1]


def pck(pred: Scene, gt: Scene, alignment: str = "root",
        threshold_mm: float = DEFAULT_PCK_THRESHOLD_MM,
        matching: Matching | None = None) -> float:
    """Percentage of ground-truth joints predicted within the threshold.

    A joint exactly at the threshold counts as correct. Every joint of an
    unmatched ground-truth person counts as incorrect.
    """
    matching, dists, _, _ = _matched_distances(pred, gt, [alignment], matching)
    counts, total = _pck_counts(dists[alignment], matching, [threshold_mm])
    return 100.0 * int(counts[0]) / total


def auc(pred: Scene, gt: Scene, alignment: str = "root",
        thresholds_mm: np.ndarray | None = None,
        matching: Matching | None = None) -> float:
    """Mean PCK over a threshold grid (default 1..150 mm, 1 mm step)."""
    if thresholds_mm is None:
        thresholds_mm = DEFAULT_AUC_THRESHOLDS_MM
    matching, dists, _, _ = _matched_distances(pred, gt, [alignment], matching)
    counts, total = _pck_counts(dists[alignment], matching, thresholds_mm)
    return float((100.0 * counts / total).mean())


def _audit(P: np.ndarray, G: np.ndarray, gt: Scene, views,
           config: HmorConfig | None) -> ViolationCounts:
    """:func:`ordinal_violations` of the (M, J, 3) joint arrays of matched
    persons, lifted at scale 1 and in the same order: both are labelled by
    one :class:`LabelledTruth` rule under the views, and a violation is a
    pair whose two labels differ. Scaling them here repeats
    :func:`scene_joint_array`'s own multiply, so no bit moves."""
    cfg = config or HmorConfig()
    scale = cfg.depth_unit_scale
    views = [_view_array(view) for view in views]
    truth, pred = (LabelledTruth(gt, cfg, joints=K * scale).label(views) for K in (G, P))
    return ViolationCounts(*truth.disagreements(pred))


def ordinal_violations(pred: Scene, gt: Scene, views,
                       config: HmorConfig | None = None) -> ViolationCounts:
    """Pairs per relation level whose predicted label differs from the
    ground truth's, summed over the audit views. Scenes must already be
    matched person-for-person (same count, same order). Each scene is
    lifted once and labelled once under every view; no loss is formed."""
    check_matched(pred, gt)
    return _audit(scene_joint_array(pred), scene_joint_array(gt), gt, views, config)


def evaluate(pred: Scene, gt: Scene,
             pck_threshold_mm: float = DEFAULT_PCK_THRESHOLD_MM,
             auc_thresholds_mm: np.ndarray | None = None,
             views=None,
             config: HmorConfig | None = None) -> MetricReport:
    """Full metric report for one scene pair.

    MPJPE-family numbers average over matched persons; PCK-style numbers
    additionally penalize unmatched ground-truth persons. Ordinal
    violations are audited under ``views`` (default: the camera normal).
    """
    thresholds = (DEFAULT_AUC_THRESHOLDS_MM if auc_thresholds_mm is None
                  else np.array(auc_thresholds_mm, dtype=float).ravel())
    # the PCK threshold rides last on the AUC grid: one searchsorted for both
    grid = np.append(thresholds, pck_threshold_mm)
    matching, dists, P, G = _matched_distances(pred, gt, ("root", "procrustes", "none"), None)
    # per person, then over persons: the reduction order of mpjpe()
    per_alignment = {a: float(d.mean(axis=1).mean()) for a, d in dists.items()}
    rel, total = _pck_counts(dists["root"], matching, grid)
    absolute, _ = _pck_counts(dists["none"], matching, grid)

    if views is None:
        views = [gt.camera.normal]
    # the audit pairs persons up in gt order
    order = np.array(sorted(matching.pairs, key=lambda ij: ij[1]), dtype=int)
    violations = _audit(P[order[:, 0]], G[order[:, 1]], gt, views, config)

    return MetricReport(
        mpjpe=per_alignment["root"],
        pa_mpjpe=per_alignment["procrustes"],
        abs_mpjpe=per_alignment["none"],
        pck_rel=100.0 * int(rel[-1]) / total,
        pck_abs=100.0 * int(absolute[-1]) / total,
        auc_rel=float((100.0 * rel[:-1] / total).mean()),
        ordinal_violations=violations,
        matched_pairs=matching.pairs,
        pck_curve=PckCurve(thresholds, rel[:-1], absolute[:-1], total),
    )
