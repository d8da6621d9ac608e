"""Hierarchical ordinal relations between persons, body parts, and joints:
the depth order of whole persons (mean of joints), the turning direction
of bone-vector pairs seen along a view, and the depth order of joints.

Labels are +1/-1/0. A pair's error is zero whenever the prediction orders
it as its label does and grows with the violation margin otherwise, so
the ground truth scores exactly zero. Margins are in scaled units
(default meters, ``HmorConfig.depth_unit_scale``). Two kernels score a
labelled stack through :func:`_score`: :func:`ordinal_pass` from the joints,
:func:`root_pass` from the loss reduced to the root depths (:class:`_RootForm`).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import InvalidDepthError, InvalidInputError
from .geometry import _UNIT_TOL, ViewVector, _as_unit, back_project_points
from .skeleton import Scene, SkeletonTopology


def check_finite_fields(config) -> None:
    """Reject a config dataclass with a non-finite float field."""
    for name, value in vars(config).items():
        if isinstance(value, float) and not math.isfinite(value):
            raise InvalidInputError(f"{name} must be finite, got {value!r}")


@dataclass(frozen=True)
class HmorConfig:
    """Labelling settings and level weights of the ordinal loss.

    depth_unit_scale converts millimeters into the margins' unit (1/1000:
    meters). equality_tolerance widens the band of margins labeled 0.
    part_mode "vector" compares turning directions, "particle" the depths
    of bone midpoints. Every level holds every pair of its entities.
    """

    depth_unit_scale: float = 1e-3
    equality_tolerance: float = 0.0
    w_instance: float = 1.0
    w_part: float = 1.0
    w_joint: float = 1.0
    part_mode: str = "vector"

    def __post_init__(self):
        check_finite_fields(self)
        if self.depth_unit_scale <= 0:
            raise InvalidInputError("depth_unit_scale must be positive")
        if self.equality_tolerance < 0:
            raise InvalidInputError("equality_tolerance must be >= 0")
        if min(self.w_instance, self.w_part, self.w_joint) < 0:
            raise InvalidInputError("level weights must be >= 0")
        if self.part_mode not in ("vector", "particle"):
            raise InvalidInputError(f"unknown part_mode {self.part_mode!r}")


@dataclass(frozen=True)
class RelationPairs:
    """A ground-truth scene's pair sets, labelled under a stack of k views.

    ``views`` is (k, 3) (``view`` is view 0), ``layout`` (:class:`_Layout`)
    the pairs and their labelling settings, ``labels`` the (k, P) int8
    labels of its columns: the stacked depth pairs, then the vector parts.
    """

    views: np.ndarray
    layout: _Layout
    labels: np.ndarray = field(repr=False)

    view = property(lambda self: self.views[0])

    @functools.cached_property
    def _entries(self) -> tuple[np.ndarray, np.ndarray]:
        """Each flat entry's ``|label|`` and column (:func:`_score`)."""
        k, P = self.labels.shape
        return np.abs(self.labels).ravel(), np.tile(np.arange(P), k)

    def disagreements(self, other: RelationPairs) -> tuple[int, int, int]:
        """Per level (instance, part, joint), the labels of ``other``, a
        pair set of the same layout and view count, that differ from
        these, summed over every view."""
        if other.layout is not self.layout or other.labels.shape != self.labels.shape:
            raise InvalidInputError("the pair sets differ in their pairs or views")
        differ, counts = self.labels != other.labels, [0, 0, 0]
        for level, columns in self.layout.segments:
            counts[level] = int(np.count_nonzero(differ[:, columns]))
        return tuple(counts)

    def check_fits(self, scene: Scene) -> None:
        """Raise InvalidInputError unless the pairs hold a view and ``scene``
        has the persons, and the parts and joints per person, the pairs
        were enumerated for."""
        if not len(self.views):
            raise InvalidInputError("the pair set holds no views")
        S, J = self.layout.per_person
        topology = scene.topology
        if (topology.part_count, topology.joint_count) != (S, J):
            raise InvalidInputError(
                f"topology mismatch: the scene has {topology.part_count} parts and "
                f"{topology.joint_count} joints per person, the pairs were enumerated "
                f"for {S} and {J}")
        if scene.person_count != self.layout.person_count:
            raise InvalidInputError(
                f"person count mismatch: the scene has {scene.person_count} persons, "
                f"the pairs were enumerated for {self.layout.person_count}")


def _check_pair_set(value, name: str) -> None:
    """Raise InvalidInputError unless the argument ``name`` is a RelationPairs."""
    if not isinstance(value, RelationPairs):
        raise InvalidInputError(f"{name} must be a RelationPairs, got {type(value).__name__}")


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
    """``view`` as a finite unit 3-vector (InvalidInputError otherwise)."""
    return view.direction if isinstance(view, ViewVector) else _as_unit(view, "view")


def _threshold_label(margin, eps: float):
    """int8 +1 for margin < -eps, -1 for margin > eps, 0 inside the band."""
    m = np.asarray(margin)
    return np.subtract(m < -eps, m > eps, dtype=np.int8)


# ---------------------------------------------------------------------------
# scene-level enumeration and loss

def scene_joint_array(scene: Scene, scale: float = 1.0) -> np.ndarray:
    """Absolute joints of every person as one (N, J, 3) array times scale,
    with per-person back-projection's arithmetic."""
    rel = np.stack([p.rel_pose.joints for p in scene.persons])
    u_top = np.array([p.box.u_top for p in scene.persons])[:, None]
    v_top = np.array([p.box.v_top for p in scene.persons])[:, None]
    z_root = np.array([p.root_depth for p in scene.persons])[:, None]
    d = rel[:, :, 2] + z_root
    if np.any(d <= 0):
        raise InvalidDepthError("scene contains non-positive joint depths")
    K, _, _ = back_project_points(scene.camera, rel[:, :, 0] + u_top, rel[:, :, 1] + v_top, d)
    if scale != 1.0:
        K *= scale
    return K


@functools.lru_cache(maxsize=64)
def _entity_map(topology: SkeletonTopology, part_mode: str) -> np.ndarray:
    """(1 + S + J, J) matrix E: ``E @ K`` maps a person's (J, 3) joints to
    its position (row 0), its part points (bone vectors end - start, or
    midpoints under "particle" parts) and its joints (the identity)."""
    S, J = topology.part_count, topology.joint_count
    starts, ends = np.asarray(topology.parts, dtype=int).reshape(-1, 2).T
    E = np.vstack([np.full((1, J), 1.0 / J), np.zeros((S, J)), np.eye(J)])
    parts = np.arange(1, 1 + S)
    E[parts, ends], E[parts, starts] = (0.5, 0.5) if part_mode == "particle" else (1.0, -1.0)
    E.setflags(write=False)  # cached, shared between callers
    return E


# the HmorConfig fields labels are thresholded under, which a _Layout records
_LABEL_SETTINGS = ("part_mode", "equality_tolerance", "depth_unit_scale")


class _Layout:
    """A pair set in the stacked form the kernels read: its only stored form.

    Entity ``m * width + row`` is row ``row`` of person m's ``E @ K``
    points (:func:`_entity_map`, width ``1 + S + J``). The columns of a
    pair set are the ``depth`` depth pairs (instance, joint, and part under
    particle parts) in level order, one (2, depth) ``pairs`` index, then
    the vector parts, ``flat`` indexing their flattened (n, n) product
    (None under particle parts); ``segments`` holds each level's (level,
    column slice). The ``_LABEL_SETTINGS`` attributes are the labelling
    settings.
    """

    def __init__(self, index, per_person: tuple[int, int], person_count: int, settings):
        self.per_person, self.person_count = per_person, person_count
        self.part_mode, self.equality_tolerance, self.depth_unit_scale = settings
        S, J = per_person
        self.width = 1 + S + J  # entity rows per person
        vector_parts = self.part_mode == "vector"
        self.sizes = tuple(level.shape[1] for level in index)
        self.segments, ids, p = [], [], 0
        for level in (0, 2) if vector_parts else (0, 1, 2):
            per, row = ((1, 0), (S, 1), (J, 1 + S))[level]
            self.segments.append((level, slice(p, p + self.sizes[level])))
            p += self.sizes[level]
            m, r = np.divmod(index[level], per)
            ids.append(m * self.width + r + row)
        self.depth = p
        if vector_parts:
            self.segments.append((1, slice(p, p + self.sizes[1])))
        self.divisors = np.array([[max(n, 1)] for n in self.sizes], dtype=float)  # per level
        # pairs and flat stay writeable although cached: ``take`` copies a
        # read-only index array on every call
        self.pairs = np.concatenate(ids, axis=1)
        a, b = index[1]
        self.flat = a * (person_count * S) + b if vector_parts else None

    def check_labels(self, config: HmorConfig) -> None:
        """Raise InvalidInputError unless ``config`` labels as these pairs were."""
        for name in _LABEL_SETTINGS:
            if (theirs := getattr(config, name)) != (mine := getattr(self, name)):
                raise InvalidInputError(f"{name} mismatch: the config has {theirs!r}, "
                                        f"the pairs were labelled with {mine!r}")

    def __repr__(self) -> str:
        return (f"_Layout(pairs={self.sizes}, N={self.person_count}, (S, J)={self.per_person}, "
                + ", ".join(f"{name}={getattr(self, name)!r}" for name in _LABEL_SETTINGS) + ")")


@functools.lru_cache(maxsize=32)
def _full_layout(N: int, S: int, J: int, settings: tuple) -> _Layout:
    """The cached layout of every pair a < b of the N persons, N * S parts
    and N * J joints of a scene, labelled under ``settings``."""
    index = tuple(np.stack(np.triu_indices(n, k=1)) for n in (N, N * S, N * J))
    return _Layout(index, (S, J), N, settings)


def _project(X: np.ndarray, views: np.ndarray) -> np.ndarray:
    """(k, n) projections of (n, 3) points on (k, 3) views, written out so
    a view's row has the same bits in any stack (a matmul's do not)."""
    return views[:, :1] * X[:, 0] + views[:, 1:2] * X[:, 1] + views[:, 2:] * X[:, 2]


def _cross_views(T: np.ndarray, views: np.ndarray) -> np.ndarray:
    """(k, n, 3) cross products ``t x v`` of (n, 3) vectors and (k, 3) views."""
    x, y, z = T.T
    vx, vy, vz = views.T[:, :, None]
    return np.stack([y * vz - z * vy, z * vx - x * vz, x * vy - y * vx], axis=-1)


def _margins(X: np.ndarray, views: np.ndarray, layout: _Layout):
    """Raw (k, P) margins of ``layout``'s columns under (k, 3) views, from
    a scene's (N, 1 + S + J, 3) entity points ``X``: ``z_a - z_b`` of the
    projections ``z`` (one scalar per entity and view) for a depth pair,
    then ``t_a . (t_b x v)`` of the part rows ``T`` for a vector part,
    read from ``T @ C_v.T`` with ``C = T x v``. Also returns C (None under
    particle parts). One view at a time: a (k, n, n) stack soon passes
    glibc's 128 KiB mmap threshold, and every call would pay for fresh pages."""
    z = _project(X.reshape(-1, 3), views)
    D = layout.depth
    margins = np.empty((len(views), sum(layout.sizes)))
    depth = margins[:, :D]  # written in place: a temporary would fault in again on each call
    z.take(layout.pairs[0], axis=1, out=depth, mode="clip")
    depth -= z.take(layout.pairs[1], axis=1)
    if layout.flat is None:
        return margins, None
    T = X[:, 1:1 + layout.per_person[0]].reshape(-1, 3)
    C = _cross_views(T, views)
    for row, Cv in zip(margins[:, D:], C):
        # the index is in range; mode="raise" would buffer ``out``
        (T @ Cv.T).take(layout.flat, out=row, mode="clip")
    return margins, C


def _view_stack(views) -> np.ndarray:
    """``views`` as a (k, 3) float stack of finite unit vectors (one
    3-vector or :class:`ViewVector` is a stack of one); InvalidInputError
    otherwise."""
    if isinstance(views, ViewVector):
        views = views.direction
    elif isinstance(views, (list, tuple)):
        views = [v.direction if isinstance(v, ViewVector) else v for v in views]
    try:
        views = np.asarray(views, dtype=float)
        if views.ndim > 2 or views.shape[-1:] != (3,) and views.shape != (0,):
            raise ValueError
    except (TypeError, ValueError):  # a ragged stack raises ValueError too
        raise InvalidInputError("views must be one 3-vector or a (k, 3) stack of them") from None
    views = views.reshape(-1, 3)
    bad = ~(np.abs(np.linalg.norm(views, axis=1) - 1.0) <= _UNIT_TOL)  # _as_unit's rule
    if bad.any():
        raise InvalidInputError(f"view must be a finite unit vector, got {views[bad][0]}")
    return views


class LabelledTruth:
    """A ground truth's pair sets, enumerated once (one cached
    :class:`_Layout`) and labelled under any views from its points ``E @
    K``, as the kernels map a prediction: the truth scores exactly zero.
    ``joints`` replaces the scene's :func:`scene_joint_array`, if given."""

    def __init__(self, gt_scene: Scene, config: HmorConfig | None = None, *,
                 joints: np.ndarray | None = None):
        cfg = config or HmorConfig()
        K = scene_joint_array(gt_scene, cfg.depth_unit_scale) if joints is None else joints
        N, J, _ = K.shape
        settings = tuple(getattr(cfg, name) for name in _LABEL_SETTINGS)
        self.layout = _full_layout(N, gt_scene.topology.part_count, J, settings)
        self.points = _entity_map(gt_scene.topology, cfg.part_mode) @ K

    def margins(self, views: np.ndarray) -> np.ndarray:
        """The raw (k, P) margins of the points under a (k, 3) stack of
        unit ``views``, depth then vector-part columns (:func:`_margins`)."""
        return _margins(self.points, views, self.layout)[0]

    def label(self, views) -> RelationPairs:
        """Label the (k, 3) ``views`` (finite unit vectors)."""
        views = _view_stack(views)
        return RelationPairs(views, self.layout,
                             _threshold_label(self.margins(views), self.layout.equality_tolerance))


def enumerate_pairs(gt_scene: Scene, view, config: HmorConfig | None = None) -> RelationPairs:
    """Enumerate all relation pairs of a scene, within and across persons,
    and label them from the ground truth under ``view``."""
    return LabelledTruth(gt_scene, config).label(_view_array(view))


def _signs(labels: np.ndarray) -> np.ndarray:
    """Float +-1 of int8 labels, +1 for a label 0 (:func:`_score`): a float
    multiply by them is about twice as fast as one that casts int8 labels."""
    return (labels | 1).astype(float)


def _edges(layout: _Layout) -> list:
    """The starts and stops of ``layout``'s segments, interleaved."""
    return [end for _, columns in layout.segments for end in (columns.start, columns.stop)]


def _score(signed: np.ndarray, sizes: np.ndarray, layout: _Layout, columns: np.ndarray, scale,
           levels: np.ndarray, counts: np.ndarray, errors: np.ndarray, active: tuple | None = None):
    """Every ordinal kernel's one step from margins, each times its
    label's sign (:func:`_signs`), to losses, over the 1-D ``signed``
    margins of entries of a (k, P) stack of ``layout``'s columns, with
    their ``sizes`` (``|label|``) and ``columns``: every entry (``signed``
    is ``errors.ravel()``), or the ``active`` flat indices, ascending,
    with the :func:`_edges` of view 0's entries in them. Sets view 0's
    counts per level (a signed margin thresholds against its size under
    the layout's tolerance) and each segment's per-view mean error,
    ``errors`` (k, P) taking at the entries ``log1p(m)`` for a violated
    (``m > 0``) depth pair (the first ``layout.depth`` columns), ``m`` for
    a part pair, 0 for a label 0, NaN for NaN; elsewhere it must read
    +0.0, as an unviolated entry that agrees with its label would.
    Returns the violated entries' positions in ``signed``, their columns
    and their weights w.r.t. ``m``, ``|label| * scale[column]`` (over ``1
    + m`` for a depth pair, ``scale`` from :func:`_column_scale`); None
    when ``scale`` is. With ``levels`` None it sets the counts alone."""
    index, edges = active or (None, _edges(layout))
    differ = (_threshold_label(signed[:edges[-1]], layout.equality_tolerance)
              != sizes[:edges[-1]])
    for (level, _), start, stop in zip(layout.segments, edges[::2], edges[1::2]):
        counts[level] = np.count_nonzero(differ[start:stop])
    if levels is None:
        return None
    hit = (signed > 0.0).nonzero()[0]  # violated, in flat order
    margin = signed.take(hit)
    # max(0, m) in place: +0.0 but at the violated entries, NaN at a NaN margin
    np.maximum(0.0, signed, out=signed)
    size = sizes.take(hit)  # 0 for a label-0 pair: no error, no weight
    pair = columns.take(hit)
    logged = True if layout.depth >= errors.shape[1] else pair < layout.depth
    hits = None
    if scale is not None:
        w = size / np.where(logged, 1.0 + margin, 1.0)
        w *= scale.take(pair)
        hits = hit, pair, w
    if layout.depth:
        margin = np.where(logged, np.log1p(margin), margin)
    if not size.all():
        margin *= size
    signed.put(hit, margin)
    if index is not None:
        errors.put(index, signed)
    for level, span in layout.segments:
        np.add.reduce(errors[:, span], axis=1, out=levels[level])
    levels /= layout.divisors
    return hits


@functools.lru_cache(maxsize=32)
def _column_scale(layout: _Layout, cfg: HmorConfig) -> np.ndarray:
    """Each of ``layout``'s columns' ``w_level / P_level``, cached."""
    weights = (cfg.w_instance, cfg.w_part, cfg.w_joint)
    sizes = [layout.sizes[level] for level, _ in layout.segments]
    scale = np.repeat([weights[level] / max(n, 1) for (level, _), n in zip(layout.segments, sizes)],
                      sizes)
    scale.setflags(write=False)  # shared between callers
    return scale


def _weighted(levels: np.ndarray, cfg: HmorConfig) -> np.ndarray:
    """(k,) weighted totals of (3, k) per-level mean errors."""
    return cfg.w_instance * levels[0] + cfg.w_part * levels[1] + cfg.w_joint * levels[2]


def ordinal_pass(K: np.ndarray, topology: SkeletonTopology, labelled: RelationPairs,
                 config: HmorConfig | None = None, want_grad: bool = True, counts_only=False):
    """The entity-map kernel: the (k,) weighted totals, (3, k) per-level
    mean errors, view 0's (3,) counts (zeros with no view) and the
    gradient of ``totals.sum()`` w.r.t. the (N, J, 3) scaled joints ``K``
    (None without want_grad), from the points ``X = E @ K`` and
    :func:`_score`; with ``counts_only`` the counts alone (None, None,
    counts, None). A violated depth pair (a, b) weighs ``W = label / (1 +
    m) * w_level / P_level`` at ``g[v, a]`` and ``-W`` at ``g[v, b]``, ``dX
    = g.T @ V``; a vector part pair weighs ``W = label * w_part / P``:
    ``W * C_v[b]`` at part row a, ``-W * C_v[a]`` at b (``C_v = T x v``).
    ``dK = E.T @ dX``; a NaN margin errs by NaN and moves no gradient.
    """
    _check_pair_set(labelled, "labelled")
    cfg = config or HmorConfig()
    V = labelled.views
    layout = labelled.layout
    layout.check_labels(cfg)
    E = _entity_map(topology, cfg.part_mode)
    X = E @ K
    want_grad = want_grad and not counts_only
    levels = None if counts_only else np.zeros((3, len(V)))
    violations = np.zeros((3, min(len(V), 1)), dtype=int)  # view 0's

    # signed margins, then errors, in place (no (k, P) temporary)
    margins, C = _margins(X, V, layout)
    labels = labelled.labels
    margins *= _signs(labels)
    sizes, columns = labelled._entries
    hits = _score(margins.ravel(), sizes, layout, columns,
                  _column_scale(layout, cfg) if want_grad else None, levels, violations, margins)
    if want_grad:
        flat, pair, W = hits
        row = flat // margins.shape[1]  # the view
        W *= labels.take(flat)  # the weight of the raw margin
        part = pair >= layout.depth  # the hits split, each in its flat order
        depth = ~part
        Wd = W[depth]
        n = len(X) * layout.width
        a, b = row[depth] * n + layout.pairs.take(pair[depth], axis=1)  # (view, entity) ids
        g = np.bincount(a, Wd, len(V) * n) - np.bincount(b, Wd, len(V) * n)
        dX = (g.reshape(-1, n).T @ V).reshape(X.shape)

        if C is not None and cfg.w_part > 0:
            S = layout.per_person[0]
            n = len(X) * S
            W, row = W[part], row[part]
            b = layout.flat.take(pair[part] - layout.depth)
            a = b // n
            b -= a * n
            row *= n  # C's (k * n, 3) form: end a gets W * C_v[b], end b -W * C_v[a]
            ends, other = np.concatenate([a, b]), np.concatenate([row + b, row + a])
            W = np.concatenate([W, -W])
            # one bincount over the (end, component) cells of dT, each summed
            # in the order of ``ends``
            cells = (ends * 3)[:, None] + np.arange(3)
            dT = np.bincount(cells.ravel(), (W[:, None] * C.reshape(-1, 3).take(other, axis=0))
                             .ravel(), 3 * n)
            dX[:, 1:1 + S] += dT.reshape(len(X), S, 3)  # the part rows

    dK = E.T @ dX if want_grad else None
    totals = None if counts_only else _weighted(levels, cfg)
    return totals, levels, violations.sum(axis=1), dK  # one column, or zeros


@functools.lru_cache(maxsize=32)
def _root_columns(layout: _Layout):
    """:class:`_RootForm`'s (2, P) persons of ``layout``'s depth and then
    vector part pairs, and its (4, P_part) index of their coefficients in
    a flattened (2n, 2n) product (None under particle parts). Cached apart
    from the layout, which labelling alone keeps."""
    persons = layout.pairs // layout.width
    if layout.flat is None:
        return persons, None
    n = layout.person_count * layout.per_person[0]
    a, b = np.divmod(layout.flat, n)
    at = a * (2 * n) + b
    return (np.concatenate([persons, np.stack([a, b]) // layout.per_person[0]], axis=1),
            np.stack([at, at + 2 * n * n, at + n, at + 2 * n * n + n]))


class _RootForm:
    """The ordinal loss reduced to N root depths, built once per stack.
    Joints are ``K0 + e * dx[person]`` (``e = (a, b, 1)``), so a depth
    margin is ``M0 + CA * da + CB * db`` (da, db: its persons' offsets)
    and a vector-part margin ``Q0 + Qa * da + Qb * db + Qab * da * db``,
    from one product per view of ``[T0; Ht] @ [T0 x v; Ht x v].T`` (``H =
    E @ e``). The columns are the pair set's (:class:`_Layout`), depth
    then vector parts, each (k, P) and signed by ``labels``, the pair
    set's own stack (:func:`_signs`): ``M0`` is M0 | Q0, ``A`` CA | Qa,
    ``B`` CB | Qb, ``Qab`` 0 | Qab. An entry's ``slack`` is how far its
    signed margin lies below ``-eps``; below its ``radius`` in
    ``max|dx|`` the signed margin stays under ``-eps``: it is unviolated,
    agrees with its label and errs by +0.0, as ``errors`` reads off the
    active set (:meth:`select`). The radii are computed at the first
    selection past reach 0. ``margins`` and ``product`` are an
    evaluation's buffers."""

    def __init__(self, K0: np.ndarray, e: np.ndarray, topology: SkeletonTopology,
                 labelled: RelationPairs, config: HmorConfig):
        layout = labelled.layout
        layout.check_labels(config)
        self.K0, self.e, self.labelled, self.config = K0, e, labelled, config
        X = _entity_map(topology, config.part_mode) @ np.stack([K0, e])  # [X0, H]
        V = labelled.views
        self.labels = labelled.labels
        k, P = self.labels.shape
        D = layout.depth
        self.persons, blocks = _root_columns(layout)
        # one block past glibc's 128 KiB mmap threshold: freeing it raises that
        # and the trim threshold, so a later run reuses heap pages where
        # separate arrays are trimmed off the heap and faulted in again
        block = np.empty((9, k, P))  # M0, A, B, Qab (vector parts), slack, radius, errors, buffers
        self.M0, self.A, self.B, _, self.slack, self._radius, self.errors = block[:7]
        self.margins, self.product = block[7:].reshape(2, -1)
        self.coefficients = block[:3 + (P > D)].reshape(3 + (P > D), -1)
        # both projections in one, rows z0 and zh per view, as _margins projects
        z = _project(X.reshape(-1, 3), V).reshape(2 * k, -1)
        a, b = (z.take(ends, axis=1) for ends in layout.pairs)
        np.subtract(a[::2], b[::2], out=self.M0[:, :D])
        self.A[:, :D] = a[1::2]
        np.negative(b[1::2], out=self.B[:, :D])
        if P > D:  # vector parts
            self.Qab = block[3]
            self.Qab[:, :D] = 0.0  # a depth pair's
            S = layout.per_person[0]
            T = X[:, :, 1:1 + S].reshape(-1, 3)  # [T0; Ht]
            for row, Cv in enumerate(_cross_views(T, V)):
                (self.M0[row, D:], self.A[row, D:], self.B[row, D:],
                 self.Qab[row, D:]) = (T @ Cv.T).take(blocks)
        self.scale = _column_scale(layout, config)
        self.coefficients *= _signs(self.labels).ravel()
        # the slack: -eps - M0 less 1e-12 of |M0| + eps, past the rounding of
        # margin and radius; 0 for a label 0, and 0, negative or NaN for a margin
        # at or past the band. In place: (k, P) temporaries would fault in again
        np.multiply(self.M0, 1e-12 - 1.0, out=self.slack)  # where M0 < 0
        self.slack -= config.equality_tolerance * (1.0 + 1e-12)
        self.slack[self.labels == 0] = 0.0
        # every coefficient finite, as products of entity points within 1e100
        self.bounded = bool(np.abs(X).max() <= 1e100)
        self.errors.fill(0.0)
        self.reach = -1.0  # nothing selected yet

    @functools.cached_property
    def radius(self) -> np.ndarray:
        """Each entry's radius, computed in place in the block at the first
        read: ``|A * da + B * db + Qab * da * db| <= L * r + Q * r * r`` at
        ``max|dx| = r`` (``L = |A| + |B|``, ``Q = |Qab|``), so it is the
        root of ``L * r + Q * r * r = slack``; 0, negative or NaN where the
        slack is."""
        slack, radius = self.slack, self._radius
        L, t = (buffer.reshape(slack.shape) for buffer in (self.product, self.margins))
        np.abs(self.A, out=L)
        L += np.abs(self.B, out=t)
        with np.errstate(divide="ignore", invalid="ignore"):  # inf: a margin no dx moves
            if len(self.coefficients) > 3:  # 2 * slack / (L + sqrt(L * L + 4 * Q * slack))
                np.multiply(np.abs(self.Qab, out=radius), slack, out=radius)
                np.multiply(L, L, out=t)
                t += np.multiply(radius, 4.0, out=radius)
                np.sqrt(t, out=t)
                t += L
                np.divide(slack, t, out=radius)
                radius *= 2.0
            else:
                np.divide(slack, L, out=radius)
        return radius

    def select(self, reach: float) -> None:
        """Make the entries of radius up to ``reach`` active: ``active`` is
        their flat indices with view 0's segment edges in them (:func:`_score`),
        ``gathered``, ``ends``, ``columns`` and ``sizes`` their coefficients,
        persons, columns and ``|label|``. At reach 0 with bounded
        coefficients the entries of positive slack stay inactive, radii or
        not: at ``dx = 0`` each reads its margin ``M0 < -eps``."""
        self.reach = reach
        if reach > 0.0 or not self.bounded:
            active = np.flatnonzero(~(self.radius > reach))  # NaN too
        else:
            active = np.flatnonzero(~(self.slack > 0.0))
        self.active = active, active.searchsorted(_edges(self.labelled.layout)).tolist()
        P = self.labels.shape[1]
        self.columns = active - active // P * P
        self.sizes = np.abs(self.labels.take(active))
        self.ends = self.persons.take(self.columns, axis=1)
        self.gathered = self.coefficients.take(active, axis=1)


def root_pass(form: _RootForm, dx: np.ndarray, want_grad: bool = True, counts_only=False):
    """:func:`ordinal_pass` at root offsets ``dx`` (N,) from the reduced
    form, with the (N,) gradient w.r.t. ``dx``: a violated pair's weight
    reaches its persons through ``CA``, ``CB`` or ``Qa + Qab * db``, ``Qb
    + Qab * da``, one ``bincount`` per end, all read from the active set
    at the hits. It scores the active entries, reselected for four times a
    ``max|dx|`` past ``form.reach`` (all at a NaN, an inf or a square past
    float range, as ``0 * inf`` is NaN), with the bits of a pass over
    every entry; ``counts_only`` as in :func:`ordinal_pass`."""
    cfg = form.config
    k = len(form.labels)
    r = np.maximum.reduce(np.abs(dx))
    if not r <= form.reach:
        form.select(4.0 * r if r < 1e150 else np.inf)
    M0, A, B, *Qab = form.gathered
    n = len(M0)
    da, db = moved = dx.take(form.ends)
    margins, product = form.margins[:n], form.product[:n]
    np.multiply(A, da, out=margins)
    margins += np.multiply(B, db, out=product)
    margins += M0
    if Qab:
        margins += np.multiply(Qab[0], da * db, out=product)
    want_grad = want_grad and not counts_only
    levels = None if counts_only else np.zeros((3, k))
    violations = np.zeros(3, dtype=int)  # view 0's
    hits = _score(margins, form.sizes, form.labelled.layout, form.columns,
                  form.scale if want_grad else None, levels, violations, form.errors, form.active)
    g = None
    if want_grad:
        hit, _, w = hits
        ga, gb, *at = form.gathered[1:].take(hit, axis=1)  # A, B and Qab at the hits
        pa, pb = form.ends.take(hit, axis=1)
        if Qab:
            da, db = moved.take(hit, axis=1)
            ga += at[0] * db
            gb += at[0] * da
        g = np.zeros(len(dx))  # += also takes an empty bincount's int zeros
        g += np.bincount(pa, w * ga, len(dx))
        g += np.bincount(pb, w * gb, len(dx))
    return None if counts_only else _weighted(levels, cfg), levels, violations, g


def hmor_loss(pred_scene: Scene, pairs: RelationPairs, view=None,
              config: HmorConfig | None = None) -> HmorLoss:
    """The hierarchical ordinal loss of a predicted scene under the first
    view of ``pairs``: the weighted sum of the per-level mean errors (0 for
    a level with no pairs)."""
    _check_pair_set(pairs, "pairs")
    cfg = config or HmorConfig()
    pairs.check_fits(pred_scene)
    if view is not None and not np.array_equal(_view_array(view), pairs.view):
        raise InvalidInputError("view does not match the view the pairs were labeled under")
    K = scene_joint_array(pred_scene, cfg.depth_unit_scale)
    totals, levels, violations, _ = ordinal_pass(K, pred_scene.topology, pairs, cfg,
                                                 want_grad=False)
    return HmorLoss(float(totals[0]), *(float(x) for x in levels[:, 0]),
                    tuple(violations.tolist()))


def part_relations_from_2d(gt_pixels: Sequence[np.ndarray],
                           topology: SkeletonTopology,
                           eps: float = 0.0) -> np.ndarray:
    """Part-pair labels from 2D keypoints alone: each pixel-space bone (du,
    dv) lifts to (du, dv, 0) and the turning-direction rule is applied
    with the view (0, 0, 1). Rows are (m1, s1, m2, s2, label). At least
    one person's finite keypoints and a finite ``eps >= 0`` are required.
    """
    if not 0.0 <= eps < math.inf:  # HmorConfig.equality_tolerance's rule
        raise InvalidInputError(f"eps must be finite and >= 0, got {eps!r}")
    try:
        stacked = np.stack([np.asarray(p, dtype=float) for p in gt_pixels])
    except ValueError:  # no persons, or persons of different shapes
        raise InvalidInputError("expected one (J, 2) keypoint array per person") from None
    if stacked.ndim != 3 or stacked.shape[2] != 2:
        raise InvalidInputError(f"expected per-person (J, 2) keypoints, got {stacked.shape}")
    if stacked.shape[1] != topology.joint_count:
        raise InvalidInputError(
            f"keypoints have {stacked.shape[1]} joints, topology expects {topology.joint_count}")
    if not np.isfinite(stacked).all():
        raise InvalidInputError("keypoints must be finite")
    starts, ends = np.asarray(topology.parts, dtype=int).reshape(-1, 2).T
    N = stacked.shape[0]
    S = topology.part_count
    T = (stacked[:, ends] - stacked[:, starts]).reshape(-1, 2)
    a, b = np.triu_indices(N * S, k=1)
    cross = T[a, 0] * T[b, 1] - T[a, 1] * T[b, 0]
    labels = _threshold_label(cross, eps).astype(int)
    return np.column_stack([a // S, a % S, b // S, b % S, labels])
