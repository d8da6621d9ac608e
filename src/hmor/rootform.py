"""The ordinal term reduced to the root depths, for a prediction whose
root depths alone move (``root_depths_only``).

Imported only where :mod:`hmor.solver` builds one, so a process that
never refines under ``root_depths_only`` does not load it.
"""

from __future__ import annotations

import functools

import numpy as np

from .ordinal import (_LABEL_SETTINGS, HmorConfig, RelationPairs, _column_scale, _cross_views,
                      _edges, _entity_map, _full_layout, _project, _score, _signs, _weighted)
from .skeleton import SkeletonTopology


@functools.lru_cache(maxsize=32)
def _root_columns(layout_key: tuple):
    """:class:`_RootForm`'s (2, P) persons of a layout's depth and then
    vector part pairs, and its (4, P_part) index of their coefficients in
    a flattened (2n, 2n) product (None under particle parts). Cached apart
    from the layout, which labelling alone keeps."""
    layout = _full_layout(*layout_key)
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
    E @ e``). Depth then part columns, each (k, P) and label-signed
    (:func:`_signs`): ``M0`` is M0 | Q0, ``A`` CA | Qa, ``B`` CB | Qb,
    ``Qab`` 0 | Qab. Below an entry's ``radius`` in ``max|dx|`` its signed
    margin stays under ``-eps``: it is unviolated, agrees with its label
    and errs by +0.0, as ``errors`` reads off the active set (:meth:`select`).
    ``margins`` and ``product`` are an evaluation's buffers."""

    def __init__(self, K0: np.ndarray, e: np.ndarray, topology: SkeletonTopology,
                 labelled: RelationPairs, config: HmorConfig):
        layout = labelled.layout
        layout.check_labels(config)
        self.K0, self.e, self.labelled, self.config = K0, e, labelled, config
        X = _entity_map(topology, config.part_mode) @ np.stack([K0, e])  # [X0, H]
        V = labelled.views
        self.labels = np.concatenate([labelled.depth_labels, labelled.part_labels], axis=1)
        k, P = self.labels.shape
        self.depth = D = layout.pairs.shape[1]  # the depth pairs' columns
        self.persons, blocks = _root_columns(
            (layout.person_count, *layout.per_person,
             tuple(getattr(layout, name) for name in _LABEL_SETTINGS)))
        self.segments = list(layout.segments)
        # one block past glibc's 128 KiB mmap threshold: freeing it raises that
        # and the trim threshold, so a later run reuses heap pages where
        # separate arrays are trimmed off the heap and faulted in again
        block = np.empty((8, k, P))  # M0, A, B, Qab (vector parts), radius, errors, buffers
        self.M0, self.A, self.B, _, self.radius, self.errors = block[:6]
        self.margins, self.product = block[6:].reshape(2, -1)
        self.coefficients = block[:3 + (P > D)].reshape(3 + (P > D), -1)
        # both projections in one, rows z0 and zh per view, as _depth_margins projects
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
            self.segments.append((1, slice(D, P)))
        self.scale = _column_scale(self.segments, (config.w_instance, config.w_part,
                                                   config.w_joint))
        self.coefficients *= _signs(self.labels).ravel()
        # |A * da + B * db + Qab * da * db| <= L * r + Q * r * r at max|dx| = r
        # (L = |A| + |B|, Q = |Qab|): the radius is the root of L * r + Q * r * r
        # = -eps - M0 less 1e-12 of |M0| + eps, past the rounding of margin and
        # root; 0, negative or NaN for a label 0 or a margin at or past the band.
        # In place: (k, P) temporaries would fault in again on every run
        slack, L, t, radius = block[6], block[7], self.errors, self.radius
        np.multiply(self.M0, 1e-12 - 1.0, out=slack)  # where M0 < 0
        slack -= config.equality_tolerance * (1.0 + 1e-12)
        slack[self.labels == 0] = 0.0
        np.abs(self.A, out=L)
        L += np.abs(self.B, out=t)
        with np.errstate(divide="ignore", invalid="ignore"):  # inf: a margin no dx moves
            if P > D:  # 2 * slack / (L + sqrt(L * L + 4 * Q * slack)), Q = 0 for depth
                np.multiply(np.abs(self.Qab, out=radius), slack, out=radius)
                np.multiply(L, L, out=t)
                t += np.multiply(radius, 4.0, out=radius)
                np.sqrt(t, out=t)
                t += L
                np.divide(slack, t, out=radius)
                radius *= 2.0
            else:
                np.divide(slack, L, out=radius)
        self.errors.fill(0.0)
        self.reach = -1.0  # nothing selected yet

    def select(self, reach: float) -> None:
        """Make the entries of radius up to ``reach`` active: ``active`` is
        their flat indices with view 0's segment edges in them (:func:`_score`),
        ``gathered``, ``active_labels`` and ``ends`` their coefficients,
        labels and persons."""
        self.reach = reach
        active = np.flatnonzero(~(self.radius > reach))  # NaN too
        self.active = active, active.searchsorted(_edges(self.segments)).tolist()
        P = self.labels.shape[1]
        self.ends = self.persons.take(active - active // P * P, axis=1)
        self.gathered = self.coefficients.take(active, axis=1)
        self.active_labels = self.labels.take(active)

    def __call__(self, dx: np.ndarray, want_grad: bool = True, counts_only=False):
        """:func:`root_pass` at ``dx``."""
        return root_pass(self, dx, want_grad, counts_only)


def root_pass(form: _RootForm, dx: np.ndarray, want_grad: bool = True, counts_only=False):
    """:func:`ordinal_pass` at root offsets ``dx`` (N,) from the reduced
    form, with the (N,) gradient w.r.t. ``dx``: a violated pair's weight
    reaches its persons through ``CA``, ``CB`` or ``Qa + Qab * db``, ``Qb
    + Qab * da``, one ``bincount`` per end. It scores the active entries,
    reselected for twice a ``max|dx|`` past ``form.reach`` (all at a NaN, an
    inf or a square past float range, as ``0 * inf`` is NaN), with the bits
    of a pass over every entry; ``counts_only`` as in :func:`ordinal_pass`."""
    cfg = form.config
    k = len(form.labels)
    r = np.abs(dx).max()
    if not r <= form.reach:
        form.select(2.0 * r if r < 1e150 else np.inf)
    M0, A, B, *Qab = form.gathered
    n = len(M0)
    da, db = dx.take(form.ends)
    margins, product = form.margins[:n], form.product[:n]
    np.multiply(A, da, out=margins)
    margins += np.multiply(B, db, out=product)
    margins += M0
    if Qab:
        margins += np.multiply(Qab[0], da * db, out=product)
    want_grad = want_grad and not counts_only
    levels = None if counts_only else np.zeros((3, k))
    violations = np.zeros((3, min(k, 1)), dtype=int)  # view 0's
    hits = _score(margins, form.active_labels, cfg.equality_tolerance, form.segments,
                  form.scale if want_grad else None, form.depth, levels, violations,
                  form.errors, form.active)
    g = None
    if want_grad:
        flat, row, pair, w = hits
        at = form.coefficients.take(flat, axis=1)  # M0, A, B and Qab at the hits
        ga, gb = at[1], at[2]
        pa, pb = form.persons.take(pair, axis=1)
        if Qab:
            ga += at[3] * dx.take(pb)
            gb += at[3] * dx.take(pa)
        g = np.zeros(len(dx))  # += also takes an empty bincount's int zeros
        g += np.bincount(pa, w * ga, len(dx))
        g += np.bincount(pb, w * gb, len(dx))
    return None if counts_only else _weighted(levels, cfg), levels, violations.sum(axis=1), g
