"""Gradient-based refinement of predicted scenes.

The optimizer treats scene quantities (root depths, optionally every
box-relative joint coordinate) as free variables and descends a weighted
sum of the data terms and the hierarchical ordinal loss with exact
analytic gradients. Clamp kinks contribute zero subgradient, matching
the usual convention for hinge-style losses.

Free variables are optimized in scaled units (millimeters and pixels
times ``depth_unit_scale``), the same units depth margins are penalized
in, so the default step size is meaningful across terms.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field

import numpy as np

from .depth import init_term, l1_term, refine_term
from .errors import InvalidDepthError, InvalidInputError, NumericalError, SolverError
from .geometry import back_project_points, sample_view
from .ordinal import (HmorConfig, LabelledTruth, RelationPairs, _depth_margins, _entity_map,
                      _part_margins, check_finite_fields, ordinal_pass, violation_counts)
from .skeleton import RelativePose, Scene, check_topologies_match

# the objective's terms, in the order the weighted total sums them
_TERMS = ("pose", "init", "refine", "abs", "hmor")


@dataclass(frozen=True)
class SolverConfig:
    """Descent parameters and objective term weights.

    ``views_per_step`` counts the views the ordinal term averages over
    each step: the camera normal is always included, and any additional
    views are sampled fresh per step, one step ahead (see :func:`refine`).
    ``free_variables`` is either
    "root_depths_only" or "full_pose". ``anchor`` selects the target of
    the data terms: the ground-truth scene, or the solver's own input at
    its start point, where they read exactly 0 with a zero gradient
    (useful as a no-restoring-force baseline). With ``step_halving`` the
    step size is halved until the objective does not increase, which
    makes the trace monotone when the per-step views are fixed
    (views_per_step == 1); fresh sampled views re-randomize the objective
    between steps.

    Every data term is L1, so its gradient does not shrink with its
    residual. Under ``full_pose`` the pose term adds ``w_pose / (N·J·s)``
    (``s = hmor.depth_unit_scale``) to the gradient of every box-relative
    coordinate whose residual is nonzero, however small: 19.6 at 3
    persons of 17 joints, so one step of the default ``step_size`` moves
    such a coordinate by 196 mm or px, and it oscillates around its
    anchor instead of settling.
    """

    steps: int = 500
    step_size: float = 1e-2
    w_pose: float = 1.0
    w_init: float = 1.0
    w_refine: float = 1.0
    w_hmor: float = 1.0
    w_abs: float = 0.0
    views_per_step: int = 1
    free_variables: str = "root_depths_only"
    seed: int = 0
    step_halving: bool = True
    anchor: str = "ground_truth"
    hmor: HmorConfig = field(default_factory=HmorConfig)
    divergence_limit: float = 1e12
    min_step: float = 1e-12

    def __post_init__(self):
        check_finite_fields(self)
        if self.steps < 1:
            raise InvalidInputError(f"steps must be >= 1, got {self.steps}")
        if self.step_size <= 0:
            raise InvalidInputError("step_size must be positive")
        if min(self.w_pose, self.w_init, self.w_refine, self.w_hmor, self.w_abs) < 0:
            raise InvalidInputError("objective weights must be >= 0")
        if self.views_per_step < 1:
            raise InvalidInputError("views_per_step must be >= 1")
        if self.free_variables not in ("root_depths_only", "full_pose"):
            raise InvalidInputError(f"unknown free_variables {self.free_variables!r}")
        if self.anchor not in ("ground_truth", "input"):
            raise InvalidInputError(f"unknown anchor {self.anchor!r}")
        if self.seed < 0:
            raise InvalidInputError(f"seed must be >= 0, got {self.seed}")


@dataclass(frozen=True, slots=True)
class TraceEntry:
    step: int
    value: float
    violations: int


class _SceneVars:
    """Mutable array view of a scene's free quantities.

    Holds box-relative coordinates, root depths, and the fixed box and
    area data; converts between the packed scaled variable vector and
    absolute scaled joints, and pushes loss gradients w.r.t. those joints
    back onto the variable vector. Every joint of the scene must lie in
    front of the camera.
    """

    def __init__(self, scene: Scene, config: SolverConfig):
        self.scene = scene
        self.cfg = config
        self.scale = config.hmor.depth_unit_scale
        self.topology = scene.topology
        self.root = scene.topology.root_index
        self.camera = scene.camera
        self.u_top = np.array([p.box.u_top for p in scene.persons])
        self.v_top = np.array([p.box.v_top for p in scene.persons])
        self.a_box = np.array([p.box.area for p in scene.persons])
        self.a_roi = np.array([p.roi_area for p in scene.persons])
        rel = np.stack([p.rel_pose.joints for p in scene.persons])
        self.U = rel[:, :, 0].copy()
        self.V = rel[:, :, 1].copy()
        self.Zrel = rel[:, :, 2].copy()
        self.ZR = np.array([p.root_depth for p in scene.persons])
        if np.any(self.Zrel + self.ZR[:, None] <= 0):
            raise InvalidDepthError("scene contains non-positive joint depths")
        self.N, self.J = self.U.shape
        self.nonroot = np.array([j for j in range(self.J) if j != self.root])
        self.start = (self.pack(), self.ZR, self.U, self.V, self.Zrel)

    def pack(self) -> np.ndarray:
        s = self.scale
        if self.cfg.free_variables == "root_depths_only":
            return self.ZR * s
        return np.concatenate([
            self.ZR * s, self.U.ravel() * s, self.V.ravel() * s,
            self.Zrel[:, self.nonroot].ravel() * s,
        ])

    def unpack(self, x: np.ndarray):
        """Move the variables to ``x`` as the scene's values plus ``(x - x0) /
        s``, so ``unpack(pack())`` restores the scene exactly (``x0 / s``
        can miss a coordinate by an ulp)."""
        x0, ZR, U, V, Zrel = self.start
        d = (x - x0) / self.scale
        n, j = self.N, self.J
        self.ZR = ZR + d[:n]
        if self.cfg.free_variables == "full_pose":
            nj = n * j
            self.U = U + d[n:n + nj].reshape(n, j)
            self.V = V + d[n + nj:n + 2 * nj].reshape(n, j)
            self.Zrel = Zrel.copy()
            self.Zrel[:, self.nonroot] += d[n + 2 * nj:].reshape(n, j - 1)

    def joints_scaled(self):
        """Absolute joints in loss units plus the chain-rule factors."""
        d = self.Zrel + self.ZR[:, None]
        K, a, b = back_project_points(self.camera, self.U + self.u_top[:, None],
                                      self.V + self.v_top[:, None], d)
        return K * self.scale, d, a, b

    def grad_to_x(self, dK: np.ndarray, d, a, b) -> np.ndarray:
        """Pull a gradient w.r.t. scaled absolute joints back to the
        packed variable vector."""
        per_joint = dK[:, :, 0] * a + dK[:, :, 1] * b + dK[:, :, 2]
        g_zr = per_joint.sum(axis=1)
        if self.cfg.free_variables == "root_depths_only":
            return g_zr
        g_u = dK[:, :, 0] * d / self.camera.fx
        g_v = dK[:, :, 1] * d / self.camera.fy
        g_zrel = per_joint[:, self.nonroot]
        return np.concatenate([g_zr, g_u.ravel(), g_v.ravel(), g_zrel.ravel()])

    def to_scene(self) -> Scene:
        persons = []
        for m, person in enumerate(self.scene.persons):
            rel_pose = person.rel_pose  # unchanged when only root depths move
            if self.cfg.free_variables == "full_pose":
                rel_pose = RelativePose(
                    np.column_stack([self.U[m], self.V[m], self.Zrel[m]]), self.root)
            persons.append(dataclasses.replace(
                person, rel_pose=rel_pose, root_depth=float(self.ZR[m])))
        return dataclasses.replace(self.scene, persons=tuple(persons))


@dataclass
class _Anchors:
    rel: np.ndarray      # (N, J, 3) box-relative targets
    abs_mm: np.ndarray   # (N, J, 3) absolute targets, millimeters
    z_root: np.ndarray   # (N,) absolute root depths, millimeters

    @classmethod
    def from_vars(cls, sv: _SceneVars):
        """Targets at the variables' current point, back-projected as the
        prediction is (:meth:`_SceneVars.joints_scaled`), so a prediction
        at its anchor reads exactly 0 with a zero gradient in every data
        term."""
        return cls(rel=np.stack([sv.U, sv.V, sv.Zrel], axis=2),
                   abs_mm=sv.joints_scaled()[0] / sv.scale, z_root=sv.ZR.copy())


def _check_finite(term: str, value: float) -> float:
    if not np.isfinite(value):
        raise NumericalError(f"objective term {term!r} is non-finite: {value}")
    return value


def _total(terms: dict, config: SolverConfig) -> float:
    """The weighted objective ``sum w_t * terms[t]``, summed in the order
    of ``_TERMS``. A term of weight 0 would add an exact 0.0, so it is
    left out and may be missing from ``terms``."""
    return sum((w * terms[name] for name in _TERMS if (w := getattr(config, f"w_{name}"))), 0.0)


def _evaluate(sv: _SceneVars, labelled: RelationPairs, anchors: _Anchors,
              config: SolverConfig, value_rows, grad_rows, all_terms: bool = True):
    """Objective at the current variables under row selections of the
    ``labelled`` view stack, from one :func:`ordinal_pass`.

    Returns (terms, grad, violations). ``terms`` holds one dict per
    selection in ``value_rows``: every term's unweighted value by name
    (pose, init, refine, abs; hmor, the ordinal term averaged over the
    selection's views, with its levels hmor.instance, hmor.part and
    hmor.joint) and the weighted ``total`` (:func:`_total`). ``grad`` is
    the total's gradient w.r.t. the packed variables with the ordinal
    term averaged over ``grad_rows`` (None when grad_rows is None), and
    ``violations`` the total ordinal violations under the first labelled
    view. The data terms are :mod:`hmor.depth`'s, computed once and shared
    by every selection; each term's gradient is its sign times the term's
    weight over its rows and the chain to the scaled variables.
    With ``all_terms`` off and ``w_hmor == 0`` the ordinal term is left
    out and the violations are counted alone (:func:`violation_counts`).
    """
    want_grad = grad_rows is not None
    s = sv.scale
    nj = sv.N * sv.J
    grad = np.zeros_like(sv.pack()) if want_grad else None
    dK = np.zeros((sv.N, sv.J, 3))
    K, d, a, b = sv.joints_scaled()

    froot = np.sqrt(sv.camera.fx * sv.camera.fy)
    ratio = np.sqrt(sv.a_box / sv.a_roi)
    z_norm = sv.ZR / froot  # normalized root depths; times ratio, equivalent ones
    data_terms = {
        "pose": l1_term(np.stack([sv.U, sv.V, sv.Zrel], axis=2), anchors.rel),
        "init": init_term(z_norm, anchors.z_root, sv.camera),
        "refine": refine_term(np.zeros(sv.N), z_norm * ratio, anchors.z_root, sv.camera,
                              sv.a_box, sv.a_roi),
        "abs": l1_term(K / s, anchors.abs_mm)}
    data = {name: _check_finite(name, value) for name, (value, _) in data_terms.items()}
    if want_grad and config.w_pose > 0 and config.free_variables == "full_pose":
        g = data_terms["pose"][1] * (config.w_pose / (nj * s))
        grad[sv.N:sv.N + nj] += g[:, :, 0].ravel()
        grad[sv.N + nj:sv.N + 2 * nj] += g[:, :, 1].ravel()
        grad[sv.N + 2 * nj:] += g[:, sv.nonroot, 2].ravel()
    if want_grad and config.w_init > 0:
        grad[:sv.N] += data_terms["init"][1] * (config.w_init / (sv.N * froot * s))
    if want_grad and config.w_refine > 0:
        grad[:sv.N] += data_terms["refine"][1] * ratio * (config.w_refine / (sv.N * froot * s))
    if want_grad and config.w_abs > 0:
        dK += data_terms["abs"][1] * (config.w_abs / (nj * s))

    if all_terms or config.w_hmor > 0:
        hmor_grad = want_grad and config.w_hmor > 0
        totals, levels, counts, dK_hmor = ordinal_pass(
            K, sv.topology, labelled, config.hmor, want_grad=hmor_grad, grad_views=grad_rows)

        def mean(per_view, rows):
            picked = per_view[rows].tolist()
            return sum(picked) / len(picked)

        terms = [{**data, "hmor": _check_finite("hmor", mean(totals, rows)),
                  **{f"hmor.{name}": mean(level, rows)
                     for name, level in zip(("instance", "part", "joint"), levels)}}
                 for rows in value_rows]
        if hmor_grad:
            dK += dK_hmor * (config.w_hmor / len(totals[grad_rows]))
    else:
        counts = violation_counts(K, sv.topology, labelled.rows(slice(0, 1)), config.hmor)
        terms = [data for _ in value_rows]
    if want_grad and (config.w_hmor > 0 or config.w_abs > 0):
        grad += sv.grad_to_x(dK, d, a, b)
    return [{**t, "total": _total(t, config)} for t in terms], grad, int(counts[:, 0].sum())


def objective(pred_scene: Scene, gt_pairs, anchors: Scene, config: SolverConfig):
    """Objective value and analytic gradient for a predicted scene.

    ``gt_pairs`` is one RelationPairs or a sequence of them holding the
    same pairs under different views (the ordinal term averages over the
    sequence); ``anchors`` supplies the data-term targets. The gradient
    is with respect to the packed free-variable vector selected by the
    config.
    """
    labelled = gt_pairs if isinstance(gt_pairs, RelationPairs) else RelationPairs.stack(gt_pairs)
    labelled.check_fits(pred_scene)
    _check_matched(pred_scene, anchors)
    sv = _SceneVars(pred_scene, config)
    every = slice(None)
    (terms,), grad, _ = _evaluate(sv, labelled, _Anchors.from_vars(_SceneVars(anchors, config)),
                                  config, (every,), every)
    return terms["total"], grad


def _check_matched(pred_scene: Scene, other: Scene) -> None:
    """Raise InvalidInputError unless ``other`` has the prediction's
    topology and person count."""
    check_topologies_match(pred_scene, other)
    if pred_scene.person_count != other.person_count:
        raise InvalidInputError("scenes must be matched person-for-person")


def _targets(sv: _SceneVars, gt_scene: Scene, config: SolverConfig):
    """The anchors ``config.anchor`` selects, the ground truth or the
    prediction's variables where they stand, and the enumerated ground
    truth."""
    _check_matched(sv.scene, gt_scene)
    anchor = sv if config.anchor == "input" else _SceneVars(gt_scene, config)
    return _Anchors.from_vars(anchor), LabelledTruth(gt_scene, config.hmor)


def objective_terms(pred_scene: Scene, gt_scene: Scene,
                    config: SolverConfig | None = None) -> dict[str, float]:
    """Every unweighted term of the objective :func:`refine` minimises,
    by name (see :func:`_evaluate`), and the weighted ``total``, all from
    one :func:`ordinal_pass` under the ground truth's camera normal.
    ``total`` is ``refine``'s trace row 0, bit for bit."""
    cfg = config or SolverConfig()
    sv = _SceneVars(pred_scene, cfg)
    anchors, truth = _targets(sv, gt_scene, cfg)
    (terms,), _, _ = _evaluate(sv, truth.label(gt_scene.camera.normal), anchors, cfg,
                               (slice(None),), None)
    return terms


def refine(pred_scene: Scene, gt_scene: Scene, config: SolverConfig | None = None):
    """Fixed-step gradient descent on the configured objective.

    Returns the refined scene and a trace of (step, objective value,
    total ordinal violations under the camera normal). Deterministic
    given the config seed. Raises SolverError past the divergence limit.

    The ground truth is enumerated once (:class:`LabelledTruth`) and
    labelled under the camera normal once. Step t's stack is the union
    ``[normal, views_t, views_t+1]``: step t+1's views are sampled and
    labelled one step ahead, so one :func:`ordinal_pass` at a candidate
    yields its value under step t's views (for the line search) and its
    value and gradient under step t+1's, which an accepted candidate
    carries into the next step. With fresh views, when the first
    candidate is rejected the halved ones are evaluated under step t's
    views alone, and the point the line search stops at (``x`` if every
    candidate is rejected) once more under step t+1's. With one view
    (or ``w_hmor == 0``) both steps share the stack, so every evaluation,
    ``x``'s included, is carried as it is.
    """
    cfg = config or SolverConfig()
    sv = _SceneVars(pred_scene, cfg)
    x = sv.pack()
    anchors, truth = _targets(sv, gt_scene, cfg)  # anchor="input" anchors at the input
    rng = np.random.default_rng(cfg.seed)
    normal = truth.label(gt_scene.camera.normal)
    k = cfg.views_per_step if cfg.w_hmor > 0 else 1
    now = slice(0, k)                                # step t's rows of its stack
    nxt = np.r_[0, k:2 * k - 1] if k > 1 else now    # step t+1's rows
    every = slice(None)

    def ahead(labelled: RelationPairs) -> RelationPairs:
        # a step's stack with the next step's fresh views appended
        if k == 1:
            return labelled
        views = [sample_view(rng=rng).direction for _ in range(k - 1)]
        return truth.label(views, base=labelled)

    def evaluate(x: np.ndarray, labelled: RelationPairs, value_rows, grad_rows):
        # (value under value_rows[0], and what x carries into the next
        # step: value under value_rows[-1], gradient, violations)
        sv.unpack(x)
        terms, grad, violations = _evaluate(sv, labelled, anchors, cfg, value_rows, grad_rows,
                                            all_terms=False)
        return terms[0]["total"], (terms[-1]["total"], grad, violations)

    labelled = ahead(normal)  # step 1's views
    f0, (f, g, v) = evaluate(x, labelled, (slice(0, 1), every), every)  # at the input itself
    trace = [TraceEntry(0, f0, v)]
    eta = cfg.step_size

    for step in range(1, cfg.steps + 1):
        if f > cfg.divergence_limit:
            raise SolverError(f"objective diverged to {f!r} at step {step}")
        last = step == cfg.steps
        current = labelled  # step t's views
        if last:
            first = (current, (every,), None)
        else:
            stack = ahead(current)
            labelled = stack if k == 1 else stack.rows(nxt)  # step t+1's views
            first = (stack, (now, nxt), nxt)

        cand = x - eta * g
        f_cand, carried = evaluate(cand, *first)
        if cfg.step_halving and f_cand > f:
            retry = first if k == 1 else (current, (every,), None)
            while f_cand > f and eta > cfg.min_step:
                eta *= 0.5
                cand = x - eta * g
                f_cand, carried = evaluate(cand, *retry)
            if f_cand > f:
                cand, f_cand, carried = x, f, (f, g, v)
            if k > 1 and not last:
                carried = evaluate(cand, labelled, (every,), every)[1]
        x = cand
        f, g, v = carried
        trace.append(TraceEntry(step, f_cand, v))  # v is counted at x, the point reported

    sv.unpack(x)
    return sv.to_scene(), trace


def _fd_max_rel_err(fn, x0: np.ndarray, grad, epsilon: float):
    """Worst relative error of the analytic gradient against central
    differences of ``fn``, with :func:`grad_check`'s floor. ``fn`` returns
    one value (``grad`` (n,), a float result) or m ((m, n), (m,) results)."""
    grad = np.asarray(grad, dtype=float)
    worst = np.zeros(grad.shape[:-1])
    for i in range(len(x0)):
        xp, xm = x0.copy(), x0.copy()
        xp[i] += epsilon
        xm[i] -= epsilon
        fp, fm = np.asarray(fn(xp), dtype=float), np.asarray(fn(xm), dtype=float)
        fd = (fp - fm) / (2.0 * epsilon)
        ulp = np.spacing(np.maximum(np.maximum(abs(fp), abs(fm)), 1.0))
        g = grad[..., i]
        denom = np.maximum(np.maximum(abs(g), abs(fd)), 1e6 * ulp / epsilon)
        worst = np.maximum(worst, abs(g - fd) / denom)
    return worst if worst.ndim else float(worst)


def _checked_objective(sv: _SceneVars, gt_scene: Scene, config: SolverConfig):
    """The ground truth's anchors and the views :func:`refine`'s first step
    labels: the normal, then ``views_per_step - 1`` from ``default_rng(seed)``."""
    anchors, truth = _targets(sv, gt_scene, dataclasses.replace(config, anchor="ground_truth"))
    rng = np.random.default_rng(config.seed)
    views = [sample_view(rng=rng).direction for _ in range(config.views_per_step - 1)]
    return anchors, truth.label([gt_scene.camera.normal, *views])


def grad_check(scene: Scene, gt_scene: Scene, epsilon: float = 1e-5,
               config: SolverConfig | None = None) -> dict[str, float]:
    """Worst relative error between the analytic and the central-difference
    gradient of each objective term, by name (pose, init, refine, abs,
    hmor), at ``scene`` against ``gt_scene``.

    Views: the objective is the one :func:`refine`'s first step descends,
    its ordinal term averaged over the camera normal and ``views_per_step
    - 1`` views drawn from ``default_rng(seed)``, its data terms anchored
    at the ground truth. One sweep of :func:`_evaluate` at ``x +-
    epsilon`` per coordinate differences every term; each analytic
    gradient is ``_evaluate``'s with that term's weight alone set to 1.

    Floor: a coordinate's error is ``|g - fd| / max(|g|, |fd|, 1e6 *
    ulp(max(|f+|, |f-|, 1)) / epsilon)``. The floor bounds the
    difference's roundoff: up to 20 such ulps read below 1e-5, so a zero
    gradient against pure roundoff agrees. The 1 stands for the unit-size
    quantities a term is computed from (an ordinal loss of 2e-6 is a mean
    of margins between depths of 4 m).

    Kinks: a difference that straddles a kink of an L1 residual or an
    ordinal margin compares two linear pieces, so the point should have
    none within ``2 epsilon`` along any coordinate, as
    :func:`_gradcheck_point` draws it for the default epsilon.
    """
    cfg = config or SolverConfig(free_variables="full_pose")
    sv = _SceneVars(scene, cfg)
    anchors, labelled = _checked_objective(sv, gt_scene, cfg)
    every = (slice(None),)
    grads = [_evaluate(sv, labelled, anchors,
                       dataclasses.replace(cfg, **{f"w_{t}": float(t == term) for t in _TERMS}),
                       every, every[0])[1] for term in _TERMS]

    def terms_at(x):
        sv.unpack(x)
        (terms,), _, _ = _evaluate(sv, labelled, anchors, cfg, every, None)
        return [terms[t] for t in _TERMS]

    worst = _fd_max_rel_err(terms_at, sv.pack(), np.array(grads), epsilon)
    return dict(zip(_TERMS, worst.tolist()))


def _gradcheck_point(rng: np.random.Generator, i: int, config: SolverConfig):
    """Point i of a gradient check from ``rng``: a generated ground truth of
    ``1 + i % 3`` persons, the prediction with every free variable of
    ``config`` (its free variables alternating by i) jittered by 250 mm
    on root depths and 25 px or mm on the rest, and that config. A draw
    is kept only when no L1 residual and no labelled ordinal margin moves
    by more than its size over ``2e-5 e_j`` (twice grad_check's default
    epsilon): linear along a coordinate (vector-part margins nearly), none
    then changes sign within 2e-5 of the point."""
    from .synth import GenSpec, generate_scene
    cfg = dataclasses.replace(config, free_variables=("root_depths_only", "full_pose")[i % 2])
    while True:
        gt = generate_scene(GenSpec(seed=int(rng.integers(2**31)), n_persons=1 + i % 3))
        sv = _SceneVars(gt, cfg)
        x0 = sv.pack()
        x0 += rng.normal(0.0, np.where(np.arange(len(x0)) < sv.N, 250.0, 25.0)) * sv.scale
        anchors, labelled = _checked_objective(sv, gt, cfg)
        layout, V = labelled.layout, labelled.views

        def residuals(x):
            sv.unpack(x)
            K = sv.joints_scaled()[0]
            X = _entity_map(sv.topology, cfg.hmor.part_mode) @ K
            out = [np.stack([sv.U, sv.V, sv.Zrel], axis=2) - anchors.rel,
                   sv.ZR - anchors.z_root, K / sv.scale - anchors.abs_mm,
                   _depth_margins(X, V, layout) * labelled.depth_labels]
            if layout.flat is not None:
                out.append(_part_margins(X, V, layout)[0] * labelled.part_labels)
            return np.concatenate([r.ravel() for r in out])

        at_x0 = residuals(x0)
        if all(np.all(abs(residuals(x0 + 2e-5 * e) - at_x0) <= abs(at_x0))
               for e in np.eye(len(x0))):
            sv.unpack(x0)
            return sv.to_scene(), gt, cfg
