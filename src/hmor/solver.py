"""Gradient-based refinement of predicted scenes.

The root depths, and optionally every box-relative joint coordinate, are
free variables in scaled units (``depth_unit_scale``, as margins are).
The solver descends the weighted data terms and ordinal loss with exact
analytic gradients; clamp kinks contribute zero subgradient.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field

import numpy as np

from .depth import (equivalent_depth, init_term, l1_residual, l1_term, normalize_depth,
                    refine_residual, refine_term)
from .errors import InvalidDepthError, InvalidInputError, NumericalError
from .geometry import back_project_points, sample_views
from .ordinal import (HmorConfig, LabelledTruth, RelationPairs, _check_pair_set, _RootForm,
                      check_finite_fields, ordinal_pass, root_pass, scene_joint_array)
from .skeleton import RelativePose, Scene, check_matched

# the objective's terms, in the order the weighted total sums them
_TERMS = ("pose", "init", "refine", "abs", "hmor")
_FD_EPSILON = 1e-5  # grad_check's central-difference step


@dataclass(frozen=True)
class SolverConfig:
    """Descent parameters and objective term weights. The ordinal term
    averages over ``views_per_step`` views drawn once per run (see
    :func:`refine`). ``anchor`` targets the data terms at the ground truth
    or at the input, where they read 0 with a zero gradient. A step that
    would raise the objective is halved until it does not, so the trace is
    monotone from row 1 on (:func:`refine`). Every data term is L1, so
    under ``full_pose`` the pose term adds ``w_pose / (N·J·s)`` to the
    gradient of any coordinate off its anchor, however slightly (19.6, a
    196 mm step, at 3 persons): such a one oscillates. A term or weighted
    total that is not finite raises NumericalError (:meth:`_Objective.evaluate`).
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
    anchor: str = "ground_truth"
    hmor: HmorConfig = field(default_factory=HmorConfig)
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
    """Mutable array view of a scene's free quantities: converts the
    packed scaled variables to absolute scaled joints and pulls joint
    gradients back. Every joint must lie in front of the camera."""

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
        self.froot = np.sqrt(self.camera.fx * self.camera.fy)
        self.ratio = np.sqrt(self.a_box / self.a_roi)
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
        self.dx = np.zeros_like(self.start[0])  # x - x0, as unpack leaves it

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
        self.dx = x - x0
        d = self.dx / self.scale
        n, j = self.N, self.J
        self.ZR = ZR + d[:n]
        if self.cfg.free_variables == "full_pose":
            nj = n * j
            self.U = U + d[n:n + nj].reshape(n, j)
            self.V = V + d[n + nj:n + 2 * nj].reshape(n, j)
            self.Zrel = Zrel.copy()
            self.Zrel[:, self.nonroot] += d[n + 2 * nj:].reshape(n, j - 1)

    def rel(self) -> np.ndarray:
        """The (N, J, 3) box-relative coordinates, the pose term's input."""
        return np.stack([self.U, self.V, self.Zrel], axis=2)

    def z_norm(self) -> np.ndarray:
        """Root depths, focal-normalized (the init term's input)."""
        return self.ZR / self.froot

    def z_eq(self) -> np.ndarray:
        """Root depths at their equivalent depth (the refine term's input)."""
        return self.z_norm() * self.ratio

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

    def in_front(self) -> bool:
        """Whether every joint at the variables lies in front of the camera."""
        return bool((self.Zrel + self.ZR[:, None]).min() > 0)  # False at a NaN

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


@dataclass(frozen=True, slots=True)
class _Evaluation:
    """One objective evaluation (:meth:`_Objective.evaluate`)."""

    total: float                # the weighted total, the ordinal term over every view
    first: float                # the weighted total under view 0 alone (trace row 0)
    data: dict[str, float]      # each computed data term's unweighted value, by name
    hmor: dict | None           # hmor and its levels over every view, by name (all_terms)
    violations: np.ndarray      # (3,) per-level violations under view 0
    grad: np.ndarray | None

    def terms(self) -> dict[str, float]:
        """Every unweighted term, by name, and the total."""
        return {**self.data, **self.hmor, "total": self.total}


def _check_finite(term: str, value: float) -> float:
    if not math.isfinite(value):
        raise NumericalError(f"objective term {term!r} is non-finite: {value}")
    return value


def _mean(per_view: np.ndarray) -> float:
    values = per_view.tolist()
    return sum(values) / len(values)


class _Objective:
    """One run's objective, built once: the prediction's variables
    (``sv``), the data terms' targets read from the ``targets`` scene and
    back-projected as the prediction is, so a prediction at its targets
    reads exactly 0 with a zero gradient in every data term, and the
    ``labelled`` view stack. Under ``root_depths_only`` it also holds the
    pose term, which no step moves, and the ordinal term reduced to the
    root depths about the start point (``form``, a :class:`_RootForm`),
    built whatever ``w_hmor`` is: with no ordinal term it still counts the
    violations."""

    def __init__(self, pred: Scene, targets: Scene, labelled: RelationPairs,
                 config: SolverConfig):
        self.sv = sv = _SceneVars(pred, config)
        self.labelled, self.config = labelled, config
        self.rel = np.stack([p.rel_pose.joints for p in targets.persons])  # (N, J, 3)
        self.abs_mm = scene_joint_array(targets, sv.scale) / sv.scale      # (N, J, 3)
        self.z_norm = normalize_depth(np.array([p.root_depth for p in targets.persons]),
                                      sv.camera)
        self.z_eq = equivalent_depth(self.z_norm, sv.a_box, sv.a_roi)
        self.pose = self.form = None
        if config.free_variables == "root_depths_only":
            self.pose = l1_term(sv.rel(), self.rel)
            K0, _, a, b = sv.joints_scaled()
            self.form = _RootForm(K0, np.stack([a, b, np.ones_like(a)], axis=-1), sv.topology,
                                  labelled, config.hmor)

    @classmethod
    def of(cls, pred: Scene, gt: Scene, config: SolverConfig, k: int) -> _Objective:
        """The objective of refining ``pred`` against ``gt``: the data
        terms target the scene ``config.anchor`` selects, and the ordinal
        term averages over ``gt`` labelled under its camera normal and
        ``k - 1`` views drawn from ``default_rng(config.seed)``; none at
        ``k == 1``, so a one-view run never imports ``numpy.random``."""
        check_matched(pred, gt)
        truth = LabelledTruth(gt, config.hmor)
        views = sample_views(k - 1, np.random.default_rng(config.seed)) if k > 1 else []
        return cls(pred, pred if config.anchor == "input" else gt,
                   truth.label([gt.camera.normal, *views]), config)

    def evaluate(self, x: np.ndarray, want_grad: bool, all_terms: bool = False,
                 config: SolverConfig | None = None) -> _Evaluation:
        """The objective with the variables moved to ``x``, as one
        :class:`_Evaluation`: the weighted total with the ordinal term
        averaged over every labelled view and under view 0 alone (terms
        summed in ``_TERMS`` order), the gradient w.r.t. the packed
        variables (ordinal term over every view) and view 0's counts. With
        ``all_terms`` every term is computed, with the ordinal levels;
        without it weight-0 terms are skipped. The ordinal kernel always
        runs, for the counts, with its gradient only at ``w_hmor > 0``, and
        for the counts alone when no ordinal term is read (``w_hmor = 0``
        without ``all_terms``). With ``form`` it is one :func:`root_pass`
        and the abs term reads the joints ``K0 + e * dx``; otherwise one
        :func:`ordinal_pass`. ``config`` replaces the run's weights for
        this evaluation. A non-finite term or weighted total raises
        NumericalError.
        """
        sv, form, config = self.sv, self.form, config or self.config
        sv.unpack(x)
        s, n = sv.scale, sv.N
        nj = n * sv.J
        grad = np.zeros_like(sv.start[0]) if want_grad else None
        dK = None  # gradient w.r.t. the scaled joints
        if form is None:
            K, d, a, b = sv.joints_scaled()
        elif all_terms or config.w_abs:
            K = form.K0 + form.e * sv.dx[:, None, None]
        data = {}
        if all_terms or config.w_pose:
            data["pose"], sign = self.pose or l1_term(sv.rel(), self.rel)
            if want_grad and config.w_pose and config.free_variables == "full_pose":
                g = sign * (config.w_pose / (nj * s))
                grad[n:n + nj] += g[:, :, 0].ravel()
                grad[n + nj:n + 2 * nj] += g[:, :, 1].ravel()
                grad[n + 2 * nj:] += g[:, sv.nonroot, 2].ravel()
        if all_terms or config.w_init:
            data["init"], sign = init_term(sv.z_norm(), self.z_norm)
            if want_grad and config.w_init:
                grad[:n] += sign * (config.w_init / (n * sv.froot * s))
        if all_terms or config.w_refine:
            data["refine"], sign = refine_term(np.zeros(n), sv.z_eq(), self.z_eq)
            if want_grad and config.w_refine:
                grad[:n] += sign * sv.ratio * (config.w_refine / (n * sv.froot * s))
        if all_terms or config.w_abs:
            data["abs"], sign = l1_term(K / s, self.abs_mm)
            if want_grad and config.w_abs:
                dK = sign * (config.w_abs / (nj * s))
        total = 0.0
        for name, value in data.items():
            _check_finite(name, value)
            if w := getattr(config, f"w_{name}"):
                total += w * value

        hmor_grad = want_grad and config.w_hmor > 0
        counts_only = not (all_terms or config.w_hmor)
        if form is None:
            per_view, levels, counts, dK_hmor = ordinal_pass(
                K, sv.topology, self.labelled, config.hmor, hmor_grad, counts_only)
        else:  # its gradient is w.r.t. the root depths
            per_view, levels, counts, g_hmor = root_pass(form, sv.dx, hmor_grad, counts_only)
        first, hmor = total, None
        if all_terms or config.w_hmor:
            mean = _check_finite("hmor", _mean(per_view))
            if config.w_hmor:
                first = total + config.w_hmor * per_view[0].item()
                total += config.w_hmor * mean
            if all_terms:
                hmor = {"hmor": mean, **{f"hmor.{name}": _mean(level) for name, level
                                         in zip(("instance", "part", "joint"), levels)}}
        _check_finite("total", total)
        _check_finite("total", first)
        if hmor_grad and form is not None:
            grad += g_hmor * (config.w_hmor / len(per_view))
        elif hmor_grad:
            dK_hmor = dK_hmor * (config.w_hmor / len(per_view))
            dK = dK_hmor if dK is None else dK + dK_hmor
        if dK is not None:
            grad += sv.grad_to_x(dK, d, a, b) if form is None else (dK * form.e).sum(axis=(1, 2))
        return _Evaluation(total, first, data, hmor, counts, grad)


def objective(pred_scene: Scene, gt_pairs: RelationPairs, anchors: Scene, config: SolverConfig):
    """Objective value and analytic gradient w.r.t. the packed free
    variables. The ordinal term averages over the views of ``gt_pairs``
    (several at once from ``LabelledTruth(gt, config.hmor).label(views)``);
    ``anchors`` supplies the data-term targets."""
    _check_pair_set(gt_pairs, "gt_pairs")
    gt_pairs.check_fits(pred_scene)
    check_matched(pred_scene, anchors)
    obj = _Objective(pred_scene, anchors, gt_pairs, config)
    record = obj.evaluate(obj.sv.start[0], True)
    return record.total, record.grad


def objective_terms(pred_scene: Scene, gt_scene: Scene,
                    config: SolverConfig | None = None) -> dict[str, float]:
    """Every unweighted term of the objective :func:`refine` minimises,
    by name (see :meth:`_Objective.evaluate`), and the weighted ``total``,
    all from one pass of ``refine``'s kernel under the ground truth's
    camera normal. ``total`` is ``refine``'s trace row 0, bit for bit."""
    obj = _Objective.of(pred_scene, gt_scene, config or SolverConfig(), 1)
    return obj.evaluate(obj.sv.start[0], False, all_terms=True).terms()


def refine(pred_scene: Scene, gt_scene: Scene, config: SolverConfig | None = None):
    """Fixed-step gradient descent on the configured objective.

    Returns the refined scene and a trace of (step, objective value,
    total ordinal violations under the camera normal). Deterministic
    given the config seed. Raises NumericalError on a non-finite total.

    Every step descends one objective, built once with its view stack
    (:meth:`_Objective.of`); row 0 is the input under the camera normal
    alone. A step that leaves ``x`` and the step size unchanged, bit for
    bit, ends the run, its row copied to the end. A halved candidate is
    evaluated without the gradient, and an accepted one once more with
    it. A candidate that puts a joint behind the camera is refused as one
    that raises the objective (:meth:`_SceneVars.in_front`).
    """
    cfg = config or SolverConfig()
    obj = _Objective.of(pred_scene, gt_scene, cfg, cfg.views_per_step if cfg.w_hmor > 0 else 1)
    sv = obj.sv
    x = sv.start[0]
    # at the input itself: trace row 0 under the normal alone, step 1's f under every view
    here = obj.evaluate(x, True)
    trace = [TraceEntry(0, here.first, int(here.violations.sum()))]
    eta, fixed = cfg.step_size, False

    for step in range(1, cfg.steps + 1):
        f, g = here.total, here.grad
        if fixed:
            trace += [dataclasses.replace(trace[-1], step=t) for t in range(step, cfg.steps + 1)]
            break
        want_grad, eta_in = step < cfg.steps, eta
        cand = x - eta * g
        record = obj.evaluate(cand, want_grad)
        f_cand = record.total
        while (refused := f_cand > f or not sv.in_front()) and eta > cfg.min_step:
            eta *= 0.5
            cand = x - eta * g
            record = obj.evaluate(cand, False)  # most halved candidates are rejected
            f_cand = record.total
        if refused:
            cand, f_cand, record = x, f, here
        elif want_grad and record.grad is None:  # an accepted halved candidate
            record = obj.evaluate(cand, True)
        # same x and step size: every later step evaluates what this one did
        fixed = eta == eta_in and cand.tobytes() == x.tobytes()
        x, here = cand, record
        # the violations are counted at x, the point reported
        trace.append(TraceEntry(step, f_cand, int(here.violations.sum())))

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


def _checked_objective(scene: Scene, gt_scene: Scene, config: SolverConfig) -> _Objective:
    """The objective every :func:`refine` step descends at ``scene``, its
    data terms anchored at the ground truth (:meth:`_Objective.of`)."""
    return _Objective.of(scene, gt_scene, dataclasses.replace(config, anchor="ground_truth"),
                         config.views_per_step)


def grad_check(scene: Scene, gt_scene: Scene,
               config: SolverConfig | None = None) -> dict[str, float]:
    """Worst relative error between the analytic and the central-difference
    gradient of each objective term, by name (pose, init, refine, abs,
    hmor), at ``scene`` against ``gt_scene``, of the objective every
    :func:`refine` step descends with the data terms anchored at the
    ground truth (:func:`_checked_objective`). Each analytic gradient is
    :meth:`_Objective.evaluate`'s with that term's weight alone set to 1.

    An error is ``|g - fd| / max(|g|, |fd|, 1e6 * ulp(max(|f+|, |f-|, 1))
    / epsilon)`` at the step ``epsilon = _FD_EPSILON``, whose floor bounds
    the difference's roundoff. The point should have no kink within ``2
    epsilon`` (:func:`_gradcheck_point`).
    """
    cfg = config or SolverConfig(free_variables="full_pose")
    obj = _checked_objective(scene, gt_scene, cfg)
    x0 = obj.sv.start[0]
    grads = [obj.evaluate(x0, True, config=dataclasses.replace(
        cfg, **{f"w_{t}": float(t == term) for t in _TERMS})).grad for term in _TERMS]

    def terms_at(x):
        terms = obj.evaluate(x, False, all_terms=True).terms()
        return [terms[t] for t in _TERMS]

    worst = _fd_max_rel_err(terms_at, x0, np.array(grads), _FD_EPSILON)
    return dict(zip(_TERMS, worst.tolist()))


def _gradcheck_point(rng: np.random.Generator, i: int, config: SolverConfig):
    """Point i of a gradient check: a generated ground truth of ``1 + i %
    3`` persons, the prediction with every free variable (alternating
    modes by i) jittered by 250 mm on root depths and 25 px or mm on the
    rest, and the config. A draw is kept only when no L1 residual or
    labelled margin changes sign within ``2 * _FD_EPSILON`` along any
    coordinate."""
    from .synth import GenSpec, generate_scene
    cfg = dataclasses.replace(config, free_variables=("root_depths_only", "full_pose")[i % 2])
    while True:
        gt = generate_scene(GenSpec(seed=int(rng.integers(2**31)), n_persons=1 + i % 3))
        obj = _checked_objective(gt, gt, cfg)
        sv, labelled = obj.sv, obj.labelled
        x0 = sv.pack()
        x0 += rng.normal(0.0, np.where(np.arange(len(x0)) < sv.N, 250.0, 25.0)) * sv.scale

        def residuals(x):
            # every data term's residual (hmor.depth's), then the labelled margins
            sv.unpack(x)
            K = sv.joints_scaled()[0]
            margins = LabelledTruth(gt, cfg.hmor, joints=K).margins(labelled.views)
            out = [l1_residual(sv.rel(), obj.rel), l1_residual(sv.z_norm(), obj.z_norm),
                   refine_residual(np.zeros(sv.N), sv.z_eq(), obj.z_eq),
                   l1_residual(K / sv.scale, obj.abs_mm), margins * labelled.labels]
            return np.concatenate([r.ravel() for r in out])

        at_x0 = residuals(x0)
        if all(np.all(abs(residuals(x0 + 2 * _FD_EPSILON * e) - at_x0) <= abs(at_x0))
               for e in np.eye(len(x0))):
            sv.unpack(x0)
            return sv.to_scene(), gt, cfg
