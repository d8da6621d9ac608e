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

from .errors import InvalidInputError, NumericalError, SolverError
from .geometry import sample_view
from .ordinal import (HmorConfig, LabelledTruth, LabelledViews, RelationPairs,
                      err_instance_grad, err_joint_grad, err_part_grad,
                      err_part_particle_grad, ordinal_pass, scene_joint_array)
from .skeleton import RelativePose, Scene

_TERMS = ("pose", "init", "refine", "hmor", "abs")


@dataclass(frozen=True)
class SolverConfig:
    """Descent parameters and objective term weights.

    ``views_per_step`` counts the views the ordinal term averages over
    each step: the camera normal is always included, and any additional
    views are sampled fresh per step, one step ahead (see :func:`refine`).
    ``free_variables`` is either
    "root_depths_only" or "full_pose". ``anchor`` selects the target of
    the data terms: the ground-truth scene, or the solver's own input
    (useful as a no-restoring-force baseline). With ``step_halving`` the
    step size is halved until the objective does not increase, which
    makes the trace monotone when the per-step views are fixed
    (views_per_step == 1); fresh sampled views re-randomize the objective
    between steps.
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
    back onto the variable vector.
    """

    def __init__(self, scene: Scene, config: SolverConfig):
        self.scene = scene
        self.cfg = config
        self.scale = config.hmor.depth_unit_scale
        self.topology = scene.topology
        self.root = scene.topology.root_index
        cam = scene.camera
        self.fx, self.fy, self.cx, self.cy = cam.fx, cam.fy, cam.cx, cam.cy
        self.u_top = np.array([p.box.u_top for p in scene.persons])
        self.v_top = np.array([p.box.v_top for p in scene.persons])
        self.a_box = np.array([p.box.area for p in scene.persons])
        self.a_roi = np.array([p.roi_area for p in scene.persons])
        rel = np.stack([p.rel_pose.joints for p in scene.persons])
        self.U = rel[:, :, 0].copy()
        self.V = rel[:, :, 1].copy()
        self.Zrel = rel[:, :, 2].copy()
        self.ZR = np.array([p.root_depth for p in scene.persons])
        self.N, self.J = self.U.shape
        self.nonroot = np.array([j for j in range(self.J) if j != self.root])

    def pack(self) -> np.ndarray:
        s = self.scale
        if self.cfg.free_variables == "root_depths_only":
            return self.ZR * s
        return np.concatenate([
            self.ZR * s, self.U.ravel() * s, self.V.ravel() * s,
            self.Zrel[:, self.nonroot].ravel() * s,
        ])

    def unpack(self, x: np.ndarray):
        s = self.scale
        n, j = self.N, self.J
        self.ZR = x[:n] / s
        if self.cfg.free_variables == "full_pose":
            nj = n * j
            self.U = x[n:n + nj].reshape(n, j) / s
            self.V = x[n + nj:n + 2 * nj].reshape(n, j) / s
            self.Zrel[:, self.nonroot] = x[n + 2 * nj:].reshape(n, j - 1) / s

    def joints_scaled(self):
        """Absolute joints in loss units plus the chain-rule factors."""
        d = self.Zrel + self.ZR[:, None]
        a = (self.U + self.u_top[:, None] - self.cx) / self.fx
        b = (self.V + self.v_top[:, None] - self.cy) / self.fy
        K = np.empty((self.N, self.J, 3))
        K[:, :, 0] = d * a
        K[:, :, 1] = d * b
        K[:, :, 2] = d
        return K * self.scale, d, a, b

    def grad_to_x(self, dK: np.ndarray, d, a, b) -> np.ndarray:
        """Pull a gradient w.r.t. scaled absolute joints back to the
        packed variable vector."""
        per_joint = dK[:, :, 0] * a + dK[:, :, 1] * b + dK[:, :, 2]
        g_zr = per_joint.sum(axis=1)
        if self.cfg.free_variables == "root_depths_only":
            return g_zr
        g_u = dK[:, :, 0] * d / self.fx
        g_v = dK[:, :, 1] * d / self.fy
        g_zrel = per_joint[:, self.nonroot]
        return np.concatenate([g_zr, g_u.ravel(), g_v.ravel(), g_zrel.ravel()])

    def zeros_like_x(self) -> np.ndarray:
        return np.zeros_like(self.pack())

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
    def from_scene(cls, scene: Scene):
        rel = np.stack([p.rel_pose.joints for p in scene.persons])
        return cls(rel=rel,
                   abs_mm=scene_joint_array(scene, 1.0),
                   z_root=np.array([p.root_depth for p in scene.persons]))


def _check_finite(term: str, value: float) -> float:
    if not np.isfinite(value):
        raise NumericalError(f"objective term {term!r} is non-finite: {value}")
    return value


def _evaluate(sv: _SceneVars, labelled: LabelledViews, anchors: _Anchors,
              config: SolverConfig, value_rows, grad_rows):
    """Objective at the current variables under row selections of the
    ``labelled`` view stack, from one :func:`ordinal_pass`.

    Returns (values, grad, violations): the weighted objective with the
    ordinal term averaged over each selection in ``value_rows``; its
    gradient w.r.t. the packed variables with the ordinal term averaged
    over ``grad_rows`` (None when grad_rows is None); and the total
    ordinal violations under the first labelled view (None when
    ``w_hmor`` is 0, as the ordinal term is then not evaluated). The
    data terms are computed once and shared by every value.
    """
    want_grad = grad_rows is not None
    s = sv.scale
    nj = sv.N * sv.J
    data = 0.0
    grad = sv.zeros_like_x() if want_grad else None
    dK = np.zeros((sv.N, sv.J, 3))
    K, d, a, b = sv.joints_scaled()

    if config.w_pose > 0:
        pred = np.stack([sv.U, sv.V, sv.Zrel], axis=2)
        diff = pred - anchors.rel
        data += config.w_pose * _check_finite("pose", float(np.abs(diff).sum() / nj))
        if want_grad:
            g = np.sign(diff) * (config.w_pose / (nj * s))
            if config.free_variables == "full_pose":
                grad[sv.N:sv.N + nj] += g[:, :, 0].ravel()
                grad[sv.N + nj:sv.N + 2 * nj] += g[:, :, 1].ravel()
                grad[sv.N + 2 * nj:] += g[:, sv.nonroot, 2].ravel()

    froot = np.sqrt(sv.fx * sv.fy)
    if config.w_init > 0:
        resid = anchors.z_root / froot - sv.ZR / froot
        data += config.w_init * _check_finite("init", float(np.abs(resid).mean()))
        if want_grad:
            grad[:sv.N] += -np.sign(resid) * (config.w_init / (sv.N * froot * s))

    if config.w_refine > 0:
        ratio = np.sqrt(sv.a_box / sv.a_roi)
        resid = (anchors.z_root / froot) * ratio - (sv.ZR / froot) * ratio
        data += config.w_refine * _check_finite("refine", float(np.abs(resid).mean()))
        if want_grad:
            grad[:sv.N] += -np.sign(resid) * ratio * (config.w_refine / (sv.N * froot * s))

    if config.w_abs > 0:
        diff = K / s - anchors.abs_mm
        data += config.w_abs * _check_finite("abs", float(np.abs(diff).sum() / nj))
        if want_grad:
            dK += np.sign(diff) * (config.w_abs / (nj * s))

    values = [data] * len(value_rows)
    violations = None
    if config.w_hmor > 0:
        totals, _, counts, dK_hmor = ordinal_pass(K, sv.topology, labelled, config.hmor,
                                                  want_grad=want_grad, grad_views=grad_rows)

        def mean(rows):
            picked = totals[rows].tolist()
            return _check_finite("hmor", sum(picked) / len(picked))

        values = [data + config.w_hmor * mean(rows) for rows in value_rows]
        violations = int(counts[:, 0].sum())
        if want_grad:
            dK += dK_hmor * (config.w_hmor / len(totals[grad_rows]))

    if want_grad and (config.w_hmor > 0 or config.w_abs > 0):
        grad += sv.grad_to_x(dK, d, a, b)
    return values, grad, violations


def _objective_on_vars(sv: _SceneVars, labelled: LabelledViews, anchors: _Anchors,
                       config: SolverConfig, want_grad: bool = True):
    """Weighted objective value, its gradient w.r.t. the packed variables
    (None when want_grad is off) and the total ordinal violations under
    the first of the ``labelled`` views; the ordinal term is the mean
    over all of them (:func:`_evaluate`)."""
    every = slice(None)
    (value,), grad, violations = _evaluate(sv, labelled, anchors, config, (every,),
                                           every if want_grad else None)
    return value, grad, violations


def objective(pred_scene: Scene, gt_pairs, anchors: Scene, config: SolverConfig):
    """Objective value and analytic gradient for a predicted scene.

    ``gt_pairs`` is one RelationPairs or a sequence of them holding the
    same pairs under different views (the ordinal term averages over the
    sequence); ``anchors`` supplies the data-term targets. The gradient
    is with respect to the packed free-variable vector selected by the
    config.
    """
    if isinstance(gt_pairs, RelationPairs):
        gt_pairs = [gt_pairs]
    labelled = LabelledViews.from_pairs(gt_pairs, pred_scene.topology)
    sv = _SceneVars(pred_scene, config)
    value, grad, _ = _objective_on_vars(sv, labelled, _Anchors.from_scene(anchors), config)
    return value, grad


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
    if pred_scene.person_count != gt_scene.person_count:
        raise InvalidInputError("scenes must be matched person-for-person")
    rng = np.random.default_rng(cfg.seed)
    anchor_scene = gt_scene if cfg.anchor == "ground_truth" else pred_scene
    anchors = _Anchors.from_scene(anchor_scene)
    sv = _SceneVars(pred_scene, cfg)
    truth = LabelledTruth(gt_scene, cfg.hmor)
    normal = truth.label(gt_scene.camera.normal)
    k = cfg.views_per_step if cfg.w_hmor > 0 else 1
    now = slice(0, k)                                # step t's rows of its stack
    nxt = np.r_[0, k:2 * k - 1] if k > 1 else now    # step t+1's rows
    every = slice(None)

    def ahead(labelled: LabelledViews) -> LabelledViews:
        # a step's stack with the next step's fresh views appended
        if k == 1:
            return labelled
        views = [sample_view(rng=rng).direction for _ in range(k - 1)]
        return truth.label(views, base=labelled)

    def evaluate(x: np.ndarray, labelled: LabelledViews, value_rows, grad_rows):
        # (value under value_rows[0], and what x carries into the next
        # step: value under value_rows[-1], gradient, violations)
        sv.unpack(x)
        values, grad, violations = _evaluate(sv, labelled, anchors, cfg, value_rows, grad_rows)
        return values[0], (values[-1], grad, violations)

    def row(step: int, x: np.ndarray, value: float, violations):
        # a row's violations come from the evaluation of the point it
        # reports; with w_hmor == 0 there was none, so count them here
        if violations is None:
            sv.unpack(x)
            counts = ordinal_pass(sv.joints_scaled()[0], sv.topology, normal, cfg.hmor,
                                  want_grad=False)[2]
            violations = int(counts[:, 0].sum())
        return TraceEntry(step, value, violations)

    x = sv.pack()
    labelled = ahead(normal)  # step 1's views
    f0, (f, g, v) = evaluate(x, labelled, (slice(0, 1), every), every)
    trace = [row(0, x, f0, v)]
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
        trace.append(row(step, x, f_cand, v))

    sv.unpack(x)
    return sv.to_scene(), trace


def _fd_max_rel_err(fn, x0: np.ndarray, grad: np.ndarray, epsilon: float) -> float:
    worst = 0.0
    for i in range(len(x0)):
        xp = x0.copy()
        xp[i] += epsilon
        fp = fn(xp)
        xp[i] -= 2 * epsilon
        fm = fn(xp)
        fd = (fp - fm) / (2 * epsilon)
        denom = max(abs(grad[i]), abs(fd), 1e-8)
        worst = max(worst, abs(grad[i] - fd) / denom)
    return worst


def grad_check(term: str, scene: Scene, gt_scene: Scene,
               epsilon: float = 1e-5, config: SolverConfig | None = None) -> float:
    """Max relative error between analytic and central-difference gradients.

    Checks one objective term at the given scene against targets from
    ``gt_scene``. The evaluation point should sit away from clamp
    boundaries; at a kink the finite difference straddles two linear
    pieces and no meaningful comparison exists.
    """
    if term not in _TERMS:
        raise InvalidInputError(f"unknown term {term!r}, expected one of {_TERMS}")
    base = config or SolverConfig(free_variables="full_pose")
    weights = {f"w_{t}": (1.0 if t == term else 0.0) for t in _TERMS}
    cfg = dataclasses.replace(base, **weights)
    sv = _SceneVars(scene, cfg)
    anchors = _Anchors.from_scene(gt_scene)
    normal = LabelledTruth(gt_scene, cfg.hmor).label(gt_scene.camera.normal)

    x0 = sv.pack()
    _, g, _ = _objective_on_vars(sv, normal, anchors, cfg)

    def value_at(x):
        sv.unpack(x)
        return _objective_on_vars(sv, normal, anchors, cfg, want_grad=False)[0]

    worst = _fd_max_rel_err(value_at, x0, g, epsilon)
    sv.unpack(x0)
    return worst


def check_function_gradients(seed: int = 0, points: int = 100,
                             epsilon: float = 1e-5) -> dict[str, float]:
    """Central-difference check of every differentiable loss primitive.

    Samples random non-boundary evaluation points (every clamp or L1
    kink argument at least 10 * epsilon away from its kink) and returns
    the max relative analytic-vs-numeric gradient error per primitive.
    """
    from .depth import (DepthEstimate, loss_abs_grad, loss_init_grad,
                        loss_pose_grad, loss_refine_grad)
    from .geometry import Camera

    rng = np.random.default_rng(seed)
    margin = 10.0 * epsilon
    results: dict[str, float] = {}

    def unit(rng):
        v = rng.normal(size=3)
        return v / np.linalg.norm(v)

    def pair_case(err_grad):
        worst = 0.0
        produced = 0
        while produced < points:
            a = rng.normal(size=3)
            b = rng.normal(size=3)
            n = unit(rng)
            lab = int(rng.choice([-1, 1]))
            val, ga, gb = err_grad(a, b, lab, n)
            # keep the clamp argument away from its kink
            if err_grad is err_part_grad:
                arg = lab * float(np.cross(a, b) @ n)
            else:
                arg = lab * float((a - b) @ n)
            if abs(arg) <= margin:
                continue
            produced += 1

            def fn(x, lab=lab, n=n):
                return err_grad(x[:3], x[3:], lab, n)[0]

            worst = max(worst, _fd_max_rel_err(
                fn, np.concatenate([a, b]), np.concatenate([ga, gb]), epsilon))
        return worst

    results["err_instance"] = pair_case(err_instance_grad)
    results["err_part"] = pair_case(err_part_grad)
    results["err_part_particle"] = pair_case(err_part_particle_grad)
    results["err_joint"] = pair_case(err_joint_grad)

    cam = Camera(1000.0, 1000.0, 500.0, 500.0)

    for name, loss_grad in (("loss_pose", loss_pose_grad), ("loss_abs", loss_abs_grad)):
        worst = 0.0
        for _ in range(points):
            gt = rng.normal(size=(2, 5, 3))
            pred = gt + rng.choice([-1, 1], size=gt.shape) * rng.uniform(margin * 2, 1.0, gt.shape)
            _, g = loss_grad(pred, gt)

            def fn(x, gt=gt, shape=pred.shape, loss_grad=loss_grad):
                return loss_grad(x.reshape(shape), gt)[0]

            worst = max(worst, _fd_max_rel_err(fn, pred.ravel(), g.ravel(), epsilon))
        results[name] = worst

    worst = 0.0
    for _ in range(points):
        gt_z = rng.uniform(3000.0, 8000.0, size=3)
        pred = gt_z / np.sqrt(cam.fx * cam.fy)
        pred = pred + rng.choice([-1, 1], size=3) * rng.uniform(margin * 2, 1.0, 3)
        _, g = loss_init_grad(pred, gt_z, cam)

        def fn(x, gt_z=gt_z):
            return loss_init_grad(x, gt_z, cam)[0]

        worst = max(worst, _fd_max_rel_err(fn, pred, g, epsilon))
    results["loss_init"] = worst

    worst = 0.0
    for _ in range(points):
        gt_z = rng.uniform(3000.0, 8000.0, size=3)
        a_box = rng.uniform(5000.0, 50000.0, size=3)
        a_roi = rng.uniform(5000.0, 50000.0, size=3)
        deltas = rng.normal(0.0, 1.0, size=3)
        z_init = gt_z / np.sqrt(cam.fx * cam.fy)

        def build(d):
            return [DepthEstimate(z_init[i], z_init[i] * np.sqrt(a_box[i] / a_roi[i]),
                                  d[i], a_box[i], a_roi[i]) for i in range(3)]

        val, g = loss_refine_grad(build(deltas), gt_z, cam)
        # residuals must clear the L1 kink; the residual here is -delta
        if np.any(np.abs(deltas) <= margin * 2):
            continue

        def fn(d, build=build, gt_z=gt_z):
            return loss_refine_grad(build(d), gt_z, cam)[0]

        worst = max(worst, _fd_max_rel_err(fn, deltas, g, epsilon))
    results["loss_refine"] = worst

    return results
