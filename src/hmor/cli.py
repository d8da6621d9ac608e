"""Command-line entry point.

Subcommands: gen (synthetic scene files), loss (ordinal and data-term
losses of a prediction against ground truth), refine (gradient-descent
refinement with an objective trace), eval (pose metrics), and gradcheck
(finite-difference validation of every analytic gradient).

Exit codes: 0 success, 2 validation error, 3 I/O error, 4 numerical or
solver error. Set HMOR_LOG={error,info,debug} to control verbosity.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import logging
import math
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np

from . import synth
from .depth import DepthEstimate, loss_abs, loss_init, loss_pose, loss_refine
from .errors import (HmorError, InvalidInputError, NumericalError, SolverError)
from .metrics import (DEFAULT_PCK_THRESHOLD_MM, MetricReport, evaluate)
from .ordinal import HmorConfig, enumerate_pairs, hmor_loss
from .sceneio import load_scene, save_scene
from .skeleton import Scene, assemble_absolute
from .solver import (SolverConfig, check_function_gradients, grad_check, objective,
                     refine)
from .synth import GenSpec, generate_scene, perturb

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_IO = 3
EXIT_NUMERIC = 4

GRADCHECK_TOLERANCE = 1e-5
MAX_AUC_POINTS = 100_000

log = logging.getLogger("hmor")


# ---------------------------------------------------------------------------
# run configuration file

def _build_strict(cls, kwargs: dict, context: str):
    fields = {f.name for f in dataclasses.fields(cls)}
    unknown = set(kwargs) - fields
    if unknown:
        raise InvalidInputError(f"{context} has unknown keys {sorted(unknown)}")
    return cls(**kwargs)


@dataclasses.dataclass(frozen=True)
class RunConfig:
    hmor: HmorConfig = dataclasses.field(default_factory=HmorConfig)
    solver: SolverConfig = dataclasses.field(default_factory=SolverConfig)
    pck_threshold_mm: float = DEFAULT_PCK_THRESHOLD_MM
    auc_min_mm: float = 1.0
    auc_max_mm: float = 150.0
    auc_step_mm: float = 1.0
    seed: int = 0

    @property
    def auc_thresholds(self) -> np.ndarray:
        return np.arange(self.auc_min_mm, self.auc_max_mm + 0.5 * self.auc_step_mm,
                         self.auc_step_mm)


def load_run_config(path) -> RunConfig:
    try:
        data = json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise InvalidInputError(f"{path}: not valid JSON: {exc}") from exc
    allowed = {"hmor", "solver", "metrics", "seed"}
    unknown = set(data) - allowed
    if unknown:
        raise InvalidInputError(f"{path}: unknown config sections {sorted(unknown)}")
    hmor_cfg = _build_strict(HmorConfig, data.get("hmor", {}), "hmor config")
    solver_kwargs = dict(data.get("solver", {}))
    solver_kwargs.pop("hmor", None)
    solver_cfg = dataclasses.replace(
        _build_strict(SolverConfig, solver_kwargs, "solver config"), hmor=hmor_cfg)
    metrics = data.get("metrics", {})
    if not isinstance(metrics, dict):
        raise InvalidInputError(f"{path}: metrics must be an object")
    unknown = set(metrics) - {"pck_threshold_mm", "auc_min_mm", "auc_max_mm", "auc_step_mm"}
    if unknown:
        raise InvalidInputError(f"{path}: unknown metrics keys {sorted(unknown)}")
    for key, value in metrics.items():
        if (isinstance(value, bool) or not isinstance(value, (int, float))
                or not math.isfinite(value)):
            raise InvalidInputError(f"{path}: metrics.{key} must be a finite number, "
                                    f"got {value!r}")
        if value <= 0:
            what = "step" if key == "auc_step_mm" else "threshold"
            raise InvalidInputError(f"{path}: metrics.{key}: {what} must be positive, "
                                    f"got {value!r}")
    cfg = RunConfig(hmor=hmor_cfg, solver=solver_cfg, seed=int(data.get("seed", 0)),
                    **{k: float(v) for k, v in metrics.items()})
    # the length of RunConfig.auc_thresholds, checked before it is built
    points = (cfg.auc_max_mm + 0.5 * cfg.auc_step_mm - cfg.auc_min_mm) / cfg.auc_step_mm
    if points <= 0:
        raise InvalidInputError(f"{path}: metrics.auc_max_mm {cfg.auc_max_mm!r} is below "
                                f"auc_min_mm {cfg.auc_min_mm!r}; the AUC grid is empty")
    if points > MAX_AUC_POINTS:
        raise InvalidInputError(f"{path}: the AUC grid would have more than "
                                f"{MAX_AUC_POINTS} thresholds")
    return cfg


def _config_from_args(args) -> RunConfig:
    cfg = load_run_config(args.config) if args.config else RunConfig()
    if getattr(args, "seed", None) is not None:
        cfg = dataclasses.replace(cfg, seed=args.seed,
                                  solver=dataclasses.replace(cfg.solver, seed=args.seed))
    return cfg


# ---------------------------------------------------------------------------
# shared helpers

def _check_topologies_match(pred: Scene, gt: Scene) -> None:
    pt, gt_t = pred.topology, gt.topology
    problems = []
    if pt.joint_count != gt_t.joint_count:
        problems.append(f"joint_count {pt.joint_count} != {gt_t.joint_count}")
    if pt.root_index != gt_t.root_index:
        problems.append(f"root_index {pt.root_index} != {gt_t.root_index}")
    if pt.parts != gt_t.parts:
        problems.append("parts differ")
    if problems:
        raise InvalidInputError("topology mismatch: " + "; ".join(problems))


def _require_finite(record: dict, prefix: str = "") -> None:
    """Raise NumericalError naming the first non-finite number of a record."""
    for key, value in sorted(record.items()):
        if isinstance(value, dict):
            _require_finite(value, f"{prefix}{key}.")
        elif not all(math.isfinite(x) for x in np.ravel(value) if isinstance(x, float)):
            raise NumericalError(f"result {prefix}{key} is non-finite")


def _emit(record: dict, fmt: str, stream=None) -> None:
    _require_finite(record)
    stream = stream or sys.stdout
    if fmt == "json":
        json.dump(record, stream, sort_keys=True, indent=2)
        stream.write("\n")
    else:
        writer = csv.writer(stream)
        for key, value in _flatten(record):
            writer.writerow([key, value])


def _flatten(record: dict, prefix: str = ""):
    rows = []
    for key in sorted(record):
        value = record[key]
        name = f"{prefix}{key}"
        if isinstance(value, dict):
            rows.extend(_flatten(value, name + "."))
        elif isinstance(value, (list, tuple)):
            rows.append((name, ";".join(_scalar_str(v) for v in value)))
        else:
            rows.append((name, _scalar_str(value)))
    return rows


def _scalar_str(value) -> str:
    if isinstance(value, (list, tuple)):
        return ":".join(_scalar_str(v) for v in value)
    if isinstance(value, float):
        return repr(value)
    return str(value)


# ---------------------------------------------------------------------------
# gen

def _gen_spec_from_args(args, seed: int) -> GenSpec:
    perturbation = None
    if args.perturb == "gauss":
        perturbation = synth.GaussNoise(args.sigma_xy, args.sigma_z)
    elif args.perturb == "depth_swap":
        pairs = []
        for token in args.swap:
            a, _, b = token.partition(",")
            pairs.append((int(a), int(b)))
        perturbation = synth.DepthSwap(tuple(pairs) or ((0, 1),))
    elif args.perturb == "root_offset":
        perturbation = synth.RootOffset(args.offset)
    return GenSpec(
        seed=seed,
        n_persons=args.persons,
        depth_range=(args.depth_min, args.depth_max),
        lateral_range=args.lateral,
        bone_scale=args.bone_scale,
        perturbation=perturbation,
        joint_jitter=args.jitter,
    )


def cmd_gen(args) -> int:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    base_seed = args.seed if args.seed is not None else 0
    for i in range(args.count):
        spec = _gen_spec_from_args(args, base_seed + i)
        scene = generate_scene(spec)
        save_scene(scene, out / f"scene_{i:03d}.json")
        if spec.perturbation is not None:
            save_scene(perturb(scene, spec), out / f"pred_{i:03d}.json")
    log.info("wrote %d scene(s) to %s", args.count, out)
    print(f"generated {args.count} scene(s) with base seed {base_seed} in {out}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# loss

def _loss_record(pred: Scene, gt: Scene, cfg: RunConfig) -> dict:
    _check_topologies_match(pred, gt)
    if pred.person_count != gt.person_count:
        raise InvalidInputError(
            f"person count mismatch: {pred.person_count} != {gt.person_count}")
    camera = gt.camera
    pairs = enumerate_pairs(gt, camera.normal, cfg.hmor)
    hl = hmor_loss(pred, pairs, config=cfg.hmor)
    anchors = gt if cfg.solver.anchor == "ground_truth" else pred

    gt_z = [p.root_depth for p in gt.persons]
    pred_norm = [p.root_depth / np.sqrt(camera.fx * camera.fy) for p in pred.persons]
    estimates = [
        DepthEstimate(
            z_init_norm=zn,
            z_eq_init=zn * np.sqrt(p.box.area / p.roi_area),
            delta=0.0,
            a_box=p.box.area,
            a_roi=p.roi_area,
        )
        for zn, p in zip(pred_norm, pred.persons)
    ]
    pose = loss_pose([p.rel_pose for p in pred.persons], [p.rel_pose for p in gt.persons])
    init = loss_init(pred_norm, gt_z, camera)
    refine_term = loss_refine(estimates, gt_z, camera)
    abs_term = loss_abs([assemble_absolute(p, pred.camera) for p in pred.persons],
                        [assemble_absolute(p, gt.camera) for p in gt.persons])
    return {
        "hmor": {"total": hl.total, "instance": hl.instance,
                 "part": hl.part, "joint": hl.joint},
        "pose": pose,
        "init": init,
        "refine": refine_term,
        "abs": abs_term,
        # the weighted objective refine minimises, its trace row 0
        "total": objective(pred, pairs, anchors, cfg.solver)[0],
    }


def cmd_loss(args) -> int:
    cfg = _config_from_args(args)
    record = _loss_record(load_scene(args.pred), load_scene(args.gt), cfg)
    _emit(record, args.format)
    return EXIT_OK


# ---------------------------------------------------------------------------
# refine

def cmd_refine(args) -> int:
    cfg = _config_from_args(args)
    solver_cfg = cfg.solver
    overrides = {}
    if args.steps is not None:
        overrides["steps"] = args.steps
    if args.step_size is not None:
        overrides["step_size"] = args.step_size
    if args.free_vars is not None:
        overrides["free_variables"] = args.free_vars
    if args.views_per_step is not None:
        overrides["views_per_step"] = args.views_per_step
    if args.no_halving:
        overrides["step_halving"] = False
    if overrides:
        solver_cfg = dataclasses.replace(solver_cfg, **overrides)

    pred = load_scene(args.pred)
    gt = load_scene(args.gt)
    _check_topologies_match(pred, gt)
    refined, trace = refine(pred, gt, solver_cfg)

    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    save_scene(refined, out)
    trace_path = Path(args.trace) if args.trace else out.with_suffix(".trace.csv")
    with open(trace_path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["step", "value", "violations"])
        for entry in trace:
            writer.writerow([entry.step, repr(entry.value), entry.violations])
    log.info("refined scene -> %s, trace -> %s", out, trace_path)
    print(f"refined {args.pred}: objective {trace[0].value!r} -> {trace[-1].value!r}, "
          f"violations {trace[0].violations} -> {trace[-1].violations}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# eval

def _report_record(report: MetricReport) -> dict:
    return {
        "mpjpe": report.mpjpe,
        "pa_mpjpe": report.pa_mpjpe,
        "abs_mpjpe": report.abs_mpjpe,
        "pck_rel": report.pck_rel,
        "pck_abs": report.pck_abs,
        "auc_rel": report.auc_rel,
        "violations": {
            "instance": report.ordinal_violations.instance,
            "part": report.ordinal_violations.part,
            "joint": report.ordinal_violations.joint,
        },
        "matched_pairs": [f"{i}-{j}" for i, j in report.matched_pairs],
        "pck_curve": [[t, rel, ab] for t, rel, ab in report.pck_curve],
    }


def _eval_one(pred_path: str, gt_path: str, threshold: float,
              thresholds: tuple) -> dict:
    pred = load_scene(pred_path)
    gt = load_scene(gt_path)
    _check_topologies_match(pred, gt)
    report = evaluate(pred, gt, pck_threshold_mm=threshold,
                      auc_thresholds_mm=np.asarray(thresholds))
    return _report_record(report)


def _eval_worker(task):
    name, pred_path, gt_path, threshold, thresholds = task
    return name, _eval_one(pred_path, gt_path, threshold, thresholds)


def _aggregate(records: list[dict]) -> dict:
    keys = ("mpjpe", "pa_mpjpe", "abs_mpjpe", "pck_rel", "pck_abs", "auc_rel")
    agg = {k: float(np.mean([r[k] for r in records])) for k in keys}
    agg["violations"] = {
        level: int(sum(r["violations"][level] for r in records))
        for level in ("instance", "part", "joint")
    }
    return agg


def cmd_eval(args) -> int:
    cfg = _config_from_args(args)
    threshold = args.threshold if args.threshold is not None else cfg.pck_threshold_mm
    thresholds = tuple(float(t) for t in cfg.auc_thresholds)
    pred_path = Path(args.pred)
    gt_path = Path(args.gt)

    if pred_path.is_dir() != gt_path.is_dir():
        raise InvalidInputError("pred and gt must both be files or both be directories")
    if pred_path.is_dir():
        names = sorted(p.name for p in pred_path.glob("*.json"))
        if not names:
            raise InvalidInputError(f"no .json scenes found in {pred_path}")
        missing = [n for n in names if not (gt_path / n).exists()]
        if missing:
            raise InvalidInputError(f"ground-truth files missing for {missing}")
        tasks = [(n, str(pred_path / n), str(gt_path / n), threshold, thresholds)
                 for n in names]
        if args.jobs > 1:
            with ProcessPoolExecutor(max_workers=args.jobs) as pool:
                results = dict(pool.map(_eval_worker, tasks))
        else:
            results = dict(map(_eval_worker, tasks))
        # fixed reduction order regardless of completion order
        ordered = [results[n] for n in names]
        record = {
            "scenes": {n: {k: v for k, v in r.items() if k != "pck_curve"}
                       for n, r in zip(names, ordered)},
            "aggregate": _aggregate(ordered),
        }
    else:
        record = _eval_one(str(pred_path), str(gt_path), threshold, thresholds)

    _emit(record, args.format)
    if args.out:
        prefix = Path(args.out)
        prefix.parent.mkdir(parents=True, exist_ok=True)
        with open(prefix.with_suffix(".json"), "w", encoding="utf-8") as fh:
            _emit(record, "json", fh)
        with open(prefix.with_suffix(".csv"), "w", newline="", encoding="utf-8") as fh:
            _emit(record, "csv", fh)
    return EXIT_OK


# ---------------------------------------------------------------------------
# gradcheck

def _jitter_all_coordinates(scene: Scene, seed: int, sigma: float = 25.0) -> Scene:
    """Perturb every free coordinate so no L1 residual or clamp argument
    sits exactly on a kink (a gradient there is not comparable to a
    finite difference)."""
    rng = np.random.default_rng(seed)
    persons = []
    for person in scene.persons:
        rel = person.rel_pose.joints.copy()
        root = person.rel_pose.root_index
        rel += rng.normal(0.0, sigma, rel.shape)
        rel[root, 2] = 0.0
        persons.append(dataclasses.replace(
            person,
            rel_pose=dataclasses.replace(person.rel_pose, joints=rel),
            root_depth=person.root_depth + rng.normal(0.0, 10.0 * sigma)))
    return dataclasses.replace(scene, persons=tuple(persons))


def cmd_gradcheck(args) -> int:
    cfg = _config_from_args(args)
    seed = cfg.seed
    results = check_function_gradients(seed=seed, points=args.points)

    gt = generate_scene(GenSpec(seed=seed, n_persons=2))
    noisy = _jitter_all_coordinates(gt, seed + 1)
    solver_cfg = dataclasses.replace(cfg.solver, free_variables="full_pose")
    for term in ("pose", "init", "refine", "hmor", "abs"):
        results[f"objective[{term}]"] = grad_check(term, noisy, gt, config=solver_cfg)

    failed = False
    print(f"{'term':<24}{'max_rel_err':>14}  status")
    for name in sorted(results):
        err = results[name]
        ok = err < GRADCHECK_TOLERANCE
        failed = failed or not ok
        print(f"{name:<24}{err:>14.3e}  {'PASS' if ok else 'FAIL'}")
    if failed:
        raise NumericalError(f"gradient check exceeded {GRADCHECK_TOLERANCE:g}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument parsing and dispatch

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hmor",
        description="Ordinal-relation losses, depth recovery, and multi-person "
                    "3D pose metrics on synthetic scenes.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="JSON run-configuration file")
        p.add_argument("--seed", type=int, default=None, help="override every seed")

    p = sub.add_parser("gen", help="generate deterministic synthetic scene files")
    common(p)
    p.add_argument("--persons", type=int, default=2)
    p.add_argument("--count", type=int, default=1, help="number of scenes")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--depth-min", type=float, default=3500.0)
    p.add_argument("--depth-max", type=float, default=7000.0)
    p.add_argument("--lateral", type=float, default=1200.0)
    p.add_argument("--bone-scale", type=float, default=1.0)
    p.add_argument("--jitter", type=float, default=20.0)
    p.add_argument("--perturb", choices=["none", "gauss", "depth_swap", "root_offset"],
                   default="none", help="also write perturbed pred_*.json files")
    p.add_argument("--sigma-xy", type=float, default=0.0)
    p.add_argument("--sigma-z", type=float, default=0.0)
    p.add_argument("--swap", action="append", default=[], metavar="A,B",
                   help="person index pair for depth_swap (repeatable)")
    p.add_argument("--offset", type=float, default=0.0, help="root_offset shift in mm")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("loss", help="ordinal and data-term losses of pred vs gt")
    common(p)
    p.add_argument("pred")
    p.add_argument("gt")
    p.add_argument("--format", choices=["json", "csv"], default="json")
    p.set_defaults(func=cmd_loss)

    p = sub.add_parser("refine", help="gradient-descent refinement of a predicted scene")
    common(p)
    p.add_argument("pred")
    p.add_argument("gt")
    p.add_argument("--out", required=True, help="refined scene file")
    p.add_argument("--trace", help="objective trace CSV (default: <out>.trace.csv)")
    p.add_argument("--steps", type=int, default=None)
    p.add_argument("--step-size", type=float, default=None)
    p.add_argument("--free-vars", choices=["root_depths_only", "full_pose"], default=None)
    p.add_argument("--views-per-step", type=int, default=None)
    p.add_argument("--no-halving", action="store_true")
    p.set_defaults(func=cmd_refine)

    p = sub.add_parser("eval", help="pose metrics of pred vs gt (files or directories)")
    common(p)
    p.add_argument("pred")
    p.add_argument("gt")
    p.add_argument("--format", choices=["json", "csv"], default="json")
    p.add_argument("--out", help="prefix; writes <out>.json and <out>.csv")
    p.add_argument("--jobs", type=int, default=1, help="parallel scene evaluation")
    p.add_argument("--threshold", type=float, default=None, help="PCK threshold in mm")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("gradcheck", help="finite-difference check of analytic gradients")
    common(p)
    p.add_argument("--points", type=int, default=100, help="random points per primitive")
    p.set_defaults(func=cmd_gradcheck)

    return parser


def _setup_logging() -> None:
    level = os.environ.get("HMOR_LOG", "error").lower()
    levels = {"error": logging.ERROR, "info": logging.INFO, "debug": logging.DEBUG}
    if level not in levels:
        raise InvalidInputError(
            f"HMOR_LOG must be one of {sorted(levels)}, got {level!r}")
    logging.basicConfig(level=levels[level], format="%(levelname)s %(name)s: %(message)s")


def main(argv=None) -> int:
    try:
        _setup_logging()
        args = build_parser().parse_args(argv)
        if getattr(args, "persons", None) is not None and args.persons < 1:
            raise InvalidInputError(f"--persons must be >= 1, got {args.persons}")
        if getattr(args, "count", None) is not None and args.count < 1:
            raise InvalidInputError(f"--count must be >= 1, got {args.count}")
        if getattr(args, "steps", None) is not None and args.steps < 1:
            raise InvalidInputError(f"--steps must be >= 1, got {args.steps}")
        if getattr(args, "jobs", None) is not None and args.jobs < 1:
            raise InvalidInputError(f"--jobs must be >= 1, got {args.jobs}")
        # a non-finite result is reported once, as exit 4, not as warnings
        with np.errstate(all="ignore"):
            return args.func(args)
    except (NumericalError, SolverError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except HmorError as exc:  # InvalidInputError and the other input errors
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
