"""Command-line entry point.

Subcommands: gen (synthetic scene files), loss (the unweighted terms of
the objective under the config's anchor, and their weighted sum, which
is refine's trace row 0), refine (gradient-descent refinement with an
objective trace), eval (pose metrics), and gradcheck (each objective
term's analytic gradient against central differences at random scenes).

Exit codes: 0 success, 2 validation error, 3 I/O error, 4 numerical error
(a non-finite result or objective, or a failed gradient check). Set
HMOR_LOG={error,info,debug} to control verbosity.
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
import typing
from pathlib import Path

import numpy as np

from .errors import HmorError, InvalidInputError, NumericalError
from .sceneio import load_scene, save_scene

if typing.TYPE_CHECKING:
    from .metrics import MetricReport
    from .ordinal import HmorConfig
    from .solver import SolverConfig
    from .synth import GenSpec

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_IO = 3
EXIT_NUMERIC = 4

GRADCHECK_TOLERANCE = 1e-5
MAX_AUC_POINTS = 100_000
_AUC_KEYS = ("auc_min_mm", "auc_max_mm", "auc_step_mm")  # DEFAULT_AUC_GRID_MM's order

log = logging.getLogger("hmor")


# ---------------------------------------------------------------------------
# run configuration file

def _json_type_ok(value, hint) -> bool:
    """Whether a JSON value fits a field annotation: a bool only where
    bool is allowed, an integer wherever a float is."""
    if isinstance(value, bool):
        return hint is bool
    return isinstance(value, hint) or (isinstance(value, int) and hint is float)


def _build_strict(cls, kwargs: dict, context: str):
    hints = typing.get_type_hints(cls)
    unknown = set(kwargs) - set(hints)
    if unknown:
        raise InvalidInputError(f"{context} has unknown keys {sorted(unknown)}")
    for key, value in kwargs.items():
        if not _json_type_ok(value, hints[key]):
            raise InvalidInputError(f"{context}.{key} must be {hints[key].__name__}, "
                                    f"got {value!r}")
    try:
        return cls(**kwargs)
    except InvalidInputError as exc:
        raise InvalidInputError(f"{context}: {exc}") from None


@dataclasses.dataclass(frozen=True)
class RunConfig:
    """A run configuration. ``hmor``, ``solver``, ``pck_threshold_mm``
    and the ``auc_*_mm`` grid are None where no file sets them, and stand
    for the defaults of ``HmorConfig``, ``SolverConfig`` and
    ``hmor.metrics``; a subcommand fills in only those it reads, so it
    loads no module it does not run. A file that sets one ``auc_*_mm``
    key gets the other two from ``hmor.metrics.DEFAULT_AUC_GRID_MM``."""

    hmor: HmorConfig | None = None
    solver: SolverConfig | None = None
    pck_threshold_mm: float | None = None
    auc_min_mm: float | None = None
    auc_max_mm: float | None = None
    auc_step_mm: float | None = None
    seed: int = 0

    @property
    def auc_thresholds(self) -> np.ndarray | None:
        """The file's AUC grid, or None for ``hmor.metrics``' default."""
        if self.auc_min_mm is None:
            return None
        from .metrics import auc_grid
        return auc_grid(self.auc_min_mm, self.auc_max_mm, self.auc_step_mm)


def load_run_config(path) -> RunConfig:
    from .ordinal import HmorConfig
    from .solver import SolverConfig
    try:
        data = json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise InvalidInputError(f"{path}: not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise InvalidInputError(f"{path}: a run configuration must be a JSON object")
    allowed = {"hmor", "solver", "metrics", "seed"}
    unknown = set(data) - allowed
    if unknown:
        raise InvalidInputError(f"{path}: unknown config sections {sorted(unknown)}")
    for section in ("hmor", "solver", "metrics"):
        if not isinstance(data.get(section, {}), dict):
            raise InvalidInputError(f"{path}: {section} must be an object")
    hmor_cfg = _build_strict(HmorConfig, data.get("hmor", {}), f"{path}: hmor")
    solver_cfg = dataclasses.replace(
        _build_strict(SolverConfig, data.get("solver", {}), f"{path}: solver"), hmor=hmor_cfg)
    metrics = data.get("metrics", {})
    unknown = set(metrics) - {"pck_threshold_mm", *_AUC_KEYS}
    if unknown:
        raise InvalidInputError(f"{path}: unknown metrics keys {sorted(unknown)}")
    for key, value in metrics.items():
        if not _json_type_ok(value, float) or not math.isfinite(value):
            raise InvalidInputError(f"{path}: metrics.{key} must be a finite number, "
                                    f"got {value!r}")
        if value <= 0:
            what = "step" if key == "auc_step_mm" else "threshold"
            raise InvalidInputError(f"{path}: metrics.{key}: {what} must be positive, "
                                    f"got {value!r}")
    seed = data.get("seed", 0)
    if not _json_type_ok(seed, int) or seed < 0:
        raise InvalidInputError(f"{path}: seed must be an integer >= 0, got {seed!r}")
    metrics = {k: float(v) for k, v in metrics.items()}
    if metrics.keys() & set(_AUC_KEYS):
        from .metrics import DEFAULT_AUC_GRID_MM
        metrics = {**dict(zip(_AUC_KEYS, DEFAULT_AUC_GRID_MM)), **metrics}
    cfg = RunConfig(hmor=hmor_cfg, solver=solver_cfg, seed=seed, **metrics)
    if cfg.auc_min_mm is None:
        return cfg
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
    if args.seed is not None:
        cfg = dataclasses.replace(cfg, seed=args.seed)
    return cfg


def _solver_config(args, cfg: RunConfig) -> SolverConfig:
    """The run's solver section (``SolverConfig()`` if no file sets it),
    with ``--seed`` applied."""
    from .solver import SolverConfig
    solver = cfg.solver or SolverConfig()
    return solver if args.seed is None else dataclasses.replace(solver, seed=args.seed)


# ---------------------------------------------------------------------------
# shared helpers

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
    from .synth import DepthSwap, GaussNoise, GenSpec, RootOffset
    perturbation = None
    if args.perturb == "gauss":
        if args.sigma_xy is None and args.sigma_z is None:
            raise InvalidInputError("--perturb gauss needs --sigma-xy or --sigma-z; "
                                    "without either the predictions equal the scenes")
        perturbation = GaussNoise(args.sigma_xy or 0.0, args.sigma_z or 0.0)
    elif args.perturb == "depth_swap":
        pairs = []
        for token in args.swap:
            a, _, b = token.partition(",")
            try:
                pairs.append((int(a), int(b)))
            except ValueError:
                raise InvalidInputError(
                    f"--swap takes two person indices A,B, got {token!r}") from None
        perturbation = DepthSwap(tuple(pairs) or ((0, 1),))
        for a, b in perturbation.pairs:
            if not (0 <= a < args.persons and 0 <= b < args.persons):
                raise InvalidInputError(
                    f"--swap pair {a},{b} is out of range for {args.persons} persons")
    elif args.perturb == "root_offset":
        perturbation = RootOffset(args.offset)
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
    from .synth import generate_scene, perturb
    out = Path(args.out)
    base_seed = _config_from_args(args).seed
    _gen_spec_from_args(args, base_seed)  # bad arguments fail before the directory is made
    out.mkdir(parents=True, exist_ok=True)
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

def cmd_loss(args) -> int:
    from .solver import objective_terms
    solver_cfg = _solver_config(args, _config_from_args(args))
    pred, gt = load_scene(args.pred), load_scene(args.gt)
    terms = objective_terms(pred, gt, solver_cfg)
    record = {name: terms[name] for name in ("pose", "init", "refine", "abs", "total")}
    record["hmor"] = {level: terms[f"hmor.{level}"] for level in ("instance", "part", "joint")}
    record["hmor"]["total"] = terms["hmor"]
    _emit(record, args.format)
    return EXIT_OK


# ---------------------------------------------------------------------------
# refine

def cmd_refine(args) -> int:
    from .solver import refine
    solver_cfg = _solver_config(args, _config_from_args(args))
    overrides = {}
    if args.steps is not None:
        overrides["steps"] = args.steps
    if args.step_size is not None:
        overrides["step_size"] = args.step_size
    if args.free_vars is not None:
        overrides["free_variables"] = args.free_vars
    if args.views_per_step is not None:
        overrides["views_per_step"] = args.views_per_step
    if overrides:
        solver_cfg = dataclasses.replace(solver_cfg, **overrides)

    pred = load_scene(args.pred)
    gt = load_scene(args.gt)
    refined, trace = refine(pred, gt, solver_cfg)

    out = Path(args.out)
    # the default trace replaces a .json suffix and keeps any other (run.v2 -> run.v2.trace.csv)
    trace_path = Path(args.trace) if args.trace else out.with_name(
        (out.stem if out.suffix == ".json" else out.name) + ".trace.csv")
    for path in (out, trace_path):
        path.parent.mkdir(parents=True, exist_ok=True)
    save_scene(refined, out)
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
              thresholds: np.ndarray | None, hmor_cfg: HmorConfig | None) -> dict:
    from .metrics import evaluate
    pred = load_scene(pred_path)
    gt = load_scene(gt_path)
    report = evaluate(pred, gt, pck_threshold_mm=threshold,
                      auc_thresholds_mm=thresholds, config=hmor_cfg)
    return _report_record(report)


def _eval_worker(task):
    name, *args = task
    return name, _eval_one(*args)


def _aggregate(records: list[dict]) -> dict:
    keys = ("mpjpe", "pa_mpjpe", "abs_mpjpe", "pck_rel", "pck_abs", "auc_rel")
    agg = {k: float(np.mean([r[k] for r in records])) for k in keys}
    agg["violations"] = {
        level: int(sum(r["violations"][level] for r in records))
        for level in ("instance", "part", "joint")
    }
    return agg


def cmd_eval(args) -> int:
    from .metrics import DEFAULT_PCK_THRESHOLD_MM
    cfg = _config_from_args(args)
    threshold = next((t for t in (args.threshold, cfg.pck_threshold_mm) if t is not None),
                     DEFAULT_PCK_THRESHOLD_MM)
    thresholds = cfg.auc_thresholds
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
        tasks = [(n, str(pred_path / n), str(gt_path / n), threshold, thresholds, cfg.hmor)
                 for n in names]
        # a fork pool starts every worker at the first submit: no more than
        # there are scenes or CPUs
        jobs = min(args.jobs, len(tasks), os.cpu_count() or 1)
        if jobs > 1:
            from concurrent.futures import ProcessPoolExecutor
            with ProcessPoolExecutor(max_workers=jobs) as pool:
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
        record = _eval_one(str(pred_path), str(gt_path), threshold, thresholds, cfg.hmor)

    _emit(record, args.format)
    if args.out:
        json_path, csv_path = Path(f"{args.out}.json"), Path(f"{args.out}.csv")
        json_path.parent.mkdir(parents=True, exist_ok=True)
        with open(json_path, "w", encoding="utf-8") as fh:
            _emit(record, "json", fh)
        with open(csv_path, "w", newline="", encoding="utf-8") as fh:
            _emit(record, "csv", fh)
    return EXIT_OK


# ---------------------------------------------------------------------------
# gradcheck

def cmd_gradcheck(args) -> int:
    from .solver import _gradcheck_point, grad_check
    cfg = _config_from_args(args)
    rng = np.random.default_rng(cfg.seed)
    base = _solver_config(args, cfg)
    errors = [grad_check(pred, gt, config=solver_cfg) for pred, gt, solver_cfg in
              (_gradcheck_point(rng, i, base) for i in range(args.points))]
    worst = {term: float(np.max([e[term] for e in errors])) for term in errors[0]}  # NaN stays
    print(f"{'term':<24}{'max_rel_err':>14}  status")
    for term, err in worst.items():
        print(f"{f'objective[{term}]':<24}{err:>14.3e}  "
              f"{'PASS' if err < GRADCHECK_TOLERANCE else 'FAIL'}")
    if not all(err < GRADCHECK_TOLERANCE for err in worst.values()):
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
    p.add_argument("--sigma-xy", type=float, help="gauss lateral noise in mm (default 0)")
    p.add_argument("--sigma-z", type=float, help="gauss depth noise in mm (default 0)")
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
    p.add_argument("--trace", help="objective trace CSV (default: <out> with a .json suffix "
                                   "replaced, or any other kept, and .trace.csv added)")
    p.add_argument("--steps", type=int, default=None)
    p.add_argument("--step-size", type=float, default=None)
    p.add_argument("--free-vars", choices=["root_depths_only", "full_pose"], default=None)
    p.add_argument("--views-per-step", type=int, default=None,
                   help="views the ordinal term averages over: the camera normal plus "
                        "k - 1 seeded views, drawn once per run")
    p.set_defaults(func=cmd_refine)

    p = sub.add_parser("eval", help="pose metrics of pred vs gt (files or directories)")
    common(p)
    p.add_argument("pred")
    p.add_argument("gt")
    p.add_argument("--format", choices=["json", "csv"], default="json")
    p.add_argument("--out", help="prefix; writes <out>.json and <out>.csv")
    p.add_argument("--jobs", type=int, default=1,
                   help="parallel scene evaluation, at most one worker per scene and CPU")
    p.add_argument("--threshold", type=float, default=None, help="PCK threshold in mm")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("gradcheck", help="finite-difference check of analytic gradients")
    common(p)
    p.add_argument("--points", type=int, default=100, help="random scenes checked")
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
        for name, least in (("persons", 1), ("count", 1), ("steps", 1), ("jobs", 1),
                            ("points", 1), ("seed", 0)):
            value = getattr(args, name, None)
            if value is not None and value < least:
                raise InvalidInputError(f"--{name} must be >= {least}, got {value}")
        # a non-finite result is reported once, as exit 4, not as warnings
        with np.errstate(all="ignore"):
            return args.func(args)
    except NumericalError as exc:
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
