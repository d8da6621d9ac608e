"""The three workloads: their inputs, one op, and the check of an op's output.

Inputs are scene files generated from the workload seed before any timing.
Op ``i`` of a workload always uses input ``i % len(inputs)`` (for ``cli``,
subcommand ``i % 4`` on input ``(i // 4) % len(inputs)``), so a pass of
``pass_len`` ops repeats exactly and per-op counts over whole passes do not
depend on how many passes a run makes.

Every function of ``hmor`` an op calls is looked up at call time through
the module attribute, so the wrappers in ``tracing`` see the call.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import subprocess
import sys
from pathlib import Path

import numpy as np

import hmor
import hmor.cli
import reference

REFINE_INPUTS = 32
REFINE_STEPS = 10
EVAL_SIZES = (2, 4, 8, 8, 16)  # the median op falls inside the N=8 group
EVAL_ROUNDS = 4
CLI_INPUTS = 4
CLI_REFINE_STEPS = 50
CLI_SUBCOMMANDS = ("gen", "loss", "refine", "eval")
TRACE_HEADER = "step,value,violations"


def _spec_seed(seed: int, k: int) -> int:
    return seed * 1000 + k


class _Workload:
    """Inputs are pairs (pred_k.json, gt_k.json) under ``workdir/inputs``."""

    in_process = True
    pass_len = 0  # ops in one pass over every distinct input
    cycle = 1  # ops in one round of the op kinds (person counts, subcommands)

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir
        self.input_dir = workdir / "inputs"
        self.inputs: list[tuple] = []

    def specs(self) -> list:
        raise NotImplementedError

    def prepare(self) -> list[Path]:
        """Write the input files; return them in a fixed order."""
        self.input_dir.mkdir(parents=True, exist_ok=True)
        files = []
        for k, spec in enumerate(self.specs()):
            gt = hmor.generate_scene(spec)
            for name, scene in (("gt", gt), ("pred", hmor.perturb(gt, spec))):
                path = self.input_dir / f"{name}_{k:03d}.json"
                hmor.save_scene(scene, path)
                files.append(path)
        return files

    def setup(self) -> None:
        self.inputs = [(hmor.load_scene(self.input_dir / f"pred_{k:03d}.json"),
                        hmor.load_scene(self.input_dir / f"gt_{k:03d}.json"))
                       for k in range(len(self.specs()))]

    def steps(self, i: int) -> int:
        """Solver steps op ``i`` runs."""
        return 0

    def quality(self, outputs) -> dict[str, float]:
        """Error left in refined scenes as a share of the error in their
        inputs, over the distinct inputs refined (absent when none was)."""
        return {}

    def check_run(self, outputs) -> str | None:
        """A check on the run's outputs taken together."""
        return None


def _quality(refined: dict, inputs) -> dict[str, float]:
    """``refined`` maps input index to (refined scene, first trace
    violations, last trace violations)."""
    if not refined:
        return {}
    err_in = err_out = 0.0
    vio_in = vio_out = 0
    for k, (scene, first, last) in refined.items():
        pred, gt = inputs[k]
        err_in += reference.abs_mpjpe(pred, gt)
        err_out += reference.abs_mpjpe(scene, gt)
        vio_in += first
        vio_out += last
    return {"solver.abs_mpjpe_ratio": err_out / err_in,
            "solver.violations_left_frac": vio_out / vio_in if vio_in else 0.0}


class Refine(_Workload):
    """``hmor.refine`` on one 4-person noisy scene, 10 steps of 4 views."""

    pass_len = REFINE_INPUTS

    def specs(self):
        return [hmor.GenSpec(seed=_spec_seed(self.seed, k), n_persons=4,
                             perturbation=hmor.GaussNoise(sigma_z=300.0))
                for k in range(REFINE_INPUTS)]

    def config(self, k: int):
        return hmor.SolverConfig(steps=REFINE_STEPS, views_per_step=4, seed=self.seed + k)

    def op(self, i: int):
        k = i % len(self.inputs)
        pred, gt = self.inputs[k]
        return hmor.refine(pred, gt, self.config(k))

    def steps(self, i: int) -> int:
        return REFINE_STEPS

    def check(self, i: int, out, first: dict) -> str | None:
        k = i % len(self.inputs)
        pred, gt = self.inputs[k]
        scene, trace = out
        joints = reference.absolute_joints(scene)
        if not (np.isfinite(joints).all() and all(math.isfinite(e.value) for e in trace)):
            return "non-finite refined scene or trace"
        if len(trace) != REFINE_STEPS + 1:
            return f"trace has {len(trace)} rows"
        if reference.violations(pred, gt) != trace[0].violations:
            return "initial trace violations differ from the reference count"
        if reference.violations(scene, gt) != trace[-1].violations:
            return "refined scene's violations differ from the trace's final count"
        if k not in first:
            pairs = hmor.enumerate_pairs(gt, gt.camera.normal)
            if hmor.hmor_loss(gt, pairs).total != 0.0:
                return "ground truth has non-zero loss under the camera normal"
            first[k] = joints
        elif not np.array_equal(first[k], joints):
            return "same input and seed gave a different refined scene"
        return None

    def check_run(self, outputs) -> str | None:
        # Not per op: it does not hold per op (with seed 4, input 2 goes from
        # 0 violations to 1 while its objective falls).
        if self.quality(outputs).get("solver.violations_left_frac", 0.0) > 1.0:
            return "refinement increased violations summed over the inputs"
        return None

    def quality(self, outputs):
        refined = {}
        for i, out in outputs:
            k = i % len(self.inputs)
            if k not in refined and not isinstance(out, BaseException):
                scene, trace = out
                refined[k] = (scene, trace[0].violations, trace[-1].violations)
        return _quality(refined, self.inputs)


class Eval(_Workload):
    """``hmor.evaluate`` with default thresholds on one noisy pair; the
    person count cycles through ``EVAL_SIZES``."""

    pass_len = len(EVAL_SIZES) * EVAL_ROUNDS
    cycle = len(EVAL_SIZES)

    def specs(self):
        return [hmor.GenSpec(seed=_spec_seed(self.seed, k),
                             n_persons=EVAL_SIZES[k % len(EVAL_SIZES)],
                             perturbation=hmor.GaussNoise(30.0, 300.0))
                for k in range(self.pass_len)]

    def op(self, i: int):
        pred, gt = self.inputs[i % len(self.inputs)]
        return hmor.evaluate(pred, gt)

    def check(self, i: int, report, first: dict) -> str | None:
        pred, gt = self.inputs[i % len(self.inputs)]
        curve = np.asarray(report.pck_curve, dtype=float)
        scalars = np.array([report.mpjpe, report.pa_mpjpe, report.abs_mpjpe,
                            report.pck_rel, report.pck_abs, report.auc_rel])
        if not (np.isfinite(scalars).all() and np.isfinite(curve).all()):
            return "non-finite number in the report"
        pcks = np.concatenate([[report.pck_rel, report.pck_abs], curve[:, 1:].ravel()])
        if pcks.min() < 0.0 or pcks.max() > 100.0:
            return "PCK outside [0, 100]"
        if abs(report.auc_rel - curve[:, 1].mean()) > 1e-9:
            return "auc_rel differs from the mean of the root PCK curve"
        if len(report.matched_pairs) != gt.person_count:
            return f"{len(report.matched_pairs)} matched pairs for {gt.person_count} persons"
        ref = reference.abs_mpjpe(pred, gt, report.matched_pairs)
        if abs(report.abs_mpjpe - ref) > 1e-9 * ref:
            return "abs_mpjpe differs from the reference"
        return None


class Cli(_Workload):
    """One ``python -m hmor.cli`` process per op, cycling gen, loss,
    refine and eval on 2-person input pairs. Traced runs call
    ``hmor.cli.main`` in-process with the same argv."""

    in_process = False
    pass_len = len(CLI_SUBCOMMANDS) * CLI_INPUTS
    cycle = len(CLI_SUBCOMMANDS)
    out_dir = Path()  # where the ops write; set before each loop

    def specs(self):
        return [hmor.GenSpec(seed=_spec_seed(self.seed, k), n_persons=2,
                             perturbation=hmor.GaussNoise(30.0, 300.0))
                for k in range(CLI_INPUTS)]

    def subcommand(self, i: int) -> str:
        return CLI_SUBCOMMANDS[i % len(CLI_SUBCOMMANDS)]

    def steps(self, i: int) -> int:
        return CLI_REFINE_STEPS if self.subcommand(i) == "refine" else 0

    def argv(self, i: int) -> list[str]:
        k = (i // len(CLI_SUBCOMMANDS)) % CLI_INPUTS
        pred = str(self.input_dir / f"pred_{k:03d}.json")
        gt = str(self.input_dir / f"gt_{k:03d}.json")
        op_dir = self.out_dir / f"{i:05d}"
        return {
            "gen": ["gen", "--seed", str(_spec_seed(self.seed, k)), "--persons", "2",
                    "--perturb", "gauss", "--sigma-xy", "30", "--sigma-z", "300",
                    "--out", str(op_dir)],
            "loss": ["loss", pred, gt],
            "refine": ["refine", pred, gt, "--out", str(op_dir / "refined.json"),
                       "--trace", str(op_dir / "trace.csv"),
                       "--steps", str(CLI_REFINE_STEPS)],
            "eval": ["eval", pred, gt],
        }[self.subcommand(i)]

    def op_cold(self, i: int):
        argv = self.argv(i)
        proc = subprocess.run([sys.executable, "-m", "hmor.cli", *argv],
                              capture_output=True, text=True, timeout=60)
        return proc.returncode, proc.stdout, argv

    def op(self, i: int):
        argv = self.argv(i)
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            code = hmor.cli.main(argv)
        return code, stdout.getvalue(), argv

    def check(self, i: int, out, first: dict) -> str | None:
        code, stdout, argv = out
        if code != 0:
            return f"exit code {code}"
        k = (i // len(CLI_SUBCOMMANDS)) % CLI_INPUTS
        sub = self.subcommand(i)
        if sub in ("loss", "eval"):
            try:
                json.loads(stdout)
            except json.JSONDecodeError:
                return f"{sub} stdout is not JSON"
        elif sub == "refine":
            trace = Path(argv[argv.index("--trace") + 1]).read_text(encoding="utf-8")
            if trace.splitlines()[0] != TRACE_HEADER:
                return "refine trace header is not " + TRACE_HEADER
        else:
            out_dir = Path(argv[argv.index("--out") + 1])
            for made, expected in (("scene_000.json", f"gt_{k:03d}.json"),
                                   ("pred_000.json", f"pred_{k:03d}.json")):
                if (out_dir / made).read_bytes() != (self.input_dir / expected).read_bytes():
                    return f"gen {made} differs from save_scene(generate_scene(spec))"
        return None

    def quality(self, outputs):
        refined = {}
        for i, out in outputs:
            k = (i // len(CLI_SUBCOMMANDS)) % CLI_INPUTS
            if self.subcommand(i) != "refine" or k in refined or out[0] != 0:
                continue
            argv = out[2]
            rows = Path(argv[argv.index("--trace") + 1]).read_text(encoding="utf-8").split()
            scene = hmor.load_scene(argv[argv.index("--out") + 1])
            refined[k] = (scene, int(rows[1].split(",")[2]), int(rows[-1].split(",")[2]))
        return _quality(refined, self.inputs)


WORKLOADS = {"refine": Refine, "eval": Eval, "cli": Cli}
