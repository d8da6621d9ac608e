"""Benchmark of the hmor library and CLI.

    python3 perfbench/run.py --workload {refine,eval,cli} --seed N --seconds S --trace {0,1}

Run from the root of a checkout. Inputs are generated from ``--seed`` and
every op's output is checked. The last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics`` (with
``--trace 0`` the end-to-end metrics of BENCHMARK.json, with ``--trace 1``
its per-layer metrics, each with its unit). Provenance, raw samples and the
first pass's spans go to ``.perfbench_work/<workload>-<seed>-<trace>/``.
See perfbench/README.md for what each workload and metric means.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
SETUP_REPEATS = 5
IMPORT_REPEATS = 3
DEADLINE_S = 170.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
SPAN_STATS = {"calls": 0, "pairs": 1, "bytes": 1, "self_ms": 2}


class BenchError(Exception):
    pass


class Runner:
    """Starts the worker processes under one deadline for the whole run."""

    def __init__(self, env: dict, deadline: float):
        self.env = env
        self.deadline = deadline

    def _left(self) -> float:
        left = self.deadline - time.monotonic()
        if left <= 0:
            raise BenchError("run exceeded its deadline")
        return left

    def run(self, argv: list[str]) -> subprocess.CompletedProcess:
        try:
            proc = subprocess.run(argv, env=self.env, cwd=ROOT, capture_output=True,
                                  text=True, timeout=self._left())
        except subprocess.TimeoutExpired as exc:
            raise BenchError(f"{argv[1:3]} timed out") from exc
        if proc.returncode != 0:
            raise BenchError(f"{argv[1:3]} exited {proc.returncode}:\n{proc.stderr}")
        return proc

    def worker(self, *args) -> subprocess.CompletedProcess:
        return self.run([sys.executable, str(WORKER), *map(str, args)])

    def until_ready(self, *args) -> tuple[float, str]:
        """Start a worker; return seconds from start to its ``ready`` line,
        and its stderr once it has exited."""
        t0 = time.perf_counter()
        proc = subprocess.Popen([sys.executable, str(WORKER), *map(str, args)],
                                env=self.env, cwd=ROOT, stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE, text=True)
        try:
            line = proc.stdout.readline()
            ready = time.perf_counter() - t0
            _, err = proc.communicate(timeout=self._left())
        except (subprocess.TimeoutExpired, BenchError) as exc:
            proc.kill()
            proc.communicate()
            raise BenchError(f"{args[:2]} did not finish in time") from exc
        if line.strip() != "ready" or proc.returncode != 0:
            raise BenchError(f"{args[:2]} exited {proc.returncode}:\n{err}")
        return ready, err


def import_breakdown(runner: Runner) -> dict[str, float]:
    """``import.*`` in ms: a bare interpreter's wall time, and the
    cumulative ``-X importtime`` of numpy, scipy and hmor; medians."""
    floors, rows = [], []
    for _ in range(IMPORT_REPEATS):
        t0 = time.perf_counter()
        runner.run([sys.executable, "-c", "pass"])
        floors.append(1000.0 * (time.perf_counter() - t0))
        err = runner.run([sys.executable, "-X", "importtime", "-c", "import hmor"]).stderr
        rows.append(_importtime_roots(err))
    out = {"import.interpreter_ms": statistics.median(floors)}
    for key in ("numpy", "scipy", "hmor"):
        out[f"import.{key}_ms"] = statistics.median(r.get(key, 0.0) for r in rows)
    return out


def _importtime_roots(stderr: str) -> dict[str, float]:
    """Cumulative ms per top-level package, summed over the imports of that
    package not nested inside another import of the same package."""
    lines = []
    for line in stderr.splitlines():
        parts = line.split("|")
        if not line.startswith("import time:") or len(parts) != 3:
            continue
        try:
            cumulative = int(parts[1])
        except ValueError:  # the header line
            continue
        name = parts[2].rstrip()
        lines.append((len(name) - len(name.lstrip()), name.strip(), cumulative))
    totals: dict[str, float] = {}
    stack: list[tuple[int, str]] = []
    for indent, name, cumulative in reversed(lines):  # parents come after children
        while stack and stack[-1][0] >= indent:
            stack.pop()
        package = name.split(".")[0]
        if all(p != package for _, p in stack):
            totals[package] = totals.get(package, 0.0) + cumulative / 1000.0
        stack.append((indent, package))
    return totals


def end_to_end(durations: list[float], setup: list[float],
               peak_rss_kib: int) -> dict[str, float]:
    ms = [1000.0 * d for d in durations]
    return {
        "ops_per_s": 1000.0 * len(ms) / sum(ms),
        "op_ms_p50": statistics.median(ms),
        "op_ms_p90": statistics.quantiles(ms, n=10)[8],
        "setup_s": statistics.median(setup),
        "peak_rss_mib": peak_rss_kib / 1024.0,
    }


def per_layer(result: dict, workload: str, names: list[str],
              imports: dict[str, float]) -> dict[str, float]:
    """Per op over the traced passes. ``sceneio.*`` of refine and eval is
    per worker set-up, since their ops read and write no files."""
    refine_calls = result["op_layers"].get("solver.refine", [0.0])[0] * result["attempted"]
    special = {
        "solver.value_evals_per_step":
            (result["value_evals"] - refine_calls) / result["steps"] if result["steps"] else 0.0,
        "warmup.first_op_ms": result["first_op_ms"],
        "trace.overhead_frac": result["overhead_frac"],
        **{f"cli.{s}.op_ms_p50": v for s, v in result.get("cli_p50_ms", {}).items()},
        **imports,
        **result["quality"],
    }
    out = {}
    for name in names:
        span, _, stat = name.rpartition(".")
        if name in special:
            out[name] = special[name]
        elif stat in SPAN_STATS:
            io_in_setup = span.startswith("sceneio.") and workload != "cli"
            layers = result["setup_layers" if io_in_setup else "op_layers"]
            out[name] = layers.get(span, [0, 0, 0.0])[SPAN_STATS[stat]]
        else:  # a figure this workload does not produce, e.g. cli.* on refine
            out[name] = 0.0
    return out


def provenance(manifest: dict) -> dict:
    src = ROOT / "src"
    digest = hashlib.sha256()
    for path in sorted(p for p in src.rglob("*") if p.is_file() and "__pycache__" not in p.parts):
        digest.update(str(path.relative_to(src)).encode() + b"\0" + path.read_bytes())
    commit = "unknown"  # the checkout need not be a git repository
    try:
        git = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True)
        top, _, head = git.stdout.strip().partition("\n")
        if git.returncode == 0 and Path(top) == ROOT:
            commit = head
    except OSError:
        pass
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "worker_thread_env": {v: "1" for v in THREAD_VARS},
        **manifest,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "hmor" / "__init__.py").is_file() or not spec_path.is_file():
        print(f"error: {ROOT} has no src/hmor package or no BENCHMARK.json", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text(encoding="utf-8"))
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    metric_specs = spec["per_layer" if args.trace else "end_to_end"]

    workdir = ROOT / ".perfbench_work" / f"{args.workload}-{args.seed}-{args.trace}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), **{v: "1" for v in THREAD_VARS})
    runner = Runner(env, time.monotonic() + DEADLINE_S)
    common = (args.workload, args.seed, workdir)
    try:
        manifest = json.loads(runner.worker("prep", *common).stdout)
        setup = [runner.until_ready("probe", *common)[0]
                 for _ in range(0 if args.trace else SETUP_REPEATS - 1)]
        ready, err = runner.until_ready("run", *common, args.seconds, args.trace)
        setup.append(ready)
        sys.stderr.write(err)
        worker_file = workdir / "worker.json"
        result = json.loads(worker_file.read_text(encoding="utf-8"))
        worker_file.unlink()
        if args.trace:
            values = per_layer(result, args.workload, [m["name"] for m in metric_specs],
                               import_breakdown(runner))
        else:
            values = end_to_end(result["durations"], setup, result["peak_rss_kib"])
        record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                  "trace": args.trace, "provenance": provenance(manifest),
                  "setup_wall_s": setup, "metrics": values, "worker": result}
        if not args.trace:
            record["wall_metrics"] = end_to_end(result["wall_durations"], setup,
                                                result["peak_rss_kib"])
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    (workdir / "record.json").write_text(json.dumps(record), encoding="utf-8")

    for problem in result["failures"][:10]:
        print(f"failed {problem}", file=sys.stderr)
    if result.get("absent"):
        print(f"absent (reported as 0): {', '.join(result['absent'])}", file=sys.stderr)
    print(f"inputs sha256 recorded in {workdir / 'record.json'}", file=sys.stderr)
    failed = len(result["failures"])
    print(json.dumps({
        "correct": failed == 0,
        "attempted": result["attempted"],
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in metric_specs},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
