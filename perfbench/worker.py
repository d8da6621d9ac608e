"""One benchmark process. ``run.py`` starts it with ``PYTHONPATH`` on the
checkout's ``src`` and every BLAS thread count set to 1.

    worker.py prep  <workload> <seed> <workdir>   write the inputs, print a manifest
    worker.py probe <workload> <seed> <workdir>   import hmor, load the inputs, exit
    worker.py run   <workload> <seed> <workdir> <seconds> <trace>

``probe`` and ``run`` print ``ready`` once hmor is imported and the inputs
are loaded, which is where ``setup_s`` ends. ``run`` writes its samples to
``<workdir>/worker.json``.
"""

from __future__ import annotations

import hashlib
import json
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

import calibration

MIN_OPS = 4
WARMUP_OP = -2  # op id of the untimed first op; setup spans carry op id -1


def _import_hmor(root: Path):
    import hmor
    src = (root / "src").resolve()
    if src not in Path(hmor.__file__).resolve().parents:
        raise SystemExit(f"hmor was imported from {hmor.__file__}, not from {src}")
    return hmor


def _timed_loop(op, kernel, seconds: float, cycle: int):
    """Closed loop, one client: op i starts when op i-1 returns, after one
    run of the calibration ``kernel``. Stops after ``seconds`` at the end of a
    cycle of the workload's op kinds, so every kind is equally represented.
    Returns (outputs as (i, result or exception), per-op seconds, kernel
    seconds before each op)."""
    outputs, durations, kernels = [], [], []
    start = time.perf_counter()
    i = 0
    while True:
        kernels.append(kernel())
        t0 = time.perf_counter()
        try:
            out = op(i)
        except Exception as exc:  # an op that raises is a failed op
            traceback.print_exc(file=sys.stderr)
            out = exc
        t1 = time.perf_counter()
        outputs.append((i, out))
        durations.append(t1 - t0)
        i += 1
        if t1 - start >= seconds and i >= MIN_OPS and i % cycle == 0:
            return outputs, durations, kernels


def _failures(w, outputs) -> list[str]:
    """One entry per failed op; a failed run-level check fails every op."""
    run_problem = w.check_run(outputs)
    if run_problem:
        return [f"run: {run_problem}"] * len(outputs)
    first: dict = {}
    problems = []
    for i, out in outputs:
        if isinstance(out, BaseException):
            problems.append(f"op {i}: raised {out!r}")
            continue
        reason = w.check(i, out, first)
        if reason:
            problems.append(f"op {i}: {reason}")
    return problems


def _per_op(totals: dict, n: int) -> dict:
    return {name: [calls / n, work / n, 1000.0 * self_s / n]
            for name, (calls, work, self_s) in totals.items()}


def _traced(w, workload: str, seconds: float, tracer, result: dict) -> list:
    """Whole passes with the wrappers on for half of ``seconds``, then the
    same ops again with them off."""
    import tracing

    if workload == "cli":
        w.out_dir = w.workdir / "ops_cold"
        cold, durations, _ = _timed_loop(w.op_cold, calibration.process_kernel,
                                         seconds, w.cycle)
        by_sub: dict[str, list] = {}
        for (i, _), d in zip(cold, durations):
            by_sub.setdefault(w.subcommand(i), []).append(1000.0 * d)
        result["cli_p50_ms"] = {s: statistics.median(v) for s, v in by_sub.items()}
        w.out_dir = w.workdir / "ops_traced"

    tracer.op = WARMUP_OP
    t0 = time.perf_counter()
    w.op(0)
    result["first_op_ms"] = 1000.0 * (time.perf_counter() - t0)

    outputs = []
    start = time.perf_counter()
    while True:
        for i in range(len(outputs), len(outputs) + w.pass_len):
            tracer.op = i
            span = tracer.begin("op")
            try:
                out = w.op(i)
            except Exception as exc:
                traceback.print_exc(file=sys.stderr)
                out = exc
            tracer.end(span)
            outputs.append((i, out))
        if time.perf_counter() - start >= seconds / 2:
            break
    traced_wall = time.perf_counter() - start
    tracer.uninstall()

    if workload == "cli":
        w.out_dir = w.workdir / "ops_replay"
    start = time.perf_counter()
    for i, _ in outputs:
        w.op(i)
    result["overhead_frac"] = traced_wall / (time.perf_counter() - start) - 1.0

    n = len(outputs)
    spans = tracer.spans
    result["op_layers"] = _per_op(tracing.layer_totals(spans, range(n)), n)
    result["setup_layers"] = _per_op(tracing.layer_totals(spans, [-1]), 1)
    result["value_evals"] = sum(c for (name, op), c in tracer.counters.items()
                                if name == "solver.value_evals" and 0 <= op < n)
    result["steps"] = sum(w.steps(i) for i, _ in outputs)
    result["absent"] = tracer.absent
    first_pass = [s for s in spans if s[4] < w.pass_len]
    result["spans_first_pass"] = first_pass
    return outputs


def main(argv: list[str]) -> int:
    mode, workload, seed, workdir = argv[0], argv[1], int(argv[2]), Path(argv[3])
    root = Path(__file__).resolve().parent.parent
    hmor = _import_hmor(root)
    import workloads
    w = workloads.WORKLOADS[workload](seed, workdir)

    if mode == "prep":
        import numpy
        import scipy
        files = w.prepare()
        print(json.dumps({
            "inputs": {str(p.relative_to(workdir)): hashlib.sha256(p.read_bytes()).hexdigest()
                       for p in files},
            "versions": {"python": sys.version.split()[0], "numpy": numpy.__version__,
                         "scipy": scipy.__version__, "hmor": hmor.__version__},
        }))
        return 0

    trace = mode == "run" and argv[5] == "1"
    tracer = None
    if trace:
        import tracing
        tracer = tracing.Tracer()
        tracer.install()
    w.setup()
    print("ready", flush=True)
    if mode == "probe":
        return 0

    seconds = float(argv[4])
    result: dict = {}
    if trace:
        outputs = _traced(w, workload, seconds, tracer, result)
    else:
        if w.in_process:
            w.op(0)  # let lazy set-up finish before timing
            op, kernel, reference = w.op, calibration.kernel, calibration.REFERENCE_S
        else:
            w.out_dir = workdir / "ops_cold"
            op, kernel = w.op_cold, calibration.process_kernel
            reference = calibration.PROCESS_REFERENCE_S
        outputs, durations, kernels = _timed_loop(op, kernel, seconds, w.cycle)
        result.update(durations=calibration.scaled(durations, kernels, reference),
                      wall_durations=durations, kernels=kernels)
    usage = resource.RUSAGE_SELF if w.in_process else resource.RUSAGE_CHILDREN
    result["peak_rss_kib"] = resource.getrusage(usage).ru_maxrss
    result["failures"] = _failures(w, outputs)
    result["attempted"] = len(outputs)
    result["quality"] = w.quality(outputs)
    (workdir / "worker.json").write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
