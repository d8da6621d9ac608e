"""Smoke test of the benchmark itself, on tiny runs. From the checkout root:

    python3 perfbench/smoke.py

Checks that every metric named in BENCHMARK.json is emitted with its unit
and that no op fails; that corrupted outputs are counted as failures; that
the self times of a traced op's span tree add up to the op's wall time; and
that the benchmark refuses to run without the program's sources. Exits 1
on the first failed check. Takes about two minutes.
"""

from __future__ import annotations

import dataclasses
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEED = 3
WORK = ROOT / ".perfbench_work"


def bench(*args, cwd=ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=600)


def check(ok: bool, what: str) -> None:
    print(("ok   " if ok else "FAIL ") + what, flush=True)
    if not ok:
        sys.exit(1)


def check_metrics(spec: dict) -> None:
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, key in (("0", "end_to_end"), ("1", "per_layer")):
            proc = bench("--workload", workload, "--seed", str(SEED), "--seconds", "1",
                         "--trace", trace)
            check(proc.returncode == 0, f"{workload} trace={trace} exits 0"
                  + ("" if proc.returncode == 0 else "\n" + proc.stderr))
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            check(set(result) == {"correct", "attempted", "failed", "metrics"},
                  f"{workload} trace={trace} result keys")
            want = {m["name"]: m["unit"] for m in spec[key]}
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            check(got == want, f"{workload} trace={trace} emits every {key} metric with its unit")
            check(all(isinstance(m["value"], (int, float)) and math.isfinite(m["value"])
                      for m in result["metrics"].values()),
                  f"{workload} trace={trace} values are finite numbers")
            check(result["attempted"] >= 1 and result["failed"] == 0 and result["correct"],
                  f"{workload} trace={trace}: 0 of {result['attempted']} ops failed")


def check_corruption() -> None:
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import workloads

    workdir = WORK / "smoke"
    shutil.rmtree(workdir, ignore_errors=True)

    w = workloads.Refine(SEED, workdir)
    w.prepare()
    w.setup()
    scene, trace = w.op(0)
    check(w.check(0, (scene, trace), {}) is None, "refine: a true output passes its check")
    persons = list(scene.persons)
    persons[1] = dataclasses.replace(persons[1], root_depth=persons[1].root_depth + 2000.0)
    shifted = dataclasses.replace(scene, persons=tuple(persons))
    check(w.check(0, (shifted, trace), {}) is not None,
          "refine: a refined scene with one root depth shifted fails its check")

    w = workloads.Eval(SEED, workdir)
    w.prepare()
    w.setup()
    report = w.op(1)
    check(w.check(1, report, {}) is None, "eval: a true report passes its check")
    check(w.check(1, dataclasses.replace(report, auc_rel=report.auc_rel + 0.5), {}) is not None,
          "eval: a report whose auc_rel disagrees with its curve fails its check")

    w = workloads.Cli(SEED, workdir)
    w.prepare()
    w.out_dir = workdir / "ops"
    out = w.op(0)
    check(w.check(0, out, {}) is None, "cli: a true gen output passes its check")
    made = w.out_dir / "00000" / "pred_000.json"
    made.write_text(made.read_text(encoding="utf-8").replace("1", "2", 1), encoding="utf-8")
    check(w.check(0, out, {}) is not None, "cli: an altered gen output fails its check")


def check_span_tree() -> None:
    import tracing

    record = json.loads((WORK / f"refine-{SEED}-1" / "record.json").read_text(encoding="utf-8"))
    spans = record["worker"]["spans_first_pass"]
    self_s = tracing.self_times(spans)
    roots = [i for i, s in enumerate(spans) if s[0] == "op" and s[3] == -1]
    check(len(roots) > 0, f"traced refine recorded {len(roots)} op spans")
    for root in roots:
        op = spans[root][4]
        members = [i for i, s in enumerate(spans) if s[4] == op]
        wall = spans[root][2] - spans[root][1]
        total = sum(self_s[i] for i in members)
        if abs(total - wall) > 1e-9 * max(wall, 1.0):
            check(False, f"op {op}: self times sum to {total}, wall {wall}")
        for i in members:
            parent = spans[i][3]
            if parent >= 0 and not (spans[parent][1] <= spans[i][1] <= spans[i][2]
                                    <= spans[parent][2]):
                check(False, f"op {op}: span {spans[i][0]} leaves its parent")
    check(True, f"{len(roots)} traced ops: self times sum to each op's wall time")


def check_refuses_without_sources() -> None:
    bare = WORK / "smoke-bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    proc = bench("--workload", "refine", "--seed", "1", "--seconds", "1", cwd=bare)
    check(proc.returncode != 0 and not proc.stdout.strip(),
          "without src/ the benchmark exits non-zero and prints no result")
    shutil.rmtree(bare)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    check_metrics(spec)
    check_corruption()
    check_span_tree()
    check_refuses_without_sources()
    return 0


if __name__ == "__main__":
    sys.exit(main())
