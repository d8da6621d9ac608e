"""``refine`` output pinned to recorded bits.

One generated pair (three persons, unless a config names ``n_persons``) is
refined under each config; every trace value (its ``repr``), every
violation count and the sha256 of the saved refined scene must equal
``refine_pin.json``. Regenerate the file only when a
change is meant to alter ``refine``'s results:

    PYTHONPATH=src python tests/test_refine_pin.py

which prints, per config, how the new record differs from the file it
overwrites: the largest relative change of a trace value, the steps
whose violation count changed, and whether the scene's sha256 changed.
"""

import hashlib
import json
import sys
import tempfile
from pathlib import Path

import pytest

from hmor import (GaussNoise, GenSpec, HmorConfig, SolverConfig, generate_scene,
                  perturb, refine, save_scene)

PIN_FILE = Path(__file__).with_name("refine_pin.json")

CONFIGS = {
    "one_view": dict(steps=30),
    "four_views": dict(steps=10, views_per_step=4),
    "hmor_off": dict(steps=10, w_hmor=0.0, w_abs=1.0, anchor="input"),
    # every candidate overshoots and halving stops above min_step
    "all_rejected": dict(steps=10, step_size=1e3, min_step=1e2, views_per_step=4),
    "full_pose": dict(steps=10, free_variables="full_pose", views_per_step=2),
    "particle_tolerance": dict(steps=10, views_per_step=3, hmor=HmorConfig(
        part_mode="particle", equality_tolerance=0.02)),
    # every data term's gradient, abs into U/V included
    "all_data_terms": dict(steps=10, free_variables="full_pose", w_abs=1.0),
    # the shape of perfbench's refine op: 4 persons, 10 steps of 4 views
    "benchmark_shaped": dict(n_persons=4, steps=10, views_per_step=4),
}


def pinned_run(name: str, directory: Path) -> dict:
    config = dict(CONFIGS[name])
    spec = GenSpec(seed=7, n_persons=config.pop("n_persons", 3),
                   perturbation=GaussNoise(30.0, 300.0))
    gt = generate_scene(spec)
    refined, trace = refine(perturb(gt, spec), gt, SolverConfig(seed=5, **config))
    path = directory / f"{name}.json"
    save_scene(refined, path)
    return {"values": [repr(t.value) for t in trace],
            "violations": [t.violations for t in trace],
            "scene_sha256": hashlib.sha256(path.read_bytes()).hexdigest()}


@pytest.mark.parametrize("name", list(CONFIGS))
def test_refine_matches_pinned_bits(name, tmp_path):
    pinned = json.loads(PIN_FILE.read_text())[name]
    assert pinned_run(name, tmp_path) == pinned


def pin_change(old: dict | None, new: dict) -> str:
    """One line saying how the record ``new`` differs from ``old``."""
    if old is None:
        return "new config"
    before, after = ([float(v) for v in r["values"]] for r in (old, new))
    if len(before) != len(after):
        return f"trace length {len(before)} -> {len(after)}"
    rel = max(abs(a - b) / abs(b) if b else abs(a) for a, b in zip(after, before))
    flips = [(step, b, a) for step, (b, a) in
             enumerate(zip(old["violations"], new["violations"])) if a != b]
    violations = f"(step, old, new) {flips}" if flips else "unchanged"
    sha = "changed" if old["scene_sha256"] != new["scene_sha256"] else "unchanged"
    return (f"max relative value change {rel:.3g}; violations {violations}; "
            f"scene sha256 {sha}")


if __name__ == "__main__":
    previous = json.loads(PIN_FILE.read_text()) if PIN_FILE.exists() else {}
    with tempfile.TemporaryDirectory() as tmp:
        record = {name: pinned_run(name, Path(tmp)) for name in CONFIGS}
    for name, new in record.items():
        print(f"{name}: {pin_change(previous.get(name), new)}")
    PIN_FILE.write_text(json.dumps(record, indent=1) + "\n")
    sys.exit(0)
