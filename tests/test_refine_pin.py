"""``refine`` output pinned to recorded bits.

One generated pair is refined under six configs; every trace value (its
``repr``), every violation count and the sha256 of the saved refined
scene must equal ``refine_pin.json``. Regenerate the file only when a
change is meant to alter ``refine``'s results:

    PYTHONPATH=src python tests/test_refine_pin.py
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
}


def pinned_run(name: str, directory: Path) -> dict:
    spec = GenSpec(seed=7, n_persons=3, perturbation=GaussNoise(30.0, 300.0))
    gt = generate_scene(spec)
    refined, trace = refine(perturb(gt, spec), gt, SolverConfig(seed=5, **CONFIGS[name]))
    path = directory / f"{name}.json"
    save_scene(refined, path)
    return {"values": [repr(t.value) for t in trace],
            "violations": [t.violations for t in trace],
            "scene_sha256": hashlib.sha256(path.read_bytes()).hexdigest()}


@pytest.mark.parametrize("name", list(CONFIGS))
def test_refine_matches_pinned_bits(name, tmp_path):
    pinned = json.loads(PIN_FILE.read_text())[name]
    assert pinned_run(name, tmp_path) == pinned


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        record = {name: pinned_run(name, Path(tmp)) for name in CONFIGS}
    PIN_FILE.write_text(json.dumps(record, indent=1) + "\n")
    sys.exit(0)
