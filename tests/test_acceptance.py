"""Acceptance suite: one test and one printed pass/fail line per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as
they complete. Every tolerance is pinned here; nothing is deferred to
later calibration. The refinement-trend thresholds are harness-level
targets for the synthetic-scene setup, demonstrating the ablation logic
rather than any trained-model number.
"""

import itertools
import time
from pathlib import Path

import numpy as np

import hmor
from hmor import (Camera, GaussNoise, GenSpec, HmorConfig,
                  SolverConfig, assemble_absolute, back_project,
                  enumerate_pairs, equivalent_depth,
                  generate_scene, hmor_loss, mpjpe, normalize_depth,
                  optimal_assignment, ordinal_violations, perturb, project,
                  recover_absolute_depth, refine, sample_view, similarity_align)
from hmor.cli import main as cli_main
from hmor.depth import init_term, l1_term, refine_term
from hmor.solver import _fd_max_rel_err
from conftest import (err_instance, err_instance_grad, err_joint_grad, err_part_grad,
                      err_part_particle_grad, project_to_plane, swap_root_depths,
                      two_person_depth_fixture)


def report(number, passed, detail):
    print(f"\nACCEPTANCE {number}: {'PASS' if passed else 'FAIL'} - {detail}")
    assert passed, f"criterion {number}: {detail}"


def test_criterion_1_zero_on_truth():
    """hmor_loss(ground truth) == 0 exactly: 200 scenes, 32 views each."""
    start = time.perf_counter()
    view_rng = np.random.default_rng(123)
    worst = 0.0
    for i in range(200):
        n_persons = 1 + (i % 4)
        scene = generate_scene(GenSpec(seed=10_000 + i, n_persons=n_persons))
        for _ in range(32):
            view = sample_view(rng=view_rng).direction
            loss = hmor_loss(scene, enumerate_pairs(scene, view))
            worst = max(worst, abs(loss.total), abs(loss.instance),
                        abs(loss.part), abs(loss.joint))
    elapsed = time.perf_counter() - start
    report(1, worst == 0.0 and elapsed < 10.0,
           f"200 scenes x 32 views, worst |loss| = {worst!r}, {elapsed:.1f}s (< 10s)")


def test_criterion_2_gradient_correctness():
    """Analytic vs central finite differences, 100 non-boundary points each."""
    start = time.perf_counter()
    rng = np.random.default_rng(321)
    step = 1e-5
    margin = 10.0 * step
    worst = {}

    pair_specs = [
        ("err_instance", err_instance_grad, "dot"),
        ("err_part", err_part_grad, "cross"),
        ("err_part_particle", err_part_particle_grad, "dot"),
        ("err_joint", err_joint_grad, "dot"),
    ]
    for name, grad_fn, kind in pair_specs:
        worst[name] = 0.0
        done = 0
        while done < 100:
            a, b = rng.normal(size=3), rng.normal(size=3)
            n = rng.normal(size=3)
            n /= np.linalg.norm(n)
            lab = int(rng.choice([-1, 1]))
            arg = lab * float((np.cross(a, b) if kind == "cross" else a - b) @ n)
            if abs(arg) <= margin:
                continue
            done += 1
            _, ga, gb = grad_fn(a, b, lab, n)
            err = _fd_max_rel_err(lambda x: grad_fn(x[:3], x[3:], lab, n)[0],
                                  np.concatenate([a, b]), np.concatenate([ga, gb]), step)
            worst[name] = max(worst[name], err)

    # the data terms as the solver calls them; each returns the sign of its
    # residuals, so its gradient is the sign over the term's rows
    cam = Camera(1000.0, 1000.0, 500.0, 500.0)
    worst["pose"] = worst["abs"] = 0.0
    for _ in range(100):
        for name, centre in (("pose", 0.0), ("abs", 3000.0)):
            gt = centre + rng.normal(size=(2, 6, 3))
            pred = gt + rng.choice([-1, 1], gt.shape) * rng.uniform(2 * margin, 1.0, gt.shape)
            g = l1_term(pred, gt)[1] / 12
            err = _fd_max_rel_err(lambda x: l1_term(x.reshape(gt.shape), gt)[0], pred.ravel(),
                                  g.ravel(), step)
            worst[name] = max(worst[name], err)

    worst["init"] = 0.0
    for _ in range(100):
        gt_z = rng.uniform(3000.0, 8000.0, 4)
        pred = gt_z / 1000.0 + rng.choice([-1, 1], 4) * rng.uniform(2 * margin, 1.0, 4)
        target = normalize_depth(gt_z, cam)
        g = init_term(pred, target)[1] / 4
        err = _fd_max_rel_err(lambda x: init_term(x, target)[0], pred, g, step)
        worst["init"] = max(worst["init"], err)

    worst["refine"] = 0.0
    for _ in range(100):
        gt_z = rng.uniform(3000.0, 8000.0, 4)
        a_box = rng.uniform(5e3, 5e4, 4)
        a_roi = rng.uniform(5e3, 5e4, 4)
        deltas = rng.choice([-1, 1], 4) * rng.uniform(2 * margin, 1.0, 4)
        z_eq_init = gt_z / 1000.0 * np.sqrt(a_box / a_roi)
        target = equivalent_depth(normalize_depth(gt_z, cam), a_box, a_roi)
        g = refine_term(deltas, z_eq_init, target)[1] / 4
        err = _fd_max_rel_err(lambda d: refine_term(d, z_eq_init, target)[0], deltas, g, step)
        worst["refine"] = max(worst["refine"], err)

    elapsed = time.perf_counter() - start
    peak = max(worst.values())
    report(2, peak < 1e-5 and elapsed < 30.0,
           f"8 primitives x 100 points, max rel err = {peak:.2e} (< 1e-5), "
           f"{elapsed:.1f}s (< 30s)")


def test_criterion_3_geometry_round_trips():
    """Projection and depth-normalization chains invert to 1e-9 relative."""
    rng = np.random.default_rng(456)
    cam = Camera(1100.0, 950.0, 512.0, 384.0)
    worst = 0.0
    for _ in range(1000):
        u, v = rng.uniform(0.0, 1024.0, 2)
        z = rng.uniform(100.0, 20000.0)
        u2, v2 = project(cam, back_project(cam, u, v, z))
        worst = max(worst, abs(u2 - u) / max(1.0, abs(u)), abs(v2 - v) / max(1.0, abs(v)))

    for _ in range(1000):
        z = rng.uniform(100.0, 20000.0)
        a_box = rng.uniform(1e3, 1e5)
        a_roi = rng.uniform(1e3, 1e5)
        z_eq = equivalent_depth(normalize_depth(z, cam), a_box, a_roi)
        back = recover_absolute_depth(0.0, z_eq, cam, a_box, a_roi)
        worst = max(worst, abs(back - z) / z)

    report(3, worst < 1e-9,
           f"1000 projection + 1000 depth round trips, worst rel err = {worst:.2e} (< 1e-9)")


def test_criterion_4_planar_cross_identity():
    """Part error is identical on raw or plane-projected bone vectors."""
    rng = np.random.default_rng(789)
    worst = 0.0
    for _ in range(1000):
        t1, t2 = rng.normal(size=3), rng.normal(size=3)
        n = rng.normal(size=3)
        n /= np.linalg.norm(n)
        raw = float(np.cross(t1, t2) @ n)
        proj = float(np.cross(project_to_plane(t1, n), project_to_plane(t2, n)) @ n)
        worst = max(worst, abs(raw - proj) / max(1.0, abs(raw)))
    report(4, worst < 1e-9, f"1000 random pairs, worst discrepancy = {worst:.2e} (< 1e-9)")


def test_criterion_5_hand_value_fixtures(camera):
    """Wrong-order instance errors match hand-computed log values."""
    # 0.5 m wrong-order gap along the camera normal
    err = err_instance([0.0, 0.0, 3.5], [0.0, 0.0, 3.0], 1, [0.0, 0.0, 1.0])
    ok_gap = abs(err - np.log(1.5)) < 1e-9

    # two-person fixture with identical relative poses and swapped depths:
    # the instance term is log(1 + gap) with the gap in meters
    gt = two_person_depth_fixture(camera, z1=4000.0, z2=4600.0)
    swapped = swap_root_depths(gt)
    pairs = enumerate_pairs(gt, gt.camera.normal)
    loss = hmor_loss(swapped, pairs)
    delta = (4600.0 - 4000.0) / 1000.0
    ok_fixture = abs(loss.instance - np.log1p(delta)) < 1e-9

    report(5, ok_gap and ok_fixture,
           f"log(1.5) fixture err = {err!r}, depth-swap instance term = "
           f"{loss.instance!r} vs log(1+{delta}) = {np.log1p(delta)!r}")


def test_criterion_6_metric_oracles():
    """AUC/PCK equivalence, optimal matching, Procrustes invariance."""
    # AUC equals the mean of independently computed PCK values, exactly
    spec = GenSpec(seed=600, n_persons=3, perturbation=GaussNoise(30.0, 300.0))
    gt = generate_scene(spec)
    pred = perturb(gt, spec)
    grid = np.arange(1.0, 151.0)
    pcks = [hmor.pck(pred, gt, "root", float(t)) for t in grid]
    ok_auc = hmor.auc(pred, gt, "root", grid) == np.mean(pcks)

    # optimal assignment beats or ties greedy on 1000 random 3x3 cases,
    # verified against exhaustive enumeration of all 3! assignments
    rng = np.random.default_rng(601)
    ok_matching = True
    for _ in range(1000):
        cost = rng.uniform(0.0, 1.0, (3, 3))
        rows, cols = optimal_assignment(cost)
        got = cost[rows, cols].sum()
        best = min(sum(cost[i, p[i]] for i in range(3))
                   for p in itertools.permutations(range(3)))
        greedy_cost, used = 0.0, set()
        for i in np.argsort(cost.min(axis=1)):
            j = min((j for j in range(3) if j not in used), key=lambda j: cost[i, j])
            used.add(j)
            greedy_cost += cost[i, j]
        if not (abs(got - best) < 1e-12 and got <= greedy_cost + 1e-12):
            ok_matching = False
            break

    # PA-MPJPE of a rotated + scaled pose copy
    rng = np.random.default_rng(602)
    base = np.column_stack([rng.normal(0, 300, 17), rng.normal(0, 300, 17),
                            rng.uniform(2000, 5000, 17)])
    angle = 0.9
    R = np.array([[np.cos(angle), 0.0, np.sin(angle)],
                  [0.0, 1.0, 0.0],
                  [-np.sin(angle), 0.0, np.cos(angle)]])
    copy = hmor.AbsolutePose(1.4 * base @ R.T + np.array([50.0, -20.0, 3000.0]))
    pa = mpjpe(copy, hmor.AbsolutePose(base), "procrustes")
    ok_pa = pa < 1e-6

    report(6, ok_auc and ok_matching and ok_pa,
           f"AUC==mean(PCK): {ok_auc}, optimal<=greedy on 1000 3x3 cases: "
           f"{ok_matching}, PA-MPJPE of similarity copy = {pa:.2e} mm (< 1e-6)")


def _scene_abs_mpjpe(pred, gt):
    vals = [mpjpe(assemble_absolute(p, pred.camera),
                  assemble_absolute(g, gt.camera), "none")
            for p, g in zip(pred.persons, gt.persons)]
    return float(np.mean(vals))


def test_criterion_7_ablation_trend():
    """Depth-order supervision recovers most of the absolute-pose error
    that per-person data terms cannot see."""
    start = time.perf_counter()
    n_scenes = 100
    base_vals, hmor_vals = [], []
    clean_instance = 0
    refine_cfg = SolverConfig(
        steps=500, step_size=5e-2,
        w_pose=0.0, w_init=0.0, w_refine=0.0, w_hmor=1.0, w_abs=0.0,
        hmor=HmorConfig(w_instance=1.0, w_part=0.0, w_joint=1.0))
    baseline_cfg = SolverConfig(
        steps=500, step_size=5e-2,
        w_pose=0.0, w_init=0.0, w_refine=0.0, w_hmor=0.0, w_abs=1.0,
        anchor="input")
    for s in range(n_scenes):
        spec = GenSpec(seed=70_000 + s, n_persons=4, depth_range=(4000.0, 4400.0),
                       perturbation=GaussNoise(sigma_z=300.0))
        gt = generate_scene(spec)
        noisy = perturb(gt, spec)

        baseline, _ = refine(noisy, gt, baseline_cfg)
        base_vals.append(_scene_abs_mpjpe(baseline, gt))

        refined, _ = refine(noisy, gt, refine_cfg)
        hmor_vals.append(_scene_abs_mpjpe(refined, gt))
        if ordinal_violations(refined, gt, [gt.camera.normal]).instance == 0:
            clean_instance += 1

    elapsed = time.perf_counter() - start
    reduction = 1.0 - np.mean(hmor_vals) / np.mean(base_vals)
    clean_frac = clean_instance / n_scenes
    report(7, reduction >= 0.30 and clean_frac >= 0.95 and elapsed < 300.0,
           f"ABS-MPJPE {np.mean(base_vals):.0f} -> {np.mean(hmor_vals):.0f} mm "
           f"({100 * reduction:.1f}% reduction, >= 30%), instance violations 0 on "
           f"{100 * clean_frac:.0f}% of scenes (>= 95%), {elapsed:.0f}s (< 300s)")


def test_criterion_8_cli_determinism(tmp_path):
    """gen and refine produce byte-identical outputs for the same seed."""
    trees = []
    for d in ("g1", "g2"):
        rc = cli_main(["gen", "--seed", "88", "--persons", "2", "--count", "2",
                       "--out", str(tmp_path / d),
                       "--depth-min", "4000", "--depth-max", "4800",
                       "--perturb", "depth_swap", "--swap", "0,1"])
        assert rc == 0
        trees.append({p.name: p.read_bytes()
                      for p in sorted((tmp_path / d).glob("*.json"))})
    ok_gen = trees[0] == trees[1]

    outputs = []
    for d in ("r1", "r2"):
        out = tmp_path / d / "refined.json"
        trace = tmp_path / d / "trace.csv"
        rc = cli_main(["refine", str(tmp_path / "g1" / "pred_000.json"),
                       str(tmp_path / "g1" / "scene_000.json"),
                       "--out", str(out), "--trace", str(trace),
                       "--steps", "120", "--step-size", "0.05",
                       "--views-per-step", "2", "--seed", "9"])
        assert rc == 0
        outputs.append((out.read_bytes(), trace.read_bytes()))
    ok_refine = outputs[0] == outputs[1]

    report(8, ok_gen and ok_refine,
           f"gen byte-identical: {ok_gen}, refine byte-identical: {ok_refine}")
