import dataclasses
import json
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hmor import (DepthEstimate, GaussNoise, GenSpec, HmorConfig, InvalidDepthError,
                  InvalidInputError, SolverConfig, assemble_absolute,
                  enumerate_pairs, equivalent_depth, generate_scene,
                  grad_check, hmor_loss, loss_abs, loss_init, loss_pose, loss_refine,
                  normalize_depth, objective, objective_terms, ordinal_violations, perturb,
                  refine, save_scene)
from hmor import sample_view
from hmor.cli import main
from hmor.depth import init_term, l1_term, refine_term
import hmor.solver
from hmor.ordinal import LabelledTruth, scene_joint_array
from hmor.solver import (_checked_objective, _fd_max_rel_err, _gradcheck_point, _Objective,
                         _SceneVars)
from conftest import (loss_init_grad, loss_pose_grad, loss_refine_grad, swap_root_depths,
                      two_person_depth_fixture)

HMOR_ONLY = dict(w_pose=0.0, w_init=0.0, w_refine=0.0, w_hmor=1.0, w_abs=0.0)


class TestObjective:
    def test_zero_at_ground_truth(self):
        gt = generate_scene(GenSpec(seed=0, n_persons=2))
        cfg = SolverConfig()
        pairs = enumerate_pairs(gt, gt.camera.normal, cfg.hmor)
        value, grad = objective(gt, pairs, gt, cfg)
        assert value == 0.0
        assert np.all(grad == 0.0)

    def test_zero_weights_ignore_everything(self):
        spec = GenSpec(seed=1, n_persons=2, perturbation=GaussNoise(50.0, 500.0))
        gt = generate_scene(spec)
        noisy = perturb(gt, spec)
        cfg = SolverConfig(w_pose=0.0, w_init=0.0, w_refine=0.0, w_hmor=0.0, w_abs=0.0)
        pairs = enumerate_pairs(gt, gt.camera.normal, cfg.hmor)
        value, grad = objective(noisy, pairs, gt, cfg)
        assert value == 0.0
        assert np.all(grad == 0.0)

    def test_swapped_depths_get_opposing_root_gradients(self, camera):
        gt = two_person_depth_fixture(camera)
        swapped = swap_root_depths(gt)
        cfg = SolverConfig(**HMOR_ONLY, hmor=HmorConfig(w_part=0.0, w_joint=0.0))
        pairs = enumerate_pairs(gt, gt.camera.normal, cfg.hmor)
        value, grad = objective(swapped, pairs, gt, cfg)
        assert value > 0.0
        # person 0 was pushed too deep, person 1 too close
        assert grad[0] > 0.0 and grad[1] < 0.0

        # finite-difference sign check on both root depths
        eps = 1e-6
        for i, g in enumerate(grad):
            bumped = list(p.root_depth for p in swapped.persons)
            bumped[i] += eps / cfg.hmor.depth_unit_scale
            moved = dataclasses.replace(swapped, persons=tuple(
                dataclasses.replace(p, root_depth=z)
                for p, z in zip(swapped.persons, bumped)))
            v2, _ = objective(moved, pairs, gt, cfg)
            assert np.sign(v2 - value) == np.sign(g)

    def test_view_sequence_averages_single_views(self):
        spec = GenSpec(seed=11, n_persons=3, perturbation=GaussNoise(30.0, 300.0))
        gt = generate_scene(spec)
        noisy = perturb(gt, spec)
        cfg = SolverConfig(free_variables="full_pose", **HMOR_ONLY)
        rng = np.random.default_rng(2)
        views = [gt.camera.normal] + [sample_view(rng=rng).direction for _ in range(3)]
        truth = LabelledTruth(gt, cfg.hmor)
        value, grad = objective(noisy, truth.label(views), gt, cfg)
        singles = [objective(noisy, truth.label(view), gt, cfg) for view in views]
        assert value == pytest.approx(np.mean([v for v, _ in singles]), rel=1e-12)
        assert np.allclose(grad, np.mean([g for _, g in singles], axis=0),
                           rtol=1e-12, atol=1e-15)

    @pytest.mark.parametrize("kind", ["list", "tuple", "NoneType"])
    def test_anything_but_one_pair_set_rejected(self, kind):
        gt = generate_scene(GenSpec(seed=12, n_persons=2))
        pairs = enumerate_pairs(gt, gt.camera.normal)
        arg = {"list": [pairs, pairs], "tuple": (pairs,), "NoneType": None}[kind]
        with pytest.raises(InvalidInputError,
                           match=f"^gt_pairs must be a RelationPairs, got {kind}$"):
            objective(gt, arg, gt, SolverConfig())

    def test_config_validation(self):
        with pytest.raises(InvalidInputError):
            SolverConfig(steps=0)
        with pytest.raises(InvalidInputError):
            SolverConfig(step_size=-1.0)
        with pytest.raises(InvalidInputError):
            SolverConfig(free_variables="nope")
        with pytest.raises(InvalidInputError):
            SolverConfig(anchor="nope")


class TestAnchorIsExactZero:
    """A prediction equal to its anchor reads exactly 0 with a zero
    gradient in every data term, abs included: the anchor is
    back-projected with the prediction's arithmetic."""

    @pytest.fixture
    def pair(self):
        spec = GenSpec(seed=23, n_persons=3, perturbation=GaussNoise(30.0, 300.0))
        gt = generate_scene(spec)
        return perturb(gt, spec), gt

    @pytest.mark.parametrize("free_variables", ["root_depths_only", "full_pose"])
    def test_objective_at_its_anchor(self, pair, free_variables):
        pred, _ = pair
        cfg = SolverConfig(w_abs=1.0, free_variables=free_variables)
        value, grad = objective(pred, enumerate_pairs(pred, pred.camera.normal), pred, cfg)
        assert value == 0.0
        assert not np.any(grad)

    @pytest.mark.parametrize("free_variables", ["root_depths_only", "full_pose"])
    @pytest.mark.parametrize("anchor", ["ground_truth", "input"])
    def test_refine_trace_at_its_anchor(self, pair, anchor, free_variables, monkeypatch):
        pred, gt = pair
        cfg = SolverConfig(steps=2, w_abs=1.0, w_hmor=0.0,
                           anchor=anchor, free_variables=free_variables)
        if anchor == "ground_truth":
            gt = pred  # refine(p, p): row 0 is read at p itself
        evaluate, grads = _Objective.evaluate, []

        def spy(*args, **kwargs):
            record = evaluate(*args, **kwargs)
            grads.append(record.grad)
            return record

        monkeypatch.setattr(_Objective, "evaluate", spy)
        _, trace = refine(pred, gt, cfg)
        # row 0 is the value at the anchor, and a zero gradient keeps it
        # there: step 1 evaluates the anchor again, halves nothing and ends
        # the run at its fixed point
        assert [t.value for t in trace] == [0.0] * 3
        assert len(grads) == 2 and not any(g.any() for g in grads)

    def test_joint_behind_camera_rejected(self, pair, tmp_path, capsys):
        pred, gt = pair
        person = pred.persons[0]
        joints = person.rel_pose.joints.copy()
        joints[3, 2] = -person.root_depth - 1.0
        behind = dataclasses.replace(pred, persons=(dataclasses.replace(
            person, rel_pose=dataclasses.replace(person.rel_pose, joints=joints)),
            *pred.persons[1:]))
        with pytest.raises(InvalidDepthError):
            refine(behind, gt, SolverConfig(steps=1))
        with pytest.raises(InvalidDepthError):
            objective_terms(behind, gt)
        save_scene(behind, tmp_path / "behind.json")
        save_scene(gt, tmp_path / "gt.json")
        for argv in (["loss"], ["refine", "--out", str(tmp_path / "r.json")]):
            argv += [str(tmp_path / "behind.json"), str(tmp_path / "gt.json")]
            assert main(argv) == 2
            err = capsys.readouterr().err
            assert err.count("\n") == 1 and "non-positive joint depth" in err


class TestOneCameraModel:
    """Every scene is lifted to 3D by the same back-projection, so the
    ground truth's labels and the prediction's margins share their bits."""

    @pytest.mark.parametrize("scale", [1e-3, 0.01])
    @pytest.mark.parametrize("seed", range(5))
    def test_every_lift_is_bit_equal(self, seed, scale):
        spec = GenSpec(seed=seed, n_persons=4, perturbation=GaussNoise(30.0, 300.0))
        gt = generate_scene(spec)
        cfg = SolverConfig(hmor=HmorConfig(depth_unit_scale=scale))
        for scene in (gt, perturb(gt, spec)):
            K = scene_joint_array(scene, scale)
            stacked = np.stack([assemble_absolute(p, scene.camera).joints
                                for p in scene.persons]) * scale
            assert np.array_equal(K, stacked)
            assert np.array_equal(K, _SceneVars(scene, cfg).joints_scaled()[0])
        terms = objective_terms(gt, gt, cfg)
        for name in ("hmor", "hmor.instance", "hmor.part", "hmor.joint"):
            assert terms[name] == 0.0, name


# every public entry point that compares a prediction with a ground truth
MISMATCH_ENTRY_POINTS = {
    "refine": lambda pred, gt: refine(pred, gt, SolverConfig(steps=1)),
    "objective_terms": objective_terms,
    "ordinal_violations": lambda pred, gt: ordinal_violations(pred, gt, [gt.camera.normal]),
    "hmor_loss": lambda pred, gt: hmor_loss(pred, enumerate_pairs(gt, gt.camera.normal)),
}


@pytest.mark.parametrize("entry", sorted(MISMATCH_ENTRY_POINTS))
def test_topology_mismatch_is_invalid_input(camera, entry):
    pred = two_person_depth_fixture(camera)  # 4 joints, 3 parts
    gt = generate_scene(GenSpec(seed=0, n_persons=2))  # 17 joints, 14 parts
    with pytest.raises(InvalidInputError, match="topology mismatch"):
        MISMATCH_ENTRY_POINTS[entry](pred, gt)


# pairs enumerated on a 3-person truth, read with a 2-person scene, and the
# message each call raises: the pairs' own count check, or the one
# person-for-person check (hmor.skeleton.check_matched)
UNMATCHED = "^scenes must be matched person-for-person$"
PERSON_COUNT_CALLS = {
    "hmor_loss": (lambda gt3, gt2, pairs, cfg: hmor_loss(gt2, pairs), "^person count mismatch: "),
    "objective_pred": (lambda gt3, gt2, pairs, cfg: objective(gt2, pairs, gt3, cfg),
                       "^person count mismatch: "),
    "objective_anchors": (lambda gt3, gt2, pairs, cfg: objective(gt3, pairs, gt2, cfg), UNMATCHED),
    "refine": (lambda gt3, gt2, pairs, cfg: refine(gt2, gt3, cfg), UNMATCHED),
    "ordinal_violations": (lambda gt3, gt2, pairs, cfg: ordinal_violations(
        gt2, gt3, [gt3.camera.normal]), UNMATCHED),
}


@pytest.mark.parametrize("call", sorted(PERSON_COUNT_CALLS))
def test_person_count_mismatch_is_invalid_input(call):
    gt3 = generate_scene(GenSpec(seed=0, n_persons=3))
    gt2 = dataclasses.replace(gt3, persons=gt3.persons[:2])
    pairs = enumerate_pairs(gt3, gt3.camera.normal)
    fn, message = PERSON_COUNT_CALLS[call]
    with pytest.raises(InvalidInputError, match=message):
        fn(gt3, gt2, pairs, SolverConfig())


class TestTermsOracle:
    """The solver's unweighted terms, and the public ``loss_*`` values,
    against the per-person reference forms in ``conftest``."""

    @staticmethod
    def _case(seed, n_persons, delta_sd):
        """A generated pair, its root depths, and the prediction's depth
        estimates with residuals drawn at ``delta_sd``."""
        spec = GenSpec(seed=seed, n_persons=n_persons, perturbation=GaussNoise(30.0, 300.0))
        gt = generate_scene(spec)
        pred = perturb(gt, spec)
        cam = gt.camera
        froot = np.sqrt(cam.fx * cam.fy)
        gt_z = [p.root_depth for p in gt.persons]
        pred_norm = [p.root_depth / froot for p in pred.persons]
        deltas = np.random.default_rng(seed).normal(0.0, delta_sd, n_persons)
        estimates = [DepthEstimate(zn, zn * np.sqrt(p.box.area / p.roi_area), delta,
                                   p.box.area, p.roi_area)
                     for zn, delta, p in zip(pred_norm, deltas.tolist(), pred.persons)]
        return gt, pred, gt_z, pred_norm, estimates

    @pytest.mark.parametrize("seed", range(1, 7))
    def test_terms_equal_depth_reference(self, seed):
        gt, pred, gt_z, pred_norm, estimates = self._case(seed, 1 + seed % 5, 0.0)
        terms = objective_terms(pred, gt)
        cam = gt.camera
        assert terms["pose"] == loss_pose_grad([p.rel_pose for p in pred.persons],
                                               [p.rel_pose for p in gt.persons])[0]
        assert terms["init"] == loss_init_grad(pred_norm, gt_z, cam)[0]
        assert terms["refine"] == loss_refine_grad(estimates, gt_z, cam)[0]
        reference = loss_pose_grad([assemble_absolute(p, cam) for p in pred.persons],
                                   [assemble_absolute(p, cam) for p in gt.persons])[0]
        assert terms["abs"] == pytest.approx(reference, rel=1e-14, abs=0.0)

    @pytest.mark.parametrize("seed", range(1, 5))
    def test_public_terms_equal_reference(self, seed):
        """The ``loss_*`` values, and each term's sign over its rows as the
        gradient, for several persons and nonzero residuals."""
        gt, pred, gt_z, pred_norm, estimates = self._case(seed, 1 + seed, 0.3)
        cam = gt.camera
        rel = [[p.rel_pose for p in s.persons] for s in (pred, gt)]
        absolute = [[assemble_absolute(p, cam) for p in s.persons] for s in (pred, gt)]
        init = loss_init_grad(pred_norm, gt_z, cam)
        refine = loss_refine_grad(estimates, gt_z, cam)
        pose = loss_pose_grad(*rel)
        assert loss_init(pred_norm, gt_z, cam) == init[0]
        assert loss_refine(estimates, gt_z, cam) == refine[0]
        assert loss_pose(*rel) == pose[0]
        assert loss_abs(*absolute) == loss_pose_grad(*absolute)[0]
        n, j = pose[1].shape[:2]
        gt_norm = normalize_depth(np.array(gt_z), cam)
        target = equivalent_depth(gt_norm, np.array([e.a_box for e in estimates]),
                                  np.array([e.a_roi for e in estimates]))
        sign = refine_term([e.delta for e in estimates], [e.z_eq_init for e in estimates],
                           target)[1]
        assert np.array_equal(init_term(pred_norm, gt_norm)[1] / n, init[1])
        assert np.array_equal(sign / n, refine[1])
        assert np.array_equal(l1_term(*([p.joints for p in r] for r in rel))[1] / (n * j), pose[1])


class TestRefine:
    def test_already_optimal_unchanged(self):
        gt = generate_scene(GenSpec(seed=2, n_persons=2))
        cfg = SolverConfig(steps=20, **HMOR_ONLY)
        refined, trace = refine(gt, gt, cfg)
        for before, after in zip(gt.persons, refined.persons):
            assert abs(before.root_depth - after.root_depth) < 1e-9
        assert trace[-1].value == 0.0

    def test_depth_swap_recovers_order(self, camera):
        gt = two_person_depth_fixture(camera)
        swapped = swap_root_depths(gt)
        cfg = SolverConfig(steps=300, step_size=5e-2, **HMOR_ONLY)
        refined, trace = refine(swapped, gt, cfg)
        assert trace[0].violations > 0
        assert trace[-1].violations == 0
        v = ordinal_violations(refined, gt, [gt.camera.normal])
        assert v.instance == 0

    def test_root_only_keeps_relative_poses(self):
        spec = GenSpec(seed=13, n_persons=2, perturbation=GaussNoise(30.0, 300.0))
        gt = generate_scene(spec)
        noisy = perturb(gt, spec)
        refined, _ = refine(noisy, gt, SolverConfig(steps=3))
        for before, after in zip(noisy.persons, refined.persons):
            assert after.rel_pose is before.rel_pose

    def test_hmor_off_keeps_violations(self, camera):
        gt = two_person_depth_fixture(camera)
        swapped = swap_root_depths(gt)
        cfg = SolverConfig(steps=50, w_pose=0.0, w_init=0.0, w_refine=0.0,
                           w_hmor=0.0, w_abs=1.0, anchor="input")
        refined, trace = refine(swapped, gt, cfg)
        assert trace[-1].violations == trace[0].violations
        assert ordinal_violations(refined, gt, [gt.camera.normal]).instance == 1

    def test_hmor_off_counts_without_the_loss_pass(self, monkeypatch):
        # under root_depths_only the reduced form counts whatever w_hmor is,
        # for the counts alone, and the entity-map kernel never runs
        spec = GenSpec(seed=5, n_persons=3, perturbation=GaussNoise(30.0, 300.0))
        gt = generate_scene(spec)
        noisy = perturb(gt, spec)
        pairs = enumerate_pairs(gt, gt.camera.normal)
        kernel, calls = hmor.solver.root_pass, []

        def spy(form, dx, want_grad=True, counts_only=False):
            calls.append(counts_only)
            return kernel(form, dx, want_grad, counts_only)

        def forbidden(*args, **kwargs):
            raise AssertionError("refine with w_hmor = 0 ran the loss pass")

        monkeypatch.setattr(hmor.solver, "root_pass", spy)
        monkeypatch.setattr(hmor.solver, "ordinal_pass", forbidden)
        refined, trace = refine(noisy, gt, SolverConfig(steps=5, w_hmor=0.0, w_abs=1.0))
        assert len(calls) >= len(trace) and all(calls)
        assert trace[0].violations == sum(hmor_loss(noisy, pairs).violations) > 0
        assert trace[-1].violations == sum(hmor_loss(refined, pairs).violations)

    def test_hmor_off_full_pose_counts_alone(self, monkeypatch):
        spec = GenSpec(seed=5, n_persons=3, perturbation=GaussNoise(30.0, 300.0))
        gt = generate_scene(spec)
        noisy = perturb(gt, spec)
        pairs = enumerate_pairs(gt, gt.camera.normal)
        kernel, calls = hmor.solver.ordinal_pass, []

        def spy(*args):
            calls.append(args[-1])  # counts_only
            return kernel(*args)

        monkeypatch.setattr(hmor.solver, "ordinal_pass", spy)
        refined, trace = refine(noisy, gt, SolverConfig(steps=5, w_hmor=0.0, w_abs=1.0,
                                                        free_variables="full_pose"))
        assert len(calls) >= len(trace) and all(calls)
        assert trace[0].violations == sum(hmor_loss(noisy, pairs).violations) > 0
        assert trace[-1].violations == sum(hmor_loss(refined, pairs).violations)

    def test_trace_monotone_with_halving(self):
        spec = GenSpec(seed=3, n_persons=3, perturbation=GaussNoise(40.0, 400.0))
        gt = generate_scene(spec)
        noisy = perturb(gt, spec)
        cfg = SolverConfig(steps=120, step_size=5e-2, **HMOR_ONLY)
        _, trace = refine(noisy, gt, cfg)
        values = [t.value for t in trace]
        assert all(b <= a + 1e-15 for a, b in zip(values, values[1:]))

    def test_deterministic_given_seed(self):
        spec = GenSpec(seed=4, n_persons=2, perturbation=GaussNoise(30.0, 300.0))
        gt = generate_scene(spec)
        noisy = perturb(gt, spec)
        cfg = SolverConfig(steps=40, views_per_step=3, seed=77, **HMOR_ONLY)
        refined1, trace1 = refine(noisy, gt, cfg)
        refined2, trace2 = refine(noisy, gt, cfg)
        assert [t.value for t in trace1] == [t.value for t in trace2]
        for a, b in zip(refined1.persons, refined2.persons):
            assert a.root_depth == b.root_depth

    def test_person_count_mismatch_rejected(self):
        gt = generate_scene(GenSpec(seed=6, n_persons=2))
        solo = dataclasses.replace(gt, persons=gt.persons[:1])
        with pytest.raises(InvalidInputError):
            refine(solo, gt, SolverConfig())

    def test_full_pose_mode_improves_pose_terms(self):
        spec = GenSpec(seed=7, n_persons=2, perturbation=GaussNoise(40.0, 300.0))
        gt = generate_scene(spec)
        noisy = perturb(gt, spec)
        cfg = SolverConfig(steps=150, step_size=5e-2, free_variables="full_pose",
                           w_pose=1.0, w_init=1.0, w_refine=1.0, w_hmor=1.0, w_abs=0.0)
        refined, trace = refine(noisy, gt, cfg)
        assert trace[-1].value < trace[0].value
        # root depths moved toward ground truth
        before = np.array([p.root_depth for p in noisy.persons])
        after = np.array([p.root_depth for p in refined.persons])
        truth = np.array([p.root_depth for p in gt.persons])
        assert np.abs(after - truth).mean() < np.abs(before - truth).mean()


class TestTraceViolations:
    """Each trace row's violations come from the objective evaluation of
    the point it reports; they must equal a fresh count on that point.
    With a fixed seed, refine(steps=k) is a prefix of refine(steps=5)."""

    @pytest.mark.parametrize("overrides", [
        {},
        {"views_per_step": 4},
        {"hmor": HmorConfig(w_part=0.0)},
        {"w_hmor": 0.0, "w_abs": 1.0, "anchor": "input"},
        # every candidate overshoots and halving stops above min_step
        {"step_size": 1e3, "min_step": 1e2},
    ], ids=["default", "views4", "w_part0", "hmor_off", "all_rejected"])
    def test_last_row_matches_recount(self, overrides):
        spec = GenSpec(seed=21, n_persons=3, perturbation=GaussNoise(30.0, 300.0))
        gt = generate_scene(spec)
        noisy = perturb(gt, spec)
        cfg = SolverConfig(seed=5, **overrides)
        normal_pairs = enumerate_pairs(gt, gt.camera.normal, cfg.hmor)
        _, full = refine(noisy, gt, dataclasses.replace(cfg, steps=5))
        for k in range(1, 6):
            refined, trace = refine(noisy, gt, dataclasses.replace(cfg, steps=k))
            assert trace == full[:k + 1]
            assert trace[-1].violations == sum(
                hmor_loss(refined, normal_pairs, config=cfg.hmor).violations)
        if "min_step" in overrides:
            assert len({(t.value, t.violations) for t in full}) == 1


def _permuted(scene, order):
    return dataclasses.replace(scene, persons=tuple(scene.persons[i] for i in order))


class TestPersonPermutation:
    """Permuting the persons of both scenes only reorders the pairs and the
    sums over them: the loss, every refine trace value and the refined
    depths agree to 1e-12 relative, and every count is equal."""

    @settings(max_examples=20, deadline=None, derandomize=True, database=None)
    @given(seed=st.integers(0, 10_000), n_persons=st.integers(2, 5),
           part_mode=st.sampled_from(["vector", "particle"]), data=st.data())
    def test_loss_and_refine_are_invariant(self, seed, n_persons, part_mode, data):
        order = data.draw(st.permutations(range(n_persons)))
        spec = GenSpec(seed=seed, n_persons=n_persons, perturbation=GaussNoise(30.0, 300.0))
        gt = generate_scene(spec)
        pred = perturb(gt, spec)
        gt_p, pred_p = _permuted(gt, order), _permuted(pred, order)
        hcfg = HmorConfig(part_mode=part_mode)

        def close(a, b):
            return abs(a - b) <= 1e-12 * abs(b)

        for view in (gt.camera.normal, sample_view(rng=np.random.default_rng(seed))):
            loss = hmor_loss(pred, enumerate_pairs(gt, view, hcfg), config=hcfg)
            loss_p = hmor_loss(pred_p, enumerate_pairs(gt_p, view, hcfg), config=hcfg)
            assert loss_p.violations == loss.violations
            assert all(close(getattr(loss_p, f), getattr(loss, f))
                       for f in ("total", "instance", "part", "joint"))
        cfg = SolverConfig(steps=10, views_per_step=3, seed=seed, hmor=hcfg)
        refined, trace = refine(pred, gt, cfg)
        refined_p, trace_p = refine(pred_p, gt_p, cfg)
        assert [t.violations for t in trace_p] == [t.violations for t in trace]
        assert all(close(tp.value, t.value) for tp, t in zip(trace_p, trace))
        assert all(close(p.root_depth, refined.persons[i].root_depth)
                   for p, i in zip(refined_p.persons, order))


class TestCarriedEvaluation:
    """One ordinal pass per candidate: an accepted candidate's value and
    gradient are carried into the next step, not recomputed."""

    @pytest.mark.parametrize("views", [1, 4])
    def test_one_pass_per_step(self, monkeypatch, views):
        spec = GenSpec(seed=22, n_persons=4, perturbation=GaussNoise(30.0, 300.0))
        gt = generate_scene(spec)
        noisy = perturb(gt, spec)
        calls = []
        kernel = hmor.solver.root_pass  # the ordinal kernel under root_depths_only

        def spy(*args, **kwargs):
            calls.append(args)
            return kernel(*args, **kwargs)

        monkeypatch.setattr(hmor.solver, "root_pass", spy)
        cfg = SolverConfig(steps=10, views_per_step=views)
        _, trace = refine(noisy, gt, cfg)
        # one pass at the start point for trace row 0 and step 1's
        # gradient, then one per step's candidate
        assert len(calls) == cfg.steps + 1 and len(trace) == cfg.steps + 1

    @pytest.mark.parametrize("seed", [910_000, 910_001])
    def test_halved_candidates_skip_the_gradient(self, monkeypatch, seed):
        # a large step overshoots, so most first candidates are halved: a
        # halved candidate is evaluated without the gradient, and an accepted
        # one once more with it
        spec = GenSpec(seed=seed, n_persons=4, perturbation=GaussNoise(sigma_z=300.0))
        gt = generate_scene(spec)
        noisy = perturb(gt, spec)
        cfg = SolverConfig(steps=10, views_per_step=4, step_size=100.0, seed=seed)
        evaluate = _Objective.evaluate
        points = []

        def spy(obj, x, want_grad, *args, forced=False, **kwargs):
            points.append((x.tobytes(), want_grad))
            return evaluate(obj, x, want_grad or forced, *args, **kwargs)

        monkeypatch.setattr(_Objective, "evaluate", spy)
        refined, trace = refine(noisy, gt, cfg)
        grads = [point for point, want in points if want]
        halved = [point for point, want in points[1:] if not want]
        again = [point for point in grads if point in halved]  # accepted halved candidates
        assert len(set(grads)) == len(grads)
        # one at the input, one per step but the last at its first candidate,
        # and one per accepted halved candidate; the rest go without
        assert len(grads) == cfg.steps + len(again) and len(halved) > len(again) > 0
        points.clear()
        monkeypatch.setattr(_Objective, "evaluate",
                            lambda *args, **kwargs: spy(*args, forced=True, **kwargs))
        every, every_trace = refine(noisy, gt, cfg)  # a gradient at every evaluation
        assert every_trace == trace and every == refined

    @settings(max_examples=15, deadline=None, derandomize=True, database=None)
    @given(seed=st.integers(0, 10_000), n_persons=st.integers(1, 4),
           step_size=st.sampled_from([1e-2, 5e-2, 0.5, 5.0]))
    def test_one_view_trace_never_increases(self, seed, n_persons, step_size):
        spec = GenSpec(seed=seed, n_persons=n_persons,
                       perturbation=GaussNoise(30.0, 300.0))
        gt = generate_scene(spec)
        cfg = SolverConfig(steps=15, step_size=step_size, seed=seed)
        _, trace = refine(perturb(gt, spec), gt, cfg)
        values = [t.value for t in trace]
        assert all(b <= a for a, b in zip(values, values[1:]))

    @settings(max_examples=15, deadline=None, derandomize=True, database=None)
    @given(seed=st.integers(0, 10_000), n_persons=st.integers(1, 4),
           step_size=st.sampled_from([1e-2, 5e-2, 0.5, 5.0]))
    def test_three_view_trace_never_increases_from_row_1(self, seed, n_persons, step_size):
        # row 0 reads the input under the camera normal alone, every later
        # row the one stack of three views every step descends
        spec = GenSpec(seed=seed, n_persons=n_persons,
                       perturbation=GaussNoise(30.0, 300.0))
        gt = generate_scene(spec)
        cfg = SolverConfig(steps=15, step_size=step_size, views_per_step=3, seed=seed)
        _, trace = refine(perturb(gt, spec), gt, cfg)
        values = [t.value for t in trace[1:]]
        assert all(b <= a for a, b in zip(values, values[1:]))

    @settings(max_examples=10, deadline=None, derandomize=True, database=None)
    @given(seed=st.integers(0, 10_000), n_persons=st.integers(1, 4),
           steps=st.integers(1, 5))
    def test_three_view_run_is_prefix_of_longer_run(self, seed, n_persons, steps):
        spec = GenSpec(seed=seed, n_persons=n_persons,
                       perturbation=GaussNoise(30.0, 300.0))
        gt = generate_scene(spec)
        noisy = perturb(gt, spec)
        cfg = SolverConfig(steps=steps, views_per_step=3, seed=seed)
        _, short = refine(noisy, gt, cfg)
        _, longer = refine(noisy, gt, dataclasses.replace(cfg, steps=steps + 3))
        assert short == longer[:steps + 1]


# objective_terms of the GenSpec(seed=31) pair below under the default config (w_abs = 0),
# as float.hex, recorded when every evaluation computed every term
PINNED_TERMS = {
    "pose": "0x1.1d2163496d531p+3", "init": "0x1.6b94a499c1835p-3",
    "refine": "0x1.6b94a499c1835p-3", "abs": "0x1.e19e982527749p+7",
    "hmor": "0x1.764e16a8c7760p-9", "hmor.instance": "0x0.0p+0",
    "hmor.part": "0x1.9cf4b2c507565p-10", "hmor.joint": "0x1.4fa77a8c8795bp-10",
    "total": "0x1.28956d4fa5ebap+3",
}


class TestWhatAnEvaluationComputes:
    """One refine run normalizes the ground truth's depths once, computes
    no term of weight 0, and computes the pose term once where no step
    moves it; callers that report every term still get all five."""

    @staticmethod
    def _pair(seed=31):
        spec = GenSpec(seed=seed, n_persons=3, perturbation=GaussNoise(30.0, 300.0))
        gt = generate_scene(spec)
        return perturb(gt, spec), gt

    @pytest.mark.parametrize("w_abs", [0.0, 1.0])
    @pytest.mark.parametrize("free_variables", ["root_depths_only", "full_pose"])
    def test_refine_computes_only_what_it_reads(self, monkeypatch, free_variables, w_abs):
        calls = Counter()

        def spy(name, owner=hmor.solver):
            real = getattr(owner, name)

            def counted(*args, **kwargs):
                calls[name] += 1
                return real(*args, **kwargs)

            monkeypatch.setattr(owner, name, counted)

        for name in ("normalize_depth", "equivalent_depth", "l1_term", "init_term",
                     "refine_term", "ordinal_pass", "scene_joint_array"):
            spy(name)
        spy("root_pass")
        spy("joints_scaled", _SceneVars)
        spy("grad_to_x", _SceneVars)
        cfg = SolverConfig(steps=8, views_per_step=2, step_size=0.5,
                           free_variables=free_variables, w_abs=w_abs)
        refine(*self._pair(), cfg)
        # the ordinal kernel of the free variables, reduced to the root depths under
        # root_depths_only; w_hmor > 0: one pass per evaluation
        root = free_variables == "root_depths_only"
        kernel, other = ("root_pass", "ordinal_pass") if root else ("ordinal_pass", "root_pass")
        evaluations = calls[kernel]
        assert calls[other] == 0
        assert evaluations > cfg.steps + 1  # some first candidates were rejected
        assert calls["normalize_depth"] == calls["equivalent_depth"] == 1
        assert calls["init_term"] == calls["refine_term"] == evaluations
        pose = 1 if root else evaluations
        assert calls["l1_term"] == pose + (evaluations if w_abs else 0)  # pose, then abs
        # the anchors' joints are lifted once, and the variables' for the reduced
        # form or at every evaluation; the reduced form pulls no joint gradient back
        assert calls["scene_joint_array"] == 1
        assert calls["joints_scaled"] == (1 if root else evaluations)
        assert (calls["grad_to_x"] == 0) if root else (0 < calls["grad_to_x"] <= evaluations)

    @pytest.mark.parametrize("free_variables", ["root_depths_only", "full_pose"])
    def test_one_objective_per_call(self, monkeypatch, free_variables):
        # every entry point builds its objective, and so labels and reduces it, once
        built = []
        init = _Objective.__init__

        def spy(*args, **kwargs):
            built.append(None)
            init(*args, **kwargs)

        monkeypatch.setattr(_Objective, "__init__", spy)
        pred, gt = self._pair()
        cfg = SolverConfig(steps=4, views_per_step=2, free_variables=free_variables)
        pairs = LabelledTruth(gt, cfg.hmor).label([gt.camera.normal])
        for call in (lambda: refine(pred, gt, cfg), lambda: objective(pred, pairs, gt, cfg),
                     lambda: objective_terms(pred, gt, cfg),
                     lambda: grad_check(pred, gt, config=cfg)):
            built.clear()
            call()
            assert len(built) == 1

    def test_every_term_reported_at_weight_zero(self, tmp_path, capsys):
        pred, gt = self._pair()
        terms = objective_terms(pred, gt)
        assert {name: value.hex() for name, value in terms.items()} == PINNED_TERMS
        save_scene(pred, tmp_path / "pred.json")
        save_scene(gt, tmp_path / "gt.json")
        assert main(["loss", str(tmp_path / "pred.json"), str(tmp_path / "gt.json")]) == 0
        record = json.loads(capsys.readouterr().out)
        reported = {**{name: record[name] for name in ("pose", "init", "refine", "abs", "total")},
                    "hmor": record["hmor"]["total"],
                    **{f"hmor.{level}": record["hmor"][level]
                       for level in ("instance", "part", "joint")}}
        assert {name: value.hex() for name, value in reported.items()} == PINNED_TERMS

    @pytest.mark.parametrize("views", [1, 2, 4])
    def test_grad_check_draws_refine_first_step_views(self, monkeypatch, views):
        stacks = []
        kernel = hmor.solver.root_pass  # the ordinal kernel under root_depths_only

        def spy(form, *args, **kwargs):
            stacks.append(form.labelled.views)
            return kernel(form, *args, **kwargs)

        monkeypatch.setattr(hmor.solver, "root_pass", spy)
        pred, gt = self._pair(32)
        for steps in (1, 10):  # one run's draw holds every step's views
            cfg = SolverConfig(steps=steps, views_per_step=views, seed=41)
            stacks.clear()
            refine(pred, gt, cfg)
            first_step = stacks[0]  # the pass at the input, under step 1's views
            stacks.clear()
            grad_check(pred, gt, config=cfg)
            assert first_step.shape == (views, 3)
            assert all(stack.tobytes() == first_step.tobytes() for stack in stacks)

    @pytest.mark.parametrize("views", [1, 4])
    def test_refine_draws_and_checks_its_views_once(self, monkeypatch, views):
        draws, checks = [], []
        sample_views, view_stack = hmor.solver.sample_views, hmor.ordinal._view_stack

        def drawn(n, rng):
            draws.append(n)
            return sample_views(n, rng)

        def checked(stack):
            out = view_stack(stack)
            checks.append(len(out))
            return out

        monkeypatch.setattr(hmor.solver, "sample_views", drawn)
        monkeypatch.setattr(hmor.ordinal, "_view_stack", checked)
        cfg = SolverConfig(steps=10, views_per_step=views, step_size=0.5)
        refine(*self._pair(), cfg)
        # k - 1 views drawn once (none with one view), then the camera
        # normal and them checked once
        assert draws == ([views - 1] if views > 1 else [])
        assert checks == [views]

    @pytest.mark.parametrize("views", [1, 3])
    @pytest.mark.parametrize("free_variables", ["root_depths_only", "full_pose"])
    def test_every_step_evaluates_the_checked_stack(self, monkeypatch, views, free_variables):
        # grad_check differences _checked_objective's stack, so it covers every step
        stacks = []
        evaluate = _Objective.evaluate

        def spy(obj, *args, **kwargs):
            stacks.append(obj.labelled)
            return evaluate(obj, *args, **kwargs)

        monkeypatch.setattr(_Objective, "evaluate", spy)
        pred, gt = self._pair(33)
        cfg = SolverConfig(steps=6, views_per_step=views, seed=17, step_size=0.5,
                           free_variables=free_variables)
        refine(pred, gt, cfg)
        checked = _checked_objective(pred, gt, cfg).labelled
        assert len(stacks) > cfg.steps and all(s is stacks[0] for s in stacks)
        assert stacks[0].views.shape == (views, 3)
        for name in ("views", "labels"):
            assert getattr(stacks[0], name).tobytes() == getattr(checked, name).tobytes()


# acceptance criterion 7's two configs
CRITERION_7 = {
    "hmor": SolverConfig(steps=500, step_size=5e-2, w_pose=0.0, w_init=0.0, w_refine=0.0,
                         w_hmor=1.0, w_abs=0.0,
                         hmor=HmorConfig(w_instance=1.0, w_part=0.0, w_joint=1.0)),
    "baseline": SolverConfig(steps=500, step_size=5e-2, w_pose=0.0, w_init=0.0, w_refine=0.0,
                             w_hmor=0.0, w_abs=1.0, anchor="input"),
}


class TestFixedPoint:
    """A step that leaves x and the step size unchanged, bit for bit, is
    repeated by every later step: refine evaluates no more and copies its
    row."""

    @staticmethod
    def _criterion_7_pair(s=0):
        spec = GenSpec(seed=70_000 + s, n_persons=4, depth_range=(4000.0, 4400.0),
                       perturbation=GaussNoise(sigma_z=300.0))
        gt = generate_scene(spec)
        return perturb(gt, spec), gt

    @pytest.mark.parametrize("name", sorted(CRITERION_7))
    def test_evaluations_stop_at_the_fixed_point(self, monkeypatch, name):
        calls = []
        evaluate = _Objective.evaluate

        def spy(*args, **kwargs):
            calls.append(None)
            return evaluate(*args, **kwargs)

        monkeypatch.setattr(_Objective, "evaluate", spy)
        pred, gt = self._criterion_7_pair(2)  # fixed at step 127 under the HMOR config
        cfg = CRITERION_7[name]
        _, trace = refine(pred, gt, cfg)
        full_run = len(calls)
        # the trace is constant from row t - 1, where x last moved; step t is
        # the first that leaves x where it is and the last that evaluates
        t = 1 + next(i for i in range(len(trace))
                     if all(row.value == trace[i].value and row.violations == trace[i].violations
                            for row in trace[i:]))
        assert t < cfg.steps
        calls.clear()
        _, head = refine(pred, gt, dataclasses.replace(cfg, steps=t))
        assert head == trace[:t + 1] and [row.step for row in trace] == list(range(cfg.steps + 1))
        # a run that evaluated every step would make at least steps + 1 evaluations
        assert len(calls) == full_run < cfg.steps + 1


def _faults_per_refine_op() -> float:
    """Mean minor page faults of this process per benchmark-shaped refine
    op (4 persons, 10 steps of 4 views), over 32 ops after 8 warm-up ops."""
    import resource
    inputs = []
    for k in range(32):
        spec = GenSpec(seed=930_000 + k, n_persons=4, perturbation=GaussNoise(sigma_z=300.0))
        gt = generate_scene(spec)
        inputs.append((perturb(gt, spec), gt))
    for k in range(8):
        refine(*inputs[k], SolverConfig(steps=10, views_per_step=4, seed=k))
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    for k, (pred, gt) in enumerate(inputs):
        refine(pred, gt, SolverConfig(steps=10, views_per_step=4, seed=k))
    return (resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / len(inputs)


def test_refine_ops_reuse_heap_pages():
    # a run's (k, P) arrays are one block past glibc's mmap threshold, and
    # none are built as (k, P) temporaries: a heap trimmed and regrown
    # around every run faults its pages in again, hundreds per op
    faults = _faults_per_refine_op()
    assert faults < 50, f"{faults:.1f} minor faults per refine op"


class TestGradCheck:
    def test_every_term_matches_finite_differences(self):
        pred, gt, cfg = _gradcheck_point(np.random.default_rng(8), 1, SolverConfig())
        assert (pred.person_count, cfg.free_variables) == (2, "full_pose")
        errors = grad_check(pred, gt, config=cfg)
        assert list(errors) == ["pose", "init", "refine", "abs", "hmor"]
        assert max(errors.values()) < 1e-5

    def test_root_only_mode(self):
        pred, gt, cfg = _gradcheck_point(np.random.default_rng(9), 2, SolverConfig())
        assert (pred.person_count, cfg.free_variables) == (3, "root_depths_only")
        assert max(grad_check(pred, gt, config=cfg).values()) < 1e-5

    def test_four_view_objective_matches_finite_differences(self):
        pred, gt, cfg = _gradcheck_point(np.random.default_rng(8), 1,
                                         SolverConfig(views_per_step=4))
        assert max(grad_check(pred, gt, config=cfg).values()) < 1e-5

    def test_zero_gradient_against_roundoff_agrees(self):
        # the value is constant, but its rounding moves with x: the old
        # constant 1e-8 floor read this difference as a 1.1e-3 error
        def value_at(x):
            return (x[0] + 4.0) * 0.3 - x[0] * 0.3

        x0 = np.array([0.1234])
        assert (value_at(x0 + 1e-5) - value_at(x0 - 1e-5)) != 0.0
        assert _fd_max_rel_err(value_at, x0, np.zeros(1), 1e-5) < 1e-5
        assert _fd_max_rel_err(value_at, x0, np.full(1, 1e-6), 1e-5) > 1e-5

    def test_vector_values_give_one_error_each(self):
        def values_at(x):
            return [x[0] ** 2, 3.0 * x[1]]

        x0 = np.array([0.5, -2.0])
        errors = _fd_max_rel_err(values_at, x0, np.array([[1.0, 0.0], [0.0, 6.0]]), 1e-5)
        assert errors.shape == (2,)
        assert errors[0] < 1e-9 and errors[1] == pytest.approx(0.5)


class TestWrongOrderDescent:
    def test_single_step_decreases_wrong_order_hmor(self, camera):
        gt = two_person_depth_fixture(camera)
        swapped = swap_root_depths(gt)
        cfg = SolverConfig(steps=1, step_size=1e-3, **HMOR_ONLY)
        _, trace = refine(swapped, gt, cfg)
        assert trace[1].value < trace[0].value
