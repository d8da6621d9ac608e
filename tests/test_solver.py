import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hmor import (GaussNoise, GenSpec, HmorConfig, InvalidInputError,
                  SolverConfig, SolverError, count_violations, enumerate_pairs,
                  generate_scene, grad_check, objective, ordinal_violations,
                  perturb, refine)
from hmor import sample_view
from hmor.cli import _jitter_all_coordinates
import hmor.solver
from hmor.ordinal import LabelledTruth
from hmor.solver import (_Anchors, _fd_max_rel_err, _objective_on_vars, _SceneVars,
                         check_function_gradients)
from conftest import swap_root_depths, two_person_depth_fixture

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
        pairs = [enumerate_pairs(gt, v, cfg.hmor) for v in
                 [gt.camera.normal] + [sample_view(rng=rng) for _ in range(3)]]
        value, grad = objective(noisy, pairs, gt, cfg)
        singles = [objective(noisy, p, gt, cfg) for p in pairs]
        assert value == pytest.approx(np.mean([v for v, _ in singles]), rel=1e-12)
        assert np.allclose(grad, np.mean([g for _, g in singles], axis=0),
                           rtol=1e-12, atol=1e-15)

    def test_view_sequence_with_different_pair_sets_rejected(self):
        gt = generate_scene(GenSpec(seed=12, n_persons=2))
        cfg = SolverConfig(hmor=HmorConfig(pair_cap=20))
        pairs = [enumerate_pairs(gt, gt.camera.normal, cfg.hmor, np.random.default_rng(s))
                 for s in (1, 2)]
        with pytest.raises(InvalidInputError, match="pair sets differ"):
            objective(gt, pairs, gt, cfg)

    def test_config_validation(self):
        with pytest.raises(InvalidInputError):
            SolverConfig(steps=0)
        with pytest.raises(InvalidInputError):
            SolverConfig(step_size=-1.0)
        with pytest.raises(InvalidInputError):
            SolverConfig(free_variables="nope")
        with pytest.raises(InvalidInputError):
            SolverConfig(anchor="nope")


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

    def test_trace_monotone_with_halving(self):
        spec = GenSpec(seed=3, n_persons=3, perturbation=GaussNoise(40.0, 400.0))
        gt = generate_scene(spec)
        noisy = perturb(gt, spec)
        cfg = SolverConfig(steps=120, step_size=5e-2, step_halving=True, **HMOR_ONLY)
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

    def test_divergence_raises(self):
        spec = GenSpec(seed=5, n_persons=2, perturbation=GaussNoise(0.0, 500.0))
        gt = generate_scene(spec)
        noisy = perturb(gt, spec)
        cfg = SolverConfig(steps=5, divergence_limit=1e-9, **HMOR_ONLY)
        with pytest.raises(SolverError):
            refine(noisy, gt, cfg)

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
            assert trace[-1].violations == sum(count_violations(refined, normal_pairs, cfg.hmor))
        if "min_step" in overrides:
            assert len({(t.value, t.violations) for t in full}) == 1


class TestCarriedEvaluation:
    """One ordinal pass per candidate: an accepted candidate's value and
    gradient under the next step's views are carried, not recomputed."""

    @pytest.mark.parametrize("views", [1, 4])
    def test_one_pass_per_step(self, monkeypatch, views):
        spec = GenSpec(seed=22, n_persons=4, perturbation=GaussNoise(30.0, 300.0))
        gt = generate_scene(spec)
        noisy = perturb(gt, spec)
        calls = []
        kernel = hmor.solver.ordinal_pass

        def spy(*args, **kwargs):
            calls.append(args)
            return kernel(*args, **kwargs)

        monkeypatch.setattr(hmor.solver, "ordinal_pass", spy)
        cfg = SolverConfig(steps=10, views_per_step=views, step_halving=False)
        _, trace = refine(noisy, gt, cfg)
        # one pass at the start point for trace row 0 and step 1's
        # gradient, then one per step's candidate
        assert len(calls) == cfg.steps + 1 and len(trace) == cfg.steps + 1

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


class TestGradCheck:
    def test_every_term_matches_finite_differences(self):
        gt = generate_scene(GenSpec(seed=8, n_persons=2))
        noisy = _jitter_all_coordinates(gt, 99)
        cfg = SolverConfig(free_variables="full_pose")
        for term in ("pose", "init", "refine", "hmor", "abs"):
            assert grad_check(term, noisy, gt, config=cfg) < 1e-5

    def test_root_only_mode(self):
        gt = generate_scene(GenSpec(seed=9, n_persons=3))
        noisy = _jitter_all_coordinates(gt, 100)
        cfg = SolverConfig(free_variables="root_depths_only")
        for term in ("init", "refine", "hmor", "abs"):
            assert grad_check(term, noisy, gt, config=cfg) < 1e-5

    def test_four_view_objective_matches_finite_differences(self):
        gt = generate_scene(GenSpec(seed=8, n_persons=2))
        noisy = _jitter_all_coordinates(gt, 99)
        cfg = SolverConfig(free_variables="full_pose")
        rng = np.random.default_rng(4)
        views = [gt.camera.normal] + [sample_view(rng=rng).direction for _ in range(3)]
        labelled = LabelledTruth(gt, cfg.hmor).label(views)
        sv = _SceneVars(noisy, cfg)
        anchors = _Anchors.from_scene(gt)
        x0 = sv.pack()
        _, g, _ = _objective_on_vars(sv, labelled, anchors, cfg)

        def value_at(x):
            sv.unpack(x)
            return _objective_on_vars(sv, labelled, anchors, cfg, want_grad=False)[0]

        assert _fd_max_rel_err(value_at, x0, g, 1e-5) < 1e-5

    def test_unknown_term_rejected(self):
        gt = generate_scene(GenSpec(seed=10, n_persons=1))
        with pytest.raises(InvalidInputError):
            grad_check("banana", gt, gt)

    def test_function_level_primitives(self):
        results = check_function_gradients(seed=1, points=40)
        assert set(results) == {"err_instance", "err_part", "err_part_particle",
                                "err_joint", "loss_pose", "loss_abs", "loss_init",
                                "loss_refine"}
        for name, err in results.items():
            assert err < 1e-5, name


class TestWrongOrderDescent:
    def test_single_step_decreases_wrong_order_hmor(self, camera):
        gt = two_person_depth_fixture(camera)
        swapped = swap_root_depths(gt)
        cfg = SolverConfig(steps=1, step_size=1e-3, **HMOR_ONLY)
        _, trace = refine(swapped, gt, cfg)
        assert trace[1].value < trace[0].value
