import dataclasses
import itertools
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from hmor import (AbsolutePose, BoundingBox, Camera, GaussNoise, GenSpec, HmorConfig,
                  InvalidInputError, MetricReport, NumericalError, Person, RelativePose, Scene,
                  SkeletonTopology, ViolationCounts, auc, assemble_absolute, evaluate,
                  generate_scene, match_persons, mpjpe, optimal_assignment,
                  ordinal_violations, pck, perturb, sample_view, save_scene,
                  similarity_align)
from hmor import metrics
from conftest import (brute_force_pairs, make_person, ordinal_brute_force, swap_root_depths,
                      two_person_depth_fixture)


def random_pose(rng, j=17):
    return AbsolutePose(np.column_stack([
        rng.normal(0, 300, j), rng.normal(0, 300, j), rng.uniform(2000, 5000, j)]))


def shift_pose(pose, offset):
    return AbsolutePose(pose.joints + np.asarray(offset, dtype=float))


class TestSimilarityAlign:
    def test_recovers_similarity_transform(self):
        rng = np.random.default_rng(0)
        target = random_pose(rng).joints
        angle = 0.7
        R = np.array([[np.cos(angle), -np.sin(angle), 0.0],
                      [np.sin(angle), np.cos(angle), 0.0],
                      [0.0, 0.0, 1.0]])
        source = 1.7 * target @ R.T + np.array([100.0, -50.0, 300.0])
        aligned = similarity_align(source, target)
        assert np.abs(aligned - target).max() < 1e-6

    def test_recovers_stacked_transforms(self):
        rng = np.random.default_rng(1)
        target = np.stack([random_pose(rng).joints for _ in range(6)])
        R = np.linalg.qr(rng.normal(size=(6, 3, 3)))[0]
        R *= np.sign(np.linalg.det(R))[:, None, None]  # proper rotations
        scale = rng.uniform(0.5, 2.0, (6, 1, 1))
        source = scale * target @ R + rng.normal(0.0, 500.0, (6, 1, 3))
        assert np.abs(similarity_align(source, target) - target).max() < 1e-9

    @pytest.mark.parametrize("m", range(1, 17))
    def test_stack_equals_per_set_calls(self, m):
        rng = np.random.default_rng(100 + m)
        source = np.stack([random_pose(rng).joints for _ in range(m)])
        target = np.stack([random_pose(rng).joints for _ in range(m)])
        # row 0: a mirrored target, whose best orthogonal fit is a reflection
        target[0] = source[0] * np.array([1.0, 1.0, -1.0]) + rng.normal(0.0, 5.0, (17, 3))
        xc, yc = (a[0] - a[0].mean(axis=0) for a in (source, target))
        assert np.linalg.det(yc.T @ xc) < 0
        if m > 1:
            source[-1] = source[-1, 0]  # row m-1: every point the same
        aligned = similarity_align(source, target)
        assert aligned.shape == source.shape
        for k in range(m):
            assert np.array_equal(aligned[k], similarity_align(source[k], target[k]))
        if m > 1:
            assert np.abs(aligned[-1] - target[-1].mean(axis=0)).max() < 1e-9  # translated

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("side", [0, 1])
    def test_non_finite_point_rejected(self, bad, side):
        pts = [random_pose(np.random.default_rng(2)).joints for _ in range(2)]
        pts[side][3, 1] = bad
        with pytest.raises(NumericalError, match="non-finite"):
            similarity_align(*pts)
        with pytest.raises(NumericalError, match="non-finite"):
            similarity_align(*(np.stack([p, p]) for p in pts))

    @pytest.mark.parametrize("source, target", [
        (np.zeros((0, 3)), np.zeros((0, 3))),
        (np.zeros((2, 0, 3)), np.zeros((2, 0, 3))),
        (np.ones((4, 3)), np.ones((5, 3))),
        (np.ones((2, 4, 3)), np.ones((4, 3))),
        (np.ones(3), np.ones(3)),
    ])
    def test_empty_or_mismatched_sets_rejected(self, source, target):
        with pytest.raises(InvalidInputError):
            similarity_align(source, target)


class TestMpjpe:
    def test_identical_poses_zero_under_all_alignments(self):
        pose = random_pose(np.random.default_rng(1))
        for alignment in ("none", "root", "procrustes"):
            assert mpjpe(pose, pose, alignment) < 1e-9

    def test_translation_offsets(self):
        pose = random_pose(np.random.default_rng(2))
        moved = shift_pose(pose, [0.0, 0.0, 50.0])
        assert mpjpe(moved, pose, "root") < 1e-9
        assert abs(mpjpe(moved, pose, "none") - 50.0) < 1e-9

    def test_single_joint_displacement_hand_value(self):
        gt = random_pose(np.random.default_rng(3))
        pred = gt.joints.copy()
        pred[4] += np.array([0.0, 30.0, 0.0])
        got = mpjpe(AbsolutePose(pred), gt, "root")
        assert abs(got - 30.0 / 17.0) < 1e-9

    def test_procrustes_invariant_to_similarity(self):
        rng = np.random.default_rng(4)
        gt = random_pose(rng)
        angle = -0.4
        R = np.array([[1.0, 0.0, 0.0],
                      [0.0, np.cos(angle), -np.sin(angle)],
                      [0.0, np.sin(angle), np.cos(angle)]])
        pred = AbsolutePose(0.8 * gt.joints @ R.T + np.array([0.0, 0.0, 4000.0]))
        assert mpjpe(pred, gt, "procrustes") < 1e-6

    def test_joint_count_mismatch_rejected(self):
        a = random_pose(np.random.default_rng(5), j=17)
        b = random_pose(np.random.default_rng(6), j=4)
        with pytest.raises(InvalidInputError):
            mpjpe(a, b)

    def test_alignment_hierarchy_bounds(self):
        rng = np.random.default_rng(7)
        for _ in range(30):
            gt = random_pose(rng)
            pred = AbsolutePose(gt.joints + rng.normal(0, 60, gt.joints.shape))
            pa = mpjpe(pred, gt, "procrustes")
            root = mpjpe(pred, gt, "root")
            absolute = mpjpe(pred, gt, "none")
            root_offset = np.linalg.norm(pred.joints[0] - gt.joints[0])
            assert pa <= root + 1e-9
            assert root <= absolute + root_offset + 1e-9

    def test_abs_translation_covariance_vs_bruteforce(self):
        rng = np.random.default_rng(8)
        gt = random_pose(rng)
        pred = AbsolutePose(gt.joints + rng.normal(0, 20, gt.joints.shape))
        t = np.array([15.0, -10.0, 40.0])
        moved = shift_pose(pred, t)
        expected = np.mean([np.linalg.norm(pred.joints[j] + t - gt.joints[j])
                            for j in range(17)])
        assert abs(mpjpe(moved, gt, "none") - expected) < 1e-9


def _scene_with_poses(camera, poses, topology):
    """Build a scene whose assembled absolute poses equal the given ones."""
    persons = []
    for joints in poses:
        z = joints[:, 2]
        u = camera.fx * joints[:, 0] / z + camera.cx
        v = camera.fy * joints[:, 1] / z + camera.cy
        u_top, v_top = u.min() - 1.0, v.min() - 1.0
        w = max(u.max() - u_top, 1.0) + 1.0
        h = max(v.max() - v_top, 1.0) + 1.0
        root_depth = float(z[topology.root_index])
        rel = np.column_stack([u - u_top, v - v_top, z - root_depth])
        persons.append(Person(
            box=BoundingBox(u_top, v_top, w, h),
            rel_pose=RelativePose(rel, topology.root_index),
            root_depth=root_depth))
    return Scene(camera=camera, persons=tuple(persons), topology=topology)


class TestMatchPersons:
    def test_one_to_one(self, camera):
        scene = generate_scene(GenSpec(seed=0, n_persons=1))
        m = match_persons(scene, scene)
        assert m.pairs == ((0, 0),)
        assert m.unmatched_pred == () and m.unmatched_gt == ()

    def test_crossed_costs_resolve_correctly(self, camera):
        rng = np.random.default_rng(9)
        topo = SkeletonTopology()
        a = random_pose(rng).joints
        # a genuinely different pose, not a translation of the first
        b = a + rng.normal(0.0, 250.0, a.shape) + np.array([800.0, 0.0, 900.0])
        gt = _scene_with_poses(camera, [a, b], topo)
        # predictions listed in swapped order must still match their twins
        pred = _scene_with_poses(camera, [b + 2.0, a + 2.0], topo)
        m = match_persons(pred, gt)
        assert set(m.pairs) == {(0, 1), (1, 0)}

    def test_extra_prediction_unmatched(self, camera):
        rng = np.random.default_rng(10)
        topo = SkeletonTopology()
        a = random_pose(rng).joints
        gt = _scene_with_poses(camera, [a], topo)
        pred = _scene_with_poses(camera, [a, a + np.array([500.0, 0.0, 500.0])], topo)
        m = match_persons(pred, gt)
        assert len(m.pairs) == 1
        assert len(m.unmatched_pred) == 1
        assert m.unmatched_gt == ()

    def test_optimal_beats_greedy_on_scenes(self, camera):
        rng = np.random.default_rng(11)
        topo = SkeletonTopology()
        for _ in range(20):
            gt_poses = [random_pose(rng).joints for _ in range(3)]
            pred_poses = [gt_poses[i] + rng.normal(0, 150, (17, 3)) for i in range(3)]
            gt = _scene_with_poses(camera, gt_poses, topo)
            pred = _scene_with_poses(camera, pred_poses, topo)

            # independent cost matrix from scratch
            cost = np.empty((3, 3))
            for i in range(3):
                for j in range(3):
                    pp = assemble_absolute(pred.persons[i], camera).joints
                    gp = assemble_absolute(gt.persons[j], camera).joints
                    pp = pp - pp[0]
                    gp = gp - gp[0]
                    cost[i, j] = np.linalg.norm(pp - gp, axis=1).mean()
            best = min(sum(cost[i, p[i]] for i in range(3))
                       for p in itertools.permutations(range(3)))
            m = match_persons(pred, gt)
            got = sum(cost[i, j] for i, j in m.pairs)
            assert abs(got - best) < 1e-9

    def test_projected_cost_flag(self, camera):
        scene = generate_scene(GenSpec(seed=12, n_persons=2))
        m = match_persons(scene, scene, cost="projected_2d")
        assert set(m.pairs) == {(0, 0), (1, 1)}


def _exact_offset_pair(camera, pixel_offsets, j=4, depth=4000.0):
    """Scene pair whose per-joint distances are exact in float arithmetic.

    All joints sit at one shared depth with z_rel = 0, so x recovers as
    depth * pixel / fx with no lossy round trip; a pixel offset du maps
    to exactly depth * du / fx millimeters of error on that joint.
    """
    topo = SkeletonTopology(joint_count=j, root_index=0,
                            parts=tuple((i, i + 1) for i in range(j - 1)))

    def person(extra):
        rel = np.zeros((j, 3))
        rel[:, 0] = 100.0 + 5.0 * np.arange(j) + np.asarray(extra, dtype=float)
        rel[:, 1] = 100.0 + 3.0 * np.arange(j)
        return make_person(rel, depth)

    gt = Scene(camera=camera, persons=(person(np.zeros(j)),), topology=topo)
    pred = Scene(camera=camera, persons=(person(pixel_offsets),), topology=topo)
    return pred, gt


class TestPck:
    def test_exact_prediction_scores_100(self, camera):
        scene = generate_scene(GenSpec(seed=14, n_persons=2))
        assert pck(scene, scene, "root") == 100.0
        assert pck(scene, scene, "none") == 100.0

    def test_half_displaced_scores_50(self, camera):
        # 100 px at 4000 mm depth is 400 mm of error on two of four joints
        pred, gt = _exact_offset_pair(camera, [0.0, 0.0, 100.0, 100.0])
        assert pck(pred, gt, "none", threshold_mm=150.0) == 50.0

    def test_threshold_is_inclusive(self, camera):
        # 37.5 px at 4000 mm depth is exactly 150.0 mm
        pred, gt = _exact_offset_pair(camera, [0.0, 37.5, 37.5, 37.5])
        assert pck(pred, gt, "none", threshold_mm=150.0) == 100.0
        assert pck(pred, gt, "none", threshold_mm=149.9999) == 25.0

    def test_unmatched_gt_counts_incorrect(self, camera):
        rng = np.random.default_rng(15)
        topo = SkeletonTopology()
        a = random_pose(rng).joints
        b = a + np.array([900.0, 0.0, 700.0])
        gt = _scene_with_poses(camera, [a, b], topo)
        pred = _scene_with_poses(camera, [a], topo)
        assert pck(pred, gt, "none", threshold_mm=150.0) == 50.0

    def test_monotone_in_threshold(self, camera):
        spec = GenSpec(seed=16, n_persons=2, perturbation=GaussNoise(sigma_xy=40.0, sigma_z=200.0))
        gt = generate_scene(spec)
        pred = perturb(gt, spec)
        values = [pck(pred, gt, "root", t) for t in (10.0, 50.0, 100.0, 150.0, 300.0)]
        assert all(b >= a for a, b in zip(values, values[1:]))


class TestAuc:
    def test_exact_prediction_is_100(self):
        scene = generate_scene(GenSpec(seed=17, n_persons=2))
        assert auc(scene, scene) == 100.0

    def test_uniform_75mm_error_hand_value(self, camera):
        # every joint exactly 75 mm off (18.75 px at 4000 mm): thresholds
        # 75..150 of the 1..150 grid count, inclusively
        pred, gt = _exact_offset_pair(camera, [18.75] * 4)
        got = auc(pred, gt, "none")
        assert abs(got - 100.0 * 76.0 / 150.0) < 1e-9

    def test_auc_never_exceeds_pck_at_max_threshold(self, camera):
        spec = GenSpec(seed=19, n_persons=2, perturbation=GaussNoise(sigma_xy=30.0, sigma_z=250.0))
        gt = generate_scene(spec)
        pred = perturb(gt, spec)
        assert auc(pred, gt, "root") <= pck(pred, gt, "root", 150.0) + 1e-12

    def test_equals_mean_of_independent_pck(self, camera):
        spec = GenSpec(seed=20, n_persons=3, perturbation=GaussNoise(sigma_xy=25.0, sigma_z=300.0))
        gt = generate_scene(spec)
        pred = perturb(gt, spec)
        grid = np.arange(1.0, 151.0)
        expected = np.mean([pck(pred, gt, "root", float(t)) for t in grid])
        assert auc(pred, gt, "root", grid) == expected


class TestOrdinalViolations:
    def test_exact_prediction_clean(self):
        scene = generate_scene(GenSpec(seed=21, n_persons=3))
        v = ordinal_violations(scene, scene, [scene.camera.normal])
        assert (v.instance, v.part, v.joint) == (0, 0, 0)

    def test_depth_swap_single_view(self, camera):
        gt = two_person_depth_fixture(camera)
        swapped = swap_root_depths(gt)
        v = ordinal_violations(swapped, gt, [gt.camera.normal])
        assert v.instance == 1

    def test_person_count_mismatch_rejected(self, camera):
        gt = two_person_depth_fixture(camera)
        solo = dataclasses.replace(gt, persons=gt.persons[:1])
        with pytest.raises(InvalidInputError):
            ordinal_violations(solo, gt, [gt.camera.normal])

    @pytest.mark.parametrize("cfg", [HmorConfig(), HmorConfig(part_mode="particle",
                                                              equality_tolerance=0.02)],
                             ids=["vector", "particle_tolerance"])
    def test_equals_brute_force_summed_over_views(self, cfg):
        spec = GenSpec(seed=25, n_persons=3, perturbation=GaussNoise(30.0, 300.0))
        gt = generate_scene(spec)
        pred = perturb(gt, spec)
        rng = np.random.default_rng(25)
        views = [sample_view(rng=rng) for _ in range(4)]
        arrays = [v.direction for v in views]
        counts = ordinal_brute_force(pred, gt, arrays, cfg, brute_force_pairs(gt))[2]
        want = ViolationCounts(*counts.sum(axis=1).tolist())
        assert want.part and want.joint
        assert ordinal_violations(pred, gt, views, cfg) == want
        assert ordinal_violations(pred, gt, arrays, cfg) == want
        assert ordinal_violations(pred, gt, np.array(arrays), cfg) == want

    def test_no_views_count_nothing(self):
        spec = GenSpec(seed=26, n_persons=2, perturbation=GaussNoise(30.0, 300.0))
        gt = generate_scene(spec)
        assert ordinal_violations(perturb(gt, spec), gt, []) == ViolationCounts(0, 0, 0)

    def test_view_must_be_a_3_vector(self):
        scene = generate_scene(GenSpec(seed=27, n_persons=2))
        with pytest.raises(InvalidInputError):
            ordinal_violations(scene, scene, [scene.camera.normal, np.array([0.0, 1.0])])

    def test_audit_forms_no_loss(self, monkeypatch):
        from hmor import ordinal, solver
        calls = []

        def spy(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        real = ordinal.ordinal_pass
        for module in (ordinal, solver, metrics):
            monkeypatch.setattr(module, "ordinal_pass", spy, raising=False)
        spec = GenSpec(seed=28, n_persons=4, perturbation=GaussNoise(30.0, 300.0))
        gt = generate_scene(spec)
        pred = perturb(gt, spec)
        ordinal.hmor_loss(pred, ordinal.enumerate_pairs(gt, gt.camera.normal))
        assert len(calls) == 1  # the spy sees the loss pass
        calls.clear()
        evaluate(pred, gt, views=[gt.camera.normal, sample_view(rng=np.random.default_rng(1))])
        ordinal_violations(pred, gt, [gt.camera.normal],
                           HmorConfig(part_mode="particle", equality_tolerance=0.02))
        assert calls == []

    def test_sixteen_person_audit_peak_memory(self):
        import tracemalloc
        spec = GenSpec(seed=29, n_persons=16, perturbation=GaussNoise(30.0, 300.0))
        gt = generate_scene(spec)
        pred = perturb(gt, spec)
        views = [gt.camera.normal]
        tracemalloc.start()
        try:
            ordinal_violations(pred, gt, views)  # warm-up: cached pair layout
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            ordinal_violations(pred, gt, views)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert peak <= 1200 * 1024


class TestEvaluate:
    def test_exact_prediction_report(self):
        scene = generate_scene(GenSpec(seed=22, n_persons=2))
        report = evaluate(scene, scene)
        assert report.mpjpe < 1e-9
        assert report.pa_mpjpe < 1e-9
        assert report.abs_mpjpe < 1e-9
        assert report.pck_rel == 100.0
        assert report.pck_abs == 100.0
        assert report.auc_rel == 100.0
        assert report.ordinal_violations.total == 0
        assert report.matched_pairs == ((0, 0), (1, 1))
        assert len(report.pck_curve) == 150

    def test_unequal_person_counts(self, camera):
        rng = np.random.default_rng(24)
        topo = SkeletonTopology()
        a = random_pose(rng).joints
        b = a + rng.normal(0.0, 300.0, a.shape) + np.array([900.0, 0.0, 600.0])
        gt = _scene_with_poses(camera, [a, b], topo)
        pred = _scene_with_poses(camera, [a], topo)
        report = evaluate(pred, gt)
        assert len(report.matched_pairs) == 1
        assert report.pck_rel <= 50.0  # the unmatched person is all-wrong
        assert report.mpjpe < 1e-6     # the matched one is exact

    def test_audit_of_shuffled_persons_uses_the_matching(self):
        spec = GenSpec(seed=28, n_persons=4, perturbation=GaussNoise(30.0, 300.0))
        gt = generate_scene(spec)
        pred = perturb(gt, spec)
        order = (2, 0, 3, 1)
        shuffled = dataclasses.replace(pred, persons=tuple(pred.persons[i] for i in order))
        rng = np.random.default_rng(28)
        views = [sample_view(rng=rng) for _ in range(4)]
        report = evaluate(shuffled, gt, views=views)
        assert sorted(report.matched_pairs) == sorted((i, j) for i, j in enumerate(order))
        assert report.ordinal_violations == ordinal_violations(pred, gt, views)
        assert report.ordinal_violations.total > 0

    def test_audit_enumerates_the_truth_once(self, monkeypatch):
        """No per-view enumeration or loss pass, and each scene lifted once."""
        import hmor.metrics
        import hmor.ordinal
        calls = []

        def spy(name, fn):
            def wrapper(*args, **kwargs):
                calls.append((name, id(args[0])))
                return fn(*args, **kwargs)
            return wrapper

        for name in ("enumerate_pairs", "scene_joint_array"):
            fn = getattr(hmor.ordinal, name)
            monkeypatch.setattr(hmor.ordinal, name, spy(name, fn))
            monkeypatch.setattr(hmor.metrics, name, spy(name, fn), raising=False)
        spec = GenSpec(seed=29, n_persons=3, perturbation=GaussNoise(30.0, 300.0))
        gt = generate_scene(spec)
        pred = perturb(gt, spec)
        rng = np.random.default_rng(29)
        evaluate(pred, gt, views=[sample_view(rng=rng) for _ in range(3)])
        assert sorted(calls) == sorted(("scene_joint_array", id(s)) for s in (pred, gt))

    def test_report_consistent_with_direct_calls(self):
        spec = GenSpec(seed=23, n_persons=3, perturbation=GaussNoise(sigma_xy=30.0, sigma_z=350.0))
        gt = generate_scene(spec)
        pred = perturb(gt, spec)
        report = evaluate(pred, gt)
        assert report.pck_rel == pck(pred, gt, "root", 150.0)
        assert report.pck_abs == pck(pred, gt, "none", 150.0)
        assert report.auc_rel == auc(pred, gt, "root")
        per_person = [mpjpe(assemble_absolute(pred.persons[i], pred.camera),
                            assemble_absolute(gt.persons[j], gt.camera), "root")
                      for i, j in report.matched_pairs]
        assert abs(report.mpjpe - np.mean(per_person)) < 1e-12


def _reference_distances(p, g, alignment, root):
    if alignment == "root":
        p, g = p - p[root], g - g[root]
    elif alignment == "procrustes":
        p = similarity_align(p, g)
    return np.linalg.norm(p - g, axis=1)


def _brute_force_report(pred, gt, pck_threshold, thresholds):
    """evaluate() by the definitions: every person assembled on its own,
    MPJPE per person then over persons, and each threshold scored apart."""
    matching = match_persons(pred, gt)
    root = gt.topology.root_index
    dists = {a: [_reference_distances(assemble_absolute(pred.persons[i], pred.camera).joints,
                                      assemble_absolute(gt.persons[j], gt.camera).joints,
                                      a, root)
                 for i, j in matching.pairs]
             for a in ("root", "procrustes", "none")}
    n_gt_joints = gt.person_count * gt.topology.joint_count  # unmatched ones are misses

    def pck_at(alignment, t):
        return 100.0 * sum(int(np.count_nonzero(d <= t)) for d in dists[alignment]) / n_gt_joints

    def mean_error(alignment):
        return float(np.mean([float(d.mean()) for d in dists[alignment]]))

    order = sorted(matching.pairs, key=lambda ij: ij[1])
    pred_sub = dataclasses.replace(pred, persons=tuple(pred.persons[i] for i, _ in order))
    gt_sub = dataclasses.replace(gt, persons=tuple(gt.persons[j] for _, j in order))
    return MetricReport(
        mpjpe=mean_error("root"),
        pa_mpjpe=mean_error("procrustes"),
        abs_mpjpe=mean_error("none"),
        pck_rel=pck_at("root", pck_threshold),
        pck_abs=pck_at("none", pck_threshold),
        auc_rel=float(np.mean([pck_at("root", float(t)) for t in thresholds])),
        ordinal_violations=ordinal_violations(pred_sub, gt_sub, [gt.camera.normal]),
        matched_pairs=matching.pairs,
        pck_curve=tuple((float(t), pck_at("root", float(t)), pck_at("none", float(t)))
                        for t in thresholds),
    )


class TestEvaluateOracle:
    """The one-pass evaluate() equals the per-threshold brute force exactly."""

    @staticmethod
    def _noisy_pair(seed, n):
        spec = GenSpec(seed=seed, n_persons=n,
                       perturbation=GaussNoise(sigma_xy=35.0, sigma_z=300.0))
        gt = generate_scene(spec)
        pred = perturb(gt, spec)
        order = np.random.default_rng(seed).permutation(n)
        return dataclasses.replace(pred, persons=tuple(pred.persons[i] for i in order)), gt

    @pytest.mark.parametrize("n", [1, 3, 8])
    def test_noisy_scenes(self, n):
        pred, gt = self._noisy_pair(60 + n, n)
        grid = np.arange(1.0, 151.0)
        assert evaluate(pred, gt) == _brute_force_report(pred, gt, 150.0, grid)
        coarse = np.arange(5.0, 200.0, 7.5)
        assert (evaluate(pred, gt, pck_threshold_mm=60.0, auc_thresholds_mm=coarse)
                == _brute_force_report(pred, gt, 60.0, coarse))

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_benchmark_eval_inputs(self, seed):
        """The eval benchmark's 20 input pairs of one seed."""
        for k in range(20):
            spec = GenSpec(seed=seed * 1000 + k, n_persons=(2, 4, 8, 8, 16)[k % 5],
                           perturbation=GaussNoise(30.0, 300.0))
            gt = generate_scene(spec)
            pred = perturb(gt, spec)
            assert evaluate(pred, gt) == _brute_force_report(pred, gt, 150.0,
                                                             np.arange(1.0, 151.0))

    @pytest.mark.parametrize("n_pred, n_gt", [(2, 5), (5, 2)])
    def test_unequal_person_counts(self, n_pred, n_gt):
        pred, _ = self._noisy_pair(70, n_pred)
        _, gt = self._noisy_pair(70, n_gt)
        report = evaluate(pred, gt)
        assert len(report.matched_pairs) == min(n_pred, n_gt)
        assert report == _brute_force_report(pred, gt, 150.0, np.arange(1.0, 151.0))

    def test_thresholds_inclusive(self, camera):
        # errors of exactly 0, 150, 75 and 100 mm sit on grid points
        pred, gt = _exact_offset_pair(camera, [0.0, 37.5, 18.75, 25.0])
        grid = np.arange(1.0, 151.0)
        report = evaluate(pred, gt, pck_threshold_mm=100.0)
        assert report == _brute_force_report(pred, gt, 100.0, grid)
        assert report.pck_abs == 75.0
        assert dict((t, ab) for t, _, ab in report.pck_curve)[150.0] == 100.0

    def test_curve_behaves_as_its_rows(self):
        pred, gt = self._noisy_pair(75, 4)
        curve = evaluate(pred, gt).pck_curve
        rows = tuple(curve)
        assert len(rows) == 150 and all(type(v) is float for row in rows for v in row)
        assert curve == rows and hash(curve) == hash(rows) and repr(curve) == repr(rows)
        assert curve[24::25] == rows[24::25] and curve[-1] == rows[-1]
        assert np.array_equal(np.asarray(curve, dtype=float), np.array(rows))

    @pytest.mark.parametrize("bad", [0.0, -5.0, float("nan")])
    def test_non_positive_threshold_rejected(self, bad):
        pred, gt = self._noisy_pair(80, 2)
        with pytest.raises(InvalidInputError, match="threshold must be positive"):
            evaluate(pred, gt, auc_thresholds_mm=np.array([bad, 10.0, 20.0]))
        with pytest.raises(InvalidInputError, match="threshold must be positive"):
            evaluate(pred, gt, pck_threshold_mm=bad)


def _assignment_matrices(kind: str, rng):
    """Cost matrices of every shape (r, c), 0 <= r, c <= 17, four of each."""
    for r, c, _ in itertools.product(range(18), range(18), range(4)):
        if kind == "uniform":
            yield rng.uniform(0.0, 1.0, (r, c))
        elif kind == "integer_ties":
            yield rng.integers(0, 4, (r, c)).astype(float)
        elif kind == "all_equal":
            yield np.full((r, c), float(rng.integers(-2, 3)))
        else:  # large magnitude, mixed sign
            yield rng.uniform(-1.0, 1.0, (r, c)) * 10.0 ** int(rng.integers(6, 16))


class TestOptimalAssignment:
    def test_documented_tie_break(self):
        rows, cols = optimal_assignment(np.array([[1.0, 1.0], [1.0, 1.0], [0.0, 0.0]]))
        assert rows.tolist() == [1, 2] and cols.tolist() == [1, 0]
        rows, cols = optimal_assignment(np.zeros((3, 3)))
        assert rows.tolist() == [0, 1, 2] and cols.tolist() == [0, 1, 2]

    @pytest.mark.parametrize("shape", [(3,), (2, 2, 2), ()])
    def test_not_a_matrix_rejected(self, shape):
        with pytest.raises(InvalidInputError, match=re.escape(f"got shape {shape}")):
            optimal_assignment(np.ones(shape))

    @pytest.mark.parametrize("shape", [(3, 5), (5, 3), (4, 4), (1, 6)])
    def test_optimal_by_exhaustion(self, shape):
        rng = np.random.default_rng(sum(shape))
        r, c = shape
        for _ in range(50):
            cost = rng.integers(0, 6, shape).astype(float)
            rows, cols = optimal_assignment(cost)
            assert len(rows) == min(r, c) and list(rows) == sorted(rows)
            assert len(set(rows)) == len(set(cols)) == min(r, c)
            if r <= c:
                best = min(sum(cost[i, p[i]] for i in range(r))
                           for p in itertools.permutations(range(c), r))
            else:
                best = min(sum(cost[p[j], j] for j in range(c))
                           for p in itertools.permutations(range(r), c))
            assert cost[rows, cols].sum() == best

    @pytest.mark.parametrize("kind", ["uniform", "integer_ties", "all_equal", "large"])
    def test_equals_scipy(self, kind):
        linear_sum_assignment = pytest.importorskip("scipy.optimize").linear_sum_assignment
        rng = np.random.default_rng(len(kind))
        for cost in _assignment_matrices(kind, rng):
            want, got = linear_sum_assignment(cost), optimal_assignment(cost)
            for w, g in zip(want, got):
                assert w.dtype == g.dtype and np.array_equal(w, g), cost

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_match_persons_equals_scipy_on_eval_inputs(self, seed, monkeypatch):
        linear_sum_assignment = pytest.importorskip("scipy.optimize").linear_sum_assignment
        scenes = []
        for k in range(20):  # the benchmark's eval workload inputs of this seed
            spec = GenSpec(seed=seed * 1000 + k, n_persons=(2, 4, 8, 8, 16)[k % 5],
                           perturbation=GaussNoise(30.0, 300.0))
            gt = generate_scene(spec)
            scenes.append((perturb(gt, spec), gt))
        costs = ("root_aligned_3d", "projected_2d")
        ours = [match_persons(pred, gt, cost) for pred, gt in scenes for cost in costs]
        monkeypatch.setattr(metrics, "optimal_assignment", linear_sum_assignment)
        assert ours == [match_persons(pred, gt, cost) for pred, gt in scenes for cost in costs]


_SCIPY_FREE_EVAL = """
import sys
sys.modules["scipy"] = None  # any scipy import now raises ImportError
import hmor, hmor.cli
pred, gt = sys.argv[1:3]
hmor.evaluate(hmor.load_scene(pred), hmor.load_scene(gt))
sys.exit(hmor.cli.main(["eval", pred, gt]))
"""


def test_import_leaves_scipy_unloaded(tmp_path):
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parent.parent / "src")}
    subprocess.run([sys.executable, "-c", "import hmor, sys; assert 'scipy' not in sys.modules"],
                   env=env, check=True, timeout=120)
    spec = GenSpec(seed=7, n_persons=3, perturbation=GaussNoise(30.0, 300.0))
    gt = generate_scene(spec)
    save_scene(gt, tmp_path / "gt.json")
    save_scene(perturb(gt, spec), tmp_path / "pred.json")
    done = subprocess.run([sys.executable, "-c", _SCIPY_FREE_EVAL, str(tmp_path / "pred.json"),
                           str(tmp_path / "gt.json")],
                          env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert '"matched_pairs"' in done.stdout


def test_module_entry_point_starts_without_warnings():
    """``python -m hmor.cli`` with warnings as errors: runpy warns when the
    package's ``__init__`` has already imported ``hmor.cli``."""
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parent.parent / "src")}
    done = subprocess.run([sys.executable, "-W", "error", "-m", "hmor.cli", "--help"],
                          env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0 and done.stderr == ""
