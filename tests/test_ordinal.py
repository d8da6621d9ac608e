import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hmor import (GaussNoise, GenSpec, HmorConfig, InvalidInputError, SkeletonTopology,
                  assemble_absolute, count_violations, enumerate_pairs,
                  err_instance, err_joint, err_part, err_part_particle,
                  generate_scene, hmor_loss, instance_position,
                  part_relations_from_2d, part_vectors, perturb,
                  project_to_plane, relation_instance, relation_joint,
                  relation_part, sample_view)
from hmor.ordinal import (LabelledTruth, err_instance_grad, err_joint_grad,
                          err_part_grad, hmor_loss_on_joints, ordinal_pass,
                          scene_joint_array)
from conftest import (brute_force_pairs, ordinal_brute_force, swap_root_depths,
                      two_person_depth_fixture)

Z = np.array([0.0, 0.0, 1.0])

LOG_1_5 = 0.4054651081081644
LOG_1_2 = 0.18232155679395463


class TestRelationInstance:
    def test_closer_person_is_plus_one(self):
        # depths 2.0 vs 3.0 along the view axis
        assert relation_instance([0.0, 0.0, 2.0], [0.0, 0.0, 3.0], Z) == 1

    def test_equal_depths_are_zero(self):
        assert relation_instance([1.0, 2.0, 3.0], [-5.0, 0.5, 3.0], Z) == 0

    def test_antisymmetry(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            a, b = rng.normal(size=3), rng.normal(size=3)
            n = rng.normal(size=3)
            n /= np.linalg.norm(n)
            assert relation_instance(a, b, n) == -relation_instance(b, a, n)

    def test_tolerance_band(self):
        assert relation_instance([0.0, 0.0, 2.0], [0.0, 0.0, 2.05], Z, eps=0.1) == 0
        assert relation_instance([0.0, 0.0, 2.0], [0.0, 0.0, 2.5], Z, eps=0.1) == 1


class TestErrInstance:
    def test_correct_order_clamps_to_zero(self):
        assert err_instance([0.0, 0.0, 2.0], [0.0, 0.0, 3.0], 1, Z) == 0.0

    def test_wrong_order_hand_value(self):
        # label +1 but predicted depths 3.5 vs 3.0
        err = err_instance([0.0, 0.0, 3.5], [0.0, 0.0, 3.0], 1, Z)
        assert abs(err - LOG_1_5) < 1e-12

    def test_label_zero_gives_zero(self):
        assert err_instance([0.0, 0.0, 9.0], [0.0, 0.0, 1.0], 0, Z) == 0.0

    def test_strictly_increasing_in_margin(self):
        gaps = np.linspace(0.01, 3.0, 50)
        errs = [err_instance([0.0, 0.0, g], [0.0, 0.0, 0.0], 1, Z) for g in gaps]
        assert all(b > a for a, b in zip(errs, errs[1:]))


class TestRelationPart:
    def test_hand_cross_product_case(self):
        assert relation_part([1.0, 0.0, 0.0], [0.0, 1.0, 0.0], Z) == -1

    def test_parallel_parts_are_zero(self):
        assert relation_part([1.0, 2.0, 0.0], [2.0, 4.0, 5.0], Z) == 0

    def test_swap_negates(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            t1, t2 = rng.normal(size=3), rng.normal(size=3)
            n = rng.normal(size=3)
            n /= np.linalg.norm(n)
            assert relation_part(t1, t2, n) == -relation_part(t2, t1, n)


class TestErrPart:
    def test_truth_scores_zero_for_any_pair(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            t1, t2 = rng.normal(size=3), rng.normal(size=3)
            n = rng.normal(size=3)
            n /= np.linalg.norm(n)
            label = relation_part(t1, t2, n)
            assert err_part(t1, t2, label, n) == 0.0

    def test_hand_wrong_order_case(self):
        # label -1, cross gives -1 along the view: err = (-1) * (-1) = 1
        assert err_part([0.0, 1.0, 0.0], [1.0, 0.0, 0.0], -1, Z) == 1.0

    def test_parallel_prediction_scores_zero(self):
        assert err_part([1.0, 0.0, 0.0], [2.0, 0.0, 0.0], -1, Z) == 0.0
        assert err_part([1.0, 0.0, 0.0], [2.0, 0.0, 0.0], 1, Z) == 0.0


class TestErrPartParticle:
    def test_correct_order_midpoints(self):
        assert err_part_particle([0.0, 0.0, 1.0], [0.0, 0.0, 2.0], 1, Z) == 0.0

    def test_wrong_order_hand_value(self):
        err = err_part_particle([0.0, 0.0, 2.5], [0.0, 0.0, 2.0], 1, Z)
        assert abs(err - LOG_1_5) < 1e-12

    def test_label_zero(self):
        assert err_part_particle([0.0, 0.0, 9.0], [0.0, 0.0, 1.0], 0, Z) == 0.0


class TestErrJoint:
    def test_correct_order_zero(self):
        assert err_joint([0.0, 0.0, 1.0], [0.0, 0.0, 2.0], 1, Z) == 0.0

    def test_hand_value(self):
        err = err_joint([0.0, 0.0, 3.2], [0.0, 0.0, 3.0], 1, Z)
        assert abs(err - LOG_1_2) < 1e-12

    def test_label_flips_with_argument_swap(self):
        a, b = [0.0, 0.0, 1.0], [0.0, 0.0, 4.0]
        assert relation_joint(a, b, Z) == -relation_joint(b, a, Z)


class TestEnumeratePairs:
    def test_single_person_counts(self, camera):
        scene = generate_scene(GenSpec(seed=0, n_persons=1))
        pairs = enumerate_pairs(scene, scene.camera.normal)
        assert len(pairs.instance_pairs) == 0
        assert len(pairs.part_pairs) == 91    # C(14, 2)
        assert len(pairs.joint_pairs) == 136  # C(17, 2)

    def test_two_person_counts(self):
        scene = generate_scene(GenSpec(seed=1, n_persons=2))
        pairs = enumerate_pairs(scene, scene.camera.normal)
        assert len(pairs.instance_pairs) == 1
        assert len(pairs.part_pairs) == 378   # C(28, 2)
        assert len(pairs.joint_pairs) == 561  # C(34, 2)

    def test_intra_person_restriction(self):
        scene = generate_scene(GenSpec(seed=1, n_persons=2))
        cfg = HmorConfig(cross_person_parts=False, cross_person_joints=False)
        pairs = enumerate_pairs(scene, scene.camera.normal, cfg)
        assert len(pairs.part_pairs) == 2 * 91
        assert len(pairs.joint_pairs) == 2 * 136
        assert np.all(pairs.part_pairs[:, 0] == pairs.part_pairs[:, 2])
        assert np.all(pairs.joint_pairs[:, 0] == pairs.joint_pairs[:, 2])

    def test_pair_cap_larger_than_available_is_identity(self):
        scene = generate_scene(GenSpec(seed=2, n_persons=2))
        capped = enumerate_pairs(scene, scene.camera.normal, HmorConfig(pair_cap=10**6))
        full = enumerate_pairs(scene, scene.camera.normal)
        assert np.array_equal(capped.part_pairs, full.part_pairs)
        assert np.array_equal(capped.joint_pairs, full.joint_pairs)

    def test_pair_cap_subsamples_deterministically(self):
        scene = generate_scene(GenSpec(seed=2, n_persons=2))
        cfg = HmorConfig(pair_cap=50)
        a = enumerate_pairs(scene, scene.camera.normal, cfg, np.random.default_rng(9))
        b = enumerate_pairs(scene, scene.camera.normal, cfg, np.random.default_rng(9))
        assert len(a.part_pairs) == 50 and len(a.joint_pairs) == 50
        assert np.array_equal(a.part_pairs, b.part_pairs)

    def test_labels_match_scalar_relations(self):
        scene = generate_scene(GenSpec(seed=3, n_persons=2))
        cfg = HmorConfig()
        view = sample_view(theta=1.1, u=0.4).direction
        pairs = enumerate_pairs(scene, view, cfg)
        K = scene_joint_array(scene, cfg.depth_unit_scale)
        topo = scene.topology
        positions = [K[m].mean(axis=0) for m in range(2)]
        for a, b, lab in pairs.instance_pairs:
            assert lab == relation_instance(positions[a], positions[b], view)
        parts = [(K[m][e] - K[m][s]) for m in range(2) for s, e in topo.parts]
        S = topo.part_count
        for m1, s1, m2, s2, lab in pairs.part_pairs[:100]:
            assert lab == relation_part(parts[m1 * S + s1], parts[m2 * S + s2], view)
        for m1, j1, m2, j2, lab in pairs.joint_pairs[:100]:
            assert lab == relation_joint(K[m1][j1], K[m2][j2], view)


class TestHmorLoss:
    def test_zero_on_truth_under_sampled_views(self):
        rng = np.random.default_rng(4)
        for n in (1, 2, 3):
            scene = generate_scene(GenSpec(seed=10 + n, n_persons=n))
            for _ in range(8):
                view = sample_view(rng=rng).direction
                pairs = enumerate_pairs(scene, view)
                loss = hmor_loss(scene, pairs)
                assert loss.total == 0.0
                assert loss.instance == 0.0 and loss.part == 0.0 and loss.joint == 0.0

    def test_depth_swap_fixture_hand_value(self, camera):
        gt = two_person_depth_fixture(camera, z1=4000.0, z2=4600.0)
        swapped = swap_root_depths(gt)
        pairs = enumerate_pairs(gt, gt.camera.normal)
        loss = hmor_loss(swapped, pairs)
        # identical relative poses: mean-depth gap == root gap == 0.6 m
        assert abs(loss.instance - np.log1p(0.6)) < 1e-12

    def test_weights_scale_linearly(self):
        scene = generate_scene(GenSpec(
            seed=5, n_persons=2, perturbation=GaussNoise(sigma_z=400.0)))
        noisy = perturb(scene, GenSpec(
            seed=5, n_persons=2, perturbation=GaussNoise(sigma_z=400.0)))
        pairs = enumerate_pairs(scene, scene.camera.normal)
        one = hmor_loss(noisy, pairs, config=HmorConfig())
        two = hmor_loss(noisy, pairs, config=HmorConfig(w_instance=2.0, w_part=2.0, w_joint=2.0))
        assert abs(two.total - 2.0 * one.total) < 1e-12

    def test_view_mismatch_rejected(self):
        scene = generate_scene(GenSpec(seed=6, n_persons=1))
        pairs = enumerate_pairs(scene, scene.camera.normal)
        with pytest.raises(InvalidInputError):
            hmor_loss(scene, pairs, view=np.array([1.0, 0.0, 0.0]))

    def test_vectorized_loss_matches_scalar_oracle(self):
        spec = GenSpec(seed=7, n_persons=2,
                       perturbation=GaussNoise(sigma_xy=40.0, sigma_z=500.0))
        gt = generate_scene(spec)
        noisy = perturb(gt, spec)
        cfg = HmorConfig()
        view = sample_view(theta=0.7, u=0.2).direction
        pairs = enumerate_pairs(gt, view, cfg)
        loss = hmor_loss(noisy, pairs, config=cfg)

        K = scene_joint_array(noisy, cfg.depth_unit_scale)
        topo = gt.topology
        S = topo.part_count
        positions = [K[m].mean(axis=0) for m in range(2)]
        parts = [(K[m][e] - K[m][s]) for m in range(2) for s, e in topo.parts]

        ins = [err_instance(positions[a], positions[b], lab, view)
               for a, b, lab in pairs.instance_pairs]
        prt = [err_part(parts[m1 * S + s1], parts[m2 * S + s2], lab, view)
               for m1, s1, m2, s2, lab in pairs.part_pairs]
        jnt = [err_joint(K[m1][j1], K[m2][j2], lab, view)
               for m1, j1, m2, j2, lab in pairs.joint_pairs]
        assert abs(loss.instance - np.mean(ins)) < 1e-12
        assert abs(loss.part - np.mean(prt)) < 1e-12
        assert abs(loss.joint - np.mean(jnt)) < 1e-12
        assert abs(loss.total - (loss.instance + loss.part + loss.joint)) < 1e-12

    def test_particle_mode_matches_scalar_oracle(self):
        spec = GenSpec(seed=8, n_persons=2,
                       perturbation=GaussNoise(sigma_xy=30.0, sigma_z=400.0))
        gt = generate_scene(spec)
        noisy = perturb(gt, spec)
        cfg = HmorConfig(part_mode="particle")
        view = gt.camera.normal
        pairs = enumerate_pairs(gt, view, cfg)
        loss = hmor_loss(noisy, pairs, config=cfg)

        K = scene_joint_array(noisy, cfg.depth_unit_scale)
        topo = gt.topology
        S = topo.part_count
        mids = [0.5 * (K[m][e] + K[m][s]) for m in range(2) for s, e in topo.parts]
        prt = [err_part_particle(mids[m1 * S + s1], mids[m2 * S + s2], lab, view)
               for m1, s1, m2, s2, lab in pairs.part_pairs]
        assert abs(loss.part - np.mean(prt)) < 1e-12

    def test_zero_loss_iff_zero_violations_per_view(self):
        spec = GenSpec(seed=9, n_persons=3,
                       perturbation=GaussNoise(sigma_z=120.0))
        gt = generate_scene(spec)
        noisy = perturb(gt, spec)
        rng = np.random.default_rng(11)
        saw_zero = saw_nonzero = False
        for _ in range(200):
            view = sample_view(rng=rng).direction
            pairs = enumerate_pairs(gt, view)
            loss = hmor_loss(noisy, pairs)
            violations = sum(count_violations(noisy, pairs))
            assert (loss.total == 0.0) == (violations == 0)
            saw_zero = saw_zero or violations == 0
            saw_nonzero = saw_nonzero or violations > 0
        # the perturbation is sized so both branches actually occur
        assert saw_nonzero

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(12)
        step = 1e-5
        for err_grad in (err_instance_grad, err_part_grad, err_joint_grad):
            checked = 0
            while checked < 30:
                a, b = rng.normal(size=3), rng.normal(size=3)
                n = rng.normal(size=3)
                n /= np.linalg.norm(n)
                lab = int(rng.choice([-1, 1]))
                if err_grad is err_part_grad:
                    arg = lab * float(np.cross(a, b) @ n)
                else:
                    arg = lab * float((a - b) @ n)
                if abs(arg) < 10 * step:
                    continue
                checked += 1
                _, ga, gb = err_grad(a, b, lab, n)
                x = np.concatenate([a, b])
                g = np.concatenate([ga, gb])
                for i in range(6):
                    xp, xm = x.copy(), x.copy()
                    xp[i] += step
                    xm[i] -= step
                    fp = err_grad(xp[:3], xp[3:], lab, n)[0]
                    fm = err_grad(xm[:3], xm[3:], lab, n)[0]
                    fd = (fp - fm) / (2 * step)
                    assert abs(g[i] - fd) / max(abs(g[i]), abs(fd), 1e-8) < 1e-5


class TestPlanarIdentity:
    def test_cross_product_identical_raw_or_projected(self):
        rng = np.random.default_rng(13)
        for _ in range(1000):
            t1, t2 = rng.normal(size=3), rng.normal(size=3)
            n = rng.normal(size=3)
            n /= np.linalg.norm(n)
            raw = np.cross(t1, t2) @ n
            proj = np.cross(project_to_plane(t1, n), project_to_plane(t2, n)) @ n
            assert abs(raw - proj) < 1e-9 * max(1.0, abs(raw))


class TestPartRelationsFrom2D:
    @staticmethod
    def _frontoparallel_scene(seed):
        """Persons whose joints share one depth each: every bone is
        image-plane parallel, so pixel bones are positive rescalings of
        the camera-plane bone projections."""
        import hmor
        rng = np.random.default_rng(seed)
        topo = SkeletonTopology()
        persons = []
        for _ in range(2):
            depth = rng.uniform(3000.0, 7000.0)
            rel = np.column_stack([rng.uniform(0.0, 300.0, 17),
                                   rng.uniform(0.0, 300.0, 17),
                                   np.zeros(17)])
            persons.append(hmor.Person(
                box=hmor.BoundingBox(rng.uniform(100, 500), rng.uniform(100, 500),
                                     320.0, 320.0),
                rel_pose=hmor.RelativePose(rel, 0),
                root_depth=depth))
        return hmor.Scene(camera=hmor.Camera(1000.0, 1000.0, 500.0, 500.0),
                          persons=tuple(persons), topology=topo)

    def test_agrees_with_3d_labels_for_frontoparallel_parts(self):
        for seed in range(5):
            scene = self._frontoparallel_scene(seed)
            pairs3d = enumerate_pairs(scene, scene.camera.normal)
            pixels = []
            for person in scene.persons:
                rel = person.rel_pose.joints
                pixels.append(np.column_stack([rel[:, 0] + person.box.u_top,
                                               rel[:, 1] + person.box.v_top]))
            pairs2d = part_relations_from_2d(pixels, scene.topology)
            assert np.array_equal(pairs2d[:, :4], pairs3d.part_pairs[:, :4])
            assert np.array_equal(pairs2d[:, 4], pairs3d.part_pairs[:, 4])

    def test_collinear_parts_label_zero(self):
        topo = SkeletonTopology(joint_count=4, parts=((0, 1), (2, 3)))
        pixels = [np.array([[0.0, 0.0], [10.0, 10.0], [5.0, 5.0], [25.0, 25.0]])]
        labels = part_relations_from_2d(pixels, topo)
        assert np.all(labels[:, 4] == 0)

    def test_mirror_flip_negates_labels(self):
        rng = np.random.default_rng(14)
        topo = SkeletonTopology()
        pts = rng.uniform(0.0, 500.0, (17, 2))
        base = part_relations_from_2d([pts], topo)
        flipped_pts = pts.copy()
        flipped_pts[:, 0] *= -1.0
        flipped = part_relations_from_2d([flipped_pts], topo)
        assert np.array_equal(flipped[:, 4], -base[:, 4])

    def test_rejects_bad_shape(self):
        with pytest.raises(InvalidInputError):
            part_relations_from_2d([np.zeros((17, 3))], SkeletonTopology())


class TestSceneJointArray:
    def test_bitwise_equal_to_per_person_assembly(self):
        from hmor import assemble_absolute
        scene = generate_scene(GenSpec(seed=77, n_persons=3))
        vectorized = scene_joint_array(scene)
        stacked = np.stack([assemble_absolute(p, scene.camera).joints
                            for p in scene.persons])
        assert np.array_equal(vectorized, stacked)

    def test_scale_applies(self):
        scene = generate_scene(GenSpec(seed=78, n_persons=1))
        assert np.array_equal(scene_joint_array(scene, 1e-3),
                              scene_joint_array(scene) * 1e-3)


class TestCountViolations:
    def test_exact_prediction_has_none(self):
        scene = generate_scene(GenSpec(seed=15, n_persons=3))
        pairs = enumerate_pairs(scene, scene.camera.normal)
        assert count_violations(scene, pairs) == (0, 0, 0)

    def test_depth_swap_violates_instance_pair(self, camera):
        gt = two_person_depth_fixture(camera)
        swapped = swap_root_depths(gt)
        pairs = enumerate_pairs(gt, gt.camera.normal)
        ins, _, _ = count_violations(swapped, pairs)
        assert ins == 1

    def test_counts_match_bruteforce_recheck(self):
        spec = GenSpec(seed=16, n_persons=2,
                       perturbation=GaussNoise(sigma_xy=50.0, sigma_z=300.0))
        gt = generate_scene(spec)
        noisy = perturb(gt, spec)
        view = gt.camera.normal
        topo = gt.topology
        S = topo.part_count
        saw_zero_label = False
        # default labels, particle parts, and a tolerance band wide enough
        # that label-0 pairs occur at every level but the instance one
        for cfg in (HmorConfig(), HmorConfig(part_mode="particle"),
                    HmorConfig(equality_tolerance=0.02),
                    HmorConfig(part_mode="particle", equality_tolerance=0.02)):
            eps = cfg.equality_tolerance
            pairs = enumerate_pairs(gt, view, cfg)
            got = count_violations(noisy, pairs, cfg)

            K = scene_joint_array(noisy, cfg.depth_unit_scale)
            positions = [K[m].mean(axis=0) for m in range(2)]
            if cfg.part_mode == "particle":
                mids = [0.5 * (K[m][e] + K[m][s]) for m in range(2) for s, e in topo.parts]
                part_label = [relation_instance(mids[m1 * S + s1], mids[m2 * S + s2], view, eps)
                              for m1, s1, m2, s2, _ in pairs.part_pairs]
            else:
                parts = [(K[m][e] - K[m][s]) for m in range(2) for s, e in topo.parts]
                part_label = [relation_part(parts[m1 * S + s1], parts[m2 * S + s2], view, eps)
                              for m1, s1, m2, s2, _ in pairs.part_pairs]
            ins = sum(1 for a, b, lab in pairs.instance_pairs
                      if relation_instance(positions[a], positions[b], view, eps) != lab)
            prt = sum(1 for pred, lab in zip(part_label, pairs.part_pairs[:, 4])
                      if pred != lab)
            jnt = sum(1 for m1, j1, m2, j2, lab in pairs.joint_pairs
                      if relation_joint(K[m1][j1], K[m2][j2], view, eps) != lab)
            assert got == (ins, prt, jnt)
            assert hmor_loss(noisy, pairs, config=cfg).violations == got
            if eps > 0:
                assert np.any(pairs.part_pairs[:, 4] == 0)
                assert np.any(pairs.joint_pairs[:, 4] == 0)
                saw_zero_label = True
        assert saw_zero_label

    def test_zero_weight_level_is_counted_without_gradient(self):
        spec = GenSpec(seed=17, n_persons=3, perturbation=GaussNoise(sigma_z=300.0))
        gt = generate_scene(spec)
        noisy = perturb(gt, spec)
        K = scene_joint_array(noisy, 1e-3)
        pairs = enumerate_pairs(gt, gt.camera.normal)
        no_parts = dataclasses.replace(pairs, part_pairs=np.empty((0, 5), int))
        cfg = HmorConfig(w_part=0.0)
        loss, dK = hmor_loss_on_joints(K, gt.topology, pairs, cfg)
        loss_np, dK_np = hmor_loss_on_joints(K, gt.topology, no_parts, cfg)
        assert loss.violations[1] > 0 and loss_np.violations[1] == 0
        assert loss.part > 0.0
        assert loss.total == loss_np.total
        assert np.array_equal(dK, dK_np)


# configs the k-view kernel must agree with k single-view passes under
KERNEL_CONFIGS = {
    "vector": HmorConfig(),
    "particle": HmorConfig(part_mode="particle"),
    "tolerance": HmorConfig(part_mode="particle", equality_tolerance=0.02),
    "vector_tolerance": HmorConfig(equality_tolerance=0.02),
    "pair_cap": HmorConfig(pair_cap=200),
    "within_person": HmorConfig(cross_person_parts=False, cross_person_joints=False),
    "w_part0": HmorConfig(w_part=0.0),
}
KERNEL_SETTINGS = settings(max_examples=12, deadline=None, derandomize=True, database=None)


def _kernel_case(seed: int, n_persons: int, k: int):
    spec = GenSpec(seed=seed, n_persons=n_persons,
                   perturbation=GaussNoise(sigma_xy=30.0, sigma_z=300.0))
    gt = generate_scene(spec)
    rng = np.random.default_rng(seed)
    views = [gt.camera.normal] + [sample_view(rng=rng).direction for _ in range(k - 1)]
    return gt, perturb(gt, spec), np.array(views)


class TestOrdinalPass:
    """ordinal_pass over k stacked views against k single-view passes."""

    @pytest.mark.parametrize("name", sorted(KERNEL_CONFIGS))
    @KERNEL_SETTINGS
    @given(seed=st.integers(0, 10_000), n_persons=st.integers(1, 4), k=st.integers(1, 4))
    def test_k_views_equal_mean_of_single_views(self, name, seed, n_persons, k):
        cfg = KERNEL_CONFIGS[name]
        gt, pred, views = _kernel_case(seed, n_persons, k)
        K = scene_joint_array(pred, cfg.depth_unit_scale)
        labelled = LabelledTruth(gt, cfg).label(views)
        totals, levels, violations, dK = ordinal_pass(K, gt.topology, labelled, cfg)

        singles = [hmor_loss_on_joints(K, gt.topology, enumerate_pairs(gt, v, cfg), cfg)
                   for v in views]
        for i, (loss, _) in enumerate(singles):
            assert tuple(violations[:, i]) == loss.violations
            assert abs(totals[i] - loss.total) <= 1e-12 * max(1.0, abs(loss.total))
            assert np.allclose(levels[:, i], [loss.instance, loss.part, loss.joint],
                               rtol=1e-12, atol=1e-12)
        mean_total = np.mean([loss.total for loss, _ in singles])
        assert abs(totals.mean() - mean_total) <= 1e-12 * max(1.0, mean_total)
        mean_grad = np.mean([g for _, g in singles], axis=0)
        scale = max(1.0, np.abs(mean_grad).max())
        assert np.abs(dK / k - mean_grad).max() <= 1e-12 * scale

    @pytest.mark.parametrize("name", sorted(KERNEL_CONFIGS))
    @KERNEL_SETTINGS
    @given(seed=st.integers(0, 10_000), n_persons=st.integers(1, 4), k=st.integers(1, 6))
    def test_truth_scores_zero_under_every_batched_view(self, name, seed, n_persons, k):
        cfg = KERNEL_CONFIGS[name]
        gt, _, views = _kernel_case(seed, n_persons, k)
        K = scene_joint_array(gt, cfg.depth_unit_scale)
        labelled = LabelledTruth(gt, cfg).label(views)
        totals, levels, violations, dK = ordinal_pass(K, gt.topology, labelled, cfg)
        assert np.all(totals == 0.0) and np.all(levels == 0.0)
        assert not violations.any()
        assert np.all(dK == 0.0)

    def test_appended_views_match_one_stack(self):
        gt, pred, views = _kernel_case(5, 3, 4)
        cfg = HmorConfig()
        truth = LabelledTruth(gt, cfg)
        appended = truth.label(views[1:], base=truth.label(views[:1]))
        stacked = truth.label(views)
        assert np.array_equal(appended.views, stacked.views)
        for a, b in zip(appended.labels, stacked.labels):
            assert np.array_equal(a, b)

    def test_no_views_give_empty_totals_and_zero_gradient(self):
        gt, pred, _ = _kernel_case(6, 2, 1)
        K = scene_joint_array(pred, 1e-3)
        totals, levels, violations, dK = ordinal_pass(K, gt.topology, LabelledTruth(gt).label([]))
        assert totals.shape == (0,) and levels.shape == violations.shape == (3, 0)
        assert dK.shape == K.shape and not dK.any()

    @pytest.mark.parametrize("part_mode", ["vector", "particle"])
    @pytest.mark.parametrize("k, rows", [(1, [0]), (4, [0, 2, 3]), (7, [0, 4, 5, 6])])
    def test_grad_views_gradient_equals_sub_stack(self, part_mode, k, rows):
        cfg = HmorConfig(part_mode=part_mode)
        gt, pred, views = _kernel_case(44, 3, k)
        K = scene_joint_array(pred, cfg.depth_unit_scale)
        labelled = LabelledTruth(gt, cfg).label(views)
        full = ordinal_pass(K, gt.topology, labelled, cfg)
        totals, levels, violations, dK = ordinal_pass(K, gt.topology, labelled, cfg,
                                                      grad_views=np.array(rows))
        # per-view results cover the whole stack, the gradient only ``rows``
        for got, want in zip((totals, levels, violations), full):
            assert np.array_equal(got, want)
        sub_dK = ordinal_pass(K, gt.topology, labelled.rows(rows), cfg)[3]
        assert np.array_equal(dK, sub_dK) and np.abs(dK).max() > 0.0
        assert np.array_equal(ordinal_pass(K, gt.topology, labelled, cfg,
                                           grad_views=slice(None))[3], full[3])

    def test_pair_cap_subset_is_shared_by_every_view(self):
        scene = generate_scene(GenSpec(seed=2, n_persons=3))
        cfg = HmorConfig(pair_cap=50)
        rng = np.random.default_rng(3)
        sets = [enumerate_pairs(scene, v, cfg) for v in
                (scene.camera.normal, sample_view(rng=rng), sample_view(rng=rng))]
        for other in sets[1:]:
            for level in ("instance_pairs", "part_pairs", "joint_pairs"):
                assert np.array_equal(getattr(sets[0], level)[:, :-1],
                                      getattr(other, level)[:, :-1])
        labelled = LabelledTruth(scene, cfg).label(np.array([v.view for v in sets]))
        J, S = scene.topology.joint_count, scene.topology.part_count
        for i, pairs in enumerate(sets):
            m1, s1, m2, s2, lab = pairs.part_pairs.T
            assert np.array_equal(labelled.index[1], [m1 * S + s1, m2 * S + s2])
            assert np.array_equal(labelled.labels[1][i], lab)
            m1, j1, m2, j2, lab = pairs.joint_pairs.T
            assert np.array_equal(labelled.index[2], [m1 * J + j1, m2 * J + j2])
            assert np.array_equal(labelled.labels[2][i], lab)


# configs the kernel must agree with the per-pair brute force under
ORACLE_CONFIGS = {
    "vector": HmorConfig(),
    "particle": HmorConfig(part_mode="particle"),
    "vector_tolerance": HmorConfig(equality_tolerance=0.02),
    "particle_tolerance": HmorConfig(part_mode="particle", equality_tolerance=0.02),
    "within_person": HmorConfig(cross_person_parts=False, cross_person_joints=False),
    "pair_cap": HmorConfig(pair_cap=150),
}


class TestOrdinalPassOracle:
    """ordinal_pass against per-pair sums of the scalar relation and error
    functions, for 1 and 4 random views."""

    @pytest.mark.parametrize("k", [1, 4])
    @pytest.mark.parametrize("name", sorted(ORACLE_CONFIGS))
    def test_equals_per_pair_brute_force(self, name, k):
        cfg = ORACLE_CONFIGS[name]
        gt, pred, _ = _kernel_case(40 + k, 3, 1)
        rng = np.random.default_rng(k)
        views = np.array([sample_view(rng=rng).direction for _ in range(k)])
        truth = LabelledTruth(gt, cfg)
        if cfg.pair_cap is None:
            for got, want in zip(truth.index, brute_force_pairs(gt, cfg)):
                assert np.array_equal(got, want)
        else:
            assert [index.shape[1] for index in truth.index[1:]] == [cfg.pair_cap] * 2
        labelled = truth.label(views)
        if cfg.equality_tolerance:
            assert not all(labels.all() for labels in labelled.labels[1:])
        K = scene_joint_array(pred, cfg.depth_unit_scale)
        totals, levels, violations, dK = ordinal_pass(K, gt.topology, labelled, cfg)
        want_totals, want_levels, want_violations, want_dK = ordinal_brute_force(
            pred, gt, views, cfg, truth.index)

        assert np.array_equal(violations, want_violations)
        assert want_violations.any()
        for got, want in ((totals, want_totals), (levels, want_levels), (dK, want_dK)):
            assert np.abs(got - want).max() <= 1e-12 * max(1.0, np.abs(want).max())
        assert np.abs(want_dK).max() > 0.0
