import dataclasses
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hmor import (GaussNoise, GenSpec, HmorConfig, HmorLoss, InvalidInputError,
                  NumericalError, SkeletonTopology, SolverConfig, ViewVector, assemble_absolute,
                  enumerate_pairs, evaluate, generate_scene, hmor_loss, objective,
                  ordinal_violations, part_relations_from_2d, perturb, refine, sample_view)
from hmor.ordinal import (LabelledTruth, RelationPairs, _entity_map, _full_layout, _Layout,
                          ordinal_pass, root_pass, scene_joint_array)
import hmor.solver
from hmor.solver import _fd_max_rel_err, _Objective
from conftest import (brute_force_labels, brute_force_pairs, err_instance, err_instance_grad,
                      err_joint, err_joint_grad, err_part, err_part_grad, err_part_particle,
                      level_index, level_labels, level_rows, ordinal_brute_force,
                      project_to_plane, relation_instance, relation_joint, relation_part,
                      swap_root_depths, two_person_depth_fixture)

Z = np.array([0.0, 0.0, 1.0])

LOG_1_5 = 0.4054651081081644
LOG_1_2 = 0.18232155679395463


def audit_counts(pred, gt, views, cfg=None) -> np.ndarray:
    """ordinal_violations of matched scenes as a (3,) per-level array."""
    return np.array(dataclasses.astuple(ordinal_violations(pred, gt, views, cfg)))


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
        assert len(level_rows(pairs, 0)) == 0
        assert len(level_rows(pairs, 1)) == 91   # C(14, 2)
        assert len(level_rows(pairs, 2)) == 136  # C(17, 2)

    def test_two_person_counts(self):
        scene = generate_scene(GenSpec(seed=1, n_persons=2))
        pairs = enumerate_pairs(scene, scene.camera.normal)
        assert len(level_rows(pairs, 0)) == 1
        assert len(level_rows(pairs, 1)) == 378  # C(28, 2)
        assert len(level_rows(pairs, 2)) == 561  # C(34, 2)

    def test_labels_match_scalar_relations(self):
        scene = generate_scene(GenSpec(seed=3, n_persons=2))
        cfg = HmorConfig()
        view = sample_view(theta=1.1, u=0.4).direction
        pairs = enumerate_pairs(scene, view, cfg)
        K = scene_joint_array(scene, cfg.depth_unit_scale)
        topo = scene.topology
        positions = [K[m].mean(axis=0) for m in range(2)]
        for a, b, lab in level_rows(pairs, 0):
            assert lab == relation_instance(positions[a], positions[b], view)
        parts = [(K[m][e] - K[m][s]) for m in range(2) for s, e in topo.parts]
        S = topo.part_count
        for m1, s1, m2, s2, lab in level_rows(pairs, 1)[:100]:
            assert lab == relation_part(parts[m1 * S + s1], parts[m2 * S + s2], view)
        for m1, j1, m2, j2, lab in level_rows(pairs, 2)[:100]:
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
               for a, b, lab in level_rows(pairs, 0)]
        prt = [err_part(parts[m1 * S + s1], parts[m2 * S + s2], lab, view)
               for m1, s1, m2, s2, lab in level_rows(pairs, 1)]
        jnt = [err_joint(K[m1][j1], K[m2][j2], lab, view)
               for m1, j1, m2, j2, lab in level_rows(pairs, 2)]
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
               for m1, s1, m2, s2, lab in level_rows(pairs, 1)]
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
            violations = sum(loss.violations)
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
                err = _fd_max_rel_err(lambda x: err_grad(x[:3], x[3:], lab, n)[0],
                                      np.concatenate([a, b]), np.concatenate([ga, gb]), step)
                assert err < 1e-5


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
            assert np.array_equal(pairs2d[:, :4], level_rows(pairs3d, 1)[:, :4])
            assert np.array_equal(pairs2d[:, 4], level_rows(pairs3d, 1)[:, 4])

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

    # no persons, persons of different joint counts, non-finite keypoints
    # (one of them is enough) and an eps that is not finite and >= 0
    @pytest.mark.parametrize("pixels, eps, message", [
        ([], 0.0, "one \\(J, 2\\) keypoint array per person"),
        ([np.zeros((17, 2)), np.zeros((16, 2))], 0.0, "one \\(J, 2\\) keypoint array per person"),
        ([np.full((17, 2), np.nan)], 0.0, "keypoints must be finite"),
        ([np.full((17, 2), np.inf)], 0.0, "keypoints must be finite"),
        ([np.ones((17, 2)), np.vstack([[-np.inf, 1.0], np.ones((16, 2))])], 0.0,
         "keypoints must be finite"),
        ([np.ones((17, 2))], -1.0, "eps must be finite and >= 0"),
        ([np.ones((17, 2))], np.nan, "eps must be finite and >= 0"),
        ([np.ones((17, 2))], np.inf, "eps must be finite and >= 0"),
    ], ids=["no_persons", "joint_counts_differ", "all_nan", "all_inf", "one_minus_inf",
            "negative_eps", "nan_eps", "inf_eps"])
    def test_rejects_bad_input(self, pixels, eps, message):
        with pytest.raises(InvalidInputError, match=message):
            part_relations_from_2d(pixels, SkeletonTopology(), eps=eps)


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
        assert hmor_loss(scene, pairs).violations == (0, 0, 0)

    def test_depth_swap_violates_instance_pair(self, camera):
        gt = two_person_depth_fixture(camera)
        swapped = swap_root_depths(gt)
        pairs = enumerate_pairs(gt, gt.camera.normal)
        ins, _, _ = hmor_loss(swapped, pairs).violations
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
            got = hmor_loss(noisy, pairs, config=cfg).violations

            K = scene_joint_array(noisy, cfg.depth_unit_scale)
            positions = [K[m].mean(axis=0) for m in range(2)]
            if cfg.part_mode == "particle":
                mids = [0.5 * (K[m][e] + K[m][s]) for m in range(2) for s, e in topo.parts]
                part_label = [relation_instance(mids[m1 * S + s1], mids[m2 * S + s2], view, eps)
                              for m1, s1, m2, s2, _ in level_rows(pairs, 1)]
            else:
                parts = [(K[m][e] - K[m][s]) for m in range(2) for s, e in topo.parts]
                part_label = [relation_part(parts[m1 * S + s1], parts[m2 * S + s2], view, eps)
                              for m1, s1, m2, s2, _ in level_rows(pairs, 1)]
            ins = sum(1 for a, b, lab in level_rows(pairs, 0)
                      if relation_instance(positions[a], positions[b], view, eps) != lab)
            prt = sum(1 for pred, lab in zip(part_label, level_rows(pairs, 1)[:, 4])
                      if pred != lab)
            jnt = sum(1 for m1, j1, m2, j2, lab in level_rows(pairs, 2)
                      if relation_joint(K[m1][j1], K[m2][j2], view, eps) != lab)
            assert got == (ins, prt, jnt)
            assert tuple(audit_counts(noisy, gt, [view], cfg).tolist()) == got
            if eps > 0:
                assert np.any(level_rows(pairs, 1)[:, 4] == 0)
                assert np.any(level_rows(pairs, 2)[:, 4] == 0)
                saw_zero_label = True
        assert saw_zero_label

    def test_zero_weight_level_is_counted_without_gradient(self):
        spec = GenSpec(seed=17, n_persons=3, perturbation=GaussNoise(sigma_z=300.0))
        gt = generate_scene(spec)
        noisy = perturb(gt, spec)
        K = scene_joint_array(noisy, 1e-3)
        pairs = enumerate_pairs(gt, gt.camera.normal)
        index = level_index(pairs)
        layout = _Layout((index[0], np.empty((2, 0), int), index[2]),
                         pairs.layout.per_person, pairs.layout.person_count, ("vector", 0.0, 1e-3))
        no_parts = RelationPairs(pairs.views, layout, pairs.labels[:, :layout.depth])
        cfg = HmorConfig(w_part=0.0)
        totals, levels, violations, dK = ordinal_pass(K, gt.topology, pairs, cfg)
        totals_np, _, violations_np, dK_np = ordinal_pass(K, gt.topology, no_parts, cfg)
        assert violations[1] > 0 and violations_np[1] == 0
        assert levels[1, 0] > 0.0
        assert totals[0] == totals_np[0]
        assert np.array_equal(dK, dK_np)


# configs the k-view kernel must agree with k single-view passes under
KERNEL_CONFIGS = {
    "vector": HmorConfig(),
    "particle": HmorConfig(part_mode="particle"),
    "tolerance": HmorConfig(part_mode="particle", equality_tolerance=0.02),
    "vector_tolerance": HmorConfig(equality_tolerance=0.02),
    "w_part0": HmorConfig(w_part=0.0),
}
KERNEL_SETTINGS = settings(max_examples=12, deadline=None, derandomize=True, database=None)


def _kernel_case(seed: int, n_persons: int, k: int, noise=(30.0, 300.0)):
    spec = GenSpec(seed=seed, n_persons=n_persons, perturbation=GaussNoise(*noise))
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

        singles = [ordinal_pass(K, gt.topology, enumerate_pairs(gt, v, cfg), cfg)
                   for v in views]
        assert np.array_equal(violations, singles[0][2])  # the pass counts the first view
        for i, (total, level, violation, _) in enumerate(singles):
            assert np.array_equal(audit_counts(pred, gt, views[i:i + 1], cfg), violation)
            assert abs(totals[i] - total[0]) <= 1e-12 * max(1.0, abs(total[0]))
            assert np.allclose(levels[:, i], level[:, 0], rtol=1e-12, atol=1e-12)
        mean_total = np.mean([total[0] for total, *_ in singles])
        assert abs(totals.mean() - mean_total) <= 1e-12 * max(1.0, mean_total)
        mean_grad = np.mean([g for *_, g in singles], axis=0)
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
        assert not audit_counts(gt, gt, views, cfg).any()
        assert np.all(dK == 0.0)

    def test_no_views_give_empty_totals_and_zero_gradient(self):
        gt, pred, _ = _kernel_case(6, 2, 1)
        K = scene_joint_array(pred, 1e-3)
        totals, levels, violations, dK = ordinal_pass(K, gt.topology, LabelledTruth(gt).label([]))
        assert totals.shape == (0,) and levels.shape == (3, 0)
        assert violations.shape == (3,) and not violations.any()
        assert dK.shape == K.shape and not dK.any()

    @pytest.mark.parametrize("part_mode", ["vector", "particle"])
    def test_nan_coordinate_leaves_the_gradient_finite(self, part_mode):
        # a NaN margin is no violation: every level reads the NaN joint and
        # is NaN, while dK, built from violated entries alone, stays finite
        cfg = HmorConfig(part_mode=part_mode)
        gt, pred, views = _kernel_case(3, 3, 2)
        K = scene_joint_array(pred, cfg.depth_unit_scale)
        K[1, 5, 2] = np.nan
        totals, levels, violations, dK = ordinal_pass(K, gt.topology,
                                                      LabelledTruth(gt, cfg).label(views), cfg)
        assert np.isnan(levels).all() and np.isnan(totals).all()
        assert np.isfinite(dK).all() and np.abs(dK).max() > 0.0
        pred.persons[1].rel_pose.joints[5, 2] = np.nan  # the constructors reject NaN
        with pytest.raises(NumericalError, match="non-finite"):
            refine(pred, gt, SolverConfig(steps=2, views_per_step=2, hmor=cfg))


# configs the kernel must agree with the per-pair brute force under
ORACLE_CONFIGS = {
    "vector": HmorConfig(),
    "particle": HmorConfig(part_mode="particle"),
    "vector_tolerance": HmorConfig(equality_tolerance=0.02),
    "particle_tolerance": HmorConfig(part_mode="particle", equality_tolerance=0.02),
    # zero-weight levels leave dK through zeroed weights
    "particle_w_part0": HmorConfig(part_mode="particle", w_part=0.0),
    "w_instance0": HmorConfig(w_instance=0.0, w_joint=0.5),
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
        labelled = LabelledTruth(gt, cfg).label(views)
        for got, want in zip(level_index(labelled), brute_force_pairs(gt)):
            assert np.array_equal(got, want)
        if cfg.equality_tolerance:
            assert not all(labels.all() for labels in level_labels(labelled)[1:])
        _assert_equals_brute_force(pred, gt, views, labelled, cfg)

    @pytest.mark.parametrize("k", [1, 4])
    @pytest.mark.parametrize("n_persons", [3, 8])
    @pytest.mark.parametrize("name", ["vector", "particle", "w_instance0"])
    def test_heavily_violated_equals_per_pair_brute_force(self, name, n_persons, k):
        # the gradient is built from the violated entries alone; seed 61
        # violates 43-52% of the depth pairs in every case
        cfg = ORACLE_CONFIGS[name]
        gt, pred, _ = _kernel_case(61, n_persons, 1, noise=(300.0, 1500.0))
        rng = np.random.default_rng(61)
        views = np.array([sample_view(rng=rng).direction for _ in range(k)])
        labelled = LabelledTruth(gt, cfg).label(views)
        violations = _assert_equals_brute_force(pred, gt, views, labelled, cfg)
        depth = [0, 2] if cfg.part_mode == "vector" else [0, 1, 2]
        assert violations[depth].sum() >= 0.25 * k * sum(labelled.layout.sizes[i] for i in depth)


def _assert_equals_brute_force(pred, gt, views, labelled, cfg):
    """Assert ordinal_pass equals ordinal_brute_force (counts exactly, the
    rest to 1e-12) with violations and a gradient, and ordinal_violations
    the brute force's counts summed over the views; return that sum."""
    K = scene_joint_array(pred, cfg.depth_unit_scale)
    totals, levels, violations, dK = ordinal_pass(K, gt.topology, labelled, cfg)
    want_totals, want_levels, want_violations, want_dK = ordinal_brute_force(
        pred, gt, views, cfg, level_index(labelled))

    assert np.array_equal(violations, want_violations[:, 0])
    counts = audit_counts(pred, gt, views, cfg)
    assert np.array_equal(counts, want_violations.sum(axis=1))
    assert want_violations.any()
    for got, want in ((totals, want_totals), (levels, want_levels), (dK, want_dK)):
        assert np.abs(got - want).max() <= 1e-12 * max(1.0, np.abs(want).max())
    assert np.abs(want_dK).max() > 0.0
    return counts


def _assert_close(got, want):
    """``got`` equals ``want`` to 1e-12 of the larger of 1 and ``want``'s size."""
    assert np.abs(got - want).max(initial=0.0) <= 1e-12 * max(1.0, np.abs(want).max(initial=0.0))


class TestRootFormOracle:
    """root_pass, the ordinal kernel reduced to the root depths, against
    the entity-map kernel (ordinal_pass, then grad_to_x) at the moved
    joints, and the per-pair brute force against both kernels in their
    free-variable modes, at random root offsets."""

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(seed=st.integers(0, 10_000), n_persons=st.integers(1, 5),
           k=st.sampled_from([1, 4, 7]), part_mode=st.sampled_from(["vector", "particle"]),
           eps=st.sampled_from([0.0, 0.02]), w_part=st.sampled_from([1.0, 0.0]))
    def test_equals_entity_map_kernel(self, seed, n_persons, k, part_mode, eps, w_part):
        cfg = HmorConfig(part_mode=part_mode, equality_tolerance=eps, w_part=w_part)
        gt, pred, views = _kernel_case(seed, n_persons, k)
        labelled = LabelledTruth(gt, cfg).label(views)
        if eps:  # label-0 pairs occur, and are counted from their raw margins
            assert not labelled.labels.all()
        obj = _Objective(pred, pred, labelled, SolverConfig(hmor=cfg))
        sv, form = obj.sv, obj.form
        rng = np.random.default_rng(seed)
        for spread in (0.0, 0.05, 0.3, 1.0):  # scaled units: 0-1000 mm
            sv.unpack(sv.start[0] + rng.normal(0.0, spread, n_persons))
            totals, levels, violations, g = root_pass(form, sv.dx)
            K, d, a, b = sv.joints_scaled()
            want = ordinal_pass(K, gt.topology, labelled, cfg)
            assert np.array_equal(violations, want[2])
            for got, expected in ((totals, want[0]), (levels, want[1]),
                                  (g, sv.grad_to_x(want[3], d, a, b))):
                _assert_close(got, expected)
            no_grad = root_pass(form, sv.dx, want_grad=False)
            assert no_grad[3] is None
            assert all(np.array_equal(x, y) for x, y in zip(no_grad[:3], (totals, levels,
                                                                          violations)))

    @pytest.mark.parametrize("free_variables", ["root_depths_only", "full_pose"])
    @pytest.mark.parametrize("name", ["vector", "particle", "vector_tolerance",
                                      "particle_tolerance"])
    def test_equals_per_pair_brute_force(self, name, free_variables):
        cfg = ORACLE_CONFIGS[name]
        gt, pred, views = _kernel_case(71, 3, 3)
        labelled = LabelledTruth(gt, cfg).label(views)
        obj = _Objective(pred, pred, labelled,
                         SolverConfig(free_variables=free_variables, hmor=cfg))
        sv, form = obj.sv, obj.form
        x = sv.start[0] + np.random.default_rng(71).normal(0.0, 0.1, len(sv.start[0]))
        sv.unpack(x)
        K, d, a, b = sv.joints_scaled()
        want = ordinal_brute_force(sv.to_scene(), gt, views, cfg, level_index(labelled))
        if form is None:  # full_pose: the entity-map kernel
            totals, levels, violations, dK = ordinal_pass(K, gt.topology, labelled, cfg)
            g = sv.grad_to_x(dK, d, a, b)
        else:
            totals, levels, violations, g = root_pass(form, sv.dx)
        assert np.array_equal(violations, want[2][:, 0]) and violations.any()
        for got, expected in ((totals, want[0]), (levels, want[1]),
                              (g, sv.grad_to_x(want[3], d, a, b))):
            _assert_close(got, expected)


def _tied(gt):
    """``gt`` with person 1 a copy of person 0 at another box corner: under
    the camera normal their joint and instance pairs tie (label 0)."""
    first = gt.persons[0]
    box = dataclasses.replace(first.box, u_top=first.box.u_top + 150.0)
    twin = dataclasses.replace(first, box=box, roi_area=box.area)
    return dataclasses.replace(gt, persons=(first, twin, *gt.persons[2:]))


def _same_bits(got, want) -> bool:
    if got is None or want is None:
        return got is want
    return got.dtype == want.dtype and got.shape == want.shape and got.tobytes() == want.tobytes()


# a step of a dx sequence: a spread of random offsets (scaled units), a
# non-finite value or one whose square overflows at one person, one
# entry's signed margin moved onto a band edge, -eps or +eps, or the
# reach pushed against an entry's radius
DX_STEPS = st.one_of(st.sampled_from([0.0, 1e-4, 0.003, 0.02, 0.1, 0.5]),
                     st.sampled_from(["nan", "inf", "-inf", "1e200", "-edge", "+edge", "push"]))


class TestRootFormActiveSet:
    """root_pass scores only the active entries, those whose margin a
    max|dx| up to the form's reach could move to the band; the rest are
    provably unviolated. Its outputs equal, bit for bit, a pass over
    every entry (a form selected for an infinite reach)."""

    @staticmethod
    def _edge_dx(form, dx, rng, target):
        """``dx`` with one person moved so that a depth entry's signed
        margin lands on ``target`` (None if no entry gets there within 1)."""
        D = form.labelled.layout.depth
        M0, A, B = (c[:, :D].ravel() for c in (form.M0, form.A, form.B))
        pa, pb = np.tile(form.persons[:, :D], len(form.labels))
        moved = dx.copy()
        with np.errstate(all="ignore"):  # dx may hold NaN or inf
            rest = np.where(pa == pb, 0.0, B * dx[pb])
            step = (target - M0 - rest) / np.where(pa == pb, A + B, A)
        near = np.flatnonzero(np.abs(step) < 1.0)
        if not len(near):
            return None
        entry = rng.choice(near)
        moved[pa[entry]] = step[entry]
        return moved

    @staticmethod
    def _push_dx(form, rng):
        """Offsets of ``max|dx|`` the form's reach that raise a depth entry's
        signed margin by its bound, ``(|A| + |B|) * reach``, onto or past
        the band, for an entry whose radius lies within the reach (None if
        there is none): no reselection, so only a radius that errs low
        keeps it scored."""
        reach, D = form.reach, form.labelled.layout.depth
        if not 0.0 < reach < np.inf:
            return None
        M0, A, B, labels = (c[:, :D].ravel() for c in (form.M0, form.A, form.B, form.labels))
        pa, pb = np.tile(form.persons[:, :D], len(form.labels))
        with np.errstate(divide="ignore", invalid="ignore"):
            radius = (-form.config.equality_tolerance - M0) / (np.abs(A) + np.abs(B))
        near = np.flatnonzero((pa != pb) & (labels != 0) & (radius > 0.5 * reach)
                              & (radius <= reach))
        if not len(near):
            return None
        entry = rng.choice(near)
        dx = rng.uniform(-reach, reach, len(form.K0))
        dx[pa[entry]], dx[pb[entry]] = reach * np.sign(A[entry]), reach * np.sign(B[entry])
        return dx

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(seed=st.integers(0, 10_000), n_persons=st.integers(1, 4), k=st.sampled_from([1, 4]),
           part_mode=st.sampled_from(["vector", "particle"]), eps=st.sampled_from([0.0, 0.02]),
           ties=st.booleans(), steps=st.lists(DX_STEPS, min_size=1, max_size=10))
    def test_pruned_pass_equals_full_pass(self, seed, n_persons, k, part_mode, eps, ties,
                                          steps):
        cfg = HmorConfig(part_mode=part_mode, equality_tolerance=eps)
        gt, pred, views = _kernel_case(seed, n_persons, k)
        if ties and n_persons > 1:
            gt = _tied(gt)
        labelled = LabelledTruth(gt, cfg).label(views)
        if ties and n_persons > 1:
            assert not labelled.labels[0, :labelled.layout.depth].all()
        solver_cfg = SolverConfig(hmor=cfg)
        form, full = (_Objective(pred, pred, labelled, solver_cfg).form for _ in range(2))
        full.select(np.inf)
        rng = np.random.default_rng(seed)
        dx = np.zeros(n_persons)
        for step in steps:
            if isinstance(step, float):
                dx = rng.uniform(-step, step, n_persons)
            elif step.endswith("edge"):
                dx = self._edge_dx(form, dx, rng, eps if step[0] == "+" else -eps)
            elif step == "push":
                dx = self._push_dx(form, rng)
            else:
                dx = dx.copy()
                dx[rng.integers(n_persons)] = float(step)
            if dx is None:
                dx = np.zeros(n_persons)
            for want_grad in (True, False):  # the second repeats the radius
                with np.errstate(all="ignore"):  # inf - inf, 0 * inf, overflow
                    got, want = root_pass(form, dx, want_grad), root_pass(full, dx, want_grad)
                assert all(_same_bits(x, y) for x, y in zip(got, want))
            with np.errstate(all="ignore"):
                only = root_pass(form, dx, counts_only=True)
            assert only[:2] == (None, None) and only[3] is None
            assert np.array_equal(only[2], want[2])
            assert form.reach >= np.abs(dx).max() or np.isnan(dx).any()

    @pytest.mark.parametrize("part_mode", ["vector", "particle"])
    def test_radii_wait_for_a_reach_past_zero(self, part_mode):
        # a reach-0 selection reads each entry's slack alone, with a full pass's bits
        cfg = HmorConfig(part_mode=part_mode, equality_tolerance=0.02)
        gt, pred, views = _kernel_case(11, 3, 4)
        labelled = LabelledTruth(gt, cfg).label(views)
        form, full = (_Objective(pred, pred, labelled, SolverConfig(hmor=cfg)).form
                      for _ in range(2))
        full.select(np.inf)
        assert form.bounded
        for dx in (np.zeros(3), np.zeros(3), np.array([0.0, 1e-3, 0.0])):
            before = "radius" in vars(form)
            got, want = root_pass(form, dx), root_pass(full, dx)
            assert all(_same_bits(x, y) for x, y in zip(got, want))
            assert before or ("radius" in vars(form)) == (form.reach > 0.0)
        assert "radius" in vars(form) and 0 < len(form.active[0]) < form.labels.size

    def test_unbounded_coefficients_select_by_radius(self):
        # entity points past 1e100 may give coefficients past float range: a reach-0
        # selection then takes the radius rule, which makes every non-finite one active
        gt, pred, views = _kernel_case(12, 2, 2)
        far = dataclasses.replace(pred.persons[0], root_depth=1e160)
        pred = dataclasses.replace(pred, persons=(far, *pred.persons[1:]))
        labelled = LabelledTruth(gt).label(views)
        with np.errstate(all="ignore"):  # products past float range
            form, full = (_Objective(pred, pred, labelled, SolverConfig()).form for _ in range(2))
            full.select(np.inf)
            got, want = root_pass(form, np.zeros(2)), root_pass(full, np.zeros(2))
        assert not form.bounded and form.reach == 0.0 and "radius" in vars(form)
        assert all(_same_bits(x, y) for x, y in zip(got, want))

    def test_benchmark_shaped_run_scores_a_subset(self, monkeypatch):
        # the pinned benchmark-shaped run: 4 persons, 10 steps of 4 views
        scored = []
        kernel = hmor.solver.root_pass

        def spy(form, *args):
            out = kernel(form, *args)
            scored.append((len(form.active[0]), form.labels.size))
            return out

        monkeypatch.setattr(hmor.solver, "root_pass", spy)
        spec = GenSpec(seed=7, n_persons=4, perturbation=GaussNoise(30.0, 300.0))
        gt = generate_scene(spec)
        refine(perturb(gt, spec), gt, SolverConfig(seed=5, steps=10, views_per_step=4))
        assert len(scored) > 2 and scored[0][1] == 4 * 3824
        assert all(n < total for n, total in scored[1:])  # every call from step 1 on


# every knob the audit must follow; each example draws one
COUNT_CONFIGS = [HmorConfig(part_mode=mode, equality_tolerance=eps)
                 for mode in ("vector", "particle") for eps in (0.0, 0.02)]


class TestViolationCounts:
    """ordinal_violations, which labels the prediction as the ground
    truth and forms no loss, against the counts of ordinal_pass and of
    the per-pair brute force."""

    @settings(max_examples=24, deadline=None, derandomize=True, database=None)
    @given(seed=st.integers(0, 10_000), n_persons=st.integers(1, 5), k=st.integers(0, 4),
           cfg=st.sampled_from(COUNT_CONFIGS))
    def test_equals_ordinal_pass_and_brute_force(self, seed, n_persons, k, cfg):
        gt, pred, views = _kernel_case(seed, n_persons, max(k, 1))
        views = views[:k]
        labelled = LabelledTruth(gt, cfg).label(views)
        K = scene_joint_array(pred, cfg.depth_unit_scale)
        want = ordinal_brute_force(pred, gt, views, cfg, level_index(labelled))[2]
        assert want.shape == (3, k)
        assert np.array_equal(audit_counts(pred, gt, views, cfg), want.sum(axis=1))
        first = want[:, 0] if k else np.zeros(3, int)  # the pass counts the first view
        assert np.array_equal(first, ordinal_pass(K, gt.topology, labelled, cfg,
                                                  want_grad=False)[2])
        only = ordinal_pass(K, gt.topology, labelled, cfg, counts_only=True)
        assert only[:2] == (None, None) and only[3] is None
        assert np.array_equal(first, only[2])

    @pytest.mark.parametrize("part_mode", ["vector", "particle"])
    def test_sixteen_persons_equal_ordinal_pass(self, part_mode):
        cfg = HmorConfig(part_mode=part_mode, equality_tolerance=0.02)
        gt, pred, views = _kernel_case(16, 16, 2)
        labelled = LabelledTruth(gt, cfg).label(views)
        assert all(labels.dtype == np.int8 for labels in level_labels(labelled))
        assert not all(labels.all() for labels in level_labels(labelled)[1:])  # label-0 pairs
        K = scene_joint_array(pred, cfg.depth_unit_scale)
        counts = [audit_counts(pred, gt, [view], cfg) for view in views]
        assert all(c.all() for c in counts)
        assert np.array_equal(counts[0], ordinal_pass(K, gt.topology, labelled, cfg,
                                                      want_grad=False)[2])
        assert np.array_equal(audit_counts(pred, gt, views, cfg), sum(counts))

    def test_hmor_loss_reads_the_first_view(self):
        gt, pred, views = _kernel_case(8, 3, 3)
        cfg = HmorConfig(part_mode="particle")
        labelled = LabelledTruth(gt, cfg).label(views)
        first, second = (audit_counts(pred, gt, [view], cfg) for view in views[:2])
        assert not np.array_equal(first, second)  # the views disagree
        assert hmor_loss(pred, labelled, config=cfg).violations == tuple(first.tolist())


PROPERTY_CONFIGS = [HmorConfig(part_mode=mode, equality_tolerance=eps)
                    for mode in ("vector", "particle") for eps in (0.0, 0.02)]


class TestLossProperties:
    """On random scenes and views: the loss is >= 0 and a level without
    violations has zero loss. The converse holds only away from ties (a
    +-1 pair whose signed margin lies in [-eps, 0], or a 0 pair with a
    nonzero margin, violates at zero error), so it is checked with eps = 0
    on draws where neither the truth nor the prediction labels a pair 0."""

    @settings(max_examples=30, deadline=None, derandomize=True, database=None)
    @given(seed=st.integers(0, 10_000), n_persons=st.integers(1, 4), k=st.integers(1, 4),
           noise=st.sampled_from([(0.0, 0.0), (0.5, 5.0), (2.0, 30.0), (30.0, 300.0)]),
           cfg=st.sampled_from(PROPERTY_CONFIGS))
    def test_nonnegative_and_zero_without_violations(self, seed, n_persons, k, noise, cfg):
        spec = GenSpec(seed=seed, n_persons=n_persons, perturbation=GaussNoise(*noise))
        gt = generate_scene(spec)
        pred = perturb(gt, spec)
        rng = np.random.default_rng(seed)
        views = np.array([gt.camera.normal] + [sample_view(rng=rng).direction
                                               for _ in range(k - 1)])
        labelled = LabelledTruth(gt, cfg).label(views)
        K = scene_joint_array(pred, cfg.depth_unit_scale)
        totals, levels, violations, _ = ordinal_pass(K, gt.topology, labelled, cfg,
                                                     want_grad=False)
        counts = np.column_stack([audit_counts(pred, gt, [view], cfg) for view in views])
        assert np.array_equal(violations, counts[:, 0])
        assert np.all(levels >= 0.0) and np.all(totals >= 0.0)
        assert np.all(levels[counts == 0] == 0.0)
        if cfg.equality_tolerance == 0.0:
            own = LabelledTruth(pred, cfg).label(views)
            if all(labels.all() for labels in (*level_labels(labelled), *level_labels(own))):
                assert np.all(counts[levels == 0.0] == 0)


class TestOneStoredForm:
    """A pair set stores only the stacked layout and its stacked labels;
    the per-level index, labels and rows are read from them."""

    @pytest.mark.parametrize("name", sorted(ORACLE_CONFIGS))
    def test_levels_equal_brute_force(self, name):
        cfg = ORACLE_CONFIGS[name]
        gt, _, views = _kernel_case(21, 3, 3)
        labelled = LabelledTruth(gt, cfg).label(views)
        index = level_index(labelled)
        for got, want in zip(index, brute_force_pairs(gt)):
            assert np.array_equal(got, want)
        want_labels = brute_force_labels(gt, views, cfg, index)
        first = LabelledTruth(gt, cfg).label(views[:1])
        for level, (got, want) in enumerate(zip(level_labels(labelled), want_labels)):
            assert got.dtype == np.int8 and np.array_equal(got, want)
            per = (None, *labelled.layout.per_person)[level]
            a, b = index[level]
            cols = [a, b] if per is None else [a // per, a % per, b // per, b % per]
            assert np.array_equal(level_rows(first, level), np.column_stack(cols + [want[0]]))
        if cfg.equality_tolerance:
            assert not all(labels.all() for labels in level_labels(labelled)[1:])

    @pytest.mark.parametrize("name", sorted(ORACLE_CONFIGS))
    def test_rows_and_stack_keep_every_label(self, name):
        # labelling some of a stack's views alone gives their rows' labels
        cfg = ORACLE_CONFIGS[name]
        gt, _, views = _kernel_case(22, 2, 4)
        truth = LabelledTruth(gt, cfg)
        labelled = truth.label(views)
        for rows in ([2], [0, 3], slice(1, None), slice(0, 2)):
            apart = truth.label(views[rows])
            assert np.array_equal(apart.views, labelled.views[rows])
            for a, b in zip(level_labels(apart), level_labels(labelled)):
                assert np.array_equal(a, b[rows])

    def test_integer_row_keeps_the_view_axis(self):
        # one view (a stack's integer row) is labelled as a stack of one
        gt, pred, views = _kernel_case(24, 2, 3)
        truth = LabelledTruth(gt)
        labelled = truth.label(views)
        for i in range(3):
            got, want = truth.label(views[i]), truth.label(views[i:i + 1])
            assert got.views.shape == (1, 3)
            for name in ("views", "labels"):
                assert np.array_equal(getattr(got, name), getattr(want, name))
            for level in range(3):
                assert np.array_equal(level_rows(got, level), level_rows(want, level))
            assert hmor_loss(pred, got) == hmor_loss(pred, want)
        assert hmor_loss(pred, truth.label(views[0])) == hmor_loss(pred, labelled)

    def test_sixteen_persons_retain_one_form(self):
        # the layout is the one stored form: no per-level index is kept
        # beside it, in a cache or in the pair set
        gt = generate_scene(GenSpec(seed=16, n_persons=16))
        _full_layout.cache_clear()
        _entity_map.cache_clear()
        tracemalloc.start()
        try:
            labelled = LabelledTruth(gt).label(gt.camera.normal)
            retained = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert labelled.layout.pairs.shape == (2, 120 + 36856)
        assert retained <= 1100 * 1024

    def test_pair_set_holds_one_label_stack(self):
        assert {f.name for f in dataclasses.fields(RelationPairs)} == {"views", "layout", "labels"}

    @pytest.mark.parametrize("part_mode", ["vector", "particle"])
    def test_root_form_reads_the_pair_sets_labels(self, part_mode):
        gt, pred, views = _kernel_case(25, 3, 2)
        cfg = HmorConfig(part_mode=part_mode)
        labelled = LabelledTruth(gt, cfg).label(views)
        form = _Objective(pred, pred, labelled, SolverConfig(hmor=cfg)).form
        assert form.labels is labelled.labels
        assert not hasattr(form, "depth") and not hasattr(form, "segments")

    @pytest.mark.parametrize("name", sorted(KERNEL_CONFIGS))
    def test_one_score_call_per_pass(self, name, monkeypatch):
        cfg = KERNEL_CONFIGS[name]
        calls = []
        score = hmor.ordinal._score

        def spy(*args, **kwargs):
            calls.append(args[2])
            return score(*args, **kwargs)

        monkeypatch.setattr(hmor.ordinal, "_score", spy)
        gt, pred, views = _kernel_case(26, 3, 4)
        labelled = LabelledTruth(gt, cfg).label(views)
        K = scene_joint_array(pred, cfg.depth_unit_scale)
        for want_grad in (True, False):
            ordinal_pass(K, gt.topology, labelled, cfg, want_grad)
        assert calls == [labelled.layout] * 2

    @pytest.mark.parametrize("name", sorted(KERNEL_CONFIGS))
    @pytest.mark.parametrize("k", [1, 4])
    def test_disagreements_count_each_level(self, name, k):
        cfg = KERNEL_CONFIGS[name]
        gt, pred, views = _kernel_case(27, 3, k)
        truth = LabelledTruth(gt, cfg).label(views)
        guess = LabelledTruth(gt, cfg, joints=scene_joint_array(pred, cfg.depth_unit_scale))
        guess = guess.label(views)
        want = tuple(int(np.count_nonzero(a != b))
                     for a, b in zip(level_labels(truth), level_labels(guess)))
        assert truth.disagreements(guess) == want and any(want)
        assert guess.disagreements(truth) == want
        assert truth.disagreements(truth) == (0, 0, 0)
        others = (LabelledTruth(gt, HmorConfig(part_mode="particle", equality_tolerance=0.5))
                  .label(views), LabelledTruth(gt, cfg).label(views[:0]))
        for other in others:
            with pytest.raises(InvalidInputError, match="^the pair sets differ"):
                truth.disagreements(other)

    def test_repr_is_short_and_holds_no_address(self):
        gt, _, views = _kernel_case(23, 4, 2)
        cfg = HmorConfig(part_mode="particle")
        a = LabelledTruth(gt, cfg).label(views)
        _full_layout.cache_clear()
        b = LabelledTruth(gt, cfg).label(views)
        assert a.layout is not b.layout and repr(a) == repr(b)
        assert "0x" not in repr(a) and len(repr(a)) < 400
        assert repr(a.layout) == ("_Layout(pairs=(6, 1540, 2278), N=4, (S, J)=(14, 17), "
                                  "part_mode='particle', equality_tolerance=0.0, "
                                  "depth_unit_scale=0.001)")


# (labelling config, scoring config): each scores the ground truth non-zero
# when the mismatch goes unnoticed
MISMATCHES = {
    "part_mode": (HmorConfig(part_mode="particle"), HmorConfig()),
    "equality_tolerance": (HmorConfig(equality_tolerance=0.05), HmorConfig()),
    "depth_unit_scale": (HmorConfig(equality_tolerance=0.02),
                         HmorConfig(equality_tolerance=0.02, depth_unit_scale=1.0)),
}
BAD_VIEWS = {"zero": [0.0, 0.0, 0.0], "nan": [np.nan, 0.0, 1.0], "long": [0.0, 0.0, 5.0],
             "inf": [np.inf, 0.0, 0.0]}
# view stacks that are not (k, 3)
BAD_VIEW_STACKS = {"four_components": [[0.0, 0.0, 1.0, 0.0]],
                   "ragged": [[0.0, 0.0, 1.0], [0.0, 1.0]]}


class TestPairInputChecks:
    """Labelling settings, views and empty pair sets that the kernels
    cannot score end in InvalidInputError."""

    @pytest.mark.parametrize("name", sorted(MISMATCHES))
    def test_label_settings_mismatch_raises(self, name):
        label_cfg, score_cfg = MISMATCHES[name]
        gt, _, views = _kernel_case(3, 3, 2)
        pairs = LabelledTruth(gt, label_cfg).label(views)
        K = scene_joint_array(gt, score_cfg.depth_unit_scale)
        calls = (lambda: ordinal_pass(K, gt.topology, pairs, score_cfg),
                 lambda: hmor_loss(gt, pairs, config=score_cfg),
                 lambda: objective(gt, pairs, gt, SolverConfig(hmor=score_cfg)))
        for call in calls:
            with pytest.raises(InvalidInputError, match=f"^{name} mismatch: "):
                call()
        assert hmor_loss(gt, pairs, config=label_cfg) == HmorLoss(0.0, 0.0, 0.0, 0.0, (0, 0, 0))

    @pytest.mark.parametrize("name", sorted(BAD_VIEWS))
    def test_bad_view_raises(self, name):
        view = BAD_VIEWS[name]
        gt, pred, views = _kernel_case(4, 2, 2)
        calls = (lambda: enumerate_pairs(gt, view),
                 lambda: LabelledTruth(gt).label([views[0], view]),
                 lambda: ordinal_violations(pred, gt, [view]),
                 lambda: evaluate(pred, gt, views=[views[0], view]),
                 lambda: relation_instance(Z, -Z, view))
        for call in calls:
            with pytest.raises(InvalidInputError, match="^view must be a finite unit vector"):
                call()
        with pytest.raises(InvalidInputError, match="^direction must be a finite unit vector"):
            ViewVector(np.array(view))

    @pytest.mark.parametrize("name", sorted(BAD_VIEW_STACKS))
    def test_malformed_view_stack_raises(self, name):
        views = BAD_VIEW_STACKS[name]
        gt, pred, _ = _kernel_case(4, 2, 1)
        with pytest.raises(InvalidInputError, match="^views must be one 3-vector or a "
                                                    r"\(k, 3\) stack of them$"):
            LabelledTruth(gt).label(views)
        for call in (lambda: ordinal_violations(pred, gt, views),
                     lambda: evaluate(pred, gt, views=views)):
            with pytest.raises(InvalidInputError, match="^view must be a 3-vector, got shape"):
                call()

    def test_view_vectors_label_as_their_directions(self):
        gt, _, _ = _kernel_case(7, 2, 1)
        truth = LabelledTruth(gt)
        rng = np.random.default_rng(7)
        v, w = sample_view(rng=rng), sample_view(rng=rng)
        got, want = truth.label(v), truth.label(v.direction)
        for name in ("views", "labels"):
            assert getattr(got, name).tobytes() == getattr(want, name).tobytes()
        for stack in ([v, w], (v, w.direction)):
            pairs = truth.label(stack)
            assert pairs.views.shape == (2, 3)
            assert np.array_equal(pairs.labels, truth.label([v.direction, w.direction]).labels)

    def test_view_of_no_number_raises(self):
        gt, _, _ = _kernel_case(7, 2, 1)
        for views in ([object()], object(), [[0.0, "x", 1.0]]):
            with pytest.raises(InvalidInputError, match="^views must be one 3-vector or a "
                                                        r"\(k, 3\) stack of them$"):
                LabelledTruth(gt).label(views)

    @pytest.mark.parametrize("kind", ["list", "tuple", "NoneType"])
    def test_anything_but_one_pair_set_rejected(self, kind):
        gt, pred, views = _kernel_case(5, 2, 1)
        pairs = LabelledTruth(gt).label(views)
        arg = {"list": [pairs], "tuple": (pairs,), "NoneType": None}[kind]
        K = scene_joint_array(pred, 1e-3)
        for name, call in (("pairs", lambda: hmor_loss(pred, arg)),
                           ("labelled", lambda: ordinal_pass(K, gt.topology, arg))):
            with pytest.raises(InvalidInputError,
                               match=f"^{name} must be a RelationPairs, got {kind}$"):
                call()

    def test_empty_pair_inputs_raise(self):
        gt, pred, _ = _kernel_case(6, 2, 1)
        cfg = SolverConfig()
        none = LabelledTruth(gt).label([])
        # a multi-view set comes from one label(views) call, not a sequence of sets
        with pytest.raises(InvalidInputError,
                           match="^gt_pairs must be a RelationPairs, got list$"):
            objective(pred, [], gt, cfg)
        for call in (lambda: hmor_loss(pred, none), lambda: objective(pred, none, gt, cfg)):
            with pytest.raises(InvalidInputError, match="^the pair set holds no views$"):
                call()
        assert not audit_counts(pred, gt, []).any()
