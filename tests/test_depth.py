import numpy as np
import pytest

from hmor import (AbsolutePose, Camera, DepthEstimate, InvalidDepthError,
                  InvalidInputError, RelativePose, equivalent_depth, loss_abs,
                  loss_init, loss_pose, loss_refine, normalize_depth,
                  recover_absolute_depth)


class TestNormalizeDepth:
    def test_unit_focal_is_identity(self):
        cam = Camera(1.0, 1.0, 0.0, 0.0)
        assert normalize_depth(1234.5, cam) == 1234.5

    def test_hand_value(self, camera):
        assert normalize_depth(5000.0, camera) == 5.0

    def test_rejects_non_positive(self, camera):
        for z in (0.0, np.nan, np.inf):
            with pytest.raises(InvalidDepthError):
                normalize_depth(z, camera)

    def test_homogeneous_in_depth(self, camera):
        rng = np.random.default_rng(0)
        for _ in range(20):
            z = rng.uniform(100.0, 9000.0)
            c = rng.uniform(0.1, 5.0)
            assert np.isclose(normalize_depth(c * z, camera), c * normalize_depth(z, camera))


class TestEquivalentDepth:
    def test_equal_areas_identity(self):
        assert equivalent_depth(7.25, 12345.0, 12345.0) == 7.25

    def test_hand_value(self):
        assert equivalent_depth(5.0, 40000.0, 10000.0) == 10.0

    def test_common_area_scale_cancels(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            z, ab, ar, c = rng.uniform(0.5, 20.0), *rng.uniform(1e3, 1e5, 2), rng.uniform(0.1, 9.0)
            assert np.isclose(equivalent_depth(z, c * ab, c * ar), equivalent_depth(z, ab, ar))

    def test_rejects_bad_areas(self):
        for a_box in (0.0, np.nan, np.inf):
            with pytest.raises(InvalidInputError):
                equivalent_depth(5.0, a_box, 100.0)

    def test_list_areas_give_the_array_result(self):
        # per-person areas as lists, as normalize_depth takes its depths
        got = equivalent_depth(4.0, [1.0, 2.0], [3.0, 4.0])
        want = equivalent_depth(4.0, np.array([1.0, 2.0]), np.array([3.0, 4.0]))
        assert got.tobytes() == want.tobytes()
        assert equivalent_depth([4.0, 8.0], [1.0, 2.0], [3.0, 4.0]).tobytes() == \
            equivalent_depth(np.array([4.0, 8.0]), np.array([1.0, 2.0]),
                             np.array([3.0, 4.0])).tobytes()


class TestDepthEstimate:
    @pytest.mark.parametrize("a_box", [0.0, np.nan, np.inf])
    def test_rejects_bad_areas(self, a_box):
        with pytest.raises(InvalidInputError):
            DepthEstimate(5.0, 5.0, 0.0, a_box, 100.0)


class TestRecoverAbsoluteDepth:
    def test_hand_chained_value(self, camera):
        # normalize(5000) = 5.0, equivalent with 4:1 areas = 10.0;
        # split as 9.5 + residual 0.5, then invert
        assert recover_absolute_depth(0.5, 9.5, camera, 40000.0, 10000.0) == 5000.0

    def test_round_trip_inverts_chain(self, camera):
        rng = np.random.default_rng(2)
        for _ in range(100):
            z = rng.uniform(500.0, 9500.0)
            a_box = rng.uniform(1e3, 1e5)
            a_roi = rng.uniform(1e3, 1e5)
            z_eq = equivalent_depth(normalize_depth(z, camera), a_box, a_roi)
            back = recover_absolute_depth(0.0, z_eq, camera, a_box, a_roi)
            assert abs(back - z) < 1e-9 * z

    def test_linear_in_refined_depth(self, camera):
        one = recover_absolute_depth(0.25, 4.75, camera, 20000.0, 10000.0)
        two = recover_absolute_depth(0.5, 9.5, camera, 20000.0, 10000.0)
        assert np.isclose(two, 2.0 * one)

    def test_rejects_non_positive_result(self, camera):
        for delta in (-10.0, np.nan, np.inf):
            with pytest.raises(InvalidDepthError):
                recover_absolute_depth(delta, 5.0, camera, 10000.0, 10000.0)


class TestLossInit:
    def test_perfect_prediction(self, camera):
        gt = [4000.0, 6000.0]
        pred = [z / 1000.0 for z in gt]
        assert loss_init(pred, gt, camera) == 0.0

    def test_single_person_error(self, camera):
        assert loss_init([4.25], [4000.0], camera) == 0.25

    def test_two_person_mean(self, camera):
        # errors 0.1 and 0.3 average to 0.2
        got = loss_init([4.1, 5.7], [4000.0, 6000.0], camera)
        assert abs(got - 0.2) < 1e-12

    def test_shape_mismatch_rejected(self, camera):
        with pytest.raises(InvalidInputError):
            loss_init([1.0, 2.0], [1000.0], camera)

    @pytest.mark.parametrize("z", [-5.0, 0.0, np.nan, np.inf])
    def test_rejects_non_positive_truth(self, camera, z):
        # the same check as loss_refine's, through normalize_depth
        est = DepthEstimate(1.0, 1.0, 0.0, 100.0, 100.0)
        for call in (lambda: loss_init([1.0], [z], camera),
                     lambda: loss_refine([est], [z], camera)):
            with pytest.raises(InvalidDepthError):
                call()


class TestLossRefine:
    @staticmethod
    def _estimate(z_gt, camera, a_box, a_roi, delta_error):
        z_norm = z_gt / np.sqrt(camera.fx * camera.fy)
        z_eq = z_norm * np.sqrt(a_box / a_roi)
        # true residual is 0 when z_eq_init is exact; offset it by the error
        return DepthEstimate(z_norm, z_eq, -delta_error, a_box, a_roi)

    def test_residual_closing_gap_scores_zero(self, camera):
        est = self._estimate(5000.0, camera, 40000.0, 10000.0, 0.0)
        assert loss_refine([est], [5000.0], camera) == 0.0

    def test_half_unit_residual(self, camera):
        est = self._estimate(5000.0, camera, 40000.0, 10000.0, 0.5)
        assert abs(loss_refine([est], [5000.0], camera) - 0.5) < 1e-12

    def test_two_person_hand_mean(self, camera):
        ests = [self._estimate(4000.0, camera, 30000.0, 10000.0, 0.2),
                self._estimate(6000.0, camera, 20000.0, 10000.0, 0.6)]
        got = loss_refine(ests, [4000.0, 6000.0], camera)
        assert abs(got - 0.4) < 1e-12

    def test_count_mismatch_rejected(self, camera):
        est = self._estimate(5000.0, camera, 40000.0, 10000.0, 0.0)
        with pytest.raises(InvalidInputError):
            loss_refine([est], [5000.0, 6000.0], camera)


def _rel(joints):
    return RelativePose(np.asarray(joints, dtype=float), 0)


class TestLossPose:
    def test_identical_poses(self):
        rng = np.random.default_rng(3)
        joints = np.column_stack([rng.uniform(0, 200, 17), rng.uniform(0, 200, 17),
                                  rng.normal(0, 100, 17)])
        joints[0, 2] = 0.0
        assert loss_pose([_rel(joints)], [_rel(joints)]) == 0.0

    def test_single_joint_offset_hand_value(self):
        gt = np.zeros((17, 3))
        pred = gt.copy()
        pred[5] = [1.0, 2.0, 3.0]
        assert abs(loss_pose([_rel(pred)], [_rel(gt)]) - 6.0 / 17.0) < 1e-12

    def test_invariant_under_matched_permutation(self):
        rng = np.random.default_rng(4)
        gts, preds = [], []
        for _ in range(3):
            g = np.column_stack([rng.uniform(0, 200, 17), rng.uniform(0, 200, 17),
                                 rng.normal(0, 100, 17)])
            g[0, 2] = 0.0
            p = g + rng.normal(0, 5, g.shape)
            p[0, 2] = 0.0
            gts.append(_rel(g))
            preds.append(_rel(p))
        base = loss_pose(preds, gts)
        order = [2, 0, 1]
        permuted = loss_pose([preds[i] for i in order], [gts[i] for i in order])
        assert abs(base - permuted) < 1e-12

    def test_shape_mismatch_rejected(self):
        with pytest.raises(InvalidInputError):
            loss_pose([_rel(np.zeros((17, 3)))], [_rel(np.zeros((4, 3)))])


class TestLossAbs:
    def test_identical(self):
        joints = np.array([[0.0, 0.0, 1000.0], [50.0, 60.0, 1200.0]])
        pose = AbsolutePose(joints)
        assert loss_abs([pose], [pose]) == 0.0

    def test_constant_offset(self):
        gt = np.array([[0.0, 0.0, 1000.0], [50.0, 60.0, 1200.0], [1.0, 2.0, 900.0]])
        pred = gt + np.array([10.0, 0.0, 0.0])
        assert loss_abs([AbsolutePose(pred)], [AbsolutePose(gt)]) == 10.0

    def test_matches_bruteforce_oracle(self):
        rng = np.random.default_rng(5)
        gt = np.column_stack([rng.normal(0, 300, 17), rng.normal(0, 300, 17),
                              rng.uniform(2000, 5000, 17)])
        pred = gt + rng.normal(0, 40, gt.shape)
        total = 0.0
        for j in range(17):
            for c in range(3):
                total += abs(pred[j, c] - gt[j, c])
        expected = total / 17.0
        got = loss_abs([AbsolutePose(pred)], [AbsolutePose(gt)])
        assert abs(got - expected) < 1e-9



EMPTY_CALLS = {
    "loss_init": lambda cam: loss_init([], [], cam),
    "loss_refine": lambda cam: loss_refine([], [], cam),
    "loss_pose": lambda cam: loss_pose([], []),
    "loss_abs": lambda cam: loss_abs([], []),
}


@pytest.mark.parametrize("name", sorted(EMPTY_CALLS))
def test_empty_input_rejected(camera, name):
    with pytest.raises(InvalidInputError, match="one non-empty shape"):
        EMPTY_CALLS[name](camera)
