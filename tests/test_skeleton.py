import numpy as np
import pytest

from hmor import (AbsolutePose, BoundingBox, Camera, InvalidDepthError,
                  InvalidInputError, Person, RelativePose, Scene,
                  SkeletonTopology, assemble_absolute, project)
from conftest import instance_position, make_person, part_vectors


class TestSkeletonTopology:
    def test_defaults(self):
        topo = SkeletonTopology()
        assert topo.joint_count == 17
        assert topo.root_index == 0
        assert topo.part_count == 14
        for s, e in topo.parts:
            assert 0 <= s < 17 and 0 <= e < 17 and s != e

    def test_rejects_bad_parts(self):
        with pytest.raises(InvalidInputError):
            SkeletonTopology(joint_count=4, parts=((0, 0),))
        with pytest.raises(InvalidInputError):
            SkeletonTopology(joint_count=4, parts=((0, 9),))
        with pytest.raises(InvalidInputError):
            SkeletonTopology(joint_count=4, root_index=4, parts=((0, 1),))


class TestBoundingBox:
    def test_area(self):
        assert BoundingBox(0.0, 0.0, 20.0, 30.0).area == 600.0

    def test_rejects_degenerate(self):
        with pytest.raises(InvalidInputError):
            BoundingBox(0.0, 0.0, 0.0, 10.0)
        with pytest.raises(InvalidInputError):
            BoundingBox(0.0, 0.0, 10.0, -1.0)
        for field in ("u_top", "v_top", "w", "h"):
            for bad in (np.nan, np.inf, -np.inf):
                values = {"u_top": 0.0, "v_top": 0.0, "w": 10.0, "h": 10.0, field: bad}
                with pytest.raises(InvalidInputError):
                    BoundingBox(**values)


class TestRelativePose:
    def test_root_z_forced_to_zero(self):
        pose = RelativePose(np.array([[1.0, 2.0, 1e-8], [3.0, 4.0, 50.0]]), 0)
        assert pose.joints[0, 2] == 0.0

    def test_rejects_nonzero_root_depth(self):
        for root_z in (0.5, np.nan, np.inf, -np.inf):  # a NaN is not read as 0
            with pytest.raises(InvalidInputError):
                RelativePose(np.array([[1.0, 2.0, root_z], [3.0, 4.0, 50.0]]), 0)

    def test_rejects_bad_shape(self):
        with pytest.raises(InvalidInputError):
            RelativePose(np.zeros((3, 2)), 0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("row, col", [(0, 0), (1, 1), (1, 2)],
                             ids=["root_u", "joint_v", "joint_z"])
    def test_rejects_non_finite_joint(self, row, col, bad):
        joints = np.array([[1.0, 2.0, 0.0], [3.0, 4.0, 50.0]])
        joints[row, col] = bad
        with pytest.raises(InvalidInputError):
            RelativePose(joints, 0)


class TestAbsolutePose:
    def test_rejects_non_positive_depths(self):
        for bad in (0.0, -1.0, np.nan, np.inf):
            with pytest.raises(InvalidDepthError):
                AbsolutePose(np.array([[0.0, 0.0, 100.0], [0.0, 0.0, bad]]))


class TestPerson:
    @pytest.mark.parametrize("bad", [0.0, -5.0, np.nan, np.inf])
    def test_rejects_non_positive_root_depth(self, bad):
        with pytest.raises(InvalidDepthError):
            make_person([[0.0, 0.0, 0.0]], bad)

    @pytest.mark.parametrize("bad", [-1.0, np.nan, np.inf])
    def test_rejects_non_positive_roi_area(self, bad):
        with pytest.raises(InvalidInputError):
            make_person([[0.0, 0.0, 0.0]], 5000.0, roi_area=bad)

    def test_roi_area_defaults_to_box_area(self):
        assert make_person([[0.0, 0.0, 0.0]], 5000.0).roi_area == 200.0 * 200.0


class TestScene:
    def test_requires_person(self, camera):
        with pytest.raises(InvalidInputError):
            Scene(camera=camera, persons=())

    def test_requires_matching_joint_count(self, camera):
        person = make_person([[0.0, 0.0, 0.0]] * 4, 5000.0)
        with pytest.raises(InvalidInputError):
            Scene(camera=camera, persons=(person,))  # default topology wants 17


class TestAssembleAbsolute:
    def test_root_on_principal_ray(self, camera):
        topo = SkeletonTopology(joint_count=1, parts=())
        person = make_person([[100.0, 100.0, 0.0]], 4000.0, box=(400.0, 400.0, 200.0, 200.0))
        pose = assemble_absolute(person, camera)
        assert np.allclose(pose.joints[0], [0.0, 0.0, 4000.0])

    def test_hand_case(self, camera):
        person = make_person([[200.0, 100.0, 0.0], [200.0, 100.0, 300.0]], 4700.0)
        pose = assemble_absolute(person, camera)
        # second joint: pixel (600, 500) at depth 5000
        assert np.allclose(pose.joints[1], [500.0, 0.0, 5000.0], atol=1e-9)

    def test_depth_change_scales_joints_along_their_rays(self, camera):
        rel = [[10.0, 20.0, 0.0], [150.0, 90.0, 250.0]]
        near = assemble_absolute(make_person(rel, 3000.0), camera)
        far = assemble_absolute(make_person(rel, 6000.0), camera)
        # identical pixels, deeper root: each joint slides along its own ray
        ratio = (far.joints[:, 2] / near.joints[:, 2])[:, None]
        assert np.allclose(far.joints, near.joints * ratio)

    def test_reprojection_recovers_global_pixels(self, camera):
        rng = np.random.default_rng(5)
        rel = np.column_stack([rng.uniform(0, 200, 17), rng.uniform(0, 200, 17),
                               rng.uniform(-300, 300, 17)])
        rel[0, 2] = 0.0
        person = make_person(rel, 5000.0, box=(350.0, 420.0, 200.0, 200.0))
        pose = assemble_absolute(person, camera)
        for j in range(17):
            u, v = project(camera, pose.joints[j])
            assert abs(u - (rel[j, 0] + 350.0)) < 1e-9
            assert abs(v - (rel[j, 1] + 420.0)) < 1e-9

    def test_rejects_non_positive_joint_depth(self, camera):
        person = make_person([[0.0, 0.0, 0.0], [1.0, 1.0, -6000.0]], 5000.0)
        with pytest.raises(InvalidDepthError):
            assemble_absolute(person, camera)


class TestPartVectors:
    def test_coincident_endpoints_give_zero(self):
        topo = SkeletonTopology(joint_count=2, parts=((0, 1),))
        pose = AbsolutePose(np.array([[1.0, 2.0, 3.0], [1.0, 2.0, 3.0]]))
        assert np.array_equal(part_vectors(pose, topo), [[0.0, 0.0, 0.0]])

    def test_unit_offset(self):
        topo = SkeletonTopology(joint_count=2, parts=((0, 1),))
        pose = AbsolutePose(np.array([[0.0, 0.0, 5.0], [7.0, 0.0, 5.0]]))
        assert np.array_equal(part_vectors(pose, topo), [[7.0, 0.0, 0.0]])

    def test_matches_bruteforce_subtraction(self):
        rng = np.random.default_rng(2)
        topo = SkeletonTopology()
        joints = np.column_stack([rng.normal(0, 500, 17), rng.normal(0, 500, 17),
                                  rng.uniform(3000, 6000, 17)])
        pose = AbsolutePose(joints)
        got = part_vectors(pose, topo)
        for idx, (s, e) in enumerate(topo.parts):
            expected = joints[e] - joints[s]
            assert np.array_equal(got[idx], expected)

    def test_translation_invariance(self):
        rng = np.random.default_rng(3)
        topo = SkeletonTopology()
        joints = np.column_stack([rng.normal(0, 400, 17), rng.normal(0, 400, 17),
                                  rng.uniform(2000, 4000, 17)])
        shifted = joints + np.array([123.0, -77.0, 500.0])
        assert np.allclose(part_vectors(AbsolutePose(joints), topo),
                           part_vectors(AbsolutePose(shifted), topo))


class TestInstancePosition:
    def test_identical_joints(self):
        q = np.array([5.0, -2.0, 900.0])
        pose = AbsolutePose(np.tile(q, (17, 1)))
        assert np.allclose(instance_position(pose), q)

    def test_translation_equivariance(self):
        rng = np.random.default_rng(4)
        joints = np.column_stack([rng.normal(0, 300, 17), rng.normal(0, 300, 17),
                                  rng.uniform(2000, 5000, 17)])
        t = np.array([10.0, 20.0, 30.0])
        assert np.allclose(instance_position(AbsolutePose(joints + t)),
                           instance_position(AbsolutePose(joints)) + t)

    def test_matches_summation_oracle(self):
        rng = np.random.default_rng(6)
        joints = np.column_stack([rng.normal(0, 300, 17), rng.normal(0, 300, 17),
                                  rng.uniform(2000, 5000, 17)])
        total = np.zeros(3)
        for j in range(17):
            total += joints[j]
        assert np.allclose(instance_position(AbsolutePose(joints)), total / 17.0)
