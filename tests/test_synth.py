import json

import numpy as np
import pytest

from hmor import (DepthSwap, GaussNoise, GenerationError, GenSpec,
                  InvalidInputError, RootOffset, assemble_absolute,
                  enumerate_pairs, generate_scene, hmor_loss,
                  ordinal_violations, perturb)
from hmor.sceneio import scene_to_dict
from conftest import part_vectors


def scene_bytes(scene):
    return json.dumps(scene_to_dict(scene), sort_keys=True).encode()


class TestGenerateScene:
    def test_same_seed_same_scene(self):
        spec = GenSpec(seed=42, n_persons=3)
        assert scene_bytes(generate_scene(spec)) == scene_bytes(generate_scene(spec))

    def test_different_seed_differs(self):
        assert scene_bytes(generate_scene(GenSpec(seed=1))) != \
            scene_bytes(generate_scene(GenSpec(seed=2)))

    def test_three_person_invariants(self):
        scene = generate_scene(GenSpec(seed=5, n_persons=3))
        assert scene.person_count == 3
        for person in scene.persons:
            assert person.root_depth > 0
            assert person.box.w > 0 and person.box.h > 0
            assert person.roi_area == person.box.area
            assert person.rel_pose.joints[scene.topology.root_index, 2] == 0.0
            pose = assemble_absolute(person, scene.camera)
            assert np.all(pose.joints[:, 2] > 0)
            # projections stay inside the default frame
            u = scene.camera.fx * pose.joints[:, 0] / pose.joints[:, 2] + scene.camera.cx
            v = scene.camera.fy * pose.joints[:, 1] / pose.joints[:, 2] + scene.camera.cy
            assert u.min() >= 0 and u.max() <= 1000 and v.min() >= 0 and v.max() <= 1000

    def test_zero_hmor_loss_against_itself(self):
        scene = generate_scene(GenSpec(seed=6, n_persons=4))
        pairs = enumerate_pairs(scene, scene.camera.normal)
        assert hmor_loss(scene, pairs).total == 0.0

    def test_bone_scale_scales_parts(self):
        small = generate_scene(GenSpec(seed=7, n_persons=1, joint_jitter=0.0))
        big = generate_scene(GenSpec(seed=7, n_persons=1, joint_jitter=0.0, bone_scale=2.0))
        lengths = lambda sc: np.linalg.norm(part_vectors(
            assemble_absolute(sc.persons[0], sc.camera), sc.topology), axis=1)
        assert np.allclose(lengths(big), 2.0 * lengths(small), rtol=1e-9)

    def test_impossible_frame_raises(self):
        with pytest.raises(GenerationError):
            generate_scene(GenSpec(seed=8, image_size=(20.0, 20.0)))

    def test_spec_validation(self):
        with pytest.raises(InvalidInputError):
            GenSpec(n_persons=0)
        with pytest.raises(InvalidInputError):
            GenSpec(depth_range=(-5.0, 100.0))
        with pytest.raises(InvalidInputError):
            GaussNoise(sigma_xy=-1.0)


class TestPerturb:
    def test_no_perturbation_is_identity(self):
        spec = GenSpec(seed=9, n_persons=2)
        scene = generate_scene(spec)
        assert perturb(scene, spec) is scene

    def test_zero_sigma_gauss_is_identity(self):
        spec = GenSpec(seed=10, n_persons=2, perturbation=GaussNoise(0.0, 0.0))
        scene = generate_scene(spec)
        assert scene_bytes(perturb(scene, spec)) == scene_bytes(scene)

    def test_gauss_is_deterministic(self):
        spec = GenSpec(seed=11, n_persons=2, perturbation=GaussNoise(30.0, 250.0))
        scene = generate_scene(spec)
        assert scene_bytes(perturb(scene, spec)) == scene_bytes(perturb(scene, spec))

    def test_gauss_moves_roots_and_pixels(self):
        spec = GenSpec(seed=12, n_persons=2, perturbation=GaussNoise(30.0, 250.0))
        scene = generate_scene(spec)
        noisy = perturb(scene, spec)
        for before, after in zip(scene.persons, noisy.persons):
            assert before.root_depth != after.root_depth
            assert not np.array_equal(before.rel_pose.joints[:, :2],
                                      after.rel_pose.joints[:, :2])
            # depth offsets are untouched by lateral noise
            assert np.array_equal(before.rel_pose.joints[:, 2],
                                  after.rel_pose.joints[:, 2])

    def test_depth_swap_creates_instance_violation(self):
        spec = GenSpec(seed=13, n_persons=2, perturbation=DepthSwap(((0, 1),)))
        scene = generate_scene(spec)
        swapped = perturb(scene, spec)
        assert swapped.persons[0].root_depth == scene.persons[1].root_depth
        assert swapped.persons[1].root_depth == scene.persons[0].root_depth
        v = ordinal_violations(swapped, scene, [scene.camera.normal])
        assert v.instance == 1

    def test_depth_swap_validates_indices(self):
        spec = GenSpec(seed=14, n_persons=2, perturbation=DepthSwap(((0, 5),)))
        scene = generate_scene(spec)
        with pytest.raises(InvalidInputError):
            perturb(scene, spec)

    def test_root_offset_shifts_all(self):
        spec = GenSpec(seed=15, n_persons=3, perturbation=RootOffset(123.0))
        scene = generate_scene(spec)
        moved = perturb(scene, spec)
        for before, after in zip(scene.persons, moved.persons):
            assert after.root_depth == before.root_depth + 123.0

    def test_root_offset_guards_positivity(self):
        spec = GenSpec(seed=16, n_persons=1, perturbation=RootOffset(-1e9))
        scene = generate_scene(spec)
        with pytest.raises(InvalidInputError):
            perturb(scene, spec)
