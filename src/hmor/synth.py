"""Deterministic synthetic multi-person scenes and controlled perturbations.

Scenes are built from a fixed anthropometric template skeleton placed at
random depths and lateral offsets with a random yaw and small per-joint
jitter. All randomness flows from the single seed in the spec, so the
same spec always produces the same scene, byte for byte once serialized.
Perturbations model prediction errors: seeded Gaussian noise, swapped
root depths, or a constant root-depth offset.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field

import numpy as np

from .errors import GenerationError, InvalidDepthError, InvalidInputError
from .geometry import Camera, project_points
from .skeleton import (BoundingBox, Person, RelativePose, Scene,
                       SkeletonTopology)

# Template pose (mm offsets from the pelvis, camera frame: x right, y down,
# z toward the scene). Arms slightly bent, small depth offsets so parts are
# genuinely three-dimensional. Bone lengths are order-of-magnitude human.
TEMPLATE_POSE = np.array([
    [0.0, 0.0, 0.0],        # pelvis
    [0.0, -260.0, 10.0],    # spine
    [0.0, -520.0, 0.0],     # neck
    [0.0, -640.0, 30.0],    # head
    [185.0, -500.0, -15.0],   # l_shoulder
    [255.0, -265.0, 40.0],    # l_elbow
    [285.0, -40.0, 90.0],     # l_wrist
    [-185.0, -500.0, -15.0],  # r_shoulder
    [-255.0, -265.0, 40.0],   # r_elbow
    [-285.0, -40.0, 90.0],    # r_wrist
    [95.0, 20.0, 0.0],        # l_hip
    [110.0, 460.0, 25.0],     # l_knee
    [115.0, 880.0, -20.0],    # l_ankle
    [-95.0, 20.0, 0.0],       # r_hip
    [-110.0, 460.0, 25.0],    # r_knee
    [-115.0, 880.0, -20.0],   # r_ankle
    [0.0, -760.0, 20.0],      # head_top
])


@dataclass(frozen=True)
class GaussNoise:
    """Per-joint lateral noise (mm at the person's depth) and per-person
    root-depth noise (mm)."""

    sigma_xy: float = 0.0
    sigma_z: float = 0.0

    def __post_init__(self):
        sigmas = (self.sigma_xy, self.sigma_z)
        if not np.all(np.isfinite(sigmas)) or min(sigmas) < 0:
            raise InvalidInputError(f"noise sigmas must be finite and >= 0, got {sigmas}")


@dataclass(frozen=True)
class DepthSwap:
    """Exchange the root depths of the listed person index pairs."""

    pairs: tuple[tuple[int, int], ...] = ((0, 1),)


@dataclass(frozen=True)
class RootOffset:
    """Shift every person's root depth by a constant (mm)."""

    offset: float = 0.0

    def __post_init__(self):
        if not np.isfinite(self.offset):
            raise InvalidInputError(f"root offset must be finite, got {self.offset!r}")


Perturbation = GaussNoise | DepthSwap | RootOffset


@dataclass(frozen=True)
class GenSpec:
    """Everything that determines a generated scene, seed included."""

    seed: int = 0
    n_persons: int = 2
    depth_range: tuple[float, float] = (3500.0, 7000.0)
    lateral_range: float = 1200.0
    bone_scale: float = 1.0
    camera: Camera = field(default_factory=lambda: Camera(1000.0, 1000.0, 500.0, 500.0))
    perturbation: Perturbation | None = None
    image_size: tuple[float, float] = (1000.0, 1000.0)
    joint_jitter: float = 20.0
    topology: SkeletonTopology = field(default_factory=SkeletonTopology)

    def __post_init__(self):
        if self.seed < 0:
            raise InvalidInputError(f"seed must be >= 0, got {self.seed}")
        if self.n_persons < 1:
            raise InvalidInputError(f"n_persons must be >= 1, got {self.n_persons}")
        for name in ("depth_range", "lateral_range", "bone_scale", "joint_jitter", "image_size"):
            if not np.all(np.isfinite(getattr(self, name))):
                raise InvalidInputError(f"{name} must be finite, got {getattr(self, name)!r}")
        if self.depth_range[0] <= 0 or self.depth_range[1] < self.depth_range[0]:
            raise InvalidInputError(f"bad depth range {self.depth_range}")
        if self.lateral_range < 0:
            raise InvalidInputError(f"lateral_range must be >= 0, got {self.lateral_range!r}")
        if self.bone_scale <= 0:
            raise InvalidInputError("bone_scale must be positive")
        if self.joint_jitter < 0:
            raise InvalidInputError("joint_jitter must be >= 0")


def _rngs(spec: GenSpec):
    gen_seq, perturb_seq = np.random.SeedSequence(spec.seed).spawn(2)
    return np.random.default_rng(gen_seq), np.random.default_rng(perturb_seq)


def _person_from_joints(joints_abs: np.ndarray, u: np.ndarray, v: np.ndarray,
                        root_index: int) -> Person:
    """A person whose joints are ``joints_abs``, projected to ``(u, v)``."""
    z = joints_abs[:, 2]
    u_top, v_top = u.min(), v.min()
    box = BoundingBox(float(u_top), float(v_top),
                      float(u.max() - u_top), float(v.max() - v_top))
    root_depth = float(z[root_index])
    rel = np.column_stack([u - u_top, v - v_top, z - root_depth])
    return Person(box=box,
                  rel_pose=RelativePose(rel, root_index),
                  root_depth=root_depth)


def generate_scene(spec: GenSpec) -> Scene:
    """Generate a deterministic multi-person scene from the spec.

    Each person is the template pose, scaled, yawed about the vertical
    axis, jittered per joint, and placed at a random depth and lateral
    offset. Placements whose projection leaves the image frame are
    redrawn; after 100 failed tries generation aborts.
    """
    rng, _ = _rngs(spec)
    cam = spec.camera
    width, height = spec.image_size
    persons = []
    for _ in range(spec.n_persons):
        for _attempt in range(100):
            z_root = rng.uniform(*spec.depth_range)
            x_off = rng.uniform(-spec.lateral_range, spec.lateral_range)
            y_off = rng.uniform(-spec.lateral_range / 4.0, spec.lateral_range / 4.0)
            yaw = rng.uniform(0.0, 2.0 * np.pi)
            jitter = rng.normal(0.0, spec.joint_jitter, TEMPLATE_POSE.shape)

            tpl = TEMPLATE_POSE * spec.bone_scale
            c, s = np.cos(yaw), np.sin(yaw)
            rotated = np.column_stack([
                c * tpl[:, 0] + s * tpl[:, 2],
                tpl[:, 1],
                -s * tpl[:, 0] + c * tpl[:, 2],
            ])
            joints = rotated + jitter + np.array([x_off, y_off, z_root])
            if np.any(joints[:, 2] <= 0):
                continue
            u, v = project_points(cam, joints)
            if u.min() < 0 or v.min() < 0 or u.max() > width or v.max() > height:
                continue
            persons.append(_person_from_joints(joints, u, v, spec.topology.root_index))
            break
        else:
            raise GenerationError(
                f"could not place person {len(persons)} inside the "
                f"{width:g}x{height:g} frame after 100 tries")
    return Scene(camera=cam, persons=tuple(persons), topology=spec.topology)


def _positive_depth(value: float, context: str) -> float:
    if value <= 0:
        raise InvalidDepthError(f"{context} drove a root depth non-positive ({value!r})")
    return value


def perturb(scene: Scene, spec: GenSpec) -> Scene:
    """Apply the spec's perturbation to a copy of the scene.

    Uses the perturbation stream of the spec's seed, so generation and
    perturbation are jointly deterministic. A spec without perturbation
    returns the scene unchanged.
    """
    kind = spec.perturbation
    if kind is None:
        return scene
    _, rng = _rngs(spec)
    persons = list(scene.persons)

    if isinstance(kind, GaussNoise):
        for i, person in enumerate(persons):
            dz = rng.normal(0.0, kind.sigma_z) if kind.sigma_z > 0 else 0.0
            new_depth = _positive_depth(person.root_depth + dz, "gauss noise")
            rel = person.rel_pose.joints.copy()
            if kind.sigma_xy > 0:
                j = rel.shape[0]
                rel[:, 0] += rng.normal(0.0, kind.sigma_xy, j) * scene.camera.fx / person.root_depth
                rel[:, 1] += rng.normal(0.0, kind.sigma_xy, j) * scene.camera.fy / person.root_depth
            persons[i] = dataclasses.replace(
                person, root_depth=new_depth,
                rel_pose=RelativePose(rel, person.rel_pose.root_index))
    elif isinstance(kind, DepthSwap):
        for a, b in kind.pairs:
            if not (0 <= a < len(persons) and 0 <= b < len(persons)):
                raise InvalidInputError(f"depth swap pair ({a}, {b}) out of range")
            da, db = persons[a].root_depth, persons[b].root_depth
            persons[a] = dataclasses.replace(persons[a], root_depth=db)
            persons[b] = dataclasses.replace(persons[b], root_depth=da)
    elif isinstance(kind, RootOffset):
        for i, person in enumerate(persons):
            persons[i] = dataclasses.replace(
                person,
                root_depth=_positive_depth(person.root_depth + kind.offset, "root offset"))
    else:
        raise InvalidInputError(f"unknown perturbation {kind!r}")

    return dataclasses.replace(scene, persons=tuple(persons))
