"""Skeleton topology and the scene data model.

A ``Scene`` is the unit everything else operates on: one camera plus a
set of persons, each carrying a bounding box, a box-relative pose, and
the absolute depth of its root joint ("human depth"). Absolute 3D poses
are derived, never stored, so the representation stays consistent with
the pinhole camera by construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidDepthError, InvalidInputError
from .geometry import Camera, back_project_points

# Default 17-joint order: 0 pelvis (root), 1 spine, 2 neck, 3 head,
# 4-6 left shoulder/elbow/wrist, 7-9 right shoulder/elbow/wrist,
# 10-12 left hip/knee/ankle, 13-15 right hip/knee/ankle, 16 head_top.
DEFAULT_JOINT_NAMES = (
    "pelvis", "spine", "neck", "head",
    "l_shoulder", "l_elbow", "l_wrist",
    "r_shoulder", "r_elbow", "r_wrist",
    "l_hip", "l_knee", "l_ankle",
    "r_hip", "r_knee", "r_ankle",
    "head_top",
)

# 14 directed bone parts (start joint, end joint).
DEFAULT_PARTS = (
    (2, 16),   # neck -> head_top
    (0, 2),    # pelvis -> neck
    (2, 4),    # neck -> l_shoulder
    (2, 7),    # neck -> r_shoulder
    (4, 5),    # l upper arm
    (7, 8),    # r upper arm
    (5, 6),    # l forearm
    (8, 9),    # r forearm
    (0, 10),   # pelvis -> l_hip
    (0, 13),   # pelvis -> r_hip
    (10, 11),  # l thigh
    (13, 14),  # r thigh
    (11, 12),  # l shin
    (14, 15),  # r shin
)


@dataclass(frozen=True)
class SkeletonTopology:
    """Joint count, root joint index, and the ordered list of bone parts."""

    joint_count: int = 17
    root_index: int = 0
    parts: tuple[tuple[int, int], ...] = DEFAULT_PARTS

    def __post_init__(self):
        object.__setattr__(self, "parts", tuple((int(s), int(e)) for s, e in self.parts))
        if self.joint_count < 1:
            raise InvalidInputError(f"joint_count must be >= 1, got {self.joint_count}")
        if not 0 <= self.root_index < self.joint_count:
            raise InvalidInputError(f"root_index {self.root_index} out of range for {self.joint_count} joints")
        for s, e in self.parts:
            if s == e:
                raise InvalidInputError(f"degenerate part ({s}, {e})")
            if not (0 <= s < self.joint_count and 0 <= e < self.joint_count):
                raise InvalidInputError(f"part ({s}, {e}) references a joint >= {self.joint_count}")

    @property
    def part_count(self) -> int:
        return len(self.parts)


@dataclass(frozen=True)
class BoundingBox:
    """Axis-aligned pixel box given by its top-left corner and size."""

    u_top: float
    v_top: float
    w: float
    h: float

    def __post_init__(self):
        if not (math.isfinite(self.u_top) and math.isfinite(self.v_top)):
            raise InvalidInputError(
                f"box corner must be finite, got u_top={self.u_top}, v_top={self.v_top}")
        if not (0 < self.w < math.inf and 0 < self.h < math.inf):
            raise InvalidInputError(
                f"box size must be positive and finite, got w={self.w}, h={self.h}")

    @property
    def area(self) -> float:
        return self.w * self.h


@dataclass(frozen=True)
class RelativePose:
    """Per-joint box-relative pixels plus depth offsets from the root.

    ``joints`` has shape (J, 3) with columns (u, v, z_rel); u and v are
    pixels with respect to the box corner, z_rel is millimeters relative
    to the root joint. Every value must be finite, and the root row's
    z_rel is forced to exactly zero.
    """

    joints: np.ndarray
    root_index: int = 0

    def __post_init__(self):
        arr = np.array(self.joints, dtype=float)
        if arr.ndim != 2 or arr.shape[1] != 3:
            raise InvalidInputError(f"relative pose must have shape (J, 3), got {arr.shape}")
        if not np.isfinite(arr).all():
            raise InvalidInputError("relative pose contains non-finite values")
        if not 0 <= self.root_index < arr.shape[0]:
            raise InvalidInputError(f"root_index {self.root_index} out of range")
        if abs(arr[self.root_index, 2]) > 1e-6:
            raise InvalidInputError(
                f"root joint z_rel must be 0, got {arr[self.root_index, 2]!r}")
        arr[self.root_index, 2] = 0.0
        object.__setattr__(self, "joints", arr)

    @property
    def joint_count(self) -> int:
        return self.joints.shape[0]


@dataclass(frozen=True)
class AbsolutePose:
    """Per-joint camera-frame 3D coordinates in millimeters, all depths
    positive and finite."""

    joints: np.ndarray

    def __post_init__(self):
        arr = np.array(self.joints, dtype=float)
        if arr.ndim != 2 or arr.shape[1] != 3:
            raise InvalidInputError(f"absolute pose must have shape (J, 3), got {arr.shape}")
        if not ((arr[:, 2] > 0) & (arr[:, 2] < math.inf)).all():
            raise InvalidDepthError("absolute pose contains non-positive or non-finite "
                                    "joint depths")
        object.__setattr__(self, "joints", arr)

    @property
    def joint_count(self) -> int:
        return self.joints.shape[0]


@dataclass(frozen=True)
class Person:
    """One detected or annotated person: box, relative pose, human depth.

    ``roi_area`` is the pixel area of the feature crop the equivalent-depth
    arithmetic compares against the box area; it defaults to the box area,
    making that ratio 1 for pure-geometry uses.
    """

    box: BoundingBox
    rel_pose: RelativePose
    root_depth: float
    roi_area: float = 0.0

    def __post_init__(self):
        if not 0 < self.root_depth < math.inf:
            raise InvalidDepthError(
                f"root depth must be positive and finite, got {self.root_depth}")
        if self.roi_area == 0.0:
            object.__setattr__(self, "roi_area", self.box.area)
        if not 0 < self.roi_area < math.inf:
            raise InvalidInputError(f"roi_area must be positive and finite, got {self.roi_area}")


@dataclass(frozen=True)
class Scene:
    """A camera plus N persons sharing one skeleton topology."""

    camera: Camera
    persons: tuple[Person, ...]
    topology: SkeletonTopology = field(default_factory=SkeletonTopology)

    def __post_init__(self):
        object.__setattr__(self, "persons", tuple(self.persons))
        if len(self.persons) < 1:
            raise InvalidInputError("a scene needs at least one person")
        for i, p in enumerate(self.persons):
            if p.rel_pose.joint_count != self.topology.joint_count:
                raise InvalidInputError(
                    f"person {i} has {p.rel_pose.joint_count} joints, "
                    f"topology expects {self.topology.joint_count}")
            if p.rel_pose.root_index != self.topology.root_index:
                raise InvalidInputError(
                    f"person {i} root_index {p.rel_pose.root_index} != topology root "
                    f"{self.topology.root_index}")

    @property
    def person_count(self) -> int:
        return len(self.persons)


def check_topologies_match(pred: Scene, gt: Scene) -> None:
    """Raise InvalidInputError naming every topology field in which a
    predicted scene differs from its ground truth."""
    pt, gt_t = pred.topology, gt.topology
    problems = []
    if pt.joint_count != gt_t.joint_count:
        problems.append(f"joint_count {pt.joint_count} != {gt_t.joint_count}")
    if pt.root_index != gt_t.root_index:
        problems.append(f"root_index {pt.root_index} != {gt_t.root_index}")
    if pt.parts != gt_t.parts:
        problems.append("parts differ")
    if problems:
        raise InvalidInputError("topology mismatch: " + "; ".join(problems))


def check_matched(pred: Scene, other: Scene) -> None:
    """Raise InvalidInputError unless ``other`` has the prediction's
    topology and person count, as scenes matched person for person do."""
    check_topologies_match(pred, other)
    if pred.person_count != other.person_count:
        raise InvalidInputError("scenes must be matched person-for-person")


def assemble_absolute(person: Person, camera: Camera) -> AbsolutePose:
    """Back-project a person's relative pose into absolute 3D coordinates.

    Joint j lifts the global pixel (u_j + u_top, v_j + v_top) at depth
    z_rel_j + root_depth (:func:`~hmor.geometry.back_project_points`);
    the root joint lands exactly at the person's human depth.
    """
    rel = person.rel_pose.joints
    depth = rel[:, 2] + person.root_depth
    if np.any(depth <= 0):
        raise InvalidDepthError("relative pose plus root depth yields non-positive joint depth")
    points, _, _ = back_project_points(camera, rel[:, 0] + person.box.u_top,
                                       rel[:, 1] + person.box.v_top, depth)
    return AbsolutePose(points)
