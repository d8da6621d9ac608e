"""Reference figures the benchmark computes itself, to check the program's
outputs without going through the code being measured.

Both work from a scene's fields alone: absolute joints by back-projection,
and ordinal violations under the camera normal (0, 0, 1), where a pair's
label is the sign of its depth margin (instances, joints) or of the z
component of the bone cross product (parts). With an equality tolerance
of 0 the program labels pairs the same way, and a violation is a pair
whose predicted label differs from the ground-truth label.
"""

from __future__ import annotations

import numpy as np


def absolute_joints(scene) -> np.ndarray:
    """(N, J, 3) camera-frame joints in millimeters."""
    cam = scene.camera
    out = []
    for person in scene.persons:
        rel = np.asarray(person.rel_pose.joints, dtype=float)
        depth = rel[:, 2] + person.root_depth
        x = depth * (rel[:, 0] + person.box.u_top - cam.cx) / cam.fx
        y = depth * (rel[:, 1] + person.box.v_top - cam.cy) / cam.fy
        out.append(np.column_stack([x, y, depth]))
    return np.stack(out)


def _pair_signs(values: np.ndarray) -> np.ndarray:
    a, b = np.triu_indices(len(values), k=1)
    return np.sign(values[a] - values[b])


def _part_cross_signs(joints: np.ndarray, parts) -> np.ndarray:
    idx = np.asarray(parts)
    bones = (joints[:, idx[:, 1]] - joints[:, idx[:, 0]]).reshape(-1, 3)
    a, b = np.triu_indices(len(bones), k=1)
    return np.sign(bones[a, 0] * bones[b, 1] - bones[a, 1] * bones[b, 0])


def violations(pred, gt) -> int:
    """Instance + part + joint pairs whose order under the camera normal
    differs between two scenes holding the same persons in the same order."""
    kp, kg = absolute_joints(pred), absolute_joints(gt)
    parts = gt.topology.parts
    return int(np.count_nonzero(_pair_signs(kp[:, :, 2].mean(axis=1))
                                != _pair_signs(kg[:, :, 2].mean(axis=1)))
               + np.count_nonzero(_part_cross_signs(kp, parts)
                                  != _part_cross_signs(kg, parts))
               + np.count_nonzero(_pair_signs(kp[:, :, 2].ravel())
                                  != _pair_signs(kg[:, :, 2].ravel())))


def abs_mpjpe(pred, gt, pairs=None) -> float:
    """Mean over person pairs of the mean per-joint camera-frame distance.
    ``pairs`` are (pred index, gt index); default: same order."""
    kp, kg = absolute_joints(pred), absolute_joints(gt)
    if pairs is None:
        pairs = [(i, i) for i in range(len(kg))]
    return float(np.mean([np.linalg.norm(kp[i] - kg[j], axis=1).mean() for i, j in pairs]))
