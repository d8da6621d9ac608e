import numpy as np
import pytest

from hmor import (BoundingBox, Camera, Person, RelativePose, Scene,
                  SkeletonTopology, equivalent_depth, normalize_depth)
from hmor.geometry import _as_unit
from hmor.ordinal import _threshold_label, _view_array


# ---------------------------------------------------------------------------
# Per-person geometry: the reference forms of the entity rows the ordinal
# kernel maps joints to (hmor.ordinal._entity_map) and of the plane
# projection the turning-direction rule is read through.

def part_vectors(pose, topology: SkeletonTopology) -> np.ndarray:
    """Directed bone vectors end_joint - start_joint of an AbsolutePose,
    shape (S, 3)."""
    idx = np.asarray(topology.parts)
    return pose.joints[idx[:, 1]] - pose.joints[idx[:, 0]]


def instance_position(pose) -> np.ndarray:
    """Position of a person (an AbsolutePose): the mean of its joints."""
    return pose.joints.mean(axis=0)


def project_to_plane(vec, normal) -> np.ndarray:
    """Remove from ``vec`` its component along the unit vector ``normal``."""
    v = np.asarray(vec, dtype=float)
    n = _as_unit(normal, "normal")
    return v - np.dot(v, n) * n


# ---------------------------------------------------------------------------
# Per-pair relations and errors: the reference forms the vectorized
# ordinal kernel (hmor.ordinal.ordinal_pass) must agree with exactly.

def relation_instance(gt_a, gt_b, view, eps: float = 0.0) -> int:
    """+1 if a is closer than b along the view, -1 if farther, 0 if tied."""
    n = _view_array(view)
    margin = float(np.dot(np.asarray(gt_a, float) - np.asarray(gt_b, float), n))
    return int(_threshold_label(margin, eps))


def err_instance_grad(pred_a, pred_b, label: int, view):
    """Instance ordinal error and its gradients w.r.t. both positions.

    err = log(1 + max(0, label * (pred_a - pred_b) . view)); the
    subgradient at the clamp boundary is taken as zero.
    """
    n = _view_array(view)
    a = np.asarray(pred_a, float)
    b = np.asarray(pred_b, float)
    g = label * float(np.dot(a - b, n))
    if g <= 0.0:
        return 0.0, np.zeros(3), np.zeros(3)
    w = label / (1.0 + g)
    return float(np.log1p(g)), w * n, -w * n


def err_instance(pred_a, pred_b, label: int, view) -> float:
    return err_instance_grad(pred_a, pred_b, label, view)[0]


def relation_joint(gt_a, gt_b, view, eps: float = 0.0) -> int:
    """Joint-level depth relation; same rule as the instance level."""
    return relation_instance(gt_a, gt_b, view, eps)


def err_joint_grad(pred_k1, pred_k2, label: int, view):
    """Joint ordinal error and gradients; clamps the label-product,
    exactly as the instance error does."""
    return err_instance_grad(pred_k1, pred_k2, label, view)


def err_joint(pred_k1, pred_k2, label: int, view) -> float:
    return err_joint_grad(pred_k1, pred_k2, label, view)[0]


def relation_part(gt_t1, gt_t2, view, eps: float = 0.0) -> int:
    """Turning-direction relation of two bone vectors seen along ``view``.

    The label is -sign((t1 x t2) . view), banded by eps, so that a
    correctly ordered prediction makes label * (t1 x t2) . view negative
    and the part error clamp to zero. Parallel projections give 0.
    """
    n = _view_array(view)
    c = float(np.dot(np.cross(np.asarray(gt_t1, float), np.asarray(gt_t2, float)), n))
    return int(_threshold_label(c, eps))


def err_part_grad(pred_t1, pred_t2, label: int, view):
    """Part ordinal error [label * (t1 x t2) . view]_+ and gradients."""
    n = _view_array(view)
    t1 = np.asarray(pred_t1, float)
    t2 = np.asarray(pred_t2, float)
    a = label * float(np.dot(np.cross(t1, t2), n))
    if a <= 0.0:
        return 0.0, np.zeros(3), np.zeros(3)
    return float(a), label * np.cross(t2, n), -label * np.cross(t1, n)


def err_part(pred_t1, pred_t2, label: int, view) -> float:
    return err_part_grad(pred_t1, pred_t2, label, view)[0]


def err_part_particle_grad(pred_c1, pred_c2, label: int, view):
    """Particle-part variant: depth-order error of bone midpoints."""
    return err_instance_grad(pred_c1, pred_c2, label, view)


def err_part_particle(pred_c1, pred_c2, label: int, view) -> float:
    return err_part_particle_grad(pred_c1, pred_c2, label, view)[0]


# ---------------------------------------------------------------------------
# Per-person data terms with their gradients: the reference forms the
# whole-scene terms of hmor.depth must agree with.

def loss_init_grad(pred_z_norm, gt_z_abs, camera):
    """Mean L1 gap between normalized ground-truth depths and initial
    predictions, plus the gradient w.r.t. the predictions."""
    pred = np.asarray(pred_z_norm, dtype=float)
    gt = np.asarray(gt_z_abs, dtype=float)
    resid = gt / np.sqrt(camera.fx * camera.fy) - pred
    grad = -np.sign(resid) / len(pred)
    return float(np.abs(resid).mean()), grad


def loss_refine_grad(pred, gt_z_abs, camera):
    """Mean L1 residual gap of the refinement step and its gradient
    w.r.t. the per-person deltas."""
    resid = np.empty(len(pred))
    for i, (est, z) in enumerate(zip(pred, gt_z_abs)):
        gt_eq = equivalent_depth(normalize_depth(z, camera), est.a_box, est.a_roi)
        resid[i] = gt_eq - est.z_eq_init - est.delta
    grad = -np.sign(resid) / len(pred)
    return float(np.abs(resid).mean()), grad


def loss_pose_grad(pred_rel, gt_rel):
    """L1 regression loss on (box-relative or absolute) joint coordinates,
    averaged over persons and joints, with the gradient w.r.t. the
    predictions."""
    pred, gt = (np.stack([np.asarray(getattr(p, "joints", p), dtype=float) for p in poses])
                for poses in (pred_rel, gt_rel))
    n, j = pred.shape[0], pred.shape[1]
    diff = pred - gt
    grad = np.sign(diff) / (n * j)
    return float(np.abs(diff).sum() / (n * j)), grad


@pytest.fixture
def camera():
    return Camera(1000.0, 1000.0, 500.0, 500.0)


def make_person(rel_joints, root_depth, box=(400.0, 400.0, 200.0, 200.0),
                root_index=0, roi_area=0.0):
    return Person(
        box=BoundingBox(*box),
        rel_pose=RelativePose(np.asarray(rel_joints, dtype=float), root_index),
        root_depth=root_depth,
        roi_area=roi_area,
    )


def two_person_depth_fixture(camera, z1=4000.0, z2=4600.0):
    """Two persons with identical relative poses at different depths.

    With identical z_rel profiles the mean-depth gap equals the root
    depth gap, which makes the instance error hand-computable.
    """
    topology = SkeletonTopology(joint_count=4, root_index=0,
                                parts=((0, 1), (1, 2), (2, 3)))
    rel = [
        [100.0, 100.0, 0.0],
        [120.0, 60.0, -40.0],
        [80.0, 140.0, 60.0],
        [60.0, 40.0, -20.0],
    ]
    p1 = make_person(rel, z1, box=(300.0, 400.0, 200.0, 200.0))
    p2 = make_person(rel, z2, box=(600.0, 420.0, 200.0, 200.0))
    return Scene(camera=camera, persons=(p1, p2), topology=topology)


def swap_root_depths(scene):
    import dataclasses
    a, b = scene.persons
    return dataclasses.replace(scene, persons=(
        dataclasses.replace(a, root_depth=b.root_depth),
        dataclasses.replace(b, root_depth=a.root_depth),
    ))


def brute_force_pairs(gt):
    """Each level's (2, P) entity pairs a < b, enumerated one by one:
    persons, flat parts ``person * S + part`` and flat joints ``person * J
    + joint``."""
    import itertools
    topo = gt.topology
    N, S, J = gt.person_count, topo.part_count, topo.joint_count
    return tuple(np.array(list(itertools.combinations(range(n), 2)), dtype=int).reshape(-1, 2).T
                 for n in (N, N * S, N * J))


# ---------------------------------------------------------------------------
# Per-level views of a RelationPairs, read from its stacked layout: the
# entity pairs, labels and rows the oracles compare level by level.

def _level(pairs, level: int):
    """Level ``level``'s (2, P) entity pairs and (k, P) labels."""
    layout = pairs.layout
    (cols,) = [cols for at, cols in layout.segments if at == level]
    if level == 1 and layout.flat is not None:  # the vector parts
        n = layout.person_count * layout.per_person[0]
        return np.stack(np.divmod(layout.flat, n)), pairs.labels[:, cols]
    S, J = layout.per_person
    per, row = ((1, 0), (S, 1), (J, 1 + S))[level]
    m, r = np.divmod(layout.pairs[:, cols], layout.width)
    return m * per + r - row, pairs.labels[:, cols]


def level_index(pairs):
    """Each level's (2, P) entity pairs a < b: persons, flat parts ``person
    * S + part`` and flat joints ``person * J + joint``."""
    return tuple(_level(pairs, level)[0] for level in range(3))


def level_labels(pairs):
    """Each level's (k, P) int8 labels."""
    return tuple(_level(pairs, level)[1] for level in range(3))


def level_rows(pairs, level: int) -> np.ndarray:
    """View 0's integer rows of one level: (m_a, m_b, label) for persons,
    (m_1, i_1, m_2, i_2, label) for parts and joints."""
    (a, b), labels = _level(pairs, level)
    per = (None, *pairs.layout.per_person)[level]
    cols = [a, b] if per is None else [*np.divmod(a, per), *np.divmod(b, per)]
    return np.column_stack(cols + [labels[0].astype(int)])


def _brute_force_entities(K, topo, particle):
    """Each level's points of an (N, J, 3) joint array, one by one: person
    means, bone midpoints (particle) or bone vectors, and joints."""
    N = len(K)
    parts = [0.5 * (K[m][e] + K[m][s]) if particle else K[m][e] - K[m][s]
             for m in range(N) for s, e in topo.parts]
    return [K[m].mean(axis=0) for m in range(N)], parts, list(K.reshape(-1, 3))


def _brute_force_relations(particle):
    return (relation_instance, relation_instance if particle else relation_part,
            relation_joint)


def brute_force_labels(gt, views, config, pairs):
    """Each level's (k, P) ground-truth labels of ``pairs`` (each level's
    (2, P) entity pairs), one pair and view at a time from the scalar
    ``relation_*`` functions."""
    from hmor.ordinal import scene_joint_array
    particle = config.part_mode == "particle"
    points = _brute_force_entities(scene_joint_array(gt, config.depth_unit_scale),
                                   gt.topology, particle)
    relation = _brute_force_relations(particle)
    return tuple(np.array([[relation[level](G[a], G[b], view, config.equality_tolerance)
                            for a, b in zip(*index.tolist())] for view in views],
                          dtype=int).reshape(len(views), -1)
                 for level, (index, G) in enumerate(zip(pairs, points)))


def ordinal_brute_force(pred, gt, views, config, pairs):
    """Per-pair reference for ``ordinal_pass`` under a stack of views.

    Labels come from the scalar ``relation_*`` functions on the ground
    truth, violations from the same functions on the prediction, errors
    and gradients from ``err_*_grad``. ``pairs`` are each level's (2, P)
    entity pairs. Returns (totals, levels, violations, dK) laid out as
    ``ordinal_pass`` returns them.
    """
    from hmor.ordinal import scene_joint_array
    topo = gt.topology
    J = topo.joint_count
    particle = config.part_mode == "particle"
    eps = config.equality_tolerance
    Kp, Kg = (scene_joint_array(s, config.depth_unit_scale) for s in (pred, gt))
    N = len(Kp)

    def joints_of(level, e):
        """(flat joint, coefficient) pairs that entity e's point is made of."""
        if level == 0:
            return [(e * J + j, 1.0 / J) for j in range(J)]
        if level == 2:
            return [(e, 1.0)]
        start, end = topo.parts[e % topo.part_count]
        first = e // topo.part_count * J
        return [(first + end, 0.5 if particle else 1.0),
                (first + start, 0.5 if particle else -1.0)]

    relation = _brute_force_relations(particle)
    err_grad = (err_instance_grad, err_part_particle_grad if particle else err_part_grad,
                err_joint_grad)
    weights = (config.w_instance, config.w_part, config.w_joint)
    pred_points, gt_points = (_brute_force_entities(K, topo, particle) for K in (Kp, Kg))
    k = len(views)
    levels = np.zeros((3, k))
    violations = np.zeros((3, k), dtype=int)
    dK = np.zeros((N * J, 3))
    for level, (a_idx, b_idx) in enumerate(pairs):
        P, X, G = len(a_idx), pred_points[level], gt_points[level]
        for i, view in enumerate(views):
            for a, b in zip(a_idx.tolist(), b_idx.tolist()):
                label = relation[level](G[a], G[b], view, eps)
                violations[level, i] += relation[level](X[a], X[b], view, eps) != label
                err, ga, gb = err_grad[level](X[a], X[b], label, view)
                levels[level, i] += err / P
                for entity, grad in ((a, ga), (b, gb)):
                    for joint, coeff in joints_of(level, entity):
                        dK[joint] += (weights[level] / P * coeff) * grad
    totals = weights[0] * levels[0] + weights[1] * levels[1] + weights[2] * levels[2]
    return totals, levels, violations, dK.reshape(Kp.shape)
