"""On-disk scene format: UTF-8 JSON, schema "hmor-scene/1".

Files are strict: unknown fields are rejected and the schema version is
checked, so fixtures stay diffable and mistakes surface at load time.
Lengths are millimeters, pixel quantities pixels, areas pixels squared.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

from .errors import HmorError, InvalidInputError, NumericalError
from .geometry import Camera
from .skeleton import (BoundingBox, Person, RelativePose, Scene,
                       SkeletonTopology)

SCHEMA_VERSION = "hmor-scene/1"


def _check_keys(obj: dict, allowed: set[str], required: set[str], context: str):
    if not isinstance(obj, dict):
        raise InvalidInputError(f"{context} must be an object, got {type(obj).__name__}")
    unknown = set(obj) - allowed
    if unknown:
        raise InvalidInputError(f"{context} has unknown fields {sorted(unknown)}")
    missing = required - set(obj)
    if missing:
        raise InvalidInputError(f"{context} is missing fields {sorted(missing)}")


def scene_to_dict(scene: Scene) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "camera": {
            "fx": scene.camera.fx, "fy": scene.camera.fy,
            "cx": scene.camera.cx, "cy": scene.camera.cy,
        },
        "persons": [
            {
                "box": {
                    "u_top": p.box.u_top, "v_top": p.box.v_top,
                    "w": p.box.w, "h": p.box.h,
                },
                "roi_area": p.roi_area,
                "root_depth_mm": p.root_depth,
                "joints": [
                    {"u": float(j[0]), "v": float(j[1]), "z_rel_mm": float(j[2])}
                    for j in p.rel_pose.joints
                ],
            }
            for p in scene.persons
        ],
        "topology": {
            "joints": scene.topology.joint_count,
            "root_index": scene.topology.root_index,
            "parts": [list(part) for part in scene.topology.parts],
        },
    }


def scene_from_dict(data: dict) -> Scene:
    _check_keys(data, {"schema_version", "camera", "persons", "topology"},
                {"schema_version", "camera", "persons"}, "scene")
    if data["schema_version"] != SCHEMA_VERSION:
        raise InvalidInputError(
            f"unsupported schema_version {data['schema_version']!r}, "
            f"expected {SCHEMA_VERSION!r}")

    cam = data["camera"]
    _check_keys(cam, {"fx", "fy", "cx", "cy"}, {"fx", "fy", "cx", "cy"}, "camera")
    camera = Camera(float(cam["fx"]), float(cam["fy"]), float(cam["cx"]), float(cam["cy"]))

    if "topology" in data:
        topo = data["topology"]
        _check_keys(topo, {"joints", "root_index", "parts"},
                    {"joints", "root_index", "parts"}, "topology")
        topology = SkeletonTopology(int(topo["joints"]), int(topo["root_index"]),
                                    tuple((int(s), int(e)) for s, e in topo["parts"]))
    else:
        topology = SkeletonTopology()

    if not isinstance(data["persons"], list) or not data["persons"]:
        raise InvalidInputError("persons must be a non-empty list")
    persons = []
    for i, entry in enumerate(data["persons"]):
        ctx = f"persons[{i}]"
        _check_keys(entry, {"box", "roi_area", "root_depth_mm", "joints"},
                    {"box", "roi_area", "root_depth_mm", "joints"}, ctx)
        box = entry["box"]
        _check_keys(box, {"u_top", "v_top", "w", "h"}, {"u_top", "v_top", "w", "h"},
                    f"{ctx}.box")
        joints = entry["joints"]
        if not isinstance(joints, list) or len(joints) != topology.joint_count:
            raise InvalidInputError(
                f"{ctx} has {len(joints) if isinstance(joints, list) else '?'} joints, "
                f"topology expects {topology.joint_count}")
        rel = np.empty((len(joints), 3))
        for k, joint in enumerate(joints):
            _check_keys(joint, {"u", "v", "z_rel_mm"}, {"u", "v", "z_rel_mm"},
                        f"{ctx}.joints[{k}]")
            rel[k] = (float(joint["u"]), float(joint["v"]), float(joint["z_rel_mm"]))
        persons.append(Person(
            box=BoundingBox(float(box["u_top"]), float(box["v_top"]),
                            float(box["w"]), float(box["h"])),
            rel_pose=RelativePose(rel, topology.root_index),
            root_depth=float(entry["root_depth_mm"]),
            roi_area=float(entry["roi_area"]),
        ))
    return Scene(camera=camera, persons=tuple(persons), topology=topology)


def save_scene(scene: Scene, path) -> None:
    try:
        text = json.dumps(scene_to_dict(scene), sort_keys=True, indent=2, allow_nan=False)
    except ValueError as exc:
        raise NumericalError(f"{path}: scene has non-finite values, not written") from exc
    Path(path).write_text(text + "\n", encoding="utf-8")


def _finite_number(token: str) -> float:
    """JSON number hook: NaN, Infinity and overflowing literals are rejected."""
    value = float(token)
    if not math.isfinite(value):
        raise InvalidInputError(f"non-finite number {token}")
    return value


def load_scene(path) -> Scene:
    text = Path(path).read_text(encoding="utf-8")  # OSError -> CLI I/O failure
    try:
        data = json.loads(text, parse_float=_finite_number, parse_constant=_finite_number)
        return scene_from_dict(data)
    except json.JSONDecodeError as exc:
        raise InvalidInputError(f"{path}: not valid JSON: {exc}") from exc
    except HmorError as exc:
        raise type(exc)(f"{path}: {exc}") from exc
