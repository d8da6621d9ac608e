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
from .geometry import DEFAULT_NORMAL, Camera
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


def _number(value, context: str) -> float:
    """A JSON number as a float; booleans, strings, lists, null and
    integers too large for a float are rejected."""
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        try:
            return float(value)
        except OverflowError:
            pass
    raise InvalidInputError(f"{context} must be a finite number, got {value!r}")


def _integer(value, context: str) -> int:
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    raise InvalidInputError(f"{context} must be an integer, got {value!r}")


def _fixed_list(value, length: int, context: str) -> list:
    if not isinstance(value, list) or len(value) != length:
        raise InvalidInputError(f"{context} must be a list of {length} values, got {value!r}")
    return value


def _built(make, context: str, *args, **kwargs):
    """``make(*args, **kwargs)``, its rejection (same type) naming ``context``."""
    try:
        return make(*args, **kwargs)
    except InvalidInputError as exc:
        raise type(exc)(f"{context}: {exc}") from None


def scene_to_dict(scene: Scene) -> dict:
    camera = {"fx": scene.camera.fx, "fy": scene.camera.fy,
              "cx": scene.camera.cx, "cy": scene.camera.cy}
    # written only when it differs, so default-normal files keep their bytes
    if not np.array_equal(scene.camera.normal, DEFAULT_NORMAL):
        camera["normal"] = [float(x) for x in scene.camera.normal]
    return {
        "schema_version": SCHEMA_VERSION,
        "camera": camera,
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
    _check_keys(cam, {"fx", "fy", "cx", "cy", "normal"}, {"fx", "fy", "cx", "cy"}, "camera")
    normal = [_number(x, "camera.normal")
              for x in _fixed_list(cam.get("normal", list(DEFAULT_NORMAL)), 3, "camera.normal")]
    camera = _built(Camera, "camera",
                    *(_number(cam[k], f"camera.{k}") for k in ("fx", "fy", "cx", "cy")),
                    normal=np.array(normal))

    if "topology" in data:
        topo = data["topology"]
        _check_keys(topo, {"joints", "root_index", "parts"},
                    {"joints", "root_index", "parts"}, "topology")
        if not isinstance(topo["parts"], list):
            raise InvalidInputError(f"topology.parts must be a list, got {topo['parts']!r}")
        parts = tuple(tuple(_integer(x, f"topology.parts[{k}]")
                            for x in _fixed_list(part, 2, f"topology.parts[{k}]"))
                      for k, part in enumerate(topo["parts"]))
        topology = _built(SkeletonTopology, "topology",
                          _integer(topo["joints"], "topology.joints"),
                          _integer(topo["root_index"], "topology.root_index"), parts)
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
            rel[k] = [_number(joint[c], f"{ctx}.joints[{k}].{c}")
                      for c in ("u", "v", "z_rel_mm")]
        roi_area = _number(entry["roi_area"], f"{ctx}.roi_area")
        if not 0 < roi_area < math.inf:  # Person would read 0 as "the box area"
            raise InvalidInputError(f"{ctx}.roi_area must be positive and finite, "
                                    f"got {roi_area!r}")
        # the root depth is the one field Person checks that is not checked above
        persons.append(_built(
            Person, f"{ctx}.root_depth_mm",
            box=_built(BoundingBox, f"{ctx}.box",
                       *(_number(box[c], f"{ctx}.box.{c}") for c in ("u_top", "v_top", "w", "h"))),
            rel_pose=_built(RelativePose, f"{ctx}.joints", rel, topology.root_index),
            root_depth=_number(entry["root_depth_mm"], f"{ctx}.root_depth_mm"),
            roi_area=roi_area,
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
    except HmorError as exc:
        raise type(exc)(f"{path}: {exc}") from exc
    except ValueError as exc:  # JSONDecodeError, or an integer literal past the digit limit
        raise InvalidInputError(f"{path}: not valid JSON: {exc}") from exc
