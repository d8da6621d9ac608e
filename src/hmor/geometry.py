"""Pinhole camera model: projection, back-projection, and uniform
sampling of virtual view directions.

All lengths are in millimeters and all pixel coordinates in pixels.
Every function here is pure; the view sampler takes an explicit
``numpy.random.Generator`` so callers own all randomness.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import BehindCameraError, InvalidInputError

_UNIT_TOL = 1e-9
DEFAULT_NORMAL = (0.0, 0.0, 1.0)


def _as_unit(vec, name: str) -> np.ndarray:
    v = np.asarray(vec, dtype=float)
    if v.shape != (3,):
        raise InvalidInputError(f"{name} must be a 3-vector, got shape {v.shape}")
    norm = float(np.linalg.norm(v))
    if not abs(norm - 1.0) <= _UNIT_TOL:  # a NaN or infinite vector fails too
        raise InvalidInputError(f"{name} must be a finite unit vector, |{name}| = {norm!r}")
    return v


@dataclass(frozen=True)
class Camera:
    """Zero-skew pinhole intrinsics plus the optical-axis unit normal.

    ``normal`` is the direction against which depth comparisons and
    plane projections are taken; it defaults to the optical axis
    (0, 0, 1) in the camera frame.
    """

    fx: float
    fy: float
    cx: float
    cy: float
    normal: np.ndarray = field(default_factory=lambda: np.array(DEFAULT_NORMAL))

    def __post_init__(self):
        if not (0 < self.fx < math.inf and 0 < self.fy < math.inf):
            raise InvalidInputError(
                f"focal lengths must be positive and finite, got fx={self.fx}, fy={self.fy}")
        if not (math.isfinite(self.cx) and math.isfinite(self.cy)):
            raise InvalidInputError(
                f"principal point must be finite, got cx={self.cx}, cy={self.cy}")
        object.__setattr__(self, "normal", _as_unit(self.normal, "normal"))


@dataclass(frozen=True)
class ViewVector:
    """A unit view direction expressed in camera coordinates."""

    direction: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "direction", _as_unit(self.direction, "direction"))


def back_project_points(camera: Camera, u, v, depth):
    """Lift pixels ``(u, v)`` at absolute depths (arrays of one shape) to
    camera-frame points ``(d*a, d*b, d)`` of shape ``(..., 3)``, with no
    depth check; also returns the chain-rule factors ``a = (u-cx)/fx`` and
    ``b = (v-cy)/fy``. This is the package's only back-projection."""
    a = (u - camera.cx) / camera.fx
    b = (v - camera.cy) / camera.fy
    return np.stack([depth * a, depth * b, depth], axis=-1), a, b


def project_points(camera: Camera, points):
    """Pixels ``(fx*x/z + cx, fy*y/z + cy)`` of camera-frame points of shape
    ``(..., 3)``, with no depth check. This is the package's only
    projection."""
    x, y, z = np.moveaxis(np.asarray(points, dtype=float), -1, 0)
    return camera.fx * x / z + camera.cx, camera.fy * y / z + camera.cy


def back_project(camera: Camera, pixel_u: float, pixel_v: float, depth_abs: float) -> np.ndarray:
    """Lift a pixel and an absolute depth to a 3D camera-frame point
    (:func:`back_project_points`), in millimeters."""
    if depth_abs <= 0:
        raise InvalidInputError(f"depth must be positive, got {depth_abs}")
    return back_project_points(camera, pixel_u, pixel_v, depth_abs)[0]


def project(camera: Camera, point) -> tuple[float, float]:
    """Project a camera-frame 3D point to pixel coordinates."""
    p = np.asarray(point, dtype=float)
    if p[2] <= 0:
        raise BehindCameraError(f"cannot project point with depth {p[2]} <= 0")
    return project_points(camera, p)


def _hemisphere(theta, u):
    """``(sqrt(1-u^2) cos(theta), sqrt(1-u^2) sin(theta), u)``, of scalars
    (shape (3,)) or of arrays of one shape (shape (..., 3))."""
    r = np.sqrt(np.maximum(0.0, 1.0 - u * u))
    return np.stack([r * np.cos(theta), r * np.sin(theta), u], axis=-1)


def sample_view(theta: float | None = None,
                u: float | None = None,
                rng: np.random.Generator | None = None) -> ViewVector:
    """Sample a view direction uniformly on the hemisphere facing the scene.

    The direction is ``(sqrt(1-u^2) cos(theta), sqrt(1-u^2) sin(theta), u)``
    with ``theta ~ U[0, 2*pi)`` and ``u ~ U[0, 1]``. Pass ``theta`` and
    ``u`` explicitly for a deterministic direction, or an ``rng`` to draw
    them; ``u`` in [0, 1] keeps the third component non-negative, so all
    sampled views face the same half-space as the camera normal.
    """
    if theta is None or u is None:
        if rng is None:
            raise InvalidInputError("either both theta and u, or an rng, must be given")
        theta = rng.uniform(0.0, 2.0 * np.pi)
        u = rng.uniform(0.0, 1.0)
    if not 0.0 <= u <= 1.0:
        raise InvalidInputError(f"u must lie in [0, 1], got {u}")
    if not 0.0 <= theta < 2.0 * np.pi:
        raise InvalidInputError(f"theta must lie in [0, 2*pi), got {theta}")
    return ViewVector(_hemisphere(theta, u))


def sample_views(n: int, rng: np.random.Generator) -> np.ndarray:
    """``n`` view directions as an (n, 3) array, from one
    ``rng.uniform(size=(n, 2))``: bit for bit the directions of ``n``
    successive ``sample_view(rng=rng)`` calls, which draw the same
    ``(theta / 2pi, u)`` pairs in the same order, and ``rng`` is left in
    the state those calls leave it in."""
    theta, u = rng.uniform(size=(n, 2)).T
    return _hemisphere(theta * (2.0 * np.pi), u)
