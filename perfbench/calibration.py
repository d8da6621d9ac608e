"""Machine-speed calibration.

On a shared machine the speed available to one process drifts: on a
2-vCPU VM the same ``hmor.refine`` call took 80 ms in one minute and 140 ms
in another, with no steal time to show for it. A fixed kernel of the same
kind of work (small numpy calls, fancy indexing, a scatter, an SVD, a
little interpreted Python), timed before each op, drifts with it. Op times
are reported at reference speed: each wall time is multiplied by
``REFERENCE_S / t``, where ``t`` is the kernel's time next to it. A change
to ``hmor`` cannot move the kernel, which uses no code from it.

Ops that are whole processes are calibrated with a whole process: a bare
``python -c pass``, whose start-up tracks the cost of starting the
interpreter and importing modules, which numpy kernels timed between
process exits do not.
"""

from __future__ import annotations

import statistics
import subprocess
import sys
import time

import numpy as np

REFERENCE_S = 0.008  # the kernel's time at reference speed
PROCESS_REFERENCE_S = 0.070  # the bare interpreter's time at reference speed
WINDOW = 2  # an op is scaled by the median kernel time of ops i-2 .. i+2

_rng = np.random.default_rng(20080206)
_JOINTS = _rng.normal(size=(2, 4, 17, 3)) * 300.0 + [0.0, 0.0, 5000.0]
_BONE_ENDS = np.array([(0, 1), (1, 2), (2, 3), (2, 4), (4, 5), (5, 6), (2, 7),
                       (7, 8), (8, 9), (0, 10), (10, 11), (11, 12), (0, 13), (13, 14)])
_POINTS = _rng.normal(size=(2000, 3))
_INDEX = _rng.integers(0, 2000, size=20000)
_SQUARE = _rng.normal(size=(64, 64))


def _order_signs(joints: np.ndarray) -> list[np.ndarray]:
    """Depth-order and bone-turn signs over every pair, as in ``reference``."""
    z = joints[:, :, 2]
    bones = (joints[:, _BONE_ENDS[:, 1]] - joints[:, _BONE_ENDS[:, 0]]).reshape(-1, 3)
    signs = []
    for values in (z.mean(axis=1), z.ravel()):
        a, b = np.triu_indices(len(values), k=1)
        signs.append(np.sign(values[a] - values[b]))
    a, b = np.triu_indices(len(bones), k=1)
    signs.append(np.sign(bones[a, 0] * bones[b, 1] - bones[a, 1] * bones[b, 0]))
    return signs


def kernel() -> float:
    """Run the kernel once; return its wall time in seconds."""
    t0 = time.perf_counter()
    for _ in range(4):
        for p, g in zip(_order_signs(_JOINTS[0]), _order_signs(_JOINTS[1])):
            np.count_nonzero(p != g)
    grad = np.zeros_like(_POINTS)
    np.add.at(grad, _INDEX, _POINTS[_INDEX] * 0.5)
    (_POINTS[_INDEX[:5000]] @ _POINTS[:3].T).sum()
    np.linalg.svd(_SQUARE)
    acc = 0
    for i in range(20000):
        acc += i * i
    return time.perf_counter() - t0


def process_kernel() -> float:
    """Start and wait for a bare interpreter; return its wall time."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "pass"], check=True)
    return time.perf_counter() - t0


def scaled(durations: list[float], kernels: list[float], reference: float) -> list[float]:
    """Each op's duration at reference speed; ``kernels[i]`` was timed
    just before op ``i`` and takes ``reference`` seconds at that speed."""
    return [d * reference / statistics.median(kernels[max(0, i - WINDOW):i + WINDOW + 1])
            for i, d in enumerate(durations)]
