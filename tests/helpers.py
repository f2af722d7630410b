"""Shared sampling utilities for the test suite.

Random inputs are drawn uniformly from [-1, 1] per component with fixed
seeds.  Group elements are sampled with a condition-number bound so that
covariance checks at 1e-9 are meaningful rather than dominated by rounding.
"""

import numpy as np

from trideco import gl3
from trideco.sl3 import EPSILON
from trideco.tensor import BasisTransform, Tensor3


def rand_tensor(rng, variance="upper"):
    return Tensor3(rng.uniform(-1.0, 1.0, (3, 3, 3)), variance)


#: tensors whose mixed part is zero up to rounding, or small next to them
SMALL_MIXED_KINDS = ("symmetrized", "epsilon", "near-symmetric", "small-mixed")


def small_mixed_tensor(rng, kind, scale):
    t = rand_tensor(rng) * scale
    if kind == "symmetrized":
        return gl3.symmetric_part(t)
    if kind == "epsilon":
        return Tensor3(0.7 * scale * EPSILON)
    small = 1e-8 * gl3.residue_part(t)
    if kind == "near-symmetric":
        return gl3.symmetric_part(t) + small
    return gl3.symmetric_part(t) + gl3.antisymmetric_part(t) + small


def unit_tensor(rng, variance="upper"):
    arr = rng.uniform(-1.0, 1.0, (3, 3, 3))
    return Tensor3(arr / np.linalg.norm(arr), variance)


def unit_pair_symmetric(rng):
    arr = rng.uniform(-1.0, 1.0, (3, 3, 3))
    arr = (arr + np.transpose(arr, (0, 2, 1))) / 2.0
    return Tensor3(arr / np.linalg.norm(arr), "upper")


def unit_pair_antisymmetric(rng):
    arr = rng.uniform(-1.0, 1.0, (3, 3, 3))
    arr = (arr - np.transpose(arr, (1, 0, 2))) / 2.0
    return Tensor3(arr / np.linalg.norm(arr), "lower")


def random_orthogonal(rng, det=None):
    """Haar-ish orthogonal matrix, optionally with prescribed determinant."""
    q, r = np.linalg.qr(rng.normal(size=(3, 3)))
    q = q @ np.diag(np.sign(np.diag(r)))
    if det is not None and np.sign(np.linalg.det(q)) != det:
        q = q @ np.diag([1.0, 1.0, -1.0])
    return BasisTransform(q)


def random_rotation(rng):
    return random_orthogonal(rng, det=1)


def random_reflection(rng):
    return random_orthogonal(rng, det=-1)


def random_gl(rng, max_condition=20.0):
    while True:
        m = rng.uniform(-1.0, 1.0, (3, 3))
        if abs(np.linalg.det(m)) > 0.2 and np.linalg.cond(m) < max_condition:
            return BasisTransform(m)


def random_sl(rng, max_condition=20.0):
    while True:
        m = rng.uniform(-1.0, 1.0, (3, 3))
        det = np.linalg.det(m)
        if abs(det) > 0.2 and np.linalg.cond(m) < max_condition:
            if det < 0:
                m = m @ np.diag([1.0, 1.0, -1.0])
                det = -det
            return BasisTransform(m / det ** (1.0 / 3.0))


def rel_defect(actual, expected):
    """Max-abs difference, relative to the larger magnitude (floored at 1)."""
    actual = np.asarray(actual, dtype=float)
    expected = np.asarray(expected, dtype=float)
    scale = max(1.0, float(np.max(np.abs(actual))), float(np.max(np.abs(expected))))
    return float(np.max(np.abs(actual - expected))) / scale
