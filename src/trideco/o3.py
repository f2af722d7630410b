"""Metric-refined decomposition: trace vectors, trace parts, traceless parts.

With a metric available, the symmetric part splits into a pure-trace piece
built from one vector and a totally traceless remainder, and the mixed part
splits likewise from two vectors.  All coefficient formulas take the supplied
metric verbatim; the Euclidean case is just the default.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import parts
from .tensor import (
    EUCLIDEAN,
    Metric,
    SymmetryError,
    Tensor3,
    VarianceError,
    Vector3,
    max_abs,
)


def _validation_scale(t: Tensor3) -> float:
    return max(1.0, t.max_abs())


def _require_upper(t: Tensor3, what: str) -> None:
    if t.variance != "upper":
        raise VarianceError(f"{what} expects an upper-variance tensor")


@dataclass(frozen=True)
class TraceVectors:
    u: Vector3
    v: Vector3
    w: Vector3


def trace_vectors(t: Tensor3, metric: Metric = EUCLIDEAN) -> TraceVectors:
    """The three metric contractions over slot pairs (1,2), (1,3), (2,3)."""
    _require_upper(t, "trace_vectors")
    u, v, w = parts.trace_vectors(t.components, metric.g)
    return TraceVectors(*(Vector3(vec, "upper", t.parity) for vec in (u, v, w)))


def symmetric_split(x, parity: int, metric: Metric) -> tuple[Tensor3, Tensor3, Vector3]:
    """``s_trace_split`` of the components ``x``, which it does not check."""
    alpha = parts.trace(x, metric.g, (0, 1))
    k = parts.symmetric_trace_part(alpha, metric.g_inv)
    return (
        Tensor3(k, "upper", parity),
        Tensor3(x - k, "upper", parity),
        Vector3(alpha, "upper", parity),
    )


def mixed_split(x, parity: int, metric: Metric) -> tuple[Tensor3, Tensor3, Vector3, Vector3]:
    """``n_trace_split`` of the components ``x``, which it does not check."""
    u, v, w = parts.trace_vectors(x, metric.g)
    m = parts.mixed_trace_part(u, v, w, metric.g_inv)
    return (
        Tensor3(m, "upper", parity),
        Tensor3(x - m, "upper", parity),
        Vector3(2.0 / 3.0 * (u - w), "upper", parity),
        Vector3(2.0 / 3.0 * (v - w), "upper", parity),
    )


def s_trace_split(
    s: Tensor3, metric: Metric = EUCLIDEAN, tol: float = 1e-9
) -> tuple[Tensor3, Tensor3, Vector3]:
    """Split a fully symmetric tensor into its trace part and traceless rest.

    Returns ``(k_part, r_part, alpha)`` with ``k_part + r_part == s``, all
    three metric traces of ``r_part`` zero, and ``alpha`` the single
    independent trace vector of ``s``.  The 1/5 weight on the trace part is
    exactly what makes the remainder traceless.
    """
    _require_upper(s, "s_trace_split")
    x = s.components
    if max_abs(x - parts.symmetric(x)) > tol * _validation_scale(s):
        raise SymmetryError("s_trace_split expects a fully symmetric tensor")
    return symmetric_split(x, s.parity, metric)


def n_trace_split(
    n: Tensor3, metric: Metric = EUCLIDEAN, tol: float = 1e-9
) -> tuple[Tensor3, Tensor3, Vector3, Vector3]:
    """Split a mixed-symmetry tensor into its trace part and traceless rest.

    Returns ``(m_part, p_part, beta, gamma)``.  The trace part is assembled
    from the tensor's own trace vectors with 1/6 weights; ``beta`` and
    ``gamma`` are the independent trace vectors of the two plain-family
    components and determine the same trace part through the per-family
    formulas.
    """
    _require_upper(n, "n_trace_split")
    x = n.components
    scale = _validation_scale(n)
    if (
        max_abs(parts.symmetric(x)) > tol * scale
        or max_abs(parts.antisymmetric(x)) > tol * scale
    ):
        raise SymmetryError("n_trace_split expects a mixed-symmetry tensor")
    return mixed_split(x, n.parity, metric)


def n_family_trace_split(
    n1: Tensor3, n2: Tensor3, metric: Metric = EUCLIDEAN, tol: float = 1e-9
) -> tuple[Tensor3, Tensor3, Tensor3, Tensor3]:
    """Trace/traceless split of the two plain-family components.

    Returns ``(m1, p1, m2, p2)``; the 1/4 weights solve the traceless
    conditions on each branch.
    """
    _require_upper(n1, "n_family_trace_split")
    _require_upper(n2, "n_family_trace_split")
    x1, x2 = n1.components, n2.components
    if max_abs(x1 - np.transpose(x1, (1, 0, 2))) > tol * _validation_scale(n1):
        raise SymmetryError("first component must be symmetric in slots 1,2")
    if max_abs(x2 - np.transpose(x2, (2, 1, 0))) > tol * _validation_scale(n2):
        raise SymmetryError("second component must be symmetric in slots 1,3")
    m1 = parts.first_trace_part(x1, metric.g, metric.g_inv)
    m2 = parts.second_trace_part(x2, metric.g, metric.g_inv)
    return (
        Tensor3(m1, "upper", n1.parity),
        Tensor3(x1 - m1, "upper", n1.parity),
        Tensor3(m2, "upper", n2.parity),
        Tensor3(x2 - m2, "upper", n2.parity),
    )


def orthogonality_matrix(parts, metric: Metric = EUCLIDEAN) -> np.ndarray:
    """Gram matrix of scalar products between the given tensors."""
    parts = list(parts)
    if not parts:
        return np.zeros((0, 0))
    if any(t.variance != parts[0].variance for t in parts):
        raise VarianceError("scalar product requires equal variance")
    x = np.array([t.components for t in parts]).reshape(len(parts), 27)
    gram = x @ metric.contraction_matrix(parts[0].variance) @ x.T
    # the two triangles round differently; their mean is exactly symmetric
    return (gram + gram.T) / 2.0


@dataclass(frozen=True)
class O3Parts:
    k_part: Tensor3
    r_part: Tensor3
    a: Tensor3
    m_part: Tensor3
    p_part: Tensor3
    alpha: Vector3
    beta: Vector3
    gamma: Vector3


def decompose(t: Tensor3, metric: Metric = EUCLIDEAN) -> O3Parts:
    """The unique five-part metric decomposition of a generic tensor."""
    _require_upper(t, "decompose")
    x = t.components
    s, a = parts.symmetric(x), parts.antisymmetric(x)
    k_part, r_part, alpha = symmetric_split(s, t.parity, metric)
    m_part, p_part, beta, gamma = mixed_split(x - s - a, t.parity, metric)
    return O3Parts(
        k_part, r_part, Tensor3(a, "upper", t.parity), m_part, p_part, alpha, beta, gamma
    )
