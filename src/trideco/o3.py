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
    return TraceVectors(*_vectors(t.parity, *parts.trace_vectors(t.components, metric.g)))


def _vectors(parity: int, *vectors) -> tuple[Vector3, ...]:
    return tuple(Vector3(v, "upper", parity) for v in vectors)


def _split(x, rule: str, parity: int, metric: Metric) -> tuple[Tensor3, Tensor3]:
    """The part ``rule`` of ``parts.PARTS`` applied to ``x``, and the rest."""
    piece = parts.PARTS[rule].rule(x, metric)
    return Tensor3(piece, "upper", parity), Tensor3(x - piece, "upper", parity)


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
    alpha = parts.trace(x, metric.g, (0, 1))
    return (*_split(x, "k_part", s.parity, metric), *_vectors(s.parity, alpha))


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
    beta_gamma = parts.plain_trace_vectors(x, metric.g)
    return (*_split(x, "m_part", n.parity, metric), *_vectors(n.parity, *beta_gamma))


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
    return (*_split(x1, "m1_part", n1.parity, metric), *_split(x2, "m2_part", n2.parity, metric))


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
    *tensors, s, n = parts.evaluate(
        ("k_part", "r_part", "antisymmetric", "m_part", "p_part", "symmetric", "residue"),
        t.components,
        metric,
    )
    alpha = parts.trace(s, metric.g, (0, 1))
    return O3Parts(
        *(Tensor3(x, "upper", t.parity) for x in tensors),
        *_vectors(t.parity, alpha, *parts.plain_trace_vectors(n, metric.g)),
    )
