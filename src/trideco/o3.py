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
from .symmetrizers import defects
from .tensor import (
    EUCLIDEAN,
    Metric,
    SymmetryError,
    Tensor3,
    VarianceError,
    Vector3,
)


def _require(symmetry: str, t: Tensor3, tol: float, scale: float, message: str) -> None:
    """Raise ``SymmetryError(message)`` unless ``t`` has the named symmetry of
    ``symmetrizers.SYMMETRIES`` to within ``tol`` times the larger of its
    max-abs component and ``scale``."""
    if defects((symmetry,), t.components)[0] > tol * max(scale, t.max_abs()):
        raise SymmetryError(message)


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
    return TraceVectors(*_vectors(t.parity, *parts.traces(t.components, metric.g)))


def _vectors(parity: int, *vectors) -> tuple[Vector3, ...]:
    return tuple(Vector3(v, "upper", parity) for v in vectors)


def _split(x, parity: int, metric: Metric) -> tuple[Tensor3, Tensor3, np.ndarray]:
    """The pure-trace part of ``x``, the traceless rest and the traces of ``x``."""
    t = parts.traces(x, metric.g)
    piece = parts.from_traces(t, metric.g_inv)
    return Tensor3(piece, "upper", parity), Tensor3(x - piece, "upper", parity), t


def s_trace_split(
    s: Tensor3, metric: Metric = EUCLIDEAN, tol: float = 1e-9, *, scale: float = 0.0
) -> tuple[Tensor3, Tensor3, Vector3]:
    """Split a fully symmetric tensor into its trace part and traceless rest.

    Returns ``(k_part, r_part, alpha)`` with ``k_part + r_part == s``, all
    three metric traces of ``r_part`` zero, and ``alpha`` the single
    independent trace vector of ``s``.  The trace part is the one trace
    projection of ``parts``; on a fully symmetric tensor it puts
    ``alpha / 5`` in each slot.

    The symmetry must hold to within ``tol`` times the larger of the
    tensor's own max-abs component and ``scale``.  A part split off a
    tensor carries rounding of that tensor's size, so a caller passes the
    tensor's ``max_abs()`` as ``scale``; when the part is small next to the
    tensor, the part alone is too small to judge that rounding by.
    """
    _require_upper(s, "s_trace_split")
    _require("fully-symmetric", s, tol, scale, "s_trace_split expects a fully symmetric tensor")
    k_part, r_part, t = _split(s.components, s.parity, metric)
    return (k_part, r_part, *_vectors(s.parity, t[0]))


def n_trace_split(
    n: Tensor3, metric: Metric = EUCLIDEAN, tol: float = 1e-9, *, scale: float = 0.0
) -> tuple[Tensor3, Tensor3, Vector3, Vector3]:
    """Split a mixed-symmetry tensor into its trace part and traceless rest.

    Returns ``(m_part, p_part, beta, gamma)``.  The trace part is the one
    trace projection of ``parts`` applied to the tensor's own traces;
    ``beta`` and ``gamma`` are the independent trace vectors of the two
    plain-family components, whose trace parts add up to the same one.
    ``tol`` and ``scale`` as in ``s_trace_split``.
    """
    _require_upper(n, "n_trace_split")
    _require("mixed", n, tol, scale, "n_trace_split expects a mixed-symmetry tensor")
    m_part, p_part, t = _split(n.components, n.parity, metric)
    return (m_part, p_part, *_vectors(n.parity, *parts.plain_trace_vectors(t)))


def n_family_trace_split(
    n1: Tensor3, n2: Tensor3, metric: Metric = EUCLIDEAN, tol: float = 1e-9, *,
    scale: float = 0.0
) -> tuple[Tensor3, Tensor3, Tensor3, Tensor3]:
    """Trace/traceless split of the two plain-family components.

    Returns ``(m1, p1, m2, p2)``; each trace part is the one trace
    projection of ``parts`` applied to its branch; ``tol`` and ``scale``, for
    each component, as in ``s_trace_split``.
    """
    _require_upper(n1, "n_family_trace_split")
    _require_upper(n2, "n_family_trace_split")
    _require("pair-symmetric-ij", n1, tol, scale,
             "first component must be symmetric in slots 1,2")
    _require("pair-symmetric-ik", n2, tol, scale,
             "second component must be symmetric in slots 1,3")
    return (*_split(n1.components, n1.parity, metric)[:2],
            *_split(n2.components, n2.parity, metric)[:2])


def orthogonality_matrix(parts, metric: Metric = EUCLIDEAN) -> np.ndarray:
    """Gram matrix of scalar products between the given tensors."""
    parts = list(parts)
    if not parts:
        return np.zeros((0, 0))
    if any(t.variance != parts[0].variance for t in parts):
        raise VarianceError("scalar product requires equal variance")
    return gram(np.array([t.components for t in parts]).reshape(len(parts), 27), metric,
                parts[0].variance)


def gram(rows: np.ndarray, metric: Metric, variance: str) -> np.ndarray:
    """Gram matrix of the flattened components in the rows of ``rows``."""
    result = rows @ metric.contraction_matrix(variance) @ rows.T
    # the two triangles round differently; their mean is exactly symmetric
    return (result + result.T) / 2.0


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
    tensors = parts.apply(("k_part", "r_part", "antisymmetric", "m_part", "p_part"), x, metric)
    s_traces, n_traces = parts.apply(("symmetric_traces", "residue_traces"), x, metric)
    return O3Parts(
        *(Tensor3(part, "upper", t.parity) for part in tensors),
        *_vectors(t.parity, s_traces[0], *parts.plain_trace_vectors(n_traces)),
    )
