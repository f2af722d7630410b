"""Decompositions of pair-symmetric and pair-antisymmetric third-order tensors.

A tensor symmetric in its last two slots (the piezoelectric shape, 18
components) has no fully antisymmetric part and its mixed part cannot be
split further: the decomposition is unique.  A tensor antisymmetric in its
first two slots (the Hall shape, 9 components) has no fully symmetric part
and likewise decomposes uniquely.  Both mixed parts are equivalent to a
single traceless 3x3 pseudo-matrix; the reconstruction weights below are
solver-verified (FORMULA_NOTES.txt).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from . import parts
from .sl3 import contraction, from_matrix, pseudo_scalar_of
from .tensor import (
    EUCLIDEAN,
    Metric,
    SymmetryError,
    Tensor2,
    Tensor3,
    VarianceError,
    Vector3,
    max_abs,
)

#: relative asymmetry accepted on ingestion and symmetrized away
INGEST_TOL = 1e-9
#: below this relative asymmetry the repair is rounding dust, not worth a warning
INGEST_SILENT = 1e-13

#: weight rebuilding the pair-symmetric mixed part from its matrix
PIEZO_RECONSTRUCTION_COEFF = 1.0 / 3.0
#: skew part of the pair-symmetric matrix in terms of the trace vector
PIEZO_SKEW_FROM_TRACE = -0.75
#: the reconstruction as ``sl3.from_matrix`` weights: its two terms are the
#: second and third of ``from_matrix``, since eps_kpj = -eps_pkj and
#: eps_kpm = eps_pmk
_PIEZO_WEIGHTS = (0.0, -PIEZO_RECONSTRUCTION_COEFF, PIEZO_RECONSTRUCTION_COEFF)

#: weights rebuilding the pair-antisymmetric mixed part from its matrix
HALL_RECONSTRUCTION_COEFFS = (1.0 / 3.0, -1.0 / 3.0, 2.0 / 3.0)
#: skew part of the pair-antisymmetric matrix in terms of the trace covector
HALL_SKEW_FROM_TRACE = -0.5
#: weights of the lowered-matrix form of the reconstruction
HALL_MATRIX_WEIGHTS = (0.5, -0.5, 0.5)


def _ingest(components: np.ndarray, defect: np.ndarray, repaired: np.ndarray,
            what: str) -> np.ndarray:
    asymmetry = max_abs(defect)
    # judged against the tensor's own size, so a tiny generic tensor is not
    # taken for a slightly noisy slice
    scale = max_abs(components)
    if asymmetry > INGEST_TOL * scale:
        raise SymmetryError(
            f"{what}: relative asymmetry {asymmetry / scale:.3e} exceeds {INGEST_TOL:.0e}"
        )
    if asymmetry > INGEST_SILENT * scale:
        warnings.warn(f"{what}: symmetrized away asymmetry {asymmetry:.3e}",
                      stacklevel=3)
    return repaired


@dataclass(frozen=True)
class PiezoTensor:
    """Upper-variance tensor symmetric in its last two slots.

    Small ingestion noise (relative asymmetry up to 1e-9) is symmetrized away
    with a warning; anything larger is an error.
    """

    tensor: Tensor3

    def __post_init__(self):
        if self.tensor.variance != "upper":
            raise VarianceError("pair-symmetric tensors use upper variance")
        c = self.tensor.components
        swapped = np.transpose(c, (0, 2, 1))
        repaired = _ingest(c, c - swapped, (c + swapped) / 2.0, "pair-symmetric tensor")
        object.__setattr__(self, "tensor", Tensor3(repaired, "upper", self.tensor.parity))


@dataclass(frozen=True)
class HallTensor:
    """Lower-variance tensor antisymmetric in its first two slots."""

    tensor: Tensor3

    def __post_init__(self):
        if self.tensor.variance != "lower":
            raise VarianceError("pair-antisymmetric tensors use lower variance")
        c = self.tensor.components
        swapped = np.transpose(c, (1, 0, 2))
        repaired = _ingest(c, c + swapped, (c - swapped) / 2.0, "pair-antisymmetric tensor")
        object.__setattr__(self, "tensor", Tensor3(repaired, "lower", self.tensor.parity))


@dataclass(frozen=True)
class PiezoParts:
    s: Tensor3
    n: Tensor3
    k_part: Tensor3
    r_part: Tensor3
    m_part: Tensor3
    p_part: Tensor3
    alpha: Vector3
    beta: Vector3
    b_mat: Tensor2
    b_sym: Tensor2
    b_skew: Tensor2
    metric: Metric


def piezo_decompose(d: PiezoTensor, metric: Metric = EUCLIDEAN) -> PiezoParts:
    """Unique decomposition of a pair-symmetric tensor.

    Every part keeps the last-two-slot symmetry.  The two trace vectors lead
    to the split 18 = (3 + 7) + (3 + 5) into a trace and a traceless piece of
    both the fully symmetric and the mixed part.  Only the mixed part is
    particular to the slice: the full symmetrizer absorbs the slot swap, so
    the fully symmetric part and its trace split are the generic ones of
    ``o3``.  Every part is read from ``parts.PARTS`` by one
    ``parts.evaluate`` call, the same table the reports read.
    """
    t = d.tensor
    *arrays, s_traces, n_traces = parts.evaluate(
        ("piezo_s", "piezo_n", "piezo_k", "piezo_r", "piezo_m", "piezo_p", "symmetric_traces",
         "piezo_n_traces"),
        t.components,
        metric,
    )
    beta, _ = parts.plain_trace_vectors(n_traces)
    return PiezoParts(
        *(Tensor3(x, "upper", t.parity) for x in arrays),
        *(Vector3(v, "upper", t.parity) for v in (s_traces[0], beta)),
        *_piezo_matrix(arrays[1], t.parity, metric),
        metric=metric,
    )


def _piezo_matrix(n: np.ndarray, parity: int, metric: Metric) -> tuple[Tensor2, Tensor2, Tensor2]:
    parity = (parity + 1) % 2
    raw = contraction(n, "b")
    low = raw @ metric.g
    return (
        Tensor2(raw, "lu", parity),
        Tensor2((low + low.T) / 2.0, "ll", parity),
        Tensor2((low - low.T) / 2.0, "ll", parity),
    )


def piezo_matrix_rep(parts: PiezoParts) -> Tensor2:
    """Traceless pseudo-matrix equivalent to the mixed part."""
    return parts.b_mat


def piezo_n_from_matrix(b_mat: Tensor2) -> Tensor3:
    """Invert the matrix representation of the pair-symmetric mixed part."""
    return Tensor3(from_matrix(b_mat.components, _PIEZO_WEIGHTS), "upper", parity=0)


def piezo_parts_from_matrix(parts: PiezoParts) -> tuple[Tensor3, Tensor3]:
    """Trace and traceless mixed pieces rebuilt from the matrix halves.

    The skew half carries the trace vector and rebuilds the trace piece; the
    symmetric half rebuilds the traceless piece.
    """
    g_inv = parts.metric.g_inv

    def rebuild(half: Tensor2) -> Tensor3:
        return Tensor3(from_matrix(half.components @ g_inv, _PIEZO_WEIGHTS), "upper", parity=0)

    return rebuild(parts.b_skew), rebuild(parts.b_sym)


@dataclass(frozen=True)
class HallParts:
    a: Tensor3
    n: Tensor3
    m_part: Tensor3
    p_part: Tensor3
    a_scalar: float
    v_vec: Vector3
    a_check: Tensor2
    a_sym: Tensor2
    a_skew: Tensor2
    metric: Metric


def hall_decompose(h: HallTensor, metric: Metric = EUCLIDEAN) -> HallParts:
    """Unique decomposition of a pair-antisymmetric tensor, 9 = 1 + (3 + 5).

    The fully antisymmetric part is one pseudo-scalar; the mixed part splits
    around the single trace covector into a trace piece and a traceless one.
    Lower indices contract with the inverse metric, so the metric and its
    inverse trade places in the trace part.
    """
    t = h.tensor
    x = t.components
    a, n, m, p, n_traces = parts.evaluate(
        ("hall_a", "hall_n", "hall_m", "hall_p", "hall_n_traces"), x, metric
    )
    a_check, a_sym, a_skew = _hall_matrix(n, t.parity, metric)

    def tensor(components):
        return Tensor3(components, "lower", t.parity)

    return HallParts(
        a=tensor(a),
        n=tensor(n),
        m_part=tensor(m),
        p_part=tensor(p),
        a_scalar=pseudo_scalar_of(x),
        v_vec=Vector3(n_traces[1], "lower", t.parity),
        a_check=a_check,
        a_sym=a_sym,
        a_skew=a_skew,
        metric=metric,
    )


def _hall_matrix(n: np.ndarray, parity: int, metric: Metric) -> tuple[Tensor2, Tensor2, Tensor2]:
    parity = (parity + 1) % 2
    raw = contraction(n, "a")
    raised = raw @ metric.g_inv
    return (
        Tensor2(raw, "ul", parity),
        Tensor2((raised + raised.T) / 2.0, "uu", parity),
        Tensor2((raised - raised.T) / 2.0, "uu", parity),
    )


def hall_matrix_rep(parts: HallParts) -> Tensor2:
    """Traceless pseudo-matrix equivalent to the mixed part."""
    return parts.a_check


def hall_n_from_matrix(a_check: Tensor2) -> Tensor3:
    """Invert the matrix representation of the pair-antisymmetric mixed part."""
    components = from_matrix(a_check.components, HALL_RECONSTRUCTION_COEFFS)
    return Tensor3(components, "lower", parity=0)


def hall_parts_from_matrix(parts: HallParts) -> tuple[Tensor3, Tensor3]:
    """Trace and traceless mixed pieces rebuilt from the matrix halves."""
    g = parts.metric.g

    def rebuild(half: Tensor2) -> Tensor3:
        return Tensor3(from_matrix(half.components @ g, HALL_MATRIX_WEIGHTS), "lower", parity=0)

    return rebuild(parts.a_skew), rebuild(parts.a_sym)
