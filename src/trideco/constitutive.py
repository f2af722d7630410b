"""Decompositions of pair-symmetric and pair-antisymmetric third-order tensors.

A tensor symmetric in its last two slots (the piezoelectric shape, 18
components) has no fully antisymmetric part and its mixed part cannot be
split further: the decomposition is unique.  A tensor antisymmetric in its
first two slots (the Hall shape, 9 components) has no fully symmetric part
and likewise decomposes uniquely.  Both mixed parts are equivalent to a
single traceless 3x3 matrix whose symmetric and skew halves, once
``sl3.halves`` has lowered (piezo) or raised (Hall) one slot, carry the
traceless and the trace piece; one private helper builds the matrix and its
halves for both shapes, one rebuilds the pieces from the halves, and one
checks and projects an ingested tensor.  The matrix has the other parity
than the tensor, since one contraction with the alternating symbol flips it
(``sl3``), and every inverse map takes the tensor's parity back from the
matrix with ``sl3.rebuild``.  The reconstruction weights below are
solver-verified (FORMULA_NOTES.txt).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from . import parts
from .sl3 import contraction, halves, pseudo_scalars, rebuild
from .symmetrizers import defects
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


def _ingest(t: Tensor3, variance: str, symmetry: str, project, what: str) -> Tensor3:
    """``t`` projected by ``project`` onto the slice of the named symmetry of
    ``symmetrizers.SYMMETRIES``.

    The asymmetry, the symmetry's defect, is judged against the tensor's own
    size, so a tiny generic tensor is not taken for a slightly noisy slice;
    the warning points at the code that built the tensor, past
    ``__post_init__`` and the dataclass's generated ``__init__``.
    """
    if t.variance != variance:
        raise VarianceError(f"{what}s use {variance} variance")
    c = t.components
    (asymmetry,) = defects((symmetry,), c)
    scale = max_abs(c)
    if not asymmetry <= INGEST_TOL * scale:
        raise SymmetryError(
            f"{what}: relative asymmetry {asymmetry / scale:.3e} exceeds {INGEST_TOL:.0e}"
        )
    if not asymmetry <= INGEST_SILENT * scale:
        warnings.warn(f"{what}: symmetrized away asymmetry {asymmetry:.3e}",
                      stacklevel=4)
    return Tensor3(project(c), variance, t.parity)


@dataclass(frozen=True)
class PiezoTensor:
    """Upper-variance tensor symmetric in its last two slots.

    Small ingestion noise (relative asymmetry up to 1e-9) is symmetrized away
    with a warning; anything larger is an error.
    """

    tensor: Tensor3

    def __post_init__(self):
        object.__setattr__(self, "tensor", _ingest(
            self.tensor, "upper", "pair-symmetric-jk", parts.pair_symmetric,
            "pair-symmetric tensor"))


@dataclass(frozen=True)
class HallTensor:
    """Lower-variance tensor antisymmetric in its first two slots."""

    tensor: Tensor3

    def __post_init__(self):
        object.__setattr__(self, "tensor", _ingest(
            self.tensor, "lower", "pair-antisymmetric-ij", parts.pair_antisymmetric,
            "pair-antisymmetric tensor"))


def _matrix(n: np.ndarray, which: str, m: np.ndarray, variances: tuple[str, str],
            parity: int) -> tuple[Tensor2, Tensor2, Tensor2]:
    """The ``which`` matrix of the mixed part ``n`` and the symmetric and
    skew halves of it with its second slot moved by ``m``; ``variances`` tags
    the matrix and the halves."""
    parity = (parity + 1) % 2
    raw = contraction(n, which)
    return (Tensor2(raw, variances[0], parity),
            *(Tensor2(half, variances[1], parity) for half in halves(raw, m)))


def _from_halves(pair: tuple[Tensor2, Tensor2], m: np.ndarray,
                 weights: tuple[float, float, float], variance: str) -> tuple[Tensor3, Tensor3]:
    """Each half of ``pair`` with ``m`` moving its second slot back, rebuilt
    as a tensor by ``weights``."""
    return tuple(rebuild(half.components @ m, half.parity, weights, variance) for half in pair)


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
    ``o3``.  Every part is one product with the compiled operators of
    ``parts.PARTS``, the same matrices the reports apply.
    """
    t = d.tensor
    x = t.components
    arrays = parts.apply(
        ("piezo_s", "piezo_n", "piezo_k", "piezo_r", "piezo_m", "piezo_p"), x, metric
    )
    s_traces, n_traces = parts.apply(("symmetric_traces", "piezo_n_traces"), x, metric)
    beta, _ = parts.plain_trace_vectors(n_traces)
    return PiezoParts(
        *(Tensor3(part, "upper", t.parity) for part in arrays),
        *(Vector3(v, "upper", t.parity) for v in (s_traces[0], beta)),
        *_matrix(arrays[1], "b", metric.g, ("lu", "ll"), t.parity),
        metric=metric,
    )


def piezo_matrix_rep(parts: PiezoParts) -> Tensor2:
    """Traceless matrix equivalent to the mixed part, of the other parity."""
    return parts.b_mat


def piezo_n_from_matrix(b_mat: Tensor2) -> Tensor3:
    """Invert the matrix representation of the pair-symmetric mixed part."""
    return rebuild(b_mat.components, b_mat.parity, _PIEZO_WEIGHTS)


def piezo_parts_from_matrix(parts: PiezoParts) -> tuple[Tensor3, Tensor3]:
    """Trace and traceless mixed pieces rebuilt from the matrix halves.

    The skew half carries the trace vector and rebuilds the trace piece; the
    symmetric half rebuilds the traceless piece.
    """
    return _from_halves((parts.b_skew, parts.b_sym), parts.metric.g_inv, _PIEZO_WEIGHTS, "upper")


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
    a, n, m, p = parts.apply(("hall_a", "hall_n", "hall_m", "hall_p"), x, metric)
    (n_traces,) = parts.apply(("hall_n_traces",), x, metric)
    a_check, a_sym, a_skew = _matrix(n, "a", metric.g_inv, ("ul", "uu"), t.parity)

    def tensor(components):
        return Tensor3(components, "lower", t.parity)

    return HallParts(
        a=tensor(a),
        n=tensor(n),
        m_part=tensor(m),
        p_part=tensor(p),
        a_scalar=float(pseudo_scalars(x)),
        v_vec=Vector3(n_traces[1], "lower", t.parity),
        a_check=a_check,
        a_sym=a_sym,
        a_skew=a_skew,
        metric=metric,
    )


def hall_matrix_rep(parts: HallParts) -> Tensor2:
    """Traceless matrix equivalent to the mixed part, of the other parity."""
    return parts.a_check


def hall_n_from_matrix(a_check: Tensor2) -> Tensor3:
    """Invert the matrix representation of the pair-antisymmetric mixed part."""
    return rebuild(a_check.components, a_check.parity, HALL_RECONSTRUCTION_COEFFS, "lower")


def hall_parts_from_matrix(parts: HallParts) -> tuple[Tensor3, Tensor3]:
    """Trace and traceless mixed pieces rebuilt from the matrix halves.

    Each half, moved back by the metric, is traceless like the matrix, so
    the weights of ``hall_n_from_matrix`` rebuild it.
    """
    return _from_halves((parts.a_skew, parts.a_sym), parts.metric.g,
                        HALL_RECONSTRUCTION_COEFFS, "lower")
