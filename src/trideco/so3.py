"""Finest decomposition layer, combining the metric and the volume element.

Lowering the two matrices of the mixed part and splitting each into
symmetric and skew pieces turns the mixed part into two symmetric traceless
matrices plus two vectors.  Together with the trace vector and traceless
remainder of the symmetric part and the pseudo-scalar, this is the complete
representation of a generic third-order tensor; ``reassemble`` inverts it
exactly.

The vectors and the remainder carry the tensor's parity and the matrices the
other one, since they come from one contraction with the alternating symbol
(``sl3``): a proper tensor has pseudo-matrices and proper vectors, a
pseudo-tensor proper matrices and pseudo-vectors.  ``reassemble`` returns
the parity of the remainder.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import parts, sl3
from .sl3 import EPSILON, Sl3Parts
from .tensor import (
    EUCLIDEAN,
    Metric,
    Tensor2,
    Tensor3,
    TensorError,
    VarianceError,
    Vector3,
    max_abs,
)

# Skew matrix parts written back in terms of the trace vectors.
FIRST_SKEW_COEFF = -0.75
SECOND_SKEW_COEFF = 0.75

# Proportionality constants between the axial vectors of the skew matrix
# parts and the trace vectors of the mixed components: contracting
# eps . vector with eps gives twice the vector.  The oracle's
# first_skew_from_trace and second_skew_from_trace solves check the skew
# coefficients in the self-check; the tests also run them on a second metric.
AXIAL_FROM_FIRST_TRACE = 2 * FIRST_SKEW_COEFF
AXIAL_FROM_SECOND_TRACE = 2 * SECOND_SKEW_COEFF


@dataclass(frozen=True)
class So3Parts:
    """Symmetric traceless matrices and vectors of the mixed part; the
    vectors have the tensor's parity, the matrices the other one."""

    e_mat: Tensor2
    f_mat: Tensor2
    beta_vec: Vector3
    gamma_vec: Vector3


def so3_split(parts: Sl3Parts, metric: Metric = EUCLIDEAN) -> So3Parts:
    """Lower the mixed-part matrices and separate symmetric and skew pieces.

    The skew pieces are equivalent to vectors through the alternating symbol;
    those axial vectors are fixed multiples of the trace vectors of the two
    mixed components, so the returned vectors are the trace vectors
    themselves.
    """
    matrix_parity = parts.b_check.parity
    vector_parity = (matrix_parity + 1) % 2
    b_sym, b_skew = sl3.halves(parts.b_check.components, metric.g)
    c_sym, c_skew = sl3.halves(parts.c_check.components, metric.g)
    return So3Parts(
        e_mat=Tensor2(b_sym, "ll", matrix_parity),
        f_mat=Tensor2(c_sym, "ll", matrix_parity),
        beta_vec=Vector3(sl3.axial(b_skew) / AXIAL_FROM_FIRST_TRACE, "upper", vector_parity),
        gamma_vec=Vector3(sl3.axial(c_skew) / AXIAL_FROM_SECOND_TRACE, "upper", vector_parity),
    )


@dataclass(frozen=True)
class So3Representation:
    """Complete finest-level representation of one tensor.

    The symmetric part is ``(alpha, r_part)``, the antisymmetric part is the
    single pseudo-scalar, and each mixed component is a (matrix, vector)
    pair.  The matrices have the other parity than the remaining fields,
    which share one.
    """

    alpha: Vector3
    r_part: Tensor3
    a_scalar: float
    e_mat: Tensor2
    beta_vec: Vector3
    f_mat: Tensor2
    gamma_vec: Vector3

    def __post_init__(self):
        # one contraction with the alternating symbol flips the matrices' parity
        parities = {v.parity for v in (self.alpha, self.r_part, self.beta_vec, self.gamma_vec)}
        parities |= {(m.parity + 1) % 2 for m in (self.e_mat, self.f_mat)}
        if len(parities) != 1:
            raise TensorError("alpha, r_part and the vectors must share one parity, "
                              "and the matrices must have the other")


def so3_representation(t: Tensor3, metric: Metric = EUCLIDEAN) -> So3Representation:
    # the traceless contraction matrices of t are those of its mixed part
    contractions = sl3.epsilon_contractions(t)
    split = so3_split(contractions, metric)
    x = t.components
    (s_traces,) = parts.apply(("symmetric_traces",), x, metric)
    (r_part,) = parts.apply(("r_part",), x, metric)
    return So3Representation(
        alpha=Vector3(s_traces[0], "upper", t.parity),
        r_part=Tensor3(r_part, "upper", t.parity),
        a_scalar=contractions.a_scalar,
        e_mat=split.e_mat,
        beta_vec=split.beta_vec,
        f_mat=split.f_mat,
        gamma_vec=split.gamma_vec,
    )


def _mixed_matrix(sym_low: Tensor2, skew_coeff: float, vec: Vector3,
                  metric: Metric) -> Tensor2:
    low = sym_low.components + skew_coeff * sl3.from_axial(vec.components)
    return Tensor2(low @ metric.g_inv, "lu", sym_low.parity)


def first_component_from(e_mat: Tensor2, beta_vec: Vector3,
                         metric: Metric = EUCLIDEAN, *, scale: float = 0.0) -> Tensor3:
    """Rebuild the slots-1,2-symmetric mixed component from (matrix, vector);
    ``scale`` as in ``sl3.reconstruct_n1``."""
    mat = _mixed_matrix(e_mat, FIRST_SKEW_COEFF, beta_vec, metric)
    return sl3.reconstruct_n1(mat, scale=scale)


def second_component_from(f_mat: Tensor2, gamma_vec: Vector3,
                          metric: Metric = EUCLIDEAN, *, scale: float = 0.0) -> Tensor3:
    """Rebuild the slots-1,3-symmetric mixed component from (matrix, vector);
    ``scale`` as in ``sl3.reconstruct_n1``."""
    mat = _mixed_matrix(f_mat, SECOND_SKEW_COEFF, gamma_vec, metric)
    return sl3.reconstruct_n2(mat, scale=scale)


def reassemble(rep: So3Representation, metric: Metric = EUCLIDEAN) -> Tensor3:
    """Invert ``so3_representation``; exact up to rounding."""
    if rep.r_part.variance != "upper":
        raise VarianceError("reassemble expects an upper-variance r_part")
    # a fully symmetric tensor has the same trace alpha over every pair
    k = parts.from_traces(np.broadcast_to(rep.alpha.components, (3, 3)), metric.g_inv)
    rest = k + rep.r_part.components + rep.a_scalar * EPSILON
    # the mixed matrices carry rounding of the whole tensor's size, so their
    # traces are judged against the rest of it too
    scale = max_abs(rest)
    n1 = first_component_from(rep.e_mat, rep.beta_vec, metric, scale=scale)
    n2 = second_component_from(rep.f_mat, rep.gamma_vec, metric, scale=scale)
    return Tensor3(rest + n1.components + n2.components, "upper", rep.r_part.parity)
