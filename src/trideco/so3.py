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

Both maps are linear, so each is compiled once per metric into one
read-only matrix on flattened values, kept by ``Metric.compiled`` under
``"so3 forward"`` and ``"so3 reassembly"``.  The forward matrix is 27x55;
its columns are the 55 numbers of a representation, in field order: alpha
3, r_part 27, a_scalar 1, e_mat 9, beta 3, f_mat 9 and gamma 3.  The
reassembly matrix is its 55x27 inverse, and their product is the identity
to within 1e-15.  ``so3_representation`` is one product and a finiteness
check; ``reassemble`` is one product, taken in two slices so that the
traces of the mixed matrices are judged against the rest of the tensor as
``sl3.reconstruct_n1`` judges them, and against the rounding that raising
them with ``g_inv`` leaves, which an anisotropic metric makes far larger
than the matrices.

Each map is written once, as array functions with leading batch axes:
``_split`` lowers the traceless b and c matrices and splits them into
symmetric halves and vectors, and ``_lowered`` writes a (matrix, vector)
pair back as the lowered matrix ``sl3`` rebuilds a mixed component from.
``so3_split``, ``first_component_from`` and ``second_component_from`` apply
them to one tensor's values.  The forward matrix reads the compiled
operators of ``parts``: the trace vector through the metric's whitening,
and the pseudo-scalar and the traceless contraction matrices, which read
no metric, as they are; ``_split`` lowers their b and c rows with ``g``.
Its ``r_part`` columns are the table's ``r_part`` rule on those trace
vectors, the symmetric part less their pure-trace tensor, which is the
trace part ``reassemble`` rebuilds from alpha: the two round off alike,
and the round trip holds to about 1e-15 times the metric's condition
number.  The whitened ``r_part`` of ``parts.operator`` agrees with it to
within 1e-15 times the condition number of its size, but rounds off apart
from that trace part: the round trip through it is off by up to 0.8 on
unit data at condition 1e9.  The
reassembly matrix applies ``_lowered`` to the 55 unit representations:
each compile lowers the unit mixed-part inputs, raises them with
``g_inv`` and multiplies them by the mixed components rebuilt from the unit
matrices.  Nothing is compiled at import.
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
    require_upper,
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


#: the skew coefficients and axial constants of the first and the second
#: mixed component, shaped to stack the two along the axis before a matrix
_SKEW_COEFFS = np.array([FIRST_SKEW_COEFF, SECOND_SKEW_COEFF])[:, None, None]
_AXIAL = np.array([AXIAL_FROM_FIRST_TRACE, AXIAL_FROM_SECOND_TRACE])[:, None]

#: where each field sits among the compiled maps' 55 numbers, in field order:
#: alpha, r_part, a_scalar, e_mat, beta, f_mat and gamma
_SPANS = (slice(0, 3), slice(3, 30), slice(30, 31), slice(31, 40), slice(40, 43),
          slice(43, 52), slice(52, 55))
#: the numbers of the symmetric part and the pseudo-scalar, and those of the
#: mixed part
_REST, _MIXED = slice(0, 31), slice(31, 55)
#: the two mixed components' matrices and vectors among the 55 numbers
_MATRICES = np.r_[_SPANS[3], _SPANS[5]].reshape(2, 3, 3)
_VECTORS = np.r_[_SPANS[4], _SPANS[6]].reshape(2, 3)


def _split(checks: np.ndarray, g: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The symmetric halves of the traceless b and c matrices ``checks``,
    ``(..., 2, 3, 3)``, lowered with ``g``, and the trace vectors
    ``(..., 2, 3)`` that their skew halves are fixed multiples of."""
    sym, skew = sl3.halves(checks, g)
    return sym, sl3.axial(skew) / _AXIAL


def _lowered(sym: np.ndarray, coeff, vec: np.ndarray) -> np.ndarray:
    """The lowered matrix of a mixed component from its symmetric half and
    trace vector, the skew half written back with ``coeff``; raising its
    second slot with ``g_inv`` gives the matrix ``sl3`` rebuilds from."""
    return sym + coeff * sl3.from_axial(vec)


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
    checks = np.stack((parts.b_check.components, parts.c_check.components))
    (e_mat, f_mat), (beta, gamma) = _split(checks, metric.g)
    return So3Parts(
        e_mat=Tensor2(e_mat, "ll", matrix_parity),
        f_mat=Tensor2(f_mat, "ll", matrix_parity),
        beta_vec=Vector3(beta, "upper", vector_parity),
        gamma_vec=Vector3(gamma, "upper", vector_parity),
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


def _compile_forward(metric: Metric) -> np.ndarray:
    s_traces, symmetric, a_scalars, contractions = (parts.operator(name, metric) for name in (
        "symmetric_traces", "symmetric", "pseudo_scalar", "traceless_contractions"))
    # the r_part rule on the whitened traces: the symmetric part less the
    # trace part that reassemble rebuilds from alpha, so that the two round
    # off alike
    pure = parts.from_traces(s_traces.reshape(27, 3, 3), metric.g_inv)
    # the traceless b and c matrices of each basis tensor
    sym, vec = _split(contractions[:, 9:].reshape(27, 2, 3, 3), metric.g)
    return np.concatenate([
        s_traces[:, :3],
        symmetric - pure.reshape(27, 27),
        a_scalars,
        sym[:, 0].reshape(27, 9), vec[:, 0], sym[:, 1].reshape(27, 9), vec[:, 1],
    ], axis=1)


def _compile_reassembly(metric: Metric) -> np.ndarray:
    # a fully symmetric tensor has the same trace alpha over every pair
    pure_traces = parts.from_traces(np.broadcast_to(np.eye(3)[:, None, :], (3, 3, 3)),
                                    metric.g_inv)
    # the lowered matrices of the 24 unit mixed-part inputs (e_mat, beta,
    # f_mat and gamma, stacked over the two components), and the first and
    # second mixed components rebuilt from the 9 unit matrices
    units = np.eye(9).reshape(9, 3, 3)
    sym, vec = np.zeros((24, 2, 3, 3)), np.zeros((24, 2, 3))
    sym[:9, 0], vec[9:12, 0], sym[12:21, 1], vec[21:, 1] = units, np.eye(3), units, np.eye(3)
    rebuilt = np.concatenate([sl3.from_matrix(units, w).reshape(9, 27)
                              for w in (sl3.N1_WEIGHTS, sl3.N2_WEIGHTS)])
    mixed = (_lowered(sym, _SKEW_COEFFS, vec) @ metric.g_inv).reshape(24, 18) @ rebuilt
    return np.concatenate([pure_traces.reshape(3, 27), np.eye(27), EPSILON.reshape(1, 27),
                           mixed])


def so3_representation(t: Tensor3, metric: Metric = EUCLIDEAN) -> So3Representation:
    require_upper(t, "so3_representation")
    forward = metric.compiled("so3 forward", _compile_forward, metric)
    values = t.components.reshape(27) @ forward
    if not np.isfinite(values).all():
        raise TensorError("so3_representation overflows: a field is not finite")
    values.setflags(write=False)
    alpha, r_part, a_scalar, e_mat, beta, f_mat, gamma = (values[span] for span in _SPANS)
    # one contraction with the alternating symbol flips the matrices' parity
    parity, matrix_parity = t.parity, (t.parity + 1) % 2
    return So3Representation(
        alpha=Vector3._trusted(alpha, "upper", parity),
        r_part=Tensor3._trusted(r_part.reshape(3, 3, 3), "upper", parity),
        a_scalar=float(a_scalar[0]),
        e_mat=Tensor2._trusted(e_mat.reshape(3, 3), "ll", matrix_parity),
        beta_vec=Vector3._trusted(beta, "upper", parity),
        f_mat=Tensor2._trusted(f_mat.reshape(3, 3), "ll", matrix_parity),
        gamma_vec=Vector3._trusted(gamma, "upper", parity),
    )


def first_component_from(e_mat: Tensor2, beta_vec: Vector3,
                         metric: Metric = EUCLIDEAN, *, scale: float = 0.0) -> Tensor3:
    """Rebuild the slots-1,2-symmetric mixed component from (matrix, vector);
    ``scale`` as in ``sl3.reconstruct_n1``."""
    mat = _lowered(e_mat.components, FIRST_SKEW_COEFF, beta_vec.components) @ metric.g_inv
    return sl3.reconstruct_n1(Tensor2(mat, "lu", e_mat.parity), scale=scale)


def second_component_from(f_mat: Tensor2, gamma_vec: Vector3,
                          metric: Metric = EUCLIDEAN, *, scale: float = 0.0) -> Tensor3:
    """Rebuild the slots-1,3-symmetric mixed component from (matrix, vector);
    ``scale`` as in ``sl3.reconstruct_n1``."""
    mat = _lowered(f_mat.components, SECOND_SKEW_COEFF, gamma_vec.components) @ metric.g_inv
    return sl3.reconstruct_n2(Tensor2(mat, "lu", f_mat.parity), scale=scale)


def reassemble(rep: So3Representation, metric: Metric = EUCLIDEAN) -> Tensor3:
    """Invert ``so3_representation``; exact up to rounding.

    Each mixed matrix must be traceless against ``g_inv`` to within
    ``tensor.SPLIT_TOL``, as ``sl3.reconstruct_n1`` requires, with the
    larger of the rest of the tensor, its symmetric part and pseudo-scalar,
    and the entries of ``|lowered| @ |g_inv|``, whose rounding the trace
    carries, as ``scale``.
    """
    if rep.r_part.variance != "upper":
        raise VarianceError("reassemble expects an upper-variance r_part")
    values = np.concatenate([
        rep.alpha.components, rep.r_part.components.reshape(27), (rep.a_scalar,),
        rep.e_mat.components.reshape(9), rep.beta_vec.components,
        rep.f_mat.components.reshape(9), rep.gamma_vec.components,
    ])
    matrix = metric.compiled("so3 reassembly", _compile_reassembly, metric)
    rest = values[_REST] @ matrix[_REST]
    # the traces of the mixed matrices carry rounding of the whole tensor's
    # size and of |lowered| |g_inv|, which an anisotropic metric makes far
    # larger than the matrices themselves, so they are judged against both
    lowered = _lowered(values[_MATRICES], _SKEW_COEFFS, values[_VECTORS])
    sl3.require_traceless(lowered @ metric.g_inv, "reassemble",
                          max(max_abs(rest), max_abs(np.abs(lowered) @ np.abs(metric.g_inv))))
    mixed = values[_MIXED] @ matrix[_MIXED]
    return Tensor3((rest + mixed).reshape(3, 3, 3), "upper", rep.r_part.parity)
