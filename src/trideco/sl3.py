"""Volume-element layer: alternating contractions and matrix representations.

The fully antisymmetric part of a tensor is one pseudo-scalar; the mixed part
is equivalent to a pair of traceless 3x3 matrices obtained by contracting two
slots with the alternating symbol.  The inverse maps ship with
solver-verified coefficients; see FORMULA_NOTES.txt at the repository root for
the cross-check record.

The alternating symbol is a pseudo-tensor, so each contraction with it flips
parity: the matrices of a proper tensor are pseudo-matrices, those of a
pseudo-tensor are proper, and the tensor rebuilt from a matrix has the other
parity than the matrix.  That is the whole tag rule of this layer, and of
``so3`` and ``constitutive`` above it; every tag is read from the input.

The kernels ``contraction``, ``from_matrix``, ``axial`` and ``from_axial``
hold the library's contractions with the alternating symbol, and ``halves``
its one split of a matrix into symmetric and skew halves; ``so3`` and
``constitutive`` call them with their own weights and matrices.  ``rebuild``
is the one constructor of a tensor from a matrix, and applies the rule.

Each invariant of this layer is written once, on arrays with leading batch
axes: ``pseudo_scalars`` and ``traceless_contractions``, the a, b and c
matrices less twice the pseudo-scalar times the identity, which
``epsilon_contractions`` shares.  The part table (``parts``) holds both as
rules, so the so3 forward map reads their compiled matrices.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .permutations import S3
from .tensor import SPLIT_TOL, Tensor2, Tensor3, VarianceError, require_upper


def _build_epsilon() -> np.ndarray:
    eps = np.zeros((3, 3, 3))
    for perm in S3:
        eps[perm.images] = perm.sign
    eps.setflags(write=False)
    return eps


#: alternating symbol; the same numerical entries serve both index positions
EPSILON = _build_epsilon()

#: weight of the per-branch matrix-to-tensor reconstruction, fixed by the
#: defining contractions (a hand derivation circulates with -1/2; the solver
#: value is -1/3, see FORMULA_NOTES.txt)
RECONSTRUCTION_COEFF = -1.0 / 3.0
#: ``from_matrix`` weights rebuilding the slots-1,2- and the slots-1,3-symmetric
#: mixed component from its matrix
N1_WEIGHTS = (RECONSTRUCTION_COEFF, RECONSTRUCTION_COEFF, 0.0)
N2_WEIGHTS = (RECONSTRUCTION_COEFF, 0.0, RECONSTRUCTION_COEFF)

#: einsum subscripts contracting two slots of ``x`` with the alternating
#: symbol, leaving one slot of each: the ``a``, ``b`` and ``c`` matrices
_CONTRACTION = {"a": "ijk,...mjk->...im", "b": "ijk,...kmj->...im", "c": "ijk,...jkm->...im"}
#: einsum subscripts of the three terms rebuilding a tensor from a matrix
_FROM_MATRIX = ("...pk,pmj->...kmj", "...pm,pkj->...kmj", "...pj,pmk->...kmj")


def contraction(x: np.ndarray, which: str) -> np.ndarray:
    """The ``which`` (``"a"``, ``"b"`` or ``"c"``) contraction of ``x`` with
    the alternating symbol, a matrix."""
    return np.einsum(_CONTRACTION[which], EPSILON, x)


def from_matrix(mat: np.ndarray, weights: tuple[float, float, float]) -> np.ndarray:
    """The tensor ``sum(w * einsum(term, mat, EPSILON))`` over the three
    matrix-to-tensor terms; zero weights are skipped."""
    return sum(
        w * np.einsum(term, mat, EPSILON) for term, w in zip(_FROM_MATRIX, weights) if w
    )


def rebuild(mat: np.ndarray, parity: int, weights: tuple[float, float, float],
            variance: str = "upper") -> Tensor3:
    """The tensor ``from_matrix(mat, weights)`` of a matrix of the given
    ``parity``, tagged ``variance``.  It has the other parity: one
    contraction with the alternating symbol flips it."""
    return Tensor3(from_matrix(mat, weights), variance, (parity + 1) % 2)


def axial(skew: np.ndarray) -> np.ndarray:
    """The vector ``eps_ijk skew_ij`` of a (skew) matrix."""
    return np.einsum("ijk,...ij->...k", EPSILON, skew)


def from_axial(v: np.ndarray) -> np.ndarray:
    """The skew matrix ``eps_imj v_j``; ``axial(from_axial(v))`` is ``2 v``."""
    return np.einsum("imj,...j->...im", EPSILON, v)


def halves(mat: np.ndarray, m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The symmetric and skew halves of ``mat @ m``, whose second slot ``m``
    lowers or raises; leading axes are batch axes."""
    moved = mat @ m
    swapped = np.swapaxes(moved, -1, -2)
    return (moved + swapped) / 2.0, (moved - swapped) / 2.0


def epsilon_tensor(variance: str = "upper") -> Tensor3:
    return Tensor3(EPSILON, variance, parity=1)


def pseudo_scalar(t: Tensor3) -> float:
    """Full contraction with the alternating symbol, normalized to 1 on it."""
    require_upper(t, "pseudo_scalar")
    return float(pseudo_scalars(t.components))


def pseudo_scalars(x: np.ndarray) -> np.ndarray:
    """The pseudo-scalar of each tensor of ``x``; leading axes are batch axes,
    and the alternating symbol's entries are the same for either variance."""
    return np.einsum("ijk,...ijk->...", EPSILON, x) / 6.0


def _contractions(x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The pseudo-scalars of ``x``, its a, b and c contraction matrices,
    stacked as ``(..., 3, 3, 3)``, and their traceless forms: each less
    twice the pseudo-scalar times the identity."""
    a_scalars = pseudo_scalars(x)
    raw = np.stack([contraction(x, key) for key in _CONTRACTION], axis=-3)
    return a_scalars, raw, raw - 2.0 * a_scalars[..., None, None, None] * np.eye(3)


def traceless_contractions(x: np.ndarray) -> np.ndarray:
    """The traceless a, b and c matrices of ``epsilon_contractions``, stacked
    as ``(..., 3, 3, 3)``; leading axes are batch axes."""
    return _contractions(x)[2]


@dataclass(frozen=True)
class Sl3Parts:
    """The pseudo-scalar and the three two-slot contractions of one tensor.

    The raw matrices share the trace ``6 * a_scalar``; subtracting
    ``2 * a_scalar * I`` yields the traceless forms, which sum to zero and
    depend only on the mixed-symmetry part of the input.
    """

    a_scalar: float
    a_mat: Tensor2
    b_mat: Tensor2
    c_mat: Tensor2
    a_check: Tensor2
    b_check: Tensor2
    c_check: Tensor2


def epsilon_contractions(t: Tensor3) -> Sl3Parts:
    require_upper(t, "epsilon_contractions")
    parity = (t.parity + 1) % 2
    a_scalar, raw, checks = _contractions(t.components)
    return Sl3Parts(float(a_scalar),
                    *(Tensor2(value, "lu", parity) for value in (*raw, *checks)))


def require_traceless(mats: np.ndarray, what: str, scale: float) -> None:
    """Raise ``VarianceError`` unless the trace of each mixed matrix in
    ``mats``, ``(..., 3, 3)``, is within ``tensor.SPLIT_TOL`` times the
    larger of its max-abs entry and ``scale``; a NaN trace fails."""
    traces = np.abs(np.trace(mats, axis1=-2, axis2=-1))
    if not (traces <= SPLIT_TOL * np.maximum(scale, np.abs(mats).max(axis=(-2, -1)))).all():
        raise VarianceError(f"{what} expects a traceless matrix")


def _require_traceless(mat: Tensor2, what: str, scale: float) -> None:
    if mat.variance != "lu":
        raise VarianceError(f"{what} expects a mixed (lower, upper) matrix")
    require_traceless(mat.components, what, scale)


def reconstruct_n1(b_check: Tensor2, *, scale: float = 0.0) -> Tensor3:
    """Rebuild the slots-1,2-symmetric mixed component from its matrix.

    The trace must be within ``tensor.SPLIT_TOL`` times the larger of the
    matrix's own size and ``scale``.  A matrix computed from a tensor
    carries rounding of that tensor's size in its trace, so a caller passes
    the tensor's size as ``scale``; when the mixed part is small next to
    the tensor, the matrix alone is too small to judge that rounding by.
    """
    _require_traceless(b_check, "reconstruct_n1", scale)
    return rebuild(b_check.components, b_check.parity, N1_WEIGHTS)


def reconstruct_n2(c_check: Tensor2, *, scale: float = 0.0) -> Tensor3:
    """Rebuild the slots-1,3-symmetric mixed component from its matrix;
    the trace check and ``scale`` as in ``reconstruct_n1``."""
    _require_traceless(c_check, "reconstruct_n2", scale)
    return rebuild(c_check.components, c_check.parity, N2_WEIGHTS)


def reconstruct_n(b_check: Tensor2, c_check: Tensor2, *, scale: float = 0.0) -> Tensor3:
    """Rebuild the full mixed-symmetry part from its two matrices.

    Round trip: feeding the ``b_check``/``c_check`` of a tensor back through
    this map, with the tensor's ``max_abs()`` as ``scale``, returns that
    tensor's mixed-symmetry part.
    """
    return reconstruct_n1(b_check, scale=scale) + reconstruct_n2(c_check, scale=scale)
