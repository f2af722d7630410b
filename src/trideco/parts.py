"""Every invariant part, written once as a closed form on plain arrays.

``PARTS`` maps each part name to the dimension of its subspace and its form
``form(x, metric)``.  ``x`` holds components of shape ``(..., 3, 3, 3)``;
leading axes are a batch.  Each form is linear in ``x``, takes the metric
verbatim and returns a new array of the same shape.  The public functions of
``gl3``, ``o3``, ``so3`` and ``constitutive``, the report and the oracle's
operator matrices all evaluate these forms; the oracle's least-squares
solves never do.

The pair-symmetric (piezo) and pair-antisymmetric (Hall) parts are the
generic ones restricted to their slice.  Hall tensors carry lower indices,
so their traces contract with the inverse metric and their pure-trace
pieces are built from the metric itself.
"""

from __future__ import annotations

from typing import Callable, NamedTuple

import numpy as np

from .symmetrizers import FULL_ANTISYMMETRIZER, FULL_SYMMETRIZER, MIXED_PAIRS
from .tensor import Metric

#: einsum subscripts of the contraction over each slot pair
_TRACE = {(0, 1): "ij,...ijk->...k", (0, 2): "ij,...ikj->...k", (1, 2): "ij,...kij->...k"}
#: einsum subscripts placing a vector in one slot and a matrix on the other two
_PURE = ("...i,jk->...ijk", "...j,ik->...ijk", "...k,ij->...ijk")


def trace(x: np.ndarray, m: np.ndarray, pair: tuple[int, int]) -> np.ndarray:
    """Contract the slot pair ``pair`` of ``x`` with the matrix ``m``."""
    return np.einsum(_TRACE[pair], m, x)


def pure_trace(v: np.ndarray, m: np.ndarray, slot: int) -> np.ndarray:
    """The tensor holding ``v`` in slot ``slot`` and ``m`` on the other two."""
    return np.einsum(_PURE[slot], v, m)


def trace_vectors(x: np.ndarray, m: np.ndarray):
    """The traces over slot pairs (1,2), (1,3) and (2,3)."""
    return trace(x, m, (0, 1)), trace(x, m, (0, 2)), trace(x, m, (1, 2))


def symmetric(x: np.ndarray) -> np.ndarray:
    return FULL_SYMMETRIZER.on_components(x) / 6.0


def antisymmetric(x: np.ndarray) -> np.ndarray:
    return FULL_ANTISYMMETRIZER.on_components(x) / 6.0


def residue(x: np.ndarray) -> np.ndarray:
    return x - symmetric(x) - antisymmetric(x)


def mixed(x: np.ndarray, family: str, member: int) -> np.ndarray:
    """Member 0 or 1 of the named mixed-part pair."""
    return MIXED_PAIRS[family][member].on_components(x) / 3.0


def pair_symmetric(x: np.ndarray) -> np.ndarray:
    """Projection onto tensors symmetric in slots 2,3."""
    return (x + np.swapaxes(x, -1, -2)) / 2.0


def pair_antisymmetric(x: np.ndarray) -> np.ndarray:
    """Projection onto tensors antisymmetric in slots 1,2."""
    return (x - np.swapaxes(x, -3, -2)) / 2.0


def symmetric_trace_part(alpha: np.ndarray, g_inv: np.ndarray) -> np.ndarray:
    """Trace part of a fully symmetric tensor with trace vector ``alpha``.

    The 1/5 weight is exactly what makes the remainder traceless.
    """
    return (
        pure_trace(alpha, g_inv, 0) + pure_trace(alpha, g_inv, 1) + pure_trace(alpha, g_inv, 2)
    ) / 5.0


def mixed_trace_part(u, v, w, g_inv: np.ndarray) -> np.ndarray:
    """Trace part of a mixed-symmetry tensor with trace vectors ``u, v, w``."""
    return (
        pure_trace(2 * u - v - w, g_inv, 2)
        + pure_trace(2 * w - u - v, g_inv, 0)
        + pure_trace(2 * v - u - w, g_inv, 1)
    ) / 6.0


def first_trace_part(n1: np.ndarray, g: np.ndarray, g_inv: np.ndarray) -> np.ndarray:
    """Trace part of a slots-1,2-symmetric plain-family component."""
    beta = trace(n1, g, (0, 1))
    return (2 * pure_trace(beta, g_inv, 2) - pure_trace(beta, g_inv, 0)
            - pure_trace(beta, g_inv, 1)) / 4.0


def second_trace_part(n2: np.ndarray, g: np.ndarray, g_inv: np.ndarray) -> np.ndarray:
    """Trace part of a slots-1,3-symmetric plain-family component."""
    gamma = trace(n2, g, (0, 2))
    return (2 * pure_trace(gamma, g_inv, 1) - pure_trace(gamma, g_inv, 0)
            - pure_trace(gamma, g_inv, 2)) / 4.0


class Part(NamedTuple):
    """A part's subspace dimension and its closed form ``form(x, metric)``."""

    dim: int
    form: Callable[[np.ndarray, Metric], np.ndarray]


def _split(names, dims, project, trace_part) -> dict[str, Part]:
    """The trace piece of ``project(x)`` and its traceless rest.

    ``trace_part(y, g, g_inv)`` returns the trace piece of ``y``.
    """

    def trace_form(x, metric):
        return trace_part(project(x), metric.g, metric.g_inv)

    def rest_form(x, metric):
        y = project(x)
        return y - trace_part(y, metric.g, metric.g_inv)

    return {names[0]: Part(dims[0], trace_form), names[1]: Part(dims[1], rest_form)}


def _symmetric_trace(s, g, g_inv):
    return symmetric_trace_part(trace(s, g, (0, 1)), g_inv)


def _mixed_trace(n, g, g_inv):
    return mixed_trace_part(*trace_vectors(n, g), g_inv)


def _lower_mixed_trace(n, g, g_inv):
    return _mixed_trace(n, g_inv, g)


def piezo_symmetric(x: np.ndarray) -> np.ndarray:
    return symmetric(pair_symmetric(x))


def piezo_mixed(x: np.ndarray) -> np.ndarray:
    t = pair_symmetric(x)
    return t - symmetric(t)


def hall_mixed(x: np.ndarray) -> np.ndarray:
    t = pair_antisymmetric(x)
    return t - antisymmetric(t)


#: every part by name, in ledger order: subspace dimension and closed form
PARTS: dict[str, Part] = {
    "identity": Part(27, lambda x, metric: x),
    "symmetric": Part(10, lambda x, metric: symmetric(x)),
    "antisymmetric": Part(1, lambda x, metric: antisymmetric(x)),
    "residue": Part(16, lambda x, metric: residue(x)),
    **{
        f"n{member + 1}_{family}": Part(
            8, lambda x, metric, f=family, i=member: mixed(x, f, i)
        )
        for family in MIXED_PAIRS
        for member in (0, 1)
    },
    **_split(("k_part", "r_part"), (3, 7), symmetric, _symmetric_trace),
    **_split(("m_part", "p_part"), (6, 10), residue, _mixed_trace),
    **_split(("m1_part", "p1_part"), (3, 5), lambda x: mixed(x, "plain", 0), first_trace_part),
    **_split(("m2_part", "p2_part"), (3, 5), lambda x: mixed(x, "plain", 1), second_trace_part),
    "piezo_s": Part(10, lambda x, metric: piezo_symmetric(x)),
    "piezo_n": Part(8, lambda x, metric: piezo_mixed(x)),
    **_split(("piezo_k", "piezo_r"), (3, 7), piezo_symmetric, _symmetric_trace),
    **_split(("piezo_m", "piezo_p"), (3, 5), piezo_mixed, _mixed_trace),
    "hall_a": Part(1, lambda x, metric: antisymmetric(pair_antisymmetric(x))),
    "hall_n": Part(8, lambda x, metric: hall_mixed(x)),
    **_split(("hall_m", "hall_p"), (3, 5), hall_mixed, _lower_mixed_trace),
}
