"""Every invariant part, written once as a rule on the part it refines.

``PARTS`` maps each part name to the dimension of its subspace and a rule
that computes the part from the parts it refines: the symmetric part from
the input, the trace piece ``k_part`` from the symmetric part, the traceless
rest as ``r_part = symmetric - k_part``, the residue as ``x - s - a``, and
so on down the hierarchy.  ``evaluate(names, x, metric)`` computes any list
of parts of one ``x`` through a dictionary kept for that call, so each part
on the way, named or refined, is computed once; ``Part.form(x, metric)`` is
the same evaluation for one part.  ``x`` holds components of shape
``(..., 3, 3, 3)``; leading axes are a batch.  Each part is linear in ``x``,
takes the metric verbatim and is a new array of the same shape, except
``identity``, which is ``x`` itself, and the parts that equal another part,
which are that part's array.

One table serves every reader.  The reports, the oracle's operator matrices
and the public decompositions of ``gl3``, ``o3``, ``so3`` and
``constitutive`` all get their parts from one ``evaluate`` call; a public
function handed a part already split (``o3.s_trace_split`` and its
siblings) applies that part's rule to it.  The oracle's least-squares
solves never evaluate the rules, nor do the ``gl3`` projections they call.

The pair-symmetric (piezo) and pair-antisymmetric (Hall) shapes change only
the mixed part.  The full symmetrizer absorbs the slot swap, so ``piezo_s``,
``piezo_k``, ``piezo_r`` and ``hall_a`` are the generic ``symmetric``,
``k_part``, ``r_part`` and ``antisymmetric``; only ``piezo_n`` and
``hall_n`` refine their slice, which is itself a rule outside the ledger.
Hall tensors carry lower indices, so their traces contract with the inverse
metric and their pure-trace pieces are built from the metric itself.
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


def plain_trace_vectors(n: np.ndarray, m: np.ndarray):
    """The trace vectors ``(beta, gamma)`` of the two plain-family
    components of the mixed part ``n``, from its traces ``u, v, w``."""
    u, v, w = trace_vectors(n, m)
    return 2.0 / 3.0 * (u - w), 2.0 / 3.0 * (v - w)


def symmetric(x: np.ndarray) -> np.ndarray:
    return FULL_SYMMETRIZER.on_components(x) / 6.0


def antisymmetric(x: np.ndarray) -> np.ndarray:
    return FULL_ANTISYMMETRIZER.on_components(x) / 6.0


def residue(x: np.ndarray, s: np.ndarray, a: np.ndarray) -> np.ndarray:
    """What remains of ``x`` beyond its symmetric part ``s`` and its
    antisymmetric part ``a``."""
    return x - s - a


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


def _symmetric_trace(s, metric):
    return symmetric_trace_part(trace(s, metric.g, (0, 1)), metric.g_inv)


def _mixed_trace(n, metric):
    return mixed_trace_part(*trace_vectors(n, metric.g), metric.g_inv)


def _lower_mixed_trace(n, metric):
    return mixed_trace_part(*trace_vectors(n, metric.g_inv), metric.g)


def _rest(whole, piece, metric):
    return whole - piece


def _same(part, metric):
    return part


class Part(NamedTuple):
    """A part's subspace dimension and its rule on the parts it refines.

    ``rule(*refined, metric)`` takes the arrays of the parts named in
    ``refines``, in that order.
    """

    dim: int
    refines: tuple[str, ...]
    rule: Callable[..., np.ndarray]

    def form(self, x: np.ndarray, metric: Metric) -> np.ndarray:
        """The part of ``x``: its rule on the parts it refines."""
        return self.rule(*evaluate(self.refines, x, metric), metric)


#: every part by name, in ledger order
PARTS: dict[str, Part] = {
    # the input itself, which ``evaluate`` starts from
    "identity": Part(27, ("identity",), lambda x, metric: x),
    "symmetric": Part(10, ("identity",), lambda x, metric: symmetric(x)),
    "antisymmetric": Part(1, ("identity",), lambda x, metric: antisymmetric(x)),
    "residue": Part(
        16, ("identity", "symmetric", "antisymmetric"), lambda x, s, a, metric: residue(x, s, a)
    ),
    **{
        f"n{member + 1}_{family}": Part(
            8, ("identity",), lambda x, metric, f=family, i=member: mixed(x, f, i)
        )
        for family in MIXED_PAIRS
        for member in (0, 1)
    },
    "k_part": Part(3, ("symmetric",), _symmetric_trace),
    "r_part": Part(7, ("symmetric", "k_part"), _rest),
    "m_part": Part(6, ("residue",), _mixed_trace),
    "p_part": Part(10, ("residue", "m_part"), _rest),
    "m1_part": Part(
        3, ("n1_plain",), lambda n1, metric: first_trace_part(n1, metric.g, metric.g_inv)
    ),
    "p1_part": Part(5, ("n1_plain", "m1_part"), _rest),
    "m2_part": Part(
        3, ("n2_plain",), lambda n2, metric: second_trace_part(n2, metric.g, metric.g_inv)
    ),
    "p2_part": Part(5, ("n2_plain", "m2_part"), _rest),
    # P_sym P_pair = P_sym and P_anti P_pairanti = P_anti: the slices keep
    # the generic symmetric and antisymmetric parts
    "piezo_s": Part(10, ("symmetric",), _same),
    "piezo_n": Part(8, ("pair_symmetric", "piezo_s"), _rest),
    "piezo_k": Part(3, ("k_part",), _same),
    "piezo_r": Part(7, ("r_part",), _same),
    "piezo_m": Part(3, ("piezo_n",), _mixed_trace),
    "piezo_p": Part(5, ("piezo_n", "piezo_m"), _rest),
    "hall_a": Part(1, ("antisymmetric",), _same),
    "hall_n": Part(8, ("pair_antisymmetric", "hall_a"), _rest),
    "hall_m": Part(3, ("hall_n",), _lower_mixed_trace),
    "hall_p": Part(5, ("hall_n", "hall_m"), _rest),
}

#: the ledger's parts and the two slices the piezo and Hall parts refine
_RULES: dict[str, Part] = {
    **PARTS,
    "pair_symmetric": Part(18, ("identity",), lambda x, metric: pair_symmetric(x)),
    "pair_antisymmetric": Part(9, ("identity",), lambda x, metric: pair_antisymmetric(x)),
}


def evaluate(names, x: np.ndarray, metric: Metric) -> list[np.ndarray]:
    """The named parts of ``x``, in order.

    One dictionary holds every part computed during the call, so each part,
    named or refined, is computed once.
    """
    values = {"identity": x}
    return [_value(name, values, metric) for name in names]


def _value(name: str, values: dict, metric: Metric) -> np.ndarray:
    # a module-level function, not a closure: a closure that calls itself is
    # a reference cycle, which keeps the call's arrays until garbage collection
    if name not in values:
        part = _RULES[name]
        values[name] = part.rule(*[_value(n, values, metric) for n in part.refines], metric)
    return values[name]
