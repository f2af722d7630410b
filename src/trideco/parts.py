"""Every invariant part, written once as a rule on the part it refines.

``PARTS`` maps each part name to the dimension of its subspace and a rule
that computes the part from the parts it refines: the symmetric part from
the input, the trace piece ``k_part`` from the symmetric part's traces, the
traceless rest as ``r_part = symmetric - k_part``, the residue as
``x - s - a``, and so on down the hierarchy.  ``evaluate(names, x,
metric)`` computes any list of parts of one ``x`` through a dictionary kept
for that call, so each part on the way, named or refined, is computed once;
this walk, ``_value``, is the only code that runs the rules.  ``x`` holds
components of shape ``(..., 3, 3, 3)``; leading axes are a batch.  Each
part is linear in ``x``, takes the metric verbatim and is a new array of
the same shape, except ``identity``, which is ``x`` itself, and the parts
that equal another part, which are that part's array.

One table serves every reader, through compiled matrices, and a metric is
a change of basis.  Each part is linear, so ``whitened`` compiles a stack
of named parts with one walk under the Euclidean metric on the 27 stacked
basis tensors, which reads each named part's 27x27 matrix (27x9 for a
``<name>_traces`` entry, 27x1 for the pseudo-scalar) off the result;
``EUCLIDEAN`` compiles each stack once per process and keeps it read-only
and C-contiguous.  Any other metric reads the same stacks through its
Cholesky factor (``Metric.whitening``), which makes the metric the
identity: ``whitened(names, x, metric)`` multiplies ``x`` with the factor
on every slot by the Euclidean stack, which by covariance gives the
metric's parts whitened, and returns them with the parts in the
coordinates of ``x``.  There the rules that read the metric map their
whitened values back by their law (``_LAWS``, next to ``_SHAPES``): a
tensor of the variance they read, or three trace vectors.  The other
rules read no metric, and ``x`` times their Euclidean matrices is their
value under every metric.  Only the oracle's ``agreements`` runs the rules
under another metric.  The library readers apply these matrices: the
reports and the public decompositions of ``gl3``, ``o3`` and
``constitutive`` each get their parts from ``apply(names, x, metric)``, the
values of ``whitened``, so a report and a public call compute a part with
the same arithmetic; a report also takes its Gram matrix from the whitened
parts, where the metric products are plain ones.  ``operator(name,
metric)`` is the part held as a matrix, computed on each call: the oracle's
``materialize`` returns it, and its ``agreements`` checks those matrices
against the walk run on one block of drawn tensors at a time, where one
``evaluate`` of every part serves all of them.  ``so3`` compiles its forward map from
``operator`` too.  A public function handed a part already split
(``o3.s_trace_split`` and its siblings) applies the trace kernels below to
it.  The oracle's least-squares solves never evaluate the rules: they
apply the kernels ``symmetric``, ``antisymmetric``, ``residue`` and
``mixed``, which read no table, to the 27 stacked basis tensors, restricted
to a slice by the kernels ``pair_symmetric`` and ``pair_antisymmetric``.

Every trace part is one projection.  A pure-trace tensor holds a vector in
one slot and the inverse metric on the other two; ``traces(x, m)`` stacks
the three pair contractions of ``x`` with ``m``, and ``from_traces(t,
m_inv)``, the pure-trace tensor with traces ``t``, sums the three
placements of its slot vectors.  Their composition projects onto the
pure-trace tensors and commutes with every slot permutation, so it is the
trace part of ``symmetric``, ``residue``, each plain-family member and the
piezo and Hall mixed parts alike.  Each of these has a ``<name>_traces``
entry outside the ledger, which its trace part and the public calls' trace
vectors both read, so each trace is contracted once.  The slot weights
``_TRACE_WEIGHTS`` invert the traces of the three placements; the
oracle's ``trace_weights`` solve finds them independently.

The pair-symmetric (piezo) and pair-antisymmetric (Hall) shapes change only
the mixed part.  The full symmetrizer absorbs the slot swap, so ``piezo_s``,
``piezo_k``, ``piezo_r`` and ``hall_a`` are the generic ``symmetric``,
``k_part``, ``r_part`` and ``antisymmetric``; only ``piezo_n`` and
``hall_n`` refine their slice, which is itself a rule outside the ledger.
Hall tensors carry lower indices, so their traces contract with the inverse
metric and their pure-trace pieces are built from the metric itself.

The volume element's invariants are rules outside the ledger too:
``pseudo_scalar``, the full contraction with the alternating symbol, and
``traceless_contractions``, the traceless a, b and c matrices of ``sl3``,
of ranks 1 and 16: they see only the antisymmetric and the mixed part.
Neither reads the metric, so every metric applies their Euclidean
matrices as they are, and neither is GL(3)-covariant, so neither has a
law.
"""

from __future__ import annotations

from typing import Callable, NamedTuple

import numpy as np

from .sl3 import pseudo_scalars, traceless_contractions
from .symmetrizers import FULL_ANTISYMMETRIZER, FULL_SYMMETRIZER, MIXED_PAIRS
from .tensor import EUCLIDEAN, Metric

#: ``_TRACE_WEIGHTS @ t`` are the vectors of slots 1, 2 and 3 of the pure-trace
#: tensor with traces ``t``: a vector in slot 1, 2 or 3 has traces (1, 1, 3),
#: (1, 3, 1) or (3, 1, 1) times itself, and these weights invert that matrix
_TRACE_WEIGHTS = np.array([[-1.0, -1.0, 4.0], [-1.0, 4.0, -1.0], [4.0, -1.0, -1.0]]) / 10.0


def traces(x: np.ndarray, m: np.ndarray) -> np.ndarray:
    """The traces of ``x`` over slot pairs (1,2), (1,3) and (2,3), contracted
    with the matrix ``m`` and stacked as ``(..., 3, 3)``."""
    pairs = ("ij,...ijk->...k", "ik,...ijk->...j", "jk,...ijk->...i")
    return np.stack([np.einsum(pair, m, x) for pair in pairs], axis=-2)


def from_traces(t: np.ndarray, m_inv: np.ndarray) -> np.ndarray:
    """The pure-trace tensor whose traces are ``t``: each slot holds its
    vector of ``_TRACE_WEIGHTS @ t`` and the other two hold ``m_inv``.

    ``from_traces(traces(x, m), inverse of m)`` projects ``x`` onto the
    pure-trace tensors and leaves a traceless rest.
    """
    v = _TRACE_WEIGHTS @ t
    return (np.einsum("...i,jk->...ijk", v[..., 0, :], m_inv)
            + np.einsum("...j,ik->...ijk", v[..., 1, :], m_inv)
            + np.einsum("...k,ij->...ijk", v[..., 2, :], m_inv))


def plain_trace_vectors(t: np.ndarray):
    """The trace vectors ``(beta, gamma)`` of the two plain-family
    components of a mixed part with traces ``t``."""
    return 2.0 / 3.0 * (t[..., 0, :] - t[..., 2, :]), 2.0 / 3.0 * (t[..., 1, :] - t[..., 2, :])


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


def _trace_part(t, metric):
    return from_traces(t, metric.g_inv)


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
    "k_part": Part(3, ("symmetric_traces",), _trace_part),
    "r_part": Part(7, ("symmetric", "k_part"), _rest),
    "m_part": Part(6, ("residue_traces",), _trace_part),
    "p_part": Part(10, ("residue", "m_part"), _rest),
    "m1_part": Part(3, ("n1_plain_traces",), _trace_part),
    "p1_part": Part(5, ("n1_plain", "m1_part"), _rest),
    "m2_part": Part(3, ("n2_plain_traces",), _trace_part),
    "p2_part": Part(5, ("n2_plain", "m2_part"), _rest),
    # P_sym P_pair = P_sym and P_anti P_pairanti = P_anti: the slices keep
    # the generic symmetric and antisymmetric parts
    "piezo_s": Part(10, ("symmetric",), _same),
    "piezo_n": Part(8, ("pair_symmetric", "piezo_s"), _rest),
    "piezo_k": Part(3, ("k_part",), _same),
    "piezo_r": Part(7, ("r_part",), _same),
    "piezo_m": Part(3, ("piezo_n_traces",), _trace_part),
    "piezo_p": Part(5, ("piezo_n", "piezo_m"), _rest),
    "hall_a": Part(1, ("antisymmetric",), _same),
    "hall_n": Part(8, ("pair_antisymmetric", "hall_a"), _rest),
    "hall_m": Part(3, ("hall_n_traces",), lambda t, metric: from_traces(t, metric.g)),
    "hall_p": Part(5, ("hall_n", "hall_m"), _rest),
}

#: the upper-variance parts that have a trace part, and its dimension
_TRACED = {"symmetric": 3, "residue": 6, "n1_plain": 3, "n2_plain": 3, "piezo_n": 3}

#: the ledger's parts and the rules outside it: the two slices the piezo and
#: Hall parts refine, the stacked traces of each part that has a trace part
#: (their ``dim`` is the rank of the traces, the dimension of the trace
#: part), and the volume element's pseudo-scalar and traceless a, b and c
#: matrices (their ``dim`` is their rank)
_RULES: dict[str, Part] = {
    **PARTS,
    **{
        f"{name}_traces": Part(dim, (name,), lambda x, metric: traces(x, metric.g))
        for name, dim in _TRACED.items()
    },
    "hall_n_traces": Part(3, ("hall_n",), lambda n, metric: traces(n, metric.g_inv)),
    "pair_symmetric": Part(18, ("identity",), lambda x, metric: pair_symmetric(x)),
    "pair_antisymmetric": Part(9, ("identity",), lambda x, metric: pair_antisymmetric(x)),
    "pseudo_scalar": Part(1, ("identity",), lambda x, metric: pseudo_scalars(x)),
    "traceless_contractions": Part(16, ("identity",), lambda x, metric: traceless_contractions(x)),
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


#: the value of each rule on one tensor: traces, components, the three
#: contraction matrices or the pseudo-scalar
_SHAPES = {name: (3, 3) if name.endswith("_traces") else (3, 3, 3) for name in _RULES}
_SHAPES["pseudo_scalar"] = ()
#: how each rule's value changes with the basis, ``(variance, kind)``: the
#: variance of the tensors whose metric the rule reads (the Hall rules read
#: lower ones), and the field of ``Metric.whitening`` that maps its whitened
#: value back, ``back`` for a tensor and ``vectors`` for three trace vectors.
#: A tensor rule that reads no metric has no variance: it is GL(3)-covariant,
#: so every metric applies its Euclidean matrix as it is.  The volume
#: element's invariants read no metric either, but are not covariant, and
#: have no law.
# the rules that read the metric: the trace rules, the trace parts K and M
# and their traceless rests R and P
_LAWS = {name: (("lower" if name.startswith("hall_") else "upper")
                if name.endswith(("_traces", "_part", "_k", "_m", "_r", "_p")) else None,
                "vectors" if name.endswith("_traces") else "back") for name in _RULES}
_LAWS.update(pseudo_scalar=None, traceless_contractions=None)


def _compile(names: tuple[str, ...]) -> tuple:
    """The stack of the named rules' Euclidean matrices, from one walk over
    the 27 stacked basis tensors, which of the rules read the metric, as a
    mask on the stack or none, and the one law they share; a stack that
    reads none is whitened as upper tensors.

    Row ``c`` of each matrix is the rule's value on basis tensor ``c``,
    flattened; the rules must have one width.
    """
    laws = [_LAWS[name] for name in names]
    read = {law for law in laws if law and law[0]} or {("upper", "back")}
    if len(read) > 1:
        raise ValueError(f"the rules {names} read the metric by different laws")
    values = {"identity": np.eye(27).reshape(27, 3, 3, 3)}
    stack = np.array([_value(name, values, EUCLIDEAN).reshape(27, -1) for name in names])
    reads = np.array([law in read for law in laws])[:, None]
    return stack, reads if reads.any() else None, *read


def whitened(names: tuple[str, ...], x: np.ndarray, metric: Metric):
    """``(rows, values, shift)``: the named parts of the flattened
    components ``x``, of one tensor or of the 27 stacked basis tensors, in
    the metric's whitened frame and in the coordinates of ``x``, each
    stacked as ``(len(names), width)`` or ``(len(names), 27, width)``, and
    the whitening's ``shift``.

    ``rows`` is ``x @ forward``, which whitens ``x`` by the law of the named
    rules that read the metric, times the stack of their Euclidean matrices,
    which ``EUCLIDEAN`` compiles once per process and keeps.  Those rules'
    values are their rows mapped back by their law; the others' are ``x``
    times their matrices, as every metric applies them.  The rows of the
    volume element's invariants, which are not covariant, mean nothing.
    """
    stack, reads, (variance, kind) = EUCLIDEAN.compiled(names, _compile, names)
    frame = metric.whitening(variance)
    # np.dot: these products are small, and it calls BLAS with less overhead
    rows = np.dot(x, frame.forward) @ stack
    values = x @ stack
    if reads is not None:
        np.copyto(values, np.dot(rows, getattr(frame, kind)), where=reads)
    return rows, values, frame.shift


def operator(name: str, metric: Metric) -> np.ndarray:
    """The named part, or ``<name>_traces`` entry, as a read-only matrix on
    flattened components.

    ``x.reshape(27) @ operator(name, metric)`` is the part of ``x``,
    flattened; row ``c`` is the part of basis tensor ``c``.  The matrix is
    27x27, 27x9 for a ``<name>_traces`` entry and 27x1 for the
    pseudo-scalar: the values of ``whitened`` on the 27 basis tensors, so
    the Euclidean one, conjugated by the metric's whitening if the rule
    reads the metric, computed on each call.
    """
    matrix = whitened((name,), np.eye(27), metric)[1][0]
    matrix.setflags(write=False)
    return matrix


def apply(names: tuple[str, ...], x: np.ndarray, metric: Metric) -> np.ndarray:
    """The named parts of one tensor's components ``x``, stacked: the values
    of ``whitened``.

    Entry ``i`` is ``x.reshape(27) @ operator(names[i], metric)``, shaped as
    the rule of ``names[i]`` returns it.  The named operators must have one
    width, and those that read the metric one law.
    """
    return whitened(names, x.reshape(27), metric)[1].reshape((len(names),) + _SHAPES[names[0]])
