"""Every invariant part, written once as a rule on the part it refines.

``PARTS`` maps each part name to the dimension of its subspace and a rule
that computes the part from the parts it refines: the symmetric part from
the input, the trace piece ``k_part`` from the symmetric part's traces, the
traceless rest as ``r_part = symmetric - k_part``, the residue as
``x - s - a``, and so on down the hierarchy.  ``evaluate(names, x,
metric)`` computes any list of parts of one ``x`` through a dictionary kept
for that call, so each part on the way, named or refined, is computed once;
``Part.form(x, metric)`` is the same evaluation for one part.  ``x`` holds
components of shape ``(..., 3, 3, 3)``; leading axes are a batch.  Each
part is linear in ``x``, takes the metric verbatim and is a new array of
the same shape, except ``identity``, which is ``x`` itself, and the parts
that equal another part, which are that part's array.

One table serves every reader, through one compiled matrix per part.  Each
part is linear and depends only on the metric, so ``operator(name,
metric)`` runs the rule walk once on the 27 stacked basis tensors and keeps
the part's read-only 27x27 matrix (27x9 for a ``<name>_traces`` entry) in
the metric's ``_cache``; the parts that read no metric are compiled once
per process and seed every metric's walk.  The library readers apply these
matrices: the reports and the public decompositions of ``gl3``, ``o3``,
``so3`` and ``constitutive`` each get their parts from ``apply(names, x,
metric)``, one product of ``x`` with the named matrices stacked, so a
report and a public call compute a part with the same arithmetic.  The
rule walk itself runs in the compile step, in ``evaluate`` and
``Part.form``: the oracle's ``materialize`` returns the compiled matrix,
and its ``agreements`` checks those matrices against the walk run on one
drawn tensor at a time, where one ``evaluate`` of every part serves all of
them.  A public function handed a part already split
(``o3.s_trace_split`` and its siblings) applies the trace kernels below to
it.  The oracle's least-squares solves never evaluate the rules, nor do
the ``gl3`` projections they call.

Every trace part is one projection.  A pure-trace tensor holds a vector in
one slot and the inverse metric on the other two; ``traces(x, m)`` stacks
the three traces of ``x`` and ``from_traces(t, m_inv)`` is the pure-trace
tensor with traces ``t``.  Their composition projects onto the pure-trace
tensors and commutes with every slot permutation, so it is the trace part
of ``symmetric``, ``residue``, each plain-family member and the piezo and
Hall mixed parts alike.  Each of these has a ``<name>_traces`` entry
outside the ledger, which its trace part and the public calls' trace
vectors both read, so each trace is contracted once.  The slot weights
``_TRACE_WEIGHTS`` invert the traces of the three placements;
``scripts/derive_constants.py`` solves for them independently.

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

from .symmetrizers import _SLOT_ACTION, FULL_ANTISYMMETRIZER, FULL_SYMMETRIZER, MIXED_PAIRS
from .tensor import Metric

#: rows of the identity, (23) and (132) slot actions: the first two slots of
#: each gathered copy are the pair (1,2), (1,3) or (2,3) of the input
_TRACE_GATHER = _SLOT_ACTION[[0, 3, 5]]
#: ``_TRACE_WEIGHTS @ t`` are the vectors of slots 1, 2 and 3 of the pure-trace
#: tensor with traces ``t``: a vector in slot 1, 2 or 3 has traces (1, 1, 3),
#: (1, 3, 1) or (3, 1, 1) times itself, and these weights invert that matrix
_TRACE_WEIGHTS = np.array([[-1.0, -1.0, 4.0], [-1.0, 4.0, -1.0], [4.0, -1.0, -1.0]]) / 10.0
_I, _J, _K = np.indices((3, 3, 3)).reshape(3, 27)
#: row ``a`` gives, for each flattened component (i, j, k), the entry of the
#: flattened slot vectors that slot ``a`` holds there, and the entry of the
#: flattened inverse metric that the other two slots hold
_SLOT_ENTRY = np.stack([_I, 3 + _J, 6 + _K])
_OTHER_ENTRY = np.stack([3 * _J + _K, 3 * _I + _K, 3 * _I + _J])


def traces(x: np.ndarray, m: np.ndarray) -> np.ndarray:
    """The traces of ``x`` over slot pairs (1,2), (1,3) and (2,3), contracted
    with the matrix ``m`` and stacked as ``(..., 3, 3)``."""
    batch = x.shape[:-3]
    gathered = x.reshape(batch + (27,))[..., _TRACE_GATHER]
    return m.reshape(9) @ gathered.reshape(batch + (3, 9, 3))


def from_traces(t: np.ndarray, m_inv: np.ndarray) -> np.ndarray:
    """The pure-trace tensor whose traces are ``t``: each slot holds its
    vector of ``_TRACE_WEIGHTS @ t`` and the other two hold ``m_inv``.

    ``from_traces(traces(x, m), inverse of m)`` projects ``x`` onto the
    pure-trace tensors and leaves a traceless rest.
    """
    v = _TRACE_WEIGHTS @ t
    batch = v.shape[:-2]
    # at (i, j, k): v[0, i] m_inv[j, k] + v[1, j] m_inv[i, k] + v[2, k] m_inv[i, j],
    # all three products in one gather and one multiplication
    terms = v.reshape(batch + (9,))[..., _SLOT_ENTRY] * m_inv.reshape(9)[_OTHER_ENTRY]
    return (terms[..., 0, :] + terms[..., 1, :] + terms[..., 2, :]).reshape(batch + (3, 3, 3))


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

#: the ledger's parts, the two slices the piezo and Hall parts refine, and
#: the stacked traces of each part that has a trace part; their ``dim`` is
#: the rank of the traces, the dimension of the trace part
_RULES: dict[str, Part] = {
    **PARTS,
    **{
        f"{name}_traces": Part(dim, (name,), lambda x, metric: traces(x, metric.g))
        for name, dim in _TRACED.items()
    },
    "hall_n_traces": Part(3, ("hall_n",), lambda n, metric: traces(n, metric.g_inv)),
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


def _reads_metric(name: str) -> bool:
    # only the ``<name>_traces`` rules contract with the metric; every other
    # rule that reads it refines one of them
    return name.endswith("_traces") or any(
        _reads_metric(refined) for refined in _RULES[name].refines if refined != name
    )


#: the parts whose operators are the same for every metric
_METRIC_FREE = frozenset(name for name in _RULES if not _reads_metric(name))

#: the value of each rule on one tensor: traces or components
_SHAPES = {name: (3, 3) if name.endswith("_traces") else (3, 3, 3) for name in _RULES}

#: the operators of the parts in ``_METRIC_FREE``, compiled once per process
#: on first use; the identity seeds every walk on the 27 basis tensors
_FREE_OPERATORS: dict[str, np.ndarray] = {"identity": np.eye(27)}
_FREE_OPERATORS["identity"].setflags(write=False)


def operator(name: str, metric: Metric) -> np.ndarray:
    """The named part, or ``<name>_traces`` entry, as a read-only matrix on
    flattened components.

    ``x.reshape(27) @ operator(name, metric)`` is the part of ``x``,
    flattened; row ``c`` is the part of basis tensor ``c``.  The matrix is
    27x27, or 27x9 for a ``<name>_traces`` entry.  The first call for a
    metric runs the part's rule on the 27 stacked basis tensors, reading
    the parts it refines through this same function, and keeps the matrix
    in the metric's ``_cache``; so each rule runs once per metric, and the
    parts in ``_METRIC_FREE`` once per process.
    """
    cache = _FREE_OPERATORS if name in _METRIC_FREE else metric._cache
    matrix = cache.get(name)
    if matrix is None:
        part = _RULES[name]
        images = part.rule(
            *[operator(n, metric).reshape((27,) + _SHAPES[n]) for n in part.refines], metric
        )
        matrix = images.reshape(27, -1)
        matrix.setflags(write=False)
        # a thread that compiled the same matrix first wins, so every caller
        # gets one object
        matrix = cache.setdefault(name, matrix)
    return matrix


def apply(names: tuple[str, ...], x: np.ndarray, metric: Metric) -> np.ndarray:
    """The named parts of one tensor's components ``x``, stacked in one
    product.

    Entry ``i`` is ``x.reshape(27) @ operator(names[i], metric)``, shaped as
    the rule of ``names[i]`` returns it.  The named operators must have one
    width; their stack is kept in the metric's ``_cache`` under ``names``.
    """
    stack = metric._cache.get(names)
    if stack is None:
        stack = np.array([operator(name, metric) for name in names])
        stack.setflags(write=False)
        stack = metric._cache.setdefault(names, stack)
    return np.matmul(x.reshape(27), stack).reshape((len(names),) + _SHAPES[names[0]])
