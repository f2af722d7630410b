"""Brute-force verification engine.

Every decomposition map in this package is linear on the 27-dimensional
component space, so each one can be materialized as an explicit 27x27 matrix
by evaluating it, as a black box, on the standard basis.  The maps are the
parts of ``parts.PARTS``: ``materialize`` returns the part's compiled
operator, the Euclidean matrix of one walk of the rules on the 27 stacked
basis tensors, conjugated by the metric's whitening if the part reads the
metric, and the dimension ledger is the table's dimensions.
``agreements`` checks those matrices against the rule walk under the
metric itself, one ``parts.evaluate`` of every part per block of drawn
tensors: the one place the rules run under a metric other than the
Euclidean one.
Ranks of those matrices check the ledger, matrix algebra checks idempotence and
complementarity, and least-squares solves, built over the 27 stacked basis
tensors, recover the closed-form coefficients the package ships: the
reconstruction weights, the skew-half constants of the so3, piezo and Hall
matrix representations, and the trace weights.  The solves use nothing but
component arrays, the metric and the alternating symbol; they never reuse
the shipped closed forms, so a transcription error in a formula cannot hide
from them.  Their results are compared with the constants named in
``SHIPPED_CONSTANTS``.  The package applies all of them but two:
``constitutive.PIEZO_SKEW_FROM_TRACE`` and ``HALL_SKEW_FROM_TRACE`` are
solved, yet no map applies them.  Every reconstruction weight the package
applies is one of them.

``so3_round_trip`` judges the so3 representation and its inverse as one
map: the product of their compiled matrices must be the identity.

``self_check`` runs all of these checks once and returns one JSON-ready
document holding every measurement and the names of the checks that fail
their bounds (``PROJECTOR_TOL``, ``SOLVE_TOL``, ``AGREEMENT_TOL``); the
CLI's ``--self-check`` renders its text from that document and writes the
same document as JSON.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import constitutive, gl3, so3
from .parts import _TRACE_WEIGHTS, PARTS, evaluate, operator
from .parts import antisymmetric, mixed, residue, symmetric
from .sl3 import EPSILON, RECONSTRUCTION_COEFF
from .tensor import EUCLIDEAN, Metric, Tensor3

RANK_TOL = 1e-9
#: required ratio between the smallest kept and largest dropped singular value
RANK_GAP = 1e6
#: largest idempotence, completeness or pairwise-product defect, in max-abs,
#: of a verified projector or projector family, and largest deviation of a
#: map's round trip from the identity
PROJECTOR_TOL = 1e-12
#: largest distance of a solved coefficient from the shipped one, and largest
#: residual of the solve
SOLVE_TOL = 1e-10
#: largest deviation of a materialized matrix from its part's form
AGREEMENT_TOL = 1e-12

#: the projector families the self-check verifies; each resolves the identity
PROJECTOR_FAMILIES = {"S+A+N": ("symmetric", "antisymmetric", "residue"),
                      "K+R+A+M+P": ("k_part", "r_part", "antisymmetric", "m_part", "p_part")}


#: ranks of every materialized map, as fixed by the dimension bookkeeping
DIMENSION_LEDGER = {name: part.dim for name, part in PARTS.items()}


@dataclass(frozen=True)
class LinearMap27:
    """A named linear operator on the flattened component space."""

    matrix: np.ndarray
    label: str

    def apply(self, arr: np.ndarray) -> np.ndarray:
        return (self.matrix @ np.asarray(arr, dtype=float).reshape(27)).reshape(3, 3, 3)


def operator_names() -> tuple[str, ...]:
    return tuple(DIMENSION_LEDGER)


def materialize(op_name: str, metric: Metric = EUCLIDEAN) -> LinearMap27:
    """The 27x27 matrix of a named part; column ``c`` is its image of basis
    tensor ``c``.  It is the transpose of ``parts.operator``, the Euclidean
    matrix, conjugated by the metric's whitening if the part reads the
    metric."""
    if op_name not in PARTS:
        raise KeyError(f"unknown operator {op_name!r}")
    return LinearMap27(matrix=operator(op_name, metric).T, label=op_name)


def rank(linear_map: LinearMap27, tol: float = RANK_TOL) -> int:
    """Numerical rank with a spectral-gap guard against miscounts."""
    singular = np.linalg.svd(linear_map.matrix, compute_uv=False)
    top = singular[0] if singular[0] > 0 else 1.0
    kept = int(np.sum(singular >= tol * top))
    if 0 < kept < len(singular) and singular[kept] > 0:
        gap = singular[kept - 1] / singular[kept]
        if gap < RANK_GAP:
            raise ArithmeticError(
                f"{linear_map.label}: singular-value gap {gap:.2e} too small to "
                f"certify rank {kept}"
            )
    return kept


@dataclass(frozen=True)
class ProjectorReport:
    label: str
    rank: int
    idempotence_defect: float

    @property
    def is_projector(self) -> bool:
        return self.idempotence_defect <= PROJECTOR_TOL


def verify_projector(linear_map: LinearMap27) -> ProjectorReport:
    m = linear_map.matrix
    return ProjectorReport(
        label=linear_map.label,
        rank=rank(linear_map),
        idempotence_defect=float(np.max(np.abs(m @ m - m))),
    )


@dataclass(frozen=True)
class FamilyReport:
    members: tuple[ProjectorReport, ...]
    completeness_defect: float
    max_pairwise_product: float

    @property
    def is_resolution(self) -> bool:
        return (
            all(member.is_projector for member in self.members)
            and self.completeness_defect <= PROJECTOR_TOL
            and self.max_pairwise_product <= PROJECTOR_TOL
        )


def verify_projector_family(
    linear_maps, target: np.ndarray | None = None
) -> FamilyReport:
    """Check that a set of maps resolves ``target`` (identity by default)."""
    maps = list(linear_maps)
    if target is None:
        target = np.eye(27)
    total = sum(lm.matrix for lm in maps)
    pairwise = 0.0
    for i, first in enumerate(maps):
        for second in maps[i + 1:]:
            pairwise = max(
                pairwise,
                float(np.max(np.abs(first.matrix @ second.matrix))),
                float(np.max(np.abs(second.matrix @ first.matrix))),
            )
    return FamilyReport(
        members=tuple(verify_projector(lm) for lm in maps),
        completeness_defect=float(np.max(np.abs(total - target))),
        max_pairwise_product=pairwise,
    )


@dataclass(frozen=True)
class ReconstructionSolve:
    system: str
    labels: tuple[str, ...]
    coefficients: np.ndarray
    residual: float
    system_rank: int


def _projected_basis(project, slice_name: str | None = None) -> np.ndarray:
    """``project`` of the 27 stacked basis tensors, first restricted to the
    named slice; ``project`` is a group-algebra projection on stacked
    components."""
    basis = np.eye(27).reshape(27, 3, 3, 3)
    if slice_name == "pair_symmetric":
        basis = (basis + np.swapaxes(basis, -1, -2)) / 2.0
    elif slice_name == "pair_antisymmetric":
        basis = (basis - np.swapaxes(basis, -3, -2)) / 2.0
    return project(basis)


def _residue(x: np.ndarray) -> np.ndarray:
    """The mixed-symmetry residue of the stacked tensors ``x``."""
    return residue(x, symmetric(x), antisymmetric(x))


def _lstsq(features: np.ndarray, target: np.ndarray):
    # one row per target component; ``features`` adds an axis of ansatz terms
    design = features.reshape(target.size, -1)
    rhs = target.reshape(-1)
    coefficients, _, system_rank, _ = np.linalg.lstsq(design, rhs, rcond=None)
    residual = float(np.max(np.abs(design @ coefficients - rhs)))
    return coefficients, residual, int(system_rank)


def _epsilon_terms(mat: np.ndarray) -> np.ndarray:
    """The three candidate terms ``X^p_k e_pmj``, ``X^p_m e_pkj`` and
    ``X^p_j e_pmk`` of the tensors rebuilt from the stacked matrices ``X``,
    on a trailing axis."""
    terms = ("bpk,pmj->bkmj", "bpm,pkj->bkmj", "bpj,pmk->bkmj")
    return np.stack([np.einsum(term, mat, EPSILON) for term in terms], axis=-1)


def _skew(mat: np.ndarray, m: np.ndarray, v: np.ndarray):
    """The one candidate term ``e_prs v_s`` of the stacked vectors ``v``, on
    a trailing axis, and the skew half of the stacked matrices ``mat`` with
    their second slot moved by ``m``: the features and the target of a skew
    solve."""
    moved = np.einsum("bim,mn->bin", mat, m)
    skew = (moved - np.swapaxes(moved, -1, -2)) / 2.0
    return np.einsum("prs,bs->bpr", EPSILON, v)[..., None], skew


#: the traces over slot pairs (1,2), (1,3) and (2,3) of stacked tensors
_PAIR_TRACES = ("ij,bijk->bk", "ik,bijk->bj", "jk,bijk->bi")
#: the ``trace_weights`` ansatz terms: ``w<a><b>`` weighs trace ``b`` in the
#: vector of slot ``a``
_WEIGHT_LABELS = tuple(f"w{a}{b}" for a in (1, 2, 3) for b in (1, 2, 3))


def _pair_traces(m: np.ndarray, x: np.ndarray) -> np.ndarray:
    """The traces of the stacked tensors ``x`` over each slot pair,
    contracted with ``m``, on axis 1."""
    return np.stack([np.einsum(pair, m, x) for pair in _PAIR_TRACES], axis=1)


def _placed(v: np.ndarray, m_inv: np.ndarray) -> np.ndarray:
    """The stacked vectors ``v`` in slot 1, 2 and 3 with ``m_inv`` on the
    other two slots, on axis 1."""
    places = ("bi,jk->bijk", "bj,ik->bijk", "bk,ij->bijk")
    return np.stack([np.einsum(place, v, m_inv) for place in places], axis=1)


def _plain_member(first: bool, slice_name: str | None = None):
    """The plain-family member symmetric in slots 1,2 (``first``) or 1,3 of
    each basis tensor, and the member's alternating contraction."""
    n = _projected_basis(lambda x: mixed(x, "plain", 0 if first else 1), slice_name)
    return n, np.einsum("ijk,bkmj->bim" if first else "ijk,bjkm->bim", EPSILON, n)


def solve_reconstruction(system: str, metric: Metric = EUCLIDEAN) -> ReconstructionSolve:
    """Least-squares solve of a reconstruction ansatz over the full basis.

    Supported systems:

    * ``n1_from_matrix`` / ``n2_from_matrix``: rebuild a mixed component from
      its alternating contraction, three candidate terms each.
    * ``k_from_trace``: single weight making the symmetric remainder traceless.
    * ``m1_from_trace``: two weights making the first mixed branch traceless.
    * ``piezo_n_from_matrix``: single weight on the pair-symmetric slice.
    * ``hall_n_from_matrix``: three weights on the pair-antisymmetric slice.
    * ``first_skew_from_trace`` / ``second_skew_from_trace``: the skew half
      of a plain member's lowered matrix as a weight times ``e_prs`` on the
      member's trace vector; ``piezo_skew_from_trace`` the same for the
      first member on the pair-symmetric slice, whose matrix is that of the
      whole mixed part, and ``hall_skew_from_trace`` for the raised matrix
      of the pair-antisymmetric mixed part and its trace covector.
    * ``trace_weights``: the 3x3 weights, row-major, placing each slot's
      vector as a combination of the three pair traces, so that the
      pure-trace tensor built from them has the traces of the input.

    Rows run over the 27 stacked basis tensors, then traces, then components.
    Rank-deficient systems are fine: some ansatz terms are linearly dependent
    on the traceless matrix space, and the minimum-norm solution is returned.
    """
    g, g_inv = metric.g, metric.g_inv

    if system in ("n1_from_matrix", "n2_from_matrix"):
        target, mat = _plain_member(system == "n1_from_matrix")
        features = _epsilon_terms(mat)
        labels = ("x", "y", "z")

    elif system in ("first_skew_from_trace", "second_skew_from_trace", "piezo_skew_from_trace"):
        first = system != "second_skew_from_trace"
        # a member's matrix is the mixed part's: the other member's vanishes
        n, mat = _plain_member(first, "pair_symmetric" if system.startswith("piezo") else None)
        # the trace over the slot pair the member is symmetric in
        features, target = _skew(mat, g, np.einsum(_PAIR_TRACES[0 if first else 1], g, n))
        labels = ("weight",)

    elif system == "k_from_trace":
        s = _projected_basis(symmetric)
        placed = _placed(np.einsum("ij,bijk->bk", g, s), g_inv)
        features = _pair_traces(g, placed[:, 0] + placed[:, 1] + placed[:, 2])
        target = _pair_traces(g, s)
        labels = ("weight",)

    elif system == "m1_from_trace":
        n1 = _projected_basis(lambda x: mixed(x, "plain", 0))
        placed = _placed(np.einsum("ij,bijk->bk", g, n1), g_inv)
        features = np.stack([_pair_traces(g, placed[:, 0] + placed[:, 1]),
                             _pair_traces(g, placed[:, 2])], axis=-1)
        target = _pair_traces(g, n1)
        labels = ("x", "y")

    elif system == "trace_weights":
        target = _pair_traces(g, _projected_basis(lambda x: x))
        features = np.stack([_pair_traces(g, _placed(target[:, b], g_inv)[:, a])
                             for a in range(3) for b in range(3)], axis=-1)
        labels = _WEIGHT_LABELS

    elif system == "piezo_n_from_matrix":
        target = _projected_basis(_residue, "pair_symmetric")
        mat = np.einsum("ijk,bkmj->bim", EPSILON, target)
        features = np.einsum("bpm,kpj->bkmj", mat, EPSILON) + np.einsum(
            "bpj,kpm->bkmj", mat, EPSILON
        )
        labels = ("weight",)

    elif system in ("hall_n_from_matrix", "hall_skew_from_trace"):
        n = _projected_basis(_residue, "pair_antisymmetric")
        mat = np.einsum("ijk,bmjk->bim", EPSILON, n)
        if system == "hall_n_from_matrix":
            features, target = _epsilon_terms(mat), n
            labels = ("x", "y", "z")
        else:
            # the raised matrix and the trace covector over slots 1,3
            features, target = _skew(mat, g_inv, np.einsum(_PAIR_TRACES[1], g_inv, n))
            labels = ("weight",)

    else:
        raise KeyError(f"unknown reconstruction system {system!r}")

    coefficients, residual, system_rank = _lstsq(features, target)
    return ReconstructionSolve(
        system=system,
        labels=labels,
        coefficients=coefficients,
        residual=residual,
        system_rank=system_rank,
    )


def random_components(rng: np.random.Generator) -> np.ndarray:
    return rng.uniform(-1.0, 1.0, (3, 3, 3))


def generic_tensor(rng: np.random.Generator) -> Tensor3:
    """Sample an upper-variance tensor whose decomposition parts are all
    comfortably nonzero.

    Draws uniformly from [-1, 1] per component and rejects draws in which any
    part used by a genericity argument has Frobenius norm below 1e-3.
    """
    while True:
        candidate = Tensor3(random_components(rng))
        parts = [
            gl3.symmetric_part(candidate),
            gl3.antisymmetric_part(candidate),
            gl3.residue_part(candidate),
        ]
        for family in gl3.FAMILIES:
            parts.extend(gl3.n_split(candidate, family))
        if all(np.linalg.norm(part.components) >= 1e-3 for part in parts):
            return candidate


#: drawn tensors compared per block in ``agreements``
_BLOCK = 20


def agreements(names, metric: Metric = EUCLIDEAN, seed: int = 0,
               samples: int = 100) -> dict[str, float]:
    """Max deviation, per named part, between the materialized matrix and the
    rule walk over ``samples`` tensors drawn from ``seed``; one ``evaluate``
    of every named part walks each block of ``_BLOCK`` drawn tensors, as
    ``parts`` walks the 27 stacked basis tensors.  A deviation that is not
    finite stays NaN or inf, so it fails every bound."""
    if samples < 1:
        raise ValueError(f"an agreement needs at least one drawn tensor, got {samples}")
    names = tuple(names)
    # the same draws as ``samples`` successive ``random_components`` calls
    arrays = np.random.default_rng(seed).uniform(-1.0, 1.0, (samples, 3, 3, 3))
    flat = arrays.reshape(samples, 27)
    matrices = [materialize(name, metric).matrix.T for name in names]
    worst = np.zeros(len(names))
    for start in range(0, samples, _BLOCK):
        walked = evaluate(names, arrays[start:start + _BLOCK], metric)
        # each part's product over all draws, of which this block's rows are
        # kept: a product over fewer rows can round differently, and keeping
        # every part's whole product would raise the peak memory instead
        worst = np.maximum(worst, [
            np.abs((flat @ matrix)[start:start + _BLOCK] - value.reshape(len(value), 27)).max()
            for matrix, value in zip(matrices, walked)])
    return dict(zip(names, worst.tolist()))


def agreement(op_name: str, metric: Metric = EUCLIDEAN, seed: int = 0,
              samples: int = 100) -> float:
    """Max deviation between the materialized matrix and the part's rule
    walk, over ``samples`` tensors drawn from ``seed``."""
    return agreements((op_name,), metric, seed, samples)[op_name]


#: the tensor of the public so3 round trip: every component is nonzero, and
#: the largest is 1
_ROUND_TRIP_TENSOR = np.cos(np.arange(27.0)).reshape(3, 3, 3)


def so3_round_trip(metric: Metric = EUCLIDEAN) -> float:
    """Max deviation from the identity of the metric's compiled so3 forward
    matrix times its reassembly matrix, whose row ``c`` is the round trip
    of basis tensor ``c``: the so3 representation and its inverse judged as
    one map.  One public ``so3.reassemble(so3.so3_representation(t))`` of
    a fixed tensor ``t`` runs the wrappers' checks and counts too.  A
    deviation that is not finite stays NaN or inf."""
    rebuilt = so3.reassemble(so3.so3_representation(Tensor3(_ROUND_TRIP_TENSOR), metric), metric)
    # the round trip compiled both matrices
    forward = metric.compiled("so3 forward", so3._compile_forward, metric)
    reassembly = metric.compiled("so3 reassembly", so3._compile_reassembly, metric)
    return float(np.maximum(np.max(np.abs(forward @ reassembly - np.eye(27))),
                            np.max(np.abs(rebuilt.components - _ROUND_TRIP_TENSOR))))


def dimension_report(metric: Metric = EUCLIDEAN) -> list[tuple[str, int, int]]:
    """(name, measured rank, expected rank) for every registered operator."""
    return [
        (name, rank(materialize(name, metric)), expected)
        for name, expected in DIMENSION_LEDGER.items()
    ]


#: the k and m1 weights as the trace weights apply them: a fully symmetric
#: tensor has the same trace over every pair, and a slots-1,2-symmetric plain
#: member with trace beta over (1,2) has -beta/2 over the other two pairs
_K_WEIGHT = float((_TRACE_WEIGHTS @ (1.0, 1.0, 1.0))[0])
_M1_X, _, _M1_Y = (float(w) for w in _TRACE_WEIGHTS @ (1.0, -0.5, -0.5))

#: (system, ansatz labels, the coefficients the package ships, a hand-derived
#: value that circulates); the solves are compared with the third column.  The
#: package applies each shipped column except the piezo and Hall skew
#: constants, which no map applies, and no reconstruction weight outside it
SHIPPED_CONSTANTS = (
    ("n1_from_matrix", ("x", "y", "z"),
     (RECONSTRUCTION_COEFF, RECONSTRUCTION_COEFF, 0.0), (-0.5, -0.5, 0.0)),
    ("n2_from_matrix", ("x", "y", "z"),
     (RECONSTRUCTION_COEFF, 0.0, RECONSTRUCTION_COEFF), (-0.5, 0.0, -0.5)),
    ("k_from_trace", ("weight",), (_K_WEIGHT,), (0.2,)),
    ("m1_from_trace", ("x", "y"), (_M1_X, _M1_Y), (-0.25, 0.5)),
    ("piezo_n_from_matrix", ("weight",), (constitutive.PIEZO_RECONSTRUCTION_COEFF,), (0.5,)),
    ("hall_n_from_matrix", ("x", "y", "z"), constitutive.HALL_RECONSTRUCTION_COEFFS,
     (0.5, -0.5, 1.0)),
    ("first_skew_from_trace", ("weight",), (so3.FIRST_SKEW_COEFF,), (0.5,)),
    ("second_skew_from_trace", ("weight",), (so3.SECOND_SKEW_COEFF,), (0.75,)),
    ("piezo_skew_from_trace", ("weight",), (constitutive.PIEZO_SKEW_FROM_TRACE,), (-0.75,)),
    ("hall_skew_from_trace", ("weight",), (constitutive.HALL_SKEW_FROM_TRACE,), (-1.0 / 3.0,)),
    ("trace_weights", _WEIGHT_LABELS, tuple(_TRACE_WEIGHTS.flat),
     (-0.1, -0.1, 0.4, -0.1, 0.4, -0.1, 0.4, -0.1, -0.1)),
)


def self_check(seed: int) -> dict:
    """The self-check as one JSON-ready document.

    ``ranks`` holds each part's measured and expected rank, ``families`` the
    completeness and pairwise-product defects of each of
    ``PROJECTOR_FAMILIES`` (a family also fails when a member is not
    idempotent), ``solves`` each reconstruction solve's rounded
    coefficients and residual, and ``agreement`` each part's worst
    deviation over 100 tensors drawn from ``seed``, null if not finite.
    ``maps`` holds each map's round-trip deviation from the identity on the
    basis tensors (``so3``, from ``so3_round_trip``), null if not finite.
    ``failures`` names every check outside its bound (``rank <name>``,
    ``family <label>``, ``solve <system>``, ``agreement <name>``, ``map
    <name>``), in order.
    """
    ranks = {name: {"measured": measured, "expected": expected}
             for name, measured, expected in dimension_report()}
    failures = [f"rank {name}" for name, r in ranks.items() if r["measured"] != r["expected"]]
    members = {label: [materialize(name) for name in names]
               for label, names in PROJECTOR_FAMILIES.items()}
    families = {}
    for label, maps in members.items():
        result = verify_projector_family(maps)
        families[label] = {"completeness": result.completeness_defect,
                           "pairwise": result.max_pairwise_product}
        if not result.is_resolution:
            failures.append(f"family {label}")
    solves = {}
    for system, _, shipped, _ in SHIPPED_CONSTANTS:
        solve = solve_reconstruction(system)
        solves[system] = {"coefficients": [round(float(c), 12) for c in solve.coefficients],
                          "residual": solve.residual}
        if not (np.max(np.abs(solve.coefficients - shipped)) <= SOLVE_TOL
                and solve.residual <= SOLVE_TOL):
            failures.append(f"solve {system}")
    worst_by_op = agreements(operator_names(), seed=seed)
    failures += [f"agreement {name}" for name, worst in worst_by_op.items()
                 if not worst <= AGREEMENT_TOL]
    maps = {"so3": so3_round_trip()}
    failures += [f"map {name}" for name, worst in maps.items() if not worst <= PROJECTOR_TOL]
    return {"seed": seed, "ranks": ranks, "families": families, "solves": solves,
            "agreement": _finite_or_none(worst_by_op), "maps": _finite_or_none(maps),
            "failures": failures}


def _finite_or_none(deviations: dict[str, float]) -> dict:
    return {name: worst if np.isfinite(worst) else None for name, worst in deviations.items()}


def formula_notes(metric: Metric = EUCLIDEAN) -> str:
    """Plain-text record of solver-determined reconstruction coefficients.

    Every coefficient shipped by the package is re-derived here by solving
    the defining relations over the full component basis.  Where a
    hand-derived value that circulates for a system differs from the solved
    one, the discrepancy is recorded; the solved value is what ships.
    """
    lines = [
        "FORMULA NOTES",
        "=============",
        "",
        "Reconstruction coefficients are determined by least-squares solves of",
        "the defining linear relations on the full 27-component basis (per-slice",
        "bases for the restricted shapes).  Residuals are reported in max-abs.",
        "Some systems are rank-deficient because the candidate terms obey the",
        "3x3 identity  X^p_k e_pmj - X^p_m e_pkj - X^p_j e_pmk = tr(X) e_kmj,",
        "which vanishes on traceless X; the minimum-norm solution is reported.",
        "The *_skew_from_trace systems solve skew(matrix) = weight * eps . (trace",
        "vector); trace_weights solves the 3x3 slot weights of the pure-trace part.",
        "",
    ]
    for system, labels, shipped, quoted in SHIPPED_CONSTANTS:
        solve = solve_reconstruction(system, metric)
        solved = tuple(round(float(c), 12) for c in solve.coefficients)
        lines.append(f"{system}:")
        lines.append(f"  ansatz terms      {', '.join(labels)}")
        lines.append(f"  solved            {solved}")
        lines.append(f"  residual          {solve.residual:.3e}")
        lines.append(f"  system rank       {solve.system_rank}")
        lines.append(f"  shipped           {tuple(float(c) for c in shipped)}")
        if any(abs(a - b) > SOLVE_TOL for a, b in zip(shipped, quoted)):
            lines.append(
                f"  NOTE: a hand derivation circulates with {tuple(quoted)}; it"
            )
            lines.append(
                "  fails the defining relations and is not what this package uses."
            )
        lines.append("")
    lines.append("Label conventions for the mixed-pair families on restricted shapes:")
    lines.append("  pair-symmetric input: tilde pair collapses, second member vanishes")
    lines.append("  pair-antisymmetric input: hat pair collapses, FIRST member vanishes")
    lines.append("  (the second member equals the whole mixed part; statements that the")
    lines.append("  second hat member vanishes have the labels swapped)")
    lines.append("")
    return "\n".join(lines)


def write_formula_notes(path, metric: Metric = EUCLIDEAN) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(formula_notes(metric))
