"""The shared evaluation of the part table against its single-part walks, the
compiled operators every library reader applies, the trace projection every
trace part goes through, and how often each public call contracts traces."""

import gc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trideco import constitutive, gl3, o3, oracle, parts, report, so3
from trideco.parts import PARTS
from trideco.permutations import S3
from trideco.symmetrizers import MIXED_PAIRS, GroupAlgebraElement
from trideco.tensor import EUCLIDEAN, Metric, Tensor3, max_abs

from helpers import unit_pair_antisymmetric, unit_pair_symmetric


def _random_spd_metric(seed):
    a = np.random.default_rng(seed).uniform(-1.0, 1.0, (3, 3))
    g = a @ a.T + 2.0 * np.eye(3)
    return Metric((g + g.T) / 2.0)


METRICS = [EUCLIDEAN, Metric(np.diag([2.0, 1.0, 1.0]))]
ALL_METRICS = METRICS + [_random_spd_metric(3)]
METRIC_IDS = ["euclid", "diag211", "spd"]


@pytest.mark.parametrize("metric", METRICS, ids=["euclid", "diag211"])
def test_shared_evaluation_matches_each_form_bit_for_bit(rng, metric):
    x = rng.uniform(-1.0, 1.0, (5, 3, 3, 3))
    names = list(PARTS)
    assert len(names) == 28
    for name, value in zip(names, parts.evaluate(names, x, metric)):
        assert value.shape == x.shape
        assert np.array_equal(value, parts.evaluate((name,), x, metric)[0]), name


def test_evaluation_leaves_no_reference_cycle(rng):
    # a cycle would keep every array of the call alive until garbage collection
    gc.collect()
    gc.disable()
    try:
        parts.evaluate(list(PARTS), rng.uniform(-1.0, 1.0, (3, 3, 3)), EUCLIDEAN)
        assert gc.collect() == 0
    finally:
        gc.enable()


def _projection(metric, lower):
    """The trace projection of upper-variance tensors, or of lower-variance
    (Hall) ones, whose traces contract with the inverse metric."""
    m, m_inv = (metric.g_inv, metric.g) if lower else (metric.g, metric.g_inv)
    return (lambda x: parts.from_traces(parts.traces(x, m), m_inv)), m


#: the six slot permutations and the six mixed-pair members
_ACTIONS = [GroupAlgebraElement.from_terms([(1, perm)]) for perm in S3] + [
    member for pair in MIXED_PAIRS.values() for member in pair
]


@pytest.mark.parametrize("lower", [False, True], ids=["upper", "lower"])
@pytest.mark.parametrize("metric", ALL_METRICS, ids=METRIC_IDS)
def test_trace_projection_is_an_invariant_projection(rng, metric, lower):
    project, m = _projection(metric, lower)
    x = rng.uniform(-1.0, 1.0, (3, 3, 3))
    piece = project(x)
    tol = 1e-14 * max_abs(x)
    assert max_abs(project(piece) - piece) <= tol
    assert max_abs(parts.traces(x - piece, m)) <= tol
    for action in _ACTIONS:
        assert max_abs(project(action.on_components(x)) - action.on_components(piece)) <= tol


@pytest.mark.parametrize("metric", ALL_METRICS, ids=METRIC_IDS)
def test_trace_projection_of_a_whole_tensor_is_its_two_trace_parts(rng, metric):
    project, _ = _projection(metric, lower=False)
    x = rng.uniform(-1.0, 1.0, (4, 3, 3, 3))
    k, m = parts.evaluate(("k_part", "m_part"), x, metric)
    assert max_abs(project(x) - (k + m)) <= 1e-14 * max_abs(x)


@pytest.mark.parametrize("metric", ALL_METRICS, ids=METRIC_IDS)
def test_lower_trace_projection_of_a_hall_tensor_is_its_trace_part(rng, metric):
    project, _ = _projection(metric, lower=True)
    x = unit_pair_antisymmetric(rng).components
    (m,) = parts.evaluate(("hall_m",), x, metric)
    assert max_abs(project(x) - m) <= 1e-14 * max_abs(x)


def _counting_traces(monkeypatch):
    calls = []
    traces = parts.traces

    def counted(*args):
        calls.append(1)
        return traces(*args)

    monkeypatch.setattr(parts, "traces", counted)
    return calls


def test_each_public_call_contracts_each_trace_once(rng, monkeypatch):
    # the decompositions and reports apply compiled operators, so once the
    # metric's operators are compiled they contract no trace; the splits of
    # a part already split apply the trace kernels once per trace
    t = Tensor3(rng.uniform(-1.0, 1.0, (3, 3, 3)))
    x = t.components
    s, n = parts.evaluate(("symmetric", "residue"), x, EUCLIDEAN)
    n1, n2 = (Tensor3(v) for v in parts.evaluate(("n1_plain", "n2_plain"), x, EUCLIDEAN))
    piezo = constitutive.PiezoTensor(unit_pair_symmetric(rng))
    hall = constitutive.HallTensor(unit_pair_antisymmetric(rng))
    expected = {
        "o3.decompose": (lambda: o3.decompose(t), 0),
        "piezo_decompose": (lambda: constitutive.piezo_decompose(piezo), 0),
        "hall_decompose": (lambda: constitutive.hall_decompose(hall), 0),
        "so3_representation": (lambda: so3.so3_representation(t), 0),
        "s_trace_split": (lambda: o3.s_trace_split(Tensor3(s)), 1),
        "n_trace_split": (lambda: o3.n_trace_split(Tensor3(n)), 1),
        "n_family_trace_split": (lambda: o3.n_family_trace_split(n1, n2), 2),
        "so3 build_report": (lambda: report.build_report(t, level="so3"), 0),
    }
    for call, _ in expected.values():
        call()  # compiles what the call reads
    calls = _counting_traces(monkeypatch)
    counted = {}
    for name, (call, _) in expected.items():
        calls.clear()
        call()
        counted[name] = len(calls)
    assert counted == {name: count for name, (_, count) in expected.items()}


def test_compiling_runs_each_rule_once(monkeypatch):
    # the rules run on the Euclidean metric alone: compiling a stack on it
    # runs each rule the stack needs once, and every other metric reads the
    # Euclidean stacks through its whitening, so a second and a third
    # metric run no rule at all, the so3 maps included
    names = ("k_part", "m_part", "p_part")
    monkeypatch.delitem(EUCLIDEAN._cache, names, raising=False)
    for name in parts._RULES:
        parts.operator(name, EUCLIDEAN)
    runs = {name: 0 for name in parts._RULES}
    for name, part in parts._RULES.items():

        def counted(*args, rule=part.rule, name=name):
            runs[name] += 1
            return rule(*args)

        monkeypatch.setitem(parts._RULES, name, part._replace(rule=counted))
    parts.apply(names, np.zeros((3, 3, 3)), EUCLIDEAN)
    assert {name: count for name, count in runs.items() if count} == dict.fromkeys(
        ("symmetric", "antisymmetric", "residue", "symmetric_traces", "k_part",
         "residue_traces", "m_part", "p_part"), 1)
    runs.update(dict.fromkeys(runs, 0))
    for metric in (_random_spd_metric(1), _random_spd_metric(2)):
        parts.apply(names, np.zeros((3, 3, 3)), metric)
        for name in parts._RULES:
            parts.operator(name, metric)
        so3.reassemble(so3.so3_representation(Tensor3.zeros(), metric), metric)
    assert not any(runs.values())


def test_each_rule_has_one_law(rng):
    # the Hall rules read the metric of lower indices and the other rules
    # that read one of upper ones; the volume element's invariants have no
    # law, and every other rule is a tensor rule with no variance
    laws = parts._LAWS
    assert set(laws) == set(parts._RULES)
    assert {name for name, law in laws.items() if law is None} == {
        "pseudo_scalar", "traceless_contractions"}
    assert {name for name, law in laws.items() if law and law[0] == "lower"} == {
        "hall_m", "hall_p", "hall_n_traces"}
    assert {name for name, law in laws.items() if law and law[1] == "vectors"} == {
        name for name in parts._RULES if name.endswith("_traces")}
    # a rule has a variance exactly when its value depends on the metric
    x = rng.standard_normal((3, 3, 3))
    under = parts.evaluate(parts._RULES, x, _random_spd_metric(5))
    for name, euclidean, value in zip(parts._RULES, parts.evaluate(parts._RULES, x, EUCLIDEAN),
                                      under):
        assert np.array_equal(euclidean, value) == (laws[name] is None or laws[name][0] is None)
    # one stack whitens by one law
    with pytest.raises(ValueError, match="different laws"):
        parts.apply(("k_part", "hall_m"), x, EUCLIDEAN)


def test_operators_are_read_only_and_kept_per_metric():
    # EUCLIDEAN keeps the one stack of each name tuple; every other metric
    # keeps its whitening and no stack, and conjugates on each call
    first, second = _random_spd_metric(4), _random_spd_metric(4)
    widths = {"pseudo_scalar": 1}
    for name in parts._RULES:
        matrix = parts.operator(name, first)
        assert matrix.shape == (27, 9 if name.endswith("_traces") else widths.get(name, 27))
        assert not matrix.flags.writeable
        assert np.array_equal(parts.operator(name, first), matrix)
        # equal metrics give the same matrices
        assert np.array_equal(parts.operator(name, second), matrix)
        # the Euclidean whitening is exactly the identity
        assert np.array_equal(parts.operator(name, EUCLIDEAN), EUCLIDEAN._cache[name,][0][0])
    stack = parts.apply(("k_part", "r_part"), np.zeros((3, 3, 3)), first)
    assert stack.shape == (2, 3, 3, 3)
    assert not EUCLIDEAN._cache["k_part", "r_part"][0].flags.writeable
    assert set(first._cache) == {("whitening", "upper"), ("whitening", "lower")}
    assert first.whitening("upper") is first._cache["whitening", "upper"]
    for variance in ("upper", "lower"):
        frame = EUCLIDEAN.whitening(variance)
        assert frame.shift == 0
        assert all(np.array_equal(m, np.eye(len(m))) for m in frame[1:])


@pytest.mark.parametrize("metric", ALL_METRICS, ids=METRIC_IDS)
def test_every_operator_is_c_contiguous(metric):
    # one memory layout for every compiled operator, the trace parts included,
    # so how BLAS rounds a product with one does not depend on its part
    for name in parts._RULES:
        assert parts.operator(name, metric).flags.c_contiguous, name


@pytest.mark.parametrize("metric", ALL_METRICS, ids=METRIC_IDS)
def test_the_volume_element_invariants_have_their_ranks(metric):
    # the pseudo-scalar spans the antisymmetric part, the traceless a, b and c
    # matrices the 16-dimensional mixed part
    for name, expected in (("pseudo_scalar", 1), ("traceless_contractions", 16)):
        matrix = parts.operator(name, metric)
        assert oracle.rank(oracle.LinearMap27(matrix.T, name)) == expected
        assert parts._RULES[name].dim == expected


def _compiled_and_walked(x, metric):
    """``(compiled, walked, scale)``: each array of every report shape and
    public decomposition of ``x``, the same part from the rule walk, and the
    norm of the components it was computed from; a trace vector's scale also
    carries the size of the matrix its traces contract with."""
    generic = Tensor3(x)
    piezo = constitutive.PiezoTensor(Tensor3(parts.pair_symmetric(x)))
    hall = constitutive.HallTensor(Tensor3(parts.pair_antisymmetric(x), "lower"))
    inputs = {"piezo": piezo.tensor, "hall": hall.tensor}
    compared = []

    def compare(arrays, names, t):
        walked = parts.evaluate(names, t.components, metric)
        norm = np.linalg.norm(t.components)
        compared.extend((array, value, norm) for array, value in zip(arrays, walked))

    for (shape, family), named in report.REPORT_PARTS.items():
        t = inputs.get(shape, generic)
        mode = shape if shape in inputs else "generic"
        level = "o3" if shape in inputs else shape
        result = report.build_report(t, level, family if level == "gl3" else None, mode, metric)
        compare([p.tensor.components for p in result.parts], [name for _, name in named], t)
    for family in gl3.FAMILIES:
        d = gl3.decompose(generic, family)
        compare([d.s.components, d.a.components, d.n.components, d.n1.components,
                 d.n2.components],
                ["symmetric", "antisymmetric", "residue", f"n1_{family}", f"n2_{family}"],
                generic)
    d = o3.decompose(generic, metric)
    compare([d.k_part.components, d.r_part.components, d.a.components, d.m_part.components,
             d.p_part.components], ["k_part", "r_part", "antisymmetric", "m_part", "p_part"],
            generic)
    s_traces, n_traces = parts.evaluate(("symmetric_traces", "residue_traces"), x, metric)
    norm = np.linalg.norm(x) * np.linalg.norm(metric.g, 2)
    compared.append((d.alpha.components, s_traces[0], norm))
    for vector, walked in zip((d.beta, d.gamma), parts.plain_trace_vectors(n_traces)):
        compared.append((vector.components, walked, norm))
    rep = so3.so3_representation(generic, metric)
    compared.append((rep.alpha.components, s_traces[0], norm))
    compare([rep.r_part.components], ["r_part"], generic)
    d = constitutive.piezo_decompose(piezo, metric)
    compare([d.s.components, d.n.components, d.k_part.components, d.r_part.components,
             d.m_part.components, d.p_part.components],
            ["piezo_s", "piezo_n", "piezo_k", "piezo_r", "piezo_m", "piezo_p"], piezo.tensor)
    h = constitutive.hall_decompose(hall, metric)
    compare([h.a.components, h.n.components, h.m_part.components, h.p_part.components],
            ["hall_a", "hall_n", "hall_m", "hall_p"], hall.tensor)
    (n_traces,) = parts.evaluate(("hall_n_traces",), hall.tensor.components, metric)
    compared.append((h.v_vec.components, n_traces[1],
                     np.linalg.norm(hall.tensor.components) * np.linalg.norm(metric.g_inv, 2)))
    return compared


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    exponent=st.floats(-150.0, 150.0),
    metric=st.sampled_from(ALL_METRICS),
)
def test_compiled_parts_agree_with_the_rule_walk(seed, exponent, metric):
    x = np.random.default_rng(seed).uniform(-1.0, 1.0, (3, 3, 3)) * 10.0**exponent
    compared = _compiled_and_walked(x, metric)
    assert len(compared) == 73
    for compiled, walked, scale in compared:
        assert max_abs(compiled - walked) <= 1e-15 * scale
