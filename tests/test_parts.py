"""The shared evaluation of the part table against its single-part forms, the
trace projection every trace part goes through, and how often each public call
contracts traces."""

import gc

import numpy as np
import pytest

from trideco import constitutive, o3, parts, report, so3
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
        assert np.array_equal(value, PARTS[name].form(x, metric)), name


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
    t = Tensor3(rng.uniform(-1.0, 1.0, (3, 3, 3)))
    x = t.components
    s, n = parts.evaluate(("symmetric", "residue"), x, EUCLIDEAN)
    n1, n2 = (Tensor3(v) for v in parts.evaluate(("n1_plain", "n2_plain"), x, EUCLIDEAN))
    piezo = constitutive.PiezoTensor(unit_pair_symmetric(rng))
    hall = constitutive.HallTensor(unit_pair_antisymmetric(rng))
    expected = {
        "o3.decompose": (lambda: o3.decompose(t), 2),
        "piezo_decompose": (lambda: constitutive.piezo_decompose(piezo), 2),
        "hall_decompose": (lambda: constitutive.hall_decompose(hall), 1),
        "so3_representation": (lambda: so3.so3_representation(t), 1),
        "s_trace_split": (lambda: o3.s_trace_split(Tensor3(s)), 1),
        "n_trace_split": (lambda: o3.n_trace_split(Tensor3(n)), 1),
        "n_family_trace_split": (lambda: o3.n_family_trace_split(n1, n2), 2),
        "so3 build_report": (lambda: report.build_report(t, level="so3"), 3),
    }
    calls = _counting_traces(monkeypatch)
    counted = {}
    for name, (call, _) in expected.items():
        calls.clear()
        call()
        counted[name] = len(calls)
    assert counted == {name: count for name, (_, count) in expected.items()}
