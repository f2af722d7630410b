import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from trideco import gl3, o3, parts, sl3, so3
from trideco.tensor import (
    EUCLIDEAN,
    BasisTransform,
    Metric,
    Tensor2,
    Tensor3,
    TensorError,
    VarianceError,
    Vector3,
    transform,
)

from helpers import (
    SMALL_MIXED_KINDS,
    rand_tensor,
    random_reflection,
    random_rotation,
    small_mixed_tensor,
    unit_tensor,
)

DIAG_METRIC = Metric(np.diag([2.0, 1.0, 1.0]))
SPD_METRIC = Metric(np.array([[2.0, 0.5, 0.0], [0.5, 1.0, 0.0], [0.0, 0.0, 3.0]]))
_A = np.random.default_rng(7).uniform(-1.0, 1.0, (3, 3))
_G = _A @ _A.T + np.eye(3)
RANDOM_SPD_METRIC = Metric((_G + _G.T) / 2.0)
METRICS = [EUCLIDEAN, DIAG_METRIC]
METRIC_IDS = ["euclid", "diag211"]


class TestSplit:
    def test_zero_input(self):
        parts = sl3.epsilon_contractions(Tensor3.zeros())
        split = so3.so3_split(parts)
        for value in (split.e_mat, split.f_mat, split.beta_vec, split.gamma_vec):
            assert value.max_abs() == 0.0

    @pytest.mark.parametrize("metric", METRICS, ids=METRIC_IDS)
    def test_matrices_symmetric_traceless(self, rng, metric):
        split = so3.so3_split(sl3.epsilon_contractions(rand_tensor(rng)), metric)
        for mat in (split.e_mat, split.f_mat):
            assert_allclose(mat.components, mat.components.T, atol=1e-14)
            # traceless against the metric, the slot-contraction with g_inv
            assert abs(float(np.einsum("ij,ij->", metric.g_inv, mat.components))) < 1e-13

    @pytest.mark.parametrize("metric", METRICS, ids=METRIC_IDS)
    def test_vectors_are_the_trace_vectors(self, rng, metric):
        t = rand_tensor(rng)
        n = gl3.residue_part(t)
        _, _, beta, gamma = o3.n_trace_split(n, metric)
        split = so3.so3_split(sl3.epsilon_contractions(n), metric)
        assert_allclose(split.beta_vec.components, beta.components, atol=1e-13)
        assert_allclose(split.gamma_vec.components, gamma.components, atol=1e-13)

    def test_axial_proportionality_constants(self, rng):
        # the frozen constants hold for every sample, not just one draw
        for _ in range(10):
            t = rand_tensor(rng)
            parts = sl3.epsilon_contractions(t)
            n1, n2 = gl3.n_split(t, "plain")
            beta = np.einsum("ij,ijk->k", EUCLIDEAN.g, n1.components)
            gamma = np.einsum("ij,ikj->k", EUCLIDEAN.g, n2.components)
            b_low = parts.b_check.components  # euclidean: lowering is free
            c_low = parts.c_check.components
            b_axial = np.einsum("ijk,ij->k", sl3.EPSILON, (b_low - b_low.T) / 2.0)
            c_axial = np.einsum("ijk,ij->k", sl3.EPSILON, (c_low - c_low.T) / 2.0)
            assert_allclose(b_axial, so3.AXIAL_FROM_FIRST_TRACE * beta, atol=1e-13)
            assert_allclose(c_axial, so3.AXIAL_FROM_SECOND_TRACE * gamma, atol=1e-13)

    def test_parity_bookkeeping(self, rng):
        split = so3.so3_split(sl3.epsilon_contractions(rand_tensor(rng)))
        assert split.e_mat.parity == 1 and split.f_mat.parity == 1
        assert split.beta_vec.parity == 0 and split.gamma_vec.parity == 0


class TestComponentReconstruction:
    @pytest.mark.parametrize("metric", METRICS, ids=METRIC_IDS)
    def test_traceless_branch_from_matrix_alone(self, rng, metric):
        t = rand_tensor(rng)
        n1, n2 = gl3.n_split(t, "plain")
        m1, p1, m2, p2 = o3.n_family_trace_split(n1, n2, metric)
        split = so3.so3_split(sl3.epsilon_contractions(gl3.residue_part(t)), metric)
        zero = Vector3(np.zeros(3), "upper")
        assert so3.first_component_from(split.e_mat, zero, metric).allclose(p1, 1e-12)
        assert so3.second_component_from(split.f_mat, zero, metric).allclose(p2, 1e-12)

    @pytest.mark.parametrize("metric", METRICS, ids=METRIC_IDS)
    def test_full_branches(self, rng, metric):
        t = rand_tensor(rng)
        n1, n2 = gl3.n_split(t, "plain")
        split = so3.so3_split(sl3.epsilon_contractions(gl3.residue_part(t)), metric)
        rebuilt1 = so3.first_component_from(split.e_mat, split.beta_vec, metric)
        rebuilt2 = so3.second_component_from(split.f_mat, split.gamma_vec, metric)
        assert rebuilt1.allclose(n1, 1e-12)
        assert rebuilt2.allclose(n2, 1e-12)


class TestRepresentation:
    def test_epsilon_is_pure_pseudo_scalar(self):
        rep = so3.so3_representation(Tensor3(sl3.EPSILON))
        assert rep.a_scalar == pytest.approx(1.0)
        for value in (rep.alpha, rep.r_part, rep.e_mat, rep.beta_vec, rep.f_mat, rep.gamma_vec):
            assert value.max_abs() < 1e-14

    def test_traceless_symmetric_is_pure_remainder(self):
        t = Tensor3.single_entry((0, 1, 2), 6.0)
        s = gl3.symmetric_part(t)
        rep = so3.so3_representation(s)
        assert rep.r_part.allclose(s, 1e-13)
        assert rep.a_scalar == pytest.approx(0.0, abs=1e-14)
        for value in (rep.alpha, rep.e_mat, rep.beta_vec, rep.f_mat, rep.gamma_vec):
            assert value.max_abs() < 1e-13

    @pytest.mark.parametrize("metric", METRICS, ids=METRIC_IDS)
    def test_round_trip(self, rng, metric):
        t = rand_tensor(rng)
        rebuilt = so3.reassemble(so3.so3_representation(t, metric), metric)
        assert rebuilt.allclose(t, 1e-11)

    @pytest.mark.parametrize("scale", [1e-150, 1e150])
    @pytest.mark.parametrize("metric", METRICS, ids=METRIC_IDS)
    def test_round_trip_across_scales(self, rng, metric, scale):
        t = rand_tensor(rng) * scale
        rebuilt = so3.reassemble(so3.so3_representation(t, metric), metric)
        assert rebuilt.allclose(t, 1e-11 * t.max_abs())

    @pytest.mark.parametrize("kind", SMALL_MIXED_KINDS)
    @pytest.mark.parametrize("scale", [1.0, 1e-150, 1e150])
    @pytest.mark.parametrize("metric", METRICS, ids=METRIC_IDS)
    def test_round_trip_with_small_mixed_part(self, rng, metric, scale, kind):
        # the mixed matrices are then mostly rounding of the whole tensor's size
        t = small_mixed_tensor(rng, kind, scale)
        rebuilt = so3.reassemble(so3.so3_representation(t, metric), metric)
        assert rebuilt.allclose(t, 1e-11 * t.max_abs())

    def test_rotation_covariance(self, rng):
        t = unit_tensor(rng)
        for _ in range(10):
            r = random_rotation(rng)
            before = so3.so3_representation(t)
            after = so3.so3_representation(transform(t, r))
            assert after.a_scalar == pytest.approx(before.a_scalar, abs=1e-10)
            for name in ("alpha", "r_part", "e_mat", "beta_vec", "f_mat", "gamma_vec"):
                lhs = getattr(after, name)
                rhs = transform(getattr(before, name), r)
                assert (lhs - rhs).max_abs() < 1e-9

    def test_dimension_bookkeeping(self):
        # 27 = (3 + 7) + 1 + (3 + 5) + (3 + 5) across the representation pieces
        from trideco import oracle

        finest = {
            "k_part": 3,
            "r_part": 7,
            "antisymmetric": 1,
            "m1_part": 3,
            "p1_part": 5,
            "m2_part": 3,
            "p2_part": 5,
        }
        measured = {name: oracle.rank(oracle.materialize(name)) for name in finest}
        assert measured == finest
        assert sum(finest.values()) == 27


#: (field, variance) of each tagged field of a representation whose tags are
#: the tensor's; ``e_mat`` and ``f_mat`` have the other parity
TENSOR_PARITY_FIELDS = (("alpha", "upper"), ("r_part", "upper"), ("beta_vec", "upper"),
                        ("gamma_vec", "upper"))
MATRIX_FIELDS = (("e_mat", "ll"), ("f_mat", "ll"))


class TestParity:
    """Tags follow the input: one contraction with the alternating symbol
    flips the matrices' parity, and reassembly returns the input's."""

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        exponent=st.integers(-150, 150),
        parity=st.sampled_from([0, 1]),
        metric=st.sampled_from([EUCLIDEAN, DIAG_METRIC, SPD_METRIC]),
    )
    def test_round_trip_keeps_every_tag(self, seed, exponent, parity, metric):
        x = np.random.default_rng(seed).uniform(-1.0, 1.0, (3, 3, 3)) * 10.0**exponent
        t = Tensor3(x, "upper", parity)
        rep = so3.so3_representation(t, metric)
        for name, variance in TENSOR_PARITY_FIELDS:
            assert (getattr(rep, name).variance, getattr(rep, name).parity) == (variance, parity)
        for name, variance in MATRIX_FIELDS:
            assert (getattr(rep, name).variance, getattr(rep, name).parity) == (
                variance, 1 - parity)
        rebuilt = so3.reassemble(rep, metric)
        assert (rebuilt.variance, rebuilt.parity) == ("upper", parity)
        assert np.abs(rebuilt.components - x).max() <= 1e-15 * t.max_abs()

    @pytest.mark.parametrize("parity", [0, 1])
    def test_improper_rotation_moves_every_field_by_its_law(self, rng, parity):
        t = Tensor3(unit_tensor(rng).components, "upper", parity)
        for r in (BasisTransform(np.diag([-1.0, 1.0, 1.0])), random_reflection(rng)):
            before = so3.so3_representation(t)
            after = so3.so3_representation(transform(t, r))
            # the pseudo-scalar of a pseudo-tensor is a proper scalar
            assert after.a_scalar == pytest.approx((-1) ** (parity + 1) * before.a_scalar,
                                                   abs=1e-14)
            for name, _ in TENSOR_PARITY_FIELDS + MATRIX_FIELDS:
                moved = transform(getattr(before, name), r)
                assert (getattr(after, name) - moved).max_abs() < 1e-14, name

    @pytest.mark.parametrize("name", ["alpha", "r_part", "beta_vec", "gamma_vec", "e_mat",
                                      "f_mat"])
    def test_representation_with_mixed_tags_is_rejected(self, rng, name):
        rep = so3.so3_representation(Tensor3(unit_tensor(rng).components, "upper", 1))
        value = getattr(rep, name)
        flipped = type(value)(value.components, value.variance, 1 - value.parity)
        with pytest.raises(TensorError):
            dataclasses.replace(rep, **{name: flipped})

    def test_reassemble_needs_an_upper_variance_remainder(self, rng):
        rep = so3.so3_representation(unit_tensor(rng))
        lowered = Tensor3(rep.r_part.components, "lower", rep.r_part.parity)
        with pytest.raises(TensorError):
            so3.reassemble(dataclasses.replace(rep, r_part=lowered))


def _closed_forms(t, metric):
    """The representation of ``t`` by the closed forms, applied to ``t``
    alone: the ε contractions, ``so3_split`` and the part rules."""
    x = t.components
    split = so3.so3_split(sl3.epsilon_contractions(t), metric)
    s_traces, r_part = parts.evaluate(("symmetric_traces", "r_part"), x, metric)
    return {"alpha": s_traces[0], "r_part": r_part, "a_scalar": sl3.pseudo_scalar(t),
            "e_mat": split.e_mat.components, "beta_vec": split.beta_vec.components,
            "f_mat": split.f_mat.components, "gamma_vec": split.gamma_vec.components}


def _reassembled_by_closed_forms(rep, metric):
    """``reassemble`` by the closed forms: the pure-trace tensor, the rest and
    the two mixed components rebuilt from their matrices."""
    k = parts.from_traces(np.broadcast_to(rep.alpha.components, (3, 3)), metric.g_inv)
    rest = k + rep.r_part.components + rep.a_scalar * sl3.EPSILON
    n1 = so3.first_component_from(rep.e_mat, rep.beta_vec, metric)
    n2 = so3.second_component_from(rep.f_mat, rep.gamma_vec, metric)
    return rest + n1.components + n2.components


class TestCompiledMaps:
    """``so3_representation`` and ``reassemble`` are each one product with a
    matrix compiled per metric from the closed forms."""

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        exponent=st.integers(-150, 150),
        parity=st.sampled_from([0, 1]),
        metric=st.sampled_from([EUCLIDEAN, DIAG_METRIC, SPD_METRIC]),
    )
    def test_compiled_maps_match_the_closed_forms(self, seed, exponent, parity, metric):
        # 900 draws of the same kind moved the fields by at most 1.5e-15 of
        # the input's max-abs component
        x = np.random.default_rng(seed).uniform(-1.0, 1.0, (3, 3, 3)) * 10.0**exponent
        t = Tensor3(x, "upper", parity)
        bound = 2e-15 * t.max_abs()
        rep = so3.so3_representation(t, metric)
        for name, expected in _closed_forms(t, metric).items():
            value = rep.a_scalar if name == "a_scalar" else getattr(rep, name).components
            assert np.abs(value - expected).max() <= bound, name
        rebuilt = so3.reassemble(rep, metric)
        assert np.abs(rebuilt.components - _reassembled_by_closed_forms(rep, metric)).max() \
            <= bound

    @pytest.mark.parametrize("metric", [EUCLIDEAN, DIAG_METRIC, SPD_METRIC],
                             ids=["euclid", "diag211", "spd"])
    def test_reassembly_inverts_the_forward_matrix(self, metric):
        so3.reassemble(so3.so3_representation(Tensor3.zeros(), metric), metric)
        forward, reassembly = metric._cache["so3 forward"], metric._cache["so3 reassembly"]
        assert forward.shape == (27, 55) and reassembly.shape == (55, 27)
        assert not forward.flags.writeable and not reassembly.flags.writeable
        so3.so3_representation(Tensor3.zeros(), metric)
        assert metric._cache["so3 forward"] is forward
        assert np.abs(forward @ reassembly - np.eye(27)).max() <= 1e-15

    @pytest.mark.parametrize("metric", [EUCLIDEAN, DIAG_METRIC, RANDOM_SPD_METRIC],
                             ids=["euclid", "diag211", "random-spd"])
    def test_forward_matrix_reads_the_volume_element_operators(self, metric):
        # the a_scalar column is the pseudo-scalar operator, and the matrices
        # and vectors are _split of the traceless b and c rows, bit for bit
        forward = metric.compiled("so3 forward", so3._compile_forward, metric)
        _, _, a_scalar, e_mat, beta, f_mat, gamma = (forward[:, span] for span in so3._SPANS)
        assert np.array_equal(a_scalar, parts.operator("pseudo_scalar", metric))
        checks = parts.operator("traceless_contractions", metric).reshape(27, 3, 3, 3)[:, 1:]
        sym, vec = so3._split(checks, metric.g)
        assert np.array_equal(e_mat, sym[:, 0].reshape(27, 9))
        assert np.array_equal(beta, vec[:, 0])
        assert np.array_equal(f_mat, sym[:, 1].reshape(27, 9))
        assert np.array_equal(gamma, vec[:, 1])

    def test_a_warm_round_trip_contracts_nothing(self, rng, monkeypatch):
        t = unit_tensor(rng)
        rep = so3.so3_representation(t)
        warm = {"so3_representation": lambda: so3.so3_representation(t),
                "reassemble": lambda: so3.reassemble(rep)}
        for call in warm.values():
            call()  # compiles what the call reads
        calls = []
        for module, name in ((sl3, "contraction"), (sl3, "from_matrix"), (parts, "traces")):

            def counted(*args, function=getattr(module, name), name=name):
                calls.append(name)
                return function(*args)

            monkeypatch.setattr(module, name, counted)
        made = {}
        for name, call in warm.items():
            calls.clear()
            call()
            made[name] = list(calls)
        assert made == {"so3_representation": [], "reassemble": []}

    def test_a_matrix_that_is_not_traceless_is_rejected(self, rng):
        # a hand-built representation: the trace of e_mat against g_inv is
        # the trace of the rebuilt mixed matrix
        rep = so3.so3_representation(unit_tensor(rng), DIAG_METRIC)
        traced = Tensor2(rep.e_mat.components + 1e-3 * DIAG_METRIC.g, "ll", rep.e_mat.parity)
        with pytest.raises(VarianceError, match="traceless"):
            so3.reassemble(dataclasses.replace(rep, e_mat=traced), DIAG_METRIC)

    def test_lower_variance_is_rejected(self, rng):
        with pytest.raises(VarianceError):
            so3.so3_representation(Tensor3(unit_tensor(rng).components, "lower"))
