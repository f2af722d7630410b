import dataclasses
import itertools

import numpy as np
import pytest
from numpy.testing import assert_allclose

from trideco import gl3, oracle, sl3, so3
from trideco.tensor import EUCLIDEAN, Metric, Tensor2, Tensor3, VarianceError, Vector3, transform

from helpers import (
    SMALL_MIXED_KINDS,
    rand_tensor,
    random_reflection,
    random_sl,
    small_mixed_tensor,
    unit_tensor,
)


class TestEpsilonIdentities:
    def test_defining_values(self):
        assert sl3.EPSILON[0, 1, 2] == 1.0
        assert sl3.EPSILON[1, 0, 2] == -1.0
        assert sl3.EPSILON[0, 0, 1] == 0.0

    def test_double_contraction_identity(self):
        for i, j, m, n in itertools.product(range(3), repeat=4):
            value = sum(sl3.EPSILON[i, j, k] * sl3.EPSILON[m, n, k] for k in range(3))
            expected = (1.0 if (m == i and n == j) else 0.0) - (
                1.0 if (m == j and n == i) else 0.0
            )
            assert value == expected

    def test_single_and_full_contractions(self):
        single = np.einsum("ijk,mjk->im", sl3.EPSILON, sl3.EPSILON)
        assert_allclose(single, 2.0 * np.eye(3))
        assert np.einsum("ijk,ijk->", sl3.EPSILON, sl3.EPSILON) == 6.0


class TestPseudoScalar:
    def test_epsilon_normalized_to_one(self):
        assert sl3.pseudo_scalar(sl3.epsilon_tensor()) == pytest.approx(1.0)

    def test_symmetric_gives_zero(self, rng):
        s = gl3.symmetric_part(rand_tensor(rng))
        assert sl3.pseudo_scalar(s) == pytest.approx(0.0, abs=1e-15)

    def test_matches_signed_sum(self, rng):
        t = rand_tensor(rng)
        total = sum(
            sl3.EPSILON[i, j, k] * t[i, j, k]
            for i, j, k in itertools.product(range(3), repeat=3)
        )
        assert sl3.pseudo_scalar(t) == pytest.approx(total / 6.0, abs=1e-14)

    def test_depends_only_on_antisymmetric_part(self, rng):
        t = rand_tensor(rng)
        a = gl3.antisymmetric_part(t)
        assert sl3.pseudo_scalar(t) == pytest.approx(sl3.pseudo_scalar(a), abs=1e-14)
        rebuilt = sl3.pseudo_scalar(t) * sl3.epsilon_tensor("upper")
        assert Tensor3(rebuilt.components).allclose(a, 1e-14)

    def test_requires_upper(self, rng):
        with pytest.raises(VarianceError):
            sl3.pseudo_scalar(rand_tensor(rng, "lower"))


class TestContractions:
    def test_epsilon_input(self):
        parts = sl3.epsilon_contractions(Tensor3(sl3.EPSILON))
        for mat in (parts.a_mat, parts.b_mat, parts.c_mat):
            assert_allclose(mat.components, 2.0 * np.eye(3))
        for mat in (parts.a_check, parts.b_check, parts.c_check):
            assert mat.max_abs() < 1e-15

    def test_symmetric_input_gives_nothing(self, rng):
        s = gl3.symmetric_part(rand_tensor(rng))
        parts = sl3.epsilon_contractions(s)
        assert parts.a_mat.max_abs() < 1e-14
        assert parts.b_mat.max_abs() < 1e-14
        assert parts.c_mat.max_abs() < 1e-14

    def test_shared_trace(self, rng):
        t = rand_tensor(rng)
        parts = sl3.epsilon_contractions(t)
        for mat in (parts.a_mat, parts.b_mat, parts.c_mat):
            assert mat.trace() == pytest.approx(6.0 * parts.a_scalar, abs=1e-13)

    def test_check_matrices_traceless_and_sum_to_zero(self, rng):
        parts = sl3.epsilon_contractions(rand_tensor(rng))
        combined = parts.a_check + parts.b_check + parts.c_check
        assert combined.max_abs() < 1e-13
        for mat in (parts.a_check, parts.b_check, parts.c_check):
            assert abs(mat.trace()) < 1e-13

    def test_check_matrices_see_only_the_mixed_part(self, rng):
        t = rand_tensor(rng)
        full = sl3.epsilon_contractions(t)
        from_mixed = sl3.epsilon_contractions(gl3.residue_part(t))
        for name in ("a_check", "b_check", "c_check"):
            assert getattr(full, name).allclose(getattr(from_mixed, name), 1e-13)

    def test_check_matrices_are_the_traceless_contractions(self, rng):
        t = rand_tensor(rng)
        parts = sl3.epsilon_contractions(t)
        stacked = np.stack([m.components for m in (parts.a_check, parts.b_check, parts.c_check)])
        assert np.array_equal(stacked, sl3.traceless_contractions(t.components))

    def test_the_pseudo_scalar_is_contracted_once(self, rng, monkeypatch):
        # the a_scalar field is the pseudo-scalar the traceless forms subtract
        t = rand_tensor(rng)
        calls = []
        contract = sl3.pseudo_scalars
        monkeypatch.setattr(sl3, "pseudo_scalars", lambda x: calls.append(1) or contract(x))
        parts = sl3.epsilon_contractions(t)
        assert len(calls) == 1
        assert parts.a_scalar == float(contract(t.components))

    def test_parity_tags(self, rng):
        parts = sl3.epsilon_contractions(rand_tensor(rng))
        assert parts.b_check.parity == 1
        assert parts.b_check.variance == "lu"


class TestReconstruction:
    def test_zero_inputs(self):
        zero = Tensor2(np.zeros((3, 3)), "lu", 1)
        assert sl3.reconstruct_n(zero, zero).max_abs() == 0.0

    def test_round_trip(self, rng):
        t = rand_tensor(rng)
        parts = sl3.epsilon_contractions(t)
        rebuilt = sl3.reconstruct_n(parts.b_check, parts.c_check)
        assert rebuilt.allclose(gl3.residue_part(t), 1e-12)

    def test_per_branch_round_trips(self, rng):
        t = rand_tensor(rng)
        parts = sl3.epsilon_contractions(t)
        n1, n2 = gl3.n_split(t, "plain")
        assert sl3.reconstruct_n1(parts.b_check).allclose(n1, 1e-12)
        assert sl3.reconstruct_n2(parts.c_check).allclose(n2, 1e-12)

    def test_rejects_non_traceless(self):
        biased = Tensor2(np.eye(3), "lu", 1)
        with pytest.raises(VarianceError):
            sl3.reconstruct_n1(biased)

    def test_rejects_pure_trace_below_unit_scale(self):
        # without a scale the trace is judged against the matrix's own size,
        # not against 1
        with pytest.raises(VarianceError):
            sl3.reconstruct_n1(Tensor2(1e-12 * np.eye(3), "lu", 1))

    def test_scale_forgives_rounding_only(self):
        with pytest.raises(VarianceError):
            sl3.reconstruct_n2(Tensor2(1e-6 * np.eye(3), "lu", 1), scale=1.0)

    def test_a_nan_trace_fails(self):
        # the check passes only a trace within its bound, so a NaN, which
        # compares false either way, is rejected
        mats = np.stack([np.zeros((3, 3)), np.full((3, 3), np.nan)])
        with pytest.raises(VarianceError, match="expects a traceless matrix"):
            sl3.require_traceless(mats, "reassemble", 1.0)

    @pytest.mark.parametrize("kind", SMALL_MIXED_KINDS)
    @pytest.mark.parametrize("scale", [1.0, 1e-150, 1e150])
    def test_round_trip_with_small_mixed_part(self, rng, scale, kind):
        t = small_mixed_tensor(rng, kind, scale)
        parts = sl3.epsilon_contractions(t)
        rebuilt = sl3.reconstruct_n(parts.b_check, parts.c_check, scale=t.max_abs())
        assert rebuilt.allclose(gl3.residue_part(t), 1e-12 * t.max_abs())

    def test_rejects_wrong_tags(self):
        # a proper "lu" matrix is the image of a pseudo-tensor; only the
        # variance is wrong here
        lowered = Tensor2(np.zeros((3, 3)), "ll", 1)
        with pytest.raises(VarianceError):
            sl3.reconstruct_n2(lowered)

    def test_composite_map_equals_mixed_projector(self):
        # reconstruct(contract(.)) must be exactly the mixed-part projector,
        # which certifies the matrix pair as a faithful 16-parameter encoding
        def composite(arr):
            parts = sl3.epsilon_contractions(Tensor3(arr))
            return sl3.reconstruct_n(parts.b_check, parts.c_check).components

        matrix = np.zeros((27, 27))
        for col in range(27):
            basis = np.zeros(27)
            basis[col] = 1.0
            matrix[:, col] = composite(basis.reshape(3, 3, 3)).reshape(27)
        residue = oracle.materialize("residue").matrix
        assert np.max(np.abs(matrix - residue)) < 1e-13
        assert oracle.rank(oracle.LinearMap27(matrix, "composite")) == 16


class TestGroupBehaviour:
    def test_unimodular_invariance(self, rng):
        t = unit_tensor(rng)
        for _ in range(10):
            r = random_sl(rng)
            moved = sl3.pseudo_scalar(transform(t, r))
            assert moved == pytest.approx(sl3.pseudo_scalar(t), abs=1e-9)

    def test_check_matrices_transform_as_pseudo_tensors(self, rng):
        t = unit_tensor(rng)
        for sampler in (random_sl, random_reflection):
            r = sampler(rng)
            before = sl3.epsilon_contractions(t)
            after = sl3.epsilon_contractions(transform(t, r))
            moved = transform(before.b_check, r)
            assert (after.b_check - moved).max_abs() < 1e-9

    def test_reflection_flips_pseudo_scalar(self, rng):
        t = unit_tensor(rng)
        r = random_reflection(rng)
        assert sl3.pseudo_scalar(transform(t, r)) == pytest.approx(
            -sl3.pseudo_scalar(t), abs=1e-12
        )


METRICS = [EUCLIDEAN, Metric(np.diag([2.0, 1.0, 1.0]))]
METRIC_IDS = ["euclid", "diag211"]
EPS = sl3.EPSILON


class TestHalves:
    @pytest.mark.parametrize("shape", [(3, 3), (5, 3, 3)], ids=["single", "batch"])
    @pytest.mark.parametrize("metric", METRICS, ids=METRIC_IDS)
    def test_exact_halves_summing_to_the_product(self, rng, shape, metric):
        mat = rng.uniform(-1, 1, shape)
        sym, skew = sl3.halves(mat, metric.g)
        assert sym.shape == skew.shape == shape
        assert np.array_equal(sym, np.swapaxes(sym, -1, -2))
        assert np.array_equal(skew, -np.swapaxes(skew, -1, -2))
        product = mat @ metric.g
        assert np.max(np.abs(sym + skew - product)) <= 1e-15 * np.abs(product).max()


def traceless(rng):
    m = rng.uniform(-1, 1, (3, 3))
    return m - np.trace(m) / 3.0 * np.eye(3)


def assert_matches(actual, expected, scale):
    assert np.max(np.abs(actual - expected)) <= 1e-14 * scale


class TestExplicitTerms:
    """Each matrix-to-tensor map and ``so3_split`` against its terms written
    out here, one einsum per term."""

    def test_reconstruct_branches(self, rng):
        c = sl3.RECONSTRUCTION_COEFF
        b, m = traceless(rng), traceless(rng)
        n1 = c * (np.einsum("pk,pmj->kmj", b, EPS) + np.einsum("pm,pkj->kmj", b, EPS))
        n2 = c * (np.einsum("pk,pmj->kmj", m, EPS) + np.einsum("pj,pmk->kmj", m, EPS))
        assert_matches(sl3.reconstruct_n1(Tensor2(b, "lu", 1)).components, n1, np.abs(b).max())
        assert_matches(sl3.reconstruct_n2(Tensor2(m, "lu", 1)).components, n2, np.abs(m).max())

    @pytest.mark.parametrize("metric", METRICS, ids=METRIC_IDS)
    def test_so3_split(self, rng, metric):
        b, c = rng.uniform(-1, 1, (2, 3, 3))
        parts = dataclasses.replace(
            sl3.epsilon_contractions(Tensor3.zeros()),
            b_check=Tensor2(b, "lu", 1),
            c_check=Tensor2(c, "lu", 1),
        )
        split = so3.so3_split(parts, metric)
        scale = max(np.abs(b).max(), np.abs(c).max())
        for mat, axial_coeff, sym, vec in (
            (b, so3.AXIAL_FROM_FIRST_TRACE, split.e_mat, split.beta_vec),
            (c, so3.AXIAL_FROM_SECOND_TRACE, split.f_mat, split.gamma_vec),
        ):
            low = np.einsum("nm,im->in", metric.g, mat)
            assert_matches(sym.components, (low + low.T) / 2.0, scale)
            axial = np.einsum("ijk,ij->k", EPS, (low - low.T) / 2.0)
            assert_matches(vec.components, axial / axial_coeff, scale)

    @pytest.mark.parametrize("metric", METRICS, ids=METRIC_IDS)
    def test_components_from_matrix_and_vector(self, rng, metric):
        split = so3.so3_split(sl3.epsilon_contractions(rand_tensor(rng)), metric)
        c = sl3.RECONSTRUCTION_COEFF
        for build, sym, skew_coeff, last in (
            (so3.first_component_from, split.e_mat, so3.FIRST_SKEW_COEFF, "pm,pkj->kmj"),
            (so3.second_component_from, split.f_mat, so3.SECOND_SKEW_COEFF, "pj,pmk->kmj"),
        ):
            v = rng.uniform(-1, 1, 3)
            low = sym.components + skew_coeff * np.einsum("imj,j->im", EPS, v)
            mat = np.einsum("in,nm->im", low, metric.g_inv)
            expected = c * (np.einsum("pk,pmj->kmj", mat, EPS) + np.einsum(last, mat, EPS))
            actual = build(sym, Vector3(v), metric).components
            assert_matches(actual, expected, max(sym.max_abs(), np.abs(v).max()))
