import itertools

import numpy as np
import pytest
from numpy.testing import assert_allclose

from trideco import gl3, o3
from trideco.sl3 import EPSILON
from trideco.tensor import (
    EUCLIDEAN,
    Metric,
    SymmetryError,
    Tensor3,
    VarianceError,
    norm,
    scalar_product,
    transform,
    transform_metric,
)

from helpers import rand_tensor, random_orthogonal, unit_tensor

DIAG_METRIC = Metric(np.diag([2.0, 1.0, 1.0]))
METRICS = [EUCLIDEAN, DIAG_METRIC]
METRIC_IDS = ["euclid", "diag211"]


def _random_spd(seed):
    a = np.random.default_rng(seed).uniform(-1.0, 1.0, (3, 3))
    g = a @ a.T + 0.5 * np.eye(3)
    return Metric((g + g.T) / 2.0)


GRAM_METRICS = METRICS + [_random_spd(11)]
GRAM_METRIC_IDS = METRIC_IDS + ["random_spd"]


def naive_traces(t, g):
    u = np.zeros(3)
    v = np.zeros(3)
    w = np.zeros(3)
    for i, j, k in itertools.product(range(3), repeat=3):
        u[k] += g[i, j] * t[i, j, k]
        v[k] += g[i, j] * t[i, k, j]
        w[k] += g[i, j] * t[k, i, j]
    return u, v, w


class TestTraceVectors:
    def test_single_entry(self):
        t = Tensor3.single_entry((0, 0, 1))
        traces = o3.trace_vectors(t)
        assert_allclose(traces.u.components, [0.0, 1.0, 0.0])
        assert traces.v.max_abs() == 0.0
        assert traces.w.max_abs() == 0.0

    def test_epsilon_has_no_traces(self):
        traces = o3.trace_vectors(Tensor3(EPSILON))
        for vec in (traces.u, traces.v, traces.w):
            assert vec.max_abs() == 0.0

    @pytest.mark.parametrize("metric", METRICS, ids=METRIC_IDS)
    def test_matches_naive_loops(self, rng, metric):
        t = rand_tensor(rng)
        traces = o3.trace_vectors(t, metric)
        u, v, w = naive_traces(t.components, metric.g)
        assert_allclose(traces.u.components, u, atol=1e-14)
        assert_allclose(traces.v.components, v, atol=1e-14)
        assert_allclose(traces.w.components, w, atol=1e-14)

    def test_requires_upper_variance(self, rng):
        with pytest.raises(VarianceError):
            o3.trace_vectors(rand_tensor(rng, "lower"))


def traceless_defect(part, metric):
    g = metric.g
    c = part.components
    return max(
        float(np.max(np.abs(np.einsum("ij,ijk->k", g, c)))),
        float(np.max(np.abs(np.einsum("ik,ijk->j", g, c)))),
        float(np.max(np.abs(np.einsum("jk,ijk->i", g, c)))),
    )


class TestSymmetricSplit:
    def test_single_entry_example(self):
        s = gl3.symmetric_part(Tensor3.single_entry((0, 0, 1)))
        k_part, r_part, alpha = o3.s_trace_split(s)
        assert_allclose(alpha.components, [0.0, 1.0 / 3.0, 0.0], atol=1e-15)
        assert traceless_defect(r_part, EUCLIDEAN) < 1e-15
        assert (k_part + r_part).allclose(s, 1e-15)

    def test_traceless_input_passes_through(self, rng):
        t = Tensor3.single_entry((0, 1, 2), 6.0)
        s = gl3.symmetric_part(t)
        k_part, r_part, alpha = o3.s_trace_split(s)
        assert alpha.max_abs() < 1e-15
        assert k_part.max_abs() < 1e-15
        assert r_part.allclose(s, 1e-15)

    @pytest.mark.parametrize("metric", METRICS, ids=METRIC_IDS)
    def test_pure_trace_input_is_fixed(self, rng, metric):
        vec = rng.uniform(-1, 1, 3)
        pure = np.einsum("i,jk->ijk", vec, metric.g_inv)
        s = gl3.symmetric_part(Tensor3(pure))
        k_part, r_part, _ = o3.s_trace_split(s, metric)
        assert k_part.allclose(s, 1e-12)
        assert r_part.max_abs() < 1e-12

    @pytest.mark.parametrize("metric", METRICS, ids=METRIC_IDS)
    def test_remainder_traceless(self, rng, metric):
        s = gl3.symmetric_part(rand_tensor(rng))
        _, r_part, _ = o3.s_trace_split(s, metric)
        assert traceless_defect(r_part, metric) < 1e-13

    def test_rejects_non_symmetric_input(self, rng):
        with pytest.raises(SymmetryError):
            o3.s_trace_split(rand_tensor(rng))


class TestMixedSplit:
    def test_zero_input(self):
        m_part, p_part, beta, gamma = o3.n_trace_split(Tensor3.zeros())
        for value in (m_part, p_part, beta, gamma):
            assert value.max_abs() == 0.0

    @pytest.mark.parametrize("metric", METRICS, ids=METRIC_IDS)
    def test_remainder_traceless(self, rng, metric):
        n = gl3.residue_part(rand_tensor(rng))
        _, p_part, _, _ = o3.n_trace_split(n, metric)
        assert traceless_defect(p_part, metric) < 1e-13

    @pytest.mark.parametrize("metric", METRICS, ids=METRIC_IDS)
    def test_matches_per_branch_forms(self, rng, metric):
        t = rand_tensor(rng)
        n = gl3.residue_part(t)
        m_part, p_part, beta, gamma = o3.n_trace_split(n, metric)
        n1, n2 = gl3.n_split(t, "plain")
        m1, p1, m2, p2 = o3.n_family_trace_split(n1, n2, metric)
        assert (m1 + m2).allclose(m_part, 1e-13)
        assert (p1 + p2).allclose(p_part, 1e-13)

    def test_beta_gamma_from_original_traces(self, rng):
        t = rand_tensor(rng)
        traces = o3.trace_vectors(t)
        n = gl3.residue_part(t)
        _, _, beta, gamma = o3.n_trace_split(n)
        assert_allclose(
            beta.components,
            2.0 / 3.0 * (traces.u.components - traces.w.components),
            atol=1e-14,
        )
        assert_allclose(
            gamma.components,
            2.0 / 3.0 * (traces.v.components - traces.w.components),
            atol=1e-14,
        )

    def test_rejects_wrong_symmetry(self, rng):
        with pytest.raises(SymmetryError):
            o3.n_trace_split(gl3.symmetric_part(rand_tensor(rng)) + gl3.residue_part(rand_tensor(rng)))


class TestBranchSplit:
    @pytest.mark.parametrize("metric", METRICS, ids=METRIC_IDS)
    def test_branch_sums(self, rng, metric):
        n1, n2 = gl3.n_split(rand_tensor(rng), "plain")
        m1, p1, m2, p2 = o3.n_family_trace_split(n1, n2, metric)
        assert (m1 + p1).allclose(n1, 1e-14)
        assert (m2 + p2).allclose(n2, 1e-14)
        assert traceless_defect(p1, metric) < 1e-13
        assert traceless_defect(p2, metric) < 1e-13

    def test_zero_branch(self):
        zero = Tensor3.zeros()
        m1, p1, m2, p2 = o3.n_family_trace_split(zero, zero)
        assert m1.max_abs() == p1.max_abs() == m2.max_abs() == p2.max_abs() == 0.0

    def test_first_branch_trace_vector(self, rng):
        t = rand_tensor(rng)
        traces = o3.trace_vectors(t)
        n1, _ = gl3.n_split(t, "plain")
        beta = np.einsum("ij,ijk->k", EUCLIDEAN.g, n1.components)
        assert_allclose(
            beta,
            2.0 / 3.0 * (traces.u.components - traces.w.components),
            atol=1e-14,
        )

    def test_branch_traces_are_dependent(self, rng):
        n1, _ = gl3.n_split(rand_tensor(rng), "plain")
        slots_12 = np.einsum("ij,ijk->k", EUCLIDEAN.g, n1.components)
        slots_13 = np.einsum("ij,ikj->k", EUCLIDEAN.g, n1.components)
        assert_allclose(slots_13, -0.5 * slots_12, atol=1e-14)

    def test_rejects_wrong_family(self, rng):
        t = rand_tensor(rng)
        n1, n2 = gl3.n_split(t, "plain")
        with pytest.raises(SymmetryError):
            o3.n_family_trace_split(n2, n1)


class TestOrthogonality:
    def test_three_way_parts_orthogonal(self, rng):
        t = unit_tensor(rng)
        parts = [gl3.symmetric_part(t), gl3.antisymmetric_part(t), gl3.residue_part(t)]
        gram = o3.orthogonality_matrix(parts)
        off = gram - np.diag(np.diag(gram))
        assert np.max(np.abs(off)) < 1e-12

    def test_plain_pair_not_orthogonal(self, rng):
        t = unit_tensor(rng)
        n1, n2 = gl3.n_split(t, "plain")
        gram = o3.orthogonality_matrix([n1, n2])
        assert abs(gram[0, 1]) > 1e-6

    def test_plain_first_against_hat_second(self, rng):
        t = unit_tensor(rng)
        n1, _ = gl3.n_split(t, "plain")
        _, hat2 = gl3.n_split(t, "hat")
        gram = o3.orthogonality_matrix([n1, hat2])
        assert abs(gram[0, 1]) < 1e-12

    @pytest.mark.parametrize("metric", METRICS, ids=METRIC_IDS)
    def test_five_parts_mutually_orthogonal(self, rng, metric):
        t = unit_tensor(rng)
        parts = o3.decompose(t, metric)
        tensors = [parts.k_part, parts.r_part, parts.a, parts.m_part, parts.p_part]
        gram = o3.orthogonality_matrix(tensors, metric)
        off = gram - np.diag(np.diag(gram))
        assert np.max(np.abs(off)) < 1e-12

    def test_variance_mismatch(self, rng):
        with pytest.raises(VarianceError):
            o3.orthogonality_matrix([rand_tensor(rng, "upper"), rand_tensor(rng, "lower")])

    def test_empty_list(self):
        assert o3.orthogonality_matrix([]).shape == (0, 0)

    @pytest.mark.parametrize("scale", [1.0, 1e-150, 1e150])
    @pytest.mark.parametrize("variance", ["upper", "lower"])
    @pytest.mark.parametrize("metric", GRAM_METRICS, ids=GRAM_METRIC_IDS)
    def test_matches_pairwise_scalar_products(self, rng, metric, variance, scale):
        tensors = [Tensor3(rng.uniform(-1.0, 1.0, (3, 3, 3)) * scale, variance)
                   for _ in range(7)]
        gram = o3.orthogonality_matrix(tensors, metric)
        pairwise = np.array([[scalar_product(a, b, metric) for b in tensors] for a in tensors])
        # upper indices contract with the metric, lower ones with its inverse
        g = metric.g if variance == "upper" else metric.g_inv
        x = np.array([t.components for t in tensors])
        contracted = np.einsum("aijk,bmnp,im,jn,kp->ab", x, x, g, g, g)
        bound = 1e-12 * np.max(np.diag(gram))
        assert np.max(np.abs(gram - pairwise)) <= bound
        assert np.max(np.abs(gram - contracted)) <= bound
        assert np.array_equal(gram, gram.T)


class TestFiveWayDecomposition:
    @pytest.mark.parametrize("metric", METRICS, ids=METRIC_IDS)
    def test_reconstruction(self, rng, metric):
        t = rand_tensor(rng)
        parts = o3.decompose(t, metric)
        rebuilt = parts.k_part + parts.r_part + parts.a + parts.m_part + parts.p_part
        assert rebuilt.allclose(t, 1e-12)

    def test_pythagoras(self, rng):
        t = unit_tensor(rng)
        parts = o3.decompose(t)
        total = sum(
            norm(p) ** 2
            for p in (parts.k_part, parts.r_part, parts.a, parts.m_part, parts.p_part)
        )
        assert total == pytest.approx(norm(t) ** 2, rel=1e-10)

    def test_orthogonal_covariance(self, rng):
        t = unit_tensor(rng)
        for _ in range(20):
            r = random_orthogonal(rng)
            before = o3.decompose(t)
            after = o3.decompose(transform(t, r))
            for name in ("k_part", "r_part", "a", "m_part", "p_part"):
                lhs = getattr(after, name)
                rhs = transform(getattr(before, name), r)
                scale = max(1.0, lhs.max_abs())
                assert (lhs - rhs).max_abs() / scale < 1e-9

    def test_scalar_products_transform_with_metric(self, rng):
        # decomposing in a transformed frame with the transformed metric
        # reproduces the transformed parts even for non-orthogonal maps
        from helpers import random_gl

        t = unit_tensor(rng)
        r = random_gl(rng)
        moved_metric = transform_metric(EUCLIDEAN, r)
        before = o3.decompose(t, EUCLIDEAN)
        after = o3.decompose(transform(t, r), moved_metric)
        for name in ("k_part", "r_part", "m_part", "p_part"):
            lhs = getattr(after, name)
            rhs = transform(getattr(before, name), r)
            scale = max(1.0, lhs.max_abs())
            assert (lhs - rhs).max_abs() / scale < 1e-9
        assert scalar_product(after.k_part, after.m_part, moved_metric) == pytest.approx(
            0.0, abs=1e-10
        )
