import dataclasses
import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose

from trideco import constitutive as cons
from trideco import gl3, o3, sl3, so3, tensorio
from trideco.tensor import (
    EUCLIDEAN,
    Metric,
    SymmetryError,
    Tensor2,
    Tensor3,
    VarianceError,
    permute,
    transform,
)

from helpers import (
    random_orthogonal,
    random_reflection,
    random_rotation,
    unit_pair_antisymmetric,
    unit_pair_symmetric,
)

DIAG_METRIC = Metric(np.diag([2.0, 1.0, 1.0]))
METRICS = [EUCLIDEAN, DIAG_METRIC]
METRIC_IDS = ["euclid", "diag211"]


def piezo(rng):
    return cons.PiezoTensor(unit_pair_symmetric(rng))


def hall(rng):
    return cons.HallTensor(unit_pair_antisymmetric(rng))


def traceless_defect(part, metric, lower=False):
    g = metric.g_inv if lower else metric.g
    c = part.components
    return max(
        float(np.max(np.abs(np.einsum("ij,ijk->k", g, c)))),
        float(np.max(np.abs(np.einsum("ik,ijk->j", g, c)))),
        float(np.max(np.abs(np.einsum("jk,ijk->i", g, c)))),
    )


class TestIngestion:
    def test_exactly_symmetric_accepted_silently(self, rng):
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            piezo(rng)

    def test_small_noise_symmetrized_with_warning(self, rng):
        arr = unit_pair_symmetric(rng).components.copy()
        arr[0, 1, 2] += 3e-11
        with pytest.warns(UserWarning):
            wrapped = cons.PiezoTensor(Tensor3(arr))
        c = wrapped.tensor.components
        assert_allclose(c, np.transpose(c, (0, 2, 1)))

    def test_large_asymmetry_rejected(self, rng):
        arr = unit_pair_symmetric(rng).components.copy()
        arr[0, 1, 2] += 0.1
        with pytest.raises(SymmetryError):
            cons.PiezoTensor(Tensor3(arr))

    def test_variance_enforced(self, rng):
        with pytest.raises(VarianceError):
            cons.PiezoTensor(unit_pair_antisymmetric(rng))
        with pytest.raises(VarianceError):
            cons.HallTensor(unit_pair_symmetric(rng))

    def test_hall_noise_paths(self, rng):
        arr = unit_pair_antisymmetric(rng).components.copy()
        arr[0, 0, 1] = 4e-11
        with pytest.warns(UserWarning):
            cons.HallTensor(Tensor3(arr, "lower"))
        arr[0, 0, 1] = 0.2
        with pytest.raises(SymmetryError):
            cons.HallTensor(Tensor3(arr, "lower"))

    # the ingestion check is relative to the tensor's own size at every scale
    SHAPES = [(cons.PiezoTensor, "upper", (0, 2, 1)), (cons.HallTensor, "lower", (1, 0, 2))]

    @pytest.mark.parametrize("cls,variance,swap", SHAPES, ids=["piezo", "hall"])
    def test_generic_tensor_rejected_below_unit_scale(self, rng, cls, variance, swap):
        with pytest.raises(SymmetryError):
            cls(Tensor3(rng.uniform(-1.0, 1.0, (3, 3, 3)) * 1e-12, variance))

    @pytest.mark.parametrize("cls,variance,swap", SHAPES, ids=["piezo", "hall"])
    def test_zero_tensor_accepted_silently(self, cls, variance, swap):
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            wrapped = cls(Tensor3.zeros(variance))
        assert wrapped.tensor.max_abs() == 0.0

    @pytest.mark.parametrize("cls,variance,swap", SHAPES, ids=["piezo", "hall"])
    def test_relative_noise_repaired_at_tiny_scale(self, rng, cls, variance, swap):
        shape = unit_pair_symmetric if cls is cons.PiezoTensor else unit_pair_antisymmetric
        arr = shape(rng).components * 1e-150
        noise = np.zeros((3, 3, 3))
        noise[0, 1, 2] = 1e-11 * np.abs(arr).max()
        with pytest.warns(UserWarning, match="symmetrized away"):
            wrapped = cls(Tensor3(arr + noise, variance))
        c = wrapped.tensor.components
        sign = 1.0 if cls is cons.PiezoTensor else -1.0
        assert np.array_equal(c, sign * np.transpose(c, swap))
        assert np.abs(c - arr).max() <= 1e-11 * np.abs(arr).max()

    @pytest.mark.parametrize(
        "noise", [0.0, 1e-14, 3e-11, 1e-6], ids=["exact", "dust", "repaired", "rejected"]
    )
    @pytest.mark.parametrize("cls,variance,swap", SHAPES, ids=["piezo", "hall"])
    def test_ingestion_matches_the_transpose_formula(self, rng, cls, variance, swap, noise):
        # the slice projection, the asymmetry and the messages, written out
        # with transposes as a reference that does not read the defect table
        shape = unit_pair_symmetric if cls is cons.PiezoTensor else unit_pair_antisymmetric
        what = "pair-symmetric tensor" if cls is cons.PiezoTensor else "pair-antisymmetric tensor"
        arr = shape(rng).components * 1e40 + noise * 1e40 * rng.uniform(-1.0, 1.0, (3, 3, 3))
        swapped = (1.0 if cls is cons.PiezoTensor else -1.0) * np.transpose(arr, swap)
        asymmetry, scale = np.abs(arr - swapped).max(), np.abs(arr).max()
        if noise > cons.INGEST_TOL:
            with pytest.raises(SymmetryError) as error:
                cls(Tensor3(arr, variance))
            assert str(error.value) == (
                f"{what}: relative asymmetry {asymmetry / scale:.3e} exceeds 1e-09"
            )
            return
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            wrapped = cls(Tensor3(arr, variance))
        assert np.array_equal(wrapped.tensor.components, (arr + swapped) / 2.0)
        expected = [f"{what}: symmetrized away asymmetry {asymmetry:.3e}"] if noise > 1e-13 else []
        assert [str(w.message) for w in caught] == expected

    @pytest.mark.parametrize("cls,variance,swap", SHAPES, ids=["piezo", "hall"])
    def test_warning_points_at_the_caller(self, rng, cls, variance, swap):
        shape = unit_pair_symmetric if cls is cons.PiezoTensor else unit_pair_antisymmetric
        arr = shape(rng).components.copy()
        arr[0, 1, 2] += 1e-11
        with pytest.warns(UserWarning, match="symmetrized away") as record:
            cls(Tensor3(arr, variance))
        assert record[0].filename == __file__


class TestPiezoDecomposition:
    def test_fully_symmetric_input(self, rng):
        s = gl3.symmetric_part(unit_pair_symmetric(rng))
        parts = cons.piezo_decompose(cons.PiezoTensor(s))
        assert parts.n.max_abs() < 1e-13
        assert parts.s.allclose(s, 1e-13)

    @pytest.mark.parametrize("metric", METRICS, ids=METRIC_IDS)
    def test_reassembly_and_symmetries(self, rng, metric):
        d = piezo(rng)
        parts = cons.piezo_decompose(d, metric)
        rebuilt = parts.k_part + parts.r_part + parts.m_part + parts.p_part
        assert rebuilt.allclose(d.tensor, 1e-12)
        assert (parts.s + parts.n).allclose(d.tensor, 1e-13)
        # every part keeps the defining pair symmetry
        for part in (parts.s, parts.n, parts.k_part, parts.r_part, parts.m_part, parts.p_part):
            assert permute(part, "(23)").allclose(part, 1e-13)

    def test_no_antisymmetric_part(self, rng):
        assert gl3.antisymmetric_part(piezo(rng).tensor).max_abs() < 1e-15

    def test_symmetric_part_cyclic_form(self, rng):
        d = piezo(rng).tensor
        cyclic = (d + permute(d, "(123)") + permute(d, "(132)")) / 3.0
        assert gl3.symmetric_part(d).allclose(cyclic, 1e-14)

    def test_trace_vector_coincidence(self, rng):
        d = piezo(rng).tensor
        traces = o3.trace_vectors(d)
        assert_allclose(traces.u.components, traces.v.components, atol=1e-14)

    @pytest.mark.parametrize("metric", METRICS, ids=METRIC_IDS)
    def test_alpha_beta_and_traceless(self, rng, metric):
        d = piezo(rng)
        parts = cons.piezo_decompose(d, metric)
        g = metric.g
        v = np.einsum("ij,ijk->k", g, d.tensor.components)
        w = np.einsum("ij,kij->k", g, d.tensor.components)
        assert_allclose(parts.alpha.components, (2 * v + w) / 3.0, atol=1e-13)
        assert_allclose(parts.beta.components, 2.0 / 3.0 * (v - w), atol=1e-13)
        assert traceless_defect(parts.r_part, metric) < 1e-13
        assert traceless_defect(parts.p_part, metric) < 1e-13

    @pytest.mark.parametrize("metric", METRICS, ids=METRIC_IDS)
    def test_matches_generic_machinery(self, rng, metric):
        d = piezo(rng)
        parts = cons.piezo_decompose(d, metric)
        generic = o3.decompose(d.tensor, metric)
        assert parts.k_part.allclose(generic.k_part, 1e-12)
        assert parts.r_part.allclose(generic.r_part, 1e-12)
        assert parts.m_part.allclose(generic.m_part, 1e-12)
        assert parts.p_part.allclose(generic.p_part, 1e-12)

    def test_parts_mutually_orthogonal(self, rng):
        parts = cons.piezo_decompose(piezo(rng))
        gram = o3.orthogonality_matrix(
            [parts.k_part, parts.r_part, parts.m_part, parts.p_part]
        )
        off = gram - np.diag(np.diag(gram))
        assert np.max(np.abs(off)) < 1e-12

    def test_single_entry_worked_example(self):
        # content at (1,1,2)/(1,2,1): one unit in a mixed slot pair
        arr = np.zeros((3, 3, 3))
        arr[0, 0, 1] = arr[0, 1, 0] = 1.0
        d = cons.PiezoTensor(Tensor3(arr))
        parts = cons.piezo_decompose(d)
        v = np.einsum("ij,ijk->k", np.eye(3), arr)
        w = np.einsum("ij,kij->k", np.eye(3), arr)
        assert_allclose(v, [0.0, 1.0, 0.0])
        assert_allclose(w, [0.0, 0.0, 0.0])
        rebuilt = parts.k_part + parts.r_part + parts.m_part + parts.p_part
        assert rebuilt.allclose(d.tensor, 1e-13)


class TestPiezoMatrix:
    def test_fully_symmetric_gives_zero_matrix(self, rng):
        s = gl3.symmetric_part(unit_pair_symmetric(rng))
        parts = cons.piezo_decompose(cons.PiezoTensor(s))
        assert cons.piezo_matrix_rep(parts).max_abs() < 1e-13

    def test_matrix_is_traceless_and_b_equals_minus_c(self, rng):
        d = piezo(rng).tensor
        assert abs(float(np.einsum("ijk,mjk->im", sl3.EPSILON, d.components).trace())) < 1e-14
        contracted = sl3.epsilon_contractions(d)
        assert contracted.a_mat.max_abs() < 1e-14
        assert (contracted.b_mat + contracted.c_mat).max_abs() < 1e-13
        parts = cons.piezo_decompose(cons.PiezoTensor(d))
        assert abs(parts.b_mat.trace()) < 1e-13

    @pytest.mark.parametrize("metric", METRICS, ids=METRIC_IDS)
    def test_matrix_is_the_generic_one_restricted_to_the_slice(self, rng, metric):
        # the piezo matrix is the generic b matrix of a tensor on the slice,
        # and its symmetric half the generic so3 matrix e
        d = piezo(rng)
        parts = cons.piezo_decompose(d, metric)
        contracted = sl3.epsilon_contractions(d.tensor)
        split = so3.so3_split(contracted, metric)
        for actual, expected in ((parts.b_mat, contracted.b_check), (parts.b_sym, split.e_mat)):
            assert (actual.variance, actual.parity) == (expected.variance, expected.parity)
            defect = np.max(np.abs(actual.components - expected.components))
            assert defect <= 1e-14 * expected.max_abs()

    def test_reconstruction_round_trip(self, rng):
        parts = cons.piezo_decompose(piezo(rng))
        rebuilt = cons.piezo_n_from_matrix(parts.b_mat)
        assert rebuilt.allclose(parts.n, 1e-12)

    @pytest.mark.parametrize("metric", METRICS, ids=METRIC_IDS)
    def test_skew_half_parametrized_by_trace_vector(self, rng, metric):
        parts = cons.piezo_decompose(piezo(rng), metric)
        expected = cons.PIEZO_SKEW_FROM_TRACE * np.einsum(
            "prs,s->pr", sl3.EPSILON, parts.beta.components
        )
        assert_allclose(parts.b_skew.components, expected, atol=1e-13)

    @pytest.mark.parametrize("metric", METRICS, ids=METRIC_IDS)
    def test_matrix_halves_rebuild_trace_split(self, rng, metric):
        parts = cons.piezo_decompose(piezo(rng), metric)
        m_rebuilt, p_rebuilt = cons.piezo_parts_from_matrix(parts)
        assert m_rebuilt.allclose(parts.m_part, 1e-12)
        assert p_rebuilt.allclose(parts.p_part, 1e-12)


class TestPiezoFamilyCollapse:
    def test_tilde_family_collapses(self, rng):
        d = piezo(rng).tensor
        tilde1, tilde2 = gl3.n_split(d, "tilde")
        assert tilde2.max_abs() < 1e-13
        assert tilde1.allclose(gl3.residue_part(d), 1e-13)

    def test_plain_pair_symmetrized_components_agree(self, rng):
        d = piezo(rng).tensor
        n1, n2 = gl3.n_split(d, "plain")
        sym1 = (n1 + permute(n1, "(23)")) / 2.0
        sym2 = (n2 + permute(n2, "(23)")) / 2.0
        assert sym1.allclose(sym2, 1e-13)


class TestHallDecomposition:
    def test_epsilon_input(self):
        h = cons.HallTensor(sl3.epsilon_tensor("lower"))
        parts = cons.hall_decompose(h)
        assert parts.a_scalar == pytest.approx(1.0)
        assert parts.a.allclose(h.tensor, 1e-14)
        assert parts.n.max_abs() < 1e-14
        assert parts.v_vec.max_abs() < 1e-14

    def test_single_entry_worked_example(self):
        arr = np.zeros((3, 3, 3))
        arr[0, 1, 2] = 1.0
        arr[1, 0, 2] = -1.0
        h = cons.HallTensor(Tensor3(arr, "lower"))
        parts = cons.hall_decompose(h)
        cyclic = (arr + np.transpose(arr, (2, 0, 1)) + np.transpose(arr, (1, 2, 0))) / 3.0
        assert_allclose(parts.a.components, cyclic, atol=1e-15)
        assert (parts.a + parts.n).allclose(h.tensor, 1e-14)
        v = np.einsum("ij,ikj->k", np.eye(3), arr)
        assert_allclose(parts.v_vec.components, v, atol=1e-15)

    @pytest.mark.parametrize("metric", METRICS, ids=METRIC_IDS)
    def test_reassembly_traces_and_symmetry(self, rng, metric):
        h = hall(rng)
        parts = cons.hall_decompose(h, metric)
        assert (parts.a + parts.m_part + parts.p_part).allclose(h.tensor, 1e-12)
        g_inv = metric.g_inv
        u = np.einsum("ij,ijk->k", g_inv, h.tensor.components)
        w = np.einsum("ij,kij->k", g_inv, h.tensor.components)
        assert np.max(np.abs(u)) < 1e-13
        assert_allclose(w, -parts.v_vec.components, atol=1e-13)
        assert traceless_defect(parts.p_part, metric, lower=True) < 1e-13
        for part in (parts.a, parts.n, parts.m_part, parts.p_part):
            assert (permute(part, "(12)") + part).max_abs() < 1e-13

    def test_antisymmetric_part_cyclic_form(self, rng):
        k = hall(rng).tensor
        cyclic = (k + permute(k, "(123)") + permute(k, "(132)")) / 3.0
        assert gl3.antisymmetric_part(k).allclose(cyclic, 1e-14)

    def test_scalar_reconstructs_antisymmetric_part(self, rng):
        parts = cons.hall_decompose(hall(rng))
        rebuilt = parts.a_scalar * sl3.epsilon_tensor("lower")
        assert Tensor3(rebuilt.components, "lower").allclose(parts.a, 1e-14)

    def test_parts_mutually_orthogonal(self, rng):
        parts = cons.hall_decompose(hall(rng))
        gram = o3.orthogonality_matrix([parts.a, parts.m_part, parts.p_part])
        off = gram - np.diag(np.diag(gram))
        assert np.max(np.abs(off)) < 1e-12


class TestHallMatrix:
    def test_epsilon_gives_zero_matrix(self):
        parts = cons.hall_decompose(cons.HallTensor(sl3.epsilon_tensor("lower")))
        assert cons.hall_matrix_rep(parts).max_abs() < 1e-14

    def test_contraction_identities(self, rng):
        k = hall(rng).tensor.components
        a_raw = np.einsum("ijk,mjk->im", sl3.EPSILON, k)
        b_raw = np.einsum("ijk,kmj->im", sl3.EPSILON, k)
        c_raw = np.einsum("ijk,jkm->im", sl3.EPSILON, k)
        assert_allclose(b_raw, a_raw, atol=1e-14)
        shift = 2.0 * (np.einsum("ijk,ijk->", sl3.EPSILON, k) / 6.0) * np.eye(3)
        assert_allclose(c_raw - shift, -2.0 * (a_raw - shift), atol=1e-13)

    def test_reconstruction_round_trip(self, rng):
        parts = cons.hall_decompose(hall(rng))
        rebuilt = cons.hall_n_from_matrix(parts.a_check)
        assert rebuilt.allclose(parts.n, 1e-12)

    @pytest.mark.parametrize("metric", METRICS, ids=METRIC_IDS)
    def test_skew_half_parametrized_by_trace_covector(self, rng, metric):
        parts = cons.hall_decompose(hall(rng), metric)
        expected = cons.HALL_SKEW_FROM_TRACE * np.einsum(
            "prs,s->pr", sl3.EPSILON, parts.v_vec.components
        )
        assert_allclose(parts.a_skew.components, expected, atol=1e-13)

    @pytest.mark.parametrize("metric", METRICS, ids=METRIC_IDS)
    def test_matrix_halves_rebuild_trace_split(self, rng, metric):
        parts = cons.hall_decompose(hall(rng), metric)
        m_rebuilt, p_rebuilt = cons.hall_parts_from_matrix(parts)
        assert m_rebuilt.allclose(parts.m_part, 1e-12)
        assert p_rebuilt.allclose(parts.p_part, 1e-12)


class TestHallFamilyCollapse:
    def test_hat_family_collapse_lands_on_second_member(self, rng):
        k = hall(rng).tensor
        hat1, hat2 = gl3.n_split(k, "hat")
        assert hat1.max_abs() < 1e-13
        assert hat2.allclose(gl3.residue_part(k), 1e-13)

    def test_plain_family_first_member_skew_projection_vanishes(self, rng):
        k = hall(rng).tensor
        n1, n2 = gl3.n_split(k, "plain")
        skew1 = (n1 - permute(n1, "(12)")) / 2.0
        skew2 = (n2 - permute(n2, "(12)")) / 2.0
        assert skew1.max_abs() < 1e-13
        assert skew2.allclose(gl3.residue_part(k), 1e-13)


class TestRestrictedCovariance:
    @pytest.mark.parametrize("sampler", [random_rotation, random_orthogonal],
                             ids=["rotation", "orthogonal"])
    def test_piezo_covariance(self, rng, sampler):
        d = piezo(rng)
        for _ in range(5):
            r = sampler(rng)
            before = cons.piezo_decompose(d)
            after = cons.piezo_decompose(cons.PiezoTensor(transform(d.tensor, r)))
            for name in ("k_part", "r_part", "m_part", "p_part"):
                lhs = getattr(after, name)
                rhs = transform(getattr(before, name), r)
                assert (lhs - rhs).max_abs() < 1e-9

    @pytest.mark.parametrize("sampler", [random_rotation, random_orthogonal],
                             ids=["rotation", "orthogonal"])
    def test_hall_covariance(self, rng, sampler):
        h = hall(rng)
        for _ in range(5):
            r = sampler(rng)
            before = cons.hall_decompose(h)
            after = cons.hall_decompose(cons.HallTensor(transform(h.tensor, r)))
            for name in ("a", "m_part", "p_part"):
                lhs = getattr(after, name)
                rhs = transform(getattr(before, name), r)
                assert (lhs - rhs).max_abs() < 1e-9

    def test_hall_matrix_is_pseudo_under_reflection(self, rng):
        h = hall(rng)
        r = random_reflection(rng)
        before = cons.hall_decompose(h)
        after = cons.hall_decompose(cons.HallTensor(transform(h.tensor, r)))
        moved = transform(before.a_check, r)
        assert (after.a_check - moved).max_abs() < 1e-12
        assert after.a_scalar == pytest.approx(-before.a_scalar, abs=1e-12)


class TestVoigt:
    def test_worked_example(self):
        table = np.zeros((3, 6))
        table[0, 0] = 2.0   # slot pair (1,1)
        table[1, 3] = 5.0   # slot pair (2,3) and (3,2)
        d = tensorio.voigt_to_tensor(table)
        c = d.tensor.components
        assert c[0, 0, 0] == 2.0
        assert c[1, 1, 2] == 5.0 and c[1, 2, 1] == 5.0
        assert c[1, 2, 2] == 0.0

    def test_round_trip(self, rng):
        table = rng.uniform(-1, 1, (3, 6))
        d = tensorio.voigt_to_tensor(table)
        assert_allclose(tensorio.tensor_to_voigt(d), table, atol=1e-15)

    def test_independent_component_count(self, rng):
        # 18 independent entries determine the tensor completely
        flat_to_tensor = np.zeros((27, 18))
        for col in range(18):
            table = np.zeros(18)
            table[col] = 1.0
            d = tensorio.voigt_to_tensor(table.reshape(3, 6))
            flat_to_tensor[:, col] = d.tensor.components.reshape(27)
        assert np.linalg.matrix_rank(flat_to_tensor) == 18

    def test_shape_validation(self):
        with pytest.raises(tensorio.InputFormatError):
            tensorio.voigt_to_tensor(np.zeros((3, 5)))

    @pytest.mark.parametrize("table", [
        [["1.5", 0, 0, 0, 0, 0]] + [[0.0] * 6] * 2,
        [[True, 0, 0, 0, 0, 0]] + [[0.0] * 6] * 2,
        np.zeros((3, 6), dtype=bool),
    ], ids=["string", "true", "bool-array"])
    def test_rejects_non_numbers(self, table):
        with pytest.raises(tensorio.InputFormatError, match="must be numbers"):
            tensorio.voigt_to_tensor(table)

    @pytest.mark.parametrize("table", [
        np.arange(18, dtype=np.float32).reshape(3, 6),
        [[np.float64(0.5)] * 6] * 3,
    ], ids=["float32-array", "float64-list"])
    def test_accepts_real_numbers(self, table):
        d = tensorio.voigt_to_tensor(table)
        assert np.array_equal(tensorio.tensor_to_voigt(d), np.asarray(table, dtype=np.float64))


class TestExplicitTerms:
    """The matrix-to-tensor maps against their terms written out here, one
    einsum per term, fed matrices that are not traceless: a weight
    rearrangement valid only on traceless matrices shows up there."""

    def test_piezo_n_from_matrix(self, rng):
        b = rng.uniform(-1, 1, (3, 3))
        expected = cons.PIEZO_RECONSTRUCTION_COEFF * (
            np.einsum("pm,kpj->kmj", b, sl3.EPSILON) + np.einsum("pj,kpm->kmj", b, sl3.EPSILON)
        )
        actual = cons.piezo_n_from_matrix(Tensor2(b, "lu", 1)).components
        assert np.max(np.abs(actual - expected)) <= 1e-14 * np.abs(b).max()

    def test_hall_n_from_matrix(self, rng):
        a = rng.uniform(-1, 1, (3, 3))
        x, y, z = cons.HALL_RECONSTRUCTION_COEFFS
        expected = (
            x * np.einsum("pk,pmj->kmj", a, sl3.EPSILON)
            + y * np.einsum("pm,pkj->kmj", a, sl3.EPSILON)
            + z * np.einsum("pj,pmk->kmj", a, sl3.EPSILON)
        )
        actual = cons.hall_n_from_matrix(Tensor2(a, "ul", 1)).components
        assert np.max(np.abs(actual - expected)) <= 1e-14 * np.abs(a).max()

    @pytest.mark.parametrize("metric", METRICS, ids=METRIC_IDS)
    def test_piezo_parts_from_matrix(self, rng, metric):
        skew, sym = rng.uniform(-1, 1, (2, 3, 3))
        parts = dataclasses.replace(
            cons.piezo_decompose(piezo(rng), metric),
            b_skew=Tensor2(skew, "ll", 1),
            b_sym=Tensor2(sym, "ll", 1),
        )
        g_inv = metric.g_inv

        def rebuild(half):
            return cons.PIEZO_RECONSTRUCTION_COEFF * (
                np.einsum("mr,kpj,pr->kmj", g_inv, sl3.EPSILON, half)
                + np.einsum("jr,kpm,pr->kmj", g_inv, sl3.EPSILON, half)
            )

        scale = max(np.abs(skew).max(), np.abs(sym).max())
        for actual, expected in zip(cons.piezo_parts_from_matrix(parts),
                                    (rebuild(skew), rebuild(sym))):
            assert np.max(np.abs(actual.components - expected)) <= 1e-14 * scale

    @pytest.mark.parametrize("metric", METRICS, ids=METRIC_IDS)
    def test_hall_parts_from_matrix(self, rng, metric):
        skew, sym = rng.uniform(-1, 1, (2, 3, 3))
        parts = dataclasses.replace(
            cons.hall_decompose(hall(rng), metric),
            a_skew=Tensor2(skew, "uu", 1),
            a_sym=Tensor2(sym, "uu", 1),
        )
        g = metric.g
        x, y, z = cons.HALL_MATRIX_WEIGHTS

        def rebuild(half):
            return (
                x * np.einsum("pr,kr,pmj->kmj", half, g, sl3.EPSILON)
                + y * np.einsum("pr,mr,pkj->kmj", half, g, sl3.EPSILON)
                + z * np.einsum("pr,jr,pmk->kmj", half, g, sl3.EPSILON)
            )

        scale = max(np.abs(skew).max(), np.abs(sym).max())
        for actual, expected in zip(cons.hall_parts_from_matrix(parts),
                                    (rebuild(skew), rebuild(sym))):
            assert np.max(np.abs(actual.components - expected)) <= 1e-14 * scale
