import itertools

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from trideco import o3, parts, so3
from trideco.permutations import S3, Perm
from trideco.tensor import (
    EUCLIDEAN,
    BasisTransform,
    Metric,
    Tensor2,
    Tensor3,
    TensorError,
    VarianceError,
    Vector3,
    lower_indices,
    norm,
    permute,
    raise_indices,
    scalar_product,
    transform,
    transform_metric,
)

from helpers import rand_tensor, random_orthogonal

EPS_ARRAY = np.zeros((3, 3, 3))
for _p in itertools.permutations(range(3)):
    _inv = sum(1 for a in range(3) for b in range(a + 1, 3) if _p[a] > _p[b])
    EPS_ARRAY[_p] = -1.0 if _inv % 2 else 1.0


class TestPermute:
    def test_swap_first_two_single_entry(self):
        t = Tensor3.single_entry((0, 1, 2))
        swapped = permute(t, "(12)")
        assert swapped[1, 0, 2] == 1.0
        assert swapped.max_abs() == 1.0

    def test_identity(self, rng):
        t = rand_tensor(rng)
        assert permute(t, "e").allclose(t, 0.0)

    def test_three_cycle_has_order_three(self, rng):
        t = rand_tensor(rng)
        out = t
        for _ in range(3):
            out = permute(out, "(123)")
        assert out.allclose(t, 0.0)

    def test_cycle_moves_first_slot_to_second(self):
        t = Tensor3.single_entry((0, 1, 2))
        moved = permute(t, "(123)")
        # index value from slot 1 must land in slot 2, etc.
        assert moved[2, 0, 1] == 1.0

    @pytest.mark.parametrize("sigma", S3, ids=str)
    @pytest.mark.parametrize("tau", S3, ids=str)
    def test_composition(self, rng, sigma, tau):
        t = rand_tensor(rng)
        chained = permute(permute(t, tau), sigma)
        direct = permute(t, sigma * tau)
        assert chained.allclose(direct, 0.0)

    def test_preserves_tags(self):
        t = Tensor3.single_entry((0, 0, 0), variance="lower", parity=1)
        out = permute(t, "(13)")
        assert out.variance == "lower" and out.parity == 1


class TestScalarProduct:
    def test_single_entry(self):
        t = Tensor3.single_entry((0, 0, 0), 2.0)
        assert scalar_product(t, t) == pytest.approx(4.0)

    def test_antisymmetric_against_symmetric(self, rng):
        eps = Tensor3(EPS_ARRAY)
        arr = rng.uniform(-1, 1, (3, 3, 3))
        sym = Tensor3(sum(np.transpose(arr, axes) for axes in itertools.permutations(range(3))) / 6.0)
        assert abs(scalar_product(eps, sym)) < 1e-15

    @pytest.mark.parametrize("g", [np.eye(3), np.diag([2.0, 1.0, 1.0])], ids=["euclid", "diag211"])
    def test_matches_brute_force(self, rng, g):
        metric = Metric(g)
        a, b = rand_tensor(rng), rand_tensor(rng)
        total = 0.0
        for i, j, k, m, n, p in itertools.product(range(3), repeat=6):
            total += a[i, j, k] * b[m, n, p] * g[i, m] * g[j, n] * g[k, p]
        assert scalar_product(a, b, metric) == pytest.approx(total, abs=1e-12)

    def test_contraction_matrix_is_kept_and_read_only(self):
        metric = Metric(np.diag([2.0, 1.0, 1.0]))
        upper, lower = metric.contraction_matrix("upper"), metric.contraction_matrix("lower")
        assert metric.contraction_matrix("upper") is upper
        assert upper[0, 0] == 8.0 and lower[0, 0] == 0.125
        assert not upper.flags.writeable and not lower.flags.writeable

    def test_variance_mismatch_rejected(self, rng):
        with pytest.raises(VarianceError):
            scalar_product(rand_tensor(rng, "upper"), rand_tensor(rng, "lower"))

    @pytest.mark.parametrize("sigma", S3, ids=str)
    def test_permutation_invariance(self, rng, sigma):
        a, b = rand_tensor(rng), rand_tensor(rng)
        lhs = scalar_product(permute(a, sigma), permute(b, sigma))
        assert lhs == pytest.approx(scalar_product(a, b), abs=1e-12)

    @pytest.mark.parametrize("sigma", S3, ids=str)
    def test_permutation_adjoint(self, rng, sigma):
        a, b = rand_tensor(rng), rand_tensor(rng)
        lhs = scalar_product(permute(a, sigma), b)
        rhs = scalar_product(a, permute(b, sigma.inverse()))
        assert lhs == pytest.approx(rhs, abs=1e-12)

    def test_products_hold_across_the_range_of_the_data(self):
        # contracted at absolute scale, these two read 0.0 and 1.33e-180
        x = np.random.default_rng(0).uniform(-1.0, 1.0, (3, 3, 3))
        a, b = Tensor3(1e-150 * x), Tensor3(1e150 * x)
        metric = Metric(4.0**-100 * np.eye(3))
        expected = norm(a, metric) * norm(b, metric)
        for product in (scalar_product(a, b, metric),
                        o3.orthogonality_matrix([a, b], metric)[0, 1]):
            assert abs(product - expected) <= 1e-14 * expected


@settings(max_examples=200, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    u=st.integers(-150, 150),
    v=st.integers(-150, 150),
    k=st.integers(-100, 100),
)
# the product of data at 1e-150 and 1e150 under 4**-100 * g once read 0.0
@example(seed=0, u=-150, v=150, k=-100)
# a product past the largest float is inf
@example(seed=0, u=150, v=150, k=100)
def test_products_scale_with_the_data_and_the_metric(seed, u, v, k):
    # a metric 4**k * g scales the contraction of upper indices by 2**(6 k)
    x, y = np.random.default_rng(seed).uniform(-1.0, 1.0, (2, 3, 3, 3))
    base = Metric(np.diag([2.0, 1.0, 1.0]))
    unit = scalar_product(Tensor3(x), Tensor3(y), base)
    unit_bound = norm(Tensor3(x), base) * norm(Tensor3(y), base)
    a, b = Tensor3(x * 10.0**u), Tensor3(y * 10.0**v)
    metric = Metric(base.g * 4.0**k)
    with np.errstate(over="ignore"):
        expected, bound = np.ldexp(np.array([unit, unit_bound]) * 10.0**u * 10.0**v, 6 * k)
        products = (scalar_product(a, b, metric), o3.orthogonality_matrix([a, b], metric)[0, 1])
    if np.isinf(expected):
        assert products == (expected, expected)
    elif abs(expected) >= np.finfo(float).tiny:
        for product in products:
            assert abs(product - expected) <= 1e-14 * bound


class TestCompiled:
    def test_the_first_value_stored_wins(self):
        # a caller that stores the key while this one builds wins: the value
        # built here is dropped, so every caller gets one object
        metric = Metric(np.diag([2.0, 1.0, 1.0]))
        inner = np.zeros(3)

        def build():
            assert metric.compiled("key", lambda: inner) is inner
            return np.ones(3)

        assert metric.compiled("key", build) is inner
        assert not inner.flags.writeable
        assert metric.compiled("key", lambda: pytest.fail("built twice")) is inner

    def test_each_compiled_matrix_is_one_read_only_object(self):
        # a metric keeps its contraction, its whitening and the so3 maps;
        # the part stacks are EUCLIDEAN's alone
        metric = Metric(np.diag([2.0, 1.0, 1.0]))
        t = Tensor3.zeros()
        calls = {
            "upper": lambda: metric.contraction_matrix("upper"),
            ("whitening", "upper"): lambda: parts.apply(("k_part", "r_part"), t.components,
                                                        metric),
            "so3 forward": lambda: so3.so3_representation(t, metric),
            "so3 reassembly": lambda: so3.reassemble(so3.so3_representation(t, metric), metric),
        }
        for key, call in calls.items():
            call()
            value = metric._cache[key]
            matrices = value[1:] if key[0] == "whitening" else (value,)
            assert not any(matrix.flags.writeable for matrix in matrices)
            call()
            assert metric._cache[key] is value
            assert metric.compiled(key, lambda: pytest.fail("compiled twice")) is value
        assert set(metric._cache) == set(calls)


class TestNorm:
    def test_zero(self):
        assert norm(Tensor3.zeros()) == 0.0

    def test_single_entry(self):
        assert norm(Tensor3.single_entry((1, 2, 0), 3.0)) == pytest.approx(3.0)

    def test_is_sqrt_of_square(self, rng):
        t = rand_tensor(rng)
        assert norm(t) == pytest.approx(np.sqrt(scalar_product(t, t)), abs=1e-12)


class TestRaiseLower:
    def test_euclidean_keeps_components(self, rng):
        t = rand_tensor(rng)
        lowered = lower_indices(t)
        assert lowered.variance == "lower"
        assert_allclose(lowered.components, t.components)

    def test_round_trip(self, rng):
        t = rand_tensor(rng)
        metric = Metric(np.array([[2.0, 0.3, 0.0], [0.3, 1.5, 0.1], [0.0, 0.1, 1.0]]))
        back = raise_indices(lower_indices(t, metric), metric)
        assert back.allclose(t, 1e-12)

    def test_diagonal_metric_scales(self):
        metric = Metric(np.diag([2.0, 1.0, 1.0]))
        t = Tensor3.single_entry((0, 0, 0))
        assert lower_indices(t, metric)[0, 0, 0] == pytest.approx(8.0)

    def test_wrong_variance(self, rng):
        with pytest.raises(VarianceError):
            lower_indices(rand_tensor(rng, "lower"))
        with pytest.raises(VarianceError):
            raise_indices(rand_tensor(rng, "upper"))


class TestTransform:
    def test_identity(self, rng):
        t = rand_tensor(rng)
        assert transform(t, BasisTransform.identity()).allclose(t, 0.0)

    def test_diagonal_scaling_upper(self):
        t = Tensor3.single_entry((0, 0, 0))
        r = BasisTransform(np.diag([2.0, 1.0, 1.0]))
        assert transform(t, r)[0, 0, 0] == pytest.approx(8.0)

    def test_round_trip(self, rng):
        t = rand_tensor(rng)
        r = BasisTransform(rng.uniform(-1, 1, (3, 3)) + 2 * np.eye(3))
        back = transform(transform(t, r), r.inverted())
        assert back.allclose(t, 1e-12)

    def test_group_structure(self, rng):
        t = rand_tensor(rng)
        r1 = BasisTransform(rng.uniform(-1, 1, (3, 3)) + 2 * np.eye(3))
        r2 = BasisTransform(rng.uniform(-1, 1, (3, 3)) + 2 * np.eye(3))
        assert transform(t, r1.compose(r2)).allclose(transform(transform(t, r2), r1), 1e-11)

    def test_lower_variance_uses_inverse(self, rng):
        t = rand_tensor(rng, "lower")
        r = BasisTransform(np.diag([2.0, 1.0, 1.0]))
        assert transform(t, r)[0, 0, 0] == pytest.approx(t[0, 0, 0] / 8.0)
        r = BasisTransform(rng.uniform(-1, 1, (3, 3)) + 2 * np.eye(3))
        inv = r.inverse
        expected = np.einsum("ia,jb,kc,ijk->abc", inv, inv, inv, t.components)
        assert_allclose(transform(t, r).components, expected, rtol=0, atol=1e-13)

    def test_scalar_product_invariant_under_simultaneous_transform(self, rng):
        a, b = rand_tensor(rng), rand_tensor(rng)
        r = BasisTransform(rng.uniform(-1, 1, (3, 3)) + 2 * np.eye(3))
        before = scalar_product(a, b)
        after = scalar_product(transform(a, r), transform(b, r), transform_metric(EUCLIDEAN, r))
        assert after == pytest.approx(before, rel=1e-10)

    def test_untagged_value_is_a_type_error(self):
        with pytest.raises(TypeError, match="cannot transform ndarray"):
            transform(np.zeros(3), BasisTransform.identity())

    def test_pseudo_tensor3_sign(self, rng):
        t = Tensor3(rng.uniform(-1, 1, (3, 3, 3)), "upper", parity=1)
        reflection = BasisTransform(-np.eye(3))
        proper = Tensor3(t.components, "upper", parity=0)
        flipped = transform(t, reflection)
        unflipped = transform(proper, reflection)
        assert_allclose(flipped.components, -unflipped.components)

    def test_epsilon_invariant_under_unimodular(self, rng):
        from helpers import random_sl

        eps = Tensor3(EPS_ARRAY, "lower", parity=1)
        out = transform(eps, random_sl(rng))
        assert out.allclose(eps, 1e-12)

    def test_mixed_tensor2_law(self, rng):
        r = BasisTransform(rng.uniform(-1, 1, (3, 3)) + 2 * np.eye(3))
        for variance in ("uu", "ll", "lu", "ul"):
            mat = Tensor2(rng.uniform(-1, 1, (3, 3)), variance)
            out = transform(mat, r)
            a, b = (r.matrix if letter == "u" else r.inverse.T for letter in variance)
            expected = a @ mat.components @ b.T
            assert_allclose(out.components, expected, atol=1e-13, err_msg=variance)

    def test_vector_laws(self, rng):
        r = BasisTransform(rng.uniform(-1, 1, (3, 3)) + 2 * np.eye(3))
        up = Vector3(rng.uniform(-1, 1, 3), "upper")
        lo = Vector3(rng.uniform(-1, 1, 3), "lower")
        assert_allclose(transform(up, r).components, r.matrix @ up.components)
        assert_allclose(transform(lo, r).components, r.inverse.T @ lo.components)


class TestTransformMetric:
    def test_orthogonal_preserves_euclidean(self, rng):
        r = random_orthogonal(rng)
        out = transform_metric(EUCLIDEAN, r)
        assert_allclose(out.g, np.eye(3), atol=1e-12)

    def test_identity(self):
        out = transform_metric(EUCLIDEAN, BasisTransform.identity())
        assert_allclose(out.g, np.eye(3))

    def test_diagonal_scaling(self):
        # components of upper-index vectors double in direction 1, so the
        # basis vector halves and its metric square drops to 1/4
        r = BasisTransform(np.diag([2.0, 1.0, 1.0]))
        out = transform_metric(EUCLIDEAN, r)
        assert_allclose(out.g, np.diag([0.25, 1.0, 1.0]))


class TestValueTypes:
    def test_addition_requires_matching_tags(self, rng):
        with pytest.raises(VarianceError):
            rand_tensor(rng, "upper") + rand_tensor(rng, "lower")
        with pytest.raises(VarianceError):
            Tensor3.zeros(parity=0) + Tensor3.zeros(parity=1)

    def test_components_are_read_only(self, rng):
        t = rand_tensor(rng)
        with pytest.raises(ValueError):
            t.components[0, 0, 0] = 5.0

    def test_metric_validation(self):
        with pytest.raises(TensorError):
            Metric(np.array([[1.0, 0.5, 0.0], [0.4, 1.0, 0.0], [0.0, 0.0, 1.0]]))
        with pytest.raises(TensorError):
            Metric(np.diag([1.0, -1.0, 1.0]))

    @pytest.mark.parametrize("cond", [1e3, 1e6, 1e9])
    def test_rotated_ill_conditioned_metric_accepted(self, rng, cond):
        q = random_orthogonal(rng).matrix
        g = q @ np.diag([cond, np.sqrt(cond), 1.0]) @ q.T
        metric = Metric((g + g.T) / 2.0)
        assert np.abs(metric.g @ metric.g_inv - np.eye(3)).max() <= 1e-12 * cond

    @pytest.mark.parametrize(
        "cls, shape, variances",
        [(Tensor3, (3, 3, 3), ("upper", "lower")), (Tensor2, (3, 3), ("uu", "ll", "lu", "ul")),
         (Vector3, (3,), ("upper", "lower"))],
        ids=["tensor3", "tensor2", "vector3"],
    )
    def test_validation_messages(self, cls, shape, variances):
        bad = [
            ((np.zeros((2, 2)), variances[0], 0), f"expected shape {shape}, got (2, 2)"),
            ((np.full(shape, np.nan), variances[0], 0), "components must be finite"),
            ((np.zeros(shape), "xx", 0), f"variance must be one of {variances}"),
            ((np.zeros(shape), variances[0], 2), "parity must be 0 or 1"),
        ]
        for args, message in bad:
            with pytest.raises(TensorError) as error:
                cls(*args)
            assert str(error.value) == message

    def test_trusted_tensor_skips_the_checks(self):
        components = np.full((3, 3, 3), np.nan)
        t = Tensor3._trusted(components, "sideways", 7)
        assert t.components is components and (t.variance, t.parity) == ("sideways", 7)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("smallest", [1e-310, 1e-320])
    def test_metric_whose_inverse_overflows_rejected(self, smallest):
        with pytest.raises(TensorError, match="identity check"):
            Metric(np.diag([smallest, 1.0, 1.0]))

    def test_basis_transform_validation(self):
        with pytest.raises(TensorError):
            BasisTransform(np.zeros((3, 3)))

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("scale", [1e-300, 1e300])
    def test_well_conditioned_basis_transform_accepted_at_extreme_scale(self, rng, scale):
        # the determinant under- or overflows here; the condition number does not
        for det in (1.0, -1.0):
            unit = (random_orthogonal(rng, det).matrix @ np.diag([2.0, 1.5, 1.0])
                    @ random_orthogonal(rng, 1.0).matrix)
            r = BasisTransform(scale * unit)
            assert np.abs(r.matrix @ r.inverse - np.eye(3)).max() <= 1e-14
            # a pseudo-vector picks up the sign of the determinant at any scale
            v = Vector3(rng.uniform(-1.0, 1.0, 3), parity=1)
            expected = transform(v, BasisTransform(unit)).components * scale
            assert_allclose(transform(v, r).components, expected, rtol=1e-14, atol=0.0)

    @pytest.mark.parametrize("scale", [1e-300, 1.0, 1e300])
    def test_singular_basis_transform_rejected_at_any_scale(self, rng, scale):
        singular = (random_orthogonal(rng).matrix @ np.diag([2.0, 1.0, 0.0])
                    @ random_orthogonal(rng).matrix)
        for m in (np.diag([scale, scale, 0.0]), scale * singular):
            with pytest.raises(TensorError):
                BasisTransform(m)

    @pytest.mark.parametrize("cond", [1e3, 1e6, 1e9])
    def test_rotated_ill_conditioned_basis_transform_accepted(self, rng, cond):
        m = (random_orthogonal(rng).matrix @ np.diag([cond, np.sqrt(cond), 1.0])
             @ random_orthogonal(rng).matrix)
        r = BasisTransform(m)
        assert np.abs(r.matrix @ r.inverse - np.eye(3)).max() <= 1e-12 * cond

    @pytest.mark.parametrize("cond", [1e12, 1e16])
    def test_rotated_numerically_singular_basis_transform_rejected(self, rng, cond):
        # the relative bound alone would pass these: at cond 1e16 the inverse
        # is wrong by O(1)
        m = (random_orthogonal(rng).matrix @ np.diag([1.0, 1.0, 1.0 / cond])
             @ random_orthogonal(rng).matrix)
        with pytest.raises(TensorError, match="too ill-conditioned"):
            BasisTransform(m)

    # at cond 1e17 some draws already have a non-positive eigenvalue, and
    # np.linalg.inv finds some of the others exactly singular
    @pytest.mark.parametrize("cond", [1e12, 1e14, 1e17])
    def test_rotated_numerically_singular_metric_rejected(self, rng, cond):
        for _ in range(20):
            q = random_orthogonal(rng).matrix
            g = q @ np.diag([1.0, 1.0, 1.0 / cond]) @ q.T
            with pytest.raises(TensorError):
                Metric((g + g.T) / 2.0)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("smallest", [1e-310, 1e-320])
    def test_basis_transform_whose_inverse_overflows_rejected(self, smallest):
        with pytest.raises(TensorError, match="too ill-conditioned"):
            BasisTransform(np.diag([smallest, 1.0, 1.0]))

    def test_tensor2_variance_tags(self):
        with pytest.raises(TensorError):
            Tensor2(np.eye(3), "xx")

    def test_perm_parsing(self):
        assert Perm.from_cycle("(12)").label == "(12)"
        assert Perm.from_cycle("(321)") == Perm.from_cycle("(132)")
        with pytest.raises(ValueError):
            Perm.from_cycle("(14)")
