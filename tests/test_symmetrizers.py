import dataclasses

import numpy as np
import pytest
from hypothesis import given, strategies as st

from trideco.symmetrizers import (
    FULL_ANTISYMMETRIZER,
    FULL_SYMMETRIZER,
    IDENTITY_OP,
    MIXED_HAT,
    MIXED_PAIRS,
    MIXED_PLAIN,
    MIXED_TILDE,
    GroupAlgebraElement,
    YoungDiagram,
    gl3_subspace_dimension,
    hook_dimension_s3,
)
from trideco.permutations import S3
from trideco.tensor import Tensor3

from helpers import rand_tensor


def element(*terms):
    return GroupAlgebraElement.from_terms(terms)


class TestComposition:
    def test_mixed_plain_first_expansion(self):
        sym = element((1, "e"), (1, "(12)"))
        anti = element((1, "e"), (-1, "(13)"))
        expected = element((1, "e"), (1, "(12)"), (-1, "(13)"), (-1, "(132)"))
        assert (sym @ anti) == expected
        assert MIXED_PLAIN[0] == expected

    def test_opposing_two_slot_operators_annihilate(self):
        sym = element((1, "e"), (1, "(12)"))
        anti = element((1, "e"), (-1, "(12)"))
        assert (sym @ anti).is_zero

    def test_cycle_product(self):
        c = element((1, "(123)"))
        assert (c @ c) == element((1, "(132)"))

    def test_full_symmetrizer_squares(self):
        assert (FULL_SYMMETRIZER @ FULL_SYMMETRIZER) == 6 * FULL_SYMMETRIZER
        assert (FULL_ANTISYMMETRIZER @ FULL_ANTISYMMETRIZER) == 6 * FULL_ANTISYMMETRIZER

    def test_identity_resolution(self, rng):
        combined = (
            FULL_SYMMETRIZER * (1 / 6)
            + FULL_ANTISYMMETRIZER * (1 / 6)
            + MIXED_PLAIN[0] * (1 / 3)
            + MIXED_PLAIN[1] * (1 / 3)
        )
        t = rand_tensor(rng)
        assert combined.apply(t).allclose(t, 1e-15)

    def test_all_families_sum_to_same_operator(self, rng):
        t = rand_tensor(rng)
        outputs = [
            ((pair[0] + pair[1]) * (1 / 3)).apply(t)
            for pair in (MIXED_PLAIN, MIXED_TILDE, MIXED_HAT)
        ]
        assert outputs[0].allclose(outputs[1], 1e-15)
        assert outputs[0].allclose(outputs[2], 1e-15)

    def test_alternative_cycle_spelling(self):
        # "(321)" names the same element as "(132)"; the full symmetrizer is
        # the sum over the whole group either way
        rebuilt = element(
            (1, "e"), (1, "(12)"), (1, "(13)"), (1, "(23)"), (1, "(123)"), (1, "(321)")
        )
        assert rebuilt == FULL_SYMMETRIZER


def transpose_sum(op, x):
    """The slot action as an explicit sum of scaled transposes, one per coefficient."""
    batch = tuple(range(x.ndim - 3))
    out = np.zeros(x.shape)
    for coefficient, perm in zip(op.coeffs, S3):
        axes = tuple(len(batch) + a for a in perm.transpose_axes())
        out = out + coefficient * np.transpose(x, batch + axes)
    return out


GATHER_CASES = {
    **{f"perm{perm.label}": element((1, perm)) for perm in S3},
    "full_symmetrizer": FULL_SYMMETRIZER,
    "full_antisymmetrizer": FULL_ANTISYMMETRIZER,
    **{f"{family}_{i + 1}": pair[i] for family, pair in MIXED_PAIRS.items() for i in (0, 1)},
    "random": GroupAlgebraElement(tuple(np.random.default_rng(3).uniform(-1.0, 1.0, 6))),
}


@pytest.mark.parametrize("shape", [(3, 3, 3), (5, 3, 3, 3), (2, 4, 3, 3, 3)],
                         ids=["single", "batch5", "batch2x4"])
@pytest.mark.parametrize("name", list(GATHER_CASES))
def test_on_components_matches_the_transpose_sum(rng, name, shape):
    op = GATHER_CASES[name]
    x = rng.uniform(-1.0, 1.0, shape)
    out = op.on_components(x)
    assert out.shape == shape
    # the two sums add up to six terms in different orders; scale the rounding
    # bound by the coefficients' absolute sum (6 for the full symmetrizer)
    bound = 1e-15 * np.max(np.abs(x)) * sum(abs(c) for c in op.coeffs)
    assert np.max(np.abs(out - transpose_sum(op, x))) <= bound


class TestApply:
    def test_orbit_average(self):
        t = Tensor3.single_entry((0, 1, 2))
        averaged = (FULL_SYMMETRIZER * (1 / 6)).apply(t)
        for index in ((0, 1, 2), (1, 0, 2), (2, 1, 0), (0, 2, 1), (1, 2, 0), (2, 0, 1)):
            assert averaged[index] == pytest.approx(1 / 6)

    def test_identity_op(self, rng):
        t = rand_tensor(rng)
        assert IDENTITY_OP.apply(t).allclose(t, 0.0)

    def test_mixed_plain_matches_index_expansion(self, rng):
        t = rand_tensor(rng)
        out = MIXED_PLAIN[0].apply(t)
        c = t.components
        expected = c + np.transpose(c, (1, 0, 2)) - np.transpose(c, (2, 1, 0)) \
            - np.transpose(c, (1, 2, 0))
        np.testing.assert_allclose(out.components, expected, atol=1e-15)

    @given(
        coeffs_a=st.tuples(*([st.integers(-3, 3)] * 6)),
        coeffs_b=st.tuples(*([st.integers(-3, 3)] * 6)),
        scale=st.integers(-4, 4),
    )
    def test_application_is_linear_in_operator(self, coeffs_a, coeffs_b, scale):
        rng = np.random.default_rng(99)
        t = rand_tensor(rng)
        a = GroupAlgebraElement(coeffs_a)
        b = GroupAlgebraElement(coeffs_b)
        combined = (a + float(scale) * b).apply(t)
        separate = a.apply(t) + float(scale) * b.apply(t)
        assert combined.allclose(separate, 1e-13)

    @given(
        coeffs_a=st.tuples(*([st.integers(-3, 3)] * 6)),
        coeffs_b=st.tuples(*([st.integers(-3, 3)] * 6)),
    )
    def test_composition_matches_nested_application(self, coeffs_a, coeffs_b):
        rng = np.random.default_rng(7)
        t = rand_tensor(rng)
        a = GroupAlgebraElement(coeffs_a)
        b = GroupAlgebraElement(coeffs_b)
        assert (a @ b).apply(t).allclose(a.apply(b.apply(t)), 1e-12)


class TestYoung:
    @pytest.mark.parametrize(
        "rows,expected", [((3,), 1), ((1, 1, 1), 1), ((2, 1), 2)]
    )
    def test_hook_dimensions(self, rows, expected):
        assert hook_dimension_s3(YoungDiagram(rows)) == expected

    @pytest.mark.parametrize(
        "rows,expected", [((3,), 10), ((1, 1, 1), 1), ((2, 1), 8)]
    )
    def test_subspace_dimensions(self, rows, expected):
        assert gl3_subspace_dimension(YoungDiagram(rows)) == expected

    def test_dimension_bookkeeping(self):
        total = sum(
            gl3_subspace_dimension(YoungDiagram(rows)) * hook_dimension_s3(YoungDiagram(rows))
            for rows in ((3,), (1, 1, 1), (2, 1))
        )
        assert total == 27

    @pytest.mark.parametrize("rows", [(), (0,), (1, 2), (4,), (2, 2)])
    def test_invalid_partitions(self, rows):
        with pytest.raises(ValueError):
            YoungDiagram(rows)

    def test_hook_lengths_of_bent_shape(self):
        diagram = YoungDiagram((2, 1))
        assert [diagram.hook_length(r, c) for r, c in diagram.cells()] == [3, 1, 1]


def test_families_registry_is_consistent():
    assert set(MIXED_PAIRS) == {"plain", "tilde", "hat"}
    for pair in MIXED_PAIRS.values():
        assert len(pair) == 2


def test_the_kept_coefficient_array_is_not_a_field():
    # equality and hashing read the coefficient tuple alone
    first = GroupAlgebraElement((1, 2, 0, 0, 0, -1))
    second = GroupAlgebraElement((1.0, 2.0, 0.0, 0.0, 0.0, -1.0))
    assert [f.name for f in dataclasses.fields(GroupAlgebraElement)] == ["coeffs"]
    assert first == second and hash(first) == hash(second)
    assert "_array" not in repr(first)
    assert not first._array.flags.writeable
    assert np.array_equal(first._array, first.coeffs)
