"""Homogeneity: every decomposition is linear, so scaling the input by ``c``
scales every part, vector and pseudo-scalar by ``c`` and every norm by
``|c|``, leaves the shares and the symmetry class alone, and does so from
1e-150 to 1e150.  Scaling the metric instead scales every report norm by a
power 3/2 of the factor and leaves the shares alone; ``tensor.norm`` is the
report's input norm at every scale of both."""

import dataclasses

import numpy as np
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from trideco import constitutive, gl3, o3, report, so3
from trideco.tensor import EUCLIDEAN, Metric, Tensor3, TensorError, norm

METRICS = {"euclid": EUCLIDEAN, "diag211": Metric(np.diag([2.0, 1.0, 1.0]))}

#: (level, mode, family) of every report shape
REPORTS = (
    *(("gl3", "generic", family) for family in (None, *gl3.FAMILIES)),
    *((level, "generic", None) for level in ("o3", "sl3", "so3")),
    ("o3", "piezo", None),
    ("o3", "hall", None),
)

#: the public decompositions, each on the input shape it takes
DECOMPOSITIONS = {
    "gl3": lambda x, metric: gl3.decompose(Tensor3(x), "tilde"),
    "o3": lambda x, metric: o3.decompose(Tensor3(x), metric),
    "so3": lambda x, metric: so3.so3_representation(Tensor3(x), metric),
    "piezo": lambda x, metric: constitutive.piezo_decompose(
        constitutive.PiezoTensor(Tensor3(_pair_symmetric(x))), metric),
    "hall": lambda x, metric: constitutive.hall_decompose(
        constitutive.HallTensor(Tensor3(_pair_antisymmetric(x), "lower")), metric),
}


def _pair_symmetric(x):
    return (x + x.transpose(0, 2, 1)) / 2.0


def _pair_antisymmetric(x):
    return (x - x.transpose(1, 0, 2)) / 2.0


def _report_input(x, mode):
    if mode == "piezo":
        return Tensor3(_pair_symmetric(x))
    if mode == "hall":
        return Tensor3(_pair_antisymmetric(x), "lower")
    return Tensor3(x)


def _fields(result):
    """(name, value) of every tensor, matrix, vector and scalar field."""
    for field in dataclasses.fields(result):
        value = getattr(result, field.name)
        if hasattr(value, "components"):
            yield field.name, value.components
        elif isinstance(value, float):
            yield field.name, np.array(value)


@settings(max_examples=100, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    exponent=st.integers(-150, 150),
    negative=st.booleans(),
    metric_name=st.sampled_from(sorted(METRICS)),
)
def test_scaling_the_input_scales_every_result(seed, exponent, negative, metric_name):
    metric = METRICS[metric_name]
    c = (-1.0 if negative else 1.0) * 10.0**exponent
    x = np.random.default_rng(seed).uniform(-1.0, 1.0, (3, 3, 3))
    # Bounds are relative to the scaled input's size: its Frobenius norm for
    # components, its metric norm for norms.  Over 90,000 reports and 50,000
    # decompositions the largest moves were 2.5e-16 (parts), 1.0e-16
    # (pseudo-scalar), 8.1e-16 (norms), 5.4e-16 (decomposition fields, whose
    # matrices carry the metric's factor of 2) and 1.3e-15 (shares, each a
    # ratio of two squared norms); each bound is about twice or more of that.
    size = abs(c) * np.linalg.norm(x)

    for level, mode, family in REPORTS:
        base = report.build_report(_report_input(x, mode), level, family, mode, metric)
        scaled = report.build_report(_report_input(c * x, mode), level, family, mode, metric)
        where = (level, mode, family)
        norm_bound = 2e-15 * abs(c) * base.input_summary["norm"]
        assert scaled.input_summary["symmetry_class"] == base.input_summary["symmetry_class"]
        assert abs(scaled.input_summary["norm"] - abs(c) * base.input_summary["norm"]) <= norm_bound
        for part, base_part in zip(scaled.parts, base.parts):
            moved = np.abs(part.tensor.components - c * base_part.tensor.components).max()
            assert moved <= 1e-15 * size, where
            assert abs(part.norm - abs(c) * base_part.norm) <= norm_bound, where
            assert abs(part.share - base_part.share) <= 4e-15, where
        if base.pseudo_scalar is not None:
            assert abs(scaled.pseudo_scalar - c * base.pseudo_scalar) <= 1e-15 * size, where

    for name, decompose in DECOMPOSITIONS.items():
        base, scaled = decompose(x, metric), decompose(c * x, metric)
        for (field, value), (_, base_value) in zip(_fields(scaled), _fields(base)):
            assert np.abs(value - c * base_value).max() <= 2e-15 * size, (name, field)


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    exponent=st.integers(-150, 150),
    k=st.integers(-100, 100),
    metric_name=st.sampled_from(sorted(METRICS)),
)
# data at 1e-100 under 1e-50 * I once reported every norm and share as 0, and
# data at 1e-150 under 1e-6 * I shares summing to 0.9999955
@example(seed=0, exponent=-100, k=50, metric_name="euclid")
@example(seed=0, exponent=-150, k=6, metric_name="euclid")
# unit data under 1e-110 * I once reported every norm and share as 0, and
# data at 1e-100 under 1e110 * I overflowed the contraction for norms near 1e65
@example(seed=0, exponent=0, k=110, metric_name="euclid")
@example(seed=0, exponent=-100, k=-110, metric_name="euclid")
def test_scaling_the_metric_scales_every_norm(seed, exponent, k, metric_name):
    # A metric c * g scales the contraction of upper indices by c**3 and that
    # of lower ones, which Hall tensors carry, by c**-3, so every norm by the
    # power 3/2 of the factor and no share at all.  A positive k shrinks the
    # metric for upper variance and grows it for Hall; either way the norms
    # scale by about 10**(exponent - 1.5 k).  The contraction at absolute
    # scale under- or overflows at metrics far from 1 even where the norms
    # are representable.  The report's Gram matrix, the squared norms, must
    # stay finite, which bounds the norms near 1e150.
    assume(exponent - 1.5 * k <= 150)
    base_metric = METRICS[metric_name]
    x = np.random.default_rng(seed).uniform(-1.0, 1.0, (3, 3, 3)) * 10.0**exponent
    for level, mode, family in REPORTS:
        c = 10.0**k if mode == "hall" else 10.0**-k
        factor = (1.0 / c if mode == "hall" else c) ** 1.5
        t = _report_input(x, mode)
        base = report.build_report(t, level, family, mode, base_metric)
        scaled = report.build_report(t, level, family, mode, Metric(c * base_metric.g))
        where = (level, mode, family)
        norm_bound = 2e-15 * factor * base.input_summary["norm"]
        assert abs(scaled.input_summary["norm"] - factor * base.input_summary["norm"]) \
            <= norm_bound, where
        for part, base_part in zip(scaled.parts, base.parts):
            assert abs(part.norm - factor * base_part.norm) <= norm_bound, where
            assert abs(part.share - base_part.share) <= 4e-15, where


@settings(max_examples=100, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    exponent=st.integers(-150, 150),
    k=st.integers(-100, 100),
    mode=st.sampled_from(["generic", "hall"]),
)
# data at 1e-150 under about 1e-10 * g once had norm 0.0 where the report's
# was near 1e-165, and data at 1e-100 under about 1e-60 * g likewise
@example(seed=0, exponent=-150, k=-17, mode="generic")
@example(seed=0, exponent=-100, k=-100, mode="generic")
def test_the_norm_is_the_reports_input_norm(seed, exponent, k, mode):
    # tensor.norm scales as the report does, so it neither under- nor
    # overflows where the report's norm is representable
    x = np.random.default_rng(seed).uniform(-1.0, 1.0, (3, 3, 3)) * 10.0**exponent
    t = _report_input(x, mode)
    metric = Metric(np.diag([2.0, 1.0, 1.0]) * 4.0**k)
    try:
        expected = report.build_report(t, "o3", mode=mode, metric=metric).input_summary["norm"]
    except TensorError:
        assume(False)
    assert abs(norm(t, metric) - expected) <= 1e-14 * expected
