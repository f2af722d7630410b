"""Homogeneity: every decomposition is linear, so scaling the input by ``c``
scales every part, vector and pseudo-scalar by ``c`` and every norm by
``|c|``, leaves the shares and the symmetry class alone, and does so from
1e-150 to 1e150."""

import dataclasses

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from trideco import constitutive, gl3, o3, report, so3
from trideco.tensor import EUCLIDEAN, Metric, Tensor3

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
