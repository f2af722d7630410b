"""The shared evaluation of the part table against its single-part forms."""

import gc

import numpy as np
import pytest

from trideco import parts
from trideco.parts import PARTS
from trideco.tensor import EUCLIDEAN, Metric

METRICS = [EUCLIDEAN, Metric(np.diag([2.0, 1.0, 1.0]))]


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
