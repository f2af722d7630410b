"""Reports and the so3 round trip under strongly anisotropic metrics.

A metric is a change of basis: with ``g = A.T @ A``, the g-parts of ``x =
rho(A^-1) y``, ``rho(B) = B (x) B (x) B`` on every slot, have exactly the
Euclidean norms and shares of the parts of ``y``.  For ``A = [[1, s, 0],
[0, 1, s], [0, 0, 1]]`` with ``s`` a power of two, ``g`` is an integer
matrix and ``x`` is exact in floats for integer ``y``; at ``s = 32`` the
condition number of ``g`` is 1.1e9.  Lower-variance (Hall) input is
``x = rho(A.T) y``.
"""

import json

import numpy as np
import pytest

from trideco import gl3, o3, report, so3
from trideco.cli import main
from trideco.tensor import Metric, Tensor3, max_abs

from helpers import random_orthogonal

#: (level, family, mode) of every report shape
SHAPES = [("gl3", None, "generic"), *[("gl3", f, "generic") for f in gl3.FAMILIES],
          ("o3", None, "generic"), ("sl3", None, "generic"), ("so3", None, "generic"),
          ("o3", None, "piezo"), ("o3", None, "hall")]
SHAPE_IDS = [f"{level}-{family}-{mode}" for level, family, mode in SHAPES]
#: the shapes whose parts are mutually orthogonal under every metric
ORTHOGONAL = [shape for shape in SHAPES if shape[0] != "so3" and shape[1] is None]


def _on_slots(b, y):
    return np.einsum("ia,jb,kc,abc->ijk", b, b, b, y)


def _exact_case(s, y, mode):
    """The metric and the tensor ``x`` whose g-report is ``y``'s Euclidean
    report, and the report input made of ``y``."""
    a = np.array([[1.0, s, 0.0], [0.0, 1.0, s], [0.0, 0.0, 1.0]])
    if mode == "piezo":
        y = y + y.transpose(0, 2, 1)
    if mode == "hall":
        y = y - y.transpose(1, 0, 2)
        return Metric(a.T @ a), Tensor3(_on_slots(a.T, y), "lower"), Tensor3(y, "lower")
    return Metric(a.T @ a), Tensor3(_on_slots(np.linalg.inv(a), y)), Tensor3(y)


@pytest.mark.parametrize("s", [2.0, 4.0, 8.0, 16.0, 32.0])
@pytest.mark.parametrize("shape", SHAPES, ids=SHAPE_IDS)
def test_a_metric_reports_the_euclidean_numbers_of_its_frame(s, shape):
    level, family, mode = shape
    rng = np.random.default_rng(int(s))
    for _ in range(3):
        metric, x, y = _exact_case(s, rng.integers(-8, 9, (3, 3, 3)).astype(float), mode)
        expected = report.build_report(y, level, family, mode)
        result = report.build_report(x, level, family, mode, metric)
        scale = expected.input_summary["norm"]
        assert abs(result.input_summary["norm"] - scale) <= 1e-14 * scale
        for part, reference in zip(result.parts, expected.parts):
            assert abs(part.share - reference.share) <= 1e-14
            assert abs(part.norm - reference.norm) <= 1e-14 * scale
        assert max_abs(result.gram - expected.gram) <= 1e-14 * expected.gram.diagonal().max()


def test_the_cli_reports_an_anisotropic_metric_as_its_frame(tmp_path, capsys):
    metric, x, _ = _exact_case(32.0, np.random.default_rng(32).integers(-8, 9, (3, 3, 3))
                               .astype(float), "generic")
    paths = {name: tmp_path / f"{name}.json" for name in ("t", "g", "report")}
    paths["t"].write_text(json.dumps({"variance": "upper", "parity": 0,
                                      "components": x.components.tolist()}))
    paths["g"].write_text(json.dumps({"g": metric.g.tolist()}))
    assert main(["--input", str(paths["t"]), "--metric", str(paths["g"]), "--level", "o3",
                 "--json", str(paths["report"])]) == 0
    assert "not mutually orthogonal" not in capsys.readouterr().out
    document = json.loads(paths["report"].read_text())
    assert abs(sum(part["share"] for part in document["parts"]) - 1.0) <= 1e-14


def _rotated_metric(rng, condition):
    q = random_orthogonal(rng).matrix
    g = q @ np.diag([condition**-0.5, 1.0, condition**0.5]) @ q.T
    return Metric((g + g.T) / 2.0)


def _report_input(rng, mode):
    x = rng.uniform(-1.0, 1.0, (3, 3, 3))
    if mode == "piezo":
        return Tensor3((x + x.transpose(0, 2, 1)) / 2.0)
    if mode == "hall":
        return Tensor3((x - x.transpose(1, 0, 2)) / 2.0, "lower")
    return Tensor3(x)


@pytest.mark.parametrize("condition", [1e3, 1e6, 1e9])
@pytest.mark.parametrize("shape", SHAPES, ids=SHAPE_IDS)
def test_reports_under_rotated_metrics_resolve_the_input(condition, shape):
    # the parts sum to the input, so the shares and twice the off-diagonal
    # Gram entries, over the input's squared norm, total 1; orthogonal parts
    # have no off-diagonal entries, and their shares alone total 1
    level, family, mode = shape
    rng = np.random.default_rng(int(np.log10(condition)))
    for _ in range(5):
        metric = _rotated_metric(rng, condition)
        result = report.build_report(_report_input(rng, mode), level, family, mode, metric)
        gram = result.gram
        off = gram - np.diag(gram.diagonal())
        total = sum(part.share for part in result.parts)
        assert abs(total + off.sum() / result.input_summary["norm"] ** 2 - 1.0) <= 1e-13
        if shape in ORTHOGONAL:
            assert np.abs(off).max() <= 1e-13 * gram.diagonal().max()
            assert abs(total - 1.0) <= 1e-13


@pytest.mark.parametrize("condition", [1e7, 1e8, 1e9])
def test_the_so3_round_trip_accepts_every_rotated_metric(condition):
    # the traces of the lowered matrices carry rounding of |lowered| |g_inv|,
    # which is what reassemble judges them against
    rng = np.random.default_rng(1)
    for _ in range(50):
        metric = _rotated_metric(rng, condition)
        t = Tensor3(rng.uniform(-1.0, 1.0, (3, 3, 3)))
        rebuilt = so3.reassemble(so3.so3_representation(t, metric), metric)
        cond = np.linalg.cond(metric.g)
        assert (rebuilt - t).max_abs() <= 1e-15 * cond * t.max_abs()


@pytest.mark.parametrize("condition", [1e3, 1e6, 1e9])
def test_so3_and_o3_split_off_one_r_part(condition):
    # so3 takes r_part by the table's rule on the whitened traces, the trace
    # part reassemble rebuilds; o3 maps the whitened r_part back.  Both are
    # the exact r_part to the rounding of the metric's condition number
    rng = np.random.default_rng(1)
    for _ in range(50):
        metric = _rotated_metric(rng, condition)
        t = Tensor3(rng.uniform(-1.0, 1.0, (3, 3, 3)))
        expected = o3.decompose(t, metric).r_part
        found = so3.so3_representation(t, metric).r_part
        assert (found - expected).max_abs() <= 1e-15 * np.linalg.cond(metric.g) \
            * expected.max_abs()
