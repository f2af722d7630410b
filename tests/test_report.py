import importlib.util
import inspect
import json
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trideco import constitutive as cons
from trideco import gl3, o3, oracle, parts, report, sl3, tensorio
from trideco.permutations import S3
from trideco.symmetrizers import GroupAlgebraElement
from trideco.tensor import EUCLIDEAN, Metric, Tensor3, TensorError

from helpers import unit_pair_antisymmetric, unit_pair_symmetric, unit_tensor

DIAG_METRIC = Metric(np.diag([2.0, 1.0, 1.0]))

_GL3 = [("sym", "symmetric"), ("antisym", "antisymmetric")]
_O3 = [("sym_trace", "k_part"), ("sym_traceless", "r_part"), ("antisym", "antisymmetric")]

#: (level, family, mode) of every report shape, with its (label, operator) pairs
REPORT_SHAPES = [
    (("gl3", None, "generic"), _GL3 + [("mixed", "residue")]),
    *[
        (("gl3", family, "generic"),
         _GL3 + [("mixed_1", f"n1_{family}"), ("mixed_2", f"n2_{family}")])
        for family in gl3.FAMILIES
    ],
    (("o3", None, "generic"), _O3 + [("mixed_trace", "m_part"), ("mixed_traceless", "p_part")]),
    (("sl3", None, "generic"), _GL3 + [("mixed", "residue")]),
    (("so3", None, "generic"), _O3 + [
        ("mixed_1_trace", "m1_part"), ("mixed_1_traceless", "p1_part"),
        ("mixed_2_trace", "m2_part"), ("mixed_2_traceless", "p2_part"),
    ]),
    (("o3", None, "piezo"), [("sym_trace", "piezo_k"), ("sym_traceless", "piezo_r"),
                             ("mixed_trace", "piezo_m"), ("mixed_traceless", "piezo_p")]),
    (("o3", None, "hall"), [("antisym", "hall_a"), ("mixed_trace", "hall_m"),
                            ("mixed_traceless", "hall_p")]),
]


def _symmetrized(c, signed=False):
    """The fully symmetric, or with ``signed`` antisymmetric, part of ``c``
    as a sum of transposes."""
    return sum((perm.sign if signed else 1) * np.transpose(c, perm.transpose_axes())
               for perm in S3) / 6.0


def _reference_class(c, rel_tol=report.CLASSIFY_REL_TOL):
    """The symmetry class of ``c`` by subtracting transposes, one class at a
    time: a reference that does not read the defect table."""
    scale = np.abs(c).max()
    if scale == 0.0:
        return "fully-symmetric"
    differences = (
        ("fully-symmetric", c - _symmetrized(c)),
        ("fully-antisymmetric", c - _symmetrized(c, signed=True)),
        ("pair-symmetric-jk", c - np.transpose(c, (0, 2, 1))),
        ("pair-antisymmetric-ij", c + np.transpose(c, (1, 0, 2))),
    )
    return next((name for name, d in differences if np.abs(d).max() <= rel_tol * scale),
                "generic")


#: each class and a projection of a random tensor into it
_IN_CLASS = {
    "fully-symmetric": _symmetrized,
    "fully-antisymmetric": lambda c: _symmetrized(c, signed=True),
    "pair-symmetric-jk": lambda c: (c + np.transpose(c, (0, 2, 1))) / 2.0,
    "pair-antisymmetric-ij": lambda c: (c - np.transpose(c, (1, 0, 2))) / 2.0,
    "generic": lambda c: c,
}


class TestClassify:
    @settings(max_examples=100, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        exponent=st.floats(-150.0, 150.0),
        symmetry_class=st.sampled_from(sorted(_IN_CLASS)),
    )
    def test_a_tensor_built_in_a_class_has_that_class(self, seed, exponent, symmetry_class):
        x = np.random.default_rng(seed).uniform(-1.0, 1.0, (3, 3, 3)) * 10.0**exponent
        t = Tensor3(_IN_CLASS[symmetry_class](x))
        assert report.classify_symmetry(t) == symmetry_class

    def test_the_classify_signature_has_no_trusted_parts(self):
        assert list(inspect.signature(report.classify_symmetry).parameters) == ["t", "rel_tol"]

    def test_epsilon(self):
        assert report.classify_symmetry(sl3.epsilon_tensor()) == "fully-antisymmetric"

    def test_voigt_expanded_tensor(self, rng):
        d = tensorio.voigt_to_tensor(rng.uniform(-1, 1, (3, 6)))
        assert report.classify_symmetry(d.tensor) == "pair-symmetric-jk"

    def test_generic(self, rng):
        assert report.classify_symmetry(unit_tensor(rng)) == "generic"

    def test_pair_antisymmetric(self, rng):
        assert report.classify_symmetry(unit_pair_antisymmetric(rng)) == "pair-antisymmetric-ij"

    def test_most_specific_wins(self, rng):
        # fully symmetric tensors are also pair-symmetric; the finer tag wins
        s = gl3.symmetric_part(unit_tensor(rng))
        assert report.classify_symmetry(s) == "fully-symmetric"

    def test_zero_tensor(self):
        assert report.classify_symmetry(Tensor3.zeros()) == "fully-symmetric"

    def test_threshold_is_relative(self, rng):
        d = tensorio.voigt_to_tensor(rng.uniform(-1, 1, (3, 6))).tensor
        noisy = Tensor3(d.components + 1e-13 * rng.uniform(-1, 1, (3, 3, 3)))
        assert report.classify_symmetry(noisy) == "pair-symmetric-jk"


class TestBuildReport:
    def test_share_bookkeeping_for_orthogonal_parts(self, rng):
        result = report.build_report(unit_tensor(rng), level="o3")
        assert sum(p.share for p in result.parts) == pytest.approx(1.0, abs=1e-9)
        assert result.residual <= 1e-12

    def test_so3_branches_overlap_but_reassemble(self, rng):
        result = report.build_report(unit_tensor(rng), level="so3")
        gram = np.asarray(result.gram)
        off = np.abs(gram - np.diag(np.diag(gram)))
        assert np.max(off) > 1e-6  # the two mixed branches are not orthogonal
        assert result.residual <= 1e-12

    def test_gl3_without_family_reports_three_parts(self, rng):
        result = report.build_report(unit_tensor(rng), level="gl3")
        assert [p.name for p in result.parts] == ["sym", "antisym", "mixed"]
        assert [p.dim for p in result.parts] == [10, 1, 16]

    def test_unknown_level_and_mode(self, rng):
        with pytest.raises(ValueError):
            report.build_report(unit_tensor(rng), level="u3")
        with pytest.raises(ValueError):
            report.build_report(unit_tensor(rng), mode="magnetic")

    @pytest.mark.parametrize("mode", report.MODES)
    @pytest.mark.parametrize("level", report.LEVELS)
    def test_an_unknown_family_is_rejected_at_every_level(self, rng, level, mode):
        t = _INPUTS.get(mode, unit_tensor)(rng)
        with pytest.raises(ValueError, match="unknown family"):
            report.build_report(t, level, family="bogus", mode=mode)
        # a known family is ignored outside gl3, and so3 reports the plain one
        result = report.build_report(t, level, family="tilde", mode=mode)
        if (level, mode) == ("gl3", "generic"):
            assert result.family == "tilde"
        else:
            assert result.to_dict() == report.build_report(t, level, mode=mode).to_dict()
            assert result.family == ("plain" if (level, mode) == ("so3", "generic") else None)

    def test_a_report_cannot_be_changed_through_its_document_or_gram(self, rng):
        result = report.build_report(unit_tensor(rng), level="o3")
        text = result.render_text()
        document = result.to_dict()
        document["input"]["norm"] = -1.0
        assert result.render_text() == text
        assert not result.gram.flags.writeable
        assert all(not p.tensor.components.flags.writeable for p in result.parts)

    def test_text_rendering_mentions_nonorthogonality(self, rng):
        # the flag is relative to the largest Gram diagonal, so it holds at any scale
        for scale in (1.0, 1e8, 1e-150):
            result = report.build_report(unit_tensor(rng) * scale, level="so3")
            assert "not mutually orthogonal" in result.render_text()
            o3_result = report.build_report(unit_tensor(rng) * scale, level="o3")
            assert "not mutually orthogonal" not in o3_result.render_text()


#: the input of each report shape; ``level`` names the mode for piezo and Hall
_INPUTS = {"piezo": unit_pair_symmetric, "hall": unit_pair_antisymmetric}


@pytest.mark.parametrize(
    "level, gathers",
    [("gl3", 2), ("o3", 2), ("sl3", 2), ("so3", 4), ("piezo", 1), ("hall", 1)],
)
def test_each_projection_is_evaluated_once(monkeypatch, rng, level, gathers):
    # the first report of a shape compiles its Euclidean stack with one walk
    # of the rules its parts refine, which gathers each projection they
    # need once: s and a at the generic levels, plus the two plain mixed
    # components at so3; the piezo slice keeps only s and the Hall slice
    # only a.  The symmetry class gathers the input itself, through no
    # group algebra element.  Every other metric reads that stack through
    # its whitening, and a compiled report is one product: neither gathers.
    calls = []
    gather = GroupAlgebraElement.on_components

    def counted(self, x):
        calls.append(self)
        return gather(self, x)

    t = _INPUTS.get(level, unit_tensor)(rng)
    mode = level if level in _INPUTS else "generic"
    shape, level = level, "o3" if level in _INPUTS else level
    names = report._OPERATORS[shape, "plain" if shape == "so3" else None]
    monkeypatch.delitem(EUCLIDEAN._cache, names, raising=False)
    monkeypatch.setattr(GroupAlgebraElement, "on_components", counted)
    report.build_report(t, level, mode=mode, metric=Metric(np.eye(3)))
    assert len(calls) == len(set(calls)) == gathers
    calls.clear()
    report.build_report(t, level, mode=mode, metric=Metric(np.diag([2.0, 1.0, 1.0])))
    report.build_report(t, level, mode=mode)
    assert len(calls) == 0
    parts.evaluate(names, t.components, EUCLIDEAN)
    assert len(calls) == gathers


def _public_parts(t, level, family, mode, metric):
    """The parts of ``t`` from the public decomposition matching a report."""
    if mode == "piezo":
        d = cons.piezo_decompose(cons.PiezoTensor(t), metric)
        return [d.k_part, d.r_part, d.m_part, d.p_part]
    if mode == "hall":
        h = cons.hall_decompose(cons.HallTensor(t), metric)
        return [h.a, h.m_part, h.p_part]
    if level == "gl3":
        g = gl3.decompose(t, family)
        return [g.s, g.a, g.n1, g.n2]
    o = o3.decompose(t, metric)
    return [o.k_part, o.r_part, o.a, o.m_part, o.p_part]


@pytest.mark.parametrize("metric", [EUCLIDEAN, DIAG_METRIC], ids=["euclid", "diag211"])
@pytest.mark.parametrize(
    "level, family, mode",
    [("o3", None, "generic"), *[("gl3", f, "generic") for f in gl3.FAMILIES],
     ("o3", None, "piezo"), ("o3", None, "hall")],
    ids=["o3", *[f"gl3-{f}" for f in gl3.FAMILIES], "piezo", "hall"],
)
def test_report_and_public_call_agree_bit_for_bit(rng, metric, level, family, mode):
    # both read the one part table, so they compute the same arithmetic
    t = _INPUTS.get(mode, unit_tensor)(rng)
    result = report.build_report(t, level=level, family=family, mode=mode, metric=metric)
    public = _public_parts(t, level, family, mode, metric)
    assert len(result.parts) == len(public)
    for part, expected in zip(result.parts, public):
        assert np.array_equal(part.tensor.components, expected.components)


class TestReportParts:
    @pytest.mark.parametrize("metric", [EUCLIDEAN, DIAG_METRIC], ids=["euclid", "diag211"])
    @pytest.mark.parametrize(
        "shape,expected", REPORT_SHAPES, ids=[f"{s[0]}-{s[1]}-{s[2]}" for s, _ in REPORT_SHAPES]
    )
    def test_parts_match_the_oracle_and_the_ledger(self, rng, metric, shape, expected):
        level, family, mode = shape
        t = {"generic": unit_tensor, "piezo": unit_pair_symmetric,
             "hall": unit_pair_antisymmetric}[mode](rng)
        result = report.build_report(t, level=level, family=family, mode=mode, metric=metric)
        assert [p.name for p in result.parts] == [label for label, _ in expected]
        for part, (_, name) in zip(result.parts, expected):
            applied = oracle.materialize(name, metric).apply(t.components)
            assert np.max(np.abs(part.tensor.components - applied)) <= 1e-12
            assert part.dim == oracle.DIMENSION_LEDGER[name]


@pytest.mark.parametrize("level", report.LEVELS)
def test_a_report_whose_gram_overflows_is_rejected(rng, level):
    # beyond the supported scale the Gram entries overflow to inf
    with pytest.raises(TensorError, match="not finite"):
        report.build_report(unit_tensor(rng) * 1e160, level)
    report.build_report(unit_tensor(rng) * 1e150, level)


def _library():
    spec = importlib.util.spec_from_file_location(
        "perfbench_library", Path(__file__).resolve().parent.parent / "perfbench/library.py"
    )
    module = importlib.util.module_from_spec(spec)
    # its dataclasses resolve their annotations through sys.modules
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


def test_every_benchmark_report_is_valid_json():
    # the library-mix items span 1e-150..1e150, where no report is rejected
    library = _library()
    items = [item for seed in range(101, 111) for item in library.make_items(seed)]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # the repair items warn
        results = [library.run_item(item) for item in items if item.kind != "roundtrip"]
    assert len(results) == 100
    for result, document, _, _ in results:
        json.dumps(document, allow_nan=False)
        assert np.isfinite(result.gram).all()


def test_every_benchmark_class_matches_the_transpose_formula():
    # the tensor each item's report classifies: the ingested one for piezo
    # and Hall items, with their repairs
    library = _library()
    seeds = [*range(101, 111), *range(1000, 1400)]
    classes = []
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # the repair items warn
        for item in (item for seed in seeds for item in library.make_items(seed)):
            t = Tensor3(item.components, item.variance)
            if item.mode != "generic":
                t = (cons.PiezoTensor if item.mode == "piezo" else cons.HallTensor)(t).tensor
            classes.append(report.classify_symmetry(t))
            assert classes[-1] == _reference_class(t.components)
    assert len(classes) == 4510
    assert {"generic", "pair-symmetric-jk", "pair-antisymmetric-ij"} <= set(classes)
