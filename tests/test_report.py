import numpy as np
import pytest

from trideco import gl3, oracle, report, sl3, tensorio
from trideco.symmetrizers import GroupAlgebraElement
from trideco.tensor import EUCLIDEAN, Metric, Tensor3

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


class TestClassify:
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

    def test_text_rendering_mentions_nonorthogonality(self, rng):
        # the flag is relative to the largest Gram diagonal, so it holds at any scale
        for scale in (1.0, 1e8, 1e-150):
            result = report.build_report(unit_tensor(rng) * scale, level="so3")
            assert "not mutually orthogonal" in result.render_text()
            o3_result = report.build_report(unit_tensor(rng) * scale, level="o3")
            assert "not mutually orthogonal" not in o3_result.render_text()


@pytest.mark.parametrize("level, gathers", [("gl3", 2), ("o3", 2), ("sl3", 2), ("so3", 4)])
def test_each_projection_is_evaluated_once(monkeypatch, rng, level, gathers):
    # s and a everywhere, plus the two plain mixed components at so3; the
    # symmetry class reuses s and a
    calls = []
    gather = GroupAlgebraElement.on_components

    def counted(self, x):
        calls.append(self)
        return gather(self, x)

    monkeypatch.setattr(GroupAlgebraElement, "on_components", counted)
    report.build_report(unit_tensor(rng), level)
    assert len(calls) == gathers


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
