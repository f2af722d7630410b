"""Tests of the benchmark itself: seeded inputs, output checks and span arithmetic.

    python3 -m pytest perfbench/tests
"""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from trideco import gl3  # noqa: E402

from perfbench import baseline, check, cli_cases, library, run, spans  # noqa: E402
from perfbench.workloads import OracleMatrices  # noqa: E402


def _arrays(items):
    return [(item.kind, item.components, item.metric) for item in items]


def _same(first, second) -> bool:
    return all(
        a[0] == b[0]
        and np.array_equal(a[1], b[1])
        and (a[2] is None) == (b[2] is None)
        and (a[2] is None or np.array_equal(a[2], b[2]))
        for a, b in zip(first, second)
    )


class TestInputs:
    def test_library_items_repeat_for_a_seed(self):
        assert _same(_arrays(library.make_items(5)), _arrays(library.make_items(5)))

    def test_library_items_change_with_the_seed(self):
        assert not _same(_arrays(library.make_items(5)), _arrays(library.make_items(6)))

    def test_every_pass_has_one_item_of_each_kind(self):
        for seed in (1, 2):
            kinds = [item.kind for item in library.make_items(seed)]
            assert sorted(kinds) == sorted(library.LIBRARY_KINDS)

    def test_cli_files_repeat_for_a_seed(self, tmp_path):
        out = tmp_path / "out.json"
        first = cli_cases.write_cases(3, tmp_path / "a", out)
        texts = {p.name: p.read_text() for p in (tmp_path / "a").iterdir()}
        second = cli_cases.write_cases(3, tmp_path / "b", out)
        assert texts == {p.name: p.read_text() for p in (tmp_path / "b").iterdir()}
        assert [c.kind for c in first] == [c.kind for c in second]
        other = cli_cases.write_cases(4, tmp_path / "c", out)
        assert texts != {p.name: p.read_text() for p in (tmp_path / "c").iterdir()}
        assert sorted(c.kind for c in other) == sorted(cli_cases.CLI_KINDS)
        assert sum(c.expected_exit != 0 for c in other) * 3 == len(other)


def _checked_report(item):
    dumped = library.run_item(item)[3]
    matrices = OracleMatrices().parts(item.shape, item.metric)
    return json.loads(dumped), check.norm_matrix(item.metric, item.variance), matrices


class TestChecks:
    @pytest.fixture
    def item(self):
        return next(i for i in library.make_items(1) if i.kind == "o3-metric")

    def test_a_correct_report_passes(self, item):
        doc, metric_matrix, matrices = _checked_report(item)
        assert check.report_failures(doc, item.components, metric_matrix, matrices, True) == []

    @pytest.mark.parametrize("corrupt", ["norm", "residual", "share", "gram"])
    def test_a_corrupted_report_is_flagged(self, item, corrupt):
        doc, metric_matrix, matrices = _checked_report(item)
        scale = float(np.max(np.abs(item.components)))
        if corrupt == "norm":
            doc["parts"][1]["norm"] *= 1.0 + 1e-9
        elif corrupt == "residual":
            doc["residual"] = 1e-9 * scale
        elif corrupt == "share":
            doc["parts"][0]["share"] += 1e-6
        else:
            doc["gram"][0][1] = 1e-9 * doc["gram"][0][0]
        assert check.report_failures(doc, item.components, metric_matrix, matrices, True)

    def test_round_trip(self):
        x = library.make_items(1)[0].components
        assert check.roundtrip_failures(x.copy(), x) == []
        assert check.roundtrip_failures(x * (1 + 1e-9), x)

    def test_non_finite_json_is_rejected(self):
        with pytest.raises(ValueError):
            check.load_json('{"residual": NaN}')

    def test_exit_codes(self):
        assert check.exit_failures(0, 0, "") == []
        assert check.exit_failures(3, 3, "error: asymmetry") == []
        assert check.exit_failures(0, 3, "")
        assert check.exit_failures(2, 3, "error: unreadable")
        assert check.exit_failures(3, 3, "")

    def test_self_check_results(self):
        passed = json.dumps({"self_check": {"failures": []}})
        assert check.selfcheck_failures(0, passed) == []
        assert check.selfcheck_failures(1, passed)
        assert check.selfcheck_failures(0, None)
        assert check.selfcheck_failures(0, json.dumps({"self_check": {"failures": ["x"]}}))


class TestSpans:
    # root [0, 10] with children a [1, 4] and b [3, 6], which overlap; a has
    # child c [2, 3]; d [12, 13] has no parent
    TREE = [
        ("root", 0.0, 10.0, -1, 0),
        ("a", 1.0, 4.0, 0, 0),
        ("c", 2.0, 3.0, 1, 0),
        ("b", 3.0, 6.0, 0, 0),
        ("d", 12.0, 13.0, -1, 1),
    ]

    def test_self_time_is_duration_minus_child_coverage(self):
        assert spans.self_times(self.TREE) == [5.0, 2.0, 1.0, 3.0, 1.0]

    def test_summary(self):
        tree = self.TREE + [("a", 20.0, 20.5, -1, 1)]
        summary = spans.summarize(tree)
        assert summary["a"] == {"count": 2, "self": 2.5, "total": 3.5}
        assert summary["root"] == {"count": 1, "self": 5.0, "total": 10.0}

    def test_dump_and_load(self, tmp_path):
        spans.dump(tmp_path / "s.json", self.TREE, {"k": 1})
        loaded, meta = spans.load(tmp_path / "s.json")
        assert meta == {"k": 1}
        assert spans.self_times(loaded) == pytest.approx(spans.self_times(self.TREE))

    def test_tracer_counts_repeat_and_uninstall_restores(self):
        item = next(i for i in library.make_items(1) if i.kind == "so3")
        original = gl3.symmetric_part
        tracer = spans.Tracer()
        tracer.install(spans.trideco_targets())
        try:
            for call in range(2):
                tracer.item = call
                library.run_item(item)
        finally:
            tracer.uninstall()
        assert gl3.symmetric_part is original
        counts = [sum(1 for s in tracer.spans if s[0] == "tensor.construct" and s[4] == call)
                  for call in range(2)]
        assert counts[0] == counts[1] > 0
        assert all(s is not None for s in tracer.spans)


class TestBaseline:
    def test_spread_uses_the_quartiles_of_the_statistics_module(self):
        values = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0]
        stats = baseline.spread(values)
        assert (stats["q1"], stats["median"], stats["q3"]) == (2.75, 5.5, 8.25)
        assert stats["spread"] == pytest.approx(1.0)

    def test_parse_output_and_counts(self):
        result = {"correct": True, "attempted": 3, "failed": 0, "metrics": {
            "tensor.constructions": {"value": 12.0, "unit": "count"},
            "tensor.construct_self_us": {"value": 5.5, "unit": "us"}}}
        text = "\n".join([
            "workload library-mix, seed 1, 1 s, trace 1",
            'environment {"nproc": 2}',
            "  tensor.constructions[so3]                       141 count",
            json.dumps(result)])
        parsed = baseline.parse_output(text)
        assert parsed["environment"] == {"nproc": 2}
        assert baseline.counts(parsed) == {"tensor.constructions": 12.0,
                                           "tensor.constructions[so3]": 141.0}

    def test_environment_names_the_cpu_and_the_commit(self, tmp_path):
        env = run.environment(tmp_path)
        assert env["cpu_model"] and env["commit"] == "unknown"
        (tmp_path / ".git" / "refs" / "heads").mkdir(parents=True)
        (tmp_path / ".git" / "HEAD").write_text("ref: refs/heads/main\n")
        (tmp_path / ".git" / "refs" / "heads" / "main").write_text("abc123\n")
        assert run.environment(tmp_path)["commit"] == "abc123"


def test_benchmark_json_matches_the_metrics_printed():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END_UNITS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.per_layer_units()
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
