import json
import subprocess
import sys

import numpy as np
import pytest

from trideco import sl3, tensorio
from trideco.cli import main

from helpers import unit_pair_symmetric, unit_tensor


@pytest.fixture
def eps_file(tmp_path):
    path = tmp_path / "eps.json"
    tensorio.write_tensor(sl3.epsilon_tensor(), path)
    return str(path)


@pytest.fixture
def voigt_file(tmp_path, rng):
    table = tensorio.tensor_to_voigt(
        tensorio.voigt_to_tensor(rng.uniform(-1, 1, (3, 6)))
    )
    path = tmp_path / "piezo_voigt.json"
    path.write_text(json.dumps({"voigt": table.tolist()}))
    return str(path)


class TestReportRuns:
    def test_epsilon_gives_pure_pseudo_scalar_report(self, eps_file, tmp_path, capsys):
        json_path = tmp_path / "report.json"
        code = main(["--input", eps_file, "--level", "so3", "--json", str(json_path)])
        assert code == 0
        report = json.loads(json_path.read_text())
        assert report["schema"] == 1
        assert report["pseudo_scalar"] == pytest.approx(1.0)
        by_name = {part["name"]: part for part in report["parts"]}
        assert by_name["antisym"]["share"] == pytest.approx(1.0)
        for name, part in by_name.items():
            if name != "antisym":
                assert part["norm"] <= 1e-12
        text = capsys.readouterr().out
        assert "fully-antisymmetric" in text

    def test_voigt_piezo_report(self, voigt_file, tmp_path):
        json_path = tmp_path / "report.json"
        code = main(["--voigt", voigt_file, "--json", str(json_path)])
        assert code == 0
        report = json.loads(json_path.read_text())
        assert report["mode"] == "piezo"
        assert [p["dim"] for p in report["parts"]] == [3, 7, 3, 5]
        assert sum(p["share"] for p in report["parts"]) == pytest.approx(1.0, abs=1e-9)
        assert report["residual"] <= 1e-12

    def test_gl3_level_with_family(self, tmp_path, rng, capsys):
        path = tmp_path / "t.json"
        tensorio.write_tensor(unit_tensor(rng), path)
        code = main(["--input", str(path), "--level", "gl3", "--family", "tilde"])
        assert code == 0
        assert "mixed_1" in capsys.readouterr().out

    def test_text_and_json_carry_identical_numbers(self, tmp_path, rng, capsys):
        path = tmp_path / "t.json"
        tensorio.write_tensor(unit_tensor(rng), path)
        json_path = tmp_path / "report.json"
        assert main(["--input", str(path), "--json", str(json_path)]) == 0
        text = capsys.readouterr().out
        report = json.loads(json_path.read_text())
        for part in report["parts"]:
            assert f"{part['norm']:.12e}" in text

    def test_metric_file(self, tmp_path, rng):
        tensor_path = tmp_path / "t.json"
        tensorio.write_tensor(unit_tensor(rng), tensor_path)
        metric_path = tmp_path / "g.json"
        metric_path.write_text(json.dumps({"g": np.diag([2.0, 1.0, 1.0]).tolist()}))
        json_path = tmp_path / "report.json"
        code = main(
            ["--input", str(tensor_path), "--metric", str(metric_path),
             "--level", "o3", "--json", str(json_path)]
        )
        assert code == 0
        report = json.loads(json_path.read_text())
        assert report["residual"] <= 1e-12

    def test_hall_mode(self, tmp_path, rng):
        from helpers import unit_pair_antisymmetric

        path = tmp_path / "hall.json"
        tensorio.write_tensor(unit_pair_antisymmetric(rng), path)
        json_path = tmp_path / "report.json"
        code = main(["--input", str(path), "--mode", "hall", "--json", str(json_path)])
        assert code == 0
        report = json.loads(json_path.read_text())
        assert [p["dim"] for p in report["parts"]] == [1, 3, 5]
        assert sum(p["share"] for p in report["parts"]) == pytest.approx(1.0, abs=1e-9)


class TestExitCodes:
    def test_missing_file(self, tmp_path):
        assert main(["--input", str(tmp_path / "absent.json")]) == 2

    def test_malformed_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        assert main(["--input", str(path)]) == 2

    def test_json_nested_too_deep_is_exit_2(self, tmp_path):
        path = tmp_path / "deep.json"
        path.write_text('{"variance": "upper", "components": ' + "[" * 100_000 + "]" * 100_000 + "}")
        assert main(["--input", str(path)]) == 2

    def test_wrong_shape(self, tmp_path):
        path = tmp_path / "flat.json"
        path.write_text(json.dumps({"variance": "upper", "components": [1, 2, 3]}))
        assert main(["--input", str(path)]) == 2

    def test_symmetry_violation_is_exit_3(self, tmp_path, rng):
        path = tmp_path / "generic.json"
        tensorio.write_tensor(unit_tensor(rng), path)
        assert main(["--input", str(path), "--mode", "piezo"]) == 3

    def test_variance_mismatch_is_exit_3(self, tmp_path, rng):
        path = tmp_path / "lower.json"
        tensorio.write_tensor(unit_tensor(rng, "lower"), path)
        assert main(["--input", str(path), "--level", "o3"]) == 3

    @pytest.mark.parametrize(
        "change",
        [
            lambda doc: doc["components"][0][0].__setitem__(0, "1.5"),
            lambda doc: doc["components"][1][2].__setitem__(2, True),
            lambda doc: doc["components"][2][1].__setitem__(0, 10**400),
            lambda doc: doc.update(parity=True),
            lambda doc: doc.update(parity=1.0),
        ],
        ids=["string-component", "boolean-component", "overflowing-integer", "boolean-parity",
             "float-parity"],
    )
    def test_tensor_entry_that_is_not_a_number_is_exit_2(self, tmp_path, rng, change, capsys):
        document = tensorio.tensor_to_dict(unit_tensor(rng))
        change(document)
        path = tmp_path / "t.json"
        path.write_text(json.dumps(document))
        assert main(["--input", str(path)]) == 2
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("entry", ["2.0", True], ids=["string", "boolean"])
    def test_metric_entry_that_is_not_a_number_is_exit_2(self, tmp_path, rng, entry):
        tensor_path = tmp_path / "t.json"
        tensorio.write_tensor(unit_tensor(rng), tensor_path)
        g = np.eye(3).tolist()
        g[0][0] = entry
        metric_path = tmp_path / "g.json"
        metric_path.write_text(json.dumps({"g": g}))
        assert main(["--input", str(tensor_path), "--metric", str(metric_path)]) == 2

    @pytest.mark.parametrize("entry", ["0.5", False], ids=["string", "boolean"])
    def test_voigt_entry_that_is_not_a_number_is_exit_2(self, tmp_path, rng, entry, capsys):
        table = rng.uniform(-1, 1, (3, 6)).tolist()
        table[1][4] = entry
        path = tmp_path / "piezo_voigt.json"
        path.write_text(json.dumps({"voigt": table}))
        assert main(["--voigt", str(path)]) == 2
        assert f"error: {path}: components must be numbers" in capsys.readouterr().err

    def test_report_that_overflows_is_exit_2_without_json(self, tmp_path, rng, capsys):
        path = tmp_path / "huge.json"
        tensorio.write_tensor(unit_tensor(rng) * 1e160, path)
        json_path = tmp_path / "report.json"
        assert main(["--input", str(path), "--level", "o3", "--json", str(json_path)]) == 2
        assert not json_path.exists()
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "Gram matrix of the parts is not finite" in captured.err

    def test_no_input(self):
        assert main([]) == 2

    def test_conflicting_inputs(self, eps_file, voigt_file):
        assert main(["--input", eps_file, "--voigt", voigt_file]) == 2


class TestSelfCheck:
    def test_passes_and_prints_ledger(self, capsys):
        assert main(["--self-check", "--seed", "5"]) == 0
        out = capsys.readouterr().out
        assert "rank symmetric" in out and "expected 10" in out
        assert "rank hall_p" in out
        assert "self-check: PASS" in out

    def test_json_reports_are_seed_reproducible(self, tmp_path, capsys):
        first = tmp_path / "a.json"
        second = tmp_path / "b.json"
        assert main(["--self-check", "--seed", "7", "--json", str(first)]) == 0
        assert main(["--self-check", "--seed", "7", "--json", str(second)]) == 0
        assert first.read_bytes() == second.read_bytes()
        capsys.readouterr()


def test_console_entry_point_runs(tmp_path):
    path = tmp_path / "eps.json"
    tensorio.write_tensor(sl3.epsilon_tensor(), path)
    proc = subprocess.run(
        [sys.executable, "-m", "trideco.cli", "--input", str(path)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "pseudo-scalar: 1" in proc.stdout


def test_voigt_expansion_round_trips_through_files(tmp_path, rng):
    from trideco.constitutive import PiezoTensor

    d = PiezoTensor(unit_pair_symmetric(rng))
    path = tmp_path / "table.json"
    tensorio.write_voigt(d, path)
    rebuilt = tensorio.read_voigt(path)
    assert rebuilt.tensor.allclose(d.tensor, 1e-14)


def test_read_voigt_converts_the_table_once(tmp_path, rng, monkeypatch):
    path = tmp_path / "table.json"
    path.write_text(json.dumps({"voigt": rng.uniform(-1, 1, (3, 6)).tolist()}))
    calls = []
    as_array = tensorio._as_array

    def counted(data, shape, where):
        calls.append(where)
        return as_array(data, shape, where)

    monkeypatch.setattr(tensorio, "_as_array", counted)
    tensorio.read_voigt(path)
    assert calls == [str(path)]
