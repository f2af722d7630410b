import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trideco import cli, oracle, report, sl3, so3, tensorio
from trideco.gl3 import FAMILIES
from trideco.cli import main
from trideco.constitutive import PiezoTensor
from trideco.tensor import EUCLIDEAN, Tensor3

from helpers import unit_pair_antisymmetric, unit_pair_symmetric, unit_tensor


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

    @pytest.mark.filterwarnings("error")
    def test_metric_whose_inverse_overflows_is_exit_2_without_warning(self, tmp_path, rng,
                                                                      capsys):
        tensor_path = tmp_path / "t.json"
        tensorio.write_tensor(unit_tensor(rng), tensor_path)
        metric_path = tmp_path / "g.json"
        metric_path.write_text(json.dumps({"g": np.diag([1e-320, 1.0, 1.0]).tolist()}))
        assert main(["--input", str(tensor_path), "--metric", str(metric_path)]) == 2
        err = capsys.readouterr().err
        assert "identity check" in err and "RuntimeWarning" not in err

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

    @pytest.mark.parametrize("target", ["missing-folder", "folder"])
    @pytest.mark.parametrize("run", ["report", "self-check"])
    def test_json_path_that_cannot_be_written_is_exit_2(self, tmp_path, eps_file, run, target,
                                                        capsys):
        json_path = tmp_path / "missing" / "x.json" if target == "missing-folder" else tmp_path
        argv = ["--input", eps_file] if run == "report" else ["--self-check"]
        assert main([*argv, "--json", str(json_path)]) == 2
        captured = capsys.readouterr()
        # the text is printed before the document is written
        assert captured.out
        assert captured.err.startswith(f"error: cannot write {json_path}: ")
        assert len(captured.err.splitlines()) == 1

    @pytest.mark.parametrize("flag", ["--input", "--metric", "--voigt"])
    def test_file_that_is_not_utf8_is_exit_2(self, tmp_path, rng, flag, capsys):
        path = tmp_path / "utf16.json"
        path.write_bytes(b"\xff\xfe{\x00}\x00")
        argv = [flag, str(path)]
        if flag == "--metric":
            tensor_path = tmp_path / "t.json"
            tensorio.write_tensor(unit_tensor(rng), tensor_path)
            argv += ["--input", str(tensor_path)]
        assert main(argv) == 2
        assert f"error: {path} is not UTF-8 text" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [["--self-check", "--seed", "-1"], ["--self-check", "--seed", "1.5"],
         ["--tol", "nan"], ["--tol", "-1"], ["--tol", "inf"]],
        ids=["negative-seed", "float-seed", "nan-tol", "negative-tol", "infinite-tol"],
    )
    def test_seed_and_tol_out_of_range_are_exit_2(self, eps_file, argv, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["--input", eps_file, *argv])
        assert exit_info.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == "" and f"argument {argv[-2]}: expected a finite" in captured.err

    def test_zero_and_huge_seed_and_tol_are_accepted(self, eps_file):
        assert main(["--input", eps_file, "--tol", "0"]) == 0
        assert main(["--input", eps_file, "--tol", "1e300"]) == 0
        assert cli._parser().parse_args(["--seed", str(10**30)]).seed == 10**30

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


def _no_constant(name):
    raise ValueError(f"JSON holds {name}")


#: the command-line arguments of each report shape, and how to draw its input
REPORT_SHAPES = {
    "gl3": (["--level", "gl3"], unit_tensor),
    "gl3-family": (["--level", "gl3", "--family", "hat"], unit_tensor),
    "o3": (["--level", "o3"], unit_tensor),
    "sl3": (["--level", "sl3"], unit_tensor),
    "so3": (["--level", "so3"], unit_tensor),
    "piezo-voigt": ([], unit_pair_symmetric),
    "hall": (["--mode", "hall"], unit_pair_antisymmetric),
    "o3-metric": (["--level", "o3"], unit_tensor),
}


@pytest.mark.parametrize("scale", [1e-150, 1e150])
@pytest.mark.parametrize("shape", list(REPORT_SHAPES))
def test_every_report_writes_strict_json(tmp_path, rng, capsys, shape, scale):
    arguments, draw = REPORT_SHAPES[shape]
    t = draw(rng) * scale
    path = tmp_path / "input.json"
    if shape == "piezo-voigt":
        tensorio.write_voigt(PiezoTensor(t), path)
        arguments = ["--voigt", str(path)]
    else:
        tensorio.write_tensor(t, path)
        arguments = ["--input", str(path), *arguments]
    if shape == "o3-metric":
        metric_path = tmp_path / "g.json"
        metric_path.write_text(json.dumps({"g": [[2.0, 0.5, 0.0], [0.5, 1.0, 0.0],
                                                 [0.0, 0.0, 3.0]]}))
        arguments += ["--metric", str(metric_path)]
    json_path = tmp_path / "report.json"
    assert main([*arguments, "--json", str(json_path)]) == 0
    capsys.readouterr()
    report = json.loads(json_path.read_text(), parse_constant=_no_constant)
    assert report["parts"]


class TestSelfCheckDocument:
    """The text and the JSON of ``--self-check`` come from one document."""

    def test_text_is_the_rendering_of_the_json(self, tmp_path, capsys):
        path = tmp_path / "check.json"
        assert main(["--self-check", "--seed", "4", "--json", str(path)]) == 0
        check = json.loads(path.read_text())["self_check"]
        assert list(check) == ["seed", "ranks", "families", "solves", "agreement", "maps",
                               "failures"]
        json.dumps(check, allow_nan=False)
        assert capsys.readouterr().out == cli._render_self_check(check) + "\n"

    def test_a_failed_check_is_named_in_text_and_json(self, tmp_path, capsys, monkeypatch):
        measure = oracle.agreements
        monkeypatch.setattr(
            oracle, "agreements",
            lambda names, **kwargs: {**measure(names, **kwargs), "k_part": 1.0},
        )
        path = tmp_path / "check.json"
        assert main(["--self-check", "--json", str(path)]) == 1
        assert capsys.readouterr().out.splitlines()[-1] == "self-check: FAIL (agreement k_part)"
        assert json.loads(path.read_text())["self_check"]["failures"] == ["agreement k_part"]

    def test_a_deviation_that_is_not_finite_fails(self, tmp_path, capsys, monkeypatch):
        walk = oracle.evaluate
        monkeypatch.setattr(oracle, "evaluate", lambda names, x, metric: [
            np.full_like(value, np.nan) if name == "k_part" else value
            for name, value in zip(names, walk(names, x, metric))
        ])
        path = tmp_path / "check.json"
        assert main(["--self-check", "--json", str(path)]) == 1
        out = capsys.readouterr().out
        assert "worst deviation over 100 tensors per operator: not finite" in out
        assert out.splitlines()[-1] == "self-check: FAIL (agreement k_part)"
        check = json.loads(path.read_text(), parse_constant=_no_constant)["self_check"]
        assert check["failures"] == ["agreement k_part"]
        assert check["agreement"]["k_part"] is None


    def test_a_one_sided_defect_in_the_so3_map_fails(self, tmp_path, capsys, monkeypatch):
        # beta and gamma swapped in the forward map only; the Euclidean
        # forward matrix compiled before is put back after the test
        so3.so3_representation(Tensor3.zeros())
        monkeypatch.delitem(EUCLIDEAN._cache, "so3 forward")
        split = so3._split

        def swapped(checks, g):
            sym, vec = split(checks, g)
            return sym, vec[..., ::-1, :]

        monkeypatch.setattr(so3, "_split", swapped)
        path = tmp_path / "check.json"
        assert main(["--self-check", "--json", str(path)]) == 1
        out = capsys.readouterr().out
        assert "map so3 round trip on the basis tensors" in out
        assert out.splitlines()[-1] == "self-check: FAIL (map so3)"
        check = json.loads(path.read_text())["self_check"]
        assert check["failures"] == ["map so3"]
        assert check["maps"]["so3"] > oracle.PROJECTOR_TOL


def test_importing_the_package_compiles_nothing():
    # start-up of every CLI process pays for what import compiles, so every
    # operator, contraction and so3 map is compiled on first use
    code = ("import trideco, trideco.cli\n"
            "from trideco import so3\n"
            "print(len(trideco.EUCLIDEAN._cache), so3._unit_images.cache_info().currsize)")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(Path(__file__).parents[1] / "src"), os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, check=True)
    assert proc.stdout.split("\n")[0] == "0 0"


def test_importing_the_cli_loads_no_level_module_or_oracle():
    # a report run reads neither the oracle nor the o3 and so3 modules, so
    # its start-up does not import them
    code = ("import sys, trideco.cli\n"
            "print(*[name for name in ('trideco.oracle', 'trideco.o3', 'trideco.so3')\n"
            "        if name in sys.modules])")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(Path(__file__).parents[1] / "src"), os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, check=True)
    assert proc.stdout == "\n"


def test_the_package_resolves_its_submodules_on_first_access():
    import trideco

    assert set(trideco.__all__) <= set(dir(trideco))
    assert trideco.oracle is oracle and trideco.so3 is so3
    with pytest.raises(AttributeError, match="no attribute 'nothing'"):
        trideco.nothing


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


#: sizes of generated components and metrics, zero and the extremes included
_SCALES = (0.0, 1e-300, 1e-150, 1e-6, 1.0, 1e6, 1e150, 1e300)
#: ways a generated array is spoiled; "none" leaves it intact
_SPOILS = ("none",) * 8 + ("shape", "string", "boolean", "huge-integer", "nan", "infinity",
                           "null", "nested")
_SHAPES = ("generic", "pair-symmetric", "pair-antisymmetric", "symmetric")


@st.composite
def _array(draw, shape, fit="generic"):
    """A generated array of ``shape`` as a JSON value, perhaps spoiled; a
    tensor is most often of the symmetry ``fit``."""
    x = np.random.default_rng(draw(st.integers(0, 2**16))).uniform(-1.0, 1.0, shape)
    if len(shape) == 3:
        kind = draw(st.sampled_from((fit,) * 4 + _SHAPES))
        if kind == "pair-symmetric":
            x = (x + np.swapaxes(x, 1, 2)) / 2.0
        elif kind == "pair-antisymmetric":
            x = (x - np.swapaxes(x, 0, 1)) / 2.0
        elif kind == "symmetric":
            x = sum(np.transpose(x, axes) for axes in
                    ((0, 1, 2), (1, 0, 2), (2, 1, 0), (0, 2, 1), (1, 2, 0), (2, 0, 1))) / 6.0
    value = (x * draw(st.sampled_from(_SCALES))).tolist()
    spoil = draw(st.sampled_from(_SPOILS))
    if spoil == "shape":
        return value[:-1]
    if spoil == "nested":
        return [value]
    row = value[0] if len(shape) == 2 else value[0][0]
    row[0] = {"string": "1.5", "boolean": True, "huge-integer": 10**400, "nan": float("nan"),
              "infinity": float("-inf"), "null": None}.get(spoil, row[0])
    return value


def _tag(valid):
    """A tag that is usually one of ``valid``, else of the wrong type."""
    return st.sampled_from(valid * 16 + [[valid[0]], {"tag": valid[0]}, None, True, 1.0, 2,
                                         10**400, "1"])


@st.composite
def _file(draw, kind, mode=None):
    """The bytes of a generated tensor, Voigt table or metric file; a tensor
    most often fits the report ``mode``."""
    damage = draw(st.sampled_from(("json",) * 12 + ("raw", "utf-16", "deep")))
    if damage == "raw":
        return draw(st.binary(max_size=40))
    if damage == "deep":
        depth = draw(st.sampled_from([3, 100, 100_000]))
        return ('{"components": ' + "[" * depth + "]" * depth + "}").encode()
    if kind == "tensor":
        hall = mode == "hall"
        document = {"variance": draw(_tag(["lower", "upper"] if hall else ["upper", "lower"])),
                    "components": draw(_array((3, 3, 3), "pair-antisymmetric" if hall else
                                              "pair-symmetric" if mode == "piezo" else
                                              "generic"))}
        parity = draw(st.one_of(st.none(), _tag([0, 1])))
        if parity is not None:
            document["parity"] = parity
    elif kind == "voigt":
        document = {"voigt": draw(_array((3, 6)))}
    else:
        g = np.random.default_rng(draw(st.integers(0, 2**16))).uniform(-1.0, 1.0, (3, 3))
        form = draw(st.sampled_from(("spd",) * 4 + ("non-symmetric", "indefinite")))
        g = {"spd": g @ g.T + np.eye(3), "non-symmetric": g + np.eye(3),
             "indefinite": np.diag([1.0, -1.0, 2.0])}[form]
        document = {"g": (g * draw(st.sampled_from(_SCALES[1:]))).tolist()}
    # json.dumps writes NaN and Infinity literals, which the reader rejects
    text = json.dumps(document)
    return text.encode("utf-16" if damage == "utf-16" else "utf-8")


@settings(max_examples=120, deadline=None)
@given(
    voigt=st.sampled_from([False] * 3 + [True]),
    data=st.data(),
    level=st.sampled_from(report.LEVELS),
    family=st.sampled_from((None,) * 3 + FAMILIES),
    with_metric=st.booleans(),
)
def test_cli_contract_fuzz(voigt, data, level, family, with_metric):
    # whatever the files and flags, a report exits 0, 2 or 3 without a
    # traceback, and any JSON it writes is strict
    mode = data.draw(st.sampled_from((None, "piezo", "piezo", "generic") if voigt
                                     else (None, *report.MODES)))
    with tempfile.TemporaryDirectory() as folder:
        folder = Path(folder)
        source = folder / "input.json"
        source.write_bytes(data.draw(_file("voigt" if voigt else "tensor", mode)))
        argv = ["--voigt" if voigt else "--input", str(source), "--level", level,
                "--json", str(folder / "report.json")]
        if mode is not None:
            argv += ["--mode", mode]
        if family is not None:
            argv += ["--family", family]
        if with_metric:
            metric = folder / "metric.json"
            metric.write_bytes(data.draw(_file("metric")))
            argv += ["--metric", str(metric)]
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(argv)
        assert code in (0, 2, 3), err.getvalue()
        assert "Traceback" not in err.getvalue()
        written = folder / "report.json"
        assert written.exists() == (code == 0)
        if code == 0:
            json.loads(written.read_text(encoding="utf-8"), parse_constant=_no_constant)
