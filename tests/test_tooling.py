"""The committed formula notes, the oracle's solves of the skew constants and
the trace weights on more than one metric, the oracle's independence from the
shipped closed forms, the one cache idiom of the compiled matrices, the one
scaled metric product, the callables the benchmark's traced runs wrap, the
one parity rule of the volume-element layer, the one split tolerance and
variance check, the code-line counter and the report digest."""

import ast
import importlib.util
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from trideco import constitutive, oracle, parts, so3
from trideco.tensor import EUCLIDEAN

ROOT = Path(__file__).resolve().parent.parent


def _load_by_path(name, relative_path):
    spec = importlib.util.spec_from_file_location(name, ROOT / relative_path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


derive_constants = _load_by_path("derive_constants", "scripts/derive_constants.py")


def test_formula_notes_file_is_current():
    assert (ROOT / "FORMULA_NOTES.txt").read_bytes() == oracle.formula_notes().encode("utf-8")


#: each skew system of the oracle and the constant the package ships for it
SKEW_CONSTANTS = {
    "first_skew_from_trace": so3.FIRST_SKEW_COEFF,
    "second_skew_from_trace": so3.SECOND_SKEW_COEFF,
    "piezo_skew_from_trace": constitutive.PIEZO_SKEW_FROM_TRACE,
    "hall_skew_from_trace": constitutive.HALL_SKEW_FROM_TRACE,
}


@pytest.mark.parametrize("metric", [EUCLIDEAN, derive_constants.DIAG], ids=["euclid", "diag211"])
def test_derived_constants_match_the_shipped_ones(metric):
    solved = {}
    for system, shipped in SKEW_CONSTANTS.items():
        solve = oracle.solve_reconstruction(system, metric)
        (solved[system],) = solve.coefficients
        assert abs(solved[system] - shipped) < 1e-10, system
        assert solve.residual <= oracle.SOLVE_TOL, system
    # the axial vector of eps . v is 2 v, so the axial constants are twice
    # the skew weights
    assert abs(2 * solved["first_skew_from_trace"] - so3.AXIAL_FROM_FIRST_TRACE) < 1e-10
    assert abs(2 * solved["second_skew_from_trace"] - so3.AXIAL_FROM_SECOND_TRACE) < 1e-10


@pytest.mark.parametrize("metric", [EUCLIDEAN, derive_constants.DIAG], ids=["euclid", "diag211"])
def test_solved_trace_weights_match_the_shipped_ones(metric):
    solve = oracle.solve_reconstruction("trace_weights", metric)
    assert solve.system_rank == 9
    assert np.max(np.abs(solve.coefficients.reshape(3, 3) - parts._TRACE_WEIGHTS)) < 1e-12
    assert solve.residual <= oracle.SOLVE_TOL


def test_trace_weights_reproduce_the_solved_trace_constants():
    # the k/m1 constants of FORMULA_NOTES.txt, typed here because the shipped
    # column of oracle.SHIPPED_CONSTANTS is read from _TRACE_WEIGHTS itself;
    # a fully symmetric tensor has the same trace over every pair
    assert np.allclose(parts._TRACE_WEIGHTS @ [1.0, 1.0, 1.0], [0.2] * 3, rtol=0, atol=1e-15)
    # a slots-1,2-symmetric plain member with trace beta over (1,2) has
    # -beta/2 over the other two pairs
    assert np.allclose(parts._TRACE_WEIGHTS @ [1.0, -0.5, -0.5], [-0.25, -0.25, 0.5],
                       rtol=0, atol=1e-15)


def test_the_solves_are_compared_with_the_constants_that_ship():
    # the shipped column names the constants the package applies; a number
    # typed into it could differ from them and the self-check would not see it
    tree = ast.parse((ROOT / "src/trideco/oracle.py").read_text(encoding="utf-8"))
    (table,) = [
        node.value for node in tree.body
        if isinstance(node, ast.Assign)
        and [ast.unparse(target) for target in node.targets] == ["SHIPPED_CONSTANTS"]
    ]
    assert len(table.elts) == len(oracle.SHIPPED_CONSTANTS)
    for entry in table.elts:
        system, _, shipped, _ = entry.elts
        numbers = [
            node.value for node in ast.walk(shipped)
            if isinstance(node, ast.Constant) and isinstance(node.value, (int, float))
        ]
        assert all(number == 0.0 for number in numbers), system.value


def test_reconstruction_solves_use_no_shipped_closed_form():
    # the solves check the shipped formulas only while they do not reuse them
    # (with every helper they call)
    tree = ast.parse((ROOT / "src/trideco/oracle.py").read_text(encoding="utf-8"))
    names = {"solve_reconstruction", "_projected_basis", "_residue", "_lstsq", "_epsilon_terms",
             "_skew", "_pair_traces", "_placed", "_plain_member"}
    functions = [node for node in tree.body
                 if isinstance(node, ast.FunctionDef) and node.name in names]
    assert {function.name for function in functions} == names
    nodes = [node for function in functions for node in ast.walk(function)]
    used = {node.id for node in nodes if isinstance(node, ast.Name)}
    used |= {node.attr for node in nodes if isinstance(node, ast.Attribute)}
    forbidden = {
        "contraction", "from_matrix", "axial", "from_axial", "PARTS", "constitutive",
        "RECONSTRUCTION_COEFF", "PIEZO_RECONSTRUCTION_COEFF", "HALL_RECONSTRUCTION_COEFFS",
        "HALL_MATRIX_WEIGHTS", "evaluate", "traces", "from_traces", "_TRACE_WEIGHTS", "halves",
        "operator", "so3", "FIRST_SKEW_COEFF", "SECOND_SKEW_COEFF", "AXIAL_FROM_FIRST_TRACE",
        "AXIAL_FROM_SECOND_TRACE", "PIEZO_SKEW_FROM_TRACE", "HALL_SKEW_FROM_TRACE",
        "epsilon_contractions", "so3_split", "piezo_decompose", "hall_decompose",
        "plain_trace_vectors",
    }
    assert not used & forbidden


def test_agreement_checks_the_compiled_matrix_against_the_rule_walk():
    # the matrices come from the compiled operators; the parts they are
    # checked against must come from the rule walk, one block of drawn
    # tensors at a time
    tree = ast.parse((ROOT / "src/trideco/oracle.py").read_text(encoding="utf-8"))
    (agreements,) = [
        node for node in tree.body
        if isinstance(node, ast.FunctionDef) and node.name == "agreements"
    ]
    used = {node.id for node in ast.walk(agreements) if isinstance(node, ast.Name)}
    used |= {node.attr for node in ast.walk(agreements) if isinstance(node, ast.Attribute)}
    assert {"materialize", "evaluate"} <= used
    assert not used & {"operator", "apply", "basis_images", "_stack", "_free_images", "compiled",
                       "_cache"}


def _scoped(node, scope=()):
    """``(scope, node)`` for ``node`` and each node under it, ``scope`` being
    the names of the classes and functions that enclose it."""
    yield scope, node
    if isinstance(node, (ast.ClassDef, ast.FunctionDef)):
        scope += (node.name,)
    for child in ast.iter_child_nodes(node):
        yield from _scoped(child, scope)


def test_one_cache_idiom():
    # a metric's compiled values are read and written by Metric.compiled
    # alone, whose setdefault keeps the first value stored; a process-wide
    # cache is a functools.cache, not a module-level dict filled through
    # setdefault
    found = set()
    for path in sorted((ROOT / "src/trideco").glob("*.py")):
        for scope, node in _scoped(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Attribute) and node.attr in ("_cache", "setdefault"):
                found.add((path.name, *scope, node.attr))
    assert found == {("tensor.py", "Metric", "compiled", "_cache"),
                     ("tensor.py", "Metric", "compiled", "setdefault")}


def test_one_scaled_metric_product():
    # every metric product is a plain product of rows whitened by
    # Metric.whitening, through tensor.gram, which scales the data by a
    # power of two; the parts are read through the same whitening, and the
    # contraction at absolute scale, which under- or overflows at metrics
    # far from 1, is read by no product
    found = set()
    for path in sorted((ROOT / "src/trideco").glob("*.py")):
        for scope, node in _scoped(ast.parse(path.read_text(encoding="utf-8"))):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                    and node.func.attr in ("whitening", "contraction_matrix")):
                found.add((path.name, *scope, node.func.attr))
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) \
                    and node.func.id == "gram":
                found.add((path.name, *scope, "gram"))
    assert found == {("parts.py", "whitened", "whitening"), ("tensor.py", "gram_of", "whitening"),
                     ("tensor.py", "gram_of", "gram"), ("report.py", "build_report", "gram")}


#: the module-level constants that may hold the relative tolerance 1e-9
_TOLERANCE_CONSTANTS = {"SPLIT_TOL", "INGEST_TOL", "CLASSIFY_REL_TOL", "RANK_TOL"}


def test_one_split_tolerance_and_one_variance_check():
    # the split and inverse maps read tensor.SPLIT_TOL and take no tolerance
    # of their own; every upper-variance precondition is tensor.require_upper
    taking_tol, stray, messages = [], [], []
    for path in sorted((ROOT / "src/trideco").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        named = {
            id(node.value) for node in tree.body if isinstance(node, ast.Assign)
            and {ast.unparse(target) for target in node.targets} <= _TOLERANCE_CONSTANTS
        }
        for scope, node in _scoped(tree):
            if isinstance(node, ast.FunctionDef) and path.stem in ("o3", "sl3", "so3"):
                arguments = node.args.posonlyargs + node.args.args + node.args.kwonlyargs
                if "tol" in {argument.arg for argument in arguments}:
                    taking_tol.append(f"{path.stem}.{node.name}")
            if not isinstance(node, ast.Constant):
                continue
            if isinstance(node.value, float) and node.value == 1e-9 and id(node) not in named:
                stray.append(f"{path.name}: {'.'.join(scope)}")
            if isinstance(node.value, str) and "expects an upper-variance tensor" in node.value:
                messages.append((path.name, *scope))
    assert not taking_tol
    assert not stray
    assert messages == [("tensor.py", "require_upper")]


#: the projections the oracle calls, per module: solve_reconstruction applies
#: the parts kernels to the stacked basis, and the oracle's sampling the gl3
#: projections
_ORACLE_PROJECTIONS = {
    "gl3": {"symmetric_part", "antisymmetric_part", "residue_part", "n_split"},
    "parts": {"symmetric", "antisymmetric", "residue", "mixed"},
}


def test_projections_the_solves_call_read_no_part_table():
    # the oracle calls these, so they stay off the rules it checks
    for module, names in _ORACLE_PROJECTIONS.items():
        tree = ast.parse((ROOT / f"src/trideco/{module}.py").read_text(encoding="utf-8"))
        functions = [
            node for node in tree.body if isinstance(node, ast.FunctionDef) and node.name in names
        ]
        assert {node.name for node in functions} == names
        for function in functions:
            used = {node.id for node in ast.walk(function) if isinstance(node, ast.Name)}
            used |= {node.attr for node in ast.walk(function) if isinstance(node, ast.Attribute)}
            assert not used & {"evaluate", "PARTS", "_RULES", "operator", "apply"}, function.name


#: the tagged value types whose parity the volume-element layer reads from
#: its input
_TAGGED = {"Tensor3", "Tensor2", "Vector3"}


@pytest.mark.parametrize("module", ["sl3", "so3", "constitutive"])
def test_volume_element_layer_takes_every_parity_from_its_input(module):
    # one contraction with the alternating symbol flips parity, and every tag
    # is derived from the input's by that rule; only the alternating symbol
    # itself is a pseudo-tensor by definition
    tree = ast.parse((ROOT / f"src/trideco/{module}.py").read_text(encoding="utf-8"))
    literal = []
    for function in ast.walk(tree):
        if not isinstance(function, ast.FunctionDef) or function.name == "epsilon_tensor":
            continue
        for call in ast.walk(function):
            if not isinstance(call, ast.Call) or ast.unparse(call.func) not in _TAGGED:
                continue
            parity = [k.value for k in call.keywords if k.arg == "parity"] or call.args[2:3]
            # an omitted parity is the literal default 0
            if not parity or isinstance(parity[0], ast.Constant):
                literal.append(f"{function.name}: {ast.unparse(call)}")
    assert not literal


def test_code_lines_counts_code_only(tmp_path):
    source = (
        '"""Module docstring,\n\nthree lines."""\n'
        "\n"
        "# a comment\n"
        "X = 1  # a trailing comment counts as code\n"
        "\n"
        "\n"
        "def f(a,\n"
        "      b):\n"
        '    """One-line docstring."""\n'
        '    text = """a string,\n'
        '    not a docstring"""\n'
        "    return a + b\n"
        "\n"
        "\n"
        "class C:\n"
        '    """Class\n    docstring."""\n'
        "\n"
        "    y = 2\n"
    )
    code_lines = _load_by_path("code_lines", "scripts/code_lines.py")
    # X, both lines of the def, both of the string, return, class and y
    assert code_lines.code_lines(source) == 8
    path = tmp_path / "fixture.py"
    path.write_text(source, encoding="utf-8")
    assert code_lines.main([str(path)]) == 0


@pytest.mark.parametrize("module", ["report", "o3", "constitutive"])
def test_symmetry_tests_read_the_one_defect_table(module):
    # every symmetry test in these modules is a named defect of
    # symmetrizers.SYMMETRIES, never a hand-written transpose
    tree = ast.parse((ROOT / f"src/trideco/{module}.py").read_text(encoding="utf-8"))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    used |= {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    assert "defects" in used
    assert not used & {"transpose", "swapaxes"}


def test_every_traced_callable_exists():
    # a traced run wraps these by name, so renaming or removing one breaks it
    spans = _load_by_path("perfbench_spans", "perfbench/spans.py")
    missing = [
        f"{getattr(owner, '__name__', owner)}.{attribute}"
        for owner, attribute, _ in spans.trideco_targets()
        if not callable(getattr(owner, attribute, None))
    ]
    assert not missing


def test_report_digest_runs_the_same_twice():
    # the digest reads trideco from PYTHONPATH, so it can be run on any tree
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    runs = [
        subprocess.run([sys.executable, str(ROOT / "scripts/report_digest.py")], env=env,
                       capture_output=True, text=True, check=True).stdout
        for _ in range(2)
    ]
    assert runs[0] == runs[1]
    source, *lines = runs[0].splitlines()
    assert Path(source).resolve() == (ROOT / "src/trideco/__init__.py").resolve()
    # report shapes, self-checks, operators and public calls, in that order,
    # each but the self-checks once per base metric
    base = r"/(euclid|diag211|spd) +"
    patterns = ((27, r"\S+" + base + r"\d+ reports, +\d+ rejected  [0-9a-f]{64}"),
                (3, r"self_check/\d+ +[0-9a-f]{64}"),
                (3 * len(parts.PARTS), r"operator/\w+" + base + r"[0-9a-f]{64}"),
                (30, r"\S+" + base + r"\d+ calls, +\d+ rejected  [0-9a-f]{64}"))
    assert len(lines) == sum(count for count, _ in patterns)
    for count, pattern in patterns:
        assert all(re.fullmatch(pattern, line) for line in lines[:count]), pattern
        lines = lines[count:]
