"""The committed formula notes, the constant checks of scripts/derive_constants.py,
the oracle's independence from the shipped closed forms and the callables the
benchmark's traced runs wrap."""

import ast
import importlib.util
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


@pytest.mark.parametrize("metric", [EUCLIDEAN, derive_constants.DIAG], ids=["euclid", "diag211"])
def test_derived_constants_match_the_shipped_ones(metric):
    first, first_spread, second, second_spread = derive_constants.axial_constants(metric)
    assert abs(first - so3.AXIAL_FROM_FIRST_TRACE) < 1e-10
    assert abs(second - so3.AXIAL_FROM_SECOND_TRACE) < 1e-10
    assert first_spread < 1e-10 and second_spread < 1e-10
    piezo, hall = derive_constants.skew_parametrizations(metric)
    assert abs(piezo - constitutive.PIEZO_SKEW_FROM_TRACE) < 1e-10
    assert abs(hall - constitutive.HALL_SKEW_FROM_TRACE) < 1e-10


@pytest.mark.parametrize("metric", [EUCLIDEAN, derive_constants.DIAG], ids=["euclid", "diag211"])
def test_solved_trace_weights_match_the_shipped_ones(metric):
    weights, system_rank = derive_constants.trace_weights(metric)
    assert system_rank == 9
    assert np.max(np.abs(weights - parts._TRACE_WEIGHTS)) < 1e-12


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
    # (with the feature helper they call)
    tree = ast.parse((ROOT / "src/trideco/oracle.py").read_text(encoding="utf-8"))
    names = {"solve_reconstruction", "_epsilon_terms"}
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
        "operator",
    }
    assert not used & forbidden


def test_agreement_checks_the_compiled_matrix_against_the_rule_walk():
    # the matrices come from the compiled operators; the parts they are
    # checked against must come from the rule walk, one tensor at a time
    tree = ast.parse((ROOT / "src/trideco/oracle.py").read_text(encoding="utf-8"))
    (agreements,) = [
        node for node in tree.body
        if isinstance(node, ast.FunctionDef) and node.name == "agreements"
    ]
    used = {node.id for node in ast.walk(agreements) if isinstance(node, ast.Name)}
    used |= {node.attr for node in ast.walk(agreements) if isinstance(node, ast.Attribute)}
    assert {"materialize", "evaluate"} <= used
    assert not used & {"operator", "apply", "_FREE_OPERATORS", "_cache"}


def test_projections_the_solves_call_read_no_part_table():
    # solve_reconstruction calls these, so they stay off the rules it checks
    tree = ast.parse((ROOT / "src/trideco/gl3.py").read_text(encoding="utf-8"))
    names = {"symmetric_part", "antisymmetric_part", "residue_part", "n_split"}
    functions = [
        node for node in tree.body if isinstance(node, ast.FunctionDef) and node.name in names
    ]
    assert {node.name for node in functions} == names
    for function in functions:
        used = {node.id for node in ast.walk(function) if isinstance(node, ast.Name)}
        used |= {node.attr for node in ast.walk(function) if isinstance(node, ast.Attribute)}
        assert not used & {"evaluate", "PARTS", "_RULES"}, function.name


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
