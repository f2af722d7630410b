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
    shipped = {system: coeffs for system, _, coeffs, _ in oracle.SHIPPED_CONSTANTS}
    # a fully symmetric tensor has the same trace over every pair
    (weight,) = shipped["k_from_trace"]
    assert np.allclose(parts._TRACE_WEIGHTS @ [1.0, 1.0, 1.0], [weight] * 3, rtol=0, atol=1e-15)
    # a slots-1,2-symmetric plain member with trace beta over (1,2) has
    # -beta/2 over the other two pairs
    x, y = shipped["m1_from_trace"]
    assert np.allclose(parts._TRACE_WEIGHTS @ [1.0, -0.5, -0.5], [x, x, y], rtol=0, atol=1e-15)


def test_reconstruction_solves_use_no_shipped_closed_form():
    # the solves check the shipped formulas only while they do not reuse them
    tree = ast.parse((ROOT / "src/trideco/oracle.py").read_text(encoding="utf-8"))
    (solve,) = [
        node for node in tree.body
        if isinstance(node, ast.FunctionDef) and node.name == "solve_reconstruction"
    ]
    used = {node.id for node in ast.walk(solve) if isinstance(node, ast.Name)}
    used |= {node.attr for node in ast.walk(solve) if isinstance(node, ast.Attribute)}
    forbidden = {
        "contraction", "from_matrix", "axial", "from_axial", "PARTS", "constitutive",
        "RECONSTRUCTION_COEFF", "PIEZO_RECONSTRUCTION_COEFF", "HALL_RECONSTRUCTION_COEFFS",
        "HALL_MATRIX_WEIGHTS", "evaluate", "traces", "from_traces", "_TRACE_WEIGHTS", "halves",
        "operator",
    }
    assert not used & forbidden


def test_agreement_checks_the_compiled_matrix_against_the_rule_walk():
    # the matrix comes from the compiled operator; the forms it is checked
    # against must come from the rules, one tensor at a time
    tree = ast.parse((ROOT / "src/trideco/oracle.py").read_text(encoding="utf-8"))
    (agreement,) = [
        node for node in tree.body
        if isinstance(node, ast.FunctionDef) and node.name == "agreement"
    ]
    used = {node.id for node in ast.walk(agreement) if isinstance(node, ast.Name)}
    used |= {node.attr for node in ast.walk(agreement) if isinstance(node, ast.Attribute)}
    assert {"materialize", "form"} <= used
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


def test_every_traced_callable_exists():
    # a traced run wraps these by name, so renaming or removing one breaks it
    spans = _load_by_path("perfbench_spans", "perfbench/spans.py")
    missing = [
        f"{getattr(owner, '__name__', owner)}.{attribute}"
        for owner, attribute, _ in spans.trideco_targets()
        if not callable(getattr(owner, attribute, None))
    ]
    assert not missing
