"""The committed formula notes and the constant checks of scripts/derive_constants.py."""

import importlib.util
from pathlib import Path

import pytest

from trideco import constitutive, oracle, so3
from trideco.tensor import EUCLIDEAN

ROOT = Path(__file__).resolve().parent.parent


def _load_derive_constants():
    spec = importlib.util.spec_from_file_location(
        "derive_constants", ROOT / "scripts" / "derive_constants.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


derive_constants = _load_derive_constants()


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
