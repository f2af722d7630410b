"""File formats: JSON tensors, JSON metrics, Voigt tables for the piezo shape."""

from __future__ import annotations

import json
import numbers
from pathlib import Path

import numpy as np

from .constitutive import PiezoTensor
from .tensor import Metric, Tensor3, TensorError


class InputFormatError(ValueError):
    """The file exists but does not hold a valid tensor or metric."""


#: column order of a Voigt table; off-diagonal columns populate both slot
#: orders with the same value (no factor-2 engineering convention)
VOIGT_COLUMNS = ((0, 0), (1, 1), (2, 2), (1, 2), (0, 2), (0, 1))


def _load_json(path) -> dict:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise InputFormatError(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise InputFormatError(f"{path} is not UTF-8 text: {exc}") from exc
    try:
        data = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:
        # RecursionError: arrays nested deeper than the decoder's stack
        raise InputFormatError(f"{path} is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise InputFormatError(f"{path}: expected a JSON object")
    return data


def _as_array(data, shape, where) -> np.ndarray:
    """``data`` as a finite float array of ``shape``.

    Every entry must be a real number and not a boolean: ``np.array`` would
    also turn strings such as ``"1.5"`` and booleans into floats.
    """
    try:
        arr = np.array(data, dtype=np.float64)
    except (TypeError, ValueError) as exc:
        raise InputFormatError(f"{where}: components must be numbers") from exc
    except OverflowError as exc:
        raise InputFormatError(f"{where}: components must be finite") from exc
    if arr.shape != shape:
        raise InputFormatError(f"{where}: expected shape {shape}, got {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise InputFormatError(f"{where}: components must be finite")
    # judged once per entry type: the ``numbers.Real`` check is slow
    types = {type(value) for value in np.array(data, dtype=object).flat}
    if not all(issubclass(t, numbers.Real) and not issubclass(t, (bool, np.bool_))
               for t in types):
        raise InputFormatError(f"{where}: components must be numbers")
    return arr


def read_tensor(path) -> Tensor3:
    """Read ``{"variance": ..., "parity": ..., "components": [[[...]]]}``."""
    data = _load_json(path)
    variance = data.get("variance")
    if variance not in ("upper", "lower"):
        raise InputFormatError(f'{path}: "variance" must be "upper" or "lower"')
    parity = data.get("parity", 0)
    # exact type: True and 1.0 compare equal to 1
    if type(parity) is not int or parity not in (0, 1):
        raise InputFormatError(f'{path}: "parity" must be the integer 0 or 1')
    if "components" not in data:
        raise InputFormatError(f'{path}: missing "components"')
    components = _as_array(data["components"], (3, 3, 3), str(path))
    return Tensor3(components, variance, parity)


def tensor_to_dict(t: Tensor3) -> dict:
    return {
        "variance": t.variance,
        "parity": t.parity,
        "components": t.components.tolist(),
    }


def write_tensor(t: Tensor3, path) -> None:
    Path(path).write_text(json.dumps(tensor_to_dict(t), indent=2) + "\n", encoding="utf-8")


def read_metric(path) -> Metric:
    data = _load_json(path)
    if "g" not in data:
        raise InputFormatError(f'{path}: missing "g"')
    g = _as_array(data["g"], (3, 3), str(path))
    try:
        return Metric(g)
    except TensorError as exc:
        raise InputFormatError(f"{path}: {exc}") from exc


def voigt_to_tensor(table) -> PiezoTensor:
    """Expand a 3x6 Voigt table to the full pair-symmetric tensor."""
    return _expand_voigt(_as_array(table, (3, 6), "voigt table"))


def _expand_voigt(table: np.ndarray) -> PiezoTensor:
    """The pair-symmetric tensor of a checked 3x6 float table."""
    components = np.zeros((3, 3, 3))
    for column, (j, k) in enumerate(VOIGT_COLUMNS):
        for i in range(3):
            components[i, j, k] = table[i, column]
            components[i, k, j] = table[i, column]
    return PiezoTensor(Tensor3(components, "upper"))


def tensor_to_voigt(d: PiezoTensor) -> np.ndarray:
    table = np.zeros((3, 6))
    for column, (j, k) in enumerate(VOIGT_COLUMNS):
        table[:, column] = d.tensor.components[:, j, k]
    return table


def read_voigt(path) -> PiezoTensor:
    data = _load_json(path)
    if "voigt" not in data:
        raise InputFormatError(f'{path}: missing "voigt"')
    return _expand_voigt(_as_array(data["voigt"], (3, 6), str(path)))


def write_voigt(d: PiezoTensor, path) -> None:
    Path(path).write_text(
        json.dumps({"voigt": tensor_to_voigt(d).tolist()}, indent=2) + "\n",
        encoding="utf-8",
    )
