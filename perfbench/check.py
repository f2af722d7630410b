"""Output checks of every workload.

The bounds are the ones trideco's own test suite uses on unit-scale data,
taken here relative to the input's scale.  The checks use numpy only, with
matrices the oracle built before timing, so they add no spans and no trideco
calls to a traced run.  Every function returns a list of problems; an empty
list means the output passed.
"""

from __future__ import annotations

import json
import math

import numpy as np

#: reconstruction residual, relative to the input's max-abs component
RESIDUAL_TOL = 1e-12
#: deviation of the shares of an orthogonal split from summing to 1
SHARE_SUM_TOL = 1e-9
#: Gram off-diagonal of an orthogonal split, relative to the input's squared norm
GRAM_TOL = 1e-12
#: part norm against the norm of the oracle matrix applied to the input,
#: relative to the input's norm
AGREEMENT_TOL = 1e-12
#: so3 representation round trip, relative to the input's max-abs component
ROUNDTRIP_TOL = 1e-11


def norm_matrix(g: np.ndarray | None, variance: str) -> np.ndarray:
    """27x27 matrix ``G`` with ``|y|^2 = y . G . y`` for flattened components."""
    if g is None:
        return np.eye(27)
    m = np.asarray(g, dtype=float) if variance == "upper" else np.linalg.inv(g)
    return np.kron(np.kron(m, m), m)


def _norm(flat: np.ndarray, metric_matrix: np.ndarray) -> float:
    return math.sqrt(max(float(flat @ metric_matrix @ flat), 0.0))


def _reject_constant(name):
    raise ValueError(f"non-finite JSON value {name}")


def load_json(text: str):
    """Parse strict JSON: NaN and Infinity are errors."""
    return json.loads(text, parse_constant=_reject_constant)


def report_failures(doc: dict, x: np.ndarray, metric_matrix: np.ndarray,
                    part_matrices, orthogonal: bool) -> list[str]:
    """Problems in one report document for input components ``x``.

    ``part_matrices`` holds the oracle matrix of each reported part in
    report order; ``metric_matrix`` is the input's ``norm_matrix``.
    """
    problems = []
    flat = np.asarray(x, dtype=float).reshape(27)
    scale = float(np.max(np.abs(flat)))
    x_norm = _norm(flat, metric_matrix)
    if not doc["residual"] <= RESIDUAL_TOL * scale:
        problems.append(f"residual {doc['residual']:.3e} at scale {scale:.3e}")
    parts = doc["parts"]
    if len(parts) != len(part_matrices):
        return problems + [f"{len(parts)} parts, expected {len(part_matrices)}"]
    for part, matrix in zip(parts, part_matrices):
        expected = _norm(matrix @ flat, metric_matrix)
        if not abs(part["norm"] - expected) <= AGREEMENT_TOL * x_norm:
            problems.append(
                f"{part['name']} norm {part['norm']:.17g}, oracle {expected:.17g}"
            )
    if orthogonal:
        total = sum(part["share"] for part in parts)
        if not abs(total - 1.0) <= SHARE_SUM_TOL:
            problems.append(f"shares sum to {total:.17g}")
        matrix = np.asarray(doc["gram"], dtype=float)
        off = float(np.max(np.abs(matrix - np.diag(np.diag(matrix)))))
        if not off <= GRAM_TOL * x_norm**2:
            problems.append(f"Gram off-diagonal {off:.3e} at squared norm {x_norm**2:.3e}")
    return problems


def roundtrip_failures(rebuilt: np.ndarray, x: np.ndarray) -> list[str]:
    scale = float(np.max(np.abs(x)))
    deviation = float(np.max(np.abs(np.asarray(rebuilt) - x)))
    if deviation <= ROUNDTRIP_TOL * scale:
        return []
    return [f"round trip deviates by {deviation:.3e} at scale {scale:.3e}"]


def exit_failures(returncode: int, expected: int, stderr: str) -> list[str]:
    """A CLI exit code against the documented one; rejections must explain."""
    if returncode != expected:
        return [f"exit code {returncode}, expected {expected}"]
    if expected != 0 and not stderr.startswith("error:"):
        return [f"exit code {expected} without an error message"]
    return []


def selfcheck_failures(returncode: int, json_text: str | None) -> list[str]:
    if returncode != 0:
        return [f"self-check exit code {returncode}"]
    if json_text is None:
        return ["self-check wrote no JSON"]
    try:
        failures = load_json(json_text)["self_check"]["failures"]
    except (ValueError, KeyError, TypeError) as exc:
        return [f"self-check JSON: {exc!r}"]
    return [f"self-check failures: {failures}"] if failures else []
