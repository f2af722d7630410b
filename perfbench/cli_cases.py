"""Seeded input files of the cli-oneshot workload.

One pass holds one case of every kind in ``CLI_KINDS``: eight accepted runs
that cover ``--input`` at each level, ``--family``, ``--metric``, ``--voigt``,
``--mode hall`` and ``--json``, and four inputs the CLI must reject (a third):
malformed JSON and a metric that is not positive definite (exit 2), a
lower-variance tensor in generic mode and a Hall tensor beyond the 1e-9
asymmetry limit (exit 3).  The weights are equal because no measured traffic
says otherwise; the mix is an assumption.  Components are
uniform in [-1, 1], like the test suite's fixtures; the library-mix workload
covers the scale range.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from trideco.gl3 import FAMILIES
from trideco.tensorio import VOIGT_COLUMNS

from perfbench.library import HALL_SWAP, PIEZO_SWAP, generic, random_metric, slot_pair

#: case kinds of one pass, one case each; the last four must be rejected
CLI_KINDS = (
    "so3", "o3", "sl3", "gl3", "gl3-family", "o3-metric", "voigt", "hall",
    "malformed-json", "non-spd-metric", "lower-generic", "hall-asymmetric",
)

#: relative asymmetry of the rejected Hall inputs, far beyond the 1e-9 limit
REJECTED_ASYMMETRY = 1e-3


@dataclass(frozen=True)
class Case:
    """One CLI run: its arguments, the exit code it must give and its input."""

    kind: str
    args: tuple[str, ...]
    expected_exit: int
    components: np.ndarray
    variance: str = "upper"
    metric: np.ndarray | None = None
    #: key into ``library.PART_OPERATORS`` for accepted runs
    shape: tuple[str, str | None] | None = None


def _write(path: Path, document) -> str:
    path.write_text(json.dumps(document), encoding="utf-8")
    return str(path)


def _tensor_doc(arr: np.ndarray, variance: str = "upper") -> dict:
    return {"variance": variance, "parity": 0, "components": arr.tolist()}


def _case(kind: str, index: int, rng: np.random.Generator, directory: Path,
          out: str) -> Case:
    stem = directory / f"{index:02d}-{kind}"
    arr = generic(rng)

    def tensor_file() -> str:
        return _write(stem.with_suffix(".json"), _tensor_doc(arr))

    if kind in ("so3", "o3", "sl3", "gl3"):
        return Case(kind, ("--input", tensor_file(), "--level", kind, "--json", out), 0, arr,
                    shape=(kind, None))
    if kind == "gl3-family":
        family = FAMILIES[int(rng.integers(len(FAMILIES)))]
        return Case(kind, ("--input", tensor_file(), "--level", "gl3", "--family", family,
                           "--json", out), 0, arr, shape=("gl3", family))
    if kind in ("o3-metric", "non-spd-metric"):
        eigenvalues = None if kind == "o3-metric" else np.array([1.0, 0.5, -0.25])
        g = random_metric(rng, eigenvalues)
        metric = _write(stem.with_suffix(".g.json"), {"g": g.tolist()})
        args = ("--input", tensor_file(), "--level", "o3", "--metric", metric, "--json", out)
        if kind == "non-spd-metric":
            return Case(kind, args, 2, arr)
        return Case(kind, args, 0, arr, metric=g, shape=("o3", None))
    if kind == "voigt":
        arr = slot_pair(rng, PIEZO_SWAP, 1.0)
        table = [[arr[i, j, k] for j, k in VOIGT_COLUMNS] for i in range(3)]
        voigt = _write(stem.with_suffix(".voigt.json"), {"voigt": table})
        return Case(kind, ("--voigt", voigt, "--json", out), 0, arr, shape=("piezo", None))
    if kind in ("hall", "hall-asymmetric"):
        arr = slot_pair(rng, HALL_SWAP, -1.0)
        if kind == "hall-asymmetric":
            arr = arr + slot_pair(rng, HALL_SWAP, 1.0, REJECTED_ASYMMETRY)
        hall = _write(stem.with_suffix(".hall.json"), _tensor_doc(arr, "lower"))
        args = ("--input", hall, "--mode", "hall", "--json", out)
        if kind == "hall-asymmetric":
            return Case(kind, args, 3, arr, variance="lower")
        return Case(kind, args, 0, arr, variance="lower", shape=("hall", None))
    if kind == "malformed-json":
        text = json.dumps(_tensor_doc(arr))
        bad = stem.with_suffix(".bad.json")
        bad.write_text(text[: len(text) // 2], encoding="utf-8")
        return Case(kind, ("--input", str(bad), "--level", "so3", "--json", out), 2, arr)
    if kind == "lower-generic":
        lower = _write(stem.with_suffix(".lower.json"), _tensor_doc(arr, "lower"))
        return Case(kind, ("--input", lower, "--level", "so3", "--json", out), 3, arr,
                    variance="lower")
    raise ValueError(f"unknown case kind {kind!r}")


def write_cases(seed: int, directory: Path, out: Path) -> list[Case]:
    """Write one pass of input files into ``directory``, in seeded order.

    Every run writes its JSON report to ``out``.
    """
    directory.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(seed)
    cases = [_case(kind, index, rng, directory, str(out))
             for index, kind in enumerate(CLI_KINDS)]
    return [cases[i] for i in rng.permutation(len(cases))]
