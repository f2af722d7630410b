#!/usr/bin/env python3
"""Print a SHA-256 digest of a fixed corpus of reports, one line per report shape.

The corpus is seeded: 300 tensors with components at 10**u, u uniform in
[-150, 150], each reported in all nine shapes (gl3 with no family and with
each of the three, o3, sl3, so3, piezo and Hall) under one of nine metrics
in turn: the Euclidean metric, diag(2, 1, 1) and [[2, 1, 0], [1, 2, 0],
[0, 0, 3]], each also times 4**40 and 4**-40.  A shape's digest runs over
each report's ``to_dict()`` JSON, its ``render_text()``, its ``gram`` bytes
and its parts' component bytes; a rejected report contributes its exception
type and message instead.  The first output line is the file ``trideco`` was
imported from, so two trees can be compared by running the script under
each's ``PYTHONPATH``: equal lines mean byte-identical reports.

    PYTHONPATH=src python3 scripts/report_digest.py
"""

import hashlib
import json

import numpy as np

import trideco
from trideco import report
from trideco.gl3 import FAMILIES
from trideco.tensor import Metric, Tensor3

SEED = 20240607
DRAWS = 300

#: (level, family, mode) of every report shape
SHAPES = (
    ("gl3", None, "generic"),
    *(("gl3", family, "generic") for family in FAMILIES),
    ("o3", None, "generic"),
    ("sl3", None, "generic"),
    ("so3", None, "generic"),
    ("o3", None, "piezo"),
    ("o3", None, "hall"),
)

_BASES = (np.eye(3), np.diag([2.0, 1.0, 1.0]),
          np.array([[2.0, 1.0, 0.0], [1.0, 2.0, 0.0], [0.0, 0.0, 3.0]]))
METRICS = tuple(Metric(base * 4.0**k) for base in _BASES for k in (0, 40, -40))


def _input(x: np.ndarray, mode: str) -> Tensor3:
    """``x`` as the report input of ``mode``: symmetric in the last two slots
    for piezo, antisymmetric in the first two and lower for Hall."""
    if mode == "piezo":
        return Tensor3((x + x.transpose(0, 2, 1)) / 2.0)
    if mode == "hall":
        return Tensor3((x - x.transpose(1, 0, 2)) / 2.0, "lower")
    return Tensor3(x)


def _report_bytes(t: Tensor3, level, family, mode, metric) -> tuple[bytes, bool]:
    """The bytes a report contributes to its digest and whether it was rejected."""
    try:
        rep = report.build_report(t, level, family, mode, metric)
    except ValueError as error:
        return f"{type(error).__name__}: {error}".encode(), True
    blob = json.dumps(rep.to_dict(), sort_keys=True).encode() + rep.render_text().encode()
    blob += rep.gram.tobytes() + b"".join(part.tensor.components.tobytes() for part in rep.parts)
    return blob, False


def main() -> int:
    print(trideco.__file__)
    rng = np.random.default_rng(SEED)
    draws = [rng.uniform(-1.0, 1.0, (3, 3, 3)) * 10.0 ** rng.uniform(-150.0, 150.0)
             for _ in range(DRAWS)]
    for level, family, mode in SHAPES:
        digest, rejected = hashlib.sha256(), 0
        for index, x in enumerate(draws):
            blob, failed = _report_bytes(_input(x, mode), level, family, mode,
                                         METRICS[index % len(METRICS)])
            digest.update(blob)
            rejected += failed
        name = mode if mode != "generic" else "/".join(filter(None, (level, family)))
        print(f"{name:<10} {DRAWS} reports, {rejected:>3} rejected  {digest.hexdigest()}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
