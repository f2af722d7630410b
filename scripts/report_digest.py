#!/usr/bin/env python3
"""Print SHA-256 digests of the library's results on a fixed corpus, one named line each.

The corpus is seeded: 300 tensors with components at 10**u, u uniform in
[-150, 150], each taken under one of nine metrics in turn: the Euclidean
metric, diag(2, 1, 1) and [[2, 1, 0], [1, 2, 0], [0, 0, 3]], each also
times 4**40 and 4**-40.  The first output line is the file ``trideco`` was
imported from, so two trees can be compared by running the script under
each's ``PYTHONPATH``: equal lines mean byte-identical results.  Then:

- one line per report shape (gl3 with no family and with each of the
  three, o3, sl3, so3, piezo and Hall) and base metric (``euclid``,
  ``diag211`` or ``spd``, each at its three scales), over the report of
  each corpus tensor taken under that metric:
  its ``to_dict()`` JSON, its ``render_text()``, its ``gram`` bytes and its
  parts' component bytes;
- ``self_check/<seed>`` for seeds 0, 1 and 12345: the JSON of
  ``oracle.self_check(seed)`` with sorted keys;
- ``operator/<name>/<base>`` for every part in ``parts.PARTS``: the bytes
  of ``parts.operator(name, m)`` under each unscaled base metric;
- one line per public call on the corpus and base metric
  (``gl3.decompose`` in every family, ``o3.decompose``, the sl3
  contractions and pseudo-scalar, the so3
  representation and its reassembly, and the piezo and Hall decompositions
  and the parts they rebuild from their matrices): the bytes, tags and
  floats of each result.

A rejected report or call contributes its exception type and message
instead.

    PYTHONPATH=src python3 scripts/report_digest.py
"""

import dataclasses
import hashlib
import json

import numpy as np

import trideco
from trideco import constitutive, gl3, o3, oracle, parts, report, sl3, so3
from trideco.gl3 import FAMILIES
from trideco.tensor import Metric, Tensor3

SEED = 20240607
DRAWS = 300
SELF_CHECK_SEEDS = (0, 1, 12345)

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


def _report_bytes(rep: report.DecompositionReport) -> bytes:
    """The bytes a report contributes to its digest."""
    blob = json.dumps(rep.to_dict(), sort_keys=True).encode() + rep.render_text().encode()
    return blob + rep.gram.tobytes() + b"".join(p.tensor.components.tobytes() for p in rep.parts)


def _value_bytes(value) -> bytes:
    """The bytes of a public call's result: arrays, tags and floats, in field
    order; the metric a result carries is the one it was called with."""
    if isinstance(value, Metric):
        return b""
    if dataclasses.is_dataclass(value):
        return b"".join(_value_bytes(getattr(value, f.name)) for f in dataclasses.fields(value))
    if isinstance(value, (list, tuple)):
        return b"".join(map(_value_bytes, value))
    if isinstance(value, np.ndarray):
        return value.tobytes()
    return repr(value).encode()


def _piezo(x, metric):
    return constitutive.piezo_decompose(constitutive.PiezoTensor(_input(x, "piezo")), metric)


def _hall(x, metric):
    return constitutive.hall_decompose(constitutive.HallTensor(_input(x, "hall")), metric)


#: every digested public call of one corpus tensor's components and metric
PUBLIC_CALLS = {
    "gl3.decompose": lambda x, metric: [gl3.decompose(Tensor3(x), f) for f in FAMILIES],
    "o3.decompose": lambda x, metric: o3.decompose(Tensor3(x), metric),
    "sl3.epsilon_contractions": lambda x, metric: sl3.epsilon_contractions(Tensor3(x)),
    "sl3.pseudo_scalar": lambda x, metric: sl3.pseudo_scalar(Tensor3(x)),
    "so3.so3_representation": lambda x, metric: so3.so3_representation(Tensor3(x), metric),
    "so3.reassemble": lambda x, metric: so3.reassemble(
        so3.so3_representation(Tensor3(x), metric), metric),
    "piezo_decompose": _piezo,
    "piezo_parts_from_matrix": lambda x, metric: constitutive.piezo_parts_from_matrix(
        _piezo(x, metric)),
    "hall_decompose": _hall,
    "hall_parts_from_matrix": lambda x, metric: constitutive.hall_parts_from_matrix(
        _hall(x, metric)),
}


#: the name of each base metric, whose three scalings share one line
BASE_NAMES = ("euclid", "diag211", "spd")


def _corpus_digests(blob_of, draws, metrics) -> dict[str, tuple[int, int, str]]:
    """Per base metric: the number of corpus tensors taken under it, how
    many of them ``blob_of(x, metric)`` rejects and the digest of its bytes
    over them; a rejection contributes its exception type and message."""
    found = {name: [0, 0, hashlib.sha256()] for name in BASE_NAMES}
    for index, (x, metric) in enumerate(zip(draws, metrics)):
        entry = found[BASE_NAMES[index % len(METRICS) // 3]]
        entry[0] += 1
        try:
            entry[2].update(blob_of(x, metric))
        except ValueError as error:
            entry[2].update(f"{type(error).__name__}: {error}".encode())
            entry[1] += 1
    return {name: (count, rejected, digest.hexdigest())
            for name, (count, rejected, digest) in found.items()}


def _sha(blob: bytes) -> str:
    return hashlib.sha256(blob).hexdigest()


def main() -> int:
    print(trideco.__file__)
    rng = np.random.default_rng(SEED)
    draws = [rng.uniform(-1.0, 1.0, (3, 3, 3)) * 10.0 ** rng.uniform(-150.0, 150.0)
             for _ in range(DRAWS)]
    metrics = [METRICS[index % len(METRICS)] for index in range(DRAWS)]
    for level, family, mode in SHAPES:
        digests = _corpus_digests(
            lambda x, metric: _report_bytes(
                report.build_report(_input(x, mode), level, family, mode, metric)),
            draws, metrics)
        name = mode if mode != "generic" else "/".join(filter(None, (level, family)))
        for base, (count, rejected, digest) in digests.items():
            print(f"{f'{name}/{base}':<18} {count} reports, {rejected:>3} rejected  {digest}")
    for seed in SELF_CHECK_SEEDS:
        check = json.dumps(oracle.self_check(seed), sort_keys=True).encode()
        print(f"{f'self_check/{seed}':<40} {_sha(check)}")
    for name in parts.PARTS:
        # the unscaled Euclidean, diagonal and SPD metrics
        for base, metric in zip(BASE_NAMES, METRICS[::3]):
            matrix = parts.operator(name, metric)
            print(f"{f'operator/{name}/{base}':<40} {_sha(matrix.tobytes())}")
    for name, call in PUBLIC_CALLS.items():
        digests = _corpus_digests(lambda x, metric: _value_bytes(call(x, metric)), draws, metrics)
        for base, (count, rejected, digest) in digests.items():
            print(f"{f'{name}/{base}':<32} {count} calls, {rejected:>3} rejected  {digest}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
