"""Seeded items of the library-mix workload and the library calls that run them.

A pass holds one item of every kind in ``LIBRARY_KINDS``, in a seeded order.
The weights are equal because no measured traffic says otherwise: the mix is
an assumption, not a sample of real use.  The seed changes the component
values, their scale, the metrics and the family of the ``gl3-family`` item.
The arrays stay fixed for a run, so later passes repeat the first by content;
the ``Tensor3`` and ``Metric`` are built anew inside every timed call.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np
from trideco import EUCLIDEAN, Metric, Tensor3, report, so3
from trideco.gl3 import FAMILIES

#: item kinds of one pass, one item each: build_report at each level (gl3
#: with and without a family), o3 with a non-Euclidean metric, piezo and Hall
#: reports with and without a repairable asymmetry, and an so3 round trip
LIBRARY_KINDS = (
    "gl3", "gl3-family", "o3", "o3-metric", "sl3", "so3",
    "piezo", "piezo-repair", "hall", "hall-repair", "roundtrip",
)

#: decimal exponents of the component scale, drawn uniformly: the supported
#: range 1e-150..1e150
SCALE_EXPONENTS = (-150.0, 150.0)

#: relative asymmetry carried by the repair items: above trideco's level for
#: silent repairs (1e-13) and below its rejection level (1e-9)
REPAIR_ASYMMETRY = 1e-11

#: oracle operators whose matrices give each report's parts, in report order
PART_OPERATORS = {
    ("gl3", None): ("symmetric", "antisymmetric", "residue"),
    ("sl3", None): ("symmetric", "antisymmetric", "residue"),
    ("o3", None): ("k_part", "r_part", "antisymmetric", "m_part", "p_part"),
    ("so3", None): (
        "k_part", "r_part", "antisymmetric", "m1_part", "p1_part", "m2_part", "p2_part",
    ),
    ("piezo", None): ("piezo_k", "piezo_r", "piezo_m", "piezo_p"),
    ("hall", None): ("hall_a", "hall_m", "hall_p"),
    **{
        ("gl3", family): ("symmetric", "antisymmetric", f"n1_{family}", f"n2_{family}")
        for family in FAMILIES
    },
}


@dataclass(frozen=True)
class Item:
    """One library call: the input arrays and the report it asks for."""

    kind: str
    components: np.ndarray
    variance: str = "upper"
    level: str = "so3"
    family: str | None = None
    mode: str = "generic"
    #: metric matrix, ``None`` for the Euclidean default
    metric: np.ndarray | None = None

    @property
    def shape(self) -> tuple[str, str | None]:
        """Key into ``PART_OPERATORS``: the level, or the mode for piezo/hall."""
        return (self.mode if self.mode != "generic" else self.level, self.family)


def is_orthogonal(shape: tuple[str, str | None]) -> bool:
    """Whether a report of this shape has mutually orthogonal parts.

    The so3 branches and the gl3 family halves overlap by construction.
    """
    return shape[1] is None and shape[0] != "so3"


def generic(rng: np.random.Generator, scale: float = 1.0) -> np.ndarray:
    return rng.uniform(-1.0, 1.0, (3, 3, 3)) * scale


#: slot swaps of the two constitutive shapes
PIEZO_SWAP = (0, 2, 1)
HALL_SWAP = (1, 0, 2)


def slot_pair(rng: np.random.Generator, swap, sign: float, scale: float = 1.0) -> np.ndarray:
    """Random tensor symmetric (``sign=1``) or antisymmetric (``sign=-1``) under ``swap``."""
    arr = rng.uniform(-1.0, 1.0, (3, 3, 3))
    return (arr + sign * np.transpose(arr, swap)) / 2.0 * scale


def random_metric(rng: np.random.Generator, eigenvalues=None) -> np.ndarray:
    """Exactly symmetric metric matrix with eigenvalues in [1/3, 3] by default."""
    q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
    if eigenvalues is None:
        eigenvalues = 3.0 ** rng.uniform(-1.0, 1.0, 3)
    g = q @ np.diag(eigenvalues) @ q.T
    return (g + g.T) / 2.0


def _item(kind: str, rng: np.random.Generator) -> Item:
    scale = 10.0 ** rng.uniform(*SCALE_EXPONENTS)
    noise = REPAIR_ASYMMETRY * scale
    if kind in ("gl3", "sl3", "so3", "o3"):
        return Item(kind, generic(rng, scale), level=kind)
    if kind == "gl3-family":
        family = FAMILIES[int(rng.integers(len(FAMILIES)))]
        return Item(kind, generic(rng, scale), level="gl3", family=family)
    if kind == "o3-metric":
        return Item(kind, generic(rng, scale), level="o3", metric=random_metric(rng))
    if kind in ("piezo", "piezo-repair"):
        arr = slot_pair(rng, PIEZO_SWAP, 1.0, scale)
        if kind == "piezo-repair":
            arr = arr + slot_pair(rng, PIEZO_SWAP, -1.0, noise)
        return Item(kind, arr, level="o3", mode="piezo")
    if kind in ("hall", "hall-repair"):
        arr = slot_pair(rng, HALL_SWAP, -1.0, scale)
        if kind == "hall-repair":
            arr = arr + slot_pair(rng, HALL_SWAP, 1.0, noise)
        return Item(kind, arr, variance="lower", level="o3", mode="hall")
    if kind == "roundtrip":
        return Item(kind, generic(rng, scale))
    raise ValueError(f"unknown item kind {kind!r}")


def make_items(seed: int) -> list[Item]:
    """One pass of the library-mix workload, in seeded order."""
    rng = np.random.default_rng(seed)
    items = [_item(kind, rng) for kind in LIBRARY_KINDS]
    return [items[i] for i in rng.permutation(len(items))]


def render(result):
    """What a library user does with a report: dictionary, text and JSON."""
    doc = result.to_dict()
    return doc, result.render_text(), json.dumps(doc)


def run_item(item: Item):
    """The timed library calls of one item, from its arrays to the output.

    The ``Tensor3`` and ``Metric`` are built here, so every call pays their
    checks.  Returns the rebuilt tensor for a round trip, otherwise
    ``(report, dict, text, json_text)``.
    """
    tensor = Tensor3(item.components, item.variance)
    metric = EUCLIDEAN if item.metric is None else Metric(item.metric)
    if item.kind == "roundtrip":
        return so3.reassemble(so3.so3_representation(tensor))
    result = report.build_report(
        tensor, level=item.level, family=item.family, mode=item.mode, metric=metric
    )
    return (result, *render(result))
