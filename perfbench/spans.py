"""Span tracing of trideco's modules, installed from the benchmark's own files.

A ``Tracer`` replaces the public functions and methods listed in
``trideco_targets`` with timing wrappers, keeps one span per call in memory
(name, start, end, parent span, item) and restores the originals on
``uninstall``.  Nothing under ``src/`` is edited.  A layer's self time is its
span's duration minus the part of that interval its child spans cover.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict


def trideco_targets():
    """``(owner, attribute, span name)`` for every traced trideco callable."""
    from trideco import cli, constitutive, gl3, o3, oracle, report, sl3, so3, tensor, tensorio
    from trideco.symmetrizers import GroupAlgebraElement

    def each(owner, names, span):
        return [(owner, name, span) for name in names]

    return [
        (tensor.Tensor3, "__post_init__", "tensor.construct"),
        (tensor, "scalar_product", "tensor.scalar_product"),
        (GroupAlgebraElement, "apply", "symmetrizers.apply"),
        *each(gl3, ("symmetric_part", "antisymmetric_part", "residue_part", "n_split",
                    "decompose"), "gl3"),
        *each(o3, ("trace_vectors", "s_trace_split", "n_trace_split",
                   "n_family_trace_split", "decompose"), "o3"),
        (o3, "orthogonality_matrix", "o3.gram"),
        *each(sl3, ("pseudo_scalar", "epsilon_contractions", "reconstruct_n1",
                    "reconstruct_n2", "reconstruct_n"), "sl3"),
        *each(so3, ("so3_representation", "so3_split"), "so3.representation"),
        *each(so3, ("reassemble", "first_component_from", "second_component_from"),
              "so3.reassemble"),
        (constitutive.PiezoTensor, "__post_init__", "constitutive"),
        (constitutive.HallTensor, "__post_init__", "constitutive"),
        *each(constitutive, ("piezo_decompose", "hall_decompose", "piezo_n_from_matrix",
                             "hall_n_from_matrix", "piezo_parts_from_matrix",
                             "hall_parts_from_matrix"), "constitutive"),
        (report, "build_report", "report.build"),
        (report, "classify_symmetry", "report.classify"),
        *each(report.DecompositionReport, ("to_dict", "render_text"), "report.render"),
        (oracle, "materialize", "oracle.materialize"),
        (oracle, "rank", "oracle.rank"),
        (oracle, "solve_reconstruction", "oracle.solve"),
        (oracle, "agreement", "oracle.agreement"),
        (oracle, "dimension_report", "oracle.dimension_report"),
        *each(tensorio, ("read_tensor", "read_metric", "read_voigt"), "tensorio.read"),
        (cli, "main", "cli.main"),
    ]


class Tracer:
    """Collects spans as ``(name, start, end, parent index, item)`` tuples."""

    def __init__(self):
        self.spans: list = []
        self.item = 0
        self._stack: list[int] = []
        self._patches: list = []

    def wrap(self, func, name: str):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(func)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                return func(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent, self.item)

        return traced

    def install(self, targets, extra_modules=()) -> None:
        """Wrap every target, wherever a module of the package holds it by name.

        Modules that imported a function with ``from ... import`` hold their
        own reference, so each of those is replaced too.
        """
        modules = [
            module for key, module in list(sys.modules.items())
            if key == "trideco" or key.startswith("trideco.")
        ] + list(extra_modules)
        for owner, attribute, name in targets:
            original = getattr(owner, attribute)
            traced = self.wrap(original, name)
            if isinstance(owner, type):
                holders = [owner]
            else:
                holders = [m for m in modules if getattr(m, attribute, None) is original]
            for holder in holders:
                self._patches.append((holder, attribute, original))
                setattr(holder, attribute, traced)

    def uninstall(self) -> None:
        for holder, attribute, original in reversed(self._patches):
            setattr(holder, attribute, original)
        self._patches.clear()


def self_times(spans) -> list[float]:
    """Each span's duration minus the union of its children's intervals."""
    children = defaultdict(list)
    for name, start, end, parent, item in spans:
        if parent >= 0:
            children[parent].append((start, end))
    result = []
    for index, (name, start, end, parent, item) in enumerate(spans):
        covered = 0.0
        reach = start
        for child_start, child_end in sorted(children.get(index, ())):
            low, high = max(child_start, reach), min(child_end, end)
            if high > low:
                covered += high - low
                reach = high
        result.append((end - start) - covered)
    return result


def summarize(spans) -> dict[str, dict[str, float]]:
    """Per span name: call count, summed self time and summed duration (s)."""
    totals: dict[str, dict[str, float]] = defaultdict(
        lambda: {"count": 0, "self": 0.0, "total": 0.0}
    )
    for span, own in zip(spans, self_times(spans)):
        entry = totals[span[0]]
        entry["count"] += 1
        entry["self"] += own
        entry["total"] += span[2] - span[1]
    return dict(totals)


def dump(path, spans, meta: dict) -> None:
    """Write spans compactly: a name table and integer nanosecond offsets."""
    names = sorted({span[0] for span in spans})
    index = {name: i for i, name in enumerate(names)}
    base = spans[0][1] if spans else 0.0
    rows = [
        [index[name], round((start - base) * 1e9), round((end - base) * 1e9), parent, item]
        for name, start, end, parent, item in spans
    ]
    with open(path, "w", encoding="utf-8") as handle:
        json.dump({"meta": meta, "names": names, "spans": rows}, handle,
                  separators=(",", ":"))


def load(path):
    """Inverse of ``dump``: ``(spans, meta)`` with times in seconds."""
    with open(path, encoding="utf-8") as handle:
        data = json.load(handle)
    names = data["names"]
    spans = [
        (names[name], start * 1e-9, end * 1e-9, parent, item)
        for name, start, end, parent, item in data["spans"]
    ]
    return spans, data["meta"]
