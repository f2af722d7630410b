"""The three workloads: closed loops, set-up probes, child processes and tracing.

Load comes from this one process, with no worker threads; child processes
run strictly one at a time.  A pass is one trip through a workload's fixed,
seeded item list; every pass of a workload has the same item mix.
"""

from __future__ import annotations

import os
import resource
import select
import statistics
import subprocess
import sys
import time
import warnings
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from trideco import EUCLIDEAN, Metric, oracle

from perfbench import check, cli_cases, library, spans

#: fresh-interpreter set-ups timed per run, spread over the run; the median
#: is reported
SETUP_REPEATS = 15
#: a child still running after this long fails the run
CHILD_TIMEOUT_S = 120.0
#: traced library-mix passes stop once this many spans are held in memory
MAX_TRACED_SPANS = 200_000
#: the percentile reported as ``item_tail_ms``.  A 30 s run on a 2-core
#: machine gives about 12000 library-mix items and 110 cli-oneshot processes,
#: so p95 and p85 keep far more than ten samples beyond them; library-mix p99
#: moved by a third between runs there.  No percentile of the ten or so
#: self-check processes has ten samples beyond it; p75 is reported there.
TAIL_PERCENTILE = {"library-mix": 95.0, "self-check": 75.0, "cli-oneshot": 85.0}

#: span name, statistic, unit factor and unit of each per-layer metric
LAYER_SPANS = {
    "tensor.constructions": ("tensor.construct", "count", 1.0, "count"),
    "tensor.construct_self_us": ("tensor.construct", "self", 1e6, "us"),
    "tensor.scalar_product_calls": ("tensor.scalar_product", "count", 1.0, "count"),
    "tensor.scalar_product_self_us": ("tensor.scalar_product", "self", 1e6, "us"),
    "symmetrizers.apply_calls": ("symmetrizers.apply", "count", 1.0, "count"),
    "symmetrizers.apply_self_us": ("symmetrizers.apply", "self", 1e6, "us"),
    "gl3.self_us": ("gl3", "self", 1e6, "us"),
    "o3.self_us": ("o3", "self", 1e6, "us"),
    "o3.gram_self_us": ("o3.gram", "self", 1e6, "us"),
    "sl3.self_us": ("sl3", "self", 1e6, "us"),
    "so3.representation_self_us": ("so3.representation", "self", 1e6, "us"),
    "so3.reassemble_self_us": ("so3.reassemble", "self", 1e6, "us"),
    "constitutive.self_us": ("constitutive", "self", 1e6, "us"),
    "report.build_self_us": ("report.build", "self", 1e6, "us"),
    "report.classify_self_us": ("report.classify", "self", 1e6, "us"),
    "report.render_self_us": ("report.render", "self", 1e6, "us"),
    "oracle.materialize_calls": ("oracle.materialize", "count", 1.0, "count"),
    "oracle.dimension_report_calls": ("oracle.dimension_report", "count", 1.0, "count"),
    "oracle.materialize_self_s": ("oracle.materialize", "self", 1.0, "s"),
    "oracle.rank_self_s": ("oracle.rank", "self", 1.0, "s"),
    "oracle.solve_self_s": ("oracle.solve", "self", 1.0, "s"),
    "oracle.agreement_self_s": ("oracle.agreement", "self", 1.0, "s"),
    "tensorio.read_ms": ("tensorio.read", "total", 1e3, "ms"),
    "cli.main_self_ms": ("cli.main", "self", 1e3, "ms"),
}

#: per-layer metrics that are not span statistics
LAYER_COUNTERS = {
    "constitutive.repairs": "count",
    "cli.import_ms": "ms",
    "trace.overhead_frac": "frac",
}


@dataclass
class Context:
    root: Path
    work: Path
    seed: int
    seconds: float
    trace: bool

    @property
    def env(self) -> dict:
        return dict(os.environ, PYTHONPATH=str(self.root / "src"))


@dataclass
class Tally:
    """Latencies, pass rates and check results of one workload run."""

    latencies: list = field(default_factory=list)
    pass_rates: list = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)

    def record(self, seconds: float, problems) -> None:
        self.latencies.append(seconds)
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(problems[:3])

    def end_pass(self, items: int, seconds: float) -> None:
        self.pass_rates.append(items / seconds)

    def add_checks(self, other: "Tally") -> None:
        """Count ``other``'s checked outputs with this run's."""
        self.attempted += other.attempted
        self.failed += other.failed
        self.problems += other.problems


@dataclass
class Layers:
    """Per-layer totals of a traced run: span summaries plus counters."""

    summary: dict = field(default_factory=dict)
    items: int = 0
    import_s: float = 0.0
    repairs: int = 0

    def add(self, summary: dict) -> None:
        for name, entry in summary.items():
            total = self.summary.setdefault(name, {"count": 0, "self": 0.0, "total": 0.0})
            for key, value in entry.items():
                total[key] += value

    def metrics(self, overhead_frac: float) -> dict[str, float]:
        values = {
            metric: self.summary.get(span, {}).get(stat, 0.0) * factor / self.items
            for metric, (span, stat, factor, _) in LAYER_SPANS.items()
        }
        values["constitutive.repairs"] = self.repairs / self.items
        values["cli.import_ms"] = self.import_s * 1e3 / self.items
        values["trace.overhead_frac"] = overhead_frac
        return values


@dataclass
class ChildResult:
    returncode: int
    seconds: float
    peak_rss_mb: float
    stderr: str


def run_child(argv, ctx: Context) -> ChildResult:
    """Run one child to completion and time it from spawn to exit."""
    with open(ctx.work / "child.out", "wb") as out, open(ctx.work / "child.err", "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ctx.root, env=ctx.env, stdin=subprocess.DEVNULL,
                                stdout=out, stderr=err)
        try:
            handle = os.pidfd_open(proc.pid)
            try:
                finished = select.select([handle], [], [], CHILD_TIMEOUT_S)[0]
            finally:
                os.close(handle)
            if not finished:
                raise TimeoutError(f"{argv} ran longer than {CHILD_TIMEOUT_S} s")
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        seconds = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    stderr = (ctx.work / "child.err").read_text(encoding="utf-8", errors="replace")
    return ChildResult(proc.returncode, seconds, usage.ru_maxrss / 1024.0, stderr)


class SetupProbes:
    """Fresh-interpreter set-ups spread evenly over a run's measured time.

    The measured time of a run is the time since the probes were made, less
    the time spent in probes.  ``due`` runs the probes the schedule has
    reached; the median of ``SETUP_REPEATS`` probes is ``setup_s``.  An
    untimed probe first fills the bytecode cache.  With ``enabled`` false
    (traced runs) nothing runs.
    """

    def __init__(self, argv, ctx: Context, enabled: bool):
        self.argv, self.ctx, self.enabled = argv, ctx, enabled
        self.times: list[float] = []
        if enabled:
            run_child(argv, ctx)
        self.spent = 0.0
        self.start = time.perf_counter()

    def measured_s(self) -> float:
        return time.perf_counter() - self.start - self.spent

    def _probe(self) -> None:
        result = run_child(self.argv, self.ctx)
        if result.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {result.stderr}")
        self.times.append(result.seconds)
        self.spent += result.seconds

    def due(self) -> None:
        """Run every probe scheduled at or before the measured time so far."""
        while (self.enabled and len(self.times) < SETUP_REPEATS
               and len(self.times) * self.ctx.seconds <= self.measured_s() * SETUP_REPEATS):
            self._probe()

    def median(self) -> float | None:
        if not self.enabled:
            return None
        while len(self.times) < SETUP_REPEATS:
            self._probe()
        return statistics.median(self.times)


class OracleMatrices:
    """Oracle matrices of the reported parts, built before timing and kept."""

    def __init__(self):
        self._cache: dict = {}

    def parts(self, shape, g) -> list[np.ndarray]:
        """Matrices of the parts of a ``shape`` report under metric matrix ``g``."""
        keys = [(name, None if g is None else g.tobytes())
                for name in library.PART_OPERATORS[shape]]
        missing = [key for key in keys if key not in self._cache]
        if missing:
            metric = EUCLIDEAN if g is None else Metric(g)
            for key in missing:
                self._cache[key] = oracle.materialize(key[0], metric).matrix
        return [self._cache[key] for key in keys]


def _report_problems(output_json: str, components, g, variance, shape, matrices) -> list[str]:
    try:
        doc = check.load_json(output_json)
    except ValueError as exc:
        return [f"report JSON: {exc}"]
    return check.report_failures(
        doc, components, check.norm_matrix(g, variance),
        matrices.parts(shape, g), library.is_orthogonal(shape),
    )


def _end_to_end(workload: str, tally: Tally, setup_s: float, rss_mb: float) -> dict:
    latencies_ms = np.asarray(tally.latencies) * 1e3
    return {
        "setup_s": setup_s,
        "items_per_s": statistics.median(tally.pass_rates),
        "item_p50_ms": float(np.median(latencies_ms)),
        "item_tail_ms": float(np.percentile(latencies_ms, TAIL_PERCENTILE[workload])),
        "peak_rss_mb": rss_mb,
    }


def _overhead(untraced: Tally, traced: Tally) -> float:
    return statistics.median(untraced.pass_rates) / statistics.median(traced.pass_rates) - 1.0


# -- library-mix -------------------------------------------------------------

def library_mix(ctx: Context):
    items = library.make_items(ctx.seed)
    matrices = OracleMatrices()
    for item in items:
        if item.kind != "roundtrip":
            matrices.parts(item.shape, item.metric)

    def one_pass(tally: Tally, tracer=None) -> None:
        busy = 0.0
        for item in items:
            if tracer is not None:
                tracer.item = len(kinds)
                kinds.append(item.kind)
            start = time.perf_counter()
            output = library.run_item(item)
            seconds = time.perf_counter() - start
            busy += seconds
            if item.kind == "roundtrip":
                problems = check.roundtrip_failures(output.components, item.components)
            else:
                problems = _report_problems(output[3], item.components, item.metric,
                                            item.variance, item.shape, matrices)
            tally.record(seconds, problems)
            if tracer is not None:
                layers.repairs += sum("symmetrized away" in str(w.message) for w in caught)
            caught.clear()
        tally.end_pass(len(items), busy)

    untraced, traced, layers, kinds = Tally(), Tally(), Layers(), []
    tracer = spans.Tracer()
    targets = spans.trideco_targets() + [(library, "render", "report.render")]
    probes = SetupProbes([sys.executable, "perfbench/probe.py", str(ctx.seed)], ctx,
                         not ctx.trace)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        while not untraced.pass_rates or probes.measured_s() < ctx.seconds:
            probes.due()
            one_pass(untraced)
            if ctx.trace:
                tracer.install(targets, [library])
                try:
                    one_pass(traced, tracer)
                finally:
                    tracer.uninstall()
                if len(tracer.spans) > MAX_TRACED_SPANS:
                    break
    if not ctx.trace:
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        return untraced, _end_to_end("library-mix", untraced, probes.median(), rss_mb), {}

    spans.dump(ctx.work / "spans-library-mix.json", tracer.spans, {"kinds": kinds})
    layers.add(spans.summarize(tracer.spans))
    layers.items = len(kinds)
    constructions = {kind: 0 for kind in library.LIBRARY_KINDS}
    for span in tracer.spans:
        if span[0] == "tensor.construct":
            constructions[kinds[span[4]]] += 1
    passes = len(traced.pass_rates)
    notes = {
        f"tensor.constructions[{kind}]": count / passes
        for kind, count in constructions.items()
    }
    untraced.add_checks(traced)
    return untraced, layers.metrics(_overhead(untraced, traced)), notes


# -- child-process workloads -------------------------------------------------

def _traced_child(cli_args, ctx: Context, layers: Layers) -> ChildResult:
    path = ctx.work / "spans-child.json"
    result = run_child([sys.executable, "perfbench/child.py", str(path), *cli_args], ctx)
    child_spans, meta = spans.load(path)
    layers.add(spans.summarize(child_spans))
    layers.items += 1
    layers.import_s += meta["import_s"]
    return result


def _child_workload(workload: str, ctx: Context, jobs, judge):
    """Closed loop of CLI children, one at a time.

    ``jobs(pass_number)`` gives the CLI argument lists of one pass and
    ``judge(job_index, result)`` the problems of one finished child.
    """
    probes = SetupProbes([sys.executable, "-c", "import trideco.cli"], ctx, not ctx.trace)
    untraced, traced, layers, rss = Tally(), Tally(), Layers(), []

    def one_pass(tally: Tally, traced_run: bool) -> None:
        busy = 0.0
        pass_jobs = jobs(len(tally.pass_rates))
        for index, args in enumerate(pass_jobs):
            if traced_run:
                result = _traced_child(args, ctx, layers)
            else:
                result = run_child([sys.executable, "-m", "trideco.cli", *args], ctx)
                rss.append(result.peak_rss_mb)
            busy += result.seconds
            tally.record(result.seconds, judge(index, result))
        tally.end_pass(len(pass_jobs), busy)

    while not untraced.pass_rates or probes.measured_s() < ctx.seconds:
        probes.due()
        one_pass(untraced, False)
        if ctx.trace:
            one_pass(traced, True)
    if not ctx.trace:
        metrics = _end_to_end(workload, untraced, probes.median(), statistics.median(rss))
        return untraced, metrics, {}
    untraced.add_checks(traced)
    return untraced, layers.metrics(_overhead(untraced, traced)), {}


def self_check(ctx: Context):
    """One self-check process per pass; the n-th pass uses the n-th seeded seed."""
    rng = np.random.default_rng(ctx.seed)
    seeds: list[int] = []
    report_path = ctx.work / "self-check.json"

    def jobs(pass_number: int):
        while len(seeds) <= pass_number:
            seeds.append(int(rng.integers(0, 2**31)))
        return [["--self-check", "--seed", str(seeds[pass_number]), "--json", str(report_path)]]

    def judge(index: int, result: ChildResult) -> list[str]:
        text = report_path.read_text(encoding="utf-8") if report_path.exists() else None
        report_path.unlink(missing_ok=True)
        return check.selfcheck_failures(result.returncode, text)

    return _child_workload("self-check", ctx, jobs, judge)


def cli_oneshot(ctx: Context):
    out = ctx.work / "cli-report.json"
    cases = cli_cases.write_cases(ctx.seed, ctx.work / "cli-inputs", out)
    matrices = OracleMatrices()
    for case in cases:
        if case.shape is not None:
            matrices.parts(case.shape, case.metric)
    out.unlink(missing_ok=True)

    def judge(index: int, result: ChildResult) -> list[str]:
        case = cases[index]
        problems = check.exit_failures(result.returncode, case.expected_exit, result.stderr)
        written = out.exists()
        if case.expected_exit == 0 and not problems:
            if not written:
                return ["accepted run wrote no JSON report"]
            problems = _report_problems(out.read_text(encoding="utf-8"), case.components,
                                        case.metric, case.variance, case.shape, matrices)
        elif written:
            problems = problems + ["rejected run wrote a JSON report"]
        out.unlink(missing_ok=True)
        return problems

    args = [list(case.args) for case in cases]
    return _child_workload("cli-oneshot", ctx, lambda pass_number: args, judge)


WORKLOADS = {"library-mix": library_mix, "self-check": self_check, "cli-oneshot": cli_oneshot}
