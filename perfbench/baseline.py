"""Record the benchmark's baseline: run every workload over a set of seeds, then aggregate.

    python3 perfbench/baseline.py [--seeds 101-110] [--traced-seed 101]
        [--runs-dir DIR] [--aggregate-only] [--out PATH]

Run it from the root of a checkout.  Runs go one at a time: ``run.py
--trace 0`` once per workload and seed, then ``--trace 1`` twice per workload
with the traced seed, each for ``run_seconds`` of ``BENCHMARK.json``.  Every
run's standard output is kept in the runs directory, so ``--aggregate-only``
can rebuild the file from them.  The output (``perfbench/baseline.json`` by
default) holds the environment of the first run, the seeds, the item mixes,
per end-to-end metric the median, quartiles and quartile spread as a share of
the median (``statistics.quantiles(values, n=4)``), the checked-output
counts, the per-layer metrics of the first traced run, and whether every
traced count repeats exactly in the second.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

#: a run that takes longer than this is a failure of the benchmark
RUN_TIMEOUT_S = 900


def spread(values: list[float]) -> dict[str, float]:
    """Median, quartiles and quartile spread as a share of the median."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median,
            "runs": len(values)}


def parse_output(text: str) -> dict:
    """The result, environment and printed notes of one run's standard output."""
    lines = text.strip().splitlines()
    parsed = {"result": json.loads(lines[-1]), "environment": None, "notes": {}}
    for line in lines[:-1]:
        if line.startswith("environment "):
            parsed["environment"] = json.loads(line[len("environment "):])
        fields = line.split()
        if len(fields) >= 2 and fields[0].startswith("tensor.constructions["):
            parsed["notes"][fields[0]] = float(fields[1])
    return parsed


def counts(parsed: dict) -> dict[str, float]:
    """Every count of a traced run: per-layer metrics in ``count`` and the notes."""
    metrics = parsed["result"]["metrics"]
    return {**{name: entry["value"] for name, entry in metrics.items()
               if entry["unit"] == "count"}, **parsed["notes"]}


def _run_path(runs_dir: Path, workload: str, trace: int, seed: int, repeat: int) -> Path:
    return runs_dir / f"{workload}-trace{trace}-seed{seed}-{repeat}.txt"


def _run(path: Path, workload: str, seed: int, seconds: int, trace: int) -> None:
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    print(" ".join(argv[1:]), flush=True)
    with open(path, "w", encoding="utf-8") as out:
        subprocess.run(argv, stdout=out, check=True, timeout=RUN_TIMEOUT_S)


def aggregate(spec: dict, runs_dir: Path, workloads, seeds, traced_seed: int) -> dict:
    from perfbench import cli_cases, library
    from perfbench.workloads import TAIL_PERCENTILE

    def load(*key) -> dict:
        return parse_output(_run_path(runs_dir, *key).read_text(encoding="utf-8"))

    baseline = {"environment": None, "run_seconds": spec["run_seconds"],
                "seeds": {"end_to_end": list(seeds), "traced": traced_seed},
                "workloads": {}, "end_to_end": {}, "checked_outputs": {},
                "per_layer": {}, "per_layer_counts_repeat_exactly": {},
                "tensor_constructions_per_item_kind": {}}
    mixes = {"library-mix": list(library.LIBRARY_KINDS),
             "self-check": ["--self-check --seed S --json PATH"],
             "cli-oneshot": list(cli_cases.CLI_KINDS)}
    whys = {entry["name"]: entry["why"] for entry in spec["workloads"]}
    for workload in workloads:
        runs = [load(workload, 0, seed, 1) for seed in seeds]
        traced = [load(workload, 1, traced_seed, repeat) for repeat in (1, 2)]
        baseline["environment"] = baseline["environment"] or runs[0]["environment"]
        baseline["workloads"][workload] = {
            "why": whys[workload], "tail_percentile": TAIL_PERCENTILE[workload],
            "item_kinds_one_each_per_pass": mixes[workload]}
        baseline["end_to_end"][workload] = {
            entry["name"]: {"unit": entry["unit"], **spread(
                [run["result"]["metrics"][entry["name"]]["value"] for run in runs])}
            for entry in spec["end_to_end"]}
        results = [run["result"] for run in runs + traced]
        baseline["checked_outputs"][workload] = {
            "attempted": sum(result["attempted"] for result in results),
            "failed": sum(result["failed"] for result in results)}
        baseline["per_layer"][workload] = {
            name: entry["value"] for name, entry in traced[0]["result"]["metrics"].items()}
        baseline["per_layer_counts_repeat_exactly"][workload] = (
            counts(traced[0]) == counts(traced[1]))
        if traced[0]["notes"]:
            baseline["tensor_constructions_per_item_kind"][workload] = traced[0]["notes"]
    return baseline


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="101-110", help="first-last, inclusive")
    parser.add_argument("--traced-seed", type=int, default=101)
    parser.add_argument("--runs-dir", type=Path, default=Path(".perfbench_work/baseline"))
    parser.add_argument("--aggregate-only", action="store_true")
    parser.add_argument("--out", type=Path, default=Path("perfbench/baseline.json"))
    args = parser.parse_args(argv)

    root = Path.cwd()
    sys.path[:0] = [str(root / "src"), str(root)]
    spec = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    first, last = (int(part) for part in args.seeds.split("-"))
    seeds = list(range(first, last + 1))
    workloads = [entry["name"] for entry in spec["workloads"]]
    if not args.aggregate_only:
        args.runs_dir.mkdir(parents=True, exist_ok=True)
        for workload in workloads:
            for seed in seeds:
                _run(_run_path(args.runs_dir, workload, 0, seed, 1), workload, seed,
                     spec["run_seconds"], 0)
            for repeat in (1, 2):
                _run(_run_path(args.runs_dir, workload, 1, args.traced_seed, repeat),
                     workload, args.traced_seed, spec["run_seconds"], 1)
    baseline = aggregate(spec, args.runs_dir, workloads, seeds, args.traced_seed)
    args.out.write_text(json.dumps(baseline, indent=2) + "\n", encoding="utf-8")
    for workload, metrics in baseline["end_to_end"].items():
        print(workload, {name: round(entry["spread"], 4) for name, entry in metrics.items()},
              "counts repeat:", baseline["per_layer_counts_repeat_exactly"][workload])
    return 0


if __name__ == "__main__":
    sys.exit(main())
