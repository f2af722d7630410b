"""trideco benchmark: one command for every workload and metric.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout: it imports trideco from ``./src`` and
fails when that is missing.  Workloads (see ``BENCHMARK.json`` for why each
one is there):

* ``library-mix``: one in-process caller in a closed loop over seeded
  ``build_report`` / render / so3 round-trip items (``library.py``);
* ``self-check``: ``python -m trideco.cli --self-check`` children, one after
  another, one seeded ``--seed`` each;
* ``cli-oneshot``: one ``python -m trideco.cli`` child per seeded input file,
  a quarter of them inputs the CLI must reject (``cli_cases.py``).

With ``--trace 0`` the run reports the end-to-end metrics; with ``--trace 1``
it alternates untraced and traced passes and reports the per-layer metrics
(per item for library-mix and cli-oneshot, per process for self-check).
Every output is checked (``check.py``).  The last line of standard output is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

import os

#: BLAS threads of this process and of every child, pinned before numpy loads
BLAS_THREADS = "1"
for _variable in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_variable] = BLAS_THREADS

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

END_TO_END_UNITS = {
    "setup_s": "s",
    "items_per_s": "1/s",
    "item_p50_ms": "ms",
    "item_tail_ms": "ms",
    "peak_rss_mb": "MB",
}

WORKLOADS = ("library-mix", "self-check", "cli-oneshot")

#: directory under the checkout for inputs, child output and spans
WORK_DIR = ".perfbench_work"


def per_layer_units() -> dict[str, str]:
    from perfbench.workloads import LAYER_COUNTERS, LAYER_SPANS

    return {**{name: spec[3] for name, spec in LAYER_SPANS.items()}, **LAYER_COUNTERS}


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser


def cpu_model() -> str:
    """The first ``model name`` of ``/proc/cpuinfo``, or the machine type."""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as cpuinfo:
            for line in cpuinfo:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.machine()


def git_commit(root: Path) -> str:
    """The commit checked out at ``root``, read from ``.git`` without running git.

    ``"unknown"`` outside a git checkout.
    """
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split(" ", 1)[0]
    except OSError:
        pass
    return "unknown"


def environment(root: Path) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "machine": platform.machine(),
        "cpu_model": cpu_model(),
        "nproc": os.cpu_count(),
        "blas_threads": BLAS_THREADS,
        "commit": git_commit(root),
    }


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    root = Path.cwd()
    package = root / "src" / "trideco"
    if not (package / "__init__.py").is_file():
        print(f"error: {package} is missing; run from the root of a checkout",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(root / "src"), str(root)]
    import trideco

    if Path(trideco.__file__).resolve().parent != package.resolve():
        print(f"error: imported trideco from {trideco.__file__}, not {package}",
              file=sys.stderr)
        return 2
    from perfbench import workloads

    work = root / WORK_DIR
    work.mkdir(exist_ok=True)
    ctx = workloads.Context(root, work, args.seed, args.seconds, bool(args.trace))
    tally, values, notes = workloads.WORKLOADS[args.workload](ctx)

    units = per_layer_units() if args.trace else END_TO_END_UNITS
    print(f"workload {args.workload}, seed {args.seed}, {args.seconds:g} s, "
          f"trace {args.trace}")
    print("environment " + json.dumps(environment(root)))
    for name, value in {**values, **notes}.items():
        print(f"  {name:<34} {value:>16.6g} {units.get(name, 'count')}")
    print(f"  {'failed_frac':<34} {tally.failed / tally.attempted:>16.6g} "
          f"({tally.failed} of {tally.attempted})")
    for problem in tally.problems[:10]:
        print(f"  problem: {problem}")
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
