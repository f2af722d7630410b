"""Command-line front end.

Reads a tensor (or Voigt table), runs the requested decomposition, prints a
text report and optionally writes the JSON document it was rendered from.
``--self-check`` runs the built-in verification suite instead: dimension
ledger, projector families, coefficient solves and matrix/operation
agreement on seeded random tensors.

Exit codes: 0 success, 1 failed self-check, 2 unreadable or malformed input,
3 symmetry or variance precondition violation.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import oracle, report, tensorio
from .gl3 import FAMILIES
from .tensor import EUCLIDEAN, SymmetryError, TensorError, VarianceError


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="trideco",
        description="Invariant decompositions of third-order tensors over R^3.",
    )
    parser.add_argument("--input", metavar="PATH", help="tensor JSON file")
    parser.add_argument("--voigt", metavar="PATH",
                        help="3x6 Voigt table JSON file (implies --mode piezo)")
    parser.add_argument("--level", choices=report.LEVELS, default="so3",
                        help="decomposition level for generic mode (default: so3)")
    parser.add_argument("--family", choices=FAMILIES,
                        help="mixed-part family for the gl3-level split")
    parser.add_argument("--mode", choices=report.MODES, default=None,
                        help="generic, piezo or hall (default: generic)")
    parser.add_argument("--metric", metavar="PATH",
                        help="metric JSON file (default: Euclidean)")
    parser.add_argument("--json", metavar="PATH", dest="json_path",
                        help="also write the JSON report here")
    parser.add_argument("--tol", type=float, default=1e-12,
                        help="relative factor of the Gram orthogonality flag: off-diagonal "
                             "entries above tol times the largest diagonal entry are "
                             "flagged (default: 1e-12)")
    parser.add_argument("--seed", type=int, default=0,
                        help="seed for the self-check random-tensor suite")
    parser.add_argument("--self-check", action="store_true",
                        help="run the verification suite and exit")
    return parser


def _write_json(document: dict, path: str) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=2)
        handle.write("\n")


def _self_check(seed: int, json_path: str | None) -> int:
    failures = []
    lines = ["self-check: dimension ledger"]
    ranks = oracle.dimension_report()
    for name, measured, expected in ranks:
        status = "ok" if measured == expected else "MISMATCH"
        lines.append(f"  rank {name:<14} = {measured:>2}  expected {expected:>2}  {status}")
        if measured != expected:
            failures.append(f"rank {name}")

    lines.append("self-check: projector families")
    sym_family = [oracle.materialize(n) for n in ("symmetric", "antisymmetric", "residue")]
    five_family = [
        oracle.materialize(n)
        for n in ("k_part", "r_part", "antisymmetric", "m_part", "p_part")
    ]
    for label, family in (("S+A+N", sym_family), ("K+R+A+M+P", five_family)):
        result = oracle.verify_projector_family(family)
        status = "ok" if result.is_resolution else "FAIL"
        lines.append(
            f"  {label:<10} completeness {result.completeness_defect:.2e} "
            f"pairwise {result.max_pairwise_product:.2e}  {status}"
        )
        if not result.is_resolution:
            failures.append(f"family {label}")

    lines.append("self-check: reconstruction coefficients")
    solves = {}
    for system, labels, shipped, _ in oracle.SHIPPED_CONSTANTS:
        solve = oracle.solve_reconstruction(system)
        deviation = float(np.max(np.abs(solve.coefficients - np.array(shipped))))
        status = "ok" if deviation <= 1e-10 and solve.residual <= 1e-10 else "FAIL"
        solved = [round(float(c), 12) for c in solve.coefficients]
        lines.append(
            f"  {system:<22} solved {solved} residual {solve.residual:.2e}  {status}"
        )
        solves[system] = {"coefficients": solved, "residual": solve.residual}
        if status != "ok":
            failures.append(f"solve {system}")

    lines.append(f"self-check: matrix/operation agreement (seed {seed})")
    worst_by_op = {}
    for name in oracle.operator_names():
        worst = oracle.agreement(name, seed=seed)
        worst_by_op[name] = worst
        if worst > 1e-12:
            failures.append(f"agreement {name}")
    overall = max(worst_by_op.values())
    lines.append(f"  worst deviation over 100 tensors per operator: {overall:.2e}")

    lines.append("self-check: " + ("PASS" if not failures else f"FAIL ({', '.join(failures)})"))
    print("\n".join(lines))
    if json_path:
        _write_json(
            {
                "schema": report.REPORT_SCHEMA,
                "self_check": {
                    "seed": seed,
                    "ranks": {
                        name: {"measured": measured, "expected": expected}
                        for name, measured, expected in ranks
                    },
                    "solves": solves,
                    "agreement": worst_by_op,
                    "failures": failures,
                },
            },
            json_path,
        )
    return 0 if not failures else 1


def main(argv=None) -> int:
    args = _parser().parse_args(argv)

    if args.self_check:
        return _self_check(args.seed, args.json_path)

    mode = args.mode or ("piezo" if args.voigt else "generic")
    if args.input and args.voigt:
        print("error: --input and --voigt are mutually exclusive", file=sys.stderr)
        return 2
    if not args.input and not args.voigt:
        print("error: one of --input, --voigt or --self-check is required",
              file=sys.stderr)
        return 2
    if args.voigt and mode != "piezo":
        print("error: --voigt input is only meaningful with --mode piezo",
              file=sys.stderr)
        return 2

    try:
        metric = tensorio.read_metric(args.metric) if args.metric else EUCLIDEAN
        if args.voigt:
            value = tensorio.read_voigt(args.voigt)
        else:
            value = tensorio.read_tensor(args.input)
        result = report.build_report(
            value, level=args.level, family=args.family, mode=mode, metric=metric
        )
    except tensorio.InputFormatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (SymmetryError, VarianceError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except TensorError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    print(result.render_text(args.tol), end="")
    if args.json_path:
        _write_json(result.to_dict(), args.json_path)
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
