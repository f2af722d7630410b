"""Command-line front end.

Reads a tensor (or Voigt table), runs the requested decomposition, prints a
text report and optionally writes the JSON document it was rendered from.
``--self-check`` runs the built-in verification suite instead: dimension
ledger, projector families, coefficient solves, matrix/operation agreement
on seeded random tensors and the so3 round trip on the basis tensors.
``oracle.self_check`` measures and judges every check; the text is rendered
from the document it returns, and ``--json`` writes that same document.

Exit codes: 0 success, 1 failed self-check, 2 unreadable or malformed input,
an option out of range or a ``--json`` path that cannot be written, 3
symmetry or variance precondition violation.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

from . import report, tensorio
from .gl3 import FAMILIES
from .tensor import EUCLIDEAN, SymmetryError, TensorError, VarianceError


def _non_negative(kind):
    """An argparse type: ``kind`` of the text, which must be finite and at
    least 0, so argparse rejects anything else with exit code 2."""
    def parse(text: str):
        try:
            value = kind(text)
        except ValueError:
            value = -1
        if not 0 <= value < math.inf:
            raise argparse.ArgumentTypeError(
                f"expected a finite {kind.__name__} >= 0, got {text!r}")
        return value
    return parse


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
    parser.add_argument("--tol", type=_non_negative(float), default=1e-12,
                        help="relative factor of the Gram orthogonality flag: off-diagonal "
                             "entries above tol times the largest diagonal entry are "
                             "flagged (default: 1e-12)")
    parser.add_argument("--seed", type=_non_negative(int), default=0,
                        help="seed for the self-check random-tensor suite")
    parser.add_argument("--self-check", action="store_true",
                        help="run the verification suite and exit")
    return parser


def _write_json(document: dict, path: str) -> int:
    """Write ``document`` to ``path``: 0, or 2 with one error line if the path
    cannot be written."""
    try:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(document, handle, indent=2)
            handle.write("\n")
    except OSError as exc:
        print(f"error: cannot write {path}: {exc.strerror or exc}", file=sys.stderr)
        return 2
    return 0


def _render_self_check(check: dict) -> str:
    """The text of an ``oracle.self_check`` document; each line's status is
    read from the document's ``failures``."""
    failures = check["failures"]
    deviations = check["agreement"].values()

    def status(name: str, bad: str = "FAIL") -> str:
        return bad if name in failures else "ok"

    return "\n".join([
        "self-check: dimension ledger",
        *(f"  rank {name:<14} = {rank['measured']:>2}  expected {rank['expected']:>2}  "
          f"{status(f'rank {name}', 'MISMATCH')}" for name, rank in check["ranks"].items()),
        "self-check: projector families",
        *(f"  {label:<10} completeness {family['completeness']:.2e} "
          f"pairwise {family['pairwise']:.2e}  {status(f'family {label}')}"
          for label, family in check["families"].items()),
        "self-check: reconstruction coefficients",
        *(f"  {system:<22} solved {solve['coefficients']} residual {solve['residual']:.2e}  "
          f"{status(f'solve {system}')}" for system, solve in check["solves"].items()),
        f"self-check: matrix/operation agreement (seed {check['seed']})",
        "  worst deviation over 100 tensors per operator: "
        + ("not finite" if None in deviations else f"{max(deviations):.2e}"),
        *(f"self-check: map {name} round trip on the basis tensors, worst deviation "
          + ("not finite" if worst is None else f"{worst:.2e}") + f"  {status(f'map {name}')}"
          for name, worst in check["maps"].items()),
        "self-check: " + ("PASS" if not failures else f"FAIL ({', '.join(failures)})"),
    ])


def _self_check(seed: int, json_path: str | None) -> int:
    # only the self-check reads the oracle, so a report run never imports it
    from . import oracle

    check = oracle.self_check(seed)
    print(_render_self_check(check))
    if json_path and _write_json({"schema": report.REPORT_SCHEMA, "self_check": check}, json_path):
        return 2
    return 1 if check["failures"] else 0


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
    except (SymmetryError, VarianceError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (tensorio.InputFormatError, TensorError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    print(result.render_text(args.tol), end="")
    return _write_json(result.to_dict(), args.json_path) if args.json_path else 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
