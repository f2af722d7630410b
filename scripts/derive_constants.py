#!/usr/bin/env python3
"""Print every reconstruction solve and regenerate FORMULA_NOTES.txt.

The constants shipped in ``trideco.sl3``, ``trideco.so3``,
``trideco.constitutive`` and ``trideco.parts`` are not hand-copied values;
each is the unique solution of defining linear relations, which
``oracle.solve_reconstruction`` solves over the full component basis.  This
script prints each solve on the Euclidean metric and on diag(2, 1, 1), next
to the value that ships, then writes FORMULA_NOTES.txt.  Run it after
touching any of the contraction conventions.
"""

import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from trideco import oracle  # noqa: E402
from trideco.tensor import EUCLIDEAN, Metric  # noqa: E402

DIAG = Metric(np.diag([2.0, 1.0, 1.0]))


def main() -> int:
    for metric, tag in ((EUCLIDEAN, "euclidean"), (DIAG, "diag(2,1,1)")):
        print(f"reconstruction solves ({tag}, least squares over the full basis):")
        for system, _, shipped, _ in oracle.SHIPPED_CONSTANTS:
            solve = oracle.solve_reconstruction(system, metric)
            solved = dict(zip(solve.labels, (round(float(c), 12) for c in solve.coefficients)))
            print(f"  {system:<22} {solved}"
                  f"  residual {solve.residual:.2e}  rank {solve.system_rank}"
                  f"  shipped {tuple(float(c) for c in shipped)}")
    notes_path = Path(__file__).resolve().parent.parent / "FORMULA_NOTES.txt"
    oracle.write_formula_notes(notes_path)
    print(f"wrote {notes_path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
