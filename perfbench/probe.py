"""Set-up probe of the library-mix workload.

    python3 perfbench/probe.py SEED

A fresh interpreter imports trideco and runs one pass of the workload's
items, one of every kind; the parent times the whole process.  The parent puts the
checkout's ``src`` on ``PYTHONPATH``.
"""

import sys
from pathlib import Path

if __name__ == "__main__":
    import trideco  # noqa: F401  (the import is what set-up pays first)

    sys.path.insert(0, str(Path(__file__).resolve().parents[1]))
    from perfbench import library

    for item in library.make_items(int(sys.argv[1])):
        library.run_item(item)
