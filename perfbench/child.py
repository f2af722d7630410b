"""Run the trideco CLI once under the span tracer.

    python3 perfbench/child.py SPANS_PATH CLI_ARG...

The parent puts the checkout's ``src`` on ``PYTHONPATH``.  The import of
``trideco.cli`` is timed before the tracer is installed; the spans and the
import time are written to SPANS_PATH when the CLI returns, and the CLI's
exit code is this process's exit code.
"""

import sys
import time
from pathlib import Path

if __name__ == "__main__":
    started = time.perf_counter()
    import trideco.cli

    import_s = time.perf_counter() - started
    sys.path.insert(0, str(Path(__file__).resolve().parents[1]))
    from perfbench import spans

    tracer = spans.Tracer()
    tracer.install(spans.trideco_targets())
    code = trideco.cli.main(sys.argv[2:])
    spans.dump(sys.argv[1], tracer.spans, {"import_s": import_s})
    sys.exit(code)
