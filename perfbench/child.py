"""Run one coringext CLI call the way the ``coringext`` console script does.

    python3 perfbench/child.py <coringext arguments> < workspace.json

The package is imported from ``src/`` next to this directory.  When
PERFBENCH_TRACE names a file, the tracer is installed after the import and
before the call, and its spans are written there at exit.  Stdout is the
same either way.
"""

import atexit
import os
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "src"))
trace_path = os.environ.get("PERFBENCH_TRACE")
t0 = time.perf_counter()
import coringext.cli  # noqa: E402

t1 = time.perf_counter()
if trace_path:
    import tracer
    spans = tracer.Tracer()
    spans.install()
    spans.record("cli.import", t0, t1)
    atexit.register(spans.dump, trace_path,
                    os.environ.get("PERFBENCH_INVOCATION", ""))

coringext.cli.main()
