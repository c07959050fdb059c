"""One traced CLI invocation: `python3 perfbench/child.py TRACE_OUT ARGS...`.

Runs singinv.cli.main(ARGS) in this fresh interpreter with the span
tracer installed, so stdout and the exit code are those of
`python -m singinv.cli ARGS`.  Writes the spans, the interpreter's first
timestamp and the time `import singinv.cli` took to TRACE_OUT as JSON.
"""

import time

T0 = time.perf_counter()

import json  # noqa: E402
import sys  # noqa: E402

started = time.perf_counter()
import singinv.cli  # noqa: E402

import_s = time.perf_counter() - started

from spans import Tracer  # noqa: E402

tracer = Tracer()
tracer.install()
try:
    code = singinv.cli.main(sys.argv[2:])
finally:
    tracer.uninstall()
payload = tracer.export()
payload.update(t0=T0, import_s=import_s)
with open(sys.argv[1], "w", encoding="utf-8") as fh:
    json.dump(payload, fh)
sys.exit(code)
