"""Set-up time of a fresh interpreter: import qtask and run one warm-up op.

Usage: python3 setup_probe.py SRC_DIR ARGV_JSON

Prints one JSON object {"setup_s": seconds, "rc": exit code or exception}. The clock
starts before ``import qtask``, so work moved into imports or first-call
caches shows up in the figure.
"""

import contextlib
import io
import json
import sys
import time

start = time.perf_counter()
sys.path.insert(0, sys.argv[1])
from qtask.cli import main  # noqa: E402

with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    try:
        rc = main(json.loads(sys.argv[2]))
    except Exception as exc:  # reported as a failed op; the time still counts
        rc = f"raised {type(exc).__name__}: {exc}"
print(json.dumps({"setup_s": time.perf_counter() - start, "rc": rc}))
