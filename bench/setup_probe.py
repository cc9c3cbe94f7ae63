"""Time one cold start: ``import carev`` plus one command, in a fresh
interpreter, as a command-line user pays it.

Usage: python3 setup_probe.py SRC_DIR ARGV_JSON  (prints the seconds)
"""

import contextlib
import io
import json
import sys
import time

t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import carev.cli  # noqa: E402

with contextlib.redirect_stdout(io.StringIO()):
    code = carev.cli.main(json.loads(sys.argv[2]))
dt = time.perf_counter() - t0
if code != 0:
    sys.exit(f"warm-up op exited with {code}")
print(repr(dt))
