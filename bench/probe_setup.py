"""Print the seconds a fresh interpreter takes to import the CLI and run
one warm-up request; run.py starts this once per setup_s sample."""

import io
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from workloads import WARMUP

started = time.perf_counter()
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
from siegelcm import cli  # noqa: E402

with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
    code = cli.main(list(WARMUP))
elapsed = time.perf_counter() - started
if code != 0:
    sys.exit(f"warm-up request exited {code}")
print(elapsed)
