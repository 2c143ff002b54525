"""The benchmark harness still drives the program end to end.

bench/selftest.py runs every workload at tiny sizes, traced and untraced,
and gates on no timing; its tracer raises when a function it wraps is
missing, so a refactor that deletes one fails here.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_bench_selftest():
    proc = subprocess.run(
        [sys.executable, "bench/selftest.py"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
