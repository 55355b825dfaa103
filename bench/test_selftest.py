"""The benchmark's quick self-test: every workload on tiny inputs, timed and traced.

It asserts that every metric named in BENCHMARK.json is produced with its
unit and that the output checks run.  It makes no assertion on time.
"""

import subprocess
import sys
from pathlib import Path


def test_benchmark_selftest():
    run = Path(__file__).resolve().parent / "run.py"
    proc = subprocess.run([sys.executable, str(run), "--selftest"], capture_output=True, text=True,
                          timeout=170)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "selftest ok" in proc.stdout
