"""The benchmark's own self-test, run as part of the test suite.

`bench/selftest.py` replays every workload's command shape over a small
corpus with the span tracer installed.  It fails when a span target such as
`refh.corpus.load_publications` is renamed or removed, which would otherwise
make that span's metrics read 0 without any error.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_benchmark_selftest_passes():
    proc = subprocess.run([sys.executable, "bench/selftest.py"], cwd=ROOT,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
