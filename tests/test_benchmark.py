"""The benchmark's own self-checks, run as part of the suite.

perfbench/ calls the library by name (run_all on a tiny bundle config,
the closed_forms functions, the traced entry points), so a source change
that drops a config field or a function it uses breaks the benchmark
without failing any other test.  Its self-checks take a few seconds.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_benchmark_self_checks_pass():
    proc = subprocess.run([sys.executable, "perfbench/check_bench.py"],
                          cwd=ROOT, capture_output=True, text=True,
                          timeout=600)
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-4000:]
