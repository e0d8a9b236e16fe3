"""The benchmark's independent verifier must accept real outputs and reject corrupted ones.

``benchmark/selftest.py`` runs a few operations of each workload through
``benchmark/verify.py``, which shares no code with ``Scalar``, the rewriting
engine or the parser, and checks that perturbed copies are rejected.
"""

import subprocess
import sys
from pathlib import Path

SELFTEST = Path(__file__).resolve().parents[1] / "benchmark" / "selftest.py"


def test_benchmark_selftest_passes():
    proc = subprocess.run(
        [sys.executable, str(SELFTEST)], capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "selftest passed" in proc.stdout
