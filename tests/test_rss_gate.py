"""tools/rss_gate.py: the peak-RSS gate on a short tone, and what it prints."""

from __future__ import annotations

import os
import re
import subprocess
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "rss_gate.py"


def test_reports_peak_rss_times_and_blas_threads():
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    proc = subprocess.run([sys.executable, str(TOOL), "--minutes", "0.05"],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    peak, times = proc.stdout.splitlines()
    assert re.fullmatch(r"peak RSS [\d.]+ MB extracting 0\.05 min of 16000 Hz audio "
                        r"\(limit 300 MB\)", peak)
    assert re.fullmatch(r"run_extract: [\d.]+ s CPU, [\d.]+ s wall, real-time factor [\d.]+, "
                        r"OpenBLAS threads (1|unknown)", times)
