"""Peak-RSS gate: extract a long recording in a fresh interpreter and fail
when that process's peak resident set exceeds 300 MB.

    python3 tools/rss_gate.py [--minutes 10]

The recording is a gated two-harmonic tone with a gliding F0, mono 16 kHz,
written to a temporary directory. The child runs `run_extract` at --jobs 1
under the default config and reports its own `ru_maxrss` (Linux: KiB), and
the CPU and wall seconds of the `run_extract` call, which are printed too
(the real-time factor is wall seconds per second of audio) but not gated,
with the OpenBLAS thread count it ran with, read as perfbench/child.py reads
it: CPU seconds compare across runs only at the same count. voxfeat is
imported from ./src of this checkout.
"""

from __future__ import annotations

import argparse
import os
import struct
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
LIMIT_MB = 300.0
SR = 16000

CHILD = """
import resource, sys, time
sys.path.insert(0, sys.argv[3])
from child import blas_threads
from voxfeat.config import PipelineConfig
from voxfeat.pipeline import run_extract
cpu, wall = time.process_time(), time.perf_counter()
manifest = run_extract(sys.argv[1], sys.argv[2], PipelineConfig(), jobs=1)
cpu, wall = time.process_time() - cpu, time.perf_counter() - wall
print(int(manifest.all_ok), resource.getrusage(resource.RUSAGE_SELF).ru_maxrss, cpu, wall,
      blas_threads())
"""


def write_tone(path: Path, minutes: float) -> None:
    """PCM16 mono, one minute at a time. On Linux a spawned child's
    ru_maxrss starts from this process's high-water mark, so this process
    must stay well below what it measures."""
    n = int(minutes * 60 * SR)
    rng = np.random.default_rng(0)
    with open(path, "wb") as out:
        out.write(b"RIFF" + struct.pack("<I", 36 + 2 * n) + b"WAVE")
        out.write(b"fmt " + struct.pack("<IHHIIHH", 16, 1, 1, SR, 2 * SR, 2, 16))
        out.write(b"data" + struct.pack("<I", 2 * n))
        for start in range(0, n, 60 * SR):
            t = np.arange(start, min(n, start + 60 * SR)) / SR
            # F0 = 150 + 50*sin(w*t) glides over 100-200 Hz; the phase is its integral
            w = 2 * np.pi * 0.05
            phase = 2 * np.pi * (150.0 * t - 50.0 / w * np.cos(w * t))
            gate = np.sin(2 * np.pi * 0.7 * t) > -0.2
            x = gate * (0.4 * np.sin(phase) + 0.2 * np.sin(2 * phase))
            x += rng.normal(0.0, 0.01, t.size)
            out.write(np.clip(np.round(x * 32768.0), -32768, 32767).astype("<i2").tobytes())


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--minutes", type=float, default=10.0)
    args = ap.parse_args()
    with tempfile.TemporaryDirectory() as tmp:
        audio = Path(tmp) / "audio"
        audio.mkdir()
        write_tone(audio / "tone.wav", args.minutes)
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
        proc = subprocess.run([sys.executable, "-c", CHILD, str(audio), str(Path(tmp) / "f.csv"),
                               str(ROOT / "perfbench")],
                              env=env, capture_output=True, text=True)
    if proc.returncode != 0:
        print(proc.stderr[-4000:], file=sys.stderr)
        return 1
    ok, maxrss_kib, cpu_s, wall_s, threads = proc.stdout.split()
    peak_mb = int(maxrss_kib) / 1024.0
    print(f"peak RSS {peak_mb:.1f} MB extracting {args.minutes:g} min of {SR} Hz audio "
          f"(limit {LIMIT_MB:g} MB)")
    print(f"run_extract: {float(cpu_s):.2f} s CPU, {float(wall_s):.2f} s wall, "
          f"real-time factor {float(wall_s) / (args.minutes * 60):.4f}, "
          f"OpenBLAS threads {'unknown' if threads == 'None' else threads}")
    if ok != "1":
        print("extraction failed", file=sys.stderr)
        return 1
    return 0 if peak_mb <= LIMIT_MB else 1


if __name__ == "__main__":
    sys.exit(main())
