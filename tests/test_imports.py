"""voxfeat starts on numpy alone: scipy is imported only by the logistic
fits with three or more classes, on their first use, and multiprocessing
only by an extract with more than one worker."""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

SCRIPT = r"""
import json, sys
import numpy as np

def scipy_modules():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

def pool_modules():
    return sorted(m for m in ("multiprocessing", "concurrent.futures.process")
                  if m in sys.modules)

seen = {}
import voxfeat, voxfeat.cli, voxfeat.pipeline
seen["import"] = scipy_modules()
seen["import_pool"] = pool_modules()

from voxfeat.audio_io import AudioBuffer, write_wav
from voxfeat.config import PipelineConfig
from voxfeat.pipeline import run_extract
t = np.arange(16000) / 16000
write_wav(AudioBuffer(0.4 * np.sin(2 * np.pi * 220 * t), 16000), sys.argv[1] + "/a.wav")
write_wav(AudioBuffer(0.4 * np.sin(2 * np.pi * 180 * t), 16000), sys.argv[1] + "/b.wav")
seen["extract_ok"] = run_extract(sys.argv[1], sys.argv[1] + "/f.csv", PipelineConfig(),
                                 jobs=1).all_ok
seen["extract_pool"] = pool_modules()

from voxfeat.config import AnalyzeSpec, PipelineConfig
from voxfeat.pipeline import run_analyze
rng = np.random.default_rng(0)
y = np.repeat([0, 1], 20)
x = np.column_stack([2.0 * y + rng.standard_normal(40), rng.standard_normal((40, 3))])
with open(sys.argv[1] + "/table.csv", "w") as fh:
    fh.write("row_id,a,b,c,d,target\n")
    for i in range(40):
        fh.write(f"r{i}," + ",".join(repr(float(v)) for v in x[i]) + f",{y[i]}\n")
report = run_analyze(sys.argv[1] + "/table.csv", sys.argv[1] + "/out",
                     PipelineConfig(analyze=AnalyzeSpec(k_values=(1, 2), folds=3)))
seen["estimator"] = next(s["estimator"] for s in report["stages"] if s["stage"] == "selection")
seen["analyze"] = scipy_modules()

from voxfeat.mlpipe import accuracy_score, fit_logistic
centers = np.array([[0.0, 0.0], [8.0, 0.0], [0.0, 8.0]])
x3 = np.vstack([rng.standard_normal((20, 2)) + c for c in centers])
y3 = np.repeat([0, 1, 2], 20)
seen["accuracy"] = accuracy_score(y3, fit_logistic(x3, y3).predict(x3))
seen["optimize"] = "scipy.optimize" in sys.modules
print(json.dumps(seen))
"""


def test_start_up_and_binary_analyze_load_no_scipy(tmp_path):
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    proc = subprocess.run([sys.executable, "-c", SCRIPT, str(tmp_path)], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    seen = json.loads(proc.stdout)
    assert seen["import"] == []
    assert seen["import_pool"] == []
    assert seen["extract_ok"]
    assert seen["extract_pool"] == []
    assert seen["estimator"] == "logistic"
    assert seen["analyze"] == []
    # a three-class fit still converges, and only it loads scipy.optimize
    assert seen["accuracy"] == 1.0
    assert seen["optimize"]
