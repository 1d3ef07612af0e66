"""voxfeat starts on numpy alone: scipy is imported only by the logistic
fits with three or more classes, on their first use."""

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

seen = {}
import voxfeat, voxfeat.cli, voxfeat.pipeline
seen["import"] = scipy_modules()

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
    assert seen["estimator"] == "logistic"
    assert seen["analyze"] == []
    # a three-class fit still converges, and only it loads scipy.optimize
    assert seen["accuracy"] == 1.0
    assert seen["optimize"]
