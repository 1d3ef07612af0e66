"""voxfeat runs on numpy alone: no path loads scipy, and multiprocessing and
concurrent.futures load only for an extract with more than one worker.

An extract loads none of the analyze modules: `import voxfeat` and
`import voxfeat.mlpipe` resolve each exported name on first use, and
voxfeat.pipeline loads voxfeat.analyze only when run_analyze is asked for.
So after `import voxfeat` and a one-worker run_extract, neither
voxfeat.analyze nor the modeling, selection, transform and plotting modules
are loaded; run_analyze still runs after that, and every name in the two
packages' __all__ resolves and is listed by dir().
"""

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
    return sorted(m for m in ("multiprocessing", "concurrent.futures",
                              "concurrent.futures.process") if m in sys.modules)

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
seen["extract"] = scipy_modules()
seen["extract_pool"] = pool_modules()

from voxfeat.config import AnalyzeSpec, PipelineConfig
from voxfeat.pipeline import run_analyze
rng = np.random.default_rng(0)
for n_classes in (2, 3):
    y = np.arange(60) % n_classes
    x = np.column_stack([2.0 * y + rng.standard_normal(60), rng.standard_normal((60, 3))])
    table = f"{sys.argv[1]}/table{n_classes}.csv"
    with open(table, "w") as fh:
        fh.write("row_id,a,b,c,d,target\n")
        for i in range(60):
            fh.write(f"r{i}," + ",".join(repr(float(v)) for v in x[i]) + f",{y[i]}\n")
    for selector in ("anova_f", "importance"):
        spec = AnalyzeSpec(selector=selector, k_values=(1, 2), folds=3)
        report = run_analyze(table, f"{sys.argv[1]}/out{n_classes}-{selector}",
                             PipelineConfig(analyze=spec))
        stage = next(s for s in report["stages"] if s["stage"] == "selection")
        seen[f"estimator{n_classes}-{selector}"] = stage["estimator"]
    seen[f"analyze{n_classes}"] = scipy_modules()

from voxfeat.mlpipe.model import accuracy_score, fit_logistic
centers = np.array([[0.0, 0.0], [8.0, 0.0], [0.0, 8.0]])
x3 = np.vstack([rng.standard_normal((20, 2)) + c for c in centers])
y3 = np.repeat([0, 1, 2], 20)
seen["accuracy"] = accuracy_score(y3, fit_logistic(x3, y3).predict(x3))
seen["fit"] = scipy_modules()
print(json.dumps(seen))
"""


def test_no_path_loads_scipy(tmp_path):
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    proc = subprocess.run([sys.executable, "-c", SCRIPT, str(tmp_path)], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    seen = json.loads(proc.stdout)
    assert seen["import"] == []
    assert seen["import_pool"] == []
    assert seen["extract_ok"]
    assert seen["extract"] == []
    assert seen["extract_pool"] == []
    for n_classes in (2, 3):
        for selector in ("anova_f", "importance"):
            assert seen[f"estimator{n_classes}-{selector}"] == "logistic"
        assert seen[f"analyze{n_classes}"] == []
    assert seen["accuracy"] == 1.0
    assert seen["fit"] == []


ANALYZE_MODULES = ("voxfeat.analyze", "voxfeat.mlpipe.model", "voxfeat.mlpipe.select",
                   "voxfeat.mlpipe.transform", "voxfeat.mlpipe.viz", "voxfeat.svgplot")

FOOTPRINT_SCRIPT = r"""
import json, sys
import numpy as np

analyze_modules = json.loads(sys.argv[2])
seen = {}
import voxfeat
from voxfeat.audio_io import AudioBuffer, write_wav
from voxfeat.config import AnalyzeSpec
t = np.arange(16000) / 16000
write_wav(AudioBuffer(0.4 * np.sin(2 * np.pi * 220 * t), 16000), sys.argv[1] + "/a.wav")
manifest = voxfeat.run_extract(sys.argv[1], sys.argv[1] + "/f.csv", voxfeat.PipelineConfig(),
                               jobs=1)
seen["extract_ok"] = manifest.all_ok
seen["extract"] = sorted(m for m in analyze_modules if m in sys.modules)

rng = np.random.default_rng(0)
y = np.arange(40) % 2
x = np.column_stack([2.0 * y + rng.standard_normal(40), rng.standard_normal((40, 2))])
with open(sys.argv[1] + "/table.csv", "w") as fh:
    fh.write("row_id,a,b,c,target\n")
    for i in range(40):
        fh.write(f"r{i}," + ",".join(repr(float(v)) for v in x[i]) + f",{y[i]}\n")
spec = AnalyzeSpec(k_values=(1, 2), folds=3)
report = voxfeat.run_analyze(sys.argv[1] + "/table.csv", sys.argv[1] + "/out",
                             voxfeat.PipelineConfig(analyze=spec))
seen["analyze_outputs"] = report["outputs"]

import voxfeat.mlpipe
for package in (voxfeat, voxfeat.mlpipe):
    listed = dir(package)
    seen[package.__name__] = {
        "unresolved": [n for n in package.__all__ if getattr(package, n, None) is None],
        "unlisted": [n for n in package.__all__ if n not in listed],
    }
print(json.dumps(seen))
"""


def test_extract_loads_no_analyze_module(tmp_path):
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    proc = subprocess.run([sys.executable, "-c", FOOTPRINT_SCRIPT, str(tmp_path),
                           json.dumps(ANALYZE_MODULES)],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    seen = json.loads(proc.stdout)
    assert seen["extract_ok"]
    assert seen["extract"] == []
    assert seen["analyze_outputs"] == ["curve.csv", "curve.svg", "heatmap.svg",
                                       "kept_features.txt", "ranking.csv", "report.json",
                                       "scatter.svg"]
    for package in ("voxfeat", "voxfeat.mlpipe"):
        assert seen[package] == {"unresolved": [], "unlisted": []}


# the names README's example, the benchmark and CI import from the packages;
# every other name is imported from the submodule that defines it
VOXFEAT_EXPORTS = ["PipelineConfig", "__version__", "config_from_dict", "run_analyze",
                   "run_extract", "validate_config"]
MLPIPE_EXPORTS = ["FeatureTable", "SelectionResult", "anova_f_select", "corr_heatmap_export",
                  "cv_score_curve", "fit_logistic", "fit_ols", "high_correlation_filter", "ica",
                  "importance_select", "impute_and_standardize", "is_classification",
                  "low_variance_filter", "mrmr_rank", "read_table_csv", "rfe_select",
                  "scatter_export", "table_to_csv_text"]


def test_export_maps_hold_only_the_used_names():
    import voxfeat
    import voxfeat.mlpipe
    assert voxfeat.__all__ == VOXFEAT_EXPORTS
    assert voxfeat.mlpipe.__all__ == MLPIPE_EXPORTS
