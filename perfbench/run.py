"""voxfeat benchmark: extract real-time factor, analyze time per selector,
set-up time and peak RSS on three workloads, plus a traced per-layer run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --smoke

Run it from the root of a checkout: voxfeat is imported from ./src. The
seed fixes every generated input (WAVs, transcripts, embeddings, valence
lexicon, feature tables), which are written under ./.bench_work and fed to
the public API (`run_extract`, `run_analyze`) in fresh child processes, one
per phase, with BLAS pinned to one thread. The last line printed is one JSON
object: with --trace 0 it carries the end-to-end metrics from untraced runs,
with --trace 1 the per-layer metrics of the traced replay (see spans.py).
The exit code is non-zero when an output check fails.

--smoke runs every workload once at a tiny size, in both modes, and checks
that BENCHMARK.json and the printed metrics name exactly the workloads and
metrics listed below.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import corpus  # noqa: E402

SELECTORS = ("anova_f", "mrmr", "rfe", "importance")

# Every workload runs both phases, so every end-to-end metric is measured on
# each; the share of --seconds given to extract says which phase is the
# workload's own. The other phase is a small companion load, and peak RSS is
# taken from the child that ran the workload's own phase.
WORKLOADS = {
    "extract-batch": {"corpus": "batch", "table": "small", "extract_share": 0.7},
    "extract-long": {"corpus": "long", "table": "small", "extract_share": 0.7},
    "analyze-sweep": {"corpus": "short", "table": "sweep", "extract_share": 0.15},
}

SIZES = {
    "full": {
        "batch": {"seconds": [2.0 + 0.2 * i for i in range(16)],
                  "f0s": [100.0 + 8.0 * i for i in range(16)], "stereo": 6,
                  "transcripts": ["conllu"] * 10 + ["txt"] * 3 + [None] * 3,
                  "sentences": [150 + 8 * i for i in range(13)], "formats": 2.0},
        "long": {"seconds": [30.0, 45.0], "f0s": [110.0, 170.0], "stereo": 0},
        "short": {"seconds": [3.0, 3.0], "f0s": [120.0, 200.0], "stereo": 1},
        "sweep": {"rows": 300, "cols": 200, "planted": 6, "k_values": [1, 2, 5, 10, 20, 50]},
        "small": {"rows": 100, "cols": 30, "planted": 3, "k_values": [1, 2, 5, 10]},
    },
    "tiny": {
        "batch": {"seconds": [2.0, 2.0, 2.0, 2.0], "f0s": [110.0, 150.0, 190.0, 220.0],
                  "stereo": 1, "transcripts": ["conllu", "conllu", "txt", None],
                  "sentences": [20, 25, 30], "formats": 1.0},
        "long": {"seconds": [6.0], "f0s": [140.0], "stereo": 0},
        "short": {"seconds": [2.0], "f0s": [150.0], "stereo": 0},
        "sweep": {"rows": 60, "cols": 20, "planted": 3, "k_values": [1, 2, 5]},
        "small": {"rows": 60, "cols": 20, "planted": 3, "k_values": [1, 2, 5]},
    },
}

EXTRACT_CFGS = {
    # text families on, with the generated embedding table and valence lexicon
    "batch": ({"sentiment": True, "coherence": True}, 2),
    # frame-count-heavy: no text, every low-level descriptor summarized
    "long": ({"complexity": False, "syntax": False,
              "lld_functionals": ["mean", "stddev", "min", "max", "median"]}, 1),
    "short": ({"complexity": False, "syntax": False}, 1),
}

SETUP_RUNS = 5
ICA_TABLE_SEED = 0
CHILD_TIMEOUT_S = 170
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


class BenchError(Exception):
    """The benchmark itself could not run (not an output check failure)."""


def build_inputs(workload: str, seed: int, seconds: float, size: str, work: Path) -> dict:
    """Generate every input of one run and return the plan the children read."""
    import numpy as np

    spec = WORKLOADS[workload]
    sizes = SIZES[size]
    rng = np.random.default_rng(seed)
    cfg, jobs = EXTRACT_CFGS[spec["corpus"]]
    cfg = dict(cfg)
    c = sizes[spec["corpus"]]
    files = corpus.write_recordings(rng, work / "audio", c["seconds"], c["f0s"], c["stereo"])
    extract = {"audio_dir": str(work / "audio"), "transcript_dir": None, "jobs": jobs,
               "out": str(work / "out"), "budget_s": seconds * spec["extract_share"]}
    if "transcripts" in c:
        lang = corpus.Language(rng, 3000)
        cfg.update(corpus.write_resources(rng, lang, work))
        corpus.write_transcripts(rng, lang, work / "text", files, c["transcripts"], c["sentences"])
        extract["transcript_dir"] = str(work / "text")
    if "formats" in c:
        # the README promises PCM or float; these exercise the formats beyond 16-bit PCM
        probe = work / "formats"
        corpus.write_recordings(rng, probe, [c["formats"]] * 2, [130.0, 190.0], 1, "pcm24", "pcm24")
        corpus.write_recordings(rng, probe, [c["formats"]] * 2, [130.0, 190.0], 1, "float32", "float32")
        extract["probe_dir"] = str(probe)
    extract.update(cfg=cfg, files=files)

    t = sizes[spec["table"]]
    tables = work / "tables"
    tables.mkdir()
    binary = corpus.write_table(rng, tables / "binary.csv", t["rows"], t["cols"], t["planted"], True)
    # FastICA's iteration count on these Gaussian blocks jumps between ~30 and
    # the 500 cap from one draw to the next, so this table does not follow the
    # seed: it is the same draw for every run, one on which ICA runs to the cap
    regression = corpus.write_table(np.random.default_rng(ICA_TABLE_SEED), tables / "float.csv",
                                    t["rows"], t["cols"], t["planted"], False)
    base = {"k_values": t["k_values"], "folds": 5}
    runs = [{"name": sel, "csv": binary["path"], "planted": binary["planted"],
             "cfg": {"analyze": dict(base, selector=sel)}} for sel in SELECTORS]
    # float target: the curve scores with OLS; rfe selects among the ICs
    runs.append({"name": "ica", "csv": regression["path"], "planted": regression["planted"],
                 "cfg": {"analyze": dict(base, selector="rfe", transform="ica", transform_k=5)}})
    (work / "out").mkdir()
    analyze = {"runs": runs, "out": str(work / "out"),
               "budget_s": seconds * (1.0 - spec["extract_share"])}

    plan = {
        "src": str(ROOT / "src"),
        "extract": extract,
        "analyze": analyze,
        "setup_cfg": cfg if spec["extract_share"] >= 0.5 else runs[0]["cfg"],
        "primary": "extract" if spec["extract_share"] >= 0.5 else "analyze",
        "spans_path": str(work / "spans.jsonl"),
        "inputs": {
            "audio_seconds": sum(f["seconds"] for f in files),
            "files": len(files),
            "stereo_files": sum(f["channels"] == 2 for f in files),
            "transcripts": sum(f["transcript"] is not None for f in files),
            "tokens": sum(f["tokens"] for f in files),
            "sentences": sum(f["sentences"] for f in files),
            "table_shape": [t["rows"], t["cols"]],
            "jobs": jobs,
        },
    }
    (work / "plan.json").write_text(json.dumps(plan, indent=1) + "\n", encoding="utf-8")
    return plan


def child(mode: str, work: Path) -> dict:
    env = dict(os.environ)
    env.update({name: "1" for name in BLAS_ENV})
    env.pop("PYTHONPATH", None)
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "child.py"), mode, str(work / "plan.json")],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{mode} child ran over {CHILD_TIMEOUT_S} s") from None
    if proc.returncode != 0:
        raise BenchError(f"{mode} child exited {proc.returncode}:\n{proc.stderr[-4000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def timed_run(plan: dict, work: Path) -> tuple[dict, dict]:
    setups = [child("setup", work) for _ in range(SETUP_RUNS)]
    ext = child("extract", work)
    ana = child("analyze", work)
    scaled: dict[str, list[float]] = {}
    wall: dict[str, list[float]] = {}
    for res in (*setups, ext, ana):
        for name, values in res["scaled"].items():
            scaled.setdefault(name, []).extend(values)
        for name, values in res["wall"].items():
            wall.setdefault(name, []).extend(values)
    metrics = {name: statistics.median(v) for name, v in scaled.items() if v}
    metrics["peak_rss_mb"] = (ext if plan["primary"] == "extract" else ana)["maxrss_mb"]
    outcome = {
        "attempted": ext["attempted"] + ana["attempted"],
        "failed": ext["failed"] + ana["failed"],
        "checks": ext["checks"] + ana["checks"],
        "metrics": metrics,
        "kind": "end_to_end",
    }
    info = {
        "samples": {name: len(v) for name, v in wall.items()},
        "unscaled_medians": {name: statistics.median(v) for name, v in wall.items() if v},
        "maxrss_mb": {"extract": ext["maxrss_mb"], "analyze": ana["maxrss_mb"]},
        "blas_threads": ext["blas_threads"],
        **ext["info"],
    }
    return outcome, info


def trace_run(plan: dict, work: Path) -> tuple[dict, dict]:
    res = child("trace", work)
    return ({"attempted": res["attempted"], "failed": res["failed"], "checks": res["checks"],
             "metrics": res["metrics"], "kind": "per_layer"},
            {"blas_threads": res["blas_threads"], **res["info"]})


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 size: str = "full") -> tuple[dict, dict]:
    """One benchmark run: returns (result line, info)."""
    import numpy
    import scipy

    if not (ROOT / "src" / "voxfeat" / "__init__.py").is_file():
        raise BenchError(f"no voxfeat sources under {ROOT / 'src'}; run from a checkout")
    work = ROOT / ".bench_work" / f"{workload}-seed{seed}-pid{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        plan = build_inputs(workload, seed, seconds, size, work)
        outcome, info = (trace_run if trace else timed_run)(plan, work)
    finally:
        for sub in ("audio", "text", "formats", "tables", "out"):
            shutil.rmtree(work / sub, ignore_errors=True)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    expected = {m["name"]: m["unit"] for m in bench[outcome["kind"]]}
    missing = sorted(set(expected) - set(outcome["metrics"]))
    extra = sorted(set(outcome["metrics"]) - set(expected))
    if missing or extra:
        raise BenchError(f"metrics missing {missing}, unexpected {extra}")
    info = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace, "size": size,
        "nproc": os.cpu_count(), "python": platform.python_version(),
        "numpy": numpy.__version__, "scipy": scipy.__version__,
        "blas_env": {name: "1" for name in BLAS_ENV},
        **plan["inputs"], **info, "checks_failed": outcome["checks"],
    }
    result = {
        "correct": not outcome["checks"] and outcome["failed"] == 0,
        "attempted": outcome["attempted"],
        "failed": outcome["failed"],
        "metrics": {name: {"value": float(outcome["metrics"][name]), "unit": unit}
                    for name, unit in expected.items()},
    }
    (work / "result.json").write_text(json.dumps({"result": result, "info": info}, indent=1) + "\n",
                                      encoding="utf-8")
    return result, info


def print_result(result: dict, info: dict) -> None:
    for name, m in result["metrics"].items():
        print(f"{name:<44} {m['value']:>14.6g} {m['unit']}")
    for message in info["checks_failed"]:
        print(f"CHECK FAILED: {message}", file=sys.stderr)
    print("info " + json.dumps(info, sort_keys=True))
    print(json.dumps(result))


# the workloads and metrics the benchmark is specified to have
SPEC_WORKLOADS = ("extract-batch", "extract-long", "analyze-sweep")
SPEC_END_TO_END = ("setup_s", "extract_rtf", "peak_rss_mb", "analyze_anova_f_s",
                   "analyze_mrmr_s", "analyze_rfe_s", "analyze_importance_s", "analyze_ica_s")
SPEC_PER_LAYER = (
    "acoustic.f0_track_s", "acoustic.f0_track_peak_alloc_mb", "acoustic.spectra_s",
    "acoustic.mfcc_s", "acoustic.hnr_series_s", "acoustic.pick_cycle_peaks_s",
    "acoustic.frames", "acoustic.voiced_frames", "acoustic.cycles",
    "functionals.gemaps_core_s", "functionals.spectral_set_s", "functionals.lld_series_s",
    "functionals.apply_bank_s", "functionals.nan_features",
    "audio_io.load_wav_s", "audio_io.frame_signal_s", "audio_io.bytes_read",
    "textfeat.load_transcript_s", "textfeat.complexity_s", "textfeat.syntax_counts_s",
    "textfeat.sentiment_s", "textfeat.tokens", "coherence.coherence_features_s",
    "coherence.sentences", "coherence.phrase_hit_ratio",
    "coherence.load_embeddings_s", "pipeline.load_resources_s",
    "pipeline.discover_inputs_s", "pipeline.extract_features_s_p50",
    "pipeline.extract_features_s_max", "pipeline.csv_write_s", "pipeline.parallel_speedup",
    "mlpipe.table.read_table_csv_s", "mlpipe.table.impute_and_standardize_s",
    "mlpipe.transform.low_variance_filter_s", "mlpipe.transform.high_correlation_filter_s",
    "mlpipe.transform.columns_kept", "mlpipe.transform.ica_s", "mlpipe.transform.ica_iterations",
    *(f"mlpipe.select.{s}_final_s" for s in SELECTORS),
    *(f"mlpipe.select.cv_score_curve_s.{s}" for s in SELECTORS),
    *(f"mlpipe.select.selector_calls.{s}" for s in SELECTORS),
    "mlpipe.model.fit_s", "svgplot.render_s", "trace.coverage", "trace.overhead_s",
)


def smoke() -> int:
    problems = []
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    declared = {
        "workloads": [w["name"] for w in bench["workloads"]],
        "end_to_end": [m["name"] for m in bench["end_to_end"]],
        "per_layer": [m["name"] for m in bench["per_layer"]],
    }
    spec = {"workloads": list(SPEC_WORKLOADS), "end_to_end": list(SPEC_END_TO_END),
            "per_layer": list(SPEC_PER_LAYER)}
    for key in spec:
        if declared[key] != spec[key]:
            problems.append(f"BENCHMARK.json {key} {declared[key]} != {spec[key]}")
    units = {m["name"]: m["unit"] for m in bench["end_to_end"] + bench["per_layer"]}
    for workload in SPEC_WORKLOADS:
        for trace, names in ((False, SPEC_END_TO_END), (True, SPEC_PER_LAYER)):
            result, info = run_workload(workload, 1, 1.0, trace, size="tiny")
            label = f"{workload} trace={int(trace)}"
            print(f"{label}: correct={result['correct']} attempted={result['attempted']}")
            if not result["correct"]:
                problems.append(f"{label}: output checks failed {info['checks_failed']}")
            if list(result["metrics"]) != list(names):
                problems.append(f"{label}: printed metrics differ from the specified ones")
            for name, m in result["metrics"].items():
                if units.get(name) != m["unit"]:
                    problems.append(f"{label}: {name} unit {m['unit']} vs {units.get(name)}")
    for p in problems:
        print(f"SMOKE FAILED: {p}", file=sys.stderr)
    print("smoke ok" if not problems else f"smoke failed ({len(problems)} problems)")
    return 1 if problems else 0


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args(argv)
    try:
        if args.smoke:
            return smoke()
        if args.workload is None:
            ap.error("--workload is required")
        result, info = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    print_result(result, info)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
