"""One phase of a benchmark run, in a fresh interpreter.

    python child.py {setup|extract|analyze|trace} PLAN_JSON

The parent writes the plan (input paths, configs, time budgets) and reads
the last line this process prints: one JSON object with the samples, the
counts, the failed output checks and this process's peak RSS. Only the
standard library is imported before the timed set-up, so `setup` measures
the import of voxfeat together with numpy and scipy.
"""

from __future__ import annotations

import json
import logging
import os
import resource
import statistics
import sys
import time
from pathlib import Path

START = time.perf_counter()


class Checks:
    """Collects failed output checks instead of stopping at the first."""

    def __init__(self) -> None:
        self.failed: list[str] = []

    def expect(self, ok: bool, message: str) -> bool:
        if not ok and len(self.failed) < 50:
            self.failed.append(message)
        return ok


def import_voxfeat(plan: dict):
    """Import voxfeat from the checkout's src/ and nowhere else."""
    src = Path(plan["src"]).resolve()
    sys.path.insert(0, str(src))
    import voxfeat

    if src not in Path(voxfeat.__file__).resolve().parents:
        raise SystemExit(f"voxfeat imported from {voxfeat.__file__}, not from {src}")
    # missing transcripts are part of the workload; their warnings are noise here
    logging.getLogger("voxfeat").setLevel(logging.ERROR)
    return voxfeat


def blas_threads() -> int | None:
    """Thread count OpenBLAS reports in this process, if numpy bundles it."""
    import ctypes
    import glob

    import numpy

    for lib in glob.glob(os.path.dirname(numpy.__file__) + ".libs/*openblas*"):
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                return int(fn())
    return None


# CPU seconds calibrate() takes on the machine the benchmark was written on
# (2-vCPU Intel Xeon VM at 2.1 GHz, Python 3.11, numpy 2.4) when the host is
# quiet; scaled times are wall times at that speed.
CALIBRATION_REF_S = 0.00062


def calibrate() -> float:
    """CPU seconds this thread spends on a fixed kernel shaped like voxfeat's
    hot loops: a Python loop over 60 frames with small FFTs and reductions.

    On a shared host the speed of a vCPU drifts by up to half for seconds to
    minutes, CPU time included, and this kernel slows in step with voxfeat
    while running none of its code, so a change to voxfeat leaves it alone.
    Thread CPU time leaves out waiting for the GIL or for a core.
    """
    import numpy as np

    frames = np.random.default_rng(0).normal(size=(60, 400))
    t0 = time.thread_time()
    for row in frames:
        mags = np.abs(np.fft.rfft(row))
        float(mags.sum()) / (int(np.argmax(mags)) + 1)
    return time.thread_time() - t0


class Speedometer:
    """Times calls, sampling host speed while they run.

    A SIGALRM handler runs calibrate() every `interval` seconds on the main
    thread (about 1 % of the time); each call is also bracketed by one
    calibration on each side. A call's scaled time is its wall time times
    CALIBRATION_REF_S over the median calibration taken during it.
    """

    def __init__(self, interval: float = 0.1) -> None:
        import signal

        self._signal = signal
        self.ticks: list[tuple[float, float]] = []
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, interval, interval)

    def _tick(self, signum=None, frame=None) -> None:
        self.ticks.append((time.perf_counter(), calibrate()))

    def call(self, fn, *args, **kwargs):
        """Returns (result, wall seconds, scaled seconds)."""
        before = calibrate()
        t0 = time.perf_counter()
        out = fn(*args, **kwargs)
        t1 = time.perf_counter()
        during = [before, calibrate()] + [k for t, k in self.ticks if t0 <= t <= t1]
        return out, t1 - t0, (t1 - t0) * CALIBRATION_REF_S / statistics.median(during)

    def stop(self) -> None:
        self._signal.setitimer(self._signal.ITIMER_REAL, 0, 0)


def rounds(budget_s: float, min_rounds: int):
    """Yield until another round would overrun the budget (at least min_rounds)."""
    start = time.perf_counter()
    n = 0
    while True:
        yield n
        n += 1
        elapsed = time.perf_counter() - start
        if n >= min_rounds and elapsed * (n + 1) / n > budget_s:
            return


# ---------------------------------------------------------------------------
# phases
# ---------------------------------------------------------------------------

def setup(plan: dict) -> dict:
    vf = import_voxfeat(plan)
    from voxfeat.pipeline import load_resources

    cfg = vf.config_from_dict(plan["setup_cfg"])
    vf.validate_config(cfg)
    load_resources(cfg)
    wall = time.perf_counter() - START
    speed = statistics.median(calibrate() for _ in range(9))
    return {"wall": {"setup_s": [wall]},
            "scaled": {"setup_s": [wall * CALIBRATION_REF_S / speed]}}


def _is_named_error(message: str) -> bool:
    import voxfeat.errors

    cls = getattr(voxfeat.errors, message.split(":", 1)[0], None)
    return isinstance(cls, type) and issubclass(cls, voxfeat.errors.VoxfeatError)


def check_extract(text: str, manifest, cfg, files: dict, checks: Checks) -> dict:
    """Output checks on one extract CSV; returns what the checks observed."""
    import dataclasses
    import math

    import numpy as np
    from voxfeat.config import feature_names_for

    lines = text.splitlines()
    names = feature_names_for(cfg)
    checks.expect(lines[0].split(",") == ["row_id", *names],
                  "CSV header differs from feature_names_for(cfg)")
    ok_ids = [r.source_id for r in manifest.results if r.ok]
    checks.expect(len(lines) - 1 == len(ok_ids) == manifest.row_count,
                  f"{len(lines) - 1} CSV rows for {len(ok_ids)} succeeded inputs")
    for r in manifest.results:
        if not r.ok:
            checks.expect(_is_named_error(r.message),
                          f"{r.source_id}: failure is not a named VoxfeatError: {r.message}")

    acoustic = set(feature_names_for(dataclasses.replace(
        cfg, complexity=False, syntax=False, sentiment=False, coherence=False)))
    text_cols = [j for j, n in enumerate(names) if n not in acoustic]
    col = {n: j for j, n in enumerate(names)}
    jitter = []
    audio_s = 0.0
    for line in lines[1:]:
        cells = line.split(",")
        sid, values = cells[0], np.array([float(v) for v in cells[1:]])
        meta = files[sid]
        audio_s += meta["seconds"]
        if text_cols:
            text_vals = values[text_cols]
            if meta["transcript"] is None:
                checks.expect(bool(np.all(np.isnan(text_vals))),
                              f"{sid}: no transcript but text features are not NaN")
            else:
                checks.expect(bool(np.any(np.isfinite(text_vals))),
                              f"{sid}: transcript present but every text feature is NaN")
        if cfg.gemaps_core:
            semitones = 12.0 * math.log2(meta["f0_hz"] / 27.5)
            got = values[col["f0_semitone_mean"]]
            checks.expect(abs(got - semitones) <= 0.5,
                          f"{sid}: f0_semitone_mean {got:.3f}, generated {semitones:.3f}")
            got = values[col["voiced_fraction"]]
            checks.expect(abs(got - meta["duty"]) <= 0.05,
                          f"{sid}: voiced_fraction {got:.3f}, generated duty {meta['duty']:.3f}")
            # recorded, not checked: cycle picking chains across unvoiced gaps
            jitter.append(values[col["jitter_local"]])
    return {"audio_s": audio_s, "rows": len(lines) - 1,
            "jitter_local_median": float(np.nanmedian(jitter)) if jitter else None}


def format_probe(phase: dict, cfg, checks: Checks) -> dict:
    """Extract the 24-bit PCM and 32-bit float files; any failure must be a
    named VoxfeatError. Rejections are reported, not counted as failures."""
    from voxfeat.pipeline import run_extract

    out = Path(phase["out"]) / "formats.csv"
    manifest = run_extract(phase["probe_dir"], out, cfg, jobs=1)
    for r in manifest.results:
        if not r.ok:
            checks.expect(_is_named_error(r.message),
                          f"{r.source_id}: failure is not a named VoxfeatError: {r.message}")
    return {"files": len(manifest.results),
            "rejected": sum(not r.ok for r in manifest.results),
            "messages": sorted({r.message.split(":", 1)[0] for r in manifest.results if not r.ok})}


def extract(plan: dict) -> dict:
    vf = import_voxfeat(plan)
    from voxfeat.pipeline import run_extract

    phase = plan["extract"]
    cfg = vf.config_from_dict(phase["cfg"])
    files = {m["source_id"]: m for m in phase["files"]}
    out_csv = Path(phase["out"]) / "features.csv"
    checks = Checks()
    rtf: list[float] = []
    wall_rtf: list[float] = []
    attempted = failed = 0
    first = None
    seen: dict = {}
    if phase["jobs"] == 1:
        # the timing signal runs on the main thread while the pool's worker
        # extracts; one core for both makes the calibration see that core
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    clock = Speedometer()
    for _ in rounds(phase["budget_s"], min_rounds=2):
        manifest, wall, scaled = clock.call(
            run_extract, phase["audio_dir"], out_csv, cfg,
            transcript_dir=phase["transcript_dir"], jobs=phase["jobs"])
        text = out_csv.read_text(encoding="utf-8")
        attempted += len(manifest.results)
        failed += sum(not r.ok for r in manifest.results)
        if first is None:
            first = text
            seen = check_extract(text, manifest, cfg, files, checks)
        else:
            checks.expect(text == first, "extract CSV differs between runs of one invocation")
        if seen.get("audio_s"):
            rtf.append(scaled / seen["audio_s"])
            wall_rtf.append(wall / seen["audio_s"])
    clock.stop()
    info = {"rows": seen.get("rows"),
            "jitter_local_median": seen.get("jitter_local_median")}
    if phase.get("probe_dir"):
        info["format_probe"] = format_probe(phase, cfg, checks)
    return {"wall": {"extract_rtf": wall_rtf}, "scaled": {"extract_rtf": rtf},
            "attempted": attempted, "failed": failed, "checks": checks.failed, "info": info}


def _check_artifacts(report: dict, out: Path, run: dict, checks: Checks) -> None:
    expected = {"ranking.csv", "kept_features.txt", "curve.csv", "report.json",
                "curve.svg", "scatter.svg", "heatmap.svg"}
    checks.expect(set(report.get("outputs", ())) == expected,
                  f"{run['name']}: outputs {report.get('outputs')}")
    for name in expected:
        path = out / name
        checks.expect(path.is_file() and path.stat().st_size > 0,
                      f"{run['name']}: {name} missing or empty")
    if run["name"] == "anova_f":
        kept = (out / "kept_features.txt").read_text(encoding="utf-8").split()
        missing = sorted(set(run["planted"]) - set(kept))
        checks.expect(not missing, f"anova_f top k misses planted columns {missing}")


def analyze(plan: dict) -> dict:
    """While the budget lasts, the run with the fewest samples that still
    fits in it (ties: least time spent), so rounds of every run repeat and
    cheap runs fill the rest."""
    vf = import_voxfeat(plan)
    from voxfeat.errors import VoxfeatError
    from voxfeat.pipeline import run_analyze

    phase = plan["analyze"]
    runs = phase["runs"]
    cfgs = {r["name"]: vf.config_from_dict(r["cfg"]) for r in runs}
    checks = Checks()
    walls: dict[str, list[float]] = {f"analyze_{r['name']}_s": [] for r in runs}
    scaled: dict[str, list[float]] = {f"analyze_{r['name']}_s": [] for r in runs}
    spent = {r["name"]: 0.0 for r in runs}
    last: dict[str, float] = {}
    first: dict[str, str] = {}
    attempted = failed = 0
    pending = list(runs)
    clock = Speedometer()
    start = time.perf_counter()
    while True:
        if pending:
            run = pending.pop(0)
        else:
            remaining = phase["budget_s"] - (time.perf_counter() - start)
            fits = [r for r in runs if last[r["name"]] <= remaining]
            if not fits:
                break
            run = min(fits, key=lambda r: (len(walls[f"analyze_{r['name']}_s"]), spent[r["name"]]))
        name = run["name"]
        out = Path(phase["out"]) / name
        attempted += 1
        try:
            report, wall, sample = clock.call(run_analyze, run["csv"], out, cfgs[name])
        except VoxfeatError as exc:
            failed += 1
            last[name] = float("inf")
            checks.expect(False, f"{name}: {type(exc).__name__}: {exc}")
            continue
        last[name] = wall
        spent[name] += wall
        walls[f"analyze_{name}_s"].append(wall)
        scaled[f"analyze_{name}_s"].append(sample)
        ranking = (out / "ranking.csv").read_text(encoding="utf-8")
        if name not in first:
            first[name] = ranking
            _check_artifacts(report, out, run, checks)
        else:
            checks.expect(ranking == first[name], f"{name}: ranking differs between runs")
    clock.stop()
    return {"wall": walls, "scaled": scaled, "attempted": attempted,
            "failed": failed, "checks": checks.failed, "info": {}}


def trace(plan: dict) -> dict:
    """Untraced reference calls, then the traced replays and the probes."""
    import numpy as np

    vf = import_voxfeat(plan)
    import spans
    from voxfeat.pipeline import run_analyze, run_extract

    tr = spans.Tracer()
    checks = Checks()
    metrics: dict[str, float] = {}
    attempted = failed = 0
    untraced = traced = 0.0

    phase = plan["extract"]
    cfg = vf.config_from_dict(phase["cfg"])
    work = Path(phase["out"])
    args = (phase["audio_dir"],)
    t0 = time.perf_counter()
    manifest = run_extract(*args, work / "jobs_n.csv", cfg,
                           transcript_dir=phase["transcript_dir"], jobs=phase["jobs"])
    wall_jobs = time.perf_counter() - t0
    t0 = time.perf_counter()
    run_extract(*args, work / "serial.csv", cfg, transcript_dir=phase["transcript_dir"], jobs=1)
    untraced += time.perf_counter() - t0
    attempted += len(manifest.results)
    failed += sum(not r.ok for r in manifest.results)
    t0 = time.perf_counter()
    text = spans.traced_extract(phase["audio_dir"], work / "traced.csv", cfg,
                                phase["transcript_dir"], tr)
    traced += sum(tr.durations(spans.RECORDING)) + tr.total("pipeline.discover_inputs") \
        + tr.total("pipeline.load_resources") + tr.total("pipeline.csv_write")
    checks.expect(text == (work / "jobs_n.csv").read_text(encoding="utf-8"),
                  "traced extract replay wrote a different CSV than run_extract")
    if phase.get("probe_dir"):
        format_probe(phase, cfg, checks)

    aphase = plan["analyze"]
    for run in aphase["runs"]:
        acfg = vf.config_from_dict(run["cfg"])
        out = Path(aphase["out"]) / run["name"]
        attempted += 1
        t0 = time.perf_counter()
        run_analyze(run["csv"], out, acfg)
        untraced += time.perf_counter() - t0
        artifacts = spans.traced_analyze(run["csv"], out / "traced", acfg, run["name"], tr)
        traced += tr.total(spans.ANALYZE_RUN, run["name"])
        for name, body in artifacts.items():
            checks.expect(body == (out / name).read_text(encoding="utf-8"),
                          f"{run['name']}: traced replay wrote a different {name}")

    tr.finish()
    per_rec = tr.durations(spans.RECORDING)
    c = tr.counts
    for name in ("acoustic.f0_track", "acoustic.spectra", "acoustic.mfcc",
                 "acoustic.hnr_series", "acoustic.pick_cycle_peaks",
                 "functionals.gemaps_core", "functionals.spectral_set",
                 "functionals.lld_series", "functionals.apply_bank",
                 "audio_io.load_wav", "audio_io.frame_signal",
                 "textfeat.load_transcript", "textfeat.complexity",
                 "textfeat.syntax_counts", "textfeat.sentiment",
                 "coherence.coherence_features", "coherence.load_embeddings",
                 "pipeline.load_resources", "pipeline.discover_inputs",
                 "pipeline.csv_write", "mlpipe.table.read_table_csv",
                 "mlpipe.table.impute_and_standardize",
                 "mlpipe.transform.low_variance_filter",
                 "mlpipe.transform.high_correlation_filter", "mlpipe.transform.ica",
                 "mlpipe.model.fit", "svgplot.render"):
        metrics[name + "_s"] = tr.total(name)
    for name in ("acoustic.f0_track_peak_alloc_mb", "acoustic.frames",
                 "acoustic.voiced_frames", "acoustic.cycles", "functionals.nan_features",
                 "audio_io.bytes_read", "textfeat.tokens", "coherence.sentences",
                 "mlpipe.transform.columns_kept", "mlpipe.transform.ica_iterations"):
        metrics[name] = float(c.get(name, 0))
    metrics["coherence.phrase_hit_ratio"] = (
        c.get("coherence.defined_phrases", 0) / c["coherence.sentences"]
        if c.get("coherence.sentences") else 0.0)
    metrics["pipeline.extract_features_s_p50"] = float(np.median(per_rec))
    metrics["pipeline.extract_features_s_max"] = float(np.max(per_rec))
    metrics["pipeline.parallel_speedup"] = sum(per_rec) / wall_jobs
    for sel in ("anova_f", "mrmr", "rfe", "importance"):
        metrics[f"mlpipe.select.{sel}_final_s"] = tr.total("mlpipe.select.final", sel)
        metrics[f"mlpipe.select.cv_score_curve_s.{sel}"] = tr.total(
            "mlpipe.select.cv_score_curve", sel)
        metrics[f"mlpipe.select.selector_calls.{sel}"] = float(c.get(f"selector_calls.{sel}", 0))
    metrics["trace.coverage"] = tr.coverage()
    metrics["trace.overhead_s"] = traced - untraced

    spans_path = Path(plan["spans_path"])
    with spans_path.open("w", encoding="utf-8") as handle:
        for s in tr.spans:
            handle.write(json.dumps(s) + "\n")
    return {"metrics": metrics, "attempted": attempted, "failed": failed,
            "checks": checks.failed, "info": {"spans": len(tr.spans)}}


PHASES = {"setup": setup, "extract": extract, "analyze": analyze, "trace": trace}


def main() -> None:
    mode, plan_path = sys.argv[1], Path(sys.argv[2])
    plan = json.loads(plan_path.read_text(encoding="utf-8"))
    result = PHASES[mode](plan)
    result["maxrss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result["blas_threads"] = blas_threads()
    print(json.dumps(result))


if __name__ == "__main__":
    main()
