"""In-memory span recording and the traced replays of extract and analyze.

Spans are recorded only from the benchmark's side of the API: each replay
calls the same public functions, in the same order and with the same
arguments, as `voxfeat.pipeline.extract_features` / `run_extract` /
`run_analyze`, and wraps every call in a span. Nothing inside the program
is instrumented. The replays write the same artifacts as the real calls,
and the caller compares the two to show the replay is faithful.

Span kinds:
  path   the replayed call chain; the root spans (one per recording and one
         per analyze run) are what trace coverage is measured against
  probe  standalone calls into kernels the path cannot see into (F0 track,
         spectra, MFCC loop, ...); each recording and analyze run has its
         own probe root, so probes never count toward coverage
"""

from __future__ import annotations

import time
import tracemalloc
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from voxfeat.acoustic import (
    AcousticConfig,
    analysis_frames,
    f0_track,
    hnr_series,
    mfcc,
    pick_cycle_peaks,
    spectra,
)
from voxfeat.audio_io import load_wav
from voxfeat.coherence import (
    COHERENCE_FEATURE_NAMES,
    coherence_feature_vector,
    coherence_features,
    load_embeddings,
    phrase_vector,
)
from voxfeat.config import SENTIMENT_FEATURE_NAMES, feature_names_for, validate_config
from voxfeat.functionals import (
    FeatureVector,
    FunctionalBank,
    LLD_SERIES_NAMES,
    apply_bank,
    concat_vectors,
    gemaps_core,
    lld_series,
    spectral_set,
)
from voxfeat.mlpipe import (
    FeatureTable,
    SelectionResult,
    anova_f_select,
    corr_heatmap_export,
    cv_score_curve,
    fit_logistic,
    fit_ols,
    high_correlation_filter,
    ica,
    impute_and_standardize,
    importance_select,
    is_classification,
    low_variance_filter,
    mrmr_rank,
    read_table_csv,
    rfe_select,
    scatter_export,
    table_to_csv_text,
)
from voxfeat.pipeline import TextResources, discover_inputs
from voxfeat.svgplot import curve_svg, heatmap_svg, scatter_svg
from voxfeat.textfeat import (
    COMPLEXITY_FEATURE_NAMES,
    DEFAULT_SUFFIXES,
    SYNTAX_FEATURE_NAMES,
    complexity,
    complexity_feature_vector,
    load_conllu,
    load_suffix_list,
    load_valence_csv,
    load_word_list,
    sentiment,
    syntax_counts,
    syntax_feature_vector,
    tokenize,
)

RECORDING = "pipeline.extract_features"
ANALYZE_RUN = "pipeline.run_analyze"


class Tracer:
    """Nested spans kept in a list; written out once the run is over."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._stack: list[dict] = []
        self.counts: dict[str, float] = {}

    @contextmanager
    def span(self, name: str, trace: str | None = None, kind: str = "path"):
        parent = self._stack[-1] if self._stack else None
        rec = {
            "id": len(self.spans),
            "name": name,
            "kind": kind,
            "parent": parent["id"] if parent else None,
            "trace": trace if trace is not None else (parent["trace"] if parent else None),
            "start": time.perf_counter(),
        }
        self.spans.append(rec)
        self._stack.append(rec)
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            rec["duration"] = rec["end"] - rec["start"]
            self._stack.pop()

    def count(self, name: str, value: float) -> None:
        self.counts[name] = self.counts.get(name, 0) + value

    def finish(self) -> None:
        """Fill in self time: duration minus the time of child spans."""
        covered = {s["id"]: 0.0 for s in self.spans}
        for s in self.spans:
            if s["parent"] is not None:
                covered[s["parent"]] += s["duration"]
        for s in self.spans:
            s["self"] = s["duration"] - covered[s["id"]]

    def total(self, name: str, trace: str | None = None) -> float:
        return sum(s["duration"] for s in self.spans
                   if s["name"] == name and (trace is None or s["trace"] == trace))

    def durations(self, name: str) -> list[float]:
        return [s["duration"] for s in self.spans if s["name"] == name]

    def coverage(self) -> float:
        """Share of the root path spans' time that their path children cover."""
        roots = {s["id"]: s for s in self.spans
                 if s["kind"] == "path" and s["name"] in (RECORDING, ANALYZE_RUN)}
        total = sum(s["duration"] for s in roots.values())
        covered = sum(roots[s["id"]]["duration"] - roots[s["id"]]["self"] for s in roots.values())
        return covered / total if total > 0 else 0.0


# ---------------------------------------------------------------------------
# extract
# ---------------------------------------------------------------------------

def _nan_vector(names: tuple[str, ...]) -> FeatureVector:
    return FeatureVector(names, np.full(len(names), np.nan))


def _load_resources(cfg, tr: Tracer) -> TextResources:
    """The calls of pipeline.load_resources."""
    with tr.span("pipeline.load_resources", trace="extract"):
        lexicon = load_word_list(cfg.lexicon_path) if cfg.lexicon_path else None
        suffixes = load_suffix_list(cfg.suffix_path) if cfg.suffix_path else DEFAULT_SUFFIXES
        valence = load_valence_csv(cfg.valence_path) if cfg.valence_path else None
        embeddings = None
        if cfg.embeddings_path:
            with tr.span("coherence.load_embeddings"):
                embeddings = load_embeddings(cfg.embeddings_path)
        return TextResources(lexicon, suffixes, valence, embeddings)


def _extract_features(item, cfg, res: TextResources, tr: Tracer) -> FeatureVector:
    """The calls of pipeline.extract_features, one span each."""
    acfg = AcousticConfig(frame_seconds=cfg.frame_seconds,
                          hop_seconds=cfg.hop_seconds, window=cfg.window)
    parts: list[FeatureVector] = []
    with tr.span("audio_io.load_wav"):
        buf = load_wav(item.wav_path)
    tr.count("audio_io.bytes_read", Path(item.wav_path).stat().st_size)
    acoustic: list[FeatureVector] = []
    if cfg.gemaps_core:
        with tr.span("functionals.gemaps_core"):
            acoustic.append(gemaps_core(buf, acfg))
    if cfg.spectral:
        with tr.span("functionals.spectral_set"):
            acoustic.append(spectral_set(buf, acfg))
    if cfg.lld_functionals:
        bank = FunctionalBank(cfg.lld_functionals)
        with tr.span("functionals.lld_series"):
            have = {s.name: s for s in lld_series(buf, acfg)}
        lld = []
        for name in LLD_SERIES_NAMES:
            if name in have:
                with tr.span("functionals.apply_bank"):
                    vec = apply_bank(have[name], bank)
                lld.append(FeatureVector(tuple("lld_" + n for n in vec.names), vec.values))
            else:
                lld.append(_nan_vector(tuple(f"lld_{name}_{s}" for s in cfg.lld_functionals)))
        acoustic.append(concat_vectors(lld))
    for vec in acoustic:
        tr.count("functionals.nan_features", int(np.isnan(vec.values).sum()))
    parts.extend(acoustic)

    transcript = None
    if item.transcript_path is not None:
        with tr.span("textfeat.load_transcript"):
            path = item.transcript_path
            transcript = (load_conllu(path) if path.suffix == ".conllu"
                          else tokenize(path.read_text(encoding="utf-8")))
        tr.count("textfeat.tokens", transcript.n_tokens)
    if cfg.complexity:
        if transcript is None:
            parts.append(_nan_vector(COMPLEXITY_FEATURE_NAMES))
        else:
            with tr.span("textfeat.complexity"):
                parts.append(complexity_feature_vector(
                    complexity(transcript, res.lexicon, res.suffixes)))
    if cfg.syntax:
        if transcript is None:
            parts.append(_nan_vector(SYNTAX_FEATURE_NAMES))
        else:
            with tr.span("textfeat.syntax_counts"):
                parts.append(syntax_feature_vector(syntax_counts(transcript)))
    if cfg.sentiment:
        if transcript is None:
            parts.append(_nan_vector(SENTIMENT_FEATURE_NAMES))
        else:
            with tr.span("textfeat.sentiment"):
                parts.append(FeatureVector(SENTIMENT_FEATURE_NAMES,
                                           np.array([sentiment(transcript, res.valence)])))
    if cfg.coherence:
        if transcript is None:
            parts.append(_nan_vector(COHERENCE_FEATURE_NAMES))
        else:
            with tr.span("coherence.coherence_features"):
                parts.append(coherence_feature_vector(
                    coherence_features(transcript, res.embeddings)))
            tr.count("coherence.sentences", len(transcript.sentences))
            tr.count("coherence.defined_phrases", sum(
                phrase_vector(s, res.embeddings) is not None for s in transcript.sentences))
    return concat_vectors(parts, item.source_id)


def _acoustic_probes(item, cfg, tr: Tracer) -> None:
    """Standalone kernel calls on one recording, under their own root."""
    acfg = AcousticConfig(frame_seconds=cfg.frame_seconds,
                          hop_seconds=cfg.hop_seconds, window=cfg.window)
    with tr.span("probe", trace=item.source_id, kind="probe"):
        buf = load_wav(item.wav_path)
        with tr.span("audio_io.frame_signal", kind="probe"):
            frames = analysis_frames(buf, acfg)
        with tr.span("acoustic.spectra", kind="probe"):
            specs = spectra(frames, acfg.n_fft)
        with tr.span("acoustic.mfcc", kind="probe"):
            for s in specs:
                mfcc(s, acfg.n_mels, 5)
        args = (acfg.f_min_hz, acfg.f_max_hz, acfg.hop_seconds, acfg.yin_threshold)
        with tr.span("acoustic.f0_track", kind="probe"):
            f0 = f0_track(buf, *args)
        with tr.span("acoustic.hnr_series", kind="probe"):
            hnr_series(buf, f0)
        with tr.span("acoustic.pick_cycle_peaks", kind="probe"):
            times, _ = pick_cycle_peaks(buf.samples, buf.sample_rate_hz, f0)
        # allocation tracing slows the call, so it gets a second, untimed run
        tracemalloc.start()
        try:
            f0_track(buf, *args)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    tr.counts["acoustic.f0_track_peak_alloc_mb"] = max(
        tr.counts.get("acoustic.f0_track_peak_alloc_mb", 0.0), peak / 2**20)
    tr.count("acoustic.frames", frames.n_frames)
    tr.count("acoustic.voiced_frames", int(np.count_nonzero(~np.isnan(f0.values))))
    tr.count("acoustic.cycles", max(0, times.size - 1))


def traced_extract(audio_dir, out_csv: Path, cfg, transcript_dir, tr: Tracer) -> str:
    """Serial replay of run_extract; returns the CSV text it wrote."""
    validate_config(cfg)
    with tr.span("pipeline.discover_inputs", trace="extract"):
        inputs = discover_inputs(audio_dir, transcript_dir)
    res = _load_resources(cfg, tr)
    names = feature_names_for(cfg)
    rows: dict[str, FeatureVector] = {}
    for item in inputs:
        with tr.span(RECORDING, trace=item.source_id):
            rows[item.source_id] = _extract_features(item, cfg, res, tr)
    with tr.span("pipeline.csv_write", trace="extract"):
        ordered = sorted(rows)
        matrix = (np.stack([rows[sid].values for sid in ordered])
                  if ordered else np.empty((0, len(names))))
        text = table_to_csv_text(FeatureTable(names, matrix, tuple(ordered)))
        out_csv.write_text(text, encoding="utf-8")
    for item in inputs:
        _acoustic_probes(item, cfg, tr)
    return text


# ---------------------------------------------------------------------------
# analyze
# ---------------------------------------------------------------------------

def _importance_topk(tbl: FeatureTable, k: int) -> SelectionResult:
    full = importance_select(tbl, threshold=0.0)
    order = sorted(full.ranking, key=full.ranking.get)
    return SelectionResult(tuple(order[:k]), full.ranking, full.scores)


SELECTORS = {
    "anova_f": anova_f_select,
    "rfe": rfe_select,
    "mrmr": mrmr_rank,
    "importance": _importance_topk,
}


def traced_analyze(csv_path, out_dir: Path, cfg, run: str, tr: Tracer) -> dict[str, str]:
    """Replay of run_analyze; returns the ranking/kept/curve artifacts it wrote."""
    spec = cfg.analyze
    out_dir.mkdir(parents=True, exist_ok=True)
    with tr.span(ANALYZE_RUN, trace=run):
        validate_config(cfg)
        with tr.span("mlpipe.table.read_table_csv"):
            tbl = read_table_csv(csv_path)
        loaded = tbl
        if spec.low_variance:
            with tr.span("mlpipe.transform.low_variance_filter"):
                kept = low_variance_filter(tbl, spec.low_variance_threshold).kept_columns
            tbl = tbl.select_columns(kept)
        if spec.high_correlation and tbl.n_cols >= 2:
            with tr.span("mlpipe.transform.high_correlation_filter"):
                kept = high_correlation_filter(tbl, spec.high_correlation_threshold).kept_columns
            tbl = tbl.select_columns(kept)
        tr.counts.setdefault("mlpipe.transform.columns_kept", tbl.n_cols)
        if spec.transform == "ica":
            k = min(spec.transform_k, tbl.n_cols, tbl.n_rows)
            with tr.span("mlpipe.transform.ica"):
                ires = ica(tbl, k)
            tr.count("mlpipe.transform.ica_iterations", ires.n_iter)
            tbl = ires.transformed
        elif spec.transform is not None:
            raise ValueError(f"replay covers no transform {spec.transform!r}")
        estimator = spec.estimator
        if estimator == "auto":
            estimator = "logistic" if is_classification(tbl) else "ols"
        selector = SELECTORS[spec.selector]
        calls = [0]

        def counted(t: FeatureTable, k: int) -> SelectionResult:
            calls[0] += 1
            return selector(t, k)

        k_values = sorted({min(k, tbl.n_cols) for k in spec.k_values})
        with tr.span("mlpipe.select.final"):
            final = selector(tbl, max(k_values))
        with tr.span("mlpipe.select.cv_score_curve"):
            curve = cv_score_curve(tbl, counted, estimator, k_values, spec.folds, cfg.seed)
        tr.count(f"selector_calls.{run}", calls[0])

        ranked = sorted(final.ranking, key=final.ranking.get)
        artifacts = {
            "ranking.csv": "\n".join(
                ["feature,rank,score"]
                + [f"{n},{final.ranking[n]},{final.scores.get(n, float('nan'))!r}"
                   for n in ranked]) + "\n",
            "kept_features.txt": "\n".join(final.kept_columns) + "\n",
            "curve.csv": "\n".join(
                ["k,mean_score,std_score"]
                + [f"{p.k},{p.mean_score!r},{p.std_score!r}" for p in curve]) + "\n",
        }
        for name, text in artifacts.items():
            (out_dir / name).write_text(text, encoding="utf-8")
        with tr.span("svgplot.render"):
            svgs = {"curve.svg": curve_svg(curve, "accuracy" if estimator == "logistic" else "R^2")}
            if len(final.kept_columns) >= 2:
                top_x, top_y = final.kept_columns[0], final.kept_columns[1]
                svgs["scatter.svg"] = scatter_svg(scatter_export(tbl, top_x, top_y))
                svgs["heatmap.svg"] = heatmap_svg(
                    corr_heatmap_export(tbl.select_columns(final.kept_columns)))
            for name, text in svgs.items():
                (out_dir / name).write_text(text, encoding="utf-8")

    with tr.span("probe", trace=run, kind="probe"):
        with tr.span("mlpipe.table.impute_and_standardize", kind="probe"):
            impute_and_standardize(loaded)
        z, _ = impute_and_standardize(tbl.select_columns(final.kept_columns))
        with tr.span("mlpipe.model.fit", kind="probe"):
            if estimator == "logistic":
                fit_logistic(z.rows, np.round(tbl.target).astype(np.int64))
            else:
                fit_ols(z.rows, tbl.target)
    return artifacts
