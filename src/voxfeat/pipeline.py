"""Batch orchestration: recording discovery, parallel feature extraction,
atomic CSV output, and the analyze stage chain over a feature table."""

from __future__ import annotations

import json
import logging
import os
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .acoustic import AcousticConfig, Analysis
from .audio_io import load_wav
from .coherence import EmbeddingTable, load_embeddings
from .config import (
    AnalyzeSpec,
    PipelineConfig,
    config_hash,
    feature_families,
    feature_names_for,
    validate_config,
)
from .errors import NoInputs, SchemaError, UnwritableOutput, VoxfeatError
from .functionals import FeatureVector, concat_vectors
from .mlpipe import (
    FeatureTable,
    SelectionResult,
    anova_f_select,
    corr_heatmap_export,
    cv_score_curve,
    high_correlation_filter,
    ica,
    importance_select,
    is_classification,
    low_variance_filter,
    mrmr_rank,
    pca,
    ranked_prefixes,
    read_table_csv,
    rfe_path,
    scatter_export,
    table_to_csv_text,
)
from .svgplot import curve_svg, heatmap_svg, scatter_svg
from .textfeat import (
    DEFAULT_SUFFIXES,
    Transcript,
    load_conllu,
    load_suffix_list,
    load_valence_csv,
    load_word_list,
    tokenize,
)

log = logging.getLogger("voxfeat")

TRANSCRIPT_SUFFIXES = (".conllu", ".txt")  # in order of preference; any case


@dataclass(frozen=True)
class InputResult:
    source_id: str
    ok: bool
    message: str = ""


@dataclass(frozen=True)
class RunManifest:
    results: tuple[InputResult, ...]
    feature_count: int
    row_count: int
    wall_seconds: float
    config_hash: str

    @property
    def all_ok(self) -> bool:
        return all(r.ok for r in self.results)

    def to_json(self) -> str:
        data = {
            "config_hash": self.config_hash,
            "feature_count": self.feature_count,
            "row_count": self.row_count,
            "wall_seconds": self.wall_seconds,
            "inputs": [
                {"source_id": r.source_id,
                 "status": "ok" if r.ok else "error",
                 "message": r.message}
                for r in self.results
            ],
        }
        return json.dumps(data, indent=2, sort_keys=True) + "\n"


@dataclass(frozen=True)
class RecordingInput:
    source_id: str
    wav_path: Path
    transcript_path: Path | None


@dataclass(frozen=True)
class TextResources:
    lexicon: frozenset[str] | None = None
    suffixes: tuple[str, ...] = DEFAULT_SUFFIXES
    valence: dict[str, float] | None = None
    embeddings: EmbeddingTable | None = None


def load_resources(cfg: PipelineConfig) -> TextResources:
    return TextResources(
        lexicon=load_word_list(cfg.lexicon_path) if cfg.lexicon_path else None,
        suffixes=load_suffix_list(cfg.suffix_path) if cfg.suffix_path else DEFAULT_SUFFIXES,
        valence=load_valence_csv(cfg.valence_path) if cfg.valence_path else None,
        embeddings=load_embeddings(cfg.embeddings_path) if cfg.embeddings_path else None,
    )


def discover_inputs(audio_dir: str | Path,
                    transcript_dir: str | Path | None = None) -> list[RecordingInput]:
    """WAV files sorted by name; transcripts matched by shared basename,
    .conllu preferred over .txt. Suffixes match in any case. Two WAVs whose
    stems are equal, such as a.wav and a.WAV, would share one row, and two
    transcripts of one kind for a recording, such as a.txt and a.TXT, would
    both claim it: either raises SchemaError."""
    audio_dir = Path(audio_dir)
    tdir = Path(transcript_dir) if transcript_dir is not None else audio_dir
    wavs = sorted(p for p in audio_dir.glob("*.[wW][aA][vV]") if p.is_file())
    if not wavs:
        raise NoInputs(f"no .wav files in {audio_dir}")
    transcripts: dict[tuple[str, str], list[Path]] = {}
    for path in sorted(tdir.glob("*")):
        if path.suffix.lower() in TRANSCRIPT_SUFFIXES and path.is_file():
            transcripts.setdefault((path.stem, path.suffix.lower()), []).append(path)
    out: dict[str, RecordingInput] = {}
    for wav in wavs:
        found = [transcripts.get((wav.stem, ext), []) for ext in TRANSCRIPT_SUFFIXES]
        claims = [[out[wav.stem].wav_path, wav]] if wav.stem in out else []
        for paths in claims + found:
            if len(paths) > 1:
                raise SchemaError(f"{paths[0].name} and {paths[1].name} "
                                  f"share the source id {wav.stem!r}")
        transcript = next((paths[0] for paths in found if paths), None)
        out[wav.stem] = RecordingInput(wav.stem, wav, transcript)
    return list(out.values())


def _load_transcript(path: Path) -> Transcript:
    if path.suffix.lower() == ".conllu":
        return load_conllu(path)
    return tokenize(path.read_text(encoding="utf-8"))


def extract_features(item: RecordingInput, cfg: PipelineConfig,
                     res: TextResources) -> FeatureVector:
    """One feature row; text features are NaN when the transcript is absent."""
    acfg = AcousticConfig(frame_seconds=cfg.frame_seconds,
                          hop_seconds=cfg.hop_seconds, window=cfg.window)
    buf = load_wav(item.wav_path)
    transcript: Transcript | None = None
    if item.transcript_path is not None:
        transcript = _load_transcript(item.transcript_path)
    else:
        log.warning("%s: no transcript found, text features set to NaN",
                    item.source_id)

    analysis = Analysis(buf, acfg)  # shared by every acoustic family
    parts: list[FeatureVector] = []
    for on, family in feature_families(cfg):
        if not on:
            continue
        if not family.is_text:
            parts.append(family.compute(analysis))
        elif transcript is None:
            parts.append(FeatureVector(family.names, np.full(len(family.names), np.nan)))
        else:
            parts.append(family.compute(transcript, res))
    return concat_vectors(parts, item.source_id)


def _atomic_write(path: Path, text: str) -> None:
    # created with 0o666 like open() does, so the umask sets the final mode
    # (mkstemp's 0o600 would stick to the renamed file)
    tmp = path.parent / f".{path.name}.{os.urandom(8).hex()}.tmp"
    try:
        fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                handle.write(text)
            os.replace(tmp, path)
        except BaseException:
            os.unlink(tmp)
            raise
    except OSError as exc:
        raise UnwritableOutput(f"cannot write {path}: {exc}") from None


def manifest_path_for(out_csv: str | Path) -> Path:
    return Path(out_csv).with_suffix(".manifest.json")


def run_extract(audio_dir: str | Path, out_csv: str | Path, cfg: PipelineConfig,
                transcript_dir: str | Path | None = None,
                jobs: int | None = None) -> RunManifest:
    """Extract features for every recording in audio_dir into out_csv.

    Rows appear sorted by source_id regardless of completion order; a failed
    input is recorded in the manifest and produces no row. The CSV and the
    manifest are written atomically (temp file + rename).
    """
    started = time.monotonic()
    validate_config(cfg)
    inputs = discover_inputs(audio_dir, transcript_dir)
    res = load_resources(cfg)
    names = feature_names_for(cfg)
    workers = jobs if jobs and jobs > 0 else (os.cpu_count() or 1)

    def work(item: RecordingInput):
        return extract_features(item, cfg, res)

    rows: dict[str, FeatureVector] = {}
    failures: dict[str, str] = {}
    with ThreadPoolExecutor(max_workers=workers) as pool:
        for item, outcome in zip(inputs, pool.map(
                lambda it: _guard(work, it), inputs)):
            if isinstance(outcome, FeatureVector):
                rows[item.source_id] = outcome
            else:
                failures[item.source_id] = outcome

    ordered = sorted(rows)
    matrix = (np.stack([rows[sid].values for sid in ordered])
              if ordered else np.empty((0, len(names))))
    table = FeatureTable(names, matrix, tuple(ordered))
    out_csv = Path(out_csv)
    _atomic_write(out_csv, table_to_csv_text(table))

    results = tuple(
        InputResult(item.source_id, item.source_id not in failures,
                    failures.get(item.source_id, ""))
        for item in inputs
    )
    manifest = RunManifest(
        results=results,
        feature_count=len(names),
        row_count=len(ordered),
        wall_seconds=round(time.monotonic() - started, 3),
        config_hash=config_hash(cfg),
    )
    _atomic_write(manifest_path_for(out_csv), manifest.to_json())
    return manifest


def _guard(fn, item):
    """Run one extraction; map any failure to its message for the manifest."""
    try:
        return fn(item)
    except Exception as exc:  # noqa: BLE001 - per-file isolation is the contract
        return f"{type(exc).__name__}: {exc}"


# ---------------------------------------------------------------------------
# analyze
# ---------------------------------------------------------------------------

def _importance_topk(tbl: FeatureTable, k: int) -> SelectionResult:
    """Adapter: rank every column by model importance, keep the top k."""
    full = importance_select(tbl, threshold=0.0)
    order = sorted(full.ranking, key=full.ranking.get)
    kept = tuple(order[:k])
    return SelectionResult(kept, full.ranking, full.scores)


# selector -> its SelectKs: anova_f, mrmr and importance each rank once and
# every k keeps a prefix of the ranking; rfe's top-k sets are not nested, so
# it walks one elimination path and branches off to each k
_SELECTORS = {
    "anova_f": ranked_prefixes(anova_f_select),
    "rfe": rfe_path,
    "mrmr": ranked_prefixes(mrmr_rank),
    "importance": ranked_prefixes(_importance_topk),
}


def _stage(name: str, fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs)
    except VoxfeatError as exc:
        raise type(exc)(f"stage '{name}': {exc}") from None


def run_analyze(features_csv: str | Path, out_dir: str | Path,
                cfg: PipelineConfig) -> dict:
    """filter -> transform -> select -> cross-validate, with artifacts.

    Writes report.json, kept_features.txt, ranking.csv, curve.csv and the
    scatter/heatmap/curve SVG plots into out_dir, each atomically (temp file
    + rename), and returns the report.
    """
    validate_config(cfg)
    spec: AnalyzeSpec = cfg.analyze
    out_dir = Path(out_dir)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise UnwritableOutput(f"cannot create {out_dir}: {exc}") from None

    tbl = _stage("load", read_table_csv, features_csv)
    report: dict = {
        "input": str(features_csv),
        "config_hash": config_hash(cfg),
        "seed": cfg.seed,
        "stages": [],
    }

    if spec.low_variance:
        res = _stage("low_variance", low_variance_filter, tbl,
                     spec.low_variance_threshold)
        report["stages"].append({
            "stage": "low_variance",
            "threshold": spec.low_variance_threshold,
            "dropped": sorted(set(tbl.column_names) - set(res.kept_columns)),
        })
        if not res.kept_columns:
            raise SchemaError("stage 'low_variance': every column was dropped")
        tbl = tbl.select_columns(res.kept_columns)

    if spec.high_correlation and tbl.n_cols >= 2:
        res = _stage("high_correlation", high_correlation_filter, tbl,
                     spec.high_correlation_threshold)
        report["stages"].append({
            "stage": "high_correlation",
            "threshold": spec.high_correlation_threshold,
            "dropped": sorted(set(tbl.column_names) - set(res.kept_columns)),
        })
        tbl = tbl.select_columns(res.kept_columns)

    if spec.transform is not None:
        k = min(spec.transform_k, tbl.n_cols, tbl.n_rows)
        if spec.transform == "pca":
            pres = _stage("pca", pca, tbl, k)
            report["stages"].append({
                "stage": "pca", "k": k,
                "explained_variance_ratio":
                    [float(v) for v in pres.explained_variance_ratio],
            })
            tbl = pres.transformed
        else:
            ires = _stage("ica", ica, tbl, k)
            report["stages"].append({
                "stage": "ica", "k": k,
                "converged": ires.converged, "iterations": ires.n_iter,
            })
            tbl = ires.transformed

    if tbl.target is None:
        raise SchemaError(
            "stage 'selection': the feature CSV has no target column")
    estimator = spec.estimator
    if estimator == "auto":
        estimator = "logistic" if is_classification(tbl) else "ols"
    select_ks = _SELECTORS[spec.selector]

    k_values = sorted({min(k, tbl.n_cols) for k in spec.k_values})
    final_k = max(k_values)
    final = _stage("selection", select_ks, tbl, [final_k])[final_k]
    curve = _stage("cv_curve", cv_score_curve, tbl, None, estimator,
                   k_values, spec.folds, cfg.seed, select_ks)
    report["stages"].append({
        "stage": "selection",
        "selector": spec.selector,
        "estimator": estimator,
        "kept": list(final.kept_columns),
        "curve": [{"k": p.k, "mean_score": p.mean_score,
                   "std_score": p.std_score} for p in curve],
    })

    ranked = sorted(final.ranking, key=final.ranking.get)
    lines = ["feature,rank,score"]
    lines += [f"{name},{final.ranking[name]},{final.scores.get(name, float('nan'))!r}"
              for name in ranked]
    _atomic_write(out_dir / "ranking.csv", "\n".join(lines) + "\n")
    _atomic_write(out_dir / "kept_features.txt", "\n".join(final.kept_columns) + "\n")
    curve_lines = ["k,mean_score,std_score"]
    curve_lines += [f"{p.k},{p.mean_score!r},{p.std_score!r}" for p in curve]
    _atomic_write(out_dir / "curve.csv", "\n".join(curve_lines) + "\n")

    _atomic_write(out_dir / "curve.svg",
                  curve_svg(curve, "accuracy" if estimator == "logistic" else "R^2"))
    plots = ["curve.svg"]
    if len(final.kept_columns) >= 2:
        top_x, top_y = final.kept_columns[0], final.kept_columns[1]
        _atomic_write(out_dir / "scatter.svg",
                      scatter_svg(scatter_export(tbl, top_x, top_y)))
        _atomic_write(out_dir / "heatmap.svg", heatmap_svg(
            corr_heatmap_export(tbl.select_columns(final.kept_columns))))
        plots += ["scatter.svg", "heatmap.svg"]
    else:
        report["stages"].append({
            "stage": "plots",
            "note": "scatter and heatmap need at least two kept features",
        })
    report["outputs"] = sorted(
        ["ranking.csv", "kept_features.txt", "curve.csv", "report.json"] + plots)

    _atomic_write(out_dir / "report.json",
                  json.dumps(report, indent=2, sort_keys=True) + "\n")
    return report
