"""Batch extraction: recording discovery, per-file feature extraction in
this process or in forked workers, and the atomic CSV and manifest output.

The analyze stage chain lives in voxfeat.analyze. `run_analyze` is still
importable from here; that loads voxfeat.analyze on first use, so an extract
run never loads the modeling and plotting modules.
"""

from __future__ import annotations

import json
import logging
import os
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .acoustic import AcousticConfig, Analysis
from .audio_io import load_wav
from .coherence import EmbeddingTable, load_embeddings
from .config import (
    PipelineConfig,
    config_hash,
    feature_families,
    feature_names_for,
    validate_config,
)
from .errors import NoInputs, SchemaError, WorkerDied
from .functionals import FeatureVector, concat_vectors
from .textfeat import (
    DEFAULT_SUFFIXES,
    Transcript,
    load_conllu,
    load_suffix_list,
    load_valence_csv,
    load_word_list,
    tokenize,
)
from .textio import read_text, write_text

log = logging.getLogger("voxfeat")

TRANSCRIPT_SUFFIXES = (".conllu", ".txt")  # in order of preference; any case


def __getattr__(name: str):
    if name == "run_analyze":  # PEP 562: resolved on first access
        from .analyze import run_analyze
        return run_analyze
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


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
    """The resources of the text families cfg turns on: the lexicon and
    suffix list for complexity, valence for sentiment, embeddings for
    coherence. A resource that no family turned on reads is not parsed."""
    return TextResources(
        lexicon=load_word_list(cfg.lexicon_path) if cfg.complexity and cfg.lexicon_path else None,
        suffixes=(load_suffix_list(cfg.suffix_path) if cfg.complexity and cfg.suffix_path
                  else DEFAULT_SUFFIXES),
        valence=load_valence_csv(cfg.valence_path) if cfg.sentiment and cfg.valence_path else None,
        embeddings=(load_embeddings(cfg.embeddings_path) if cfg.coherence and cfg.embeddings_path
                    else None),
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
    return tokenize(read_text(path))


def extract_features(item: RecordingInput, cfg: PipelineConfig,
                     res: TextResources) -> FeatureVector:
    """One feature row; text features are NaN when the transcript is absent.
    The transcript is parsed only when a text family is on."""
    acfg = AcousticConfig(frame_seconds=cfg.frame_seconds,
                          hop_seconds=cfg.hop_seconds, window=cfg.window)
    buf = load_wav(item.wav_path)
    families = [family for on, family in feature_families(cfg) if on]
    transcript: Transcript | None = None
    if item.transcript_path is not None and any(family.is_text for family in families):
        transcript = _load_transcript(item.transcript_path)

    analysis = Analysis(buf, acfg)  # shared by every acoustic family
    parts: list[FeatureVector] = []
    for family in families:
        if not family.is_text:
            parts.append(family.vector(family.compute(analysis)))
        elif transcript is None:
            parts.append(FeatureVector(family.names, np.full(len(family.names), np.nan)))
        else:
            parts.append(family.vector(family.compute(transcript, res)))
    return concat_vectors(parts, item.source_id)


def manifest_path_for(out_csv: str | Path) -> Path:
    return Path(out_csv).with_suffix(".manifest.json")


def worker_count(jobs: int | None, n_inputs: int) -> int:
    """Extract workers for n_inputs recordings: jobs when positive, else the
    CPUs this process may run on; never more than there are inputs."""
    if jobs is None or jobs <= 0:
        if hasattr(os, "sched_getaffinity"):
            jobs = len(os.sched_getaffinity(0))
        else:
            jobs = os.cpu_count() or 1
    return max(1, min(jobs, n_inputs))


def run_extract(audio_dir: str | Path, out_csv: str | Path, cfg: PipelineConfig,
                transcript_dir: str | Path | None = None,
                jobs: int | None = None) -> RunManifest:
    """Extract features for every recording in audio_dir into out_csv.

    With one worker, recordings are extracted in the calling thread; with
    more, in that many forked worker processes (a fork copies only the calling
    thread, so a caller that runs other threads should pass jobs=1). Rows
    appear sorted by source_id regardless of completion order; a failed
    input is recorded in the manifest and produces no row. The CSV and the
    manifest are written atomically (temp file + rename).
    """
    started = time.monotonic()
    validate_config(cfg)
    inputs = discover_inputs(audio_dir, transcript_dir)
    res = load_resources(cfg)
    names = feature_names_for(cfg)
    workers = worker_count(jobs, len(inputs))
    text_on = any(on and family.is_text for on, family in feature_families(cfg))
    for item in sorted(inputs, key=lambda it: it.source_id):
        if text_on and item.transcript_path is None:
            log.warning("%s: no transcript found, text features set to NaN",
                        item.source_id)

    if workers > 1:
        outcomes = _extract_forked(inputs, cfg, res, workers)
    else:
        outcomes = [_extract_row(item, cfg, res) for item in inputs]
    rows: dict[str, np.ndarray] = {}
    failures: dict[str, str] = {}
    for item, outcome in zip(inputs, outcomes):
        if isinstance(outcome, str):
            failures[item.source_id] = outcome
        else:
            rows[item.source_id] = outcome

    # imported here: the CSV writer is the only part of the table module an
    # extract runs, so importing this module compiles none of mlpipe
    from .mlpipe.table import FeatureTable, table_to_csv_text

    ordered = sorted(rows)
    matrix = (np.stack([rows[sid] for sid in ordered])
              if ordered else np.empty((0, len(names))))
    table = FeatureTable(names, matrix, tuple(ordered))
    out_csv = Path(out_csv)
    write_text(out_csv, table_to_csv_text(table))

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
    write_text(manifest_path_for(out_csv), manifest.to_json())
    return manifest


def _failure(exc: Exception) -> str:
    """An input's failure as the manifest records it."""
    return f"{type(exc).__name__}: {exc}"


def _extract_row(item: RecordingInput, cfg: PipelineConfig,
                 res: TextResources) -> np.ndarray | str:
    """One input's row values, or its failure message for the manifest."""
    try:
        return extract_features(item, cfg, res).values
    except Exception as exc:  # noqa: BLE001 - per-file isolation is the contract
        return _failure(exc)


# (cfg, res) of a forked extract worker; set by _init_worker in the worker
# process only, so both arrive through fork instead of being pickled per task
_worker_args: tuple[PipelineConfig, TextResources] | None = None


def _init_worker(cfg: PipelineConfig, res: TextResources) -> None:
    global _worker_args
    _worker_args = (cfg, res)


def _extract_in_worker(item: RecordingInput) -> np.ndarray | str:
    return _extract_row(item, *_worker_args)


def _extract_forked(inputs: list[RecordingInput], cfg: PipelineConfig,
                    res: TextResources, workers: int) -> list[np.ndarray | str]:
    """Each input's _extract_row outcome, computed in forked worker processes.

    A worker that dies breaks its pool and loses every input still pending
    in it. Each lost input is retried alone in a fresh one-worker pool, and
    one that ends that worker too fails as WorkerDied.
    """
    # imported here: a run with one worker never loads multiprocessing
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool

    # numpy loads these on first use (np.unique touches numpy.ma). Loaded
    # before the fork, every worker inherits them; otherwise each pool's
    # workers import them again on every call.
    import numpy.fft  # noqa: F401
    import numpy.ma  # noqa: F401

    context = multiprocessing.get_context("fork")

    def outcomes_in_pool(items: list[RecordingInput], size: int) -> list:
        """Outcomes in input order, None where the pool broke first; the
        with block joins every worker before this returns."""
        futures = []
        with ProcessPoolExecutor(size, mp_context=context, initializer=_init_worker,
                                 initargs=(cfg, res)) as pool:
            try:
                for item in items:
                    futures.append(pool.submit(_extract_in_worker, item))
            except BrokenProcessPool:
                pass
            outcomes: list = [None] * len(items)
            for i, future in enumerate(futures):
                try:
                    outcomes[i] = future.result()
                except BrokenProcessPool:
                    pass
        return outcomes

    outcomes = outcomes_in_pool(inputs, workers)
    for i, item in enumerate(inputs):
        if outcomes[i] is None:
            outcomes[i] = outcomes_in_pool([item], 1)[0]
        if outcomes[i] is None:
            outcomes[i] = _failure(WorkerDied(
                "the worker process ended while extracting this input"))
    return outcomes
