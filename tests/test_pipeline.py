"""Batch extraction and the analyze stage chain, end to end on tiny corpora."""

from __future__ import annotations

import dataclasses
import itertools
import json
import logging
import multiprocessing
import os
import stat
import tracemalloc
import warnings
from collections import Counter

import numpy as np
import pytest

from voxfeat.audio_io import AudioBuffer, write_wav
from voxfeat.config import (
    AnalyzeSpec,
    PipelineConfig,
    config_hash,
    feature_names_for,
)
from voxfeat.errors import (
    NoInputs,
    NotClassification,
    SchemaError,
    UnwritableOutput,
    VoxfeatError,
)
from voxfeat import analyze, pipeline
from voxfeat.mlpipe.table import FeatureTable, table_to_csv_text
from voxfeat.pipeline import (
    _load_transcript,
    discover_inputs,
    extract_features,
    load_resources,
    manifest_path_for,
    run_analyze,
    run_extract,
    worker_count,
)

SR = 16000

CONLLU = """\
# sent_id = 1
1\tthe\tthe\tDET\tDT\t_\t2\tdet\t_\t_
2\tdog\tdog\tNOUN\tNN\t_\t3\tnsubj\t_\t_
3\tbarked\tbark\tVERB\tVBD\t_\t0\troot\t_\t_

1\tit\tit\tPRON\tPRP\t_\t2\tnsubj\t_\t_
2\tran\trun\tVERB\tVBD\t_\t0\troot\t_\t_
3\thome\thome\tNOUN\tNN\t_\t2\tobl\t_\t_
"""


def make_wav(path, freq=220.0, seconds=1.0, seed=0, noise=0.01):
    rng = np.random.default_rng(seed)
    t = np.arange(int(SR * seconds)) / SR
    x = 0.4 * np.sin(2 * np.pi * freq * t) + noise * rng.standard_normal(t.size)
    write_wav(AudioBuffer(np.clip(x, -1.0, 1.0), SR), path)


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    """Three recordings: a has a .txt transcript, b none, c a .conllu."""
    root = tmp_path_factory.mktemp("corpus")
    make_wav(root / "rec_a.wav", 220.0, seed=1)
    make_wav(root / "rec_b.wav", 330.0, seed=2)
    make_wav(root / "rec_c.wav", 180.0, seed=3)
    (root / "rec_a.txt").write_text(
        "the quick brown fox jumps over the lazy dog. "
        "she walked slowly to the market and bought three apples.\n")
    (root / "rec_c.conllu").write_text(CONLLU)
    return root


class TestDiscover:
    def test_sorted_by_stem_with_transcripts(self, corpus):
        items = discover_inputs(corpus)
        assert [i.source_id for i in items] == ["rec_a", "rec_b", "rec_c"]
        assert items[0].transcript_path.suffix == ".txt"
        assert items[1].transcript_path is None
        assert items[2].transcript_path.suffix == ".conllu"

    def test_conllu_preferred_over_txt(self, tmp_path):
        make_wav(tmp_path / "x.wav")
        (tmp_path / "x.txt").write_text("plain words\n")
        (tmp_path / "x.conllu").write_text(CONLLU)
        items = discover_inputs(tmp_path)
        assert items[0].transcript_path.suffix == ".conllu"

    def test_separate_transcript_dir(self, tmp_path):
        (tmp_path / "audio").mkdir()
        (tmp_path / "text").mkdir()
        make_wav(tmp_path / "audio" / "x.wav")
        (tmp_path / "text" / "x.txt").write_text("hello there\n")
        items = discover_inputs(tmp_path / "audio", tmp_path / "text")
        assert items[0].transcript_path == tmp_path / "text" / "x.txt"

    def test_empty_dir_raises(self, tmp_path):
        with pytest.raises(NoInputs):
            discover_inputs(tmp_path)

    def test_upper_case_suffix_found(self, tmp_path):
        make_wav(tmp_path / "REC_00.WAV")
        (tmp_path / "REC_00.txt").write_text("hello there\n")
        items = discover_inputs(tmp_path)
        assert [i.source_id for i in items] == ["REC_00"]
        assert items[0].transcript_path == tmp_path / "REC_00.txt"

    def test_transcript_suffix_in_any_case(self, tmp_path):
        make_wav(tmp_path / "REC_00.WAV")
        (tmp_path / "REC_00.TXT").write_text("hello there\n")
        make_wav(tmp_path / "REC_01.wav")
        (tmp_path / "REC_01.Txt").write_text("plain words\n")
        (tmp_path / "REC_01.CONLLU").write_text(CONLLU)
        items = discover_inputs(tmp_path)
        assert [i.transcript_path.name for i in items] == ["REC_00.TXT", "REC_01.CONLLU"]
        # and an upper-case .CONLLU is read as CoNLL-U, with its tags
        assert _load_transcript(items[1].transcript_path).pos[0] == "DET"

    def test_transcripts_differing_in_suffix_case_raise(self, tmp_path):
        make_wav(tmp_path / "a.wav")
        (tmp_path / "a.TXT").write_text("hello there\n")
        (tmp_path / "a.txt").write_text("hello there\n")
        with pytest.raises(SchemaError, match=r"a\.TXT and a\.txt"):
            discover_inputs(tmp_path)

    def test_suffix_case_variants_sharing_a_stem_raise(self, tmp_path):
        for name in ("a.WAV", "a.b.wav", "a.wav"):
            make_wav(tmp_path / name)
        with pytest.raises(SchemaError, match=r"a\.WAV and a\.wav"):
            discover_inputs(tmp_path)


class TestExtractFeatures:
    def test_row_matches_configured_names(self, corpus):
        cfg = PipelineConfig()
        item = discover_inputs(corpus)[0]
        row = extract_features(item, cfg, load_resources(cfg))
        assert row.names == feature_names_for(cfg)
        assert row.source_id == "rec_a"

    def test_missing_transcript_gives_nan_text_features(self, corpus):
        cfg = PipelineConfig()
        item = discover_inputs(corpus)[1]
        row = extract_features(item, cfg, load_resources(cfg))
        d = row.as_dict()
        assert np.isnan(d["type_token_ratio"])
        assert np.isnan(d["pos_rate_NOUN"])
        assert np.isfinite(d["f0_semitone_mean"])

    def test_conllu_tags_feed_syntax_counts(self, corpus):
        cfg = PipelineConfig()
        item = discover_inputs(corpus)[2]
        row = extract_features(item, cfg, load_resources(cfg))
        d = row.as_dict()
        assert d["pos_count_NOUN"] == 2.0
        assert d["pos_count_VERB"] == 2.0
        assert d["dep_count_nsubj"] == 2.0

    def test_short_signal_nan_fills_flux_slots(self, tmp_path):
        # one analysis frame has no flux: both families see an all-NaN series
        make_wav(tmp_path / "tiny.wav", seconds=0.025)
        cfg = PipelineConfig(lld_functionals=("mean",))
        item = discover_inputs(tmp_path)[0]
        row = extract_features(item, cfg, load_resources(cfg))
        d = row.as_dict()
        assert np.isnan(d["lld_flux_mean"])
        assert np.isnan(d["flux_mean"]) and np.isnan(d["flux_stddev"])
        assert np.isfinite(d["lld_rms_mean"])
        assert row.names == feature_names_for(cfg)


class TestSharedAnalysis:
    """extract_features computes each acoustic intermediate once per
    recording and every acoustic family reads it."""

    CFG = PipelineConfig(complexity=False, syntax=False,
                         lld_functionals=("mean", "stddev", "min", "max", "median"))

    def test_each_intermediate_runs_once(self, tmp_path, monkeypatch):
        import voxfeat.acoustic as acoustic

        # 6 s is 598 frames: two descriptor blocks, three F0 blocks, and still
        # one descriptor pass and one filterbank
        make_wav(tmp_path / "long.wav", seconds=6.0)
        names = ("frame_descriptors", "mel_filterbank", "f0_track", "hnr_series",
                 "_cycle_peaks_by_region")
        calls = dict.fromkeys(names, 0)
        for name in names:
            def counted(*args, _fn=getattr(acoustic, name), _name=name, **kwargs):
                calls[_name] += 1
                return _fn(*args, **kwargs)
            monkeypatch.setattr(acoustic, name, counted)
        item = discover_inputs(tmp_path)[0]
        extract_features(item, self.CFG, load_resources(self.CFG))
        assert calls == dict.fromkeys(names, 1)

    def test_row_equals_standalone_families(self, corpus):
        from voxfeat.acoustic import AcousticConfig
        from voxfeat.audio_io import load_wav
        from voxfeat.functionals import (
            FunctionalBank, apply_bank, gemaps_core, lld_series, spectral_set)

        item = discover_inputs(corpus)[2]
        row = extract_features(item, self.CFG, load_resources(self.CFG))
        buf = load_wav(item.wav_path)
        acfg = AcousticConfig()
        bank = FunctionalBank(self.CFG.lld_functionals)
        standalone = np.concatenate(
            [gemaps_core(buf, acfg).values, spectral_set(buf, acfg).values]
            + [apply_bank(s, bank).values for s in lld_series(buf, acfg)])
        np.testing.assert_array_equal(row.values, standalone)


class TestMemoryBound:
    """From 30 s to 120 s, extract_features's traced peak grows by at most
    twice the samples' growth (the float64 buffer and its decode) plus the
    per-frame series' growth: no frame or spectrum array follows the
    recording's length."""

    def growth_and_bound(self, tmp_path, freq):
        from voxfeat.acoustic import AcousticConfig, frame_descriptors

        sr = 8000
        cfg = TestSharedAnalysis.CFG
        res = load_resources(cfg)
        peaks, frames = {}, {}
        for seconds in (30, 120):
            t = np.arange(seconds * sr) / sr
            write_wav(AudioBuffer(0.4 * np.sin(2 * np.pi * freq * t), sr),
                      tmp_path / f"tone{seconds}.wav")
            item = [i for i in discover_inputs(tmp_path) if i.source_id == f"tone{seconds}"][0]
            tracemalloc.start()
            try:
                extract_features(item, cfg, res)
                peaks[seconds] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            frames[seconds] = 1 + (t.size - 200) // 80
        short = frame_descriptors(AudioBuffer(np.ones(sr), sr), AcousticConfig())
        series_per_frame = 2 + sum(int(np.prod(v.shape[1:])) for v in short.values())  # + f0, hnr
        samples_growth = (120 - 30) * sr * 8
        series_growth = (frames[120] - frames[30]) * series_per_frame * 8
        return peaks[120] - peaks[30], 2 * samples_growth + series_growth

    def test_peak_grows_with_samples_and_series_only(self, tmp_path):
        # 1 kHz is above f_max: unvoiced, so no HNR frame and no cycle
        growth, bound = self.growth_and_bound(tmp_path, 1000.0)
        assert growth <= bound

    def test_voiced_peak_grows_with_samples_and_series_only(self, tmp_path):
        # 150 Hz is voiced throughout: HNR and the cycle marks run in the same bound
        growth, bound = self.growth_and_bound(tmp_path, 150.0)
        assert growth <= bound


class TestRunExtract:
    def test_two_transcripts_three_rows(self, corpus, tmp_path):
        out = tmp_path / "features.csv"
        manifest = run_extract(corpus, out, PipelineConfig())
        assert manifest.all_ok
        assert manifest.row_count == 3
        assert manifest.feature_count == 174
        lines = out.read_text().splitlines()
        assert len(lines) == 4
        assert [ln.split(",")[0] for ln in lines[1:]] == [
            "rec_a", "rec_b", "rec_c"]

    def test_no_gemaps_column_copies_another(self, tmp_path):
        # noisy gated voice: two harmonics, three bursts, white noise
        rng = np.random.default_rng(5)
        for i, f0 in enumerate((120.0, 165.0, 210.0)):
            t = np.arange(int(1.5 * SR)) / SR
            x = 0.3 * np.sin(2 * np.pi * f0 * t) + 0.1 * np.sin(4 * np.pi * f0 * t + 1.0)
            gate = (t % 0.5) < rng.uniform(0.25, 0.4)
            x = x * gate + 0.01 * rng.standard_normal(t.size)
            write_wav(AudioBuffer(x, SR), tmp_path / f"voice{i}.wav")
        cfg = PipelineConfig(spectral=False, complexity=False, syntax=False)
        out = tmp_path / "features.csv"
        assert run_extract(tmp_path, out, cfg).all_ok
        header, *rows = (ln.split(",") for ln in out.read_text().splitlines())
        columns = dict(zip(header, zip(*rows)))
        assert len(rows) == 3
        names = feature_names_for(cfg)
        for i, a in enumerate(names):
            for b in names[i + 1:]:
                assert columns[a] != columns[b], (a, b)

    def test_header_is_pure_function_of_config(self, corpus, tmp_path):
        cfg = PipelineConfig()
        out = tmp_path / "features.csv"
        run_extract(corpus, out, cfg)
        header = out.read_text().splitlines()[0]
        assert header == "row_id," + ",".join(feature_names_for(cfg))

    def test_byte_identical_reruns(self, corpus, tmp_path):
        cfg = PipelineConfig()
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        run_extract(corpus, a, cfg)
        run_extract(corpus, b, cfg)
        assert a.read_bytes() == b.read_bytes()

    def test_worker_count_does_not_change_output(self, corpus, tmp_path):
        cfg = PipelineConfig()
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        run_extract(corpus, a, cfg, jobs=1)
        run_extract(corpus, b, cfg, jobs=4)
        assert a.read_bytes() == b.read_bytes()

    def test_worker_count_does_not_change_text_output(self, corpus, tmp_path,
                                                      embeddings_path):
        valence = tmp_path / "valence.csv"
        valence.write_text("word,valence\nquick,0.6\nlazy,-0.4\ndog,0.2\n")
        cfg = PipelineConfig(sentiment=True, coherence=True,
                             valence_path=str(valence),
                             embeddings_path=embeddings_path)
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        run_extract(corpus, a, cfg, jobs=1)
        run_extract(corpus, b, cfg, jobs=2)
        assert a.read_bytes() == b.read_bytes()
        rows = {ln.split(",")[0]: ln for ln in a.read_text().splitlines()[1:]}
        col = feature_names_for(cfg).index("coherence_q0_mean") + 1
        assert rows["rec_a"].split(",")[col] != "nan"

    def test_manifest_contents(self, corpus, tmp_path):
        cfg = PipelineConfig()
        out = tmp_path / "features.csv"
        manifest = run_extract(corpus, out, cfg)
        assert manifest.config_hash == config_hash(cfg)
        assert manifest.wall_seconds >= 0.0
        data = json.loads(manifest_path_for(out).read_text())
        assert data["config_hash"] == config_hash(cfg)
        assert data["row_count"] == 3
        assert [e["status"] for e in data["inputs"]] == ["ok", "ok", "ok"]

    def test_corrupt_wav_is_isolated(self, tmp_path):
        make_wav(tmp_path / "good.wav")
        (tmp_path / "bad.wav").write_bytes(b"RIFF not a wave file")
        out = tmp_path / "features.csv"
        manifest = run_extract(tmp_path, out, PipelineConfig())
        status = {r.source_id: r.ok for r in manifest.results}
        assert status == {"bad": False, "good": True}
        assert not manifest.all_ok
        assert manifest.row_count == 1
        bad = next(r for r in manifest.results if not r.ok)
        assert bad.message
        lines = out.read_text().splitlines()
        assert [ln.split(",")[0] for ln in lines[1:]] == ["good"]

    def test_transcript_is_read_only_for_text_features(self, tmp_path):
        # a malformed transcript fails the row only when a text family is on
        make_wav(tmp_path / "x.wav")
        (tmp_path / "x.conllu").write_text("1\tword\n")
        for cfg, message in ((PipelineConfig(complexity=False, syntax=False), ""),
                             (PipelineConfig(),
                              "MalformedConllu: x.conllu:1: 2 columns, expected 10")):
            manifest = run_extract(tmp_path, tmp_path / "f.csv", cfg, jobs=1)
            assert [(r.ok, r.message) for r in manifest.results] == [(not message, message)]
            assert manifest.row_count == (0 if message else 1)

    @pytest.mark.parametrize("field, content, family, error", [
        ("embeddings_path", b"w 1.0 2.0\nv 1.0\n", "coherence",
         r"res\.txt:2: 1 values, expected 2"),
        ("valence_path", b"good,1.0\nbad\n", "sentiment", r"res\.txt:2: expected 'word,valence'"),
        ("lexicon_path", b"\xff\n", "complexity", r"res\.txt: byte 0 is not UTF-8"),
        ("suffix_path", b"\xff\n", "complexity", r"res\.txt: byte 0 is not UTF-8"),
    ], ids=["embeddings", "valence", "lexicon", "suffixes"])
    def test_resource_is_parsed_only_for_its_family(self, tmp_path, field, content,
                                                    family, error):
        # a faulty resource that no family turned on reads cannot fail the run
        (tmp_path / "audio").mkdir()
        make_wav(tmp_path / "audio" / "x.wav")
        (tmp_path / "res.txt").write_bytes(content)
        off = PipelineConfig(complexity=False, syntax=False, **{field: str(tmp_path / "res.txt")})
        assert run_extract(tmp_path / "audio", tmp_path / "f.csv", off).all_ok
        with pytest.raises(VoxfeatError, match=error):
            run_extract(tmp_path / "audio", tmp_path / "f.csv",
                        dataclasses.replace(off, **{family: True}))

    def test_inputs_are_not_mutated(self, corpus, tmp_path):
        before = {p.name: p.read_bytes() for p in sorted(corpus.iterdir())}
        run_extract(corpus, tmp_path / "f.csv", PipelineConfig())
        after = {p.name: p.read_bytes() for p in sorted(corpus.iterdir())}
        assert before == after

    def test_no_temp_files_left_behind(self, corpus, tmp_path):
        out = tmp_path / "features.csv"
        run_extract(corpus, out, PipelineConfig())
        names = {p.name for p in tmp_path.iterdir()}
        assert names == {"features.csv", "features.manifest.json"}

    def test_outputs_get_the_umask_mode(self, corpus, tmp_path):
        old = os.umask(0o022)
        try:
            out = tmp_path / "features.csv"
            run_extract(corpus, out, PipelineConfig())
            toy = tmp_path / "toy.csv"
            toy_csv(toy)
            run_analyze(toy, tmp_path / "analysis",
                        PipelineConfig(analyze=AnalyzeSpec(k_values=(1,), folds=3)))
        finally:
            os.umask(old)
        for path in (out, manifest_path_for(out), tmp_path / "analysis" / "report.json"):
            assert stat.S_IMODE(path.stat().st_mode) == 0o644, path.name

    def test_no_inputs_raises(self, tmp_path):
        with pytest.raises(NoInputs):
            run_extract(tmp_path, tmp_path / "f.csv", PipelineConfig())

    def test_unwritable_output_raises(self, corpus, tmp_path):
        target = tmp_path / "no_such_dir" / "f.csv"
        with pytest.raises(UnwritableOutput):
            run_extract(corpus, target, PipelineConfig())


@pytest.fixture(scope="module")
def batch(tmp_path_factory):
    """Five recordings, more than the workers: e and e-1 have no transcript
    (their ids sort in the opposite order to their file names), f a .txt,
    g a .conllu, and h is not a WAV."""
    root = tmp_path_factory.mktemp("batch")
    for seed, stem in enumerate(("e", "e-1", "f", "g"), start=1):
        make_wav(root / f"{stem}.wav", 150.0 + 40.0 * seed, seed=seed)
    (root / "h.wav").write_bytes(b"RIFF not a wave file")
    (root / "f.txt").write_text("the quick brown fox jumps over the lazy dog.\n")
    (root / "g.conllu").write_text(CONLLU)
    return root


@pytest.fixture(scope="module")
def batch_cfg(embeddings_path):
    return PipelineConfig(coherence=True, embeddings_path=embeddings_path)


def extract_outputs(audio_dir, out, cfg, jobs):
    run_extract(audio_dir, out, cfg, jobs=jobs)
    return out.read_bytes(), json.loads(manifest_path_for(out).read_text())["inputs"]


class TestWorkerProcesses:
    @pytest.fixture(scope="class")
    def serial(self, batch, batch_cfg, tmp_path_factory):
        return extract_outputs(batch, tmp_path_factory.mktemp("serial") / "f.csv", batch_cfg, 1)

    @pytest.mark.parametrize("jobs", [2, 3])
    def test_outputs_equal_one_worker(self, batch, batch_cfg, serial, tmp_path, jobs):
        assert extract_outputs(batch, tmp_path / "f.csv", batch_cfg, jobs) == serial
        assert [e["status"] for e in serial[1]] == ["ok"] * 4 + ["error"]
        assert multiprocessing.active_children() == []

    def test_dead_worker_fails_only_its_input(self, batch, batch_cfg, serial, tmp_path,
                                              monkeypatch):
        real = pipeline.extract_features

        def dies_on_f(item, cfg, res):
            if item.source_id == "f":
                os._exit(3)
            return real(item, cfg, res)

        monkeypatch.setattr(pipeline, "extract_features", dies_on_f)
        text, inputs = extract_outputs(batch, tmp_path / "f.csv", batch_cfg, 2)
        by_id = {e["source_id"]: e for e in inputs}
        assert by_id["f"]["status"] == "error"
        assert by_id["f"]["message"].startswith("WorkerDied:")
        serial_rows = serial[0].decode().splitlines()
        assert text.decode().splitlines() == [
            ln for ln in serial_rows if not ln.startswith("f,")]
        assert [e for e in inputs if e["source_id"] != "f"] == [
            e for e in serial[1] if e["source_id"] != "f"]
        assert multiprocessing.active_children() == []

    def test_missing_transcripts_logged_once_in_source_id_order(self, batch, batch_cfg,
                                                                tmp_path, caplog):
        with caplog.at_level(logging.WARNING, logger="voxfeat"):
            run_extract(batch, tmp_path / "f.csv", batch_cfg, jobs=2)
        assert [r.getMessage() for r in caplog.records] == [
            f"{sid}: no transcript found, text features set to NaN"
            for sid in ("e", "e-1", "h")]

    def test_missing_transcripts_not_logged_with_text_off(self, batch, tmp_path, caplog):
        cfg = PipelineConfig(complexity=False, syntax=False)
        with caplog.at_level(logging.WARNING, logger="voxfeat"):
            run_extract(batch, tmp_path / "f.csv", cfg, jobs=1)
        assert caplog.records == []

    def test_worker_count(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 2, 5}, raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 8)
        assert [worker_count(jobs, 10) for jobs in (None, 0, -1)] == [3, 3, 3]
        assert worker_count(None, 2) == 2
        assert worker_count(4, 10) == 4
        assert worker_count(4, 1) == 1
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        assert worker_count(None, 10) == 8
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert worker_count(None, 10) == 1


def toy_csv(path, seed=0, n=60):
    """Separable two-class table with a constant and a duplicated column."""
    rng = np.random.default_rng(seed)
    y = np.repeat([0, 1], n // 2)
    sig1 = 3.0 * y + 0.1 * rng.standard_normal(n)
    sig2 = -2.0 * y + 1.5 * rng.standard_normal(n)
    noise1 = rng.standard_normal(n)
    noise2 = rng.standard_normal(n)
    cols = {
        "sig1": sig1,
        "sig2": sig2,
        "noise1": noise1,
        "dup_noise1": noise1.copy(),
        "noise2": noise2,
        "const": np.zeros(n),
    }
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("row_id," + ",".join(cols) + ",target\n")
        for i in range(n):
            vals = ",".join(repr(float(cols[c][i])) for c in cols)
            fh.write(f"r{i:03d},{vals},{int(y[i])}\n")


def score_csv(path, target, seed=0, n=120, p=30):
    """n x p normal features; the target follows f00, f01 and f02. "mmse" is
    an integer score clipped to 0-30, "float" the same score unrounded."""
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, p))
    y = 15 + 4 * x[:, 0] - 3 * x[:, 1] + 2 * x[:, 2] + rng.normal(size=n)
    if target == "mmse":
        y = np.clip(np.round(y), 0, 30)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("row_id," + ",".join(f"f{j:02d}" for j in range(p)) + ",target\n")
        for i in range(n):
            fh.write(f"r{i:03d}," + ",".join(repr(float(v)) for v in x[i])
                     + f",{float(y[i])!r}\n")


class TestTaskDecision:
    """run_analyze decides classification or regression once, after load."""

    @staticmethod
    def selection(report):
        return next(s for s in report["stages"] if s["stage"] == "selection")

    @pytest.mark.parametrize("estimator,target,task,task_from", [
        ("auto", "classes", "classification", "target"),
        ("auto", "float", "regression", "target"),
        ("logistic", "classes", "classification", "estimator"),
        ("ols", "classes", "regression", "estimator"),
        ("ols", "float", "regression", "estimator"),
    ])
    def test_report_records_task(self, tmp_path, estimator, target, task, task_from):
        path = tmp_path / "t.csv"
        if target == "classes":
            toy_csv(path)
        else:
            score_csv(path, target)
        cfg = PipelineConfig(analyze=AnalyzeSpec(estimator=estimator, k_values=(1, 2)))
        sel = self.selection(run_analyze(path, tmp_path / "out", cfg))
        assert (sel["task"], sel["task_from"]) == (task, task_from)
        assert sel["estimator"] == ("logistic" if task == "classification" else "ols")

    def test_logistic_on_float_target_fails_before_any_filter(self, tmp_path, monkeypatch):
        def must_not_run(*args, **kwargs):
            raise AssertionError("a filter or transform ran before the task stage")

        for name in ("low_variance_filter", "high_correlation_filter", "pca", "ica"):
            monkeypatch.setattr(analyze, name, must_not_run)
        path = tmp_path / "float.csv"
        score_csv(path, "float")
        cfg = PipelineConfig(analyze=AnalyzeSpec(estimator="logistic", transform="ica"))
        with pytest.raises(NotClassification, match="stage 'task'"):
            run_analyze(path, tmp_path / "out", cfg)

    @pytest.mark.parametrize("selector", ["anova_f", "mrmr", "rfe", "importance"])
    def test_mmse_like_target_regressed_under_ols(self, tmp_path, selector):
        path = tmp_path / "mmse.csv"
        score_csv(path, "mmse")
        cfg = PipelineConfig(analyze=AnalyzeSpec(selector=selector, estimator="ols"))
        sel = self.selection(run_analyze(path, tmp_path / "out", cfg))
        assert sel["task"] == "regression"
        assert set(sel["kept"][:3]) == {"f00", "f01", "f02"}
        assert max(c["mean_score"] for c in sel["curve"]) > 0.9

    def test_float_target_under_default_config(self, tmp_path):
        path = tmp_path / "float.csv"
        score_csv(path, "float")
        sel = self.selection(run_analyze(path, tmp_path / "out", PipelineConfig()))
        assert (sel["selector"], sel["estimator"], sel["task"]) == (
            "anova_f", "ols", "regression")
        assert set(sel["kept"][:3]) == {"f00", "f01", "f02"}
        assert max(c["mean_score"] for c in sel["curve"]) > 0.9


class TestRunAnalyze:
    @pytest.fixture()
    def toy(self, tmp_path):
        path = tmp_path / "toy.csv"
        toy_csv(path)
        return path

    @pytest.fixture()
    def cfg(self):
        return PipelineConfig(analyze=AnalyzeSpec(k_values=(1, 2, 3), folds=5))

    def test_artifacts_written(self, toy, tmp_path, cfg):
        out = tmp_path / "analysis"
        report = run_analyze(toy, out, cfg)
        expected = {"report.json", "kept_features.txt", "ranking.csv",
                    "curve.csv", "scatter.svg", "heatmap.svg", "curve.svg"}
        assert set(report["outputs"]) == expected
        for name in expected:
            assert (out / name).is_file()
        assert json.loads((out / "report.json").read_text()) == report

    def test_no_temp_files_left_behind(self, toy, tmp_path, cfg):
        out = tmp_path / "out"
        report = run_analyze(toy, out, cfg)
        assert {p.name for p in out.iterdir()} == set(report["outputs"])
        # an artifact path held by a directory fails that write; the temp
        # file beside it is removed
        occupied = tmp_path / "occupied"
        (occupied / "curve.csv").mkdir(parents=True)
        with pytest.raises(UnwritableOutput):
            run_analyze(toy, occupied, cfg)
        assert {p.name for p in occupied.iterdir()} <= set(report["outputs"])
        assert (occupied / "curve.csv").is_dir()

    def test_filter_stages_list_drops(self, toy, tmp_path, cfg):
        report = run_analyze(toy, tmp_path / "out", cfg)
        stages = {s["stage"]: s for s in report["stages"]}
        assert stages["low_variance"]["dropped"] == ["const"]
        assert stages["high_correlation"]["dropped"] == ["dup_noise1"]

    def test_separable_curve_reaches_one(self, toy, tmp_path, cfg):
        report = run_analyze(toy, tmp_path / "out", cfg)
        curve = {c["k"]: c for s in report["stages"] if s["stage"] == "selection"
                 for c in s["curve"]}
        assert curve[1]["mean_score"] == 1.0
        assert curve[1]["std_score"] == 0.0

    def test_kept_features_file_matches_report(self, toy, tmp_path, cfg):
        out = tmp_path / "out"
        report = run_analyze(toy, out, cfg)
        kept = (out / "kept_features.txt").read_text().splitlines()
        sel = next(s for s in report["stages"] if s["stage"] == "selection")
        assert kept == sel["kept"]
        assert kept[0] == "sig1"

    def test_ranking_csv_is_complete(self, toy, tmp_path, cfg):
        out = tmp_path / "out"
        run_analyze(toy, out, cfg)
        lines = (out / "ranking.csv").read_text().splitlines()
        assert lines[0] == "feature,rank,score"
        names = [ln.split(",")[0] for ln in lines[1:]]
        ranks = [int(ln.split(",")[1]) for ln in lines[1:]]
        assert ranks == sorted(ranks)
        assert "const" not in names

    def test_missing_target_names_the_stage(self, tmp_path, cfg):
        path = tmp_path / "nt.csv"
        path.write_text("row_id,a,b\nr0,1.0,2.0\nr1,2.0,1.0\nr2,0.5,0.2\n")
        with pytest.raises(SchemaError, match="task"):
            run_analyze(path, tmp_path / "out", cfg)

    def test_malformed_csv_names_load_stage(self, tmp_path, cfg):
        path = tmp_path / "bad.csv"
        path.write_text("not,a,feature,table\n1,2\n")
        with pytest.raises(SchemaError, match="load"):
            run_analyze(path, tmp_path / "out", cfg)

    def test_pca_transform_branch(self, toy, tmp_path):
        cfg = PipelineConfig(analyze=AnalyzeSpec(
            transform="pca", transform_k=3, k_values=(1, 2), folds=4))
        report = run_analyze(toy, tmp_path / "out", cfg)
        stages = {s["stage"]: s for s in report["stages"]}
        assert stages["pca"]["k"] == 3
        evr = stages["pca"]["explained_variance_ratio"]
        assert len(evr) == 3
        sel = stages["selection"]
        assert all(name.startswith("pc") for name in sel["kept"])

    def test_regression_target_uses_r2(self, tmp_path):
        rng = np.random.default_rng(4)
        n = 50
        x1 = rng.standard_normal(n)
        x2 = rng.standard_normal(n)
        y = 2.0 * x1 - x2 + 0.05 * rng.standard_normal(n)
        path = tmp_path / "reg.csv"
        with open(path, "w") as fh:
            fh.write("row_id,x1,x2,x3,target\n")
            for i in range(n):
                fh.write(f"r{i:02d},{float(x1[i])!r},{float(x2[i])!r},"
                         f"{float(rng.standard_normal())!r},{float(y[i])!r}\n")
        cfg = PipelineConfig(analyze=AnalyzeSpec(
            selector="rfe", k_values=(2,), folds=4))
        report = run_analyze(path, tmp_path / "out", cfg)
        sel = next(s for s in report["stages"] if s["stage"] == "selection")
        assert sel["estimator"] == "ols"
        assert set(sel["kept"]) == {"x1", "x2"}
        assert sel["curve"][0]["mean_score"] > 0.9

    @staticmethod
    def flat_csv(path):
        """30 rows of two-class data; column "flat" holds 30 copies of 0.1,
        which measure a variance of ulps."""
        rng = np.random.default_rng(8)
        n = 30
        y = rng.permutation(np.arange(n) % 2).astype(np.float64)
        x = rng.normal(size=(n, 4)) + 0.5 * y[:, None] * np.array([1.0, 0.5, 0.0, 0.0])
        rows = np.column_stack([x[:, :2], np.full(n, 0.1), x[:, 2:]])
        path.write_text(table_to_csv_text(FeatureTable(
            ("a", "b", "flat", "c", "d"), rows, tuple(f"r{i}" for i in range(n)), y)))
        return path

    def test_rfe_never_ranks_an_all_equal_column(self, tmp_path):
        path = self.flat_csv(tmp_path / "flat.csv")
        cfg = PipelineConfig(analyze=AnalyzeSpec(selector="rfe", k_values=(1, 2), folds=4))
        report = run_analyze(path, tmp_path / "out", cfg)
        assert report["stages"][0] == {"stage": "low_variance", "threshold": 0.0,
                                       "dropped": ["flat"]}
        ranking = (tmp_path / "out" / "ranking.csv").read_text().splitlines()
        assert [line.split(",")[0] for line in ranking[1:]] == ["c", "a", "d", "b"]

    @pytest.mark.parametrize("selector", ["anova_f", "mrmr", "rfe", "importance"])
    def test_unfiltered_all_equal_column_scores_zero(self, tmp_path, selector):
        # with the variance filter off the column reaches the selectors; it
        # used to z-score to +-1 against the intercept, and rfe ranked it
        # first with 0.25
        path = self.flat_csv(tmp_path / "flat.csv")
        cfg = PipelineConfig(analyze=AnalyzeSpec(
            selector=selector, low_variance=False, k_values=(1, 5), folds=4))
        run_analyze(path, tmp_path / "out", cfg)
        ranking = (tmp_path / "out" / "ranking.csv").read_text().splitlines()
        scores = dict(line.split(",")[::2] for line in ranking[1:])
        assert scores["flat"] == "0.0"

    def test_deterministic_report(self, toy, tmp_path, cfg):
        r1 = run_analyze(toy, tmp_path / "o1", cfg)
        r2 = run_analyze(toy, tmp_path / "o2", cfg)
        assert r1 == r2
        assert ((tmp_path / "o1" / "curve.svg").read_bytes()
                == (tmp_path / "o2" / "curve.svg").read_bytes())


def test_null_table_scores_at_chance_under_pca(tmp_path):
    """The variance and correlation filters and PCA are fit on every row
    before the folds, but never read the labels. So with labels drawn apart
    from a Gaussian table, the curve stays at chance: 100 balanced rows give
    one seed's score a spread of about 0.06, the mean over 50 seeds a spread
    of about 0.009, and the band 0.5 +- 0.04 is over four of those wide."""
    scores = []
    for seed in range(50):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((100, 30))
        y = rng.permutation(np.arange(100) % 2)
        tbl = FeatureTable([f"f{j}" for j in range(30)], x, [f"r{i}" for i in range(100)], y)
        (tmp_path / "null.csv").write_text(table_to_csv_text(tbl))
        cfg = PipelineConfig(seed=seed, analyze=AnalyzeSpec(
            transform="pca", transform_k=5, k_values=(1, 2, 5)))
        report = run_analyze(tmp_path / "null.csv", tmp_path / f"out{seed}", cfg)
        curve = next(s for s in report["stages"] if s["stage"] == "selection")["curve"]
        assert [point["k"] for point in curve] == [1, 2, 5]
        scores.append([point["mean_score"] for point in curve])
    assert np.all(np.abs(np.mean(scores, axis=0) - 0.5) < 0.04)


def near_constant_csv(path, column):
    """40 rows of two-class data: f0 carries the class, f1 is `column`."""
    rng = np.random.default_rng(0)
    y = np.arange(40) % 2
    rows = np.column_stack([rng.normal(size=40) + y, column])
    path.write_text(table_to_csv_text(FeatureTable(
        ("f0", "f1"), rows, tuple(f"r{i}" for i in range(40)), y.astype(float))))


class TestNearConstantColumns:
    """A kept column a few ulps wide used to end analyze in a bare ValueError
    from np.histogram, which cannot cut 10 bins from so narrow a range."""

    def test_one_cell_an_ulp_above_the_rest(self, tmp_path):
        column = np.full(40, 0.1)
        column[7] = np.nextafter(0.1, 1.0)
        near_constant_csv(tmp_path / "ulp.csv", column)
        report = run_analyze(tmp_path / "ulp.csv", tmp_path / "out", PipelineConfig())
        assert "scatter.svg" in report["outputs"]
        assert (tmp_path / "out" / "scatter.svg").is_file()

    def test_constant_column_with_missing_cells_unfiltered(self, tmp_path):
        # the mean of the 38 observed 0.1 cells, imputed into the other two,
        # is 0.10000000000000002
        column = np.full(40, 0.1)
        column[[3, 20]] = np.nan
        near_constant_csv(tmp_path / "nan.csv", column)
        cfg = PipelineConfig(analyze=AnalyzeSpec(low_variance=False))
        report = run_analyze(tmp_path / "nan.csv", tmp_path / "out", cfg)
        assert "scatter.svg" in report["outputs"]
        assert (tmp_path / "out" / "scatter.svg").is_file()


class TestInfiniteCells:
    """An infinite cell stops analyze at load with an error that names it.
    It used to pass as a constant column under the variance filter (with a
    RuntimeWarning), or, with the filter off, to end the logistic fits in a
    ConvergenceFailure that named no cell."""

    @staticmethod
    def write(path, cells):
        """40 rows x 4 features of two-class data, a blank line after the
        header, and the given {(row, column): text} cells replaced."""
        rng = np.random.default_rng(0)
        y = np.arange(40) % 2
        x = rng.normal(size=(40, 4)) + y[:, None]
        lines = ["row_id,f0,f1,f2,f3,target", ""]
        for i in range(40):
            row = [repr(float(v)) for v in x[i]] + [str(y[i])]
            for (r, c), text in cells.items():
                if r == i:
                    row[c] = text
            lines.append(",".join([f"r{i}", *row]))
        path.write_text("\n".join(lines) + "\n")

    @pytest.mark.parametrize("low_variance", [True, False])
    @pytest.mark.parametrize("cells, where", [
        ({(7, 2): "inf", (20, 0): "-inf"}, r"t\.csv:10: infinite cell in row 'r7', column 'f2'"),
        ({(5, 4): "-Infinity", (9, 1): "inf"},
         r"t\.csv:8: infinite cell in row 'r5', column 'target'"),
    ])
    def test_first_infinite_cell_is_named_at_load(self, tmp_path, low_variance, cells, where):
        self.write(tmp_path / "t.csv", cells)
        cfg = PipelineConfig(analyze=AnalyzeSpec(low_variance=low_variance))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(SchemaError, match="stage 'load': .*" + where):
                run_analyze(tmp_path / "t.csv", tmp_path / "out", cfg)

    def test_nan_cells_still_load(self, tmp_path):
        self.write(tmp_path / "t.csv", {(7, 2): "nan"})
        report = run_analyze(tmp_path / "t.csv", tmp_path / "out", PipelineConfig())
        assert "scatter.svg" in report["outputs"]


def mutated_csv(path, seed):
    """A seeded table of mixed columns: up to 4 normal ones (the first
    carries the target) among 2-6 columns that are constant at 0.1 or 3.0,
    an ulp wide, an exact copy or all NaN, with 5 % of all feature cells
    NaN; the target is binary, 3-class or float by seed."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(24, 41))
    x = rng.normal(size=(n, int(rng.integers(0, 5))))
    signal = x[:, 0] if x.shape[1] else np.zeros(n)
    y = {0: np.arange(n) % 2, 1: np.arange(n) % 3,
         2: signal + rng.normal(size=n)}[seed % 3].astype(float)
    if seed % 3 < 2 and x.shape[1]:
        x[:, 0] += y
    cols = list(x.T)
    for _ in range(int(rng.integers(2, 7))):
        kind = int(rng.integers(5))
        if kind < 2:
            col = np.full(n, (0.1, 3.0)[kind])
        elif kind == 2:
            col = np.full(n, (0.1, 3.0)[int(rng.integers(2))])
            col[rng.integers(n)] = np.nextafter(col[0], np.inf)
        elif kind == 3 and cols:
            col = cols[int(rng.integers(len(cols)))].copy()
        else:
            col = np.full(n, np.nan)
        cols.insert(int(rng.integers(len(cols) + 1)), col)
    x = np.column_stack(cols)
    x[rng.random(x.shape) < 0.05] = np.nan
    path.write_text(table_to_csv_text(FeatureTable(
        tuple(f"f{j:02d}" for j in range(x.shape[1])), x,
        tuple(f"r{i}" for i in range(n)), y)))


def test_analyze_fails_only_with_named_errors_under_mutation(tmp_path):
    """Every selector, with no transform, pca and ica, with the variance
    filter on and off, on each mutated table: a run either writes its
    artifacts or raises a VoxfeatError."""
    outcomes = Counter()
    for seed in range(7):
        path = tmp_path / f"t{seed}.csv"
        mutated_csv(path, seed)
        for selector, transform, low_variance in itertools.product(
                ("anova_f", "mrmr", "rfe", "importance"), (None, "pca", "ica"), (True, False)):
            cfg = PipelineConfig(analyze=AnalyzeSpec(
                selector=selector, transform=transform, low_variance=low_variance,
                k_values=(1, 2, 5), folds=3))
            try:
                run_analyze(path, tmp_path / "out", cfg)
                outcomes["ok"] += 1
            except VoxfeatError as exc:
                outcomes[type(exc).__name__] += 1
    assert sum(outcomes.values()) == 7 * 24
    assert outcomes["ok"] > 7 * 24 // 2, outcomes
