"""Feature dictionary: completeness, activity flags, deterministic bytes."""

from __future__ import annotations

import os
import re
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from voxfeat import acoustic
from voxfeat.coherence import EmbeddingTable, coherence_feature_vector, coherence_features
from voxfeat.config import PipelineConfig, feature_names_for
from voxfeat.errors import UnwritableOutput
from voxfeat.featdict import (
    featdict_text,
    feature_dictionary,
    write_featdict,
)

from transcripts import transcript_of

# every family on (the dictionary reads no resource, so the path is only named)
ALL_ON = PipelineConfig(
    sentiment=False,
    coherence=True,
    embeddings_path="embeddings.txt",
    lld_functionals=("mean", "stddev"),
)


class TestDictionary:
    def test_every_active_feature_has_an_entry(self):
        cfg = PipelineConfig()
        entries = {e.name: e for e in feature_dictionary(cfg)}
        for name in feature_names_for(cfg):
            assert name in entries
            assert entries[name].active

    def test_active_names_match_csv_header_order(self):
        active = tuple(e.name for e in feature_dictionary(ALL_ON) if e.active)
        assert active == feature_names_for(ALL_ON)

    def test_all_seven_complexity_metrics_described(self):
        entries = {e.name: e for e in feature_dictionary(PipelineConfig())}
        for name in (
            "unintelligible_word_ratio",
            "standardized_word_entropy",
            "suffix_ratio",
            "number_ratio",
            "brunet_index",
            "honore_statistic",
            "type_token_ratio",
        ):
            assert name in entries
            assert entries[name].category == "text.complexity"
            assert entries[name].formula

    def test_formulas_are_nonempty_everywhere(self):
        for entry in feature_dictionary(ALL_ON):
            assert entry.formula.strip(), entry.name

    def test_disabled_family_is_listed_inactive(self):
        cfg = PipelineConfig(syntax=False)
        entries = {e.name: e for e in feature_dictionary(cfg)}
        assert "pos_count_NOUN" in entries
        assert entries["pos_count_NOUN"].active is False
        assert entries["type_token_ratio"].active is True

    def test_sentiment_listed_even_when_off(self):
        entries = {e.name: e for e in feature_dictionary(PipelineConfig())}
        assert "sentiment_valence" in entries
        assert entries["sentiment_valence"].active is False

    def test_readme_family_table_matches_declarations(self):
        readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
        table = re.findall(r"^\| `([a-z.]+)` \| (\d+) \|", readme, re.MULTILINE)
        counts = Counter(e.category for e in feature_dictionary(PipelineConfig()))
        assert {category: int(n) for category, n in table} == dict(counts)

    def test_categories_are_stable(self):
        cats = {e.category for e in feature_dictionary(ALL_ON)}
        assert cats == {
            "acoustic.gemaps",
            "acoustic.spectral",
            "acoustic.lld",
            "text.complexity",
            "text.syntax",
            "text.sentiment",
            "text.coherence",
        }


class TestText:
    def test_header_and_shape(self):
        text = featdict_text(PipelineConfig())
        lines = text.splitlines()
        assert lines[0] == "name\tcategory\tactive\tformula"
        assert all(line.count("\t") == 3 for line in lines)
        assert text.endswith("\n")

    def test_identical_bytes_twice(self):
        assert featdict_text(ALL_ON) == featdict_text(ALL_ON)

    def test_write_round_trip(self, tmp_path):
        out = tmp_path / "features.tsv"
        write_featdict(PipelineConfig(), out)
        assert out.read_text(encoding="utf-8") == featdict_text(PipelineConfig())

    def test_write_twice_same_bytes(self, tmp_path):
        a, b = tmp_path / "a.tsv", tmp_path / "b.tsv"
        write_featdict(ALL_ON, a)
        write_featdict(ALL_ON, b)
        assert a.read_bytes() == b.read_bytes()

    def test_unwritable_path(self, tmp_path):
        with pytest.raises(UnwritableOutput):
            write_featdict(PipelineConfig(), tmp_path / "missing_dir" / "x.tsv")

    def test_failed_write_leaves_the_old_file(self, tmp_path, monkeypatch):
        out = tmp_path / "features.tsv"
        write_featdict(PipelineConfig(), out)
        before = out.read_bytes()

        def refuse(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr(os, "replace", refuse)
        with pytest.raises(UnwritableOutput):
            write_featdict(ALL_ON, out)
        assert out.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["features.tsv"]


def formula(name: str) -> str:
    return {e.name: e.formula for e in feature_dictionary(ALL_ON)}[name]


class TestFormulaOracles:
    """Each feature on a hand-made input equals its formula as the
    dictionary states it."""

    def test_band_slope_fits_db_power(self):
        assert formula("slope_0_500_mean").startswith(
            "least-squares slope (dB/Hz) of the log-power spectrum 10*log10(max(|X|^2, 1e-10))")
        bin_hz = 16000 / 512
        freqs = np.arange(257) * bin_hz
        # dB power: a line of -0.01 dB/Hz up to 500 Hz, then -0.03 dB/Hz
        power_db = np.where(freqs <= 500, -20 - 0.01 * freqs, -25 - 0.03 * (freqs - 500))
        floored = np.maximum(10 ** (power_db / 10), acoustic.SPECTRAL_FLOOR)
        for (lo, hi), slope in (((0.0, 500.0), -0.01), ((500.0, 1500.0), -0.03)):
            assert acoustic._band_slope(floored, freqs, lo, hi) == pytest.approx(slope, rel=1e-9)

    def test_flux_is_mean_of_rises(self):
        assert formula("flux_mean").startswith(
            "mean over bins of the positive log-magnitude rise since the previous frame")
        assert formula("lld_flux_mean") == formula("flux_mean")
        logs = np.log(np.array([np.ones(4), [np.e, 1.0, 1 / np.e, np.e ** 2]]))
        # rises 1, 0, 0, 2 over 4 bins: the mean is 0.75, a sum would be 3
        assert acoustic._log_rises(logs, logs[:1])[1] == pytest.approx(0.75, rel=1e-12)

    def test_contrast_is_log_ratio_of_magnitudes(self):
        assert formula("contrast_b3_mean").startswith(
            "ln(mean of the top 2% / mean of the bottom 2% of band magnitudes), "
            "octave band 1600-3200 Hz")
        bin_hz = 16000 / 2048
        freqs = np.arange(1025) * bin_hz
        mags = np.ones(1025)
        band = np.flatnonzero((freqs >= 1600) & (freqs < 3200))
        assert int(0.02 * band.size) == 4
        mags[band[:4]] = [0.1, 0.2, 0.3, 0.4]
        mags[band[-4:]] = [5.0, 6.0, 7.0, 8.0]
        expected = np.log(6.5 / 0.25)  # mean of the top 4 / mean of the bottom 4
        assert acoustic._contrast(mags, freqs)[3] == pytest.approx(expected, rel=1e-12)

    def test_normalized_coherence_subtracts_baseline(self):
        assert formula("coherence_q0_n_mean").endswith(
            ", minus the all-pairs cosine baseline; mean")
        emb = EmbeddingTable(("a", "b", "c"), np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]))
        t = transcript_of(["a"], ["b"], ["c"])
        fv = coherence_feature_vector(coherence_features(t, emb))
        # adjacent cosines 0 and 1/sqrt(2); all pairs add cos(a, c) = 1/sqrt(2)
        raw_mean, baseline = np.sqrt(0.5) / 2, np.sqrt(2) / 3
        assert fv["coherence_q0_mean"] == pytest.approx(raw_mean, rel=1e-12)
        assert fv["coherence_q0_n_mean"] == pytest.approx(raw_mean - baseline, rel=1e-12)
        assert fv["coherence_q0_n_min"] == pytest.approx(-baseline, rel=1e-12)
