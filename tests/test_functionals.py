"""Functional bank and named feature set tests."""

from __future__ import annotations

import re

import numpy as np
import pytest

from voxfeat import coherence
from voxfeat.acoustic import AcousticConfig, Analysis, FrameSeries
from voxfeat.audio_io import AudioBuffer
from voxfeat.config import PipelineConfig, feature_names_for
from voxfeat.featdict import feature_dictionary
from voxfeat.functionals import (
    DEFAULT_BANK,
    GEMAPS,
    GEMAPS_FEATURE_NAMES,
    SPECTRAL,
    SPECTRAL_FEATURE_NAMES,
    STATISTICS,
    Family,
    FeatureVector,
    FunctionalBank,
    apply_bank,
    concat_vectors,
    gemaps_core,
    lld_family,
    spectral_set,
)
from voxfeat.textfeat import Token, Transcript

SR = 16000


def series(values, name="x"):
    return FrameSeries(name, np.asarray(values, dtype=float), 0.010)


class TestFunctionalBank:
    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            FunctionalBank(())

    def test_rejects_unknown_stat(self):
        with pytest.raises(ValueError):
            FunctionalBank(("mean", "kurtosis"))

    def test_rejects_out_of_range_percentile(self):
        with pytest.raises(ValueError):
            FunctionalBank(("p0",))
        with pytest.raises(ValueError):
            FunctionalBank(("p100",))

    def test_accepts_percentiles(self):
        FunctionalBank(("p10", "p99.5"))


class TestApplyBank:
    def test_constant_series(self):
        fv = apply_bank(series([5, 5, 5]), FunctionalBank(("mean", "stddev", "min", "max")))
        assert fv.as_dict() == {"x_mean": 5.0, "x_stddev": 0.0, "x_min": 5.0, "x_max": 5.0}

    def test_slope_exact_line(self):
        fv = apply_bank(series([1, 2, 3]), FunctionalBank(("slope",)))
        assert fv["x_slope"] == pytest.approx(1.0, rel=1e-12)

    def test_nan_skipping_mean(self):
        fv = apply_bank(series([1, np.nan, 3]), FunctionalBank(("mean",)))
        assert fv["x_mean"] == 2.0

    def test_slope_uses_original_index(self):
        # values 0 and 4 at frames 0 and 4: slope 1, not 4
        fv = apply_bank(series([0, np.nan, np.nan, np.nan, 4]), FunctionalBank(("slope",)))
        assert fv["x_slope"] == pytest.approx(1.0, rel=1e-12)

    def test_delta_requires_adjacent_frames(self):
        fv = apply_bank(series([1, np.nan, 3]), FunctionalBank(("delta_mean_abs",)))
        assert np.isnan(fv["x_delta_mean_abs"])

    def test_delta_mean_abs(self):
        fv = apply_bank(series([1, 3, 2]), FunctionalBank(("delta_mean_abs",)))
        assert fv["x_delta_mean_abs"] == pytest.approx(1.5)

    def test_all_nan_series(self):
        fv = apply_bank(series([np.nan, np.nan]))
        assert np.all(np.isnan(fv.values))

    def test_range(self):
        fv = apply_bank(series([2, 9, 4]), FunctionalBank(("range",)))
        assert fv["x_range"] == 7.0

    def test_population_stddev(self):
        fv = apply_bank(series([1, 3]), FunctionalBank(("stddev",)))
        assert fv["x_stddev"] == 1.0  # population: sqrt(mean((x-mean)^2))

    def test_order_free_stats_permutation_invariant(self):
        rng = np.random.default_rng(17)
        bank = FunctionalBank(("mean", "stddev", "min", "max", "median", "range", "p10"))
        for _ in range(50):
            vals = rng.standard_normal(rng.integers(3, 40))
            a = apply_bank(series(vals), bank)
            b = apply_bank(series(rng.permutation(vals)), bank)
            np.testing.assert_allclose(a.values, b.values, rtol=1e-12)

    def test_percentile_ordering_sweep(self):
        rng = np.random.default_rng(18)
        bank = FunctionalBank(("min", "p10", "median", "max"))
        for _ in range(100):
            vals = rng.standard_normal(rng.integers(2, 60))
            fv = apply_bank(series(vals), bank)
            lo, p10, med, hi = fv.values
            assert lo <= p10 <= med <= hi


# The if-chain and text lookups the statistics table replaced, kept as references.
_REF_PERCENTILE_RE = re.compile(r"^p(\d+(?:\.\d+)?)$")


def reference_stat(values, indices, stat):
    if values.size == 0:
        return np.nan
    if stat == "mean":
        return float(values.mean())
    if stat == "stddev":
        return float(values.std())
    if stat == "min":
        return float(values.min())
    if stat == "max":
        return float(values.max())
    if stat == "median":
        return float(np.median(values))
    if stat == "range":
        return float(values.max() - values.min())
    if stat == "slope":
        if values.size < 2 or np.ptp(indices) == 0:
            return np.nan
        x = indices.astype(np.float64)
        xc = x - x.mean()
        return float((xc @ (values - values.mean())) / (xc @ xc))
    if stat == "delta_mean_abs":
        adjacent = np.diff(indices) == 1
        if not np.any(adjacent):
            return np.nan
        return float(np.mean(np.abs(np.diff(values)[adjacent])))
    pct = float(_REF_PERCENTILE_RE.match(stat).group(1))
    return float(np.percentile(values, pct))


_REF_TEXT = {"mean": "mean", "stddev": "population stddev", "min": "minimum",
             "max": "maximum", "median": "median", "range": "max minus min"}
_REF_FRAME_ORDER_TEXT = {"slope": "least-squares slope against frame index",
                         "delta_mean_abs": "mean |difference| of adjacent frames"}


def reference_stat_text(stat, over=" over frames"):
    if stat in _REF_FRAME_ORDER_TEXT:
        return _REF_FRAME_ORDER_TEXT[stat]
    return _REF_TEXT.get(stat, f"{stat[1:]}th percentile") + over


def reference_apply(values, stats):
    values = np.asarray(values, dtype=np.float64)
    keep = ~np.isnan(values)
    return np.array([reference_stat(values[keep], np.flatnonzero(keep), s) for s in stats])


ALL_STATS = (*STATISTICS, "p10", "p5", "p99.5")


class TestStatisticsTable:
    """One table defines each statistic's value and text; both equal the
    if-chain and lookups it replaced, bit for bit."""

    def test_every_named_statistic_is_covered(self):
        assert set(STATISTICS) == {"mean", "stddev", "min", "max", "median", "range",
                                   "slope", "delta_mean_abs"}

    def test_text_matches_reference(self):
        bank = FunctionalBank(ALL_STATS)
        for over in ((), (" over frames",), ("",), (" over adjacent cycle pairs",)):
            for name, st in zip(ALL_STATS, bank.statistics):
                assert st.describe(*over) == reference_stat_text(name, *over)

    @pytest.mark.parametrize("case", ["gaps", "single", "all_nan", "empty", "one_gap_each"])
    def test_values_match_reference(self, case):
        rng = np.random.default_rng(21)
        bank = FunctionalBank(ALL_STATS)
        for _ in range(30):
            if case == "gaps":
                values = rng.standard_normal(rng.integers(2, 50))
                values[rng.random(values.size) < 0.3] = np.nan
            elif case == "single":
                values = np.full(rng.integers(1, 6), np.nan)
                values[rng.integers(0, values.size)] = rng.standard_normal()
            elif case == "all_nan":
                values = np.full(rng.integers(1, 6), np.nan)
            elif case == "empty":
                values = np.empty(0)
            else:  # alternating defined frames: no adjacent pair
                values = rng.standard_normal(rng.integers(3, 20))
                values[1::2] = np.nan
            got = np.array(bank.summarize(values))
            np.testing.assert_array_equal(got.view(np.int64),
                                          reference_apply(values, ALL_STATS).view(np.int64))

    def test_order_statistics_match_numpy_bit_for_bit(self):
        """Lengths 1 to 5000 (each one up to 600, then every 37th), on data
        of four kinds in turn: distinct values, heavy ties, only -0.0 and
        0.0, and signed zeros tied with +-1."""
        rng = np.random.default_rng(23)
        pcts = (0.5, 10.0, 50.0, 99.5)
        bank = FunctionalBank(("min", "max", "median", *(f"p{p:g}" for p in pcts)))
        for n in [*range(1, 601), *range(601, 5000, 37), 5000]:
            kind = n % 4
            if kind == 0:
                values = rng.standard_normal(n)
            elif kind == 1:
                values = rng.integers(0, 3, n) * 0.1
            elif kind == 2:
                values = rng.choice([0.0, -0.0], n)
            else:
                values = rng.choice([0.0, -0.0, 1.0, -1.0], n)
            want = [values.min(), values.max(), np.median(values),
                    *(np.percentile(values, p) for p in pcts)]
            got = bank.summarize(values)
            assert np.array(got).view(np.int64).tolist() == np.array(want).view(np.int64).tolist(), n

    @pytest.mark.parametrize("bad", [np.inf, -np.inf])
    def test_infinite_values_raise(self, bad):
        with pytest.raises(ValueError, match="non-finite"):
            FunctionalBank(("mean",)).summarize(np.array([1.0, bad, np.nan]), "x")
        with pytest.raises(ValueError, match="non-finite"):
            Family("x", (("s", "text", ("mean",)),), None).vector({"s": np.array([0.0, bad])})

    def test_bank_resolves_when_built(self):
        with pytest.raises(ValueError, match="unknown statistic 'kurtosis'"):
            FunctionalBank(("mean", "kurtosis"))
        with pytest.raises(ValueError, match="kurtosis"):
            Family("x", (("s", "text", ("kurtosis",)),), lambda a: None)

    def test_config_with_unknown_statistic_raises(self):
        cfg = PipelineConfig(lld_functionals=("kurtosis",))
        with pytest.raises(ValueError, match="kurtosis"):
            feature_names_for(cfg)
        with pytest.raises(ValueError, match="kurtosis"):
            feature_dictionary(cfg)


def per_entry_vector(family, values):
    """Family.vector as it was: a FunctionalBank, a FrameSeries and a
    FeatureVector per series entry."""
    out = []
    for entry in family.entries:
        if len(entry) == 2:
            out.append(values[entry[0]])
        else:
            series = FrameSeries(entry[0], values[entry[0]], 0.0)
            out.extend(apply_bank(series, FunctionalBank(entry[2])).values)
    return np.asarray(out, dtype=np.float64)


class TestFamilyVectorMatchesPerEntryPath:
    @pytest.fixture()
    def captured(self, monkeypatch):
        """Each Family.vector call's family, values and result."""
        calls = []
        vector = Family.vector

        def spy(family, values, source_id=""):
            calls.append((family, values, vector(family, values, source_id)))
            return calls[-1][2]

        monkeypatch.setattr(Family, "vector", spy)
        return calls

    @pytest.mark.parametrize("seconds", [0.025, 0.3, 2.0])
    def test_acoustic_families(self, captured, seconds):
        rng = np.random.default_rng(31)
        t = np.arange(int(seconds * SR)) / SR
        x = 0.5 * np.sin(2 * np.pi * 150.0 * t) * (t % 0.5 < 0.3) + 0.01 * rng.normal(size=t.size)
        a = Analysis(AudioBuffer(x, SR), AcousticConfig())
        for family in (GEMAPS, SPECTRAL, lld_family(ALL_STATS)):
            family.compute(a)
        assert len(captured) == 3
        for family, values, got in captured:
            np.testing.assert_array_equal(got.values.view(np.int64),
                                          per_entry_vector(family, values).view(np.int64))

    def test_coherence(self):
        rng = np.random.default_rng(33)
        emb = coherence.EmbeddingTable(3, {f"w{i}": rng.standard_normal(3) for i in range(6)})
        words = [f"w{j}" for j in rng.integers(0, 8, 40)]  # w6, w7 are out of vocabulary
        t = Transcript(tuple((Token(w, w), Token(v, v)) for w, v in zip(words, words[1:])))
        cf = coherence.coherence_features(t, emb)
        v, _ = coherence._phrase_matrix(t, emb)
        baseline = coherence._baseline(coherence._unit_rows(v))
        for q in coherence.ORDERS:
            series = coherence.coherence_series(t, emb, q)
            raw = apply_bank(FrameSeries("c", series, 0.0)).values
            norm = apply_bank(FrameSeries("c", series - baseline, 0.0)).values
            want = np.concatenate([raw, norm])
            got = np.array(list(cf.per_order[q].values()))
            assert list(cf.per_order[q]) == [*DEFAULT_BANK.stats,
                                             *(f"n_{s}" for s in DEFAULT_BANK.stats)]
            np.testing.assert_array_equal(got.view(np.int64), want.view(np.int64))


class TestFeatureVector:
    def test_rejects_duplicate_names(self):
        with pytest.raises(ValueError):
            FeatureVector(("a", "a"), np.array([1.0, 2.0]))

    def test_rejects_length_mismatch(self):
        with pytest.raises(ValueError):
            FeatureVector(("a",), np.array([1.0, 2.0]))

    def test_concat(self):
        a = FeatureVector(("x",), np.array([1.0]))
        b = FeatureVector(("y",), np.array([2.0]))
        c = concat_vectors([a, b], source_id="s")
        assert c.names == ("x", "y")
        assert c.source_id == "s"


def sine(freq, seconds=1.0, amp=0.7):
    t = np.arange(int(seconds * SR)) / SR
    return AudioBuffer(amp * np.sin(2 * np.pi * freq * t), SR, source_id=f"sine{freq}")


class TestGemapsCore:
    def test_golden_names_and_count(self):
        assert len(GEMAPS_FEATURE_NAMES) == 27
        fv = gemaps_core(sine(440))
        assert fv.names == GEMAPS_FEATURE_NAMES

    def test_sine_440_semitone_oracle(self):
        # 12 * log2(440 / 27.5) = 48 exactly
        fv = gemaps_core(sine(440))
        assert fv["f0_semitone_mean"] == pytest.approx(48.0, abs=0.1)
        assert fv["voiced_fraction"] > 0.95

    def test_silence(self):
        fv = gemaps_core(AudioBuffer(np.zeros(SR), SR))
        assert fv["voiced_fraction"] == 0.0
        assert np.isnan(fv["f0_semitone_mean"])
        assert np.isnan(fv["jitter_local"])
        assert np.isnan(fv["hnr_db"])
        assert fv["loudness_mean"] == 0.0

    def test_determinism_bit_identical(self):
        buf = sine(220)
        a = gemaps_core(buf)
        b = gemaps_core(buf)
        np.testing.assert_array_equal(a.values, b.values)
        assert a.names == b.names


class TestSpectralSet:
    def test_golden_names_and_count(self):
        assert len(SPECTRAL_FEATURE_NAMES) == 30
        fv = spectral_set(sine(1000))
        assert fv.names == SPECTRAL_FEATURE_NAMES

    def test_disjoint_from_gemaps(self):
        assert not set(SPECTRAL_FEATURE_NAMES) & set(GEMAPS_FEATURE_NAMES)

    def test_sine_1khz_centroid(self):
        fv = spectral_set(sine(1000))
        assert abs(fv["centroid_mean"] - 1000.0) <= 50.0

    def test_white_noise_flatness(self):
        rng = np.random.default_rng(4)
        buf = AudioBuffer(rng.normal(0, 0.3, SR), SR)
        fv = spectral_set(buf)
        assert fv["flatness_mean"] > 0.5

    def test_silence(self):
        fv = spectral_set(AudioBuffer(np.zeros(SR), SR))
        assert fv["zcr_mean"] == 0.0
        assert fv["rms_max"] == 0.0
        assert np.isnan(fv["tempo_bpm"])

    def test_one_frame_flux_is_nan(self):
        # 0.025 s holds one analysis frame, which has no predecessor to rise from
        fv = spectral_set(sine(1000, seconds=0.025))
        assert np.isnan(fv["flux_mean"]) and np.isnan(fv["flux_stddev"])
        assert np.isfinite(fv["centroid_mean"])

    def test_determinism_bit_identical(self):
        rng = np.random.default_rng(14)
        buf = AudioBuffer(rng.normal(0, 0.2, SR), SR)
        a = spectral_set(buf)
        b = spectral_set(buf)
        np.testing.assert_array_equal(a.values, b.values)
