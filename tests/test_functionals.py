"""Functional bank and named feature set tests."""

from __future__ import annotations

import numpy as np
import pytest

from voxfeat.acoustic import FrameSeries
from voxfeat.audio_io import AudioBuffer
from voxfeat.functionals import (
    GEMAPS_FEATURE_NAMES,
    SPECTRAL_FEATURE_NAMES,
    FeatureVector,
    FunctionalBank,
    apply_bank,
    concat_vectors,
    gemaps_core,
    spectral_set,
)

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
