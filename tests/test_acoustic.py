"""Descriptor tests: pitch, voice quality, spectra, rhythm."""

from __future__ import annotations

import math
import struct
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

import voxfeat.acoustic as acoustic
from voxfeat.acoustic import (
    BLOCK_FRAMES,
    AcousticConfig,
    Analysis,
    FrameSeries,
    Spectrum,
    analysis_frames,
    dct_basis,
    f0_track,
    frame_descriptors,
    mfcc,
    spectra,
)
from voxfeat.audio_io import AudioBuffer, frame_signal, load_wav
from voxfeat.errors import InvalidBandConfig, InvalidRange, SignalTooShort
from voxfeat.functionals import gemaps_core

SR = 16000


def sine(freq, seconds=1.0, sr=SR, amp=0.7):
    t = np.arange(int(seconds * sr)) / sr
    return AudioBuffer(amp * np.sin(2 * np.pi * freq * t), sr)


def alternating_period_signal(short=80, long=84, sr=SR):
    """Piecewise cosine with one cycle between prescribed peak positions,
    so peak-to-peak periods alternate exactly short/long samples."""
    periods, total, which = [], 0, 0
    while total < sr + 200:
        T = short if which == 0 else long
        periods.append(T)
        total += T
        which ^= 1
    peaks = np.concatenate([[0], np.cumsum(periods)])
    x = np.zeros(int(peaks[-1]) + 1)
    for p0, p1 in zip(peaks[:-1], peaks[1:]):
        n = int(p1 - p0)
        x[int(p0):int(p1)] = np.cos(2 * np.pi * np.arange(n) / n)
    return AudioBuffer(0.7 * x[:sr], sr)


def one_frame_spectrum(x, n_fft):
    """spectra of x as a single rectangular-window frame."""
    return spectra(frame_signal(AudioBuffer(x, SR), x.size, x.size, "rectangular"), n_fft)


# One-call forms of the descriptor kernels that frame_descriptors runs on
# each block, so that hand-made spectra can test the kernels directly.

def freqs_of(spec):
    """The frequency of each bin of a Spectrum."""
    return np.arange(spec.magnitudes.shape[-1]) * spec.bin_hz


def spectral_shape(spec):
    mags = spec.magnitudes
    return acoustic._spectral_shape(mags, mags ** 2, freqs_of(spec))[0]


def band_slope(spec, lo, hi):
    floored = np.maximum(spec.magnitudes ** 2, acoustic.SPECTRAL_FLOOR)
    return acoustic._band_slope(floored, freqs_of(spec), lo, hi)


def alpha_ratio(spec):
    return acoustic._alpha_ratio(spec.magnitudes ** 2, freqs_of(spec))


def contrast(spec):
    return acoustic._contrast(spec.magnitudes, freqs_of(spec))


def hammarberg(spec):
    return acoustic._hammarberg(spec.magnitudes, freqs_of(spec))


def line_fit(spec):
    """(slope, intercept) of each frame, stacked on the last axis."""
    return np.stack(acoustic._line_fit(spec.magnitudes, freqs_of(spec)), axis=-1)


def flux(spec):
    """Onset strength of each frame of a (frames, bins) spectrogram, 0 for the first."""
    logs = np.log(np.maximum(spec.magnitudes, acoustic.SPECTRAL_FLOOR))
    return acoustic._log_rises(logs, logs[:1])


class TestSpectra:
    def test_zero_frame(self):
        spec = one_frame_spectrum(np.zeros(64), 64)
        np.testing.assert_array_equal(spec.magnitudes, np.zeros((1, 33)))
        assert spec.bin_hz == SR / 64

    def test_single_bin_tone(self):
        n_fft = 128
        k = 9
        frame = np.cos(2 * np.pi * k * np.arange(n_fft) / n_fft)
        mags = one_frame_spectrum(frame, n_fft).magnitudes[0]
        peak = mags[k]
        mags[k] = 0.0
        assert peak > 0
        assert mags.max() < 1e-10 * peak

    def test_parseval_random_sweep(self):
        rng = np.random.default_rng(42)
        n_fft = 64
        grid = np.arange(n_fft)
        for _ in range(50):
            x = rng.standard_normal(64)
            m = one_frame_spectrum(x, n_fft).magnitudes[0]
            # reconstruct the full-transform energy from the half spectrum
            full = m[0] ** 2 + m[-1] ** 2 + 2 * np.sum(m[1:-1] ** 2)
            # oracle: direct O(n^2) DFT summation
            direct = 0.0
            for k in range(n_fft):
                c = np.sum(x * np.exp(-2j * np.pi * k * grid / n_fft))
                direct += abs(c) ** 2
            assert abs(full - direct) / direct < 1e-9
            assert abs(full - n_fft * np.sum(x * x)) / full < 1e-9

    def test_default_fft_size_is_next_power_of_two(self):
        rng = np.random.default_rng(4)
        buf = AudioBuffer(rng.standard_normal(2000), SR)
        for frame_len, n_fft in ((400, 512), (512, 512), (513, 1024)):
            fm = frame_signal(buf, frame_len, 160)
            spec = spectra(fm)
            assert spec.magnitudes.shape == (fm.frames.shape[0], n_fft // 2 + 1)
            assert spec.bin_hz == SR / n_fft
            np.testing.assert_array_equal(spec.magnitudes, spectra(fm, n_fft).magnitudes)

    def test_batch_matches_single(self):
        rng = np.random.default_rng(5)
        buf = AudioBuffer(rng.standard_normal(2000), SR)
        fm = frame_signal(buf, 400, 160)
        batch = spectra(fm, 512)
        for i, spec in enumerate(batch):
            single = spectra(type(fm)(fm.frames[i:i + 1], fm.raw[i:i + 1], 400, 160, SR), 512)
            np.testing.assert_allclose(spec.magnitudes, single.magnitudes[0], rtol=1e-12)


class TestF0Track:
    def test_pure_sine_440(self):
        f0 = f0_track(sine(440))
        voiced = f0.values[~np.isnan(f0.values)]
        assert voiced.size == f0.values.size  # fully voiced
        assert np.all(np.abs(voiced - 440) <= 2.0)

    def test_white_noise_mostly_unvoiced(self):
        rng = np.random.default_rng(7)
        buf = AudioBuffer(rng.normal(0, 0.3, SR), SR)
        f0 = f0_track(buf)
        assert np.mean(np.isnan(f0.values)) >= 0.90

    def test_range_contract(self):
        f0 = f0_track(sine(100), f_min=150, f_max=500)
        voiced = f0.values[~np.isnan(f0.values)]
        assert np.all(voiced >= 150)

    def test_silence_unvoiced(self):
        f0 = f0_track(AudioBuffer(np.zeros(SR), SR))
        assert np.all(np.isnan(f0.values))

    def test_amplitude_invariance_exact(self):
        base = sine(220)
        ref = f0_track(base)
        for c in (0.5, 2.0):
            scaled = f0_track(AudioBuffer(c * base.samples, SR))
            np.testing.assert_array_equal(scaled.values, ref.values)

    def test_determinism(self):
        buf = sine(180)
        a = f0_track(buf)
        b = f0_track(buf)
        np.testing.assert_array_equal(a.values, b.values)

    def test_invalid_range(self):
        with pytest.raises(InvalidRange):
            f0_track(sine(200), f_min=300, f_max=200)
        with pytest.raises(InvalidRange):
            f0_track(sine(200), f_min=60, f_max=SR)


def n_cycles(buf):
    """Within-region periods of the cycles Analysis picks (one shimmer term each)."""
    return Analysis(buf, AcousticConfig()).cycle_terms[1].size


class TestJitterShimmer:
    def test_perfect_sine_integer_period(self):
        # period exactly 80 samples; the gated copy (three 0.5 s bursts, 0.3 s
        # silences) must not pair cycles across its silences
        burst, gap = sine(200, seconds=0.5).samples, np.zeros(int(0.3 * SR))
        gated = AudioBuffer(np.concatenate([burst, gap, burst, gap, burst]), SR)
        for buf in (sine(200), gated):
            g = gemaps_core(buf)
            f0 = f0_track(buf).values
            assert n_cycles(buf) > 100
            assert g["jitter_local"] < 0.001
            assert g["shimmer_local"] < 0.01
            assert abs(f0[~np.isnan(f0)].mean() - 200) < 2

    def test_perfect_sine_fractional_period(self):
        # 440 Hz at 16 kHz: period 36.36 samples, needs sub-sample peaks
        g = gemaps_core(sine(440))
        assert g["jitter_local"] < 0.001
        assert g["shimmer_local"] < 0.01

    def test_alternating_periods_oracle(self):
        # oracle: |80-84| alternating -> mean |dT| = 4, mean T = 82
        buf = alternating_period_signal()
        assert n_cycles(buf) > 50
        assert abs(gemaps_core(buf)["jitter_local"] - 4.0 / 82.0) <= 0.01

    def test_noise_degenerates_to_nan(self):
        rng = np.random.default_rng(3)
        buf = AudioBuffer(rng.normal(0, 0.3, SR), SR)
        g = gemaps_core(buf)
        if n_cycles(buf) < 2:
            assert np.isnan(g["jitter_local"])
            assert np.isnan(g["shimmer_local"])

    def test_harmonic_sine_hnr_higher_than_noise(self):
        rng = np.random.default_rng(9)
        clean = sine(200)
        noisy = AudioBuffer(clean.samples + rng.normal(0, 0.2, SR), SR)
        assert gemaps_core(clean)["hnr_db"] > gemaps_core(noisy)["hnr_db"]


class TestMfcc:
    def test_zero_spectrum_constant_dct(self):
        spec = Spectrum(np.zeros(257), SR / 512)
        coeffs = mfcc(spec, n_mels=26, n_coeffs=26)
        assert coeffs[0] == pytest.approx(np.sqrt(26) * np.log(1e-10), rel=1e-12)
        np.testing.assert_allclose(coeffs[1:], 0.0, atol=1e-12)

    def test_determinism(self):
        rng = np.random.default_rng(1)
        mags = np.abs(rng.standard_normal(257))
        spec = Spectrum(mags, SR / 512)
        np.testing.assert_array_equal(mfcc(spec), mfcc(spec))

    def test_inverse_dct_recovers_log_mels(self):
        from scipy.fft import idct
        rng = np.random.default_rng(2)
        spec = Spectrum(np.abs(rng.standard_normal(257)) + 0.1, SR / 512)
        coeffs = mfcc(spec, n_mels=20, n_coeffs=20)
        from voxfeat.acoustic import SPECTRAL_FLOOR, mel_filterbank
        bank = mel_filterbank(20, 257, SR / 512, 0.0, SR / 2)
        log_mels = np.log(np.maximum(bank @ (spec.magnitudes ** 2), SPECTRAL_FLOOR))
        recovered = idct(coeffs, type=2, norm="ortho")
        np.testing.assert_allclose(recovered, log_mels, atol=1e-9)

    def test_global_scale_shifts_only_c0(self):
        rng = np.random.default_rng(6)
        mags = np.abs(rng.standard_normal(257)) + 0.5  # well above the floor
        a = mfcc(Spectrum(mags, SR / 512))
        b = mfcc(Spectrum(3.0 * mags, SR / 512))
        np.testing.assert_allclose(b[1:], a[1:], atol=1e-6)
        assert abs(b[0] - a[0]) > 0.1

    def test_band_validation(self):
        spec = Spectrum(np.ones(257), SR / 512)
        with pytest.raises(InvalidBandConfig, match="n_mels >= 1"):
            mfcc(spec, n_mels=0, n_coeffs=0)

    @pytest.mark.parametrize("n_coeffs, bound", [
        (0, "n_coeffs >= 1"), (-3, "n_coeffs >= 1"), (11, "n_coeffs <= n_mels")])
    def test_coefficient_count_outside_one_to_n_mels(self, n_coeffs, bound):
        spec = Spectrum(np.ones(257), SR / 512)
        with pytest.raises(InvalidBandConfig, match=bound):
            mfcc(spec, n_mels=10, n_coeffs=n_coeffs)

    @pytest.mark.parametrize("mags", [np.ones(1), np.ones((3, 1))])
    def test_one_bin_spectrum_rejected(self, mags):
        # a one-sample frame's spectrum: no band has width, so no coefficient exists
        with pytest.raises(InvalidBandConfig, match=">= 2 bins, got 1"):
            mfcc(Spectrum(mags, 16000.0), 4, 2)

    @pytest.mark.parametrize("rows", [1, 69, 600])
    def test_basis_matches_scipy_dct(self, rows):
        from scipy.fft import dct
        rng = np.random.default_rng(rows)
        for n in (20, 26):
            logs = rng.normal(-8.0, 6.0, (rows, n))  # log-mel energies
            expected = dct(logs, type=2, norm="ortho", axis=-1)
            got = logs @ dct_basis(n, n).T
            scale = np.abs(expected).max(axis=1, keepdims=True)
            assert np.all(np.abs(got - expected) <= 1e-12 * scale)

    def test_basis_is_orthonormal(self):
        for n in (1, 2, 13, 20, 26, 40):
            basis = dct_basis(n, n)
            np.testing.assert_allclose(basis @ basis.T, np.eye(n), rtol=0, atol=1e-14)
            np.testing.assert_array_equal(dct_basis(n, n // 2 + 1), basis[:n // 2 + 1])

    def test_leading_coefficients_equal_the_full_set(self):
        spec = mixed_spectrogram()
        full = mfcc(spec, 26, 26)
        # a single coefficient takes BLAS's matrix-vector path, which sums
        # in another order, so equality holds to rounding, not to the bit
        for k in (1, 4, 13, 25):
            assert_rel(mfcc(spec, 26, k), full[:, :k], rtol=8 * np.finfo(float).eps)


class TestSpectralShape:
    def test_point_mass(self):
        mags = np.zeros(101)
        mags[10] = 2.0
        shape = spectral_shape(Spectrum(mags, 100.0))
        assert shape["centroid_hz"] == 1000.0
        assert shape["bandwidth_hz"] == 0.0
        assert shape["rolloff_hz"] == 1000.0
        assert shape["flatness"] < 1e-6

    def test_flat_spectrum(self):
        mags = np.full(64, 0.3)
        spec = Spectrum(mags, 50.0)
        shape = spectral_shape(spec)
        assert shape["flatness"] == 1.0
        assert shape["centroid_hz"] == pytest.approx(np.mean(freqs_of(spec)))

    def test_two_bin_oracle(self):
        # equal bins at 500 and 1500 Hz: centroid 1000, bandwidth 500
        mags = np.zeros(4)
        mags[1] = 1.0
        mags[3] = 1.0
        shape = spectral_shape(Spectrum(mags, 500.0))
        assert shape["centroid_hz"] == pytest.approx(1000.0)
        assert shape["bandwidth_hz"] == pytest.approx(500.0)

    def test_silence_nan_contract(self):
        shape = spectral_shape(Spectrum(np.zeros(33), 100.0))
        assert all(np.isnan(v) for v in shape.values())

    def test_bounds_random_sweep(self):
        rng = np.random.default_rng(12)
        for _ in range(100):
            mags = np.abs(rng.standard_normal(129))
            spec = Spectrum(mags, SR / 256)
            shape = spectral_shape(spec)
            assert 0.0 <= shape["flatness"] <= 1.0
            assert shape["rolloff_hz"] <= freqs_of(spec)[-1]
            assert shape["bandwidth_hz"] >= 0.0


class TestSpectralContrast:
    def test_flat_spectrum_zero(self):
        spec = Spectrum(np.full(257, 0.5), SR / 512)
        np.testing.assert_allclose(contrast(spec), 0.0, atol=1e-12)

    def test_zero_spectrum_zero(self):
        spec = Spectrum(np.zeros(257), SR / 512)
        np.testing.assert_allclose(contrast(spec), 0.0, atol=1e-12)

    def test_single_peak_oracle(self):
        # one 1.0 bin among 1e-6 bins: contrast = ln(1.0 / 1e-6) = 13.8155
        mags = np.full(257, 1e-6)
        bin_hz = SR / 512
        peak_bin = int(300 / bin_hz)  # inside band 0 [200, 400)
        mags[peak_bin] = 1.0
        assert contrast(Spectrum(mags, bin_hz))[0] == pytest.approx(np.log(1.0 / 1e-6), abs=0.05)


def energy_rows(x, frame_len, hop, window="rectangular"):
    """The descriptor pass's zcr and rms series of x cut into frames."""
    cfg = AcousticConfig(frame_seconds=frame_len / SR, hop_seconds=hop / SR, window=window)
    rows = frame_descriptors(AudioBuffer(x, SR), cfg)
    return rows["zcr"], rows["rms"]


class TestEnergyRows:
    def test_constant_positive_zcr(self):
        assert energy_rows(np.full(100, 0.5), 100, 100)[0][0] == 0.0

    def test_alternating_sign_zcr(self):
        assert energy_rows(np.tile([1.0, -1.0], 50), 100, 100)[0][0] == 1.0

    def test_rms_hand_oracle(self):
        # sqrt((9 + 16) / 2) = 3.53553...
        assert energy_rows(np.array([3.0, 4.0]), 2, 2)[1][0] == pytest.approx(np.sqrt(12.5),
                                                                               rel=1e-12)

    def test_zcr_of_raw_and_rms_of_windowed_samples(self):
        rng = np.random.default_rng(8)
        x = rng.standard_normal(5000)
        zcr, rms = energy_rows(x, 256, 128, "hann")
        fm = frame_signal(AudioBuffer(x, SR), 256, 128, "hann")
        assert np.all((zcr >= 0) & (zcr <= 1))
        np.testing.assert_array_equal(
            zcr, [np.count_nonzero(np.diff(np.sign(f)) != 0) / 255 for f in fm.raw])
        np.testing.assert_allclose(rms, [np.sqrt(np.mean(f ** 2)) for f in fm.frames],
                                   rtol=1e-12)


class TestFluxOnset:
    def test_constant_spectrogram(self):
        np.testing.assert_array_equal(flux(Spectrum(np.ones((5, 33)), 100.0)), np.zeros(5))

    def test_silence_then_tone_spike(self):
        mags = np.zeros((4, 33))
        mags[2:, 5] = 1.0  # two silent frames, then two frames of one tone bin
        rises = flux(Spectrum(mags, 100.0))
        assert rises[0] == 0.0
        assert rises[1] == 0.0
        assert rises[2] > 0.0
        assert rises[3] == 0.0

    def test_decreasing_energy(self):
        mags = np.array([1.0, 0.5, 0.25])[:, None] * np.ones(33)
        np.testing.assert_array_equal(flux(Spectrum(mags, 100.0)), np.zeros(3))

    def test_too_few_frames(self):
        # on the Analysis path: no frame at all is an error, one frame has
        # no predecessor and so no onset strength
        cfg = AcousticConfig()
        frame_len = int(round(cfg.frame_seconds * SR))
        with pytest.raises(SignalTooShort):
            Analysis(AudioBuffer(np.ones(frame_len - 1), SR), cfg).descriptors
        one = Analysis(AudioBuffer(np.ones(frame_len), SR), cfg).descriptors
        assert one["flux"].shape == (1,)
        assert np.isnan(one["flux"][0])


class TestTempo:
    def make_impulse_onset(self, period_s, hop_s=0.010, total_s=8.0):
        env = np.zeros(int(total_s / hop_s))
        env[::int(round(period_s / hop_s))] = 1.0
        return env

    def test_120_bpm(self):
        assert abs(acoustic._tempo_bpm(self.make_impulse_onset(0.5), 0.010) - 120.0) <= 1.0

    def test_60_bpm(self):
        assert abs(acoustic._tempo_bpm(self.make_impulse_onset(1.0), 0.010) - 60.0) <= 1.0

    def test_all_zero_envelope(self):
        assert np.isnan(acoustic._tempo_bpm(np.zeros(500), 0.010))

    def test_short_input_degrades(self):
        tempo = acoustic._tempo_bpm(self.make_impulse_onset(0.5, total_s=2.0), 0.010)
        assert abs(tempo - 120.0) <= 1.0


class TestLineFit:
    def test_flat(self):
        slope, intercept = line_fit(Spectrum(np.full(33, 0.7), 100.0))
        assert slope == pytest.approx(0.0, abs=1e-12)
        assert intercept == pytest.approx(0.7, rel=1e-12)

    def test_linear_recovery(self):
        spec_freqs = np.arange(33) * 100.0
        slope, intercept = line_fit(Spectrum(0.002 * spec_freqs + 0.5, 100.0))
        assert slope == pytest.approx(0.002, abs=1e-9)
        assert intercept == pytest.approx(0.5, abs=1e-9)


class TestLineFitOracle:
    """_line_fit is the closed-form line on centred frequencies, not
    np.polyfit's solve: equal to rounding, and exact where the answer is."""

    freqs = np.arange(257) * (SR / 512)

    def test_matches_polyfit(self):
        # random magnitudes on a falling trend, so that no slope is near 0,
        # where a relative comparison would measure polyfit's own rounding
        rng = np.random.default_rng(3)
        mags = rng.random((200, self.freqs.size)) + np.linspace(2.0, 0.0, self.freqs.size)
        slope, intercept = acoustic._line_fit(mags, self.freqs)
        want = np.polyfit(self.freqs, mags.T, 1)
        np.testing.assert_allclose(slope, want[0], rtol=1e-12, atol=0)
        np.testing.assert_allclose(intercept, want[1], rtol=1e-12, atol=0)

    def test_matches_the_exact_fit(self):
        # on plain random magnitudes, slopes near 0 included, against the
        # least-squares line in exact rational arithmetic
        mags = np.random.default_rng(5).random((8, self.freqs.size))
        slope, intercept = acoustic._line_fit(mags, self.freqs)
        xs = [Fraction(float(f)) for f in self.freqs]
        x_mean = sum(xs) / len(xs)
        for row, got_slope, got_intercept in zip(mags, slope, intercept):
            ys = [Fraction(float(v)) for v in row]
            y_mean = sum(ys) / len(ys)
            exact = (sum((x - x_mean) * (y - y_mean) for x, y in zip(xs, ys))
                     / sum((x - x_mean) ** 2 for x in xs))
            assert abs(Fraction(float(got_slope)) - exact) <= 1e-13 * abs(exact)
            exact_intercept = y_mean - exact * x_mean
            assert abs(Fraction(float(got_intercept)) - exact_intercept) <= (
                1e-13 * abs(exact_intercept))

    @pytest.mark.parametrize("sr, n_fft", [(SR, 512), (SR, 2048), (44100, 2048), (8000, 256)])
    def test_flat_and_silent_frames_have_slope_exactly_zero(self, sr, n_fft):
        # levels whose mean over the bins rounds off the level itself as well
        rng = np.random.default_rng(4)
        levels = np.concatenate([[0.0], rng.random(300) * 10.0 ** rng.integers(-6, 3, 300)])
        freqs = np.arange(n_fft // 2 + 1) * (sr / n_fft)
        mags = np.repeat(levels[:, None], freqs.size, axis=1)
        slope, intercept = acoustic._line_fit(mags, freqs)
        assert np.all(slope == 0.0)
        np.testing.assert_allclose(intercept, levels, rtol=1e-14, atol=0)


class TestDeterminismAndFraming:
    def test_frames_parseval_through_pipeline(self):
        rng = np.random.default_rng(21)
        buf = AudioBuffer(rng.standard_normal(8000), SR)
        fm = analysis_frames(buf, AcousticConfig())
        for m, frame in zip(spectra(fm, 512).magnitudes[:10], fm.frames[:10]):
            full = m[0] ** 2 + m[-1] ** 2 + 2 * np.sum(m[1:-1] ** 2)
            assert abs(full - 512 * np.sum(frame ** 2)) / max(full, 1e-30) < 1e-9


# ---------------------------------------------------------------------------
# one code path for one frame and for a whole spectrogram
# ---------------------------------------------------------------------------

def assert_rel(actual, expected, rtol=1e-12):
    """Equal to rtol relative to the largest magnitude of the expected values;
    NaN only where expected is NaN."""
    actual, expected = np.asarray(actual, dtype=float), np.asarray(expected, dtype=float)
    assert actual.shape == expected.shape
    np.testing.assert_array_equal(np.isnan(actual), np.isnan(expected))
    finite = ~np.isnan(expected)
    scale = max(np.max(np.abs(expected[finite]), initial=0.0), 1e-300)
    assert np.all(np.abs(actual[finite] - expected[finite]) <= rtol * scale)


def mixed_spectrogram(n_bins=257, seed=31):
    """Random rows, silent rows and flat rows, as (frames, bins) at 16 kHz."""
    rng = np.random.default_rng(seed)
    rows = [np.abs(rng.standard_normal(n_bins)) * rng.uniform(0.01, 3.0) for _ in range(12)]
    rows += [np.zeros(n_bins), np.full(n_bins, 0.4), np.zeros(n_bins), np.full(n_bins, 2.0)]
    rows += [np.exp(rng.normal(-3, 2, n_bins)) for _ in range(4)]  # wide dynamic range
    order = rng.permutation(len(rows))
    return Spectrum(np.array(rows)[order], SR / (2 * (n_bins - 1)))


def by_rows(fn, spec):
    return [fn(row) for row in spec]


class TestVectorizedDescriptors:
    """Each descriptor on a (frames, bins) spectrum equals its one-frame
    result row by row."""

    spec = mixed_spectrogram()

    def test_iterating_yields_one_frame_spectra(self):
        rows = list(self.spec)
        assert len(rows) == self.spec.magnitudes.shape[0]
        assert all(r.magnitudes.ndim == 1 and r.bin_hz == self.spec.bin_hz for r in rows)
        with pytest.raises(TypeError):
            iter(rows[0])

    def test_mfcc(self):
        for n_coeffs in (5, 13, 26):
            assert_rel(mfcc(self.spec, 26, n_coeffs),
                       by_rows(lambda s: mfcc(s, 26, n_coeffs), self.spec))

    def test_spectral_shape(self):
        whole = spectral_shape(self.spec)
        rows = by_rows(spectral_shape, self.spec)
        for key, values in whole.items():
            assert_rel(values, [r[key] for r in rows])
        flat = np.flatnonzero((np.ptp(self.spec.magnitudes, axis=1) == 0)
                              & (self.spec.magnitudes[:, 0] > 0))
        assert flat.size == 2 and np.all(whole["flatness"][flat] == 1.0)
        silent = self.spec.magnitudes.sum(axis=1) == 0
        assert all(np.all(np.isnan(v[silent])) for v in whole.values())

    def test_spectral_contrast(self):
        assert_rel(contrast(self.spec), by_rows(contrast, self.spec))

    def test_spectral_contrast_with_empty_band(self):
        # Nyquist at 1 kHz: band 2 (800-1600 Hz) is clipped to 800-1000 Hz,
        # and band 3 starts at 1.6 kHz, above Nyquist
        spec = Spectrum(self.spec.magnitudes, 1000.0 / 256)
        whole = contrast(spec)
        assert_rel(whole, by_rows(contrast, spec))
        assert np.all(np.isnan(whole[:, 3])) and not np.any(np.isnan(whole[:, :3]))

    def test_line_fit(self):
        whole = line_fit(self.spec)
        rows = np.array(by_rows(line_fit, self.spec))
        for k in range(2):
            assert_rel(whole[:, k], rows[:, k])

    def test_band_slope_alpha_hammarberg(self):
        for fn in (lambda s: band_slope(s, 0.0, 500.0),
                   lambda s: band_slope(s, 500.0, 1500.0),
                   alpha_ratio, hammarberg):
            assert_rel(fn(self.spec), by_rows(fn, self.spec))

    def test_flux(self):
        whole = flux(self.spec)
        mags = self.spec.magnitudes
        pairs = [flux(Spectrum(mags[i - 1: i + 1], self.spec.bin_hz))[1]
                 for i in range(1, mags.shape[0])]
        assert whole[0] == 0.0
        assert_rel(whole[1:], pairs)


# ---------------------------------------------------------------------------
# the descriptor pass over blocks of frames
# ---------------------------------------------------------------------------

BLOCK_SR = 8000  # 200-sample frames, 80-sample hop


def block_signal(n_frames, seed=5):
    """A gated gliding tone in noise with a digitally silent stretch (silent
    frames give NaN shape rows), exactly n_frames frames long at BLOCK_SR."""
    rng = np.random.default_rng(seed)
    n = 200 + (n_frames - 1) * 80
    t = np.arange(n) / BLOCK_SR
    gate = np.sin(2 * np.pi * 0.9 * t) > -0.3
    x = 0.5 * gate * np.sin(2 * np.pi * (150 + 40 * np.sin(2 * np.pi * 0.4 * t)) * t)
    x += rng.normal(0, 0.01, n)
    x[n // 3: n // 3 + 1200] = 0.0
    return AudioBuffer(x, BLOCK_SR)


def same_bytes(a, b):
    return a.shape == b.shape and a.tobytes() == b.tobytes()


class TestBlockPass:
    """frame_descriptors reduces each block of frames to its rows; the block
    size changes no bit of any series."""

    config = AcousticConfig()

    @pytest.mark.parametrize("n_frames", [
        1, 2, 100, BLOCK_FRAMES - 1,
        *(BLOCK_FRAMES * k + extra for k in (1, 2) for extra in (1, 17, 63)),
    ])
    def test_block_size_changes_no_series(self, n_frames, monkeypatch):
        buf = block_signal(n_frames)
        blocked = frame_descriptors(buf, self.config)
        f0 = f0_track(buf).values
        monkeypatch.setattr(acoustic, "BLOCK_FRAMES", n_frames + 1)
        whole = frame_descriptors(buf, self.config)
        assert blocked.keys() == whole.keys()
        for name, values in whole.items():
            assert values.shape[0] == n_frames
            assert same_bytes(blocked[name], values), name
        assert same_bytes(f0, f0_track(buf).values)

    def test_equals_the_whole_spectrogram(self):
        """Every series, flux across both block boundaries included, equals
        its descriptor function on the whole recording's spectrogram."""
        cfg = self.config
        buf = block_signal(2 * BLOCK_FRAMES + 17)
        frames = analysis_frames(buf, cfg)
        spec = spectra(frames, cfg.n_fft)
        shape = spectral_shape(spec)
        poly = line_fit(spec)
        raw = frames.raw
        expected = {
            "zcr": (raw[:, :-1] * raw[:, 1:] < 0).sum(axis=1) / (frames.frame_len - 1),
            "rms": np.sqrt(np.mean(frames.frames ** 2, axis=1)),
            **{name: shape[f"{name}_hz"] for name in ("centroid", "bandwidth", "rolloff")},
            "flatness": shape["flatness"],
            "mfcc": mfcc(spec, cfg.n_mels, cfg.n_mels),
            "contrast": contrast(spec),
            "poly_slope": poly[:, 0],
            "poly_intercept": poly[:, 1],
            "slope_0_500": band_slope(spec, 0.0, 500.0),
            "slope_500_1500": band_slope(spec, 500.0, 1500.0),
            "alpha_ratio": alpha_ratio(spec),
            "hammarberg": hammarberg(spec),
            "flux": flux(spec),
        }
        got = frame_descriptors(buf, cfg)
        assert got.keys() == expected.keys()
        for name, values in expected.items():
            assert same_bytes(got[name], values), name
        assert np.isnan(got["centroid"]).any()
        assert np.all(got["flux"][[BLOCK_FRAMES, 2 * BLOCK_FRAMES]] > 0)

    def test_flux_below_two_frames_is_nan(self):
        assert np.all(np.isnan(frame_descriptors(block_signal(1), self.config)["flux"]))
        two = frame_descriptors(block_signal(2), self.config)["flux"]
        assert two[0] == 0.0 and np.isfinite(two[1])


def reference_f0(buf, f_min=60.0, f_max=500.0, hop_seconds=0.010, threshold=0.15):
    """The per-frame lag picker f0_track replaced, unchanged: a Python loop
    over frames on an FFT of next_pow2(2 * chunk) points."""
    sr = buf.sample_rate_hz
    x = buf.samples
    tau_min = max(2, int(sr / f_max))
    tau_max = int(np.ceil(sr / f_min))
    w = tau_max
    chunk = w + tau_max
    hop = int(round(hop_seconds * sr))
    n = x.size
    if n < chunk:
        return np.empty(0)
    n_frames = 1 + (n - chunk) // hop
    idx = np.arange(chunk)[None, :] + hop * np.arange(n_frames)[:, None]
    segs = x[idx]
    n_fft = 1 << (2 * chunk - 1).bit_length()
    spec_full = np.fft.rfft(segs, n_fft, axis=1)
    spec_head = np.fft.rfft(segs[:, :w], n_fft, axis=1)
    cross = np.fft.irfft(np.conj(spec_head) * spec_full, n_fft, axis=1)[:, : tau_max + 1]
    sq = segs * segs
    csum = np.concatenate([np.zeros((n_frames, 1)), np.cumsum(sq, axis=1)], axis=1)
    taus = np.arange(tau_max + 1)
    energy_0 = csum[:, w][:, None]
    energy_tau = csum[:, taus + w] - csum[:, taus]
    diff = np.maximum(energy_0 + energy_tau - 2.0 * cross, 0.0)
    run = np.cumsum(diff[:, 1:], axis=1)
    dp = np.ones_like(diff)
    positive = run > 0
    dp[:, 1:] = np.where(positive, diff[:, 1:] * taus[1:] / np.where(positive, run, 1.0), 1.0)

    f0 = np.full(n_frames, np.nan)
    for i in range(n_frames):
        row = dp[i]
        tau = -1
        below = np.flatnonzero(row[tau_min:tau_max] < threshold)
        if below.size:
            t = tau_min + int(below[0])
            while t + 1 <= tau_max - 1 and row[t + 1] < row[t]:
                t += 1
            tau = t
        else:
            t = tau_min + int(np.argmin(row[tau_min: tau_max + 1]))
            if row[t] < threshold:
                tau = t
        if tau < 0:
            continue
        if 1 <= tau < tau_max:
            a, b, c = row[tau - 1], row[tau], row[tau + 1]
            denom = a - 2 * b + c
            delta = float(np.clip(0.5 * (a - c) / denom, -0.5, 0.5)) if denom != 0 else 0.0
        else:
            delta = 0.0
        freq = sr / (tau + delta)
        if f_min <= freq <= f_max:
            f0[i] = freq
    return f0


class TestF0MatchesReferencePicker:
    """The batched, array-based lag pick equals the per-frame loop."""

    def check(self, buf, **kwargs):
        got = f0_track(buf, **kwargs).values
        want = reference_f0(buf, **kwargs)
        np.testing.assert_array_equal(np.isnan(got), np.isnan(want))
        voiced = ~np.isnan(want)
        np.testing.assert_allclose(got[voiced], want[voiced], rtol=1e-12, atol=0)
        return voiced

    def test_noise(self):
        rng = np.random.default_rng(17)
        self.check(AudioBuffer(rng.normal(0, 0.3, SR), SR))
        self.check(AudioBuffer(rng.normal(0, 0.3, SR), SR), threshold=0.4)

    def test_sines(self):
        for freq in (75.0, 123.4, 220.0, 440.0, 490.0):
            assert self.check(sine(freq)).mean() > 0.9
        self.check(sine(100.0), f_min=150.0, f_max=500.0)

    def test_silence(self):
        assert not self.check(AudioBuffer(np.zeros(SR), SR)).any()

    def test_dip_only_at_the_longest_lag(self):
        # a 320-sample pulse train dips at lag 320 = tau_max alone: the argmin
        # fallback picks it, uninterpolated, as exactly f_min
        x = np.zeros(SR)
        x[::320] = 1.0
        assert self.check(AudioBuffer(x, SR), f_min=50.0).all()
        assert np.all(f0_track(AudioBuffer(x, SR), f_min=50.0).values == 50.0)

    def test_gated_tone_over_two_blocks(self):
        rng = np.random.default_rng(23)
        seconds = 2.5 * BLOCK_FRAMES * 0.010
        t = np.arange(int(seconds * SR)) / SR
        gate = (np.sin(2 * np.pi * 0.7 * t) > -0.2).astype(float)
        tone = np.sin(2 * np.pi * (140 + 30 * np.sin(2 * np.pi * 0.3 * t)) * t)
        buf = AudioBuffer(0.5 * gate * tone + rng.normal(0, 0.01, t.size), SR)
        voiced = self.check(buf)
        assert voiced.size > 2 * BLOCK_FRAMES and 0.3 < voiced.mean() < 0.9


def reference_refine_peak(x, i):
    """The scalar parabolic refinement the cycle picker and HNR used."""
    if i <= 0 or i >= x.size - 1:
        return float(i), float(x[i])
    a, b, c = x[i - 1], x[i], x[i + 1]
    denom = a - 2 * b + c
    if denom == 0:
        return float(i), float(b)
    delta = float(np.clip(0.5 * (a - c) / denom, -0.5, 0.5))
    return i + delta, float(b - 0.25 * (a - c) * delta)


def reference_hnr(buf, f0):
    """The per-frame HNR loop hnr_series replaced, unchanged."""
    x, sr = buf.samples, buf.sample_rate_hz
    hop = int(round(f0.hop_seconds * sr))
    vals = np.full(f0.values.size, np.nan)
    for i, f in enumerate(f0.values):
        if np.isnan(f):
            continue
        start = i * hop
        period = sr / f
        lag = int(round(period))
        w = int(round(2 * period))
        if start + w + lag + 1 >= x.size or lag < 2:
            continue
        seg = x[start: start + w + lag + 1]
        base = seg[:w]
        norm0 = float(base @ base)
        if norm0 <= 0:
            continue
        rs = []
        for ell in (lag - 1, lag, lag + 1):
            shifted = seg[ell: ell + w]
            denom = np.sqrt(norm0 * float(shifted @ shifted))
            rs.append(float(base @ shifted) / denom if denom > 0 else 0.0)
        r = float(np.clip(reference_refine_peak(np.asarray(rs), 1)[1], 1e-12, 1 - 1e-12))
        vals[i] = 10.0 * np.log10(r / (1.0 - r))
    return vals


def reference_cycles(buf, f0):
    """The per-cycle peak picker pick_cycle_peaks replaced, unchanged."""
    x, sr = buf.samples, buf.sample_rate_hz
    hop = int(round(f0.hop_seconds * sr))
    voiced = np.flatnonzero(~np.isnan(f0.values))
    times, amps = [], []
    if voiced.size == 0:
        return np.empty(0), np.empty(0)
    for region in np.split(voiced, np.flatnonzero(np.diff(voiced) > 1) + 1):
        i0, i1 = int(region[0]), int(region[-1])
        start = i0 * hop
        slowest = float(np.nanmin(f0.values[region]))
        end = min(x.size, i1 * hop + int(2 * sr / slowest))
        seed_end = min(x.size, start + int(1.5 * sr / f0.values[i0]))
        if seed_end - start < 3:
            continue
        p = start + int(np.argmax(x[start:seed_end]))
        t, a = reference_refine_peak(x, p)
        times.append(t)
        amps.append(a)
        while True:
            period = sr / f0.values[min(max(int(round(p / hop)), i0), i1)]
            lo = p + int(np.floor(0.8 * period))
            hi = p + int(np.ceil(1.25 * period)) + 1
            if hi > end or lo >= x.size - 1:
                break
            p = lo + int(np.argmax(x[lo:hi]))
            t, a = reference_refine_peak(x, p)
            times.append(t)
            amps.append(a)
    return np.asarray(times, dtype=float), np.asarray(amps, dtype=float)


def gliding_tone(seconds, sr=SR, f_lo=90.0, f_hi=230.0, seed=29):
    """Two harmonics whose F0 glides between f_lo and f_hi, gated, in light noise."""
    rng = np.random.default_rng(seed)
    t = np.arange(int(seconds * sr)) / sr
    f = f_lo + (f_hi - f_lo) * (0.5 + 0.5 * np.sin(2 * np.pi * 0.35 * t))
    phase = 2 * np.pi * np.cumsum(f) / sr
    gate = np.sin(2 * np.pi * 0.6 * t) > -0.6
    x = gate * (0.4 * np.sin(phase) + 0.2 * np.sin(2 * phase + 0.7))
    return AudioBuffer(x + rng.normal(0.0, 0.005, t.size), sr)


class TestVoiceQualityMatchesReferenceLoops:
    """hnr_series and the cycle picker, as array code, equal the per-frame
    and per-cycle loops they replaced."""

    def check(self, buf, f0=None):
        f0 = f0_track(buf) if f0 is None else f0
        got = acoustic.hnr_series(buf, f0).values
        want = reference_hnr(buf, f0)
        np.testing.assert_array_equal(np.isnan(got), np.isnan(want))
        np.testing.assert_allclose(got[~np.isnan(want)], want[~np.isnan(want)], rtol=1e-12)
        times, amps = acoustic.pick_cycle_peaks(buf.samples, buf.sample_rate_hz, f0)
        ref_times, ref_amps = reference_cycles(buf, f0)
        np.testing.assert_array_equal(times, ref_times)
        np.testing.assert_array_equal(amps, ref_amps)
        return f0.values, got, times

    def test_gliding_tone_over_several_blocks(self):
        f0, hnr, times = self.check(gliding_tone(3.2 * BLOCK_FRAMES * 0.010))
        voiced = ~np.isnan(f0)
        assert voiced.sum() > 2 * BLOCK_FRAMES and np.isfinite(hnr).sum() > 2 * BLOCK_FRAMES
        # many (lag, w) groups within a block
        lags = np.rint(SR / f0[voiced][:BLOCK_FRAMES])
        assert np.unique(lags).size > 20
        assert times.size > 500

    def test_voiced_frames_near_the_end(self):
        # 200 Hz at 8 kHz: lag 40 and w 80, so a frame at s needs s + 121 < n
        sr, hop = 8000, 80
        for extra, fits in ((121, False), (122, True)):
            n = 10 * hop + extra
            buf = AudioBuffer(0.5 * np.sin(2 * np.pi * 200.0 * np.arange(n) / sr + 0.3), sr)
            _, hnr, _ = self.check(buf, FrameSeries("f0", np.full(11, 200.0), 0.01))
            assert np.isfinite(hnr[9]) and np.isfinite(hnr[10]) == fits

    def test_lag_below_two(self):
        # F0 of 700-900 Hz at 1 kHz: a period of 1.1-1.4 samples rounds to lag 1
        sr = 1000
        buf = AudioBuffer(np.random.default_rng(4).normal(0, 0.3, 400), sr)
        values = np.full(40, np.nan)
        values[3:30] = np.linspace(700.0, 900.0, 27)
        values[12:20] = 300.0  # lag 3: these frames are defined
        _, hnr, _ = self.check(buf, FrameSeries("f0", values, 0.01))
        assert np.all(np.isnan(hnr[3:12])) and np.isfinite(hnr[12:20]).all()

    def test_digital_silence_inside_a_voiced_region(self):
        buf = gliding_tone(1.5, seed=31)
        f0 = f0_track(buf)
        x = buf.samples.copy()
        x[4000:9000] = 0.0  # the tracker still says voiced here
        f0_vals, hnr, _ = self.check(AudioBuffer(x, SR), f0)
        silent = np.arange(f0_vals.size) * 160
        inside = (silent >= 4000) & (silent + 700 <= 9000) & ~np.isnan(f0_vals)
        assert inside.any() and np.all(np.isnan(hnr[inside]))

    def test_peaks_at_both_ends(self):
        # a 200 Hz cosine at 8 kHz (period 40) ending 51 samples past a peak:
        # the first cycle's peak is sample 0, the last cycle's the last sample
        sr, n = 8000, 40 * 50 + 51
        x = 0.5 * np.cos(2 * np.pi * np.arange(n) / 40)
        x[0] = x[-1] = 0.9
        f0 = FrameSeries("f0", np.full(n // 80 + 2, 200.0), 0.01)
        _, _, times = self.check(AudioBuffer(x, sr), f0)
        assert times[0] == 0.0 and times[-1] == n - 1


def reference_tempogram(env, w, step, lags):
    """The per-(window, lag) dot-product loop that _tempo_bpm's tempogram replaced."""
    starts = range(0, max(env.size - w, 0) + 1, step)
    return np.array([[float(env[s: s + w][:-lag] @ env[s: s + w][lag:]) for lag in lags]
                     for s in starts])


class TestTempoMatchesReferenceLoop:
    @pytest.mark.parametrize("n", [2, 50, 384, 385, 1000, 4500])
    def test_tempo(self, n):
        rng = np.random.default_rng(n)
        for env in (rng.random(n), np.abs(rng.normal(size=n)) ** 3,
                    (np.arange(n) % 50 == 0).astype(float), np.zeros(n)):
            tempo = acoustic._tempo_bpm(env, 0.010)
            w = min(acoustic.TEMPO_WINDOW, n)
            lags = list(range(20, min(w - 1, 200) + 1))  # 300 to 30 BPM at a 10 ms hop
            if not lags:
                assert np.isnan(tempo)
                continue
            agg = reference_tempogram(env, w, max(1, w // 4), lags).mean(axis=0)
            expected = np.nan if np.all(agg <= 0) else 60.0 / (lags[int(np.argmax(agg))] * 0.010)
            np.testing.assert_array_equal(tempo, expected)


# ---------------------------------------------------------------------------
# F0 and descriptor blocks without fresh temporaries, against the gather-based
# blocks they replaced
# ---------------------------------------------------------------------------

def reference_yin_periods(segs, tau_min, tau_max, threshold):
    """_yin_periods as it was before it worked in place: a fresh array per step."""
    n = segs.shape[0]
    w = tau_max
    n_fft = acoustic._next_smooth(segs.shape[1])
    spec_full = np.fft.rfft(segs, n_fft, axis=1)
    spec_head = np.fft.rfft(segs[:, :w], n_fft, axis=1)
    cross = np.fft.irfft(np.conj(spec_head) * spec_full, n_fft, axis=1)[:, : tau_max + 1]
    csum = np.concatenate([np.zeros((n, 1)), np.cumsum(segs * segs, axis=1)], axis=1)
    energy_tau = csum[:, w: w + tau_max + 1] - csum[:, : tau_max + 1]
    diff = np.maximum(csum[:, w][:, None] + energy_tau - 2.0 * cross, 0.0)
    return reference_cmnd_periods(diff, tau_min, threshold)[0]


def reference_cmnd_periods(diff, tau_min, threshold):
    """The normalization and lag pick as they were: a mask for every row, and
    two (frames x lags) boolean arrays for the downhill walk. Returns the
    periods and the normalized rows."""
    n, tau_max = diff.shape[0], diff.shape[1] - 1
    taus = np.arange(tau_max + 1)
    run = np.cumsum(diff[:, 1:], axis=1)
    dp = np.ones_like(diff)
    positive = run > 0
    dp[:, 1:] = np.where(positive, diff[:, 1:] * taus[1:] / np.where(positive, run, 1.0), 1.0)
    below = dp[:, tau_min:tau_max] < threshold
    first = tau_min + np.argmax(below, axis=1)
    settled = np.ones((n, tau_max), dtype=bool)
    settled[:, :-1] = ~(dp[:, 1:tau_max] < dp[:, : tau_max - 1])
    walked = np.argmax(settled & (taus[:tau_max] >= first[:, None]), axis=1)
    tau = np.where(below.any(axis=1), walked, tau_min + np.argmin(dp[:, tau_min:], axis=1))
    rows = np.arange(n)
    b = dp[rows, tau]
    delta, _ = acoustic._parabola(dp[rows, tau - 1], b, dp[rows, np.minimum(tau + 1, tau_max)],
                                  tau < tau_max)
    return np.where(b < threshold, tau + delta, np.nan), dp


def reference_block_f0(buf, f_min=60.0, f_max=500.0, hop_seconds=0.010, threshold=0.15):
    """f0_track with each block gathered by fancy indexing, as it was."""
    sr = buf.sample_rate_hz
    x = buf.samples
    tau_min = max(2, int(sr / f_max))
    tau_max = int(np.ceil(sr / f_min))
    chunk = 2 * tau_max
    hop = int(round(hop_seconds * sr))
    if x.size < chunk:
        return np.empty(0)
    starts = hop * np.arange(1 + (x.size - chunk) // hop)
    periods = np.concatenate([
        reference_yin_periods(x[block[:, None] + np.arange(chunk)], tau_min, tau_max, threshold)
        for block in np.split(starts, np.arange(BLOCK_FRAMES, starts.size, BLOCK_FRAMES))
    ])
    f0 = sr / periods
    return np.where((f0 >= f_min) & (f0 <= f_max), f0, np.nan)


def reference_descriptors(buf, config):
    """frame_descriptors as it was before its blocks shared the power
    spectrum: every helper rebuilds its own power, logs and products."""
    frame_len, _ = acoustic._frame_geometry(buf, config)
    frames = analysis_frames(buf, config)
    n_fft = acoustic._next_pow2(frame_len) if config.n_fft is None else config.n_fft
    bin_hz = buf.sample_rate_hz / n_fft
    bank = acoustic.mel_filterbank(config.n_mels, n_fft // 2 + 1, bin_hz, 0.0, n_fft // 2 * bin_hz)
    basis = dct_basis(config.n_mels, config.n_mels)
    n_frames = frames.n_frames
    edges = [i * BLOCK_FRAMES for i in range(max(1, n_frames // BLOCK_FRAMES))] + [n_frames]
    out, before = {}, None
    for start, stop in zip(edges, edges[1:]):
        block = type(frames)(frames.frames[start:stop], frames.raw[start:stop],
                             frames.frame_len, frames.hop, frames.sample_rate_hz)
        spec = spectra(block, n_fft)
        mags, freqs = spec.magnitudes, freqs_of(spec)
        logs = np.log(np.maximum(mags, acoustic.SPECTRAL_FLOOR))
        raw = block.raw
        total = mags.sum(axis=-1)
        silent = total <= 0
        total = np.where(silent, 1.0, total)
        centroid = (freqs * mags).sum(axis=-1) / total
        bandwidth = np.sqrt((mags * (freqs - centroid[..., None]) ** 2).sum(axis=-1) / total)
        power = mags ** 2
        cumulative = np.cumsum(power, axis=-1)
        rolloff = freqs[np.argmax(cumulative >= 0.85 * cumulative[..., -1:], axis=-1)]
        floored = np.maximum(power, acoustic.SPECTRAL_FLOOR)
        flatness = np.clip(np.exp(np.mean(np.log(floored), axis=-1))
                           / np.mean(floored, axis=-1), 0.0, 1.0)
        flatness = np.where(power.max(axis=-1) == power.min(axis=-1), 1.0, flatness)
        slopes = {}
        for lo, hi in acoustic.SLOPE_BANDS_HZ:
            sel = (freqs >= lo) & (freqs <= hi)
            db = 10.0 * np.log10(np.maximum(mags[..., sel] ** 2, acoustic.SPECTRAL_FLOOR))
            centred = freqs[sel] - freqs[sel].mean()
            slopes[f"slope_{lo}_{hi}"] = ((db - db.mean(axis=-1, keepdims=True)) @ centred
                                          / (centred @ centred))
        low = (mags ** 2)[..., (freqs >= 50.0) & (freqs <= 1000.0)].sum(axis=-1)
        high = (mags ** 2)[..., (freqs > 1000.0) & (freqs <= 5000.0)].sum(axis=-1)
        # the closed-form line on centred frequencies, not np.polyfit's solve
        centred = freqs - freqs.mean()
        mean = mags.mean(axis=-1)
        slope = (mags - mean[:, None]) @ centred / (centred @ centred)
        poly = (slope, mean - slope * freqs.mean())
        rows = {
            "zcr": (raw[:, :-1] * raw[:, 1:] < 0).sum(axis=1) / (block.frame_len - 1),
            "rms": np.sqrt(np.mean(block.frames ** 2, axis=1)),
            **{name: np.where(silent, np.nan, value) for name, value in
               (("centroid", centroid), ("bandwidth", bandwidth), ("rolloff", rolloff),
                ("flatness", flatness))},
            "mfcc": np.log(np.maximum((mags ** 2) @ bank.T, acoustic.SPECTRAL_FLOOR)) @ basis.T,
            "contrast": contrast(spec),
            "poly_slope": poly[0],
            "poly_intercept": poly[1],
            **slopes,
            "alpha_ratio": acoustic._db_ratio(low, high, 10.0),
            "hammarberg": acoustic._db_ratio(mags[..., freqs <= 2000.0].max(axis=-1),
                                             mags[..., (freqs > 2000.0) & (freqs <= 5000.0)]
                                             .max(axis=-1), 20.0),
            "flux": np.maximum(0.0, np.diff(logs, axis=0,
                                            prepend=logs[:1] if before is None else before)
                               ).mean(axis=1),
        }
        before = logs[-1:].copy()
        for name, value in rows.items():
            out.setdefault(name, np.empty((n_frames,) + value.shape[1:]))[start:stop] = value
    if n_frames < 2:
        out["flux"][:] = np.nan
    return out


def tone_of(n_samples, sr=SR, seed=41):
    """Gated gliding tone in noise with a digitally silent stretch."""
    rng = np.random.default_rng(seed)
    t = np.arange(n_samples) / sr
    f = 140.0 + 60.0 * np.sin(2 * np.pi * 0.5 * t)
    x = 0.5 * (np.sin(2 * np.pi * 0.8 * t) > -0.3) * np.sin(2 * np.pi * np.cumsum(f) / sr)
    x += rng.normal(0.0, 0.01, n_samples)
    x[n_samples // 3: n_samples // 3 + 1500] = 0.0
    return AudioBuffer(x, sr)


def decoded_pcm16(tmp_path, x, sr=SR):
    """Float samples, (n,) mono or (n, 2) stereo, written as a PCM16 file
    and decoded again by load_wav (stereo to its mono mix)."""
    x = x.reshape(x.shape[0], -1)
    channels = x.shape[1]
    body = np.clip(np.round(x * 32768.0), -32768, 32767).astype("<i2").tobytes()
    fmt = struct.pack("<IHHIIHH", 16, 1, channels, sr, sr * 2 * channels, 2 * channels, 16)
    path = tmp_path / f"pcm16_{channels}ch_{sr}.wav"
    path.write_bytes(b"RIFF" + struct.pack("<I", 36 + len(body)) + b"WAVE" + b"fmt " + fmt
                     + b"data" + struct.pack("<I", len(body)) + body)
    return load_wav(path)


def stereo_tone(n_samples, sr=SR):
    """tone_of as the left channel of an (n, 2) pair."""
    rng = np.random.default_rng(43)
    left = tone_of(n_samples, sr).samples
    right = 0.5 * np.roll(left, 37) + rng.normal(0.0, 0.02, n_samples)
    return np.stack([left, right], axis=1)


def stereo_downmix(tmp_path, n_samples, sr=SR):
    """A stereo PCM16 file decoded to its mono mix."""
    return decoded_pcm16(tmp_path, stereo_tone(n_samples, sr), sr)


F0_CHUNK = 2 * int(np.ceil(SR / 60.0))  # f0_track's window at the default f_min
F0_HOP = 160
FRAME_LEN = 400


def assert_close_track(got, want):
    """The same NaN pattern, and the voiced frames within 1e-12 relative:
    how F0 on float samples that are not PCM16 may differ from the
    reference, whose energies come from a prefix sum per frame."""
    np.testing.assert_array_equal(np.isnan(got), np.isnan(want))
    np.testing.assert_allclose(got[~np.isnan(got)], want[~np.isnan(want)], rtol=1e-12, atol=0)


F0_FRAME_COUNTS = [1, 255, 256, 257, 513]
F0_SETTINGS = [dict(f_min=75.0, f_max=400.0, threshold=0.3), dict(hop_seconds=0.005)]


class TestBlocksMatchReferences:
    """F0 and the descriptor pass, in place and over strided views, equal the
    gather-based blocks with fresh temporaries bit for bit, NaNs included.
    On tone_of's unquantized floats F0's block energies of a frame past
    sample 0 round differently from a prefix sum per frame, so those F0
    cases are held to assert_close_track; TestBlockEnergiesExact pins them
    bit for bit on PCM16 samples."""

    @pytest.mark.parametrize("n_frames", F0_FRAME_COUNTS)
    def test_f0_frame_counts(self, n_frames):
        buf = tone_of(F0_CHUNK + (n_frames - 1) * F0_HOP + 7)
        got = f0_track(buf).values
        assert got.size == n_frames
        # a lone frame starts at sample 0, so its block's prefix sum is the
        # per-frame one, on any floats
        check = np.testing.assert_array_equal if n_frames == 1 else assert_close_track
        check(got, reference_block_f0(buf))

    @pytest.mark.parametrize("n_frames", [1, 255, 256, 257, 513])
    def test_descriptor_frame_counts(self, n_frames):
        buf = tone_of(FRAME_LEN + (n_frames - 1) * F0_HOP)
        cfg = AcousticConfig()
        got, want = frame_descriptors(buf, cfg), reference_descriptors(buf, cfg)
        assert got.keys() == want.keys()
        for name, values in want.items():
            assert values.shape[0] == n_frames
            np.testing.assert_array_equal(got[name], values, err_msg=name)

    def test_exactly_one_f0_window(self):
        buf = tone_of(F0_CHUNK)
        np.testing.assert_array_equal(f0_track(buf).values, reference_block_f0(buf))
        assert f0_track(tone_of(F0_CHUNK - 1)).values.size == 0

    def test_silence(self):
        buf = AudioBuffer(np.zeros(3 * SR), SR)
        assert np.all(np.isnan(f0_track(buf).values))
        np.testing.assert_array_equal(f0_track(buf).values, reference_block_f0(buf))
        cfg = AcousticConfig()
        got, want = frame_descriptors(buf, cfg), reference_descriptors(buf, cfg)
        for name, values in want.items():
            np.testing.assert_array_equal(got[name], values, err_msg=name)
        assert np.all(np.isnan(got["centroid"]))

    def test_stereo_downmix(self, tmp_path):
        buf = stereo_downmix(tmp_path, 3 * SR + 123)
        f0 = f0_track(buf).values
        np.testing.assert_array_equal(f0, reference_block_f0(buf))
        assert 0.2 < np.mean(~np.isnan(f0)) < 0.95
        cfg = AcousticConfig(window="hamming")
        got, want = frame_descriptors(buf, cfg), reference_descriptors(buf, cfg)
        for name, values in want.items():
            np.testing.assert_array_equal(got[name], values, err_msg=name)

    @pytest.mark.parametrize("kwargs", F0_SETTINGS)
    def test_other_settings(self, kwargs):
        buf = tone_of(2 * SR + 77, seed=45)
        assert_close_track(f0_track(buf, **kwargs).values, reference_block_f0(buf, **kwargs))


def full_scale(rng, n):
    """Every sample at full scale, -1 or 32767/32768, in random order."""
    return np.where(rng.random(n) < 0.5, -1.0, 32767 / 32768)


def loud_then_quiet(rng, n):
    """Full scale for the first third, then noise of a few LSB."""
    x = rng.integers(-3, 4, n) / 32768.0
    x[: n // 3] = full_scale(rng, n // 3)
    return x


class TestBlockEnergiesExact:
    """On PCM16-decoded samples every square is a multiple of 2^-32, so the
    block's prefix sum, and each window energy read from it, is exact: it
    equals math.fsum of the window and the windows of a prefix sum per
    frame bit for bit, wherever the block starts. So F0 equals the
    per-frame reference bit for bit."""

    @pytest.mark.parametrize("sr", [SR, 44100])
    @pytest.mark.parametrize("channels", [1, 2])
    @pytest.mark.parametrize("kind", ["tone", "full_scale", "loud_then_quiet"])
    def test_window_energies(self, tmp_path, sr, channels, kind):
        rng = np.random.default_rng(17)
        n_samples = 2 * acoustic.FFT_ROWS * int(round(0.010 * sr))
        if kind == "tone":
            x = tone_of(n_samples, sr).samples if channels == 1 else stereo_tone(n_samples, sr)
        else:
            make = full_scale if kind == "full_scale" else loud_then_quiet
            x = np.stack([make(rng, n_samples) for _ in range(channels)], axis=1)
            if channels == 2:  # the loud part mixes to within 1/2 LSB of full scale
                loud = n_samples if kind == "full_scale" else n_samples // 3
                step = rng.integers(0, 2, loud) / 32768.0
                x[:loud, 1] = x[:loud, 0] - np.sign(x[:loud, 0]) * step
        x = decoded_pcm16(tmp_path, x, sr).samples
        # a stereo mix reaches the finer grid of (a + b) / 2^16
        assert np.any(x * 32768 % 1) == (channels == 2)
        # the span of f0_track's first block, a full one
        w, hop, n = int(np.ceil(sr / 60.0)), int(round(0.010 * sr)), acoustic.FFT_ROWS
        block = x[: (n - 1) * hop + 2 * w]
        e = acoustic._window_energies(block, w, np.empty(block.size + 1),
                                      np.empty(block.size + 1 - w))
        squares = (block * block).tolist()
        want = np.array([math.fsum(squares[j: j + w]) for j in range(e.size)])
        assert same_bytes(e, want)
        for i in range(n):
            seg = block[i * hop: i * hop + 2 * w]
            csum = np.concatenate([[0.0], np.cumsum(seg * seg)])
            assert same_bytes(e[i * hop: i * hop + w + 1], csum[w:] - csum[: w + 1]), i
        if kind != "tone":
            assert e.max() > 0.99 * w  # full-scale windows
        if kind == "loud_then_quiet":
            assert 0 < e[-1] < 1e-6 * w  # after them, windows of a few LSB

    @pytest.mark.parametrize("sr", [SR, 44100])
    @pytest.mark.parametrize("channels", [1, 2])
    def test_f0_equals_reference(self, tmp_path, sr, channels):
        n_samples = 3 * sr + 123
        buf = (stereo_downmix(tmp_path, n_samples, sr) if channels == 2
               else decoded_pcm16(tmp_path, tone_of(n_samples, sr).samples, sr))
        got = f0_track(buf).values
        assert got.size > acoustic.FFT_ROWS
        np.testing.assert_array_equal(got, reference_block_f0(buf))

    @pytest.mark.parametrize("n_frames", F0_FRAME_COUNTS)
    def test_frame_counts(self, tmp_path, n_frames):
        tone = tone_of(F0_CHUNK + (n_frames - 1) * F0_HOP + 7)
        buf = decoded_pcm16(tmp_path, tone.samples)
        got = f0_track(buf).values
        assert got.size == n_frames
        np.testing.assert_array_equal(got, reference_block_f0(buf))

    @pytest.mark.parametrize("kwargs", F0_SETTINGS)
    def test_other_settings(self, tmp_path, kwargs):
        buf = decoded_pcm16(tmp_path, tone_of(2 * SR + 77, seed=45).samples)
        np.testing.assert_array_equal(f0_track(buf, **kwargs).values,
                                      reference_block_f0(buf, **kwargs))


def crafted_differences(tau_max=40):
    """Difference-function rows d(tau), tau = 0..tau_max, shaped to reach
    each branch of the normalization and the lag pick (tau_min 4, threshold
    0.15)."""
    rows = {}
    d = np.ones(tau_max + 1)
    d[8:10] = (0.1, 0.05)
    d[10:14] = 0.0  # d' descends into an exact plateau of zeros
    rows["plateau"] = d
    d = np.ones(tau_max + 1)
    d[30:] = 0.1 * (tau_max + 1 - np.arange(30, tau_max + 1)) / 11
    rows["descends_past_tau_max_minus_1"] = d  # the walk stops at tau_max - 1
    d = np.ones(tau_max + 1)
    d[tau_max] = 0.0
    rows["dip_only_at_tau_max"] = d  # the argmin fallback finds it
    rows["no_dip"] = np.ones(tau_max + 1)
    rows["silent"] = np.zeros(tau_max + 1)
    d = 0.5 + 0.5 * np.cos(2 * np.pi * np.arange(tau_max + 1) / 20)
    d[1:8] = 0.0  # its running sum starts at 0, and stays 0 past tau_min
    rows["silent_first_lags"] = d
    rng = np.random.default_rng(11)
    for i in range(4):
        rows[f"random_{i}"] = rng.random(tau_max + 1) * np.linspace(1.0, 0.05, tau_max + 1)
    return rows


class TestLagPick:
    """_cmnd_periods equals the normalization and the settled/argmax pick
    over two (frames x lags) boolean arrays that its walk replaced."""

    @staticmethod
    def pick(d):
        """The periods of rows d, and d normalized as _cmnd_periods leaves it."""
        d = np.atleast_2d(d).copy()
        run = np.empty((d.shape[0], d.shape[1] - 1))
        return acoustic._cmnd_periods(d, 4, 0.15, run), d

    def check(self, d, name=""):
        got, want = self.pick(d), reference_cmnd_periods(np.atleast_2d(d), 4, 0.15)
        assert same_bytes(got[0], want[0]), name
        assert same_bytes(got[1], want[1]), name

    def test_each_crafted_row(self):
        for name, d in crafted_differences().items():
            self.check(d, name)

    def test_rows_together(self):
        rows = crafted_differences()
        self.check(np.array(list(rows.values())))
        # and without the rows whose running sum starts at 0
        self.check(np.array([v for k, v in rows.items() if not k.startswith("silent")]))

    def test_branches_reached(self):
        periods = dict(zip(crafted_differences(), self.pick(np.array(
            list(crafted_differences().values())))[0]))
        assert 10.0 <= periods["plateau"] <= 10.5
        assert 38.5 <= periods["descends_past_tau_max_minus_1"] <= 39.5
        assert periods["dip_only_at_tau_max"] == 40.0
        for name in ("no_dip", "silent"):
            assert np.isnan(periods[name]), name
        assert 9.5 <= periods["silent_first_lags"] <= 10.5


def reference_contrast(mags, freqs):
    """_contrast as it was: every band sorted whole."""
    nyquist = freqs[-1]
    out = np.full(mags.shape[:-1] + (acoustic.CONTRAST_BANDS,), np.nan)
    for i in range(acoustic.CONTRAST_BANDS):
        lo = acoustic.CONTRAST_FMIN_HZ * 2.0 ** i
        hi = min(acoustic.CONTRAST_FMIN_HZ * 2.0 ** (i + 1), nyquist)
        sel = (freqs >= lo) & (freqs < hi) if hi < nyquist else (freqs >= lo) & (freqs <= hi)
        n_sel = int(sel.sum())
        if n_sel == 0:
            continue
        count = max(1, int(acoustic.CONTRAST_QUANTILE * n_sel))
        ordered = np.sort(mags[..., sel], axis=-1)
        valley = np.maximum(ordered[..., :count].mean(axis=-1), acoustic.SPECTRAL_FLOOR)
        peak = np.maximum(ordered[..., -count:].mean(axis=-1), acoustic.SPECTRAL_FLOOR)
        out[..., i] = np.log(peak) - np.log(valley)
    return out


class TestContrastManyBins:
    """With 100 ms frames (n_fft 2048) the two upper bands average 2 and 4
    bins a side, the sorted path of _contrast; the others read min/max."""

    def test_both_paths_match_the_sort_rule(self):
        cfg = AcousticConfig(frame_seconds=0.1)
        buf = tone_of(FRAME_LEN * 4 + 599 * F0_HOP)  # 600 frames: two blocks
        spec = spectra(analysis_frames(buf, cfg))
        freqs = freqs_of(spec)
        counts = [int(acoustic.CONTRAST_QUANTILE * np.sum((freqs >= lo) & (freqs < 2 * lo)))
                  for lo in (200.0, 400.0, 800.0, 1600.0)]
        assert counts == [0, 1, 2, 4]
        got = frame_descriptors(buf, cfg)["contrast"]
        assert got.shape == (600, 4)
        assert same_bytes(got, reference_contrast(spec.magnitudes, freqs))
        # and on a white-noise spectrum, where the extremes are scattered
        noise = AudioBuffer(np.random.default_rng(2).normal(0, 0.2, 2 * SR), SR)
        spec = spectra(analysis_frames(noise, cfg))
        assert same_bytes(frame_descriptors(noise, cfg)["contrast"],
                          reference_contrast(spec.magnitudes, freqs))


class TestBlockMemory:
    """Traced peaks of F0 and the descriptor pass on 45 s of mono 16 kHz
    audio. With every step in a fresh array they were 8.75 MB for F0 and
    6.1 MB for a descriptor block beside its 1.5 MB of series. In their
    workspaces they are about 2.7 MB for F0 (128-frame blocks, with their
    prefix and window energies) and 3.1 MB for the descriptors (the
    402-frame last block), and a bound of 3.5 MB also catches F0 on
    256-frame blocks (4.3 MB before the block energies)."""

    @staticmethod
    def traced_peak(fn):
        tracemalloc.start()
        try:
            result = fn()
            return result, tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_f0_block_peak(self):
        buf = sine(150.0, seconds=45.0, amp=0.5)
        _, peak = self.traced_peak(lambda: f0_track(buf))
        assert peak < 3.5e6, peak

    def test_descriptor_block_peak(self):
        buf = sine(150.0, seconds=45.0, amp=0.5)
        out, peak = self.traced_peak(lambda: frame_descriptors(buf, AcousticConfig()))
        series = sum(v.nbytes for v in out.values())
        assert peak - series < 3.5e6, (peak, series)
