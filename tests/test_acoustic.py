"""Descriptor tests: pitch, voice quality, spectra, rhythm."""

from __future__ import annotations

import numpy as np
import pytest

from voxfeat.acoustic import (
    AcousticConfig,
    FrameSeries,
    Spectrum,
    analysis_frames,
    f0_track,
    frame_scalars,
    jitter_shimmer_hnr,
    mfcc,
    poly_features,
    power_spectrum,
    spectra,
    spectral_contrast,
    spectral_flux_onset,
    spectral_shape,
    tempogram_tempo,
)
from voxfeat.audio_io import AudioBuffer, frame_signal
from voxfeat.errors import (
    InvalidBandConfig,
    InvalidFftSize,
    InvalidOrder,
    InvalidRange,
    TooFewFrames,
)

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


class TestPowerSpectrum:
    def test_zero_frame(self):
        spec = power_spectrum(np.zeros(64), 64, SR)
        np.testing.assert_array_equal(spec.magnitudes, np.zeros(33))
        assert spec.bin_hz == SR / 64

    def test_single_bin_tone(self):
        n_fft = 128
        k = 9
        frame = np.cos(2 * np.pi * k * np.arange(n_fft) / n_fft)
        spec = power_spectrum(frame, n_fft, SR)
        mags = spec.magnitudes.copy()
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
            spec = power_spectrum(x, n_fft, SR)
            m = spec.magnitudes
            # reconstruct the full-transform energy from the half spectrum
            full = m[0] ** 2 + m[-1] ** 2 + 2 * np.sum(m[1:-1] ** 2)
            # oracle: direct O(n^2) DFT summation
            direct = 0.0
            for k in range(n_fft):
                c = np.sum(x * np.exp(-2j * np.pi * k * grid / n_fft))
                direct += abs(c) ** 2
            assert abs(full - direct) / direct < 1e-9
            assert abs(full - n_fft * np.sum(x * x)) / full < 1e-9

    def test_bad_fft_size(self):
        with pytest.raises(InvalidFftSize):
            power_spectrum(np.ones(100), 100, SR)  # not a power of two
        with pytest.raises(InvalidFftSize):
            power_spectrum(np.ones(100), 64, SR)  # smaller than frame

    def test_batch_matches_single(self):
        rng = np.random.default_rng(5)
        buf = AudioBuffer(rng.standard_normal(2000), SR)
        fm = frame_signal(buf, 400, 160)
        batch = spectra(fm, 512)
        for i, spec in enumerate(batch):
            single = power_spectrum(fm.frames[i], 512, SR)
            np.testing.assert_allclose(spec.magnitudes, single.magnitudes, rtol=1e-12)


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


class TestJitterShimmer:
    def test_perfect_sine_integer_period(self):
        # period exactly 80 samples; the gated copy (three 0.5 s bursts, 0.3 s
        # silences) must not pair cycles across its silences
        burst, gap = sine(200, seconds=0.5).samples, np.zeros(int(0.3 * SR))
        gated = AudioBuffer(np.concatenate([burst, gap, burst, gap, burst]), SR)
        for buf in (sine(200), gated):
            rep = jitter_shimmer_hnr(buf, f0_track(buf))
            assert rep.n_cycles > 100
            assert rep.jitter_local < 0.001
            assert rep.shimmer_local < 0.01
            assert abs(rep.f0_mean_hz - 200) < 2

    def test_perfect_sine_fractional_period(self):
        # 440 Hz at 16 kHz: period 36.36 samples, needs sub-sample peaks
        buf = sine(440)
        rep = jitter_shimmer_hnr(buf, f0_track(buf))
        assert rep.jitter_local < 0.001
        assert rep.shimmer_local < 0.01

    def test_alternating_periods_oracle(self):
        # oracle: |80-84| alternating -> mean |dT| = 4, mean T = 82
        buf = alternating_period_signal()
        rep = jitter_shimmer_hnr(buf, f0_track(buf))
        assert rep.n_cycles > 50
        assert abs(rep.jitter_local - 4.0 / 82.0) <= 0.01

    def test_noise_degenerates_to_nan(self):
        rng = np.random.default_rng(3)
        buf = AudioBuffer(rng.normal(0, 0.3, SR), SR)
        rep = jitter_shimmer_hnr(buf, f0_track(buf))
        if rep.n_cycles < 2:
            assert np.isnan(rep.jitter_local)
            assert np.isnan(rep.shimmer_local)

    def test_harmonic_sine_hnr_higher_than_noise(self):
        rng = np.random.default_rng(9)
        clean = sine(200)
        noisy = AudioBuffer(clean.samples + rng.normal(0, 0.2, SR), SR)
        hnr_clean = jitter_shimmer_hnr(clean, f0_track(clean)).hnr_db
        hnr_noisy = jitter_shimmer_hnr(noisy, f0_track(noisy)).hnr_db
        assert hnr_clean > hnr_noisy


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
        with pytest.raises(InvalidBandConfig):
            mfcc(spec, n_mels=10, n_coeffs=11)
        with pytest.raises(InvalidBandConfig):
            mfcc(spec, fmax=SR)  # beyond Nyquist


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
        assert shape["centroid_hz"] == pytest.approx(np.mean(spec.frequencies))

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
            assert shape["rolloff_hz"] <= spec.nyquist_hz
            assert shape["bandwidth_hz"] >= 0.0


class TestSpectralContrast:
    def test_flat_spectrum_zero(self):
        spec = Spectrum(np.full(257, 0.5), SR / 512)
        np.testing.assert_allclose(spectral_contrast(spec), 0.0, atol=1e-12)

    def test_zero_spectrum_zero(self):
        spec = Spectrum(np.zeros(257), SR / 512)
        np.testing.assert_allclose(spectral_contrast(spec), 0.0, atol=1e-12)

    def test_single_peak_oracle(self):
        # one 1.0 bin among 1e-6 bins: contrast = ln(1.0 / 1e-6) = 13.8155
        mags = np.full(257, 1e-6)
        bin_hz = SR / 512
        peak_bin = int(300 / bin_hz)  # inside band 0 [200, 400)
        mags[peak_bin] = 1.0
        contrast = spectral_contrast(Spectrum(mags, bin_hz))
        assert contrast[0] == pytest.approx(np.log(1.0 / 1e-6), abs=0.05)

    def test_band_count_validation(self):
        with pytest.raises(InvalidBandConfig):
            spectral_contrast(Spectrum(np.ones(33), 250.0), n_bands=0)


class TestFrameScalars:
    def test_constant_positive_zcr(self):
        buf = AudioBuffer(np.full(100, 0.5), SR)
        fm = frame_signal(buf, 100, 100, "rectangular")
        assert frame_scalars(fm)["zcr"].values[0] == 0.0

    def test_alternating_sign_zcr(self):
        buf = AudioBuffer(np.tile([1.0, -1.0], 50), SR)
        fm = frame_signal(buf, 100, 100, "rectangular")
        assert frame_scalars(fm)["zcr"].values[0] == 1.0

    def test_rms_hand_oracle(self):
        # sqrt((9 + 16) / 2) = 3.53553...
        buf = AudioBuffer(np.array([3.0, 4.0]), SR)
        fm = frame_signal(buf, 2, 2, "rectangular")
        assert frame_scalars(fm)["rms"].values[0] == pytest.approx(np.sqrt(12.5), rel=1e-12)

    def test_zcr_bounds_sweep(self):
        rng = np.random.default_rng(8)
        buf = AudioBuffer(rng.standard_normal(5000), SR)
        fm = frame_signal(buf, 256, 128)
        zcr = frame_scalars(fm)["zcr"].values
        assert np.all((zcr >= 0) & (zcr <= 1))


class TestFluxOnset:
    def test_constant_spectrogram(self):
        specs = [Spectrum(np.ones(33), 100.0)] * 5
        flux = spectral_flux_onset(specs, 0.01)
        np.testing.assert_array_equal(flux.values, np.zeros(5))

    def test_silence_then_tone_spike(self):
        quiet = Spectrum(np.zeros(33), 100.0)
        loud_mags = np.zeros(33)
        loud_mags[5] = 1.0
        loud = Spectrum(loud_mags, 100.0)
        flux = spectral_flux_onset([quiet, quiet, loud, loud], 0.01)
        assert flux.values[0] == 0.0
        assert flux.values[1] == 0.0
        assert flux.values[2] > 0.0
        assert flux.values[3] == 0.0

    def test_decreasing_energy(self):
        specs = [Spectrum(np.full(33, v), 100.0) for v in (1.0, 0.5, 0.25)]
        flux = spectral_flux_onset(specs, 0.01)
        np.testing.assert_array_equal(flux.values, np.zeros(3))

    def test_too_few_frames(self):
        with pytest.raises(TooFewFrames):
            spectral_flux_onset([Spectrum(np.ones(33), 100.0)], 0.01)


class TestTempo:
    def make_impulse_onset(self, period_s, hop_s=0.010, total_s=8.0):
        n = int(total_s / hop_s)
        env = np.zeros(n)
        env[::int(round(period_s / hop_s))] = 1.0
        return FrameSeries("flux", env, hop_s)

    def test_120_bpm(self):
        tempo, gram = tempogram_tempo(self.make_impulse_onset(0.5))
        assert abs(tempo - 120.0) <= 1.0
        assert gram.shape[0] >= 1

    def test_60_bpm(self):
        tempo, _ = tempogram_tempo(self.make_impulse_onset(1.0))
        assert abs(tempo - 60.0) <= 1.0

    def test_all_zero_envelope(self):
        tempo, _ = tempogram_tempo(FrameSeries("flux", np.zeros(500), 0.010))
        assert np.isnan(tempo)

    def test_short_input_degrades(self):
        tempo, _ = tempogram_tempo(self.make_impulse_onset(0.5, total_s=2.0))
        assert abs(tempo - 120.0) <= 1.0


class TestPolyFeatures:
    def test_flat_order1(self):
        coeffs = poly_features(Spectrum(np.full(33, 0.7), 100.0), 1)
        assert coeffs[0] == pytest.approx(0.0, abs=1e-12)
        assert coeffs[1] == pytest.approx(0.7, rel=1e-12)

    def test_linear_recovery(self):
        spec_freqs = np.arange(33) * 100.0
        mags = 0.002 * spec_freqs + 0.5
        coeffs = poly_features(Spectrum(mags, 100.0), 1)
        assert coeffs[0] == pytest.approx(0.002, abs=1e-9)
        assert coeffs[1] == pytest.approx(0.5, abs=1e-9)

    def test_quadratic_residual(self):
        freqs = np.arange(33) * 100.0
        mags = 1e-7 * freqs ** 2 + 0.001 * freqs + 2.0
        coeffs = poly_features(Spectrum(mags, 100.0), 2)
        fit = np.polyval(coeffs, freqs)
        assert np.max(np.abs(fit - mags)) < 1e-9

    def test_invalid_order(self):
        with pytest.raises(InvalidOrder):
            poly_features(Spectrum(np.ones(33), 100.0), 3)
        with pytest.raises(InvalidOrder):
            poly_features(Spectrum(np.ones(2), 100.0), 2)


class TestDeterminismAndFraming:
    def test_frames_parseval_through_pipeline(self):
        rng = np.random.default_rng(21)
        buf = AudioBuffer(rng.standard_normal(8000), SR)
        fm = analysis_frames(buf, AcousticConfig())
        for spec, frame in zip(spectra(fm, 512)[:10], fm.frames[:10]):
            m = spec.magnitudes
            full = m[0] ** 2 + m[-1] ** 2 + 2 * np.sum(m[1:-1] ** 2)
            assert abs(full - 512 * np.sum(frame ** 2)) / max(full, 1e-30) < 1e-9
