"""WAV decode, framing, and window tests."""

from __future__ import annotations

import struct
import tracemalloc

import numpy as np
import pytest

from voxfeat.audio_io import (
    AudioBuffer,
    frame_signal,
    load_wav,
    window_coefficients,
    write_wav,
)
from voxfeat.errors import (
    EmptyAudio,
    MalformedContainer,
    SignalTooShort,
    UnsupportedFormat,
)


def make_wav_bytes(ints, sample_rate=16000, channels=1, bits=16, format_code=1,
                   extra_chunk=None):
    body = np.asarray(ints, dtype="<i2").tobytes()
    fmt = struct.pack("<IHHIIHH", 16, format_code, channels, sample_rate,
                      sample_rate * channels * bits // 8, channels * bits // 8, bits)
    chunks = b"fmt " + fmt
    if extra_chunk is not None:
        chunks += extra_chunk
    chunks += b"data" + struct.pack("<I", len(body)) + body
    return b"RIFF" + struct.pack("<I", 4 + len(chunks)) + b"WAVE" + chunks


class TestLoadWav:
    def test_mono_normalization(self, tmp_path):
        p = tmp_path / "m.wav"
        p.write_bytes(make_wav_bytes([0, 16384, -32768, 32767]))
        buf = load_wav(p)
        assert buf.sample_rate_hz == 16000
        assert buf.source_id == "m"
        np.testing.assert_allclose(
            buf.samples, [0.0, 0.5, -1.0, 32767 / 32768], rtol=0, atol=0
        )

    def test_stereo_mixdown_exact(self, tmp_path):
        # (32767 + -32768) / 2 / 32768 == -1.52587890625e-05 exactly
        p = tmp_path / "s.wav"
        p.write_bytes(make_wav_bytes([32767, -32768], channels=2))
        buf = load_wav(p)
        assert buf.n_samples == 1
        assert buf.samples[0] == -1.52587890625e-05

    @pytest.mark.parametrize("channels", [1, 2])
    def test_decode_holds_one_float_copy(self, tmp_path, channels):
        """Peak: the file's bytes, one float64 copy of its samples, the
        stereo mix, and AudioBuffer's finiteness mask; no copy of the data
        chunk, no second scaled array. The values are the plain formula's."""
        ints = np.random.default_rng(3).integers(-32768, 32768, 200_000 * channels)
        p = tmp_path / "big.wav"
        p.write_bytes(make_wav_bytes(ints, channels=channels))
        tracemalloc.start()
        try:
            buf = load_wav(p)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        n_out = ints.size // channels
        mix = 8 * n_out if channels == 2 else 0
        assert peak <= p.stat().st_size + 8 * ints.size + mix + n_out + 65536
        expected = ints.astype(np.float64).reshape(-1, channels).mean(axis=1) / 32768.0
        assert buf.samples.tobytes() == expected.tobytes()

    def test_unknown_chunks_skipped(self, tmp_path):
        # LIST chunk with odd size exercises the word-alignment padding
        extra = b"LIST" + struct.pack("<I", 5) + b"INFOx" + b"\x00"
        p = tmp_path / "c.wav"
        p.write_bytes(make_wav_bytes([100, -100], extra_chunk=extra))
        buf = load_wav(p)
        np.testing.assert_allclose(buf.samples, [100 / 32768, -100 / 32768])

    def test_not_riff(self, tmp_path):
        p = tmp_path / "bad.wav"
        p.write_bytes(b"OggS" + b"\x00" * 40)
        with pytest.raises(MalformedContainer):
            load_wav(p)

    def test_missing_data_chunk(self, tmp_path):
        fmt = struct.pack("<IHHIIHH", 16, 1, 1, 16000, 32000, 2, 16)
        raw = b"RIFF" + struct.pack("<I", 4 + len(fmt) + 8) + b"WAVE" + b"fmt " + fmt
        p = tmp_path / "nodata.wav"
        p.write_bytes(raw)
        with pytest.raises(MalformedContainer):
            load_wav(p)

    def test_float_format_rejected(self, tmp_path):
        p = tmp_path / "f32.wav"
        p.write_bytes(make_wav_bytes([0, 0], format_code=3))
        with pytest.raises(UnsupportedFormat):
            load_wav(p)

    def test_wrong_bit_depth_rejected(self, tmp_path):
        p = tmp_path / "b8.wav"
        p.write_bytes(make_wav_bytes([0, 0], bits=8))
        with pytest.raises(UnsupportedFormat):
            load_wav(p)

    def test_too_many_channels_rejected(self, tmp_path):
        p = tmp_path / "quad.wav"
        p.write_bytes(make_wav_bytes([0, 0, 0, 0], channels=4))
        with pytest.raises(UnsupportedFormat):
            load_wav(p)

    def test_zero_samples_rejected(self, tmp_path):
        p = tmp_path / "empty.wav"
        p.write_bytes(make_wav_bytes([]))
        with pytest.raises(EmptyAudio):
            load_wav(p)


class TestWriteWav:
    def test_round_trip_error_bound(self, tmp_path):
        rng = np.random.default_rng(7)
        x = rng.uniform(-1.0, 1.0, 4000)
        buf = AudioBuffer(x, 8000, source_id="rt")
        p = tmp_path / "rt.wav"
        write_wav(buf, p)
        back = load_wav(p)
        assert back.sample_rate_hz == 8000
        assert back.n_samples == 4000
        assert np.max(np.abs(back.samples - x)) <= 1.0 / 32768

    def test_exact_values_round_trip(self, tmp_path):
        buf = AudioBuffer(np.array([0.0, 0.5, -1.0]), 16000)
        p = tmp_path / "ex.wav"
        write_wav(buf, p)
        back = load_wav(p)
        np.testing.assert_array_equal(back.samples, [0.0, 0.5, -1.0])


class TestFrameSignal:
    def test_frame_count_formula_sweep(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            n = int(rng.integers(10, 5000))
            frame_len = int(rng.integers(2, min(n, 400) + 1))
            hop = int(rng.integers(1, frame_len + 1))
            buf = AudioBuffer(rng.standard_normal(n), 16000)
            fm = frame_signal(buf, frame_len, hop, "rectangular")
            assert fm.n_frames == 1 + (n - frame_len) // hop
            # trailing samples beyond the last full frame never appear
            last_end = (fm.n_frames - 1) * hop + frame_len
            assert last_end <= n

    def test_frame_content_matches_slices(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal(1000)
        buf = AudioBuffer(x, 16000)
        fm = frame_signal(buf, 128, 40, "rectangular")
        for i in range(fm.n_frames):
            np.testing.assert_array_equal(fm.raw[i], x[i * 40:i * 40 + 128])
            np.testing.assert_array_equal(fm.frames[i], x[i * 40:i * 40 + 128])

    def test_window_applied_to_frames(self):
        rng = np.random.default_rng(4)
        x = rng.standard_normal(600)
        buf = AudioBuffer(x, 16000)
        fm = frame_signal(buf, 100, 50, "hann")
        w = window_coefficients("hann", 100)
        np.testing.assert_allclose(fm.frames, fm.raw * w, rtol=1e-15)

    def test_signal_shorter_than_frame(self):
        buf = AudioBuffer(np.ones(50), 16000)
        with pytest.raises(SignalTooShort):
            frame_signal(buf, 100, 50)

    def test_exact_one_frame(self):
        buf = AudioBuffer(np.ones(100), 16000)
        fm = frame_signal(buf, 100, 50, "rectangular")
        assert fm.n_frames == 1

    def test_bad_hop_rejected(self):
        buf = AudioBuffer(np.ones(100), 16000)
        with pytest.raises(ValueError):
            frame_signal(buf, 50, 0)
        with pytest.raises(ValueError):
            frame_signal(buf, 50, 51)


class TestWindows:
    def test_hann_periodic_endpoints(self):
        w = window_coefficients("hann", 8)
        assert w[0] == 0.0
        # periodic form: w[k] == w[N-k], wraps rather than symmetric about center
        np.testing.assert_allclose(w[1:], w[1:][::-1], rtol=1e-12)
        assert w.max() <= 1.0

    def test_hamming_floor(self):
        w = window_coefficients("hamming", 64)
        assert w.min() == pytest.approx(0.08, abs=1e-12)

    def test_rectangular_all_ones(self):
        np.testing.assert_array_equal(window_coefficients("rectangular", 5), np.ones(5))

    def test_gaussian_peak_and_decay(self):
        w = window_coefficients("gaussian", 101)
        assert w[50] == 1.0
        # edges sit at 2.5 sigma
        assert w[0] == pytest.approx(np.exp(-0.5 * 2.5**2), rel=1e-12)
        assert np.all(np.diff(w[:51]) > 0)

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            window_coefficients("blackman", 32)


class TestAudioBuffer:
    def test_rejects_empty(self):
        with pytest.raises(EmptyAudio):
            AudioBuffer(np.array([]), 16000)

    def test_rejects_nan(self):
        with pytest.raises(UnsupportedFormat):
            AudioBuffer(np.array([0.0, np.nan]), 16000)

    def test_rejects_bad_rate(self):
        with pytest.raises(UnsupportedFormat):
            AudioBuffer(np.ones(4), 0)

    def test_duration(self):
        buf = AudioBuffer(np.ones(8000), 16000)
        assert buf.duration_seconds == 0.5
