"""WAV decoding, validation, and segmentation into windowed analysis frames.

Only RIFF/WAVE with 16-bit PCM (mono or stereo) is accepted. Samples are
normalized by 32768 so the int16 range maps into [-1, 1) with -1.0 and 0.5
exactly representable. Stereo is averaged to mono.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import (
    EmptyAudio,
    MalformedContainer,
    SignalTooShort,
    UnsupportedFormat,
)

WINDOW_KINDS = ("rectangular", "hann", "hamming", "gaussian")

_INT16_SCALE = 32768.0


@dataclass(frozen=True)
class AudioBuffer:
    """Decoded mono PCM samples with their sample rate.

    samples are float64 in [-1.0, 1.0]; sample_rate_hz is positive;
    source_id is a free-form label (defaults to the file stem on load).
    """

    samples: np.ndarray
    sample_rate_hz: int
    source_id: str = ""

    def __post_init__(self) -> None:
        samples = np.asarray(self.samples, dtype=np.float64)
        object.__setattr__(self, "samples", samples)
        if samples.ndim != 1 or samples.size == 0:
            raise EmptyAudio("audio buffer must hold a nonempty 1-D sample vector")
        if not np.all(np.isfinite(samples)):
            raise UnsupportedFormat("audio samples must be finite")
        if self.sample_rate_hz <= 0:
            raise UnsupportedFormat(f"sample rate must be positive, got {self.sample_rate_hz}")

    @property
    def n_samples(self) -> int:
        return int(self.samples.size)

    @property
    def duration_seconds(self) -> float:
        return self.samples.size / self.sample_rate_hz


@dataclass(frozen=True)
class FrameMatrix:
    """Windowed analysis frames cut from one buffer.

    frames holds the windowed samples, raw the pre-window samples (a
    read-only view into the buffer); both are (n_frames, frame_len).
    Trailing samples that do not fill a frame are discarded, so
    n_frames == 1 + (n_samples - frame_len) // hop.
    """

    frames: np.ndarray
    raw: np.ndarray
    frame_len: int
    hop: int
    sample_rate_hz: int

    @property
    def n_frames(self) -> int:
        return int(self.frames.shape[0])


def window_coefficients(kind: str, length: int) -> np.ndarray:
    """Analysis window of the given kind (periodic forms for hann/hamming).

    The gaussian window uses sigma = (length - 1) / 5, which puts the frame
    edges at 2.5 sigma.
    """
    if kind not in WINDOW_KINDS:
        raise ValueError(f"unknown window kind {kind!r}; expected one of {WINDOW_KINDS}")
    if length < 2:
        raise ValueError("window length must be >= 2")
    n = np.arange(length, dtype=np.float64)
    if kind == "rectangular":
        return np.ones(length)
    if kind == "hann":
        return 0.5 - 0.5 * np.cos(2.0 * np.pi * n / length)
    if kind == "hamming":
        return 0.54 - 0.46 * np.cos(2.0 * np.pi * n / length)
    sigma = (length - 1) / 5.0
    centre = (length - 1) / 2.0
    return np.exp(-0.5 * ((n - centre) / sigma) ** 2)


def load_wav(path: str | Path) -> AudioBuffer:
    """Decode a RIFF/WAVE file into a mono AudioBuffer.

    Accepts PCM16 with 1 or 2 channels at any sample rate. Unknown chunks
    (LIST, fact, ...) are skipped. Stereo is mixed down by channel
    averaging; int16 values are divided by 32768.

    Raises MalformedContainer, UnsupportedFormat, or EmptyAudio.
    """
    path = Path(path)
    data = path.read_bytes()
    if len(data) < 12 or data[:4] != b"RIFF" or data[8:12] != b"WAVE":
        raise MalformedContainer(f"{path.name}: not a RIFF/WAVE file")

    view = memoryview(data)  # chunk bodies are slices of it, not copies
    fmt = None
    pcm_bytes = None
    pos = 12
    while pos + 8 <= len(data):
        chunk_id = data[pos:pos + 4]
        (chunk_size,) = struct.unpack_from("<I", data, pos + 4)
        body = view[pos + 8:pos + 8 + chunk_size]
        if chunk_id == b"fmt ":
            if len(body) < 16:
                raise MalformedContainer(f"{path.name}: fmt chunk truncated")
            fmt = struct.unpack_from("<HHIIHH", body, 0)
        elif chunk_id == b"data":
            pcm_bytes = body
        # any other chunk (LIST, fact, ...) is skipped
        pos += 8 + chunk_size + (chunk_size & 1)  # chunks are word-aligned

    if fmt is None or pcm_bytes is None:
        raise MalformedContainer(f"{path.name}: missing fmt or data chunk")

    format_code, channels, sample_rate, _, _, bits = fmt
    if format_code != 1:
        raise UnsupportedFormat(f"{path.name}: format code {format_code}, only PCM (1) supported")
    if bits != 16:
        raise UnsupportedFormat(f"{path.name}: {bits}-bit depth, only 16-bit supported")
    if channels not in (1, 2):
        raise UnsupportedFormat(f"{path.name}: {channels} channels, only mono/stereo supported")
    if sample_rate <= 0:
        raise MalformedContainer(f"{path.name}: nonpositive sample rate")

    usable = len(pcm_bytes) - len(pcm_bytes) % (2 * channels)
    ints = np.frombuffer(pcm_bytes[:usable], dtype="<i2").astype(np.float64)
    if ints.size == 0:
        raise EmptyAudio(f"{path.name}: zero samples")
    if channels == 2:
        # the sum and halving reshape(-1, 2).mean(axis=1) computes, bit for bit
        ints = ints[0::2] + ints[1::2]
        ints /= 2.0
    ints /= _INT16_SCALE  # in place: the buffer is the only float copy
    return AudioBuffer(ints, int(sample_rate), source_id=path.stem)


def write_wav(buf: AudioBuffer, path: str | Path) -> None:
    """Write an AudioBuffer as mono PCM16; round-trips within 1/32768 per sample."""
    path = Path(path)
    scaled = np.round(np.clip(buf.samples, -1.0, 1.0) * _INT16_SCALE)
    ints = np.clip(scaled, -32768, 32767).astype("<i2")
    body = ints.tobytes()
    header = b"RIFF" + struct.pack("<I", 36 + len(body)) + b"WAVE"
    header += b"fmt " + struct.pack(
        "<IHHIIHH", 16, 1, 1, buf.sample_rate_hz, buf.sample_rate_hz * 2, 2, 16
    )
    header += b"data" + struct.pack("<I", len(body))
    path.write_bytes(header + body)


def frame_signal(
    buf: AudioBuffer,
    frame_len: int,
    hop: int,
    window_kind: str = "hann",
) -> FrameMatrix:
    """Cut the buffer into overlapping frames and apply the window.

    Frame i covers samples [i*hop, i*hop + frame_len); the trailing partial
    frame is discarded. Raises SignalTooShort when the signal cannot fill
    one frame.
    """
    raw = raw_frames(buf, frame_len, hop)
    return FrameMatrix(
        frames=raw * window_coefficients(window_kind, frame_len),
        raw=raw,
        frame_len=frame_len,
        hop=hop,
        sample_rate_hz=buf.sample_rate_hz,
    )


def raw_frames(buf: AudioBuffer, frame_len: int, hop: int) -> np.ndarray:
    """The (n_frames, frame_len) pre-window frames of frame_signal, as a
    read-only strided view of the samples: nothing is copied.

    Raises SignalTooShort when the signal cannot fill one frame.
    """
    if frame_len < 2:
        raise ValueError(f"frame_len must be >= 2, got {frame_len}")
    if not 1 <= hop <= frame_len:
        raise ValueError(f"hop must be in [1, frame_len], got {hop}")
    n = buf.n_samples
    if n < frame_len:
        raise SignalTooShort(f"signal has {n} samples, frame needs {frame_len}")
    return np.lib.stride_tricks.sliding_window_view(buf.samples, frame_len)[::hop]
