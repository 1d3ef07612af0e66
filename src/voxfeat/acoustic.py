"""Frame-level acoustic descriptors and the per-recording analysis they share.

Pitch (difference-function method), jitter/shimmer/HNR from picked glottal
cycles, MFCC, spectral shape/contrast/flux/band slopes, energy scalars,
tempo, and least-squares spectrum lines. The spectral kernels take plain
magnitude arrays with the frames on the leading axes and the bins on the
last, beside the bins' frequencies, so one frame, a block of frames and a
whole spectrogram run the same code; their settings are module constants.
An Analysis computes them in one pass over blocks of frames and keeps only
the per-frame series, so its memory follows the block, not the recording.

F0 and the descriptor pass each copy every block's frames into the
zero-padded rows of one workspace per recording, so each FFT runs on
contiguous full-length rows, and the same memory then holds the block's
later intermediates. F0 reads its window energies from one prefix sum of
the squared samples per block, not one per frame; on PCM16 samples, all
that load_wav decodes, those sums are exact while a block spans fewer than
2^21 samples (see f0_track). The F0 track on such samples,
and every descriptor series but poly_slope and poly_intercept on any, are
bit for bit what a fresh array per step and a prefix sum per frame give
(tests pin both). Everything here is pure and deterministic: the same
AudioBuffer always yields bit-identical outputs.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import ClassVar

import numpy as np

from .audio_io import AudioBuffer, FrameMatrix, frame_signal, raw_frames, window_coefficients
from .errors import InvalidBandConfig, InvalidRange

SPECTRAL_FLOOR = 1e-10  # applied before any log so silence stays finite

# Frames per block of the descriptor pass and of HNR: peak memory follows
# this, not the recording. The descriptor pass folds a short tail into the
# block before it, because its BLAS-backed rows (the mel projection and
# DCT, the band slopes, the line fit) change in their last bits on blocks
# of under about 70 frames; from 256 up they match the whole-recording
# batch bit for bit (numpy 2.4.6 with OpenBLAS; tests pin it). Its
# workspace holds the largest block's frames zero-padded to n_fft, plus two
# more values a frame, and is reused by every block.
BLOCK_FRAMES = 256
# Rows per batched FFT call, so at most this many rows' spectra are alive at
# once: F0 runs blocks of this many frames, and the descriptor pass
# transforms its block in slabs of this many. The FFT treats rows one by
# one, so this changes no bit of any output.
FFT_ROWS = 128
CONTRAST_BANDS = 4
CONTRAST_FMIN_HZ = 200.0
CONTRAST_QUANTILE = 0.02
TEMPO_WINDOW = 384  # frames of onset strength per tempogram window
SLOPE_BANDS_HZ = ((0, 500), (500, 1500))  # the band-slope series, slope_<lo>_<hi>


@dataclass(frozen=True)
class FrameSeries:
    """One descriptor sampled per frame; NaN marks undefined frames."""

    name: str
    values: np.ndarray
    hop_seconds: float

    def __post_init__(self) -> None:
        values = np.asarray(self.values, dtype=np.float64)
        object.__setattr__(self, "values", values)
        finite_ok = np.all(np.isfinite(values[~np.isnan(values)]))
        if not finite_ok:
            raise ValueError(f"series {self.name!r} contains non-finite non-NaN values")


@dataclass(frozen=True)
class Spectrum:
    """Magnitude spectra over n_fft/2+1 bins: one frame (bins,) or a
    spectrogram (frames, bins). Iterating a spectrogram yields one-frame
    Spectrums."""

    magnitudes: np.ndarray
    bin_hz: float

    def __post_init__(self) -> None:
        mags = np.asarray(self.magnitudes, dtype=np.float64)
        object.__setattr__(self, "magnitudes", mags)
        if mags.ndim not in (1, 2) or not np.all(np.isfinite(mags)) or np.any(mags < 0):
            raise ValueError("magnitudes must be a finite non-negative vector or matrix")

    def __iter__(self):
        if self.magnitudes.ndim != 2:
            raise TypeError("only a (frames, bins) Spectrum iterates over frames")
        return (Spectrum(row, self.bin_hz) for row in self.magnitudes)


@dataclass(frozen=True)
class AcousticConfig:
    """Framing settings (defaults: 25 ms frames, 10 ms hop, hann window),
    and the fixed F0 search range and threshold, FFT length and mel bands."""

    frame_seconds: float = 0.025
    hop_seconds: float = 0.010
    window: str = "hann"
    f_min_hz: ClassVar[float] = 60.0
    f_max_hz: ClassVar[float] = 500.0
    yin_threshold: ClassVar[float] = 0.15
    n_fft: ClassVar[int | None] = None  # None: the next power of two >= frame length
    n_mels: ClassVar[int] = 26


def _next_pow2(n: int) -> int:
    p = 1
    while p < n:
        p *= 2
    return p


def _frame_geometry(buf: AudioBuffer, config: AcousticConfig) -> tuple[int, int]:
    """Frame length and hop in samples; InvalidRange when the frame rounds
    to fewer than 2 samples at the recording's rate."""
    sr = buf.sample_rate_hz
    frame_len = int(round(config.frame_seconds * sr))
    if frame_len < 2:
        raise InvalidRange(f"frame_seconds {config.frame_seconds!r} is under 2 samples "
                           f"at {sr} Hz")
    return frame_len, _hop_samples(config.hop_seconds, sr)


def _hop_samples(hop_seconds: float, sr: int) -> int:
    """The hop in samples; InvalidRange when it rounds to none at rate sr."""
    hop = int(round(hop_seconds * sr))
    if hop < 1:
        raise InvalidRange(f"hop_seconds {hop_seconds!r} is under 1 sample at {sr} Hz")
    return hop


def analysis_frames(buf: AudioBuffer, config: AcousticConfig) -> FrameMatrix:
    return frame_signal(buf, *_frame_geometry(buf, config), config.window)


# ---------------------------------------------------------------------------
# spectra
# ---------------------------------------------------------------------------

def spectra(frames: FrameMatrix, n_fft: int | None = None) -> Spectrum:
    """The (frames, bins) magnitude spectrogram of every frame, each
    zero-padded to n_fft (default: the next power of two >= the frame).

    Parseval's identity holds over the full transform: sum |X[k]|^2 =
    n_fft * sum x[n]^2.
    """
    if n_fft is None:
        n_fft = _next_pow2(frames.frame_len)
    return Spectrum(np.abs(np.fft.rfft(frames.frames, n_fft, axis=-1)),
                    frames.sample_rate_hz / n_fft)


# ---------------------------------------------------------------------------
# pitch
# ---------------------------------------------------------------------------

def f0_track(
    buf: AudioBuffer,
    f_min: float = AcousticConfig.f_min_hz,
    f_max: float = AcousticConfig.f_max_hz,
    hop_seconds: float = AcousticConfig.hop_seconds,
    threshold: float = AcousticConfig.yin_threshold,
) -> FrameSeries:
    """Fundamental frequency per frame via the cumulative-mean-normalized
    difference function with parabolic lag interpolation.

    A frame is unvoiced (NaN) when no normalized-difference dip falls below
    the voicing threshold, or when the interpolated frequency leaves
    [f_min, f_max]. The integration window is one maximum period, so each
    frame consumes 2*ceil(sr/f_min) samples (534 at 16 kHz and f_min 60
    Hz), hop_seconds apart: a recording shorter than that has no F0 frame,
    and an empty track, whereas the descriptor pass's first frame needs
    only frame_seconds of audio.

    Frames are processed in blocks of FFT_ROWS in one (block, n_fft)
    workspace, allocated once per recording. Each block's doubled heads and
    then its frames are copied into the rows, so every FFT runs on
    contiguous rows already zero-padded to n_fft; the same rows then hold
    the running sums. The window energies come from one prefix sum over
    each block's span of samples, in two more arrays allocated once per
    recording. On the PCM16 samples that load_wav decodes these sums are
    exact while a block's span, (FFT_ROWS - 1)*hop + 2*ceil(sr/f_min)
    samples, stays below 2^21 (62k samples at 48 kHz and the default hop;
    a hop above about 16k samples breaks it), so the track is then bit for
    bit what a prefix sum per frame with a fresh array per step gives; on
    other float samples, or longer spans, the energies, and so the track,
    may differ from that in their last bits.
    """
    if not 0 < f_min < f_max:
        raise InvalidRange(f"need 0 < f_min < f_max, got {f_min}, {f_max}")
    sr = buf.sample_rate_hz
    if f_max >= sr / 2:
        raise InvalidRange(f"f_max {f_max} must be below Nyquist {sr / 2}")
    hop = _hop_samples(hop_seconds, sr)

    x = buf.samples
    tau_min = max(2, int(sr / f_max))
    tau_max = int(np.ceil(sr / f_min))
    chunk = 2 * tau_max  # integration window w = tau_max, plus the largest lag
    if x.size < chunk:
        return FrameSeries("f0", np.empty(0), hop_seconds)
    n_frames = 1 + (x.size - chunk) // hop
    rows = min(FFT_ROWS, n_frames)
    # Any n_fft >= 2*tau_max keeps wrapped (negative) lags out of 0..tau_max,
    # so take the smallest 2^a 3^b, not the next power of two: 576 points, not
    # 1024, at 16 kHz and f_min 60 Hz
    work = np.empty((rows, _next_smooth(chunk)))
    span = (rows - 1) * hop + chunk  # the samples a full block's frames cover
    prefix, energy = np.empty(span + 1), np.empty(span + 1 - tau_max)
    periods = np.empty(n_frames)
    for start in range(0, n_frames, FFT_ROWS):
        n = min(FFT_ROWS, n_frames - start)
        block = x[start * hop: start * hop + (n - 1) * hop + chunk]
        periods[start: start + n] = _yin_periods(block, hop, work[:n], prefix, energy,
                                                 tau_min, tau_max, threshold)
    f0 = sr / periods
    return FrameSeries("f0", np.where((f0 >= f_min) & (f0 <= f_max), f0, np.nan), hop_seconds)


def _yin_periods(block: np.ndarray, hop: int, work: np.ndarray, prefix: np.ndarray,
                 energy: np.ndarray, tau_min: int, tau_max: int,
                 threshold: float) -> np.ndarray:
    """Interpolated period in samples of each 2*tau_max-sample frame of
    `block`, the frames hop apart, NaN where no lag dips below the
    threshold. `work` is a (frames, n_fft) scratch array, n_fft >=
    2*tau_max, and `prefix` and `energy` are _window_energies' scratch;
    their contents are overwritten.

    The energy terms come from one prefix sum over the block, not one per
    frame. On PCM16 samples (k / 2^15, or a stereo mix (a + b) / 2^16)
    every square is a multiple of 2^-32, so every partial sum over fewer
    than 2^21 samples is exact: when `block` is shorter than that, the
    energies equal those of a prefix sum per frame bit for bit. On other
    floats, or a longer block, they may differ in the last bits."""
    segs = np.lib.stride_tricks.sliding_window_view(block, 2 * tau_max)[::hop]
    n, chunk = segs.shape
    w = tau_max
    n_fft = work.shape[1]
    # windowed cross term 2C(tau) = 2 sum_{n<w} x[n] x[n+tau] via one batched
    # fft of the doubled head against the whole segment. Doubling is exact,
    # so the inverse transform is 2C bit for bit
    np.multiply(segs[:, :w], 2.0, out=work[:, :w])
    work[:, w:] = 0.0
    spec = np.fft.rfft(work)
    np.conj(spec, out=spec)
    work[:, :chunk] = segs
    spec *= np.fft.rfft(work)

    # the difference d(tau) = E(s..s+w) + E(s+tau..s+tau+w) - 2C(tau) of the
    # frame at s, built in dp[:, 1:]
    e = _window_energies(block, w, prefix, energy)
    dp = np.empty((n, tau_max + 1))
    diff = dp[:, 1:]
    lagged = np.lib.stride_tricks.sliding_window_view(e[1:], tau_max)[::hop]
    np.add(lagged, e[: (n - 1) * hop + 1: hop, None], out=diff)
    diff -= np.fft.irfft(spec, n_fft)[:, 1: tau_max + 1]
    del spec
    np.maximum(diff, 0.0, out=diff)
    return _cmnd_periods(dp, tau_min, threshold, work[:, :tau_max])


def _window_energies(block: np.ndarray, w: int, prefix: np.ndarray,
                     energy: np.ndarray) -> np.ndarray:
    """The energy of each w-sample window of `block`, e[j] = sum of
    block[j:j+w]**2, as differences of one prefix sum: a view of `energy`
    (at least block.size + 1 - w long), written through `prefix` (at least
    block.size + 1 long). Exact, and so independent of where the block
    starts, when every partial sum is (see _yin_periods)."""
    g = prefix[: block.size + 1]
    g[0] = 0.0
    np.multiply(block, block, out=g[1:])
    np.cumsum(g[1:], out=g[1:])
    e = energy[: block.size + 1 - w]
    np.subtract(g[w:], g[:-w], out=e)
    return e


def _cmnd_periods(dp: np.ndarray, tau_min: int, threshold: float,
                  run: np.ndarray) -> np.ndarray:
    """Interpolated period of each row of a difference function, NaN where
    no lag dips below the threshold. dp[:, 1:] holds d(tau) >= 0 for tau =
    1..tau_max and becomes its cumulative-mean-normalized form d'(tau) in
    place, and dp[:, 0] becomes d'(0) = 1; `run` is (rows, tau_max) scratch.

    d' is 1 where the running sum of d is 0. Since d >= 0 that sum never
    decreases, so it is 0 only on a leading run of lags, and only in a row
    whose d(1) is 0 (a digitally silent start): every row is divided, and
    only those rows are then mended."""
    tau_max = dp.shape[1] - 1
    dp[:, 0] = 1.0
    diff = dp[:, 1:]
    np.cumsum(diff, axis=1, out=run)
    diff *= np.arange(1, tau_max + 1)
    with np.errstate(divide="ignore", invalid="ignore"):
        np.divide(diff, run, out=diff)
    silent = run[:, 0] == 0
    if silent.any():
        diff[silent] = np.where(run[silent] == 0, 1.0, diff[silent])

    # the first lag below the threshold, walked downhill to its local minimum
    # (the first lag before tau_max whose successor does not descend), one
    # lag a step for the rows still descending; with no dip, the global
    # minimum, which must itself be below the threshold
    rows = np.arange(dp.shape[0])
    below = dp[:, tau_min:tau_max] < threshold
    tau = tau_min + np.argmax(below, axis=1)
    dipped = below[rows, tau - tau_min]
    del below
    dipless = np.flatnonzero(~dipped)
    if dipless.size:
        tau[dipless] = tau_min + np.argmin(dp[dipless, tau_min:], axis=1)
    walking = np.flatnonzero(dipped)
    while walking.size:
        t = tau[walking]
        walking = walking[(t < tau_max - 1) & (dp[walking, t + 1] < dp[walking, t])]
        tau[walking] += 1

    b = dp[rows, tau]
    delta, _ = _parabola(dp[rows, tau - 1], b, dp[rows, np.minimum(tau + 1, tau_max)],
                         tau < tau_max)
    return np.where(b < threshold, tau + delta, np.nan)


def _next_smooth(n: int) -> int:
    """The smallest 2^a * 3^b >= n: a length numpy's FFT takes in fast radix-2/3 steps."""
    best, p3 = _next_pow2(n), 1
    while p3 < best:
        best = min(best, p3 * _next_pow2(-(-n // p3)))
        p3 *= 3
    return best


def _parabola(a: np.ndarray, b: np.ndarray, c: np.ndarray,
              ok: np.ndarray | bool = True) -> tuple[np.ndarray, np.ndarray]:
    """Vertex offset (clipped to +/-0.5) and height of the parabola through
    (-1, a), (0, b), (1, c), elementwise. Where `ok` is False or the three
    points are collinear, the offset is 0 and the height b."""
    denom = a - 2 * b + c
    bend = ok & (denom != 0)
    delta = np.where(bend, np.clip(0.5 * (a - c) / np.where(bend, denom, 1.0), -0.5, 0.5), 0.0)
    return delta, np.where(bend, b - 0.25 * (a - c) * delta, b)


# ---------------------------------------------------------------------------
# jitter / shimmer / HNR
# ---------------------------------------------------------------------------

def _refine_peaks(x: np.ndarray, idx: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Parabolic sub-sample refinement of the local maxima of x at indices
    idx: times and heights. A peak at either end of x keeps its sample."""
    delta, height = _parabola(x[np.maximum(idx - 1, 0)], x[idx],
                              x[np.minimum(idx + 1, x.size - 1)],
                              (idx > 0) & (idx < x.size - 1))
    return idx + delta, height


def _cycle_peaks_by_region(
    x: np.ndarray, sample_rate_hz: int, f0: FrameSeries
) -> list[tuple[np.ndarray, np.ndarray]]:
    """Peak times and amplitudes of each voiced region that holds a peak.

    Each peak bounds the search for the next, so the chain is a loop; its
    body does Python arithmetic and one argmax per cycle, and each region's
    peaks are refined together afterwards."""
    hop = int(round(f0.hop_seconds * sample_rate_hz))
    voiced = np.flatnonzero(~np.isnan(f0.values))
    if voiced.size == 0:
        return []
    out = []
    regions = np.split(voiced, np.flatnonzero(np.diff(voiced) > 1) + 1)
    for region in regions:
        i0, i1 = int(region[0]), int(region[-1])
        f = f0.values[i0: i1 + 1]  # all voiced, so every period is finite
        periods = sample_rate_hz / f
        # each frame's search window, as offsets from the peak before
        near = np.floor(0.8 * periods).astype(np.int64).tolist()
        far = (np.ceil(1.25 * periods).astype(np.int64) + 1).tolist()
        start = i0 * hop
        end = min(x.size, i1 * hop + int(2 * sample_rate_hz / float(f.min())))
        seed_end = min(x.size, start + int(1.5 * float(periods[0])))
        if seed_end - start < 3:
            continue
        p = start + int(x[start:seed_end].argmax())
        peaks = [p]
        last = x.size - 1
        while True:
            i = min(max(round(p / hop), i0), i1) - i0
            lo, hi = p + near[i], p + far[i]
            if hi > end or lo >= last:
                break
            p = lo + int(x[lo:hi].argmax())
            peaks.append(p)
        out.append(_refine_peaks(x, np.array(peaks)))
    return out


def pick_cycle_peaks(
    x: np.ndarray, sample_rate_hz: int, f0: FrameSeries
) -> tuple[np.ndarray, np.ndarray]:
    """Locate one positive peak per glottal cycle inside voiced regions.

    The F0 track bounds the search: from each accepted peak the next is the
    maximum within [0.8, 1.25] local periods ahead. Returns sub-sample peak
    times (in samples) and interpolated amplitudes, all regions in order.
    """
    regions = _cycle_peaks_by_region(x, sample_rate_hz, f0)
    if not regions:
        return np.empty(0), np.empty(0)
    return (np.concatenate([t for t, _ in regions]),
            np.concatenate([a for _, a in regions]))


def cycle_perturbation(
    x: np.ndarray, sample_rate_hz: int, f0: FrameSeries
) -> tuple[np.ndarray, np.ndarray]:
    """Per-cycle jitter and shimmer terms; no pair spans an unvoiced gap.

    Periods T are peak-to-peak times and A peak amplitudes, paired only
    within one voiced region. Jitter terms are |T[i+1] - T[i]| / mean(T),
    shimmer terms |A[i+1] - A[i]| / |mean(A)| (NaN when mean(A) is 0), the
    means taken over every region. Both are empty when the regions hold
    fewer than 2 periods in all.
    """
    regions = _cycle_peaks_by_region(x, sample_rate_hz, f0)
    periods = [np.diff(t) for t, _ in regions]
    if sum(p.size for p in periods) < 2:
        return np.empty(0), np.empty(0)
    jitter = np.concatenate([np.abs(np.diff(p)) for p in periods])
    jitter /= float(np.mean(np.concatenate(periods)))
    shimmer = np.concatenate([np.abs(np.diff(a)) for _, a in regions])
    mean_amp = float(np.mean(np.concatenate([a for _, a in regions])))
    if mean_amp == 0:
        return jitter, np.full(shimmer.size, np.nan)
    return jitter, shimmer / abs(mean_amp)


def hnr_series(buf: AudioBuffer, f0: FrameSeries) -> FrameSeries:
    """Harmonics-to-noise ratio per voiced frame, NaN when unvoiced.

    A voiced frame starting at sample s with period P = sr/f0 takes the
    integer lag l = round(P) and a 2-period window w = round(2P). At each of
    the integer lags k = l-1, l, l+1 it takes the normalized correlation of
    x[s:s+w] with x[s+k:s+k+w] (0 when either is silent); r is the vertex of
    the 3-point parabola through the three (its offset clipped to +/-0.5
    lag), clamped to [1e-12, 1-1e-12] so HNR stays within about +/-120 dB,
    and HNR = 10*log10(r / (1 - r)). NaN where l < 2, where the frame's
    w + l + 1 samples run past the end, or where x[s:s+w] is silent.

    Voiced frames are taken in blocks of BLOCK_FRAMES; within a block the
    frames sharing (l, w) are gathered into one matrix, and each row's dot
    products are the ones a per-frame loop takes, bit for bit.
    """
    x = buf.samples
    hop = int(round(f0.hop_seconds * buf.sample_rate_hz))
    vals = np.full(f0.values.size, np.nan)
    voiced = np.flatnonzero(~np.isnan(f0.values))
    for frames in np.split(voiced, np.arange(BLOCK_FRAMES, voiced.size, BLOCK_FRAMES)):
        period = buf.sample_rate_hz / f0.values[frames]
        lag = np.rint(period).astype(np.int64)
        w = np.rint(2 * period).astype(np.int64)
        starts = frames * hop
        fits = (starts + w + lag + 1 < x.size) & (lag >= 2)
        frames, starts = frames[fits], starts[fits]
        span = int(w.max(initial=0)) + 1
        key = lag[fits] * span + w[fits]  # one integer per (lag, w) pair
        for k in np.unique(key).tolist():
            rows = key == k
            vals[frames[rows]] = _hnr_rows(x, starts[rows], *divmod(k, span))
    return FrameSeries("hnr", vals, f0.hop_seconds)


def _rowdot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a[i] @ b[i] for each row: a stacked matmul of (1, n) by (n, 1) takes
    the same dot routine as one 1-D `@`, so each row's bits match it."""
    return (a[:, None, :] @ b[:, :, None])[:, 0, 0]


def _hnr_rows(x: np.ndarray, starts: np.ndarray, lag: int, w: int) -> np.ndarray:
    """hnr_series's value at each frame start, all with integer lag `lag`
    and window `w`."""
    segs = x[starts[:, None] + np.arange(w + lag + 1)]
    base = segs[:, :w]
    norm0 = _rowdot(base, base)
    rs = []
    for ell in (lag - 1, lag, lag + 1):
        shifted = segs[:, ell: ell + w]
        denom = np.sqrt(norm0 * _rowdot(shifted, shifted))
        rs.append(np.where(denom > 0, _rowdot(base, shifted) / np.where(denom > 0, denom, 1.0),
                           0.0))
    r = np.clip(_parabola(*rs)[1], 1e-12, 1 - 1e-12)
    return np.where(norm0 > 0, 10.0 * np.log10(r / (1.0 - r)), np.nan)


def nan_mean(values: np.ndarray) -> float:
    """Mean of the non-NaN values; NaN when there are none."""
    return float(np.nanmean(values)) if np.any(~np.isnan(values)) else np.nan


# ---------------------------------------------------------------------------
# MFCC
# ---------------------------------------------------------------------------

def hz_to_mel(f: np.ndarray | float) -> np.ndarray | float:
    return 2595.0 * np.log10(1.0 + np.asarray(f, dtype=np.float64) / 700.0)


def mel_to_hz(m: np.ndarray | float) -> np.ndarray | float:
    return 700.0 * (10.0 ** (np.asarray(m, dtype=np.float64) / 2595.0) - 1.0)


def mel_filterbank(n_mels: int, n_bins: int, bin_hz: float, fmin: float, fmax: float) -> np.ndarray:
    """Triangular filters (n_mels, n_bins) with edges equally spaced in mel."""
    mel_points = np.linspace(hz_to_mel(fmin), hz_to_mel(fmax), n_mels + 2)
    hz_points = mel_to_hz(mel_points)
    freqs = np.arange(n_bins) * bin_hz
    left, centre, right = hz_points[:-2, None], hz_points[1:-1, None], hz_points[2:, None]
    return np.maximum(0.0, np.minimum((freqs - left) / (centre - left),
                                      (right - freqs) / (right - centre)))


def mfcc(
    spec: Spectrum,
    n_mels: int = AcousticConfig.n_mels,
    n_coeffs: int = 13,
) -> np.ndarray:
    """Mel-frequency cepstral coefficients of each spectrum frame.

    Power spectrum -> triangular mel filterbank from 0 Hz to Nyquist ->
    floored natural log -> orthonormal type-II DCT, first n_coeffs kept on
    the last axis.
    """
    n_bins = spec.magnitudes.shape[-1]
    if n_bins < 2:
        raise InvalidBandConfig(f"need a spectrum of >= 2 bins, got {n_bins}")
    if n_mels < 1:
        raise InvalidBandConfig(f"need n_mels >= 1, got {n_mels}")
    if n_coeffs < 1:
        raise InvalidBandConfig(f"need n_coeffs >= 1, got {n_coeffs}")
    if n_coeffs > n_mels:
        raise InvalidBandConfig(f"need n_coeffs <= n_mels, got {n_coeffs} > {n_mels}")
    bank = mel_filterbank(n_mels, n_bins, spec.bin_hz, 0.0, (n_bins - 1) * spec.bin_hz)
    return _cepstra(spec.magnitudes ** 2, bank, dct_basis(n_mels, n_coeffs))


def dct_basis(n: int, k: int) -> np.ndarray:
    """The first k rows (k, n) of the orthonormal type-II DCT matrix:
    row j is sqrt(2/n) * cos(pi * j * (2i + 1) / (2n)) over i, and row 0 is
    scaled by 1/sqrt(2) to sqrt(1/n) (Ahmed, Natarajan & Rao, IEEE Trans.
    Computers, 1974), so x @ dct_basis(n, n).T is scipy.fft.dct(x, type=2,
    norm="ortho"). The angle's integer numerator is reduced mod 4n first,
    so every cosine is taken within one period."""
    numerator = np.arange(k)[:, None] * (2 * np.arange(n) + 1) % (4 * n)
    basis = np.sqrt(2.0 / n) * np.cos(np.pi / (2 * n) * numerator)
    basis[0] = np.sqrt(1.0 / n)
    return basis


def _cepstra(power: np.ndarray, bank: np.ndarray, basis: np.ndarray) -> np.ndarray:
    """One cepstral coefficient per row of the DCT basis, of each power spectrum frame."""
    energies = power @ bank.T
    logs = np.log(np.maximum(energies, SPECTRAL_FLOOR))
    return logs @ basis.T


# ---------------------------------------------------------------------------
# spectral descriptors
# ---------------------------------------------------------------------------

def _spectral_shape(
    mags: np.ndarray, power: np.ndarray, freqs: np.ndarray
) -> tuple[dict[str, np.ndarray], np.ndarray]:
    """Centroid, bandwidth, rolloff and flatness of each frame, from its
    magnitudes and their power; all NaN for a silent frame, scalars for one
    frame. Also returns the power floored at SPECTRAL_FLOOR, which
    overwrites `power`. One buffer of the spectrum's shape holds each
    intermediate in turn."""
    total = mags.sum(axis=-1)
    silent = total <= 0
    total = np.where(silent, 1.0, total)
    work = np.multiply(freqs, mags)
    centroid = work.sum(axis=-1) / total
    np.subtract(freqs, centroid[..., None], out=work)
    np.square(work, out=work)
    work *= mags
    bandwidth = np.sqrt(work.sum(axis=-1) / total)
    np.cumsum(power, axis=-1, out=work)
    rolloff = freqs[np.argmax(work >= 0.85 * work[..., -1:], axis=-1)]
    # uniform limit, kept exact instead of the exp(log()) round-trip
    uniform = power.max(axis=-1) == power.min(axis=-1)
    floored = np.maximum(power, SPECTRAL_FLOOR, out=power)
    flatness = np.clip(np.exp(np.mean(np.log(floored, out=work), axis=-1))
                       / np.mean(floored, axis=-1), 0.0, 1.0)
    flatness = np.where(uniform, 1.0, flatness)
    shape = {"centroid_hz": centroid, "bandwidth_hz": bandwidth,
             "rolloff_hz": rolloff, "flatness": flatness}
    return {key: np.where(silent, np.nan, value)[()] for key, value in shape.items()}, floored


def _contrast(mags: np.ndarray, freqs: np.ndarray) -> np.ndarray:
    """Octave-band peak-to-valley contrast in nats, CONTRAST_BANDS bands on
    the last axis.

    Band i spans [fmin*2^i, fmin*2^(i+1)) from fmin = CONTRAST_FMIN_HZ,
    clipped to Nyquist (freqs[-1]); contrast is log(mean of the top
    CONTRAST_QUANTILE of the band's magnitudes) - log(mean of the bottom
    quantile), at least one bin per side. Empty bands yield NaN. With one
    bin per side (every band at 16 kHz and 25 ms frames) the means are the
    band's minimum and maximum, read without sorting it.
    """
    nyquist = freqs[-1]
    out = np.full(mags.shape[:-1] + (CONTRAST_BANDS,), np.nan)
    for i in range(CONTRAST_BANDS):
        lo = CONTRAST_FMIN_HZ * 2.0 ** i
        hi = min(CONTRAST_FMIN_HZ * 2.0 ** (i + 1), nyquist)
        sel = (freqs >= lo) & (freqs < hi) if hi < nyquist else (freqs >= lo) & (freqs <= hi)
        band = mags[..., sel]
        if band.shape[-1] == 0:
            continue
        count = max(1, int(CONTRAST_QUANTILE * band.shape[-1]))
        if count == 1:
            valley, peak = band.min(axis=-1), band.max(axis=-1)
        else:
            ordered = np.sort(band, axis=-1)
            valley, peak = ordered[..., :count].mean(axis=-1), ordered[..., -count:].mean(axis=-1)
        out[..., i] = (np.log(np.maximum(peak, SPECTRAL_FLOOR))
                       - np.log(np.maximum(valley, SPECTRAL_FLOOR)))
    return out


def _log_rises(logs: np.ndarray, before: np.ndarray) -> np.ndarray:
    """Onset strength: the mean positive rise of each log-magnitude row over
    the row before it; `before` is the (1, bins) row preceding logs[0]."""
    rises = np.empty_like(logs)
    np.subtract(logs[:1], before, out=rises[:1])
    np.subtract(logs[1:], logs[:-1], out=rises[1:])
    return np.maximum(0.0, rises, out=rises).mean(axis=1)


def _tempo_bpm(onset: np.ndarray, hop_s: float) -> float:
    """Tempo at the maximum of the mean windowed autocorrelation of the
    onset-strength series: windows of TEMPO_WINDOW frames (or the whole
    series, if shorter) every quarter window, lags restricted to [30, 300]
    BPM. NaN when no lag is in range or no lag's mean is positive (e.g. an
    all-zero series).
    """
    w = min(TEMPO_WINDOW, onset.size)
    lag_min = max(1, int(np.ceil(60.0 / (300.0 * hop_s))))
    lag_max = min(w - 1, int(np.floor(60.0 / (30.0 * hop_s))))
    if lag_max < lag_min:
        return np.nan
    segs = np.lib.stride_tricks.sliding_window_view(onset, w)[::max(1, w // 4)]
    lags = np.arange(lag_min, lag_max + 1)
    agg = np.stack([_rowdot(segs[:, :-lag], segs[:, lag:]) for lag in lags.tolist()],
                   axis=1).mean(axis=0)
    if np.all(agg <= 0):
        return np.nan
    return 60.0 / (lags[int(np.argmax(agg))] * hop_s)


def centred_fit(y: np.ndarray, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Least-squares slope of y against x over the last axis, and the mean
    of y: the closed form on centred x and y, sum((y - mean y)(x - mean x))
    / sum((x - mean x)^2). A constant y has slope exactly 0 whenever x's
    centred values are exact (bin frequencies are, at sr / 2^k Hz apart)."""
    mean = y.mean(axis=-1, keepdims=True)
    centred = x - x.mean()
    return (y - mean) @ centred / (centred @ centred), mean[..., 0]


def _line_fit(mags: np.ndarray, freqs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Slope and intercept of each frame's least-squares line through
    magnitude against frequency, in closed form (see centred_fit): the
    intercept is mean(mags) - slope * mean(freqs). One matrix-vector product
    replaces np.polyfit's SVD solve, whose last bits it does not share: per
    frame they agree within 2e-11 relative on the benchmark's recordings,
    and where a slope is near 0 the closed form is the closer of the two to
    the exact fit."""
    slope, mean = centred_fit(mags, freqs)
    return slope, mean - slope * freqs.mean()


def _band_slope(floored: np.ndarray, freqs: np.ndarray, lo: float, hi: float) -> np.ndarray:
    """Least-squares slope (dB/Hz) over [lo, hi] of the log-power spectrum,
    from the power already floored at SPECTRAL_FLOOR; NaN below two bins.
    Exactly 0 for a flat (or silent) band (see centred_fit)."""
    sel = (freqs >= lo) & (freqs <= hi)
    if sel.sum() < 2:
        return np.full(floored.shape[:-1], np.nan)[()]
    return centred_fit(10.0 * np.log10(floored[..., sel]), freqs[sel])[0][()]


def _db_ratio(num: np.ndarray, den: np.ndarray, scale: float) -> np.ndarray:
    """scale*log10(num/den) where both are positive, NaN elsewhere."""
    ok = (num > 0) & (den > 0)
    return np.where(ok, scale * np.log10(np.where(ok, num, 1.0) / np.where(ok, den, 1.0)),
                    np.nan)[()]


def _alpha_ratio(power: np.ndarray, freqs: np.ndarray) -> np.ndarray:
    """10*log10 of the power in 50-1000 Hz over the power in 1000-5000 Hz."""
    low = power[..., (freqs >= 50.0) & (freqs <= 1000.0)].sum(axis=-1)
    high = power[..., (freqs > 1000.0) & (freqs <= 5000.0)].sum(axis=-1)
    return _db_ratio(low, high, 10.0)


def _hammarberg(mags: np.ndarray, freqs: np.ndarray) -> np.ndarray:
    """20*log10 of the peak magnitude in 0-2 kHz over the peak in 2-5 kHz."""
    low = (freqs >= 0.0) & (freqs <= 2000.0)
    high = (freqs > 2000.0) & (freqs <= 5000.0)
    if not low.any() or not high.any():
        return np.full(mags.shape[:-1], np.nan)[()]
    return _db_ratio(mags[..., low].max(axis=-1), mags[..., high].max(axis=-1), 20.0)


# ---------------------------------------------------------------------------
# per-recording analysis
# ---------------------------------------------------------------------------

def frame_descriptors(buf: AudioBuffer, config: AcousticConfig) -> dict[str, np.ndarray]:
    """Every per-frame energy and spectral descriptor of the recording.

    One pass over blocks of BLOCK_FRAMES to 2*BLOCK_FRAMES-1 frames (the
    last block takes the tail; a recording with fewer frames is one block):
    each block is windowed into the rows of one zero-padded (block, n_fft)
    workspace, allocated once per recording, transformed and reduced to its
    rows, so the windowed frames and the spectrogram never exist for the
    whole recording. Returns (n_frames,) series rms, zcr, centroid,
    bandwidth, rolloff, flatness, poly_slope, poly_intercept,
    slope_<lo>_<hi> for each SLOPE_BANDS_HZ band, alpha_ratio, hammarberg
    and flux; and (n_frames, k) series mfcc (every coefficient, k = n_mels)
    and contrast (k = CONTRAST_BANDS). Flux carries the previous block's
    last log-magnitude row across each boundary; it is all NaN below two
    frames, where no frame has a predecessor. Every series but poly_slope
    and poly_intercept (see _line_fit) is bit for bit what the same kernels
    give on the whole recording's spectrogram.
    """
    frame_len, hop = _frame_geometry(buf, config)
    raw = raw_frames(buf, frame_len, hop)
    window = window_coefficients(config.window, frame_len)
    n_fft = _next_pow2(frame_len)
    sr = buf.sample_rate_hz
    freqs = np.arange(n_fft // 2 + 1) * (sr / n_fft)
    bank = mel_filterbank(config.n_mels, freqs.size, sr / n_fft, 0.0, sr / 2)
    basis = dct_basis(config.n_mels, config.n_mels)
    n_frames = raw.shape[0]
    edges = [i * BLOCK_FRAMES for i in range(max(1, n_frames // BLOCK_FRAMES))] + [n_frames]
    # the last block is the largest; n_fft + 2 values a frame also hold its
    # magnitudes and then its logs or power, n_fft/2 + 1 values each
    work = np.empty((edges[-1] - edges[-2]) * (n_fft + 2))
    out: dict[str, np.ndarray] = {}
    before = None
    for start, stop in zip(edges, edges[1:]):
        rows, before = _block_rows(raw[start:stop], window, work, freqs, bank, basis, before)
        rows["zcr"] = _zcr(buf.samples[start * hop: (stop - 1) * hop + frame_len], frame_len, hop)
        for name, value in rows.items():
            if name not in out:
                out[name] = np.empty((n_frames,) + value.shape[1:])
            out[name][start:stop] = value
    if n_frames < 2:
        out["flux"][:] = np.nan
    return out


def _zcr(samples: np.ndarray, frame_len: int, hop: int) -> np.ndarray:
    """Zero-crossing rate of each frame_len-sample frame of `samples`, one
    every hop: the share of the frame's neighbouring sample pairs whose
    product is negative. The crossings are found once over the span, not
    once per overlapping frame, and each frame counts its own by bisection."""
    crossings = np.flatnonzero(samples[:-1] * samples[1:] < 0)
    starts = np.arange(0, samples.size - frame_len + 1, hop)
    ends = np.searchsorted(crossings, starts + frame_len - 1)
    return (ends - np.searchsorted(crossings, starts)) / (frame_len - 1)


def _block_rows(raw: np.ndarray, window: np.ndarray, work: np.ndarray, freqs: np.ndarray,
                bank: np.ndarray, basis: np.ndarray, before: np.ndarray | None
                ) -> tuple[dict[str, np.ndarray], np.ndarray]:
    """frame_descriptors' rows of one block of raw frames, but zcr (see
    _zcr), and the block's last log-magnitude row (flux's `before` for the
    next block).

    rms is taken over the windowed frame. `work` is flat scratch of at
    least frames * (n_fft + 2) values, overwritten: first the windowed
    frames as (frames, n_fft) rows zero-padded to n_fft, transformed
    FFT_ROWS rows at a time; each slab's magnitudes then go to a contiguous
    (frames, n_fft/2 + 1) array at its start, which reaches only rows
    already transformed, and the log-magnitudes and then the power spectrum
    to a second one after it. Beside `work`, at most two (frames, bins)
    float arrays or one slab's transform are alive at once."""
    n, frame_len = raw.shape
    n_bins = freqs.size
    n_fft = 2 * n_bins - 2
    rows = {"rms": np.empty(n)}
    frames = work[: n * n_fft].reshape(n, n_fft)
    np.multiply(raw, window, out=frames[:, :frame_len])
    frames[:, frame_len:] = 0.0
    mags = work[: n * n_bins].reshape(n, n_bins)
    for start in range(0, n, FFT_ROWS):
        slab = slice(start, start + FFT_ROWS)
        transform = np.fft.rfft(frames[slab])
        squares = np.square(frames[slab, :frame_len], out=frames[slab, :frame_len])
        rows["rms"][slab] = np.sqrt(np.mean(squares, axis=1))
        np.abs(transform, out=mags[slab])
    del transform
    spare = work[n * n_bins: 2 * n * n_bins].reshape(n, n_bins)
    logs = np.log(np.maximum(mags, SPECTRAL_FLOOR, out=spare), out=spare)
    rows["flux"] = _log_rises(logs, logs[:1] if before is None else before)
    before = logs[-1:].copy()  # a copy: the power spectrum overwrites the logs
    rows["poly_slope"], rows["poly_intercept"] = _line_fit(mags, freqs)
    rows.update(contrast=_contrast(mags, freqs), hammarberg=_hammarberg(mags, freqs))
    power = np.square(mags, out=spare)
    rows.update(mfcc=_cepstra(power, bank, basis), alpha_ratio=_alpha_ratio(power, freqs))
    shape, floored = _spectral_shape(mags, power, freqs)
    rows.update({name: shape[f"{name}_hz"] for name in ("centroid", "bandwidth", "rolloff")},
                flatness=shape["flatness"])
    rows.update({f"slope_{lo}_{hi}": _band_slope(floored, freqs, lo, hi)
                 for lo, hi in SLOPE_BANDS_HZ})
    return rows, before


class Analysis:
    """One recording's intermediates, each computed once, on first use.

    Every acoustic family reads the same Analysis, so the descriptor pass,
    F0, HNR and glottal cycles run once per recording, and a family that
    needs no F0 never runs the tracker. Each is array code over blocks: the
    descriptors over blocks of frames, F0 and HNR over blocks of
    BLOCK_FRAMES (voiced) frames, and the glottal cycles over each voiced
    region, whose peak chain alone is a loop of Python arithmetic with one
    argmax per cycle. Only per-frame (and per-cycle) series are kept, never
    frames or spectra.
    """

    def __init__(self, buf: AudioBuffer, config: AcousticConfig) -> None:
        self.buf = buf
        self.config = config

    @cached_property
    def descriptors(self) -> dict[str, np.ndarray]:
        """Every per-frame energy and spectral series (see frame_descriptors)."""
        return frame_descriptors(self.buf, self.config)

    @cached_property
    def f0(self) -> FrameSeries:
        c = self.config
        return f0_track(self.buf, c.f_min_hz, c.f_max_hz, c.hop_seconds, c.yin_threshold)

    @cached_property
    def hnr(self) -> FrameSeries:
        return hnr_series(self.buf, self.f0)

    @cached_property
    def cycle_terms(self) -> tuple[np.ndarray, np.ndarray]:
        """Per-cycle jitter and shimmer terms (see cycle_perturbation)."""
        return cycle_perturbation(self.buf.samples, self.buf.sample_rate_hz, self.f0)

    @property
    def tempo_bpm(self) -> float:
        """Tempo of the flux series (see _tempo_bpm)."""
        return _tempo_bpm(self.descriptors["flux"], self.config.hop_seconds)
