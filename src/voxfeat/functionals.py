"""Collapse frame series into utterance-level features via a statistics bank,
declare feature families, and compute the three acoustic families.

Each family is declared once, beside the code that computes it: the CSV
header, the feature dictionary and the computed row all read that
declaration. The acoustic families read one shared acoustic.Analysis per
recording, so each intermediate is computed once, and they read only its
per-frame and per-cycle series: no family sees a frame or a spectrum, so
their memory follows the recording's frame count. Feature counts and orders
of gemaps_core (27) and spectral_set (30) are frozen; tests pin the exact
name lists. Their name sets are disjoint.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np

from .acoustic import (
    CONTRAST_BANDS,
    CONTRAST_FMIN_HZ,
    SLOPE_BANDS_HZ,
    SPECTRAL_FLOOR,
    AcousticConfig,
    Analysis,
    FrameSeries,
    nan_mean,
    tempogram_tempo,
)
from .audio_io import AudioBuffer

_PERCENTILE_RE = re.compile(r"^p(\d+(?:\.\d+)?)$")


class Statistic(NamedTuple):
    """One statistic of a series: `compute` takes its non-NaN values and
    their frame indices; `text` is its formula, which names what the series
    runs over unless the statistic is defined on frame order."""

    compute: Callable[[np.ndarray, np.ndarray], float]
    text: str
    frame_order: bool = False

    def describe(self, over: str = " over frames") -> str:
        return self.text if self.frame_order else self.text + over


def _slope(values: np.ndarray, indices: np.ndarray) -> float:
    if values.size < 2 or np.ptp(indices) == 0:
        return np.nan
    x = indices.astype(np.float64)
    xc = x - x.mean()
    return (xc @ (values - values.mean())) / (xc @ xc)


def _delta_mean_abs(values: np.ndarray, indices: np.ndarray) -> float:
    adjacent = np.diff(indices) == 1
    if not np.any(adjacent):
        return np.nan
    return np.mean(np.abs(np.diff(values)[adjacent]))


def _percentile(values: np.ndarray, fraction: float) -> float:
    """np.percentile(values, 100 * fraction) with its linear method, bit for
    bit, without its per-call overhead: one np.partition of a copy at the
    kth set np.percentile uses (which zero of a -0.0/0.0 tie lands where
    depends on it), then numpy's two-sided interpolation formula."""
    n = values.size
    virtual = (n - 1) * fraction
    if virtual >= n - 1:
        lo = hi = -1  # numpy's index of the maximum
    else:
        lo = math.floor(virtual)
        hi = lo + 1
    ordered = np.partition(values, sorted({0, -1, lo, hi}))
    a, b = ordered[lo], ordered[hi]
    gamma = virtual - lo
    return b - (b - a) * (1 - gamma) if gamma >= 0.5 else a + (b - a) * gamma


STATISTICS = {
    "mean": Statistic(lambda v, i: v.mean(), "mean"),
    "stddev": Statistic(lambda v, i: v.std(), "population stddev"),
    "min": Statistic(lambda v, i: v.min(), "minimum"),
    "max": Statistic(lambda v, i: v.max(), "maximum"),
    "median": Statistic(lambda v, i: np.median(v), "median"),
    "range": Statistic(lambda v, i: v.max() - v.min(), "max minus min"),
    "slope": Statistic(_slope, "least-squares slope against frame index", True),
    "delta_mean_abs": Statistic(_delta_mean_abs, "mean |difference| of adjacent frames", True),
}


def statistic(name: str) -> Statistic:
    """The STATISTICS entry of name, or the percentile "p<value>", 0 < value < 100."""
    if name in STATISTICS:
        return STATISTICS[name]
    m = _PERCENTILE_RE.match(name)
    if m and 0.0 < float(m.group(1)) < 100.0:
        fraction = float(m.group(1)) / 100
        return Statistic(lambda v, i: _percentile(v, fraction), f"{m.group(1)}th percentile")
    raise ValueError(f"unknown statistic {name!r}")


@dataclass(frozen=True)
class FunctionalBank:
    """Ordered statistics to apply per series, resolved when the bank is
    built: names from STATISTICS, or percentiles "p<value>"."""

    stats: tuple[str, ...]
    statistics: tuple[Statistic, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not self.stats:
            raise ValueError("FunctionalBank needs at least one statistic")
        object.__setattr__(self, "statistics", tuple(map(statistic, self.stats)))

    def summarize(self, values: np.ndarray, name: str = "") -> list[float]:
        """Each statistic over the series' non-NaN values (slope against
        their original frame indices), in bank order: all NaN for an all-NaN
        series, ValueError for one holding an infinity."""
        values = np.asarray(values, dtype=np.float64)
        keep = ~np.isnan(values)
        kept = values[keep]
        if not np.all(np.isfinite(kept)):
            raise ValueError(f"series {name!r} contains non-finite non-NaN values")
        if kept.size == 0:
            return [np.nan] * len(self.stats)
        indices = np.flatnonzero(keep)
        return [float(s.compute(kept, indices)) for s in self.statistics]


DEFAULT_BANK = FunctionalBank(("mean", "stddev", "min", "max", "p10"))


@dataclass(frozen=True)
class FeatureVector:
    """Named utterance-level feature values; NaN propagates, never dropped."""

    names: tuple[str, ...]
    values: np.ndarray
    source_id: str = ""

    def __post_init__(self) -> None:
        values = np.asarray(self.values, dtype=np.float64)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "names", tuple(self.names))
        if len(self.names) != values.size:
            raise ValueError(f"{len(self.names)} names for {values.size} values")
        if len(set(self.names)) != len(self.names):
            raise ValueError("feature names must be unique")

    def as_dict(self) -> dict[str, float]:
        return dict(zip(self.names, (float(v) for v in self.values)))

    def __getitem__(self, name: str) -> float:
        return float(self.values[self.names.index(name)])


def concat_vectors(parts: list[FeatureVector], source_id: str = "") -> FeatureVector:
    names: list[str] = []
    values: list[float] = []
    for part in parts:
        names.extend(part.names)
        values.extend(part.values)
    return FeatureVector(tuple(names), np.asarray(values), source_id)


def apply_bank(series: FrameSeries, bank: FunctionalBank = DEFAULT_BANK) -> FeatureVector:
    """One feature "<series>_<stat>" per statistic of the bank (see summarize)."""
    return FeatureVector(tuple(f"{series.name}_{s}" for s in bank.stats),
                         bank.summarize(series.values, series.name))


# ---------------------------------------------------------------------------
# feature families
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Family:
    """One feature family, declared once.

    Each entry is (name, formula), or (series, formula, stats[, over]),
    which stands for one feature "<series>_<stat>" per statistic, its formula
    followed by the statistic's text; `over` names what the series runs over
    (" over frames" unless given). `compute` returns the family's
    FeatureVector from the recording's shared acoustic.Analysis for an
    "acoustic.*" category, or from (Transcript, TextResources) for a
    "text.*" one.
    """

    category: str
    entries: tuple[tuple, ...]
    compute: Callable[..., FeatureVector]
    features: tuple[tuple[str, str], ...] = field(init=False, repr=False, compare=False)
    names: tuple[str, ...] = field(init=False, repr=False, compare=False)
    banks: dict[str, FunctionalBank] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        banks = {entry[0]: FunctionalBank(entry[2]) for entry in self.entries if len(entry) > 2}
        features: list[tuple[str, str]] = []
        for entry in self.entries:
            if len(entry) == 2:
                features.append(entry)
            else:
                series, formula, stats, *over = entry
                features.extend((f"{series}_{s}", f"{formula}; {st.describe(*over)}")
                                for s, st in zip(stats, banks[series].statistics))
        object.__setattr__(self, "features", tuple(features))
        object.__setattr__(self, "names", tuple(name for name, _ in features))
        object.__setattr__(self, "banks", banks)

    @property
    def is_text(self) -> bool:
        return self.category.startswith("text.")

    def vector(self, values: dict, source_id: str = "") -> FeatureVector:
        """The family's row from computed values keyed by entry: a per-frame
        array for each series entry, summarized by its bank, and a number
        for each (name, formula) entry."""
        out: list[float] = []
        for name, *_ in self.entries:
            bank = self.banks.get(name)
            out.extend(bank.summarize(values[name], name) if bank else [values[name]])
        return FeatureVector(self.names, np.asarray(out, dtype=np.float64), source_id)


_MEAN_STD = ("mean", "stddev")
# for the jitter, shimmer and HNR series, whose means are the gemaps scalars
# jitter_local, shimmer_local and hnr_db
_STD = ("stddev",)
_PAIRS = " over adjacent cycle pairs"  # the jitter and shimmer series hold one term per pair

# descriptors that both the spectral set and the LLD family summarize
_DESCRIPTOR_TEXT = {
    "rms": "root mean square of the windowed frame",
    "zcr": "sign-change fraction of the raw frame",
    "centroid": "magnitude-weighted mean frequency",
    "bandwidth": "magnitude-weighted stddev around the centroid",
    "flatness": "geometric mean / arithmetic mean of the power spectrum",
    "rolloff": "lowest frequency holding 85% of cumulative power",
    "flux": "mean over bins of the positive log-magnitude rise since the previous frame",
}


def _mfcc_text(k: int) -> str:
    return f"mel cepstrum coefficient {k} ({AcousticConfig.n_mels} HTK mel bands, DCT-II ortho)"


def _gemaps(a: Analysis) -> FeatureVector:
    f0 = a.f0.values
    voiced = ~np.isnan(f0)
    jitter, shimmer = a.cycle_terms
    d = a.descriptors
    values = {
        "f0_semitone": np.where(voiced, 12.0 * np.log2(np.where(voiced, f0, 1.0) / 27.5), np.nan),
        "loudness": d["rms"],
        "jitter": jitter,
        "shimmer": shimmer,
        "hnr": a.hnr.values,
        **{name: d[name] for name in _SLOPE_NAMES + ("alpha_ratio", "hammarberg")},
        **{f"mfcc{k}": d["mfcc"][:, k] for k in range(1, 5)},
        "voiced_fraction": float(voiced.mean()) if f0.size else np.nan,
        "jitter_local": nan_mean(jitter),
        "shimmer_local": nan_mean(shimmer),
        "hnr_db": nan_mean(a.hnr.values),
    }
    return GEMAPS.vector(values, a.buf.source_id)


def gemaps_core(buf: AudioBuffer, config: AcousticConfig | None = None) -> FeatureVector:
    """The 27-feature voice-quality set (a core subset of the eGeMAPS idea).

    Ten series with {mean, stddev} each: F0 in semitones relative to 27.5 Hz
    (voiced frames), loudness (frame RMS), two band-restricted spectral
    slopes, alpha ratio, Hammarberg index, MFCC 1-4. Per-cycle jitter and
    shimmer and per-frame HNR give their stddev only, since their means are
    the scalars jitter_local, shimmer_local and hnr_db; voiced_fraction is
    the fourth scalar.
    """
    return _gemaps(Analysis(buf, config or AcousticConfig()))


_SLOPE_NAMES = tuple(f"slope_{lo}_{hi}" for lo, hi in SLOPE_BANDS_HZ)


def _slope_text(lo: int, hi: int) -> str:
    return (f"least-squares slope (dB/Hz) of the log-power spectrum "
            f"10*log10(max(|X|^2, {SPECTRAL_FLOOR:g})) over {lo}-{hi} Hz")


GEMAPS = Family("acoustic.gemaps", (
    ("f0_semitone", "12*log2(f0_hz / 27.5) on voiced frames", _MEAN_STD),
    ("loudness", "frame RMS amplitude", _MEAN_STD),
    ("jitter", "|T[i+1] - T[i]| / mean(T) per adjacent cycle pair", _STD, _PAIRS),
    ("shimmer", "|A[i+1] - A[i]| / |mean(A)| per adjacent cycle pair", _STD, _PAIRS),
    ("hnr", "10*log10(r / (1 - r)), r = periodic autocorrelation share", _STD),
    *((name, _slope_text(lo, hi), _MEAN_STD)
      for name, (lo, hi) in zip(_SLOPE_NAMES, SLOPE_BANDS_HZ)),
    ("alpha_ratio", "10*log10(power 50-1000 Hz / power 1000-5000 Hz)", _MEAN_STD),
    ("hammarberg", "20*log10(peak magnitude 0-2 kHz / peak magnitude 2-5 kHz)", _MEAN_STD),
    *((f"mfcc{k}", _mfcc_text(k), _MEAN_STD) for k in range(1, 5)),
    ("voiced_fraction", "voiced frames / total frames"),
    ("jitter_local", "mean |T[i+1] - T[i]| / mean(T) over all glottal cycles"),
    ("shimmer_local", "mean |A[i+1] - A[i]| / |mean(A)| over all cycle peaks"),
    ("hnr_db", "10*log10(r / (1 - r)) averaged over voiced frames"),
), _gemaps)
GEMAPS_FEATURE_NAMES = GEMAPS.names  # 10*2 + 3 + 4 = 27


def _spectral(a: Analysis) -> FeatureVector:
    d = a.descriptors
    values = {
        **{name: d[name] for name in (*_DESCRIPTOR_TEXT, "poly_slope", "poly_intercept")},
        **{f"contrast_b{b}": d["contrast"][:, b] for b in range(CONTRAST_BANDS)},
        "tempo_bpm": tempogram_tempo(FrameSeries("flux", d["flux"], a.config.hop_seconds))[0],
    }
    return SPECTRAL.vector(values, a.buf.source_id)


def spectral_set(buf: AudioBuffer, config: AcousticConfig | None = None) -> FeatureVector:
    """The 30-feature spectrogram set: shape, contrast, flux, energy,
    polynomial fit, and tempo."""
    return _spectral(Analysis(buf, config or AcousticConfig()))


SPECTRAL = Family("acoustic.spectral", (
    *((name, _DESCRIPTOR_TEXT[name], _MEAN_STD)
      for name in ("centroid", "bandwidth", "flatness", "rolloff")),
    *((f"contrast_b{b}",
       "ln(mean of the top 2% / mean of the bottom 2% of band magnitudes), octave band "
       f"{CONTRAST_FMIN_HZ * 2 ** b:g}-{CONTRAST_FMIN_HZ * 2 ** (b + 1):g} Hz", _MEAN_STD)
      for b in range(CONTRAST_BANDS)),
    ("flux", _DESCRIPTOR_TEXT["flux"], _MEAN_STD),
    ("rms", _DESCRIPTOR_TEXT["rms"], ("mean", "stddev", "min", "max", "median")),
    ("zcr", _DESCRIPTOR_TEXT["zcr"], _MEAN_STD),
    ("poly_slope", "slope of an order-1 fit to the magnitude spectrum", _MEAN_STD),
    ("poly_intercept", "intercept of an order-1 fit to the magnitude spectrum", _MEAN_STD),
    ("tempo_bpm", "BPM at the max of the windowed onset-strength autocorrelation"),
), _spectral)
SPECTRAL_FEATURE_NAMES = SPECTRAL.names  # 30

_LLD_MFCC = 13

LLD_SERIES = (
    ("f0", "fundamental frequency (Hz), difference-function pitch tracker"),
    ("hnr", "harmonics-to-noise ratio (dB) per voiced frame"),
    *_DESCRIPTOR_TEXT.items(),
    *((f"mfcc{k}", _mfcc_text(k)) for k in range(_LLD_MFCC)),
)
LLD_SERIES_NAMES = tuple(name for name, _ in LLD_SERIES)


def _lld_values(a: Analysis) -> dict[str, np.ndarray]:
    d = a.descriptors
    return {
        "f0": a.f0.values,
        "hnr": a.hnr.values,
        **{name: d[name] for name in _DESCRIPTOR_TEXT},
        **{f"mfcc{k}": d["mfcc"][:, k] for k in range(_LLD_MFCC)},
    }


def lld_series(buf: AudioBuffer, config: AcousticConfig | None = None) -> list[FrameSeries]:
    """Every LLD_SERIES descriptor per frame, in declaration order. Flux is
    all-NaN when there are fewer than two frames."""
    config = config or AcousticConfig()
    values = _lld_values(Analysis(buf, config))
    return [FrameSeries(name, values[name], config.hop_seconds) for name in LLD_SERIES_NAMES]


def lld_family(stats: tuple[str, ...]) -> Family:
    """The LLD family: every LLD series summarized by the user's statistics."""
    def compute(a: Analysis) -> FeatureVector:
        values = _lld_values(a)
        return family.vector({f"lld_{name}": values[name] for name in LLD_SERIES_NAMES},
                             a.buf.source_id)

    family = Family("acoustic.lld",
                    tuple((f"lld_{name}", text, stats) for name, text in LLD_SERIES), compute)
    return family
