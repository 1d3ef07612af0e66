"""Declarative run configuration.

A config is a flat JSON object (plus one nested "analyze" object) that is
fully validated before any work starts. The emitted feature-column order is
a pure function of the config, so identical configs always produce
identically shaped CSV files.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

from .audio_io import WINDOW_KINDS
from .coherence import COHERENCE
from .errors import ConfigError
from .functionals import GEMAPS, SPECTRAL, STATISTICS, Family, FunctionalBank, lld_family
from .textfeat import COMPLEXITY, SENTIMENT, SYNTAX
from .textio import read_text

_SELECTORS = ("anova_f", "rfe", "mrmr", "importance")

SENTIMENT_FEATURE_NAMES = SENTIMENT.names


@dataclass(frozen=True)
class AnalyzeSpec:
    """filter -> transform -> select -> score stage plan for `analyze`."""

    low_variance: bool = True
    low_variance_threshold: float = 0.0
    high_correlation: bool = True
    high_correlation_threshold: float = 0.95
    transform: str | None = None
    transform_k: int = 5
    selector: str = "anova_f"
    estimator: str = "auto"
    k_values: tuple[int, ...] = (1, 2, 5, 10)
    folds: int = 5


@dataclass(frozen=True)
class PipelineConfig:
    frame_seconds: float = 0.025
    hop_seconds: float = 0.010
    window: str = "hann"
    gemaps_core: bool = True
    spectral: bool = True
    complexity: bool = True
    syntax: bool = True
    sentiment: bool = False
    coherence: bool = False
    lld_functionals: tuple[str, ...] = ()
    embeddings_path: str | None = None
    valence_path: str | None = None
    lexicon_path: str | None = None
    suffix_path: str | None = None
    seed: int = 0
    analyze: AnalyzeSpec = field(default_factory=AnalyzeSpec)


def _real(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool) and math.isfinite(v)


def _integer(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def _statistics(v) -> bool:
    try:
        FunctionalBank(v)
    except (TypeError, ValueError):
        return v == ()  # an empty list turns the LLD family off
    return isinstance(v, (tuple, list)) and len(set(v)) == len(v)


def _one_of(options: tuple) -> tuple:
    return f"one of {options}", lambda v: v in options


_TOGGLE = ("true or false", lambda v: isinstance(v, bool))
_SECONDS = ("a finite number > 0", lambda v: _real(v) and v > 0)
_FILE = ("null or an existing file",
         lambda v: v is None or isinstance(v, str) and Path(v).is_file())

# The one rule of every PipelineConfig and AnalyzeSpec key but "analyze":
# the phrase that completes "<key> must be", and the test its value passes.
RULES = {
    "frame_seconds": _SECONDS,
    "hop_seconds": _SECONDS,
    "window": _one_of(WINDOW_KINDS),
    "gemaps_core": _TOGGLE,
    "spectral": _TOGGLE,
    "complexity": _TOGGLE,
    "syntax": _TOGGLE,
    "sentiment": _TOGGLE,
    "coherence": _TOGGLE,
    "lld_functionals": (f"a list of distinct names from {tuple(STATISTICS)} or "
                        f"p<value> with 0 < value < 100", _statistics),
    "embeddings_path": _FILE,
    "valence_path": _FILE,
    "lexicon_path": _FILE,
    "suffix_path": _FILE,
    "seed": ("a non-negative integer", lambda v: _integer(v) and v >= 0),
    "low_variance": _TOGGLE,
    "low_variance_threshold": ("a finite number >= 0", lambda v: _real(v) and v >= 0),
    "high_correlation": _TOGGLE,
    "high_correlation_threshold": ("a number in (0, 1)", lambda v: _real(v) and 0 < v < 1),
    "transform": _one_of((None, "pca", "ica")),
    "transform_k": ("a positive integer", lambda v: _integer(v) and v >= 1),
    "selector": _one_of(_SELECTORS),
    "estimator": _one_of(("auto", "logistic", "ols")),
    "k_values": ("a non-empty list of positive integers", lambda v: isinstance(v, (tuple, list))
                 and len(v) > 0 and all(_integer(k) and k >= 1 for k in v)),
    "folds": ("an integer >= 2", lambda v: _integer(v) and v >= 2),
}


def validate_config(cfg: PipelineConfig) -> None:
    """Raise ConfigError on the first value outside its key's rule, then on
    the first violated rule that spans keys."""
    for obj in (cfg, cfg.analyze):
        for name, value in vars(obj).items():
            if name in RULES:  # every key but "analyze"
                phrase, test = RULES[name]
                if not test(value):
                    raise ConfigError(f"{name} must be {phrase}, got {value!r}")
    if cfg.hop_seconds > cfg.frame_seconds:
        raise ConfigError(f"hop_seconds must not exceed frame_seconds, got "
                          f"{cfg.hop_seconds!r} > {cfg.frame_seconds!r}")
    if cfg.coherence and not cfg.embeddings_path:
        raise ConfigError("coherence is enabled but embeddings_path is not set")
    if cfg.sentiment and not cfg.valence_path:
        raise ConfigError("sentiment is enabled but valence_path is not set")


def _build(cls, data: dict, context: str):
    unknown = set(data) - {f.name for f in dataclasses.fields(cls)}
    if unknown:
        raise ConfigError(f"unknown {context} keys: {sorted(unknown)}")
    return cls(**{key: tuple(value) if isinstance(value, list) else value
                  for key, value in data.items()})


def config_from_dict(data: dict, base_dir: str | Path | None = None) -> PipelineConfig:
    """Build and validate a config; relative paths resolve against base_dir."""
    if not isinstance(data, dict):
        raise ConfigError(f"config must be a JSON object, got {type(data).__name__}")
    analyze = data.get("analyze")  # null means the defaults
    if analyze is not None and not isinstance(analyze, dict):
        raise ConfigError(f"analyze must be a JSON object, got {analyze!r}")
    spec = _build(AnalyzeSpec, analyze or {}, "analyze")
    cfg = _build(PipelineConfig, {**data, "analyze": spec}, "config")
    if base_dir is not None:
        for name in [key for key, rule in RULES.items() if rule is _FILE]:
            value = getattr(cfg, name)
            if isinstance(value, str) and not Path(value).is_absolute():
                cfg = dataclasses.replace(cfg, **{name: str(Path(base_dir) / value)})
    validate_config(cfg)
    return cfg


def load_config(path: str | Path) -> PipelineConfig:
    path = Path(path)
    try:
        text = read_text(path)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path} is not valid JSON: {exc}") from None
    return config_from_dict(data, base_dir=path.parent)


def config_to_dict(cfg: PipelineConfig) -> dict:
    """The config as JSON values: every tuple becomes a list."""
    return dataclasses.asdict(cfg, dict_factory=lambda items: {
        key: list(value) if isinstance(value, tuple) else value for key, value in items})


def config_hash(cfg: PipelineConfig) -> str:
    canonical = json.dumps(config_to_dict(cfg), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def feature_families(cfg: PipelineConfig) -> list[tuple[bool, Family]]:
    """Every feature family in column order, each with whether cfg turns it
    on. The LLD family is listed only when lld_functionals names its stats."""
    families = [(cfg.gemaps_core, GEMAPS), (cfg.spectral, SPECTRAL)]
    if cfg.lld_functionals:
        families.append((True, lld_family(cfg.lld_functionals)))
    families += [(cfg.complexity, COMPLEXITY), (cfg.syntax, SYNTAX),
                 (cfg.sentiment, SENTIMENT), (cfg.coherence, COHERENCE)]
    return families


def feature_names_for(cfg: PipelineConfig) -> tuple[str, ...]:
    """The exact CSV column order this config emits."""
    return tuple(name for on, family in feature_families(cfg) if on for name in family.names)
