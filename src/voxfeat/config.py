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
from .functionals import GEMAPS, SPECTRAL, Family, FunctionalBank, lld_family
from .textfeat import COMPLEXITY, SENTIMENT, SYNTAX
from .textio import read_text

_SELECTORS = ("anova_f", "rfe", "mrmr", "importance")
_ESTIMATORS = ("auto", "logistic", "ols")
_TRANSFORMS = (None, "pca", "ica")

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


def validate_config(cfg: PipelineConfig) -> None:
    """Raise ConfigError on the first violated invariant."""
    for name in ("frame_seconds", "hop_seconds"):
        value = getattr(cfg, name)
        if (isinstance(value, bool) or not isinstance(value, (int, float))
                or not 0 < value < math.inf):
            raise ConfigError(f"{name} must be a finite number > 0, got {value!r}")
    if cfg.hop_seconds > cfg.frame_seconds:
        raise ConfigError(f"hop_seconds must not exceed frame_seconds, got "
                          f"{cfg.hop_seconds!r} > {cfg.frame_seconds!r}")
    if cfg.window not in WINDOW_KINDS:
        raise ConfigError(f"window must be one of {WINDOW_KINDS}, got {cfg.window!r}")
    for toggle in ("gemaps_core", "spectral", "complexity", "syntax",
                   "sentiment", "coherence"):
        if not isinstance(getattr(cfg, toggle), bool):
            raise ConfigError(f"{toggle} must be true or false")
    if cfg.lld_functionals:  # empty tuple means the family is off
        try:
            FunctionalBank(cfg.lld_functionals)
        except Exception as exc:
            raise ConfigError(f"lld_functionals: {exc}") from None
    if not isinstance(cfg.seed, int) or isinstance(cfg.seed, bool) or cfg.seed < 0:
        raise ConfigError(f"seed must be a non-negative integer, got {cfg.seed!r}")
    if cfg.coherence and not cfg.embeddings_path:
        raise ConfigError("coherence is enabled but embeddings_path is not set")
    if cfg.sentiment and not cfg.valence_path:
        raise ConfigError("sentiment is enabled but valence_path is not set")
    for name in ("embeddings_path", "valence_path", "lexicon_path", "suffix_path"):
        value = getattr(cfg, name)
        if value is not None and not Path(value).is_file():
            raise ConfigError(f"{name} does not exist: {value}")

    spec = cfg.analyze
    for toggle in ("low_variance", "high_correlation"):
        if not isinstance(getattr(spec, toggle), bool):
            raise ConfigError(f"{toggle} must be true or false")
    for name in ("low_variance_threshold", "high_correlation_threshold"):
        value = getattr(spec, name)
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            raise ConfigError(f"{name} must be a number, got {value!r}")
    if spec.low_variance_threshold < 0:
        raise ConfigError("low_variance_threshold must be >= 0")
    if not 0.0 < spec.high_correlation_threshold < 1.0:
        raise ConfigError("high_correlation_threshold must be in (0, 1)")
    if spec.transform not in _TRANSFORMS:
        raise ConfigError(f"transform must be one of {_TRANSFORMS}, got {spec.transform!r}")
    if (not isinstance(spec.transform_k, int) or isinstance(spec.transform_k, bool)
            or spec.transform_k < 1):
        raise ConfigError(f"transform_k must be a positive integer, got {spec.transform_k!r}")
    if spec.selector not in _SELECTORS:
        raise ConfigError(f"selector must be one of {_SELECTORS}, got {spec.selector!r}")
    if spec.estimator not in _ESTIMATORS:
        raise ConfigError(f"estimator must be one of {_ESTIMATORS}, got {spec.estimator!r}")
    if not spec.k_values:
        raise ConfigError("k_values must be non-empty")
    for k in spec.k_values:
        if not isinstance(k, int) or isinstance(k, bool) or k < 1:
            raise ConfigError(f"k_values entries must be positive integers, got {k!r}")
    if not isinstance(spec.folds, int) or spec.folds < 2:
        raise ConfigError(f"folds must be an integer >= 2, got {spec.folds!r}")


def _build(cls, data: dict, context: str):
    fields = {f.name: f for f in dataclasses.fields(cls)}
    unknown = set(data) - set(fields)
    if unknown:
        raise ConfigError(f"unknown {context} keys: {sorted(unknown)}")
    kwargs = {}
    for key, value in data.items():
        if isinstance(value, list):
            value = tuple(value)
        kwargs[key] = value
    try:
        return cls(**kwargs)
    except TypeError as exc:
        raise ConfigError(f"bad {context}: {exc}") from None


def config_from_dict(data: dict, base_dir: str | Path | None = None) -> PipelineConfig:
    """Build and validate a config; relative paths resolve against base_dir."""
    if not isinstance(data, dict):
        raise ConfigError(f"config must be a JSON object, got {type(data).__name__}")
    data = dict(data)
    analyze_data = data.pop("analyze", None)
    cfg = _build(PipelineConfig, data, "config")
    if analyze_data is not None:
        if not isinstance(analyze_data, dict):
            raise ConfigError("analyze must be a JSON object")
        cfg = dataclasses.replace(cfg, analyze=_build(AnalyzeSpec, analyze_data, "analyze"))
    if base_dir is not None:
        updates = {}
        for name in ("embeddings_path", "valence_path", "lexicon_path", "suffix_path"):
            value = getattr(cfg, name)
            if value is not None and not Path(value).is_absolute():
                updates[name] = str(Path(base_dir) / value)
        if updates:
            cfg = dataclasses.replace(cfg, **updates)
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
    data = dataclasses.asdict(cfg)
    data["lld_functionals"] = list(cfg.lld_functionals)
    data["analyze"]["k_values"] = list(cfg.analyze.k_values)
    return data


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
