"""Pipeline config: validation, JSON round-trip, hashing, feature names."""

from __future__ import annotations

import dataclasses
import json

import pytest

from voxfeat import analyze, config
from voxfeat.coherence import COHERENCE_FEATURE_NAMES
from voxfeat.config import (
    SENTIMENT_FEATURE_NAMES,
    AnalyzeSpec,
    PipelineConfig,
    config_from_dict,
    config_hash,
    config_to_dict,
    feature_names_for,
    load_config,
    validate_config,
)
from voxfeat.errors import ConfigError
from voxfeat.functionals import GEMAPS, SPECTRAL
from voxfeat.textfeat import COMPLEXITY_FEATURE_NAMES, SYNTAX_FEATURE_NAMES


class TestValidation:
    def test_defaults_are_valid(self):
        validate_config(PipelineConfig())

    def test_frame_seconds_must_be_positive(self):
        with pytest.raises(ConfigError):
            validate_config(PipelineConfig(frame_seconds=0.0))
        with pytest.raises(ConfigError):
            validate_config(PipelineConfig(frame_seconds=-0.01))

    def test_hop_seconds_must_be_positive(self):
        with pytest.raises(ConfigError):
            validate_config(PipelineConfig(hop_seconds=0.0))

    @pytest.mark.parametrize("name", ["frame_seconds", "hop_seconds"])
    def test_seconds_reject_bool_and_inf(self, name):
        # bool is an int subclass: true would load as a 1 s frame or hop
        for bad in (True, float("inf")):
            with pytest.raises(ConfigError, match=name):
                config_from_dict({name: bad})

    def test_hop_must_not_exceed_frame(self):
        with pytest.raises(ConfigError, match="hop_seconds must not exceed frame_seconds"):
            config_from_dict({"hop_seconds": 0.05})
        validate_config(PipelineConfig(frame_seconds=0.02, hop_seconds=0.02))

    def test_window_must_be_known(self):
        with pytest.raises(ConfigError):
            validate_config(PipelineConfig(window="blackman"))

    def test_toggle_must_be_bool(self):
        with pytest.raises(ConfigError):
            validate_config(PipelineConfig(spectral=1))

    def test_seed_must_be_nonnegative_int(self):
        with pytest.raises(ConfigError):
            validate_config(PipelineConfig(seed=-1))
        with pytest.raises(ConfigError):
            validate_config(PipelineConfig(seed=1.5))
        with pytest.raises(ConfigError):
            validate_config(PipelineConfig(seed=True))

    def test_coherence_requires_embeddings_path(self):
        with pytest.raises(ConfigError, match="embeddings_path"):
            validate_config(PipelineConfig(coherence=True))

    def test_sentiment_requires_valence_path(self):
        with pytest.raises(ConfigError, match="valence_path"):
            validate_config(PipelineConfig(sentiment=True))

    def test_referenced_file_must_exist(self, tmp_path):
        missing = tmp_path / "nope.txt"
        with pytest.raises(ConfigError, match="lexicon_path"):
            validate_config(PipelineConfig(lexicon_path=str(missing)))

    def test_bad_lld_functional_name(self):
        with pytest.raises(ConfigError, match="lld_functionals"):
            validate_config(PipelineConfig(lld_functionals=("meen",)))

    def test_empty_lld_functionals_is_off_not_invalid(self):
        validate_config(PipelineConfig(lld_functionals=()))

    def test_analyze_bounds(self):
        with pytest.raises(ConfigError):
            validate_config(PipelineConfig(analyze=AnalyzeSpec(folds=1)))
        with pytest.raises(ConfigError):
            validate_config(PipelineConfig(analyze=AnalyzeSpec(selector="best")))
        with pytest.raises(ConfigError):
            validate_config(PipelineConfig(
                analyze=AnalyzeSpec(high_correlation_threshold=1.0)))
        with pytest.raises(ConfigError):
            validate_config(PipelineConfig(analyze=AnalyzeSpec(k_values=())))
        with pytest.raises(ConfigError):
            validate_config(PipelineConfig(analyze=AnalyzeSpec(transform="svd")))

    def test_every_accepted_selector_has_a_select_function(self):
        # a name validation accepts but the analyze table lacks would pass
        # validation and then fail at 'selection' with a bare KeyError
        assert tuple(analyze._SELECTORS) == config._SELECTORS

    @pytest.mark.parametrize("analyze", [
        {"low_variance_threshold": "0.1"},
        {"high_correlation_threshold": None},
        {"low_variance_threshold": True},
        {"low_variance": "false"},
        {"high_correlation": 0},
        {"transform_k": True},
    ])
    def test_analyze_field_types(self, analyze, tmp_path):
        field = next(iter(analyze))
        with pytest.raises(ConfigError, match=field):
            config_from_dict({"analyze": analyze}, tmp_path)


class TestRoundTrip:
    def test_dict_round_trip_preserves_config(self, tmp_path):
        cfg = PipelineConfig(
            window="hamming",
            lld_functionals=("mean", "stddev"),
            seed=11,
            analyze=AnalyzeSpec(selector="mrmr", k_values=(2, 4), folds=3),
        )
        back = config_from_dict(config_to_dict(cfg), tmp_path)
        assert back == cfg

    def test_unknown_key_rejected(self, tmp_path):
        data = config_to_dict(PipelineConfig())
        data["frames_per_second"] = 40
        with pytest.raises(ConfigError, match="frames_per_second"):
            config_from_dict(data, tmp_path)

    def test_unknown_analyze_key_rejected(self, tmp_path):
        data = config_to_dict(PipelineConfig())
        data["analyze"]["selectr"] = "mrmr"
        with pytest.raises(ConfigError, match="selectr"):
            config_from_dict(data, tmp_path)

    def test_load_config_reads_json(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"seed": 3, "window": "rectangular"}))
        cfg = load_config(path)
        assert cfg.seed == 3
        assert cfg.window == "rectangular"
        assert cfg.gemaps_core is True

    def test_load_config_bad_json(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError):
            load_config(path)

    def test_load_config_missing_file(self, tmp_path):
        with pytest.raises(ConfigError):
            load_config(tmp_path / "absent.json")

    def test_relative_paths_resolve_against_config_dir(self, tmp_path):
        lex = tmp_path / "lex.txt"
        lex.write_text("apple\nbanana\n")
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"lexicon_path": "lex.txt"}))
        cfg = load_config(path)
        assert cfg.lexicon_path == str(lex)


class TestHash:
    def test_hash_is_stable(self):
        cfg = PipelineConfig(seed=5)
        assert config_hash(cfg) == config_hash(PipelineConfig(seed=5))

    def test_hash_changes_with_any_field(self):
        base = config_hash(PipelineConfig())
        assert config_hash(PipelineConfig(seed=1)) != base
        assert config_hash(PipelineConfig(window="hamming")) != base
        assert config_hash(PipelineConfig(
            analyze=AnalyzeSpec(folds=4))) != base

    def test_hash_is_hex_sha256(self):
        h = config_hash(PipelineConfig())
        assert len(h) == 64
        assert set(h) <= set("0123456789abcdef")


class TestFeatureNames:
    def test_default_family_sizes(self):
        cfg = PipelineConfig()
        names = feature_names_for(cfg)
        assert len(GEMAPS.names) == 25
        assert len(SPECTRAL.names) == 30
        assert len(COMPLEXITY_FEATURE_NAMES) == 7
        assert len(SYNTAX_FEATURE_NAMES) == 112
        assert len(names) == 25 + 30 + 7 + 112

    def test_all_families_enabled(self, embeddings_path):
        cfg = PipelineConfig(
            sentiment=False,
            coherence=True,
            embeddings_path=embeddings_path,
            lld_functionals=("mean", "stddev"),
        )
        names = feature_names_for(cfg)
        assert len(SENTIMENT_FEATURE_NAMES) == 1
        assert len(COHERENCE_FEATURE_NAMES) == 37
        # 22 frame series x 2 statistics
        assert len(names) == 174 + 44 + 37

    def test_names_are_unique(self):
        cfg = PipelineConfig(lld_functionals=("mean", "stddev", "p10", "p90"))
        names = feature_names_for(cfg)
        assert len(names) == len(set(names))

    def test_disabling_family_removes_its_block(self):
        names = feature_names_for(PipelineConfig(syntax=False))
        assert not any(n.startswith(("pos_", "dep_")) for n in names)

    def test_order_is_pure_function_of_config(self):
        cfg = PipelineConfig(lld_functionals=("slope", "mean"))
        assert feature_names_for(cfg) == feature_names_for(
            dataclasses.replace(cfg))
