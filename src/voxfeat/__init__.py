"""voxfeat: voice recordings and transcripts to interpretable feature tables.

The package splits into feature producers (audio_io, acoustic, functionals,
textfeat, coherence), a modeling toolkit (mlpipe), and the batch layer that
ties them together (config, pipeline, featdict, cli). Every text input file
is read by textio.
"""

from .audio_io import AudioBuffer, load_wav, write_wav
from .config import (
    AnalyzeSpec,
    PipelineConfig,
    config_from_dict,
    config_hash,
    config_to_dict,
    feature_names_for,
    load_config,
    validate_config,
)
from .errors import VoxfeatError
from .featdict import FeatureEntry, feature_dictionary, featdict_text, write_featdict
from .functionals import FeatureVector, FunctionalBank, gemaps_core, spectral_set
from .mlpipe import FeatureTable, read_table_csv, table_to_csv_text
from .pipeline import (
    RecordingInput,
    RunManifest,
    discover_inputs,
    extract_features,
    run_analyze,
    run_extract,
)
from .textfeat import Transcript, complexity, load_conllu, tokenize

__version__ = "0.1.0"

__all__ = [
    "AnalyzeSpec",
    "AudioBuffer",
    "FeatureEntry",
    "FeatureTable",
    "FeatureVector",
    "FunctionalBank",
    "PipelineConfig",
    "RecordingInput",
    "RunManifest",
    "Transcript",
    "VoxfeatError",
    "__version__",
    "complexity",
    "config_from_dict",
    "config_hash",
    "config_to_dict",
    "discover_inputs",
    "extract_features",
    "featdict_text",
    "feature_dictionary",
    "feature_names_for",
    "gemaps_core",
    "load_config",
    "load_conllu",
    "load_wav",
    "read_table_csv",
    "run_analyze",
    "run_extract",
    "spectral_set",
    "table_to_csv_text",
    "tokenize",
    "validate_config",
    "write_featdict",
    "write_wav",
]
