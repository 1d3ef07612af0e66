"""voxfeat: voice recordings and transcripts to interpretable feature tables.

The package splits into feature producers (audio_io, acoustic, functionals,
textfeat, coherence), a modeling toolkit (mlpipe), and the batch layer that
ties them together (config, pipeline, analyze, featdict, cli). Every text
input file is read by textio. Each exported name is imported from its
submodule on first use.
"""

from ._lazy import attach

# each exported name -> the submodule that defines it, imported on first
# access, so an extract run never loads the analyze modules
__getattr__, __dir__, __all__ = attach(globals(), {
    "analyze": ("run_analyze",),
    "audio_io": ("AudioBuffer", "load_wav", "write_wav"),
    "config": ("AnalyzeSpec", "PipelineConfig", "config_from_dict", "config_hash",
               "config_to_dict", "feature_names_for", "load_config", "validate_config"),
    "errors": ("VoxfeatError",),
    "featdict": ("FeatureEntry", "feature_dictionary", "featdict_text", "write_featdict"),
    "functionals": ("FeatureVector", "FunctionalBank", "gemaps_core", "spectral_set"),
    "mlpipe": ("FeatureTable", "read_table_csv", "table_to_csv_text"),
    "pipeline": ("RecordingInput", "RunManifest", "discover_inputs", "extract_features",
                 "run_extract"),
    "textfeat": ("Transcript", "complexity", "load_conllu", "tokenize"),
})

__version__ = "0.1.0"
__all__ = sorted([*__all__, "__version__"])
