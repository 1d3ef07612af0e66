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
    "config": ("PipelineConfig", "config_from_dict", "validate_config"),
    "pipeline": ("run_extract",),
})

__version__ = "0.1.0"
__all__ = sorted([*__all__, "__version__"])
