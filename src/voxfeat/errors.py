"""Exception taxonomy for the voxfeat toolkit.

Every error raised by the library derives from :class:`VoxfeatError` so
callers can catch one base class at batch boundaries and keep per-file
failures isolated.
"""


class VoxfeatError(Exception):
    """Base class for all voxfeat errors."""


# -- audio decoding / framing ------------------------------------------------

class MalformedContainer(VoxfeatError):
    """File is not a well-formed RIFF/WAVE container."""


class UnsupportedFormat(VoxfeatError):
    """WAV container is valid but the encoding is not PCM16 mono/stereo."""


class EmptyAudio(VoxfeatError):
    """Decoded audio holds zero samples."""


class SignalTooShort(VoxfeatError):
    """Signal shorter than one analysis frame."""


# -- acoustic descriptors ----------------------------------------------------

class InvalidRange(VoxfeatError):
    """Bad frequency search range (f_min >= f_max or outside Nyquist)."""


class InvalidBandConfig(VoxfeatError):
    """Mel/band configuration is inconsistent with the spectrum."""


# -- text and embeddings -----------------------------------------------------

class MalformedConllu(VoxfeatError):
    """Token line with the wrong column count or an empty FORM."""


class EmptyLexicon(VoxfeatError):
    """Sentiment lexicon holds no entries."""


class DimensionMismatch(VoxfeatError):
    """Embedding row length disagrees with the table dimension."""


class EmptyFile(VoxfeatError):
    """Input file holds no usable rows."""


class EncodingError(VoxfeatError):
    """Text input file is not UTF-8."""


# -- feature table pipeline --------------------------------------------------

class TooFewColumns(VoxfeatError):
    """Operation needs at least two feature columns."""


class InvalidK(VoxfeatError):
    """Component/feature count outside the valid range."""


class NotClassification(VoxfeatError):
    """Operation requires a class-labelled target."""


class DegenerateClasses(VoxfeatError):
    """Class structure too thin (fewer than 2 classes or singleton class)."""


class EmptyFold(VoxfeatError):
    """Cross-validation would leave a fold without rows."""


class ConvergenceFailure(VoxfeatError):
    """Iterative fit diverged or missed its tolerance within its iteration cap."""


class SchemaError(VoxfeatError):
    """Feature CSV does not match the expected schema."""


# -- batch orchestration -----------------------------------------------------

class NoInputs(VoxfeatError):
    """No input recordings found."""


class UnwritableOutput(VoxfeatError):
    """Output path cannot be created or replaced."""


class ConfigError(VoxfeatError):
    """Pipeline configuration invalid or references missing files."""


class WorkerDied(VoxfeatError):
    """An extract worker process ended before returning an input's row."""
