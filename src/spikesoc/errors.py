"""Exception types shared across the simulator."""


class SpikeSocError(Exception):
    """Base class for all simulator errors."""


class InvalidWeight(SpikeSocError):
    """A binary weight was outside {-1, +1}."""


class ModelImageError(SpikeSocError):
    """Base class for flash model image errors."""


class NotAModelImage(ModelImageError):
    """Leading bytes do not carry the model image magic."""


class UnsupportedVersion(ModelImageError):
    """Image declares a format version this build cannot read."""


class TruncatedImage(ModelImageError):
    """Image ends before the declared payload is complete."""


class CorruptImage(ModelImageError):
    """A header or layer field holds an invalid value."""


class CorruptWeightWord(CorruptImage):
    """Padding bits of a packed weight row were nonzero."""


class InconsistentDims(CorruptImage):
    """Consecutive layers do not chain output to input dimensions."""


class UnsupportedModel(ModelImageError):
    """A well-formed image the controller cannot run: more output classes
    than the one-byte UART label field can name."""


class DimensionMismatch(SpikeSocError):
    """Input length does not match the expected dimension."""


class InvalidSpikeCode(SpikeSocError):
    """A layer's codes are not a 1-D integer array, or one is outside [-1, 255]."""


class ProtocolViolation(SpikeSocError):
    """Controller command issued from an illegal state, or an unreadable command stream."""


class FrameFieldOverflow(SpikeSocError):
    """A run's result does not fit a field of the UART result frame."""


class CorruptFrame(SpikeSocError):
    """A UART result frame has the wrong length, marker or checksum."""


class NotIdx(SpikeSocError):
    """File does not start with a recognized IDX magic."""


class CorruptDataset(SpikeSocError):
    """IDX payload is inconsistent with its declared dimensions."""


class OracleDivergence(SpikeSocError):
    """Event-driven result disagreed with the dense reference simulator."""
