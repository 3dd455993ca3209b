"""Exception types shared across the package."""


class AttconvError(Exception):
    """Base class for every error raised by this library."""


class DimensionError(AttconvError):
    """Operand shapes are incompatible for the requested operation."""


class ContractError(AttconvError):
    """A documented precondition was violated by the caller."""


class ConfigError(AttconvError):
    """Invalid or inconsistent model/training configuration."""


class DataError(AttconvError):
    """Dataset-level problem: missing file, empty data, label mismatch."""


class FormatError(DataError):
    """Malformed or oversized input. A message about a file carries the
    offending line number; one about an example, its size."""


class EmptyContextError(AttconvError):
    """Attention has nowhere to go: no context, or exclude-self on one position."""


class EmptyInputError(AttconvError):
    """An operation received an input with an empty position axis."""


class DeterminismError(AttconvError):
    """Two evaluations of a supposedly deterministic function disagreed."""


class DivergenceError(AttconvError):
    """A non-finite value appeared during training."""
