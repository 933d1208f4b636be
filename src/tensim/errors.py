"""Exception types shared across the package."""


class TensimError(Exception):
    """Base class for all tensim errors."""


class ShapeError(TensimError, ValueError):
    """Operands have incompatible dimensions or are not hypercubic."""


class OrderError(TensimError, ValueError):
    """Operation is undefined for the tensor order supplied."""


class EntryLimitError(TensimError, ValueError):
    """Requested tensor exceeds the configured dense entry budget."""


class WitnessError(TensimError, ValueError):
    """A witness pair violates the structure required of it."""


class FormatError(TensimError, ValueError):
    """Malformed interchange file or payload."""


class UnsupportedDimensionError(TensimError, ValueError):
    """Spectral routines are restricted to dimension 2."""
