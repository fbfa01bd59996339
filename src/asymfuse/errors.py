"""Exception types shared across the library.

Everything derives from ValueError so callers who only want a coarse
"bad input" net can catch that; the concrete classes exist so tests and
the CLI can tell contract violations apart. A RankError is also a
ShapeMismatchError: a wrong rank is one way for shapes not to match, so
the rank check written once in ``tensor`` serves both contracts.
"""


class ShapeMismatchError(ValueError):
    """Operand shapes are incompatible for the requested operation."""


class RankError(ShapeMismatchError):
    """An array has the wrong number of dimensions for this operation."""


class KernelTooLargeError(ValueError):
    """Kernel (or template) spatial extent exceeds the map it slides over."""


class FormatError(ValueError):
    """A .tsr byte stream is malformed: bad magic, version, dtype or size."""


class ZeroVectorError(ValueError):
    """Cosine similarity was asked for a zero-norm vector."""


class NonScalarLossError(ValueError):
    """backward() was called on a node whose value is not a single scalar."""


class DisconnectedLossError(ValueError):
    """backward() was called with a loss node that is not on the tape."""


class LabelOutOfRangeError(ValueError):
    """Class label lies outside [0, num_classes)."""


class MissingBoxError(ValueError):
    """Fusion weights carry a prior branch but no box was supplied."""


class NonPositiveBoxError(ValueError):
    """Box width and height must both be strictly positive."""


class EmptyExteriorError(ValueError):
    """The exclusion box leaves no position to pick a distractor from."""


class NonFiniteMapError(ValueError):
    """A map, or a learned weight array, holds NaN or infinite values."""


class NonPositiveMaxError(ValueError):
    """Channel diversity needs a strictly positive global maximum."""


class TooManyClassesError(ValueError):
    """Requested more glyph classes than the generator defines."""


class EmptyDatasetError(ValueError):
    """An evaluation was requested over zero samples."""
