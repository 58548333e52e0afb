"""Exception types shared across the package."""


class ImutokError(Exception):
    """Base class for all package errors."""


class DegenerateInput(ImutokError, ValueError):
    """Rotation input is numerically unusable (near-zero or parallel columns)."""


class InvalidArgument(ImutokError, ValueError):
    """An argument is outside its valid domain."""


class TooShort(ImutokError, ValueError):
    """Sequence has too few frames for the requested operation."""


class EmptyCorpus(ImutokError, ValueError):
    """A corpus-level operation received no sequences."""


class EmptyDataset(ImutokError, ValueError):
    """Training dataset produced no usable windows."""


class ShapeMismatch(ImutokError, ValueError):
    """Array shapes are inconsistent with the operation's contract."""


class LengthMismatch(ImutokError, ValueError):
    """Two sequences that must be aligned have different lengths."""


class NonScalarRoot(ImutokError, ValueError):
    """backward() was called on a non-scalar tensor."""


class GraphReleased(ImutokError, RuntimeError):
    """backward() reached a node whose graph an earlier backward released."""


class OutOfRange(ImutokError, ValueError):
    """A scalar parameter is outside its allowed interval."""


class ConfigInvalid(ImutokError, ValueError):
    """Training configuration violates an invariant."""


class CheckpointMismatch(ImutokError, ValueError):
    """Checkpoints are incompatible (codebook size, latent width, or digest)."""


class FormatError(ImutokError, ValueError):
    """A binary file is malformed, truncated, or fails its checksum."""


class DigestMismatch(ImutokError, ValueError):
    """A stored digest does not match the recomputed one."""


class StatsMissing(ImutokError, ValueError):
    """Normalization statistics are required but not attached."""
