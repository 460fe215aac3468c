"""Exception hierarchy.

Two branches matter to callers: ``DomainError`` for inputs that parse but
violate a semantic requirement, and ``FormatError`` for bytes or text that
cannot be parsed at all.  The CLI maps them to exit codes 1 and 2.
"""


class RyprepError(Exception):
    """Base class for every error raised by this package."""


class DomainError(RyprepError, ValueError):
    """Well-formed input with invalid content (CLI exit code 1)."""


class FormatError(RyprepError, ValueError):
    """Input that cannot be parsed (CLI exit code 2)."""


class AllZeroInput(DomainError):
    """Vector of all zeros has no direction to normalize."""


class NotPowerOfTwo(DomainError):
    """Vector length is not a power of two of at least 2."""


class AllZeroImage(DomainError):
    """Image with every pixel zero encodes no state."""


class DimensionMismatch(DomainError):
    """Two states with different qubit counts cannot be compared."""


class IndexOutOfRange(DomainError):
    """Qubit index outside the circuit or state register."""


class ControlEqualsTarget(DomainError):
    """A gate cannot be controlled by its own target qubit."""


class ControlCollision(DomainError):
    """A control qubit was specified twice or clashes with an existing one."""


class PgmError(FormatError):
    """Base class for PGM parse failures."""


class BadMagic(PgmError):
    """File does not start with the P2 or P5 magic token."""


class TruncatedData(PgmError):
    """Header or raster ends before the declared amount of data."""


class PixelExceedsMaxval(PgmError, DomainError):
    """A sample value lies outside [0, maxval]."""


class MaxvalOutOfRange(PgmError, DomainError):
    """Declared maxval outside [1, 65535]."""
