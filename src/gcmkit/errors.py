"""Exception types shared across the package.

The CLI maps these onto process exit codes: validation problems exit 2,
numeric faults exit 3, I/O errors (plain OSError) exit 4.
"""


class GcmkitError(Exception):
    """Base class for errors raised by this package."""


class ValidationError(GcmkitError, ValueError):
    """Malformed input: bad files, shape mismatches, broken invariants."""


class NumericFault(GcmkitError, ArithmeticError):
    """NaN or Inf appeared where a finite value is required."""
