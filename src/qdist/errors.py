"""Exception types shared across the package.

Input the solvers cannot take (mismatched dimensions, a problem of the wrong
kind) raises InputError, a ValueError, which the CLI reports as bad input
with exit status 2. Other precondition violations raise plain ValueError.
Mathematical degeneracies -- situations the algorithms detect and refuse to
push through -- raise DegeneracyError carrying a short machine-readable code
so the CLI can report them with exit status 3.
"""

from __future__ import annotations


class QdistError(Exception):
    """Base class for package-specific failures."""


class InputError(ValueError):
    """The input describes no problem the requested solver can take."""


class DegeneracyError(QdistError):
    """A mathematically degenerate configuration was detected.

    ``code`` is a short stable identifier (e.g. ``"singular-matrix"``,
    ``"non-unique-multiple-zero"``) suitable for machine consumption.
    """

    def __init__(self, code: str, message: str | None = None):
        self.code = code
        super().__init__(message or code)


class SingularMatrixError(DegeneracyError):
    """Linear solve hit an exactly singular matrix."""

    def __init__(self, message: str = "matrix is singular"):
        super().__init__("singular-matrix", message)


class NoPositiveRootError(DegeneracyError):
    """A polynomial expected to have a positive real zero has none."""

    def __init__(self, message: str = "no positive real zero"):
        super().__init__("no-positive-zero", message)
