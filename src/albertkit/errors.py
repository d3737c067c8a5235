"""Exceptions shared across the package.

Every error the library raises deliberately derives from AlbertKitError and
carries a stable ``kind`` string that the CLI surfaces as ``{"error": kind}``.
"""

from __future__ import annotations


class AlbertKitError(Exception):
    kind = "AlbertKitError"


class ZeroScalar(AlbertKitError):
    """A group-element constructor was given a scalar that must be nonzero."""

    kind = "ZeroScalar"


class NotSemistable(AlbertKitError):
    """The pair point has vanishing discriminant; no isotope is attached to it."""

    kind = "NotSemistable"


class SingularPoint(AlbertKitError):
    """det(a) = 0; the isotope at a is undefined."""

    kind = "SingularPoint"


class SingularMatrix(AlbertKitError):
    """Exact elimination found rank < n."""

    kind = "SingularMatrix"


class ParseError(AlbertKitError, ValueError):
    """An input or argument does not match the documented schema; a ValueError too."""

    kind = "ParseError"
