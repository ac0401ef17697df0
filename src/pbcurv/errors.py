"""Exception types shared across the package.

Two broad families matter to the command line front end: usage errors
(bad configuration, unparseable input, dimension limits) and geometric
errors (the surface itself misbehaves at a sample point).  Everything
derives from PbcurvError so library users can catch one base class.
"""

from __future__ import annotations


class PbcurvError(Exception):
    """Base class for all errors raised by this package."""


class UsageError(PbcurvError):
    """Bad input or configuration.  CLI exit code 2."""


class GeometricError(PbcurvError):
    """The geometry breaks down at a sample point.  CLI exit code 3."""


class JetDomainError(GeometricError):
    """A jet operation left its real domain, or a derivative of its result overflowed."""

    def __init__(self, fn: str, value: float, problem: str = "is undefined") -> None:
        super().__init__(f"{fn} {problem} at value {value!r}")
        self.fn = fn
        self.value = value


class JetDivisionByZero(GeometricError):
    """Jet division with a denominator too close to zero."""

    def __init__(self, denominator: float) -> None:
        super().__init__(f"jet division by near-zero denominator {denominator!r}")
        self.denominator = denominator


class LexError(UsageError):
    """Unexpected character while tokenizing an expression."""

    def __init__(self, message: str, position: int) -> None:
        super().__init__(f"{message} (at offset {position})")
        self.position = position


class ParseError(UsageError):
    """Malformed expression."""

    def __init__(self, message: str, position: int) -> None:
        super().__init__(f"{message} (at offset {position})")
        self.position = position


class EvalError(GeometricError):
    """Expression evaluation failed at a concrete parameter point."""

    def __init__(self, message: str, position: int) -> None:
        super().__init__(f"{message} (expression offset {position})")
        self.position = position


class DimensionCapError(UsageError):
    """Ambient dimension exceeds the cap of the exhaustive oracle paths."""


class DegenerateMetricError(GeometricError):
    """The induced metric is singular at a sample point."""


class FrameConstructionError(GeometricError):
    """Gram-Schmidt could not produce a pseudo-orthonormal normal frame."""


class NonFiniteCurvatureError(GeometricError):
    """The bracket path's K or H is not finite at a sample point."""


class ZeroDensityError(GeometricError):
    """The symplectic density vanishes at a sample point."""


class RankDeficiencyError(GeometricError):
    """The bracket-built normal projector has the wrong rank."""


class ConfigError(UsageError):
    """Malformed surface description file."""
