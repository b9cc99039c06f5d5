"""Exception types and the domain checks shared across the package.

Everything the package computes lives on the annulus A_r = {r < |z| < 1}
with 0 < r < 1.  The checks of r, of a point of A_r, of lambda (the point
|z| = r^lambda) and of a parameter length t_end are written once, here,
so every layer raises the same DomainError, naming the values that
failed, for the same input.
"""

import math


class AnnulusMetricsError(Exception):
    """Base class for every error raised by this package."""


class DomainError(AnnulusMetricsError, ValueError):
    """An argument lies outside the mathematical domain of the operation."""


class ConvergenceError(AnnulusMetricsError, RuntimeError):
    """A series or iteration could not reach the requested tolerance."""


class RangeError(AnnulusMetricsError, OverflowError):
    """A value left the representable floating-point range."""


class PoleError(AnnulusMetricsError, ZeroDivisionError):
    """Evaluation was requested inside the exclusion radius of a pole.

    The offending lattice point is carried so callers can see which pole
    was hit.
    """

    def __init__(self, message, nearest=None):
        super().__init__(message)
        self.nearest = nearest


class ShapeError(AnnulusMetricsError, ValueError):
    """Jet orders or table shapes are incompatible with the operation."""


class SingularJetError(AnnulusMetricsError, ZeroDivisionError):
    """A jet operation required a nonzero leading coefficient."""


class InternalConsistencyError(AnnulusMetricsError, RuntimeError):
    """A mathematically guaranteed invariant failed.

    This signals a bug in the computation (for example a broken series
    summation), never bad user input.
    """


def check_r(r) -> float:
    """r as a float; DomainError unless 0 < r < 1."""
    if not (isinstance(r, (int, float)) and math.isfinite(r) and 0.0 < r < 1.0):
        raise DomainError(f"inner radius r must lie strictly between 0 and 1, got {r!r}")
    return float(r)


def check_point(r: float, z, name: str = "z") -> complex:
    """z as a complex; DomainError unless r < |z| < 1, for an r already checked."""
    zc = complex(z)
    if not r < abs(zc) < 1.0:
        raise DomainError(
            f"{name} = {zc!r} must satisfy r < |{name}| < 1,"
            f" got |{name}| = {abs(zc)!r} with r = {r!r}"
        )
    return zc


def check_lambda(lam) -> None:
    """DomainError unless 0 < lambda < 1."""
    if not (isinstance(lam, (int, float)) and 0.0 < lam < 1.0):
        raise DomainError(f"lambda must lie strictly between 0 and 1, got {lam!r}")


def check_t_end(t_end) -> None:
    """DomainError unless the parameter length t_end is finite and positive."""
    if not (isinstance(t_end, (int, float)) and math.isfinite(t_end) and t_end > 0):
        raise DomainError(f"t_end must be a positive finite number, got {t_end!r}")
