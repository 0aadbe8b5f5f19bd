"""Exception types shared across the package.

Everything raised on purpose derives from ButterfreeError so callers can
catch one base class.  Input-validation problems and numeric failures are
kept distinct because the command line maps them to different exit codes.
"""

from __future__ import annotations


class ButterfreeError(Exception):
    """Base class for all package errors."""


class InvalidInput(ButterfreeError):
    """Caller-supplied data violates a documented precondition."""


class InvalidParams(InvalidInput):
    """Raw smile parameters violate their domain constraints."""


class DegenerateSigma(InvalidInput):
    """sigma = 0: the smile has no curvature scale and cannot be normalized."""


class DomainError(InvalidInput):
    """A function was evaluated outside its mathematical domain."""


class PriceOutOfRange(InvalidInput):
    """Option price outside the open no-arbitrage interval for its strike."""


class NonPositiveVariance(InvalidInput):
    """Total variance is non-positive where it must be positive."""


class ParseError(InvalidInput):
    """A data file could not be parsed; carries row context where known."""


class InsufficientData(InvalidInput):
    """Not enough usable points to run the requested computation."""


class InsufficientPairs(InsufficientData):
    """Fewer than two strikes quote both a call and a put."""


class NonPositiveDiscount(InvalidInput):
    """Parity regression produced a non-positive discount factor or forward."""


class EmptySlice(InvalidInput):
    """No quote of the chain survived inversion into total variance."""


class NotInDomain(InvalidInput):
    """Parameters lie outside the strictly arbitrage-free region."""


class NumericFailure(ButterfreeError):
    """An internal numeric routine failed to produce a result."""


class NoSignChange(NumericFailure):
    """Root bracket endpoints do not straddle a sign change."""


class MaxIterations(NumericFailure):
    """Iteration cap reached before the convergence test was met."""


class NoBracketFound(NumericFailure):
    """Geometric expansion exhausted its budget without bracketing a root."""


class InfeasibleStart(NumericFailure):
    """Least-squares start point violates its bound constraints."""


class NoFiniteOptimum(NumericFailure):
    """The requested one-sided optimum is attained only in the limit."""


class FukasawaViolated(InvalidInput):
    """Normalized parameters fail the slope conditions required upstream."""


class NoConvergedStart(NumericFailure):
    """Every calibration start failed outright."""
