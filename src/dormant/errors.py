"""Shared exception types.

Every failure mode that callers are expected to branch on gets its own class
here.  Modules raise these rather than bare ValueError so the CLI can map
domain failures to exit code 1 and input problems to exit code 2.
"""
from __future__ import annotations


class DormantError(Exception):
    """Base class for all toolkit errors."""


# field / series layer

class ZeroDenominator(DormantError):
    pass


class ZeroElement(DormantError):
    """Operation undefined on the zero element (valuation, divisor, dlog)."""


class InsufficientPrecision(DormantError):
    """A question the available precision cannot decide: a read past a
    series' precision, or a function still zero past the degree bound
    B(f).  Places lengthen themselves, so no caller retries at a higher
    precision."""


# curve layer

class SingularPoint(DormantError):
    pass


class NewtonStall(DormantError):
    pass


# connection layer

class UndeclaredPoleDetected(DormantError):
    pass


class BadTrivialization(DormantError):
    pass


class NoRationalGenerator(DormantError):
    """No solution of dlog(u) = -a exists in the rational function field: a
    normal outcome on positive genus."""


class NotFlat(DormantError):
    pass


class CurveMismatch(DormantError):
    pass


# cartier layer

class ReconstructionFailure(DormantError):
    pass


class NotOmegaBundle(DormantError):
    pass


class NotPreTango(DormantError):
    pass


class InvalidCertificate(DormantError):
    pass


# tango layer

class NotDivisibleByP(DormantError):
    def __init__(self, message: str = "", branch=None):
        super().__init__(message)
        self.branch = branch


class IncompleteDivisor(DormantError):
    pass


class PNotDividing2gMinus2(DormantError):
    pass


class CandidateIsPthPower(DormantError):
    pass


# miura layer

class DegenerateKS(DormantError):
    pass


class NotDormant(DormantError):
    pass


# moduli layer

class UnsupportedCurve(DormantError):
    pass


# surface layer

class PremiseViolated(DormantError):
    pass


class NotExactOnChart(DormantError):
    pass


class UnitFailure(DormantError):
    pass


# shell layer

class SyntaxError(DormantError):
    """Job file failed to parse.  Carries the 1-based offending line number."""

    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line


class SemanticError(DormantError):
    """Job file parsed but describes an inconsistent object."""
