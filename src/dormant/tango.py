"""Tango structures: divisor certificates for candidates f with div(df) = p E.

The invariant of a curve is the largest degree of floor(div(df)/p) over
rational functions f outside the p-th powers.  A candidate realizing the
maximum (2g - 2)/p with an exactly divisible divisor is a Tango structure.
Everything here works with explicitly certified divisors: the divisor of df
must be complete over the curve's own places (default_places) or the
computation refuses.
"""
from __future__ import annotations

from typing import Optional, Sequence

from .errors import (
    CandidateIsPthPower,
    IncompleteDivisor,
    InvalidCertificate,
    NotDivisibleByP,
    PNotDividing2gMinus2,
    PremiseViolated,
)
from .curves import (
    INF,
    Differential,
    Divisor,
    FFElem,
    _on_curve,
    branch_at,
    d_of,
    divisor_of_differential,
    raynaud_p_inf,
    z0_places,
)


def default_places(curve) -> list:
    """Candidate places rich enough for the divisors this module meets.

    Rational points on the small models, plus the places over z = 0 and
    the point at infinity on the one-point models.  The branches are the
    curve's own, and they lengthen themselves as a valuation asks.
    """
    if curve.model == "p1":
        return [branch_at(curve, pt) for pt in [*range(curve.field.p), INF]]
    if curve.model == "ell":
        return [branch_at(curve, pt) for pt in curve.rational_points()]
    return [raynaud_p_inf(curve), *z0_places(curve),
            *(branch_at(curve, pt) for pt in curve.affine_points() if pt != (0, 0))]


def _df_divisor(curve, f):
    """(f as an element, the certified divisor of df on the curve's places)."""
    cand = _on_curve(curve, f)
    df = cand.derivative()
    if df.is_zero:
        raise CandidateIsPthPower("df = 0, the candidate is a p-th power")
    return cand, _certified_divisor(curve, Differential(curve, df), default_places(curve))


def _certified_divisor(curve, omega: Differential, places) -> Divisor:
    div, complete = divisor_of_differential(omega, places)
    if not complete:
        raise IncompleteDivisor(
            f"divisor of degree {div.degree()} on the rational candidate places, "
            f"2g - 2 = {2 * curve.genus() - 2}"
        )
    return div


class TangoCertificate:
    """A candidate f together with div(df) and its floor quotient by p."""

    __slots__ = ("curve", "f", "divisor", "quotient")

    def __init__(self, curve, f: FFElem, divisor: Divisor, quotient: Divisor):
        self.curve = curve
        self.f = f
        self.divisor = divisor
        self.quotient = quotient

    @property
    def value(self) -> int:
        return self.quotient.degree()

    @property
    def is_exact(self) -> bool:
        return self.divisor == self.quotient.times(self.curve.field.p)

    def verify(self, places: Optional[Sequence] = None) -> bool:
        """Recompute the divisor data from f; tampered fields raise."""
        omega = d_of(self.f)
        div = _certified_divisor(
            self.curve, omega, places if places is not None else default_places(self.curve)
        )
        if div != self.divisor:
            raise InvalidCertificate("stored divisor does not recompute from f")
        if div.floor_div(self.curve.field.p) != self.quotient:
            raise InvalidCertificate("stored quotient is not floor(div(df)/p)")
        return True

    def render(self) -> str:
        tag = "tango" if self.is_exact else "pre-tango bound"
        return f"{tag} value={self.value} divisor={self.divisor.render()}"


def tango_invariant_lower_bound(curve, f) -> int:
    """deg floor(div(df)/p) for one candidate; a lower bound for the curve."""
    return _df_divisor(curve, f)[1].floor_div(curve.field.p).degree()


def certify_tango_structure(curve, f) -> TangoCertificate:
    """Certificate that div(df) = p E with deg E = (2g - 2)/p.

    Raises PNotDividing2gMinus2 when no such structure can exist on the
    curve, NotDivisibleByP (with the offending branch attached) when the
    divisor of df fails exact divisibility at some place.
    """
    p = curve.field.p
    chi = 2 * curve.genus() - 2
    if chi % p:
        raise PNotDividing2gMinus2(f"2g - 2 = {chi} is not divisible by p = {p}")
    cand, div = _df_divisor(curve, f)
    for place, coeff in div.items():
        if coeff % p:
            raise NotDivisibleByP(
                f"div(df) has coefficient {coeff} at a place, not divisible by {p}",
                branch=place,
            )
    quotient = div.floor_div(p)
    return TangoCertificate(curve, cand, div, quotient)


class GeneralizedTango:
    """A candidate f with div(df) = p(p-1) N; the divisor match is exact,
    so the unit that realizes it is a constant."""

    __slots__ = ("curve", "f", "N", "divisor")

    def __init__(self, curve, f: FFElem, N: Divisor, divisor: Divisor):
        self.curve = curve
        self.f = f
        self.N = N
        self.divisor = divisor

    def render(self) -> str:
        return f"generalized tango deg(N)={self.N.degree()} divisor={self.divisor.render()}"


def build_generalized_tango(curve, f, N: Divisor) -> GeneralizedTango:
    """Check div(df) = p(p-1) N and package the result.

    The premise p(p-1) deg(N) = 2g - 2 is checked first; a curve whose
    Euler characteristic misses the lattice raises PremiseViolated before
    any divisor work happens.
    """
    p = curve.field.p
    m = p * (p - 1)
    chi = 2 * curve.genus() - 2
    if m * N.degree() != chi:
        raise PremiseViolated(
            f"p(p-1) deg(N) = {m * N.degree()} but 2g - 2 = {chi}"
        )
    cand, div = _df_divisor(curve, f)
    if div != N.times(m):
        raise InvalidCertificate("div(df) is not p(p-1) N for the proposed N")
    return GeneralizedTango(curve, cand, N, div)


class TangoSearchReport:
    """Outcome of a bounded monomial search for the invariant."""

    __slots__ = ("curve", "bound", "best_value", "maximizers", "tried", "skipped")

    def __init__(self, curve, bound: int, best_value: Optional[int],
                 maximizers: list, tried: int, skipped: int):
        self.curve = curve
        self.bound = bound
        self.best_value = best_value
        self.maximizers = maximizers
        self.tried = tried
        self.skipped = skipped

    def render(self) -> str:
        if self.best_value is None:
            return f"search bound={self.bound}: no certifiable candidate"
        pairs = " ".join(f"x^{a}*y^{b}" for a, b in self.maximizers)
        return f"search bound={self.bound}: best={self.best_value} at {pairs}"


def search_tango_candidates(curve, bound: int) -> TangoSearchReport:
    """Scan monomials x^a y^b with |a|, |b| <= bound for the best lower bound.

    Deterministic order, p-th powers and incomplete divisors skipped.
    """
    if bound < 0:
        raise ValueError("bound must be nonnegative")
    has_y = curve.ext_degree > 1
    x = curve.x_elem()
    y = curve.y_elem() if has_y else None
    best: Optional[int] = None
    maximizers: list = []
    tried = 0
    skipped = 0
    for a in range(-bound, bound + 1):
        for b in (range(-bound, bound + 1) if has_y else (0,)):
            if a == 0 and b == 0:
                continue
            cand = x ** a
            if b:
                cand = cand * y ** b
            tried += 1
            try:
                value = tango_invariant_lower_bound(curve, cand)
            except (CandidateIsPthPower, IncompleteDivisor):
                skipped += 1
                continue
            if best is None or value > best:
                best = value
                maximizers = [(a, b)]
            elif value == best:
                maximizers.append((a, b))
    return TangoSearchReport(curve, bound, best, maximizers, tried, skipped)
