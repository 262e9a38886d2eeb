"""Brute-force enumeration of flat log connections of prescribed monodromy.

Genus 0: a log connection on the marked line with prescribed residues is
unique when it exists at all, and it exists exactly when the residue
classes pass the divisibility test.  Genus 1: the connections form the
one-parameter family d + w * delta over the invariant differential.  The
flatness of every candidate is certified by p_curvature, which is operator
powering (an integral recurrence over F_p[x] with one denominator),
independent of the closed forms elsewhere in the package.
"""
from __future__ import annotations

import itertools
from fractions import Fraction
from typing import Sequence, Tuple

from .errors import UnsupportedCurve
from .field import RatFunc, UPoly
from .curves import INF, P1Marked
from .connections import (
    LogConnection,
    monodromy,
    omega_label,
    p_curvature,
)
from .cartier import is_pre_tango


def _lift(p: int, mu) -> int:
    return int(mu) % p


def emptiness_oracle(g: int, r: int, eps: Sequence, p: int) -> Tuple[Fraction, bool]:
    """Dimension formula value and the forced-empty verdict.

    value = 2g - 2 + (2g - 2 + r + sum of lifts of -eps_i) / p; a negative
    value forces the corresponding locus to be empty.
    """
    chi = 2 * g - 2
    total = chi + r + sum(_lift(p, -int(e)) for e in eps)
    value = Fraction(chi) + Fraction(total, p)
    return value, value < 0


class EnumerationReport:
    """Flat and pre-Tango connections found for one monodromy vector."""

    __slots__ = (
        "curve_tag",
        "monodromy",
        "flat_count",
        "flat_list",
        "pretango_count",
        "pretango_list",
        "admissible",
        "dimension_formula_value",
    )

    def __init__(self, curve_tag, mu, flat_list, pretango_list, admissible, value):
        self.curve_tag = curve_tag
        self.monodromy = tuple(mu)
        self.flat_list = tuple(flat_list)
        self.flat_count = len(self.flat_list)
        self.pretango_list = tuple(pretango_list)
        self.pretango_count = len(self.pretango_list)
        self.admissible = admissible
        self.dimension_formula_value = value

    def render(self) -> str:
        lines = [
            f"curve      {self.curve_tag}",
            f"monodromy  {list(self.monodromy)}",
            f"admissible {str(self.admissible).lower()}",
            f"formula    {self.dimension_formula_value}",
            f"flat       {self.flat_count}",
            f"pretango   {self.pretango_count}",
        ]
        return "\n".join(lines)

    def machine_block(self) -> str:
        return (
            f"flat={self.flat_count} pretango={self.pretango_count} "
            f"admissible={str(self.admissible).lower()} "
            f"formula={self.dimension_formula_value}"
        )


def _tag(curve) -> str:
    return " ".join(str(part) for part in curve.key())


def enumerate_flat(curve, mu: Sequence = ()) -> EnumerationReport:
    """All flat log connections with the given monodromy, pre-Tango filtered.

    Raynaud curves are refused: their genus puts the search space out of
    brute-force range.
    """
    p = curve.field.p
    if curve.model == "raynaud":
        raise UnsupportedCurve("enumeration is limited to genus 0 and 1")
    if curve.model == "p1":
        marks = curve.marks
        if len(mu) != len(marks):
            raise ValueError("one residue class per mark expected")
        mu = tuple(_lift(p, v) for v in mu)
        r = len(marks)
        total = (r - 2 + sum(mu)) % p
        admissible = total == 0
        flat = []
        if admissible:
            # omega = sum of v / (x - m) over the finite marks, normalized once
            poles = [(UPoly(curve.field, (-m, 1)), v)
                     for m, v in zip(marks, mu) if m != INF and v]
            den = UPoly.one(curve.field)
            for lin, _ in poles:
                den = den * lin
            num = sum((den // lin * v for lin, v in poles), UPoly.zero(curve.field))
            omega = RatFunc(curve.field, num, den)
            conn = LogConnection(curve, [[omega]], omega_label(curve))
            if p_curvature(conn).is_zero and monodromy(conn) == mu:
                flat.append(conn)
    else:  # ell, the one model left
        if len(mu) != 0:
            raise ValueError("the shipped elliptic model carries no marks")
        mu = ()
        admissible = True
        label, yinv = omega_label(curve), curve.y_elem().inverse()
        candidates = (
            LogConnection(curve, [[w * yinv]], label) for w in range(p)
        )
        flat = [conn for conn in candidates if p_curvature(conn).is_zero]
    pretango = [conn for conn in flat if is_pre_tango(conn)]
    value, _ = emptiness_oracle(
        curve.genus(), len(mu), tuple((-v) % p for v in mu), p
    )
    return EnumerationReport(_tag(curve), mu, flat, pretango, admissible, value)


def count_pretango(curve, eps: Sequence = ()) -> EnumerationReport:
    """Report for the locus of exponent eps: monodromy is -eps."""
    p = curve.field.p
    mu = tuple((-int(e)) % p for e in eps)
    return enumerate_flat(curve, mu)


def standard_marked_line(p: int, r: int) -> P1Marked:
    """Marks 0, 1, ..., r-2 and infinity; needs r - 1 rational points."""
    if r - 1 > p:
        raise UnsupportedCurve(
            f"the line over F_{p} has no {r} distinct rational marks"
        )
    from .field import PrimeField

    return P1Marked(PrimeField(p), (*range(r - 1), INF))


def sweep_genus0(p: int, r: int):
    """Reports for every monodromy vector on the standard r-marked line,
    in lexicographic order."""
    curve = standard_marked_line(p, r)
    return [enumerate_flat(curve, mu) for mu in itertools.product(range(p), repeat=r)]
