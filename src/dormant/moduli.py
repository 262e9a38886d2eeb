"""Brute-force enumeration of flat log connections of prescribed monodromy.

Genus 0: a log connection on the marked line with prescribed residues is
unique when it exists at all, and it exists exactly when the residue
classes pass the divisibility test.  Genus 1: the connections form the
one-parameter family d + w * delta over the invariant differential.  On the
line p_curvature certifies the candidate flat by the partial fractions of its
pole table, built here from the residues; on the elliptic curve flatness and
every pre-Tango verdict are read off the Hasse invariant (enumerate_flat).
"""
from __future__ import annotations

import itertools
from fractions import Fraction
from typing import Sequence, Tuple

from .errors import UnsupportedCurve
from .field import PrimeField, _trim
from .curves import INF, FFElem, P1Marked
from .connections import (
    LogConnection,
    _line_connection,
    _partial_fractions,
    omega_label,
    p_curvature,
)
from .cartier import is_pre_tango


def emptiness_oracle(g: int, r: int, eps: Sequence, p: int) -> Tuple[Fraction, bool]:
    """Dimension formula value and the forced-empty verdict.

    value = 2g - 2 + (2g - 2 + r + sum of lifts of -eps_i) / p; a negative
    value forces the corresponding locus to be empty.
    """
    value = _formula_value(g, r, (-int(e) % p for e in eps), p)
    return value, value < 0


def _formula_value(g: int, r: int, lifts, p: int) -> Fraction:
    """emptiness_oracle's value from the lifts of -eps_i, as one Fraction."""
    return Fraction((2 * g - 2) * (p + 1) + r + sum(lifts), p)


class EnumerationReport:
    """Flat and pre-Tango connections found for one monodromy vector."""

    __slots__ = ("curve_tag", "monodromy", "flat_count", "flat_list", "pretango_count",
                 "pretango_list", "admissible", "dimension_formula_value")

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
    return curve._memo("tag", lambda: " ".join(str(part) for part in curve.key()))


def enumerate_flat(curve, mu: Sequence = ()) -> EnumerationReport:
    """All flat log connections with the given monodromy, pre-Tango filtered.

    On y^2 = c(x), delta = dx/y, with H the Hasse invariant, the x^(p-1)
    coefficient of y^(p-1) = c^((p-1)/2) (of degree below 2p - 1), no powering
    and no Cartier step is needed: psi(d + w delta) = w (y^-p + d^(p-1)(y^(p-1))
    / y^p) = w (1 - H) / y^p, as only H x^(p-1) survives d^(p-1), times
    (p-1)! = -1; so every w is flat if H = 1, else only w = 0.  If H = 1,
    du1/u1 = -delta gives u1^w delta = d(-u1^w / w): each w != 0 is pre-Tango;
    and C(delta) = H^(1/p) delta makes w = 0 pre-Tango exactly when H = 0.

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
        mu = tuple(int(v) % p for v in mu)
        r = len(marks)
        total = (r - 2 + sum(mu)) % p
        admissible = total == 0
        flat = []
        if admissible:
            # omega = sum of v / (x - m) over the finite marks, in lowest terms
            # as num(m) != 0; -sum v at INF
            poles = dict(sorted((m, (1, v)) for m, v in zip(marks, mu) if m != INF and v))
            num, den = _partial_fractions(((m, v) for m, (_, v) in poles.items()), p)
            if s := sum(v for _, v in poles.values()) % p:
                poles[INF] = 1, -s % p
            omega = FFElem._make(curve, [_trim(num)], den, True)
            conn = _line_connection(curve, omega, (poles, [1]), omega_label(curve))
            if p_curvature(conn).is_zero:
                flat.append(conn)
    else:  # ell, the one model left
        if len(mu) != 0:
            raise ValueError("the shipped elliptic model carries no marks")
        mu, admissible = (), True
        label, yinv, h = omega_label(curve), curve.y_elem().inverse(), curve.hasse()
        flat = [LogConnection(curve, [[w * yinv]], label) for w in range(p if h == 1 else 1)]
        for w, conn in enumerate(flat):
            conn._memo("is_pre_tango", lambda v=bool(w) or h == 0: v)
    pretango = [conn for conn in flat if is_pre_tango(conn)]
    value = _formula_value(curve.genus(), len(mu), mu, p)
    return EnumerationReport(_tag(curve), mu, flat, pretango, admissible, value)


def count_pretango(curve, eps: Sequence = ()) -> EnumerationReport:
    """Report for the locus of exponent eps: monodromy is -eps."""
    p = curve.field.p
    mu = tuple((-int(e)) % p for e in eps)
    return enumerate_flat(curve, mu)


def standard_marked_line(p: int, r: int) -> P1Marked:
    """Marks 0, 1, ..., r-2 and infinity; needs r - 1 rational points."""
    if r - 1 > p:
        raise UnsupportedCurve(f"the line over F_{p} has no {r} distinct rational marks")
    return P1Marked(PrimeField(p), (*range(r - 1), INF))


def sweep_genus0(p: int, r: int):
    """Reports for every monodromy vector on the standard r-marked line,
    in lexicographic order."""
    curve = standard_marked_line(p, r)
    return [enumerate_flat(curve, mu) for mu in itertools.product(range(p), repeat=r)]
