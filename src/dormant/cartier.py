"""Cartier operator, exactness of differentials, and pre-Tango tests.

Everything runs through the p-basis decomposition h = sum h_i^p x^i of a
function against the separating coordinate: the Cartier image of h dx is
h_{p-1} dx, and vanishing of that single component is exactness on the
chart.  The decomposition is kept as the spreads it is sliced from, so the
image is one slice and the antiderivative one termwise integral.

A pre-Tango verdict is one global Cartier step C(u eta) = 0, u a rational
horizontal generator: the pole table's on the line, where u eta is built
from exponents, else the monomial solve or the last nonzero p-curvature
iterate.  Every yes carries its witness f.
"""
from __future__ import annotations

from .errors import (
    CandidateIsPthPower,
    NoRationalGenerator,
    NotExactOnChart,
    NotFlat,
    NotPreTango,
    ReconstructionFailure,
)
from .field import _mul, _pow, _spread, _trim
from .curves import INF, Differential, FFElem, _on_curve
from .connections import (
    BundleLabel,
    LogConnection,
    _line_generator,
    omega_frame_differential,
    p_curvature,
    solve_dlog,
)


class CartierOutput:
    """The p-basis split of a differential h dx, kept as spreads.

    With h = sum_j S_j z^j / E over z = y^p, spreads[j] is S_j E^(p-1) and
    den is E.  The component h_i of h = sum h_i^p x^i is sum_j t_ij y^j / E,
    t_ij = spreads[j][i::p]; only the image, h_{p-1} dx, is ever built.
    """

    __slots__ = ("curve", "source", "spreads", "den")

    def __init__(self, curve, source: Differential, spreads, den):
        self.curve = curve
        self.source = source
        self.spreads = tuple(spreads)
        self.den = den

    @property
    def image(self) -> Differential:
        p = self.curve.p
        top = [_trim(s[p - 1 :: p]) for s in self.spreads]
        return Differential(self.curve, FFElem._make(self.curve, top, self.den))

    @property
    def is_exact(self) -> bool:
        p = self.curve.p
        return not any(any(s[p - 1 :: p]) for s in self.spreads)

    def antiderivative(self) -> FFElem:
        """f with df equal to the source; exact charts only.

        f = sum_j (integral of spreads[j] dx) z^j / E^p, integrated termwise:
        z and E^p have derivative 0, and exactness leaves no x^(kp-1).
        """
        if not self.is_exact:
            raise NotExactOnChart(
                "nonzero Cartier image; the differential is not exact"
            )
        curve, field = self.curve, self.curve.field
        ints = [_trim([0] + [c and c * field.inv(i) % field.p for i, c in enumerate(s, 1)])
                for s in self.spreads]
        return FFElem._make(curve, *self.source.h._zhorner(ints, _spread(self.den, curve.p)))

    def __repr__(self):
        tag = "exact" if self.is_exact else "inexact"
        return f"CartierOutput({tag})"


def cartier_curve(omega: Differential) -> CartierOutput:
    """Cartier data of h dx on any supported curve, the line included.

    Writes h = sum_j S_j z^j / E over z = y^p (FFElem._zvec) and keeps the
    spreads S_j E^(p-1) = sum_i x^i t_ij(x^p), which recombine by
    construction.  Only a form with a y-part has a z-basis to check: its
    Horner sum in z must give h back.
    """
    curve, h = omega.curve, omega.h
    p = curve.p
    s, e = h._zvec()
    lift = _pow(e, p - 1, p)
    spreads = [_mul(c, lift, p) for c in s]
    if any(h._num[1:]) and FFElem._make(curve, *h._zhorner(s, e)) != h:
        raise ReconstructionFailure("p-basis decomposition does not recombine")
    return CartierOutput(curve, omega, spreads, e)


# ---------------------------------------------------------------------------
# pre-Tango structures

def _horizontal_cartier(conn: LogConnection) -> CartierOutput:
    """Cartier data of u * eta for a flat connection on the omega bundle:
    eta the frame differential, u the generator p_curvature kept on the
    line, else one from solve_dlog, else the one the powering read off.  For
    u = prod (x - c)^e_c and eta = dx / prod (x - m) over the finite marks m,
    u * eta is built in lowest terms from the exponents, e_m - 1 at m."""
    eta = omega_frame_differential(conn.label)
    psi = p_curvature(conn)
    if not psi.is_zero:
        raise NotFlat("pre-Tango structures are flat")
    curve = conn.curve
    if (exps := psi.exponents) is not None:
        merged = {**exps, **{m: exps.get(m, 0) - 1 for m in curve.marks if m != INF}}
        num, den = (_line_generator({c: s * e for c, e in merged.items() if s * e > 0}, curve.p)
                    for s in (1, -1))
        return cartier_curve(Differential(curve, FFElem._make(curve, [num], den, True)))
    try:
        u = psi.horizontal if curve.model == "p1" else solve_dlog(curve, -conn.scalar())
    except NoRationalGenerator:
        u = psi.horizontal
    return cartier_curve(eta.scale(u))


def is_pre_tango(conn: LogConnection) -> bool:
    """Whether the horizontal differentials of a flat connection on the
    omega bundle are locally exact: C(u eta) = 0 for the generator u of
    _horizontal_cartier; decided once per connection."""
    return conn._memo("is_pre_tango", lambda: decide_pre_tango(conn).is_exact)


def decide_pre_tango(conn: LogConnection) -> CartierOutput:
    """The CartierOutput of the one horizontal Cartier step: is_exact is
    the verdict, read off slice p-1 without building an element, and the
    antiderivative the witness f.  is_pre_tango keeps only the verdict,
    since CartierOutputs kept on connections cost memory."""
    if conn.rank != 1:
        raise ValueError("pre-Tango test is a rank-one notion")
    return _horizontal_cartier(conn)


def tango_from_pretango(conn: LogConnection) -> FFElem:
    """Rational f with df spanning the horizontal line of a pre-Tango
    structure."""
    out = _horizontal_cartier(conn)
    if not out.is_exact:
        raise NotPreTango("horizontal differential has a Cartier obstruction")
    return out.antiderivative()


def pretango_from_tango(label: BundleLabel, f: FFElem) -> LogConnection:
    """The connection on the omega bundle whose horizontal line is df."""
    eta = omega_frame_differential(label)
    curve = label.curve
    df = _on_curve(curve, f).derivative()
    if df.is_zero:
        raise CandidateIsPthPower("df = 0, the candidate is a p-th power")
    u = df / eta.h
    return LogConnection(curve, [[-u.dlog()]], label)
