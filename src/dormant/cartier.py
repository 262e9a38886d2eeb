"""Cartier operator, exactness of differentials, and pre-Tango tests.

Everything runs through the p-basis decomposition h = sum h_i^p x^i of a
function against the separating coordinate: the Cartier image of h dx is
h_{p-1} dx, and vanishing of that single component is exactness on the
chart.  The decomposition is kept as the spreads it is sliced from, so the
image is one slice and the antiderivative one termwise integral.
"""
from __future__ import annotations

from .errors import (
    CandidateIsPthPower,
    CurveMismatch,
    InsufficientPrecision,
    NoRationalGenerator,
    NotExactOnChart,
    NotFlat,
    NotPreTango,
    ReconstructionFailure,
    UndeclaredPoleDetected,
)
from .field import TruncSeries, _mul, _spread, _trim
from .curves import (
    INF,
    Differential,
    FFElem,
    _on_curve,
    branch_at,
    raynaud_p_inf,
)
from .connections import (
    BundleLabel,
    LogConnection,
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


def cartier_p1(omega: Differential) -> CartierOutput:
    """Cartier data of a rational differential on the line."""
    if omega.curve.ext_degree != 1:
        raise CurveMismatch("rational-function route needs the line")
    return cartier_curve(omega)


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
    lift = [1]
    for bit in bin(p - 1)[2:]:  # E^(p-1) by squaring, high bit first
        lift = _mul(lift, lift, p)
        lift = _mul(lift, e, p) if bit == "1" else lift
    spreads = [_mul(c, lift, p) for c in s]
    if any(h._num[1:]) and FFElem._make(curve, *h._zhorner(s, e)) != h:
        raise ReconstructionFailure("p-basis decomposition does not recombine")
    return CartierOutput(curve, omega, spreads, e)


def exact_antiderivative(omega: Differential) -> FFElem:
    return cartier_curve(omega).antiderivative()


def cartier_series(s: TruncSeries, p: int) -> TruncSeries:
    """Local rule on the dt-coefficient: keep exponents -1 mod p.

    C(a t^(kp-1) dt) = a t^(k-1) dt for prime-field coefficients; everything
    else dies.  Output precision is the floor of the input's over p.
    """
    prec = s.prec if s.prec == float("inf") else s.prec // p
    picked = {}
    for i, c in enumerate(s.coeffs):
        n = s.ord_low + i
        if c and (n + 1) % p == 0:
            picked[(n + 1) // p - 1] = c
    if not picked:
        return TruncSeries.zero(s.field, s.center, prec)
    lo = min(picked)
    out = [picked.get(m, 0) for m in range(lo, max(picked) + 1)]
    return TruncSeries(s.field, s.center, lo, out, prec)


# ---------------------------------------------------------------------------
# pre-Tango structures

def _horizontal_cartier(conn: LogConnection) -> CartierOutput:
    """Cartier data of the horizontal differential u * eta of a flat
    connection on the omega bundle: eta is the frame differential and u the
    rational horizontal generator.  Raises NoRationalGenerator without one.
    """
    eta = omega_frame_differential(conn.label)
    if not p_curvature(conn).is_zero:
        raise NotFlat("pre-Tango structures are flat")
    u = solve_dlog(conn.curve, -conn.scalar())
    return cartier_curve(eta.scale(u))


def is_pre_tango(conn: LogConnection) -> bool:
    """Whether the horizontal differentials of a flat connection on the
    omega bundle are locally exact; decided once per connection.

    With a rational horizontal generator u this is one global Cartier
    vanishing C(u eta) = 0.  Without one the same condition is certified
    formally at a distinguished place; see _formal_pre_tango.
    """
    return conn._memo("is_pre_tango", lambda: decide_pre_tango(conn)[0])


def decide_pre_tango(conn: LogConnection):
    """(is_pre_tango verdict, CartierOutput of the horizontal step, or None
    without a rational generator), from one horizontal Cartier step.

    The verdict reads slice p-1 of the step's spreads and builds no element.
    Checks the rank and the omega label first; is_pre_tango keeps only the
    verdict, since CartierOutputs kept on connections cost memory.
    """
    if conn.rank != 1:
        raise ValueError("pre-Tango test is a rank-one notion")
    eta = omega_frame_differential(conn.label)
    try:
        out = _horizontal_cartier(conn)
    except NoRationalGenerator:
        return _formal_pre_tango(conn, eta), None
    return out.is_exact, out


def tango_from_pretango(conn: LogConnection) -> FFElem:
    """Rational f with df spanning the horizontal line of a pre-Tango
    structure; needs a rational horizontal generator."""
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


def _formal_pre_tango(conn: LogConnection, eta: Differential) -> bool:
    """Exactness certificate at one place, valid to a divisor-degree bound.

    The Cartier operator restricted to the horizontal line subsheaf B is
    p-semilinear, hence descends to a linear map of line bundles on the
    Frobenius twist; a formal solution checked past the degree of the
    target bundle (padded by the possible vanishing orders of horizontal
    sections) decides global vanishing.  At genus 1 without marks both
    bundles have degree 0 and a small pad past the residue shift is
    already conclusive.
    """
    curve = conn.curve
    field = curve.field
    p = curve.p
    g = curve.genus()
    r = len(curve.marks)
    if curve.model == "ell":
        dstar = 2 * p
    else:
        dstar = 2 * g - 2 + p * ((r + 3) * (p - 1) + 2)
    need = p * (dstar + 4)
    br = raynaud_p_inf(curve) if curve.model == "raynaud" else branch_at(curve, INF)
    alpha = br.expand(Differential(curve, conn.scalar()), need + 3 * p)
    eta_t = br.expand(eta, need + 3 * p)
    if not alpha.is_zero_to_prec and alpha.valuation() < -1:
        raise UndeclaredPoleDetected(
            "certificate place carries a pole beyond log order"
        )
    k = 0
    if not alpha.is_zero_to_prec and alpha.valuation() == -1:
        k = (-alpha.coeff(-1)) % p
    # u = t^k v with v regular solving v' = (k/t - alpha) v
    beta = [(-alpha.coeff(n)) % p for n in range(need)]
    v = [1] + [0] * (need - 1)
    for n in range(1, need):
        s = sum(beta[n - 1 - i] * v[i] for i in range(n)) % p
        if n % p == 0:
            if s:
                raise NotFlat("resonant local obstruction to a horizontal section")
            v[n] = 0
        else:
            v[n] = s * field.inv(n) % p
    useries = TruncSeries(field, br.key, k, v, k + need)
    image = cartier_series(useries * eta_t, p)
    if not image.is_zero_to_prec:
        return False
    if image.prec <= dstar:
        raise InsufficientPrecision(
            f"certificate stops at O(t^{image.prec}), bound needs {dstar}"
        )
    return True
