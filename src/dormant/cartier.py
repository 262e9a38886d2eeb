"""Cartier operator, exactness of differentials, and pre-Tango tests.

Everything runs through the p-basis decomposition h = sum h_i^p x^i of a
function against the separating coordinate: the Cartier image of h dx is
h_{p-1} dx, and vanishing of that single component is exactness on the
chart.  The same decomposition hands back an antiderivative for free.
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
from .field import TruncSeries, UPoly
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
    """p-basis components of a differential h dx.

    components[i] is h_i in h = sum h_i^p x^i; the Cartier image is
    components[p-1] dx and the others integrate termwise.
    """

    __slots__ = ("curve", "source", "components")

    def __init__(self, curve, source: Differential, components):
        self.curve = curve
        self.source = source
        self.components = tuple(components)

    @property
    def image(self) -> Differential:
        return Differential(self.curve, self.components[self.curve.p - 1])

    @property
    def is_exact(self) -> bool:
        return self.components[self.curve.p - 1].is_zero

    def antiderivative(self) -> FFElem:
        """f with df equal to the source; exact charts only."""
        if not self.is_exact:
            raise NotExactOnChart(
                "nonzero Cartier image; the differential is not exact"
            )
        curve = self.curve
        x = curve.x_elem()
        acc = curve.ff_const(0)
        for i, h in enumerate(self.components[: curve.p - 1]):
            if not h.is_zero:
                c = curve.field.inv(i + 1)
                acc = acc + h.pth_power() * x ** (i + 1) * c
        return acc

    def __repr__(self):
        tag = "exact" if self.is_exact else "inexact"
        return f"CartierOutput({tag})"


def _recombine_check(curve, components, h):
    x = curve.x_elem()
    acc = curve.ff_const(0)
    for i, hi in enumerate(components):
        if not hi.is_zero:
            acc = acc + hi.pth_power() * x**i
    if acc != h:
        raise ReconstructionFailure("p-basis decomposition does not recombine")


def cartier_p1(omega: Differential) -> CartierOutput:
    """Cartier data of a rational differential on the line."""
    if omega.curve.ext_degree != 1:
        raise CurveMismatch("rational-function route needs the line")
    return cartier_curve(omega)


def cartier_curve(omega: Differential) -> CartierOutput:
    """Cartier data of h dx on any supported curve, the line included.

    Writes h = sum_j S_j z^j / E over z = y^p and spreads each
    S_j E^(p-1) = sum_i x^i t_ij(x^p), a split checked coefficient by
    coefficient.  Since S_j / E = sum_i x^i (t_ij / E)^p, the components
    are h_i = (sum_j t_ij y^j) / E.
    """
    curve = omega.curve
    field, p = curve.field, curve.p
    s, e = omega.h._zvec()
    lift = UPoly(field, e) ** (p - 1)
    cols = []
    for c in s:
        spread = UPoly(field, c) * lift
        parts = spread.frobenius_split()
        width = max(len(t.coeffs) for t in parts)
        if UPoly(field, [t.coeff(q) for q in range(width) for t in parts]) != spread:
            raise ReconstructionFailure("p-basis split does not recombine")
        cols.append(parts)
    comps = [FFElem._make(curve, [col[i].coeffs for col in cols], list(e)) for i in range(p)]
    if curve.ext_degree > 1:
        _recombine_check(curve, comps, omega.h)
    return CartierOutput(curve, omega, comps)


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
