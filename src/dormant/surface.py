"""Chart-glued fibered surfaces over a one-point curve.

The surface is never embedded: it is stored as a gluing presentation,
one affine fiber equation per chart plus the unit and shift gluing the
fibers over every overlap.  All identities are verified exactly in the
function field; regularity statements are certified on the rational
place inventory of the base curve, which carries every divisor the
shipped covers can produce.  F* is the pullback along Frobenius of a
function living on the twist: its p-th power, FFElem.pth_power.

build_surface proves each fact once: the degree premise, the chart
generators, chart functions that are regular and carry their differential,
and the p-th roots that give the shifts.  validate_cocycle re-derives all
of them from the data alone.
"""
from __future__ import annotations

import random
from functools import cache
from itertools import permutations
from typing import Optional, Sequence

from .errors import NotExactOnChart, PremiseViolated, UnitFailure, UnsupportedCurve
from .curves import FFElem, branch_at, d_of, raynaud_p_inf, z0_places
from .tango import GeneralizedTango, default_places


# ---------------------------------------------------------------------------
# gluing data

class Chart:
    """The curve minus a finite set of places, with a bundle generator.

    gen trivializes the twist line bundle over the chart; the removed
    places are recorded by their keys only.
    """

    __slots__ = ("name", "removed", "gen")

    def __init__(self, name: str, removed, gen: FFElem):
        self.name = name
        self.removed = frozenset(removed)
        self.gen = gen

    def contains(self, place) -> bool:
        return place.key not in self.removed

    def __repr__(self):
        return f"Chart({self.name}, removed={len(self.removed)})"


def _inside(places, *charts) -> list:
    """The places of the inventory that every chart contains."""
    return [pl for pl in places if all(chart.contains(pl) for chart in charts)]


class SurfaceGluingData:
    """Exact presentation of the fibered surface over its base charts."""

    __slots__ = ("curve", "curve_tag", "charts", "t", "overlaps", "fiber_tag", "places")

    def __init__(self, curve, charts, t, overlaps, places):
        self.curve = curve
        self.curve_tag = " ".join(str(k) for k in curve.key())
        self.charts = tuple(charts)
        self.t = tuple(t)
        self.overlaps = dict(overlaps)
        p = curve.field.p
        self.fiber_tag = f"y^{p - 1} z = x^{p} + F*(t_alpha) z^{p}"
        self.places = tuple(places)

    def render(self) -> str:
        lines = [f"surface over {self.curve_tag}", f"fiber: {self.fiber_tag}"]
        for i, ch in enumerate(self.charts):
            lines.append(f"chart {i} ({ch.name}): t_alpha = {self.t[i].render()}")
        for (i, j) in sorted(self.overlaps):
            u, r = self.overlaps[(i, j)]
            lines.append(f"u_{i}{j} = {u.render()}")
            lines.append(f"r_{i}{j} = {r.render()}")
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# construction

def _one_point(gtc: GeneralizedTango, what: str):
    """(curve, key of P_inf) when gtc lives on the one-point model with N
    concentrated at P_inf; else UnsupportedCurve, naming what wants it."""
    curve = gtc.curve
    if curve.model != "raynaud":
        raise UnsupportedCurve(f"{what} lives on the one-point model")
    pinf_key = raynaud_p_inf(curve).key
    if any(place.key != pinf_key for place, _ in gtc.N.items()):
        raise UnsupportedCurve(f"{what} wants N concentrated at P_inf")
    return curve, pinf_key


def default_covering(gtc: GeneralizedTango) -> list:
    """Two charts: complement of P_inf, and the affine chart z != 0."""
    curve, pinf_key = _one_point(gtc, "default covering")
    n = gtc.N.degree()
    x = curve.x_elem()
    return [
        Chart("minus-pinf", (pinf_key,), curve.ff_const(1)),
        Chart("affine", tuple(pl.key for pl in z0_places(curve)), x ** (-n)),
    ]


def _clear_pole(curve, w: FFElem, place) -> FFElem:
    """w less its polar part at place, by p-th power surgery; w itself
    where it has no pole there.

    Only the distinguished point has a uniformizer (x itself) that is a
    global monomial, so only there does a pole of the seed admit a
    correction basis; the surgery must land on exponents divisible by p.
    """
    p = curve.field.p
    while (v := place.valuation_of(w)) < 0:
        if getattr(place, "point", None) != (0, 0):
            raise NotExactOnChart(
                f"pole of the antiderivative seed at {place.key} admits no surgery"
            )
        if v % p != 0:
            raise NotExactOnChart(
                f"polar exponent {v} at P_inf is not divisible by {p}"
            )
        a = place.expand(w, v + 1).coeff(v)
        # (a x^(v/p))^p = a x^v for a in the prime field
        w = w - (curve.ff_const(a) * curve.x_elem() ** (v // p)) ** p
    return w


def _solve_chart_function(gtc: GeneralizedTango, chart: Chart, places, df: FFElem) -> FFElem:
    """t with dt = F*(gen^(p-1)) df, regular on the chart; df = gtc.f'.

    The seed F*(gen^(p-1)) f already has the right differential; what can
    remain is polar surgery by p-th powers, which the differential never
    sees.  P_inf, the one place that admits surgery, goes first, so every
    other place reads the final t once.
    """
    curve = gtc.curve
    p = curve.field.p
    unit = (chart.gen ** (p - 1)).pth_power()
    w = unit * gtc.f
    pinf_key = raynaud_p_inf(curve).key
    for place in sorted(_inside(places, chart), key=lambda pl: pl.key != pinf_key):
        w = _clear_pole(curve, w, place)
    if w.derivative() != unit * df:
        raise NotExactOnChart("surgery failed to preserve the differential")
    return w


def build_surface(gtc: GeneralizedTango, covering: Optional[Sequence[Chart]] = None) -> SurfaceGluingData:
    """Gluing data of the fibered surface attached to an index-1 input.

    Proves the degree premise, that every chart generator trivializes the
    twist (v(gen) = -N on its chart), and that every chart function is
    regular on its chart and carries its differential.  Those facts give
    the overlaps without a further check: u_ij = gen_i / gen_j is a unit
    on the overlap, and r_ij, the p-th root of F*(u_ij^(p-1)) t_j - t_i,
    exists (that difference has derivative 0) and is regular there.
    """
    curve = gtc.curve
    p = curve.field.p
    chi = 2 * curve.genus() - 2
    l = gtc.N.degree()
    if l <= 0 or p * (p - 1) * l != chi:
        raise PremiseViolated(
            f"need deg(N) p (p-1) = 2g - 2, got {p * (p - 1) * l} vs {chi}"
        )
    places = default_places(curve)
    charts = list(covering) if covering is not None else default_covering(gtc)
    for chart in charts:
        for place in _inside(places, chart):
            if chart.gen.is_zero or place.valuation_of(chart.gen) + gtc.N.coeff(place) != 0:
                raise UnitFailure(
                    f"generator of chart {chart.name} fails to trivialize at {place.key}"
                )
    df = gtc.f.derivative()
    t = [_solve_chart_function(gtc, chart, places, df) for chart in charts]
    overlaps = {}
    for i, j in permutations(range(len(charts)), 2):
        u = charts[i].gen / charts[j].gen
        r = ((u ** (p - 1)).pth_power() * t[j] - t[i]).pth_root()
        if r is None:
            raise NotExactOnChart(
                f"transition defect on overlap ({i},{j}) is not a p-th power"
            )
        overlaps[(i, j)] = (u, r)
    return SurfaceGluingData(curve, charts, t, overlaps, places)


# ---------------------------------------------------------------------------
# validation

class CocycleReport:
    """Outcome of the exact gluing checks; falsy when anything failed."""

    __slots__ = ("ok", "violations")

    def __init__(self, violations):
        self.violations = list(violations)
        self.ok = not self.violations

    def __bool__(self):
        return self.ok

    def render(self) -> str:
        if self.ok:
            return "cocycle ok"
        return "cocycle violations:\n" + "\n".join(f"  {v}" for v in self.violations)


def validate_cocycle(data: SurfaceGluingData) -> CocycleReport:
    """Re-derive every gluing fact from the data alone, sharing nothing
    with the build: each u_ij is a nonzero unit on its overlap inverse to
    u_ji, each r_ij is regular there, the transition and the differential
    relation hold, and so do the unit and shift cocycles on each triple.

    The differential relation is recomputed through the derivative, not
    read off the transition, so a doctored t or r cannot hide behind a
    consistent-looking partner field.
    """
    curve = data.curve
    p = curve.field.p
    one = curve.ff_const(1)
    dt = [ti.derivative() for ti in data.t]
    out = []
    for (i, j) in sorted(data.overlaps):
        u, r = data.overlaps[(i, j)]
        if u.is_zero:
            out.append(f"u_{i}{j} is zero")
            continue
        back = data.overlaps.get((j, i))
        if back is not None and u * back[0] != one:
            out.append(f"u_{i}{j} u_{j}{i} != 1")
        for place in _inside(data.places, data.charts[i], data.charts[j]):
            if place.valuation_of(u) != 0:
                out.append(f"u_{i}{j} not a unit at {place.key}")
            if not r.is_zero and place.valuation_of(r) < 0:
                out.append(f"r_{i}{j} has a pole at {place.key}")
        fu = (u ** (p - 1)).pth_power()
        if data.t[i] != fu * data.t[j] - r.pth_power():
            out.append(f"transition t_{i} = F*(u^(p-1)) t_{j} - F*(r) fails")
        if dt[i] != fu * dt[j]:
            out.append(f"differential relation dt_{i} = F*(u^(p-1)) dt_{j} fails")
    for i, j, k in permutations(range(len(data.charts)), 3):
        if (i, j) in data.overlaps and (j, k) in data.overlaps and (i, k) in data.overlaps:
            uij, rij = data.overlaps[(i, j)]
            ujk, rjk = data.overlaps[(j, k)]
            uik, rik = data.overlaps[(i, k)]
            if uik != uij * ujk:
                out.append(f"unit cocycle ({i},{j},{k}) fails")
            if rik != uij ** (p - 1) * rjk + rij:
                out.append(f"shift cocycle ({i},{j},{k}) fails")
    return CocycleReport(out)


# ---------------------------------------------------------------------------
# smoothness probe

class SmoothnessReport:
    __slots__ = ("entries", "singular_samples")

    def __init__(self, entries):
        self.entries = list(entries)
        self.singular_samples = [e for e in self.entries if e["singular"]]

    @property
    def all_smooth(self) -> bool:
        return not self.singular_samples

    def render(self) -> str:
        head = f"{len(self.entries)} samples, {len(self.singular_samples)} singular"
        if self.all_smooth:
            return head
        rows = [
            f"  chart {e['chart']} base {e['base']} fiber {e['fiber']}"
            for e in self.singular_samples
        ]
        return head + "\n" + "\n".join(rows)


def _chart_value(data: SurfaceGluingData, ci: int, base) -> tuple:
    """(t value, dt/duniformizer value) at an affine rational base point."""
    curve = data.curve
    br = branch_at(curve, base)
    if not data.charts[ci].contains(br):
        raise ValueError(f"base point {base} is outside chart {ci}")
    s = br.expand(data.t[ci], 1)
    if not s.is_zero_to_prec and s.valuation() < 0:
        raise ValueError(f"chart function has a pole over {base}")
    return s.coeff(0), br.expand(d_of(data.t[ci]), 1).coeff(0)


def fiber_points(data: SurfaceGluingData, ci: int, base) -> list:
    """All rational points of the fiber over an affine base point."""
    p = data.curve.field.p
    tval, _ = _chart_value(data, ci, base)
    pts = [(0, 1, 0)]
    for fx in range(p):
        for fy in range(p):
            if (pow(fy, p - 1, p) - pow(fx, p, p) - tval) % p == 0:
                pts.append((fx, fy, 1))
    return pts


def fiber_smoothness_probe(data: SurfaceGluingData, samples) -> SmoothnessReport:
    """Jacobian verdict of y^(p-1) z = x^p + F*(t) z^p at each sample.

    The x-partial vanishes identically in characteristic p and the y- and
    z-partials vanish together exactly on the y = 0 section, so the
    verdict there is delegated to the base derivative of the chart
    function; a sample is singular when that, too, is zero.
    """
    curve = data.curve
    p = curve.field.p
    entries = []
    values = {}  # (chart, base) -> _chart_value, one evaluation each
    for ci, base, fiber in samples:
        key = (ci, tuple(base))
        if key not in values:
            values[key] = _chart_value(data, ci, base)
        tval, dval = values[key]
        fx, fy, fz = (int(v) % p for v in fiber)
        if fx == 0 and fy == 0 and fz == 0:
            raise ValueError("(0:0:0) is not a projective point")
        lhs = (pow(fy, p - 1, p) * fz - pow(fx, p, p) - tval * pow(fz, p, p)) % p
        if lhs:
            raise ValueError(f"sample {fiber} is not on its fiber over {base}")
        dy = (-pow(fy, p - 2, p) * fz) % p
        dz = pow(fy, p - 1, p)
        dbase = (-dval * pow(fz, p, p)) % p
        entries.append(
            {
                "chart": ci,
                "base": tuple(base),
                "fiber": (fx, fy, fz),
                "singular": dy == 0 and dz == 0 and dbase == 0,
            }
        )
    return SmoothnessReport(entries)


def random_fiber_samples(data: SurfaceGluingData, count: int, seed: int = 0) -> list:
    """Deterministic sample list over the rational affine base points."""
    curve = data.curve
    rng = random.Random(seed)
    bases = []
    for pt in curve.affine_points():
        br = branch_at(curve, pt)
        bases += [(ci, pt) for ci, chart in enumerate(data.charts) if chart.contains(br)]
    fibers = cache(lambda ci, base: fiber_points(data, ci, base))
    samples = []
    while len(samples) < count:
        ci, base = rng.choice(bases)
        samples.append((ci, base, rng.choice(fibers(ci, base))))
    return samples


# ---------------------------------------------------------------------------
# pathology witness

class PathologyWitness:
    """Section count of the twist bundle and the non-reducedness verdict."""

    __slots__ = ("dim_global_sections", "flag")

    def __init__(self, dim: int):
        self.dim_global_sections = dim
        self.flag = dim > 0

    def render(self) -> str:
        verdict = "non-reduced automorphisms" if self.flag else "no witness"
        return f"dim Gamma(N) = {self.dim_global_sections}: {verdict}"


def pathology_witness(gtc: GeneralizedTango) -> PathologyWitness:
    """Count the global sections of O(N) and flag a positive dimension.

    On the one-point model the pole orders at P_inf of functions regular
    elsewhere form the numerical semigroup generated by q - 1 and q: the
    monomials x/y and 1/y realize the generators, and the semigroup has
    exactly (q-1)(q-2)/2 gaps, the genus, so nothing else can appear.
    The dimension is therefore the count of semigroup elements up to
    deg N, and every counted element is certified here by an explicit
    section checked at the whole place inventory.
    """
    curve, pinf_key = _one_point(gtc, "witness search")
    n = gtc.N.degree()
    if n < 0:
        return PathologyWitness(0)
    q = curve.q
    x = curve.x_elem()
    y = curve.y_elem()
    places = default_places(curve)
    orders = set()
    for i in range(n // (q - 1) + 1):
        for j in range((n - i * (q - 1)) // q + 1):
            s = i * (q - 1) + j * q
            if s in orders:
                continue
            h = x ** i / y ** (i + j) if i + j else curve.ff_const(1)
            for place in places:
                v = place.valuation_of(h)
                want = -s if place.key == pinf_key else 0
                if (place.key == pinf_key and v != want) or v < min(want, 0):
                    raise RuntimeError(f"section certificate broke at {place.key}")
            orders.add(s)
    dim = len(orders)
    g = curve.genus()
    if n >= 2 * g - 1 and dim != n + 1 - g:
        raise RuntimeError("section count disagrees with the large-degree formula")
    return PathologyWitness(dim)
