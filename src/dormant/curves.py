"""Explicit curve models and their function fields.

Three models are shipped: the marked projective line, short Weierstrass
elliptic curves y^2 = x^3 + ax + b, and the Raynaud plane curves
x^q - x y^(q-1) - y z^(q-1) = 0 with q = l*p.  Function-field elements are
vectors over F_p(x) in the y-power basis of the fixed affine chart (z = 1
for Raynaud).  Places are either rational branches with stored series
expansions or, on the Raynaud curves, the points on the line z = 0 handled
through the second chart.
"""
from __future__ import annotations

import random

from .errors import (
    CurveMismatch,
    IncompleteDivisor,
    InsufficientPrecision,
    NewtonStall,
    SemanticError,
    SingularPoint,
    ZeroElement,
)
from .field import (
    NEG_INF,
    PrimeField,
    RatFunc,
    TruncSeries,
    UPoly,
    _mul,
    _series_inv,
    ratfunc_at_series,
)

INF = "inf"


# ---------------------------------------------------------------------------
# polynomials in Y with RatFunc coefficients (ascending lists, trimmed)

def _pk_trim(a):
    while a and a[-1].is_zero:
        a.pop()
    return a


def _pk_add(a, b, field):
    out = [RatFunc.zero(field)] * max(len(a), len(b))
    for i, c in enumerate(a):
        out[i] = out[i] + c
    for i, c in enumerate(b):
        out[i] = out[i] + c
    return _pk_trim(out)


def _pk_sub(a, b, field):
    return _pk_add(a, [-c for c in b], field)


def _pk_mul(a, b, field):
    if not a or not b:
        return []
    out = [RatFunc.zero(field) for _ in range(len(a) + len(b) - 1)]
    for i, ai in enumerate(a):
        if not ai.is_zero:
            for j, bj in enumerate(b):
                out[i + j] = out[i + j] + ai * bj
    return _pk_trim(out)


def _pk_divmod(a, b, field):
    rem = list(a)
    db = len(b) - 1
    if len(rem) - 1 < db:
        return [], _pk_trim(rem)
    inv_lc = RatFunc.one(field) / b[-1]
    quo = [RatFunc.zero(field)] * (len(rem) - db)
    for i in range(len(rem) - 1, db - 1, -1):
        c = rem[i]
        if not c.is_zero:
            q = c * inv_lc
            quo[i - db] = q
            for j, bc in enumerate(b):
                rem[i - db + j] = rem[i - db + j] - q * bc
    return _pk_trim(quo), _pk_trim(rem[:db])


def _pk_mod(a, m, field):
    return _pk_divmod(a, m, field)[1]


def _pk_extgcd(a, m, field):
    """Monic g = gcd(a, m) and s with s*a = g (mod m)."""
    r0, r1 = list(m), _pk_trim(list(a))
    s0, s1 = [], [RatFunc.one(field)]
    while r1:
        q, r = _pk_divmod(r0, r1, field)
        r0, r1 = r1, r
        s0, s1 = s1, _pk_sub(s0, _pk_mul(q, s1, field), field)
    lc = r0[-1]
    return [c / lc for c in r0], [c / lc for c in s0]


def _alg_mul(a, b, minpoly, field):
    return _pk_mod(_pk_mul(a, b, field), minpoly, field)


def _alg_inv(a, minpoly, field):
    g, s = _pk_extgcd(a, minpoly, field)
    if len(g) != 1:
        raise ZeroDivisionError("non-invertible algebra element")
    return s


def _matinv_ratfunc(m, field):
    """Invert a small square matrix of RatFunc by Gauss-Jordan."""
    n = len(m)
    a = [list(row) + [RatFunc.const(field, 1 if i == j else 0) for j in range(n)]
         for i, row in enumerate(m)]
    for col in range(n):
        piv = next((r for r in range(col, n) if not a[r][col].is_zero), None)
        if piv is None:
            raise ZeroDivisionError("singular matrix")
        a[col], a[piv] = a[piv], a[col]
        inv = RatFunc.one(field) / a[col][col]
        a[col] = [c * inv for c in a[col]]
        for r in range(n):
            if r != col and not a[r][col].is_zero:
                f = a[r][col]
                a[r] = [c - f * d for c, d in zip(a[r], a[col])]
    return [row[n:] for row in a]


# ---------------------------------------------------------------------------
# curve models

class _Memo:
    """Values derived from an immutable object, built once on first use."""

    __slots__ = ("_cache",)

    def _memo(self, name, build):
        try:
            return self._cache[name]
        except KeyError:
            value = build()
            self._cache[name] = value
            return value


class _CurveBase(_Memo):
    __slots__ = ("field",)

    model = "?"

    @property
    def p(self) -> int:
        return self.field.p

    # constructors for function-field elements
    def ff(self, *comps) -> "FFElem":
        return FFElem(self, comps)

    def ff_const(self, c) -> "FFElem":
        return FFElem(self, (RatFunc.const(self.field, c),))

    def x_elem(self) -> "FFElem":
        return FFElem(self, (RatFunc.x(self.field),))

    def y_elem(self) -> "FFElem":
        if self.ext_degree < 2:
            raise CurveMismatch("no y coordinate on this model")
        zero = RatFunc.zero(self.field)
        return FFElem(self, (zero, RatFunc.one(self.field)))

    def __eq__(self, other):
        return isinstance(other, _CurveBase) and other.key() == self.key()

    def __hash__(self):
        return hash(self.key())

    def __repr__(self):
        return str(self.key())


class P1Marked(_CurveBase):
    """The projective line with an ordered tuple of distinct marks."""

    __slots__ = ("marks",)
    model = "p1"
    ext_degree = 1

    def __init__(self, field: PrimeField, marks):
        self.field = field
        self._cache = {}
        norm = []
        for m in marks:
            if m == INF:
                norm.append(INF)
            else:
                norm.append(int(m) % field.p)
        if len(set(norm)) != len(norm):
            raise SemanticError(f"marks must be pairwise distinct, got {norm}")
        self.marks = tuple(norm)

    @property
    def stable(self) -> bool:
        # 2g - 2 + r > 0 at genus 0
        return len(self.marks) >= 3

    def genus(self) -> int:
        return 0

    def key(self):
        return ("p1", self.p, self.marks)


class Weierstrass(_CurveBase):
    """y^2 = x^3 + ax + b with nonzero discriminant."""

    __slots__ = ("a", "b")
    model = "ell"
    ext_degree = 2
    marks = ()

    def __init__(self, field: PrimeField, a: int, b: int):
        self.field = field
        self._cache = {}
        p = field.p
        self.a = a % p
        self.b = b % p
        disc = -16 * (4 * self.a**3 + 27 * self.b**2) % p
        if disc == 0:
            raise ValueError(f"singular cubic: a={self.a}, b={self.b} over F_{p}")

    def genus(self) -> int:
        return 1

    def key(self):
        return ("ell", self.p, self.a, self.b)

    def c_poly(self) -> UPoly:
        return UPoly(self.field, (self.b, self.a, 0, 1))

    def hasse(self) -> int:
        """Coefficient of x^(p-1) in (x^3 + ax + b)^((p-1)/2)."""
        def build():
            h = self.c_poly() ** ((self.p - 1) // 2)
            return h.coeff(self.p - 1)
        return self._memo("hasse", build)

    def minpoly(self):
        f = self.field
        return self._memo("minpoly", lambda: (
            -RatFunc.from_poly(self.c_poly()), RatFunc.zero(f), RatFunc.one(f)))

    def yprime(self) -> "FFElem":
        # implicit differentiation of y^2 = c:  y' = c' * y / (2c)
        def build():
            c = RatFunc.from_poly(self.c_poly())
            cp = RatFunc.from_poly(self.c_poly().derivative())
            return FFElem(self, (RatFunc.zero(self.field), cp / (2 * c)))
        return self._memo("yprime", build)

    def rational_points(self):
        pts = [INF]
        c = self.c_poly()
        squares = {}
        for y0 in range(self.p):
            squares.setdefault(y0 * y0 % self.p, []).append(y0)
        for x0 in range(self.p):
            for y0 in squares.get(c.evaluate(x0), ()):
                pts.append((x0, y0))
        return pts


class RaynaudPlane(_CurveBase):
    """x^q - x y^(q-1) - y z^(q-1) = 0 in P^2, q = l*p >= 4; chart z = 1."""

    __slots__ = ("l", "q")
    model = "raynaud"

    def __init__(self, field: PrimeField, l: int):
        self.field = field
        self._cache = {}
        if l < 1:
            raise ValueError("l must be positive")
        self.l = l
        self.q = l * field.p
        if self.q < 4:
            raise ValueError(f"need l*p >= 4, got {self.q}")

    @property
    def ext_degree(self) -> int:
        return self.q - 1

    def genus(self) -> int:
        return (self.q - 1) * (self.q - 2) // 2

    def key(self):
        return ("raynaud", self.p, self.l)

    def minpoly(self):
        # x y^(q-1) + y - x^q = 0, divided by x:
        # Y^(q-1) + (1/x) Y - x^(q-1)
        def build():
            f, x = self.field, RatFunc.x(self.field)
            zeros = (RatFunc.zero(f),) * (self.q - 3)
            return (-(x ** (self.q - 1)), 1 / x) + zeros + (RatFunc.one(f),)
        return self._memo("minpoly", build)

    def yprime(self) -> "FFElem":
        # dG/dx = -y^(q-1), dG/dy = x y^(q-2) - 1 for G = x^q - x y^(q-1) - y
        def build():
            y = self.y_elem()
            x = self.x_elem()
            num = y ** (self.q - 1)
            den = x * y ** (self.q - 2) - self.ff_const(1)
            return num / den
        return self._memo("yprime", build)

    def affine_points(self):
        """All F_p-rational points of the z = 1 chart (P_inf = (0,0) included)."""
        p, q = self.p, self.q
        pts = []
        for x0 in range(p):
            for y0 in range(p):
                g = (pow(x0, q, p) - x0 * pow(y0, q - 1, p) - y0) % p
                if g == 0:
                    pts.append((x0, y0))
        return pts


# ---------------------------------------------------------------------------
# function-field elements

class FFElem:
    """Element of the function field in the y-power basis over F_p(x)."""

    # _xz: the Z-chart vector (xz_components), set by Z0Place on first use
    __slots__ = ("curve", "comps", "_xz")

    def __init__(self, curve, comps):
        field = curve.field
        cs = []
        for c in comps:
            if isinstance(c, RatFunc):
                cs.append(c)
            elif isinstance(c, UPoly):
                cs.append(RatFunc.from_poly(c))
            elif isinstance(c, int):
                cs.append(RatFunc.const(field, c))
            else:
                raise TypeError(f"bad component {c!r}")
        d = curve.ext_degree
        if len(cs) > d:
            cs = _pk_mod(cs, curve.minpoly(), field)
        cs += [RatFunc.zero(field)] * (d - len(cs))
        self.curve = curve
        self.comps = tuple(cs)

    @property
    def is_zero(self) -> bool:
        return all(c.is_zero for c in self.comps)

    def _coerce(self, other):
        if isinstance(other, FFElem):
            if other.curve != self.curve:
                raise CurveMismatch("elements on different curves")
            return other
        if isinstance(other, (int, UPoly, RatFunc)):
            return FFElem(self.curve, (other,))
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return FFElem(self.curve, [a + b for a, b in zip(self.comps, o.comps)])

    __radd__ = __add__

    def __neg__(self):
        return FFElem(self.curve, [-a for a in self.comps])

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o + (-self)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if self.curve.ext_degree == 1:
            return FFElem(self.curve, (self.comps[0] * o.comps[0],))
        prod = _alg_mul(
            _pk_trim(list(self.comps)),
            _pk_trim(list(o.comps)),
            self.curve.minpoly(),
            self.curve.field,
        )
        return FFElem(self.curve, prod)

    __rmul__ = __mul__

    def inverse(self) -> "FFElem":
        if self.is_zero:
            raise ZeroDivisionError("inverse of zero function")
        if self.curve.ext_degree == 1:
            return FFElem(self.curve, (1 / self.comps[0],))
        inv = _alg_inv(
            _pk_trim(list(self.comps)), self.curve.minpoly(), self.curve.field
        )
        return FFElem(self.curve, inv)

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o * self.inverse()

    def __pow__(self, n: int):
        if n < 0:
            return self.inverse() ** (-n)
        result = self.curve.ff_const(1)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def derivative(self) -> "FFElem":
        """d/dx using implicit differentiation of the curve relation."""
        curve = self.curve
        if curve.ext_degree == 1:
            return FFElem(curve, (self.comps[0].derivative(),))
        zero = RatFunc.zero(curve.field)
        straight = FFElem(curve, [c.derivative() for c in self.comps])
        chain_comps = [zero] * (curve.ext_degree - 1)
        for k in range(1, curve.ext_degree):
            chain_comps[k - 1] = k * self.comps[k]
        chain = FFElem(curve, chain_comps)
        if chain.is_zero:
            return straight
        return straight + chain * curve.yprime()

    def dlog(self) -> "FFElem":
        if self.is_zero:
            raise ZeroElement("dlog of 0")
        return self.derivative() / self

    def _zpows(self):
        def build():
            d = self.curve.ext_degree
            zero_c = self.curve.ff_const(1)
            if d == 1:
                return [zero_c]
            y = self.curve.y_elem()
            z = y ** self.curve.p
            pows = [zero_c]
            for _ in range(d - 1):
                pows.append(pows[-1] * z)
            return pows
        return self.curve._memo("zpows", build)

    def pth_power(self) -> "FFElem":
        """self**p through the Frobenius spread of each component."""
        pows = self._zpows()
        acc = self.curve.ff_const(0)
        for k, c in enumerate(self.comps):
            if not c.is_zero:
                acc = acc + FFElem(self.curve, (c.pth_power(),)) * pows[k]
        return acc

    def to_zbasis(self):
        """Components s_j with self = sum_j s_j * (y^p)^j; s_j in F_p(x)."""
        def build():
            d = self.curve.ext_degree
            cols = [z.comps for z in self._zpows()]
            m = [[cols[j][i] for j in range(d)] for i in range(d)]
            return _matinv_ratfunc(m, self.curve.field)
        minv = self.curve._memo("zbasis_inv", build)
        out = []
        for row in minv:
            acc = RatFunc.zero(self.curve.field)
            for c, comp in zip(row, self.comps):
                acc = acc + c * comp
            out.append(acc)
        return out

    def pth_root(self):
        """g with g^p = self, or None when self is not a p-th power."""
        if self.curve.ext_degree == 1:
            r = self.comps[0].pth_root()
            return None if r is None else FFElem(self.curve, (r,))
        roots = []
        for s in self.to_zbasis():
            r = s.pth_root()
            if r is None:
                return None
            roots.append(r)
        return FFElem(self.curve, roots)

    def evaluate(self, point):
        """Value at an affine rational point (x0, y0), or x0 alone for P^1."""
        p = self.curve.p
        if self.curve.ext_degree == 1:
            x0 = point if isinstance(point, int) else point[0]
            return self.comps[0].evaluate(x0)
        x0, y0 = point
        acc = 0
        for k, c in enumerate(self.comps):
            if not c.is_zero:
                acc += c.evaluate(x0) * pow(y0, k, p)
        return acc % p

    def as_ratfunc(self) -> RatFunc:
        for c in self.comps[1:]:
            if not c.is_zero:
                raise CurveMismatch("element has y-components")
        return self.comps[0]

    def render(self) -> str:
        return " ; ".join(c.render() for c in self.comps)

    def __eq__(self, other):
        if isinstance(other, FFElem):
            return other.curve == self.curve and other.comps == self.comps
        if isinstance(other, (int, UPoly, RatFunc)):
            return self == FFElem(self.curve, (other,))
        return NotImplemented

    def __hash__(self):
        return hash((self.curve.key(), self.comps))

    def __repr__(self):
        return f"FFElem({self.render()})"


# ---------------------------------------------------------------------------
# branches

def _list_add(a, b, p):
    out = [0] * max(len(a), len(b))
    for i, c in enumerate(a):
        out[i] += c
    for i, c in enumerate(b):
        out[i] += c
    return [c % p for c in out]


def _newton_series(field, ycoeffs, y0, prec):
    """Solve P(t, Y) = 0 for the series Y(t), Y(0) = y0.

    ycoeffs maps Y-degree to the t-coefficient list of that coefficient.
    Requires dP/dY (0, y0) != 0; doubles precision per step.
    """
    p = field.p
    top = max(ycoeffs)

    def ev(table, y, m):
        acc = []
        for k in range(max(table) if table else 0, -1, -1):
            acc = _list_add(_mul(acc, y, p, m), table.get(k, []), p)[:m]
        return acc + [0] * (m - len(acc))

    dcoeffs = {
        k - 1: [c * k % p for c in cs] for k, cs in ycoeffs.items() if k >= 1
    }
    y = [y0 % p]
    m = 1
    steps = 0
    while m < prec:
        m = min(2 * m, prec)
        ycur = (y + [0] * m)[:m]
        g = ev(ycoeffs, ycur, m)
        gp = ev(dcoeffs, ycur, m)
        if gp[0] == 0:
            raise SingularPoint(f"vanishing derivative solving at start {y0}")
        corr = _mul(g, _series_inv(gp, m, p), p, m)
        y = [(a - b) % p for a, b in zip(ycur, corr + [0] * m)]
        steps += 1
        if steps > prec.bit_length() + 8:
            raise NewtonStall(f"no convergence at precision {m}")
    final = (y + [0] * prec)[:prec]
    check = ev(ycoeffs, final, prec)
    if any(check):
        raise NewtonStall("expansion fails to satisfy the defining equation")
    return final


class SeriesBranch:
    """A rational place with explicit coordinate expansions in a uniformizer."""

    __slots__ = ("curve", "key", "point", "uniformizer", "x_series", "y_series", "prec")

    weight = 1

    def __init__(self, curve, key, point, uniformizer, x_series, y_series, prec):
        self.curve = curve
        self.key = key
        self.point = point
        self.uniformizer = uniformizer
        self.x_series = x_series
        self.y_series = y_series
        self.prec = prec

    def expand(self, f, prec=None) -> TruncSeries:
        """Laurent expansion of f along the branch."""
        if prec is None:
            prec = self.prec
        if isinstance(f, Differential):
            return self.expand(f.h, prec) * self.dx_series(prec)
        if isinstance(f, RatFunc):
            f = FFElem(self.curve, (f,))
        if f.curve != self.curve:
            raise CurveMismatch("expansion on the wrong curve")
        if self.curve.ext_degree == 1:
            r = f.comps[0]
            if self.point == INF:
                return r.series_at_infinity(prec, center=self.key)
            return r.series_at(self.point, prec, center=self.key)
        acc = TruncSeries.zero(self.curve.field, self.key, prec)
        ypow = TruncSeries.const(self.curve.field, self.key, 1)
        for k, c in enumerate(f.comps):
            if not c.is_zero:
                acc = acc + ratfunc_at_series(c, self.x_series, prec_hint=prec) * ypow
            if k + 1 < len(f.comps):
                ypow = ypow * self.y_series
        return acc

    def valuation_of(self, f) -> int:
        if getattr(f, "is_zero", False):
            raise ZeroElement("valuation of 0")
        return self.expand(f).valuation()

    def dx_series(self, prec=None) -> TruncSeries:
        return self.x_series.derivative()

    def dx_valuation(self) -> int:
        return self.dx_series().valuation()

    def form_valuation(self, h) -> int:
        """Valuation of the differential h*dx at the branch."""
        return self.valuation_of(h) + self.dx_valuation()

    def form_residue(self, h) -> int:
        s = self.expand(h) * self.dx_series()
        return s.coeff(-1)

    def __repr__(self):
        return f"Branch({self.key}, prec={self.prec})"


class Z0Place:
    """A place of a Raynaud curve on the line z = 0.

    Handled through the chart y = 1 with coordinates X = x/y, Z = z/y, where
    the curve is X^q - X - Z^(q-1) = 0 and Z is a uniformizer everywhere on
    z = 0.  The place is an irreducible factor phi of X^q - X over F_p; its
    residue degree is deg phi.
    """

    __slots__ = ("curve", "phi", "key")

    def __init__(self, curve: RaynaudPlane, phi: UPoly):
        self.curve = curve
        self.phi = phi
        self.key = ("z0", curve.key(), phi.coeffs)

    @property
    def weight(self) -> int:
        return self.phi.degree

    @property
    def point(self):
        return self.key

    def _ord_phi(self, r: RatFunc) -> int:
        if r.is_zero:
            raise ZeroElement("valuation of 0")

        def mult(poly):
            m = 0
            while True:
                quo, rem = divmod(poly, self.phi)
                if rem.is_zero:
                    m += 1
                    poly = quo
                else:
                    return m
        return mult(r.num) - mult(r.den)

    def _zval(self, comps) -> int:
        q = self.curve.q
        best = None
        for k, c in enumerate(comps):
            if c.is_zero:
                continue
            v = (q - 1) * self._ord_phi(c) + k
            if best is None or v < best:
                best = v
        if best is None:
            raise ZeroElement("valuation of 0")
        return best

    def valuation_of(self, f) -> int:
        if isinstance(f, RatFunc):
            f = FFElem(self.curve, (f,))
        if getattr(f, "_xz", None) is None:  # the same at every z = 0 place
            f._xz = xz_components(self.curve, f)
        return self._zval(f._xz)

    def dx_cofactor_valuation(self) -> int:
        # dx = (Z^(q-1) - X) Z^(-2) dZ on the curve, and dZ is a unit at z = 0
        def build():
            q = self.curve.q
            f = self.curve.field
            w = _w(self.curve)
            c = (w - RatFunc.x(f)) / w
            comps = [RatFunc.zero(f)] * (q - 1)
            comps[q - 3] = c
            return comps
        comps = self.curve._memo("z0_dx_cofactor", build)
        return self._zval(comps)

    def form_valuation(self, h) -> int:
        return self.valuation_of(h) + self.dx_cofactor_valuation()

    def __repr__(self):
        return f"Z0Place(phi={list(self.phi.coeffs)}, p={self.curve.p})"


def _w(curve: RaynaudPlane) -> RatFunc:
    """w(X) = X^q - X, with Z^(q-1) = w in the chart y = 1."""
    return curve._memo("xq_minus_x", lambda: RatFunc.from_poly(
        UPoly(curve.field, [0, -1] + [0] * (curve.q - 2) + [1])))


def _zshift(comps, e, curve):
    """Multiply a Z-basis vector by Z^e in F_p(X)[Z]/(Z^(q-1) - w)."""
    q = curve.q
    f = curve.field
    w = _w(curve)
    out = [RatFunc.zero(f)] * (q - 1)
    for k, c in enumerate(comps):
        if c.is_zero:
            continue
        j = k + e
        r = j % (q - 1)
        s = j // (q - 1)
        out[r] = out[r] + c * w**s
    return out


def xz_components(curve: RaynaudPlane, f: FFElem):
    """Rewrite f in the chart y = 1 as a Z-power vector over F_p(X).

    Uses x = X/Z, y = 1/Z and the radical relation Z^(q-1) = X^q - X.
    """
    q = curve.q
    field = curve.field
    zero = RatFunc.zero(field)

    def homog(poly: UPoly):
        # Z^deg * poly(X/Z) as a Z-basis vector
        d = poly.degree
        comps = [zero] * (q - 1)
        if poly.is_zero:
            return comps, 0
        vec = [zero] * (q - 1)
        for i, a in enumerate(poly.coeffs):
            if a:
                term = [zero] * (q - 1)
                term[0] = RatFunc.from_poly(UPoly.monomial(field, i, a))
                term = _zshift(term, d - i, curve)
                vec = [u + v for u, v in zip(vec, term)]
        return vec, d

    minpoly = curve._memo(
        "z_minpoly", lambda: [-_w(curve)] + [zero] * (q - 2) + [RatFunc.one(field)]
    )
    total = [zero] * (q - 1)
    for k, c in enumerate(f.comps):
        if c.is_zero:
            continue
        nvec, dn = homog(c.num)
        dvec, dd = homog(c.den)
        dinv = _alg_inv(_pk_trim(list(dvec)), minpoly, field)
        part = _alg_mul(_pk_trim(list(nvec)), dinv, minpoly, field)
        part = (list(part) + [zero] * (q - 1))[: q - 1]
        # f_k(x) y^k = Z^(dd - dn - k) * N/D in the second chart
        part = _zshift(part, dd - dn - k, curve)
        total = [u + v for u, v in zip(total, part)]
    return total


def _factor_linear_and_rest(poly: UPoly):
    """Split off rational roots; return (list of (root, mult), cofactor)."""
    field = poly.field
    out = []
    for a in range(field.p):
        m = 0
        lin = UPoly(field, (-a, 1))
        while poly.evaluate(a) == 0:
            poly = poly // lin
            m += 1
        if m:
            out.append((a, m))
    return out, poly


def _poly_powmod(base: UPoly, e: int, mod: UPoly) -> UPoly:
    result = UPoly.one(base.field)
    b = base % mod
    while e:
        if e & 1:
            result = result * b % mod
        b = b * b % mod
        e >>= 1
    return result


def _factor_squarefree(poly: UPoly):
    """Irreducible factors of a squarefree monic polynomial (no multiplicity).

    Distinct-degree splitting, then seeded Cantor-Zassenhaus for equal-degree
    pieces; deterministic because the RNG seed is fixed.
    """
    p = poly.field.p
    x = UPoly.x(poly.field)
    rng = random.Random(0)
    factors = []
    work = poly.monic()
    frob = x
    d = 0
    while work.degree > 0:
        d += 1
        if 2 * d > work.degree:
            # what is left is a single irreducible factor
            factors.append(work)
            break
        frob = _poly_powmod(frob, p, work)
        g = (frob - x).gcd(work)
        if g.degree > 0:
            factors.extend(_equal_degree_split(g, d, rng))
            work = work // g
            frob = frob % work
    return factors


def _equal_degree_split(poly: UPoly, d: int, rng) -> list:
    """Cantor-Zassenhaus on a product of irreducibles of the same degree d."""
    if poly.degree == d:
        return [poly.monic()]
    field = poly.field
    p = field.p
    e = (p**d - 1) // 2
    while True:
        r = UPoly(field, [rng.randrange(p) for _ in range(poly.degree)])
        if r.degree < 1:
            continue
        g = r.gcd(poly)
        if 0 < g.degree < poly.degree:
            return _equal_degree_split(g, d, rng) + _equal_degree_split(
                poly // g, d, rng
            )
        h = _poly_powmod(r, e, poly) - 1
        g = h.gcd(poly)
        if 0 < g.degree < poly.degree:
            return _equal_degree_split(g, d, rng) + _equal_degree_split(
                poly // g, d, rng
            )


def z0_places(curve: RaynaudPlane):
    """All places of the curve on z = 0, one per irreducible factor of X^q - X."""
    def build():
        linear, rest = _factor_linear_and_rest(_w(curve).num)
        places = [Z0Place(curve, UPoly(curve.field, (-a, 1))) for a, _ in linear]
        if rest.degree > 0:
            for f in _factor_squarefree(rest):
                places.append(Z0Place(curve, f))
        places.sort(key=lambda pl: (pl.weight, pl.phi.coeffs))
        return places
    return curve._memo("z0_places", build)


def branch_at(curve, point, prec: int) -> SeriesBranch:
    """Branch with coordinate expansions at a rational point; see module doc."""
    field = curve.field
    p = field.p
    if isinstance(curve, P1Marked) or curve.model == "p1":
        if point == INF:
            key = ("p1", curve.p, INF)
            x_series = TruncSeries.t_power(field, key, -1)
            return SeriesBranch(curve, key, INF, "1/x", x_series, None, prec)
        a = int(point) % p
        key = ("p1", curve.p, a)
        x_series = TruncSeries(field, key, 0, (a, 1), float("inf"))
        return SeriesBranch(curve, key, a, f"x-{a}", x_series, None, prec)

    if isinstance(curve, Weierstrass):
        return _branch_weierstrass(curve, point, prec)
    if isinstance(curve, RaynaudPlane):
        return _branch_raynaud(curve, point, prec)
    raise CurveMismatch(f"no branches on {curve!r}")


def _branch_weierstrass(curve: Weierstrass, point, prec: int) -> SeriesBranch:
    field = curve.field
    p = field.p
    c = curve.c_poly()
    if point == INF:
        # t = x/y; x = 1/u with u = t^2 (1 + a u^2 + b u^3)
        key = ("ell", curve.key(), INF)
        a, b = curve.a, curve.b
        pr = prec + 8
        table = {0: [0, 0, -1], 1: [1], 2: [0, 0, -a], 3: [0, 0, -b]}
        unit = _newton_series(field, table, 0, pr)[2:]
        xs = _series_inv(unit, pr - 2, p)
        x_series = TruncSeries(field, key, -2, xs, pr - 4)
        y_series = x_series * TruncSeries.t_power(field, key, -1)
        return SeriesBranch(curve, key, INF, "x/y", x_series, y_series, prec)
    x0, y0 = int(point[0]) % p, int(point[1]) % p
    if (y0 * y0 - c.evaluate(x0)) % p != 0:
        raise ValueError(f"({x0},{y0}) is not on the curve")
    key = ("ell", curve.key(), (x0, y0))
    if y0 != 0:
        table = {0: [-v for v in c.taylor_shift(x0).coeffs], 2: [1]}
        ys = _newton_series(field, table, y0, prec)
        x_series = TruncSeries(field, key, 0, (x0, 1), float("inf"))
        y_series = TruncSeries(field, key, 0, ys, prec)
        return SeriesBranch(curve, key, (x0, y0), f"x-{x0}", x_series, y_series, prec)
    # 2-torsion: uniformizer is y, solve x(t) from c(x) = t^2
    if c.derivative().evaluate(x0) == 0:
        raise SingularPoint(f"both partials vanish at ({x0},{y0})")
    shifted = c.taylor_shift(x0)
    table = {}
    for k, coeff in enumerate(shifted.coeffs):
        if coeff:
            table[k] = [coeff]
    table[0] = _list_add(table.get(0, []), [0, 0, -1], p)
    xs = _newton_series(field, table, 0, prec)
    x_series = TruncSeries(field, key, 0, _list_add([x0], xs, p), prec)
    y_series = TruncSeries.t_power(field, key, 1)
    return SeriesBranch(curve, key, (x0, y0), "y", x_series, y_series, prec)


def _branch_raynaud(curve: RaynaudPlane, point, prec: int) -> SeriesBranch:
    field = curve.field
    p, q = curve.p, curve.q
    x0, y0 = int(point[0]) % p, int(point[1]) % p
    g_val = (pow(x0, q, p) - x0 * pow(y0, q - 1, p) - y0) % p
    if g_val != 0:
        raise ValueError(f"({x0},{y0}) is not on the curve")
    gy = (x0 * pow(y0, q - 2, p) - 1) % p
    gx = (-pow(y0, q - 1, p)) % p
    key = ("raynaud", curve.key(), (x0, y0))
    if gy != 0:
        # uniformizer x - x0; G(x0 + t, Y) = (x0+t)^q - (x0+t) Y^(q-1) - Y
        xq = UPoly.monomial(field, q).taylor_shift(x0)
        table = {
            0: list(xq.coeffs),
            1: [-1],
            q - 1: [(-x0) % p, p - 1],
        }
        ys = _newton_series(field, table, y0, prec)
        x_series = TruncSeries(field, key, 0, (x0, 1), float("inf"))
        y_series = TruncSeries(field, key, 0, ys, prec)
        return SeriesBranch(curve, key, (x0, y0), f"x-{x0}", x_series, y_series, prec)
    if gx == 0:
        raise SingularPoint(f"both partials vanish at ({x0},{y0})")
    # uniformizer y - y0; G(X, y0 + t) = X^q - X (y0+t)^(q-1) - (y0+t)
    yq1 = UPoly.monomial(field, q - 1).taylor_shift(y0)
    table = {
        0: [(-v) % p for v in UPoly(field, (y0, 1)).coeffs],
        1: [(-v) % p for v in yq1.coeffs],
        q: [1],
    }
    xs = _newton_series(field, table, x0, prec)
    x_series = TruncSeries(field, key, 0, xs, prec)
    y_series = TruncSeries(field, key, 0, (y0, 1), float("inf"))
    return SeriesBranch(curve, key, (x0, y0), f"y-{y0}", x_series, y_series, prec)


def raynaud_p_inf(curve: RaynaudPlane, prec: int) -> SeriesBranch:
    """The distinguished point P_inf = [0:0:1], i.e. (0,0) in the chart z = 1."""
    return branch_at(curve, (0, 0), prec)


# ---------------------------------------------------------------------------
# operations of the public surface

def genus(curve) -> int:
    return curve.genus()


def is_ordinary(curve: Weierstrass):
    """(ordinary?, hasse) with hasse the x^(p-1) coefficient of c^((p-1)/2)."""
    h = curve.hasse()
    return (h != 0, h)


def valuation(f, place) -> int:
    """v_place(f) for a function, or of the form h*dx for a Differential."""
    if isinstance(f, Differential):
        return place.form_valuation(f.h)
    return place.valuation_of(f)


def series_expand(f, branch: SeriesBranch, prec: int) -> TruncSeries:
    """Expansion with at least prec coefficients past the leading term."""
    s = branch.expand(f)
    if s.is_zero_to_prec:
        if getattr(f, "is_zero", False):
            raise ZeroElement("expansion of 0")
        raise InsufficientPrecision("no visible leading term; re-derive branch")
    if s.prec != float("inf") and s.prec - s.valuation() < prec:
        raise InsufficientPrecision(
            f"only {s.prec - s.valuation()} coefficients available, need {prec}"
        )
    return s.truncate(s.valuation() + prec) if s.prec != float("inf") else s


class Differential:
    """A rational differential h*dx in the working chart."""

    __slots__ = ("curve", "h")

    def __init__(self, curve, h):
        if isinstance(h, RatFunc):
            h = FFElem(curve, (h,))
        if h.curve != curve:
            raise CurveMismatch("form on the wrong curve")
        self.curve = curve
        self.h = h

    @property
    def is_zero(self):
        return self.h.is_zero

    def __add__(self, other):
        if not isinstance(other, Differential):
            return NotImplemented
        return Differential(self.curve, self.h + other.h)

    def __sub__(self, other):
        if not isinstance(other, Differential):
            return NotImplemented
        return Differential(self.curve, self.h - other.h)

    def __neg__(self):
        return Differential(self.curve, -self.h)

    def scale(self, f) -> "Differential":
        return Differential(self.curve, self.h * f)

    def __eq__(self, other):
        return (
            isinstance(other, Differential)
            and other.curve == self.curve
            and other.h == self.h
        )

    def __hash__(self):
        return hash(("form", self.curve.key(), self.h))

    def __repr__(self):
        return f"Differential(({self.h.render()}) dx)"


def d_of(f) -> Differential:
    """The exact differential df = f' dx."""
    return Differential(f.curve, f.derivative())


class Divisor:
    """Finite Z-linear combination of places."""

    __slots__ = ("entries",)

    def __init__(self, items=()):
        entries = {}
        for place, coeff in items:
            if coeff:
                if place.key in entries:
                    old_place, old = entries[place.key]
                    coeff += old
                if coeff:
                    entries[place.key] = (place, coeff)
                else:
                    entries.pop(place.key, None)
        self.entries = entries

    def items(self):
        return [self.entries[k] for k in sorted(self.entries, key=repr)]

    def coeff(self, place) -> int:
        key = place.key if hasattr(place, "key") else place
        entry = self.entries.get(key)
        return entry[1] if entry else 0

    def degree(self) -> int:
        return sum(c * pl.weight for pl, c in self.entries.values())

    @property
    def is_zero(self) -> bool:
        return not self.entries

    def __add__(self, other):
        return Divisor(
            list(self.entries.values()) + list(other.entries.values())
        )

    def __neg__(self):
        return Divisor([(pl, -c) for pl, c in self.entries.values()])

    def __sub__(self, other):
        return self + (-other)

    def times(self, n: int) -> "Divisor":
        return Divisor([(pl, n * c) for pl, c in self.entries.values()])

    def floor_div(self, p: int) -> "Divisor":
        return Divisor([(pl, c // p) for pl, c in self.entries.values()])

    def __eq__(self, other):
        if not isinstance(other, Divisor):
            return NotImplemented
        return {k: v[1] for k, v in self.entries.items()} == {
            k: v[1] for k, v in other.entries.items()
        }

    def __hash__(self):
        return hash(frozenset((k, v[1]) for k, v in self.entries.items()))

    def render(self) -> str:
        if not self.entries:
            return "0"
        parts = []
        for pl, c in self.items():
            parts.append(f"{c}*{_place_name(pl)}")
        return " + ".join(parts)

    def __repr__(self):
        return f"Divisor({self.render()})"


def _place_name(place) -> str:
    if isinstance(place, Z0Place):
        return f"z0[{place.phi.render()}]"
    pt = place.point
    if pt == INF:
        return "inf"
    if isinstance(place, SeriesBranch) and place.curve.model == "raynaud" and pt == (0, 0):
        return "Pinf"
    return str(pt)


def divisor_of_differential(omega: Differential, candidate_places):
    """Divisor of omega on the candidates; complete iff degree hits 2g - 2."""
    items = []
    for place in candidate_places:
        try:
            v = valuation(omega, place)
        except ZeroElement:
            raise
        if v:
            items.append((place, v))
    div = Divisor(items)
    complete = div.degree() == 2 * omega.curve.genus() - 2
    return div, complete


def raynaud_smoothness_report(curve: RaynaudPlane) -> bool:
    """Jacobian criterion at every rational point of both charts.

    The partials of the chart z = 1 are (-y^(q-1), x y^(q-2) - 1) and the
    chart y = 1 has d/dX = -1 identically, so the sampled check cannot find
    a rational singular point; it is recorded as the smoothness evidence.
    """
    p, q = curve.p, curve.q
    for (x0, y0) in curve.affine_points():
        gx = (-pow(y0, q - 1, p)) % p
        gy = (x0 * pow(y0, q - 2, p) - 1) % p if y0 else (p - 1)
        if gx == 0 and gy == 0:
            return False
    # chart y = 1: H = X^q - X - Z^(q-1), H_X = -1 everywhere
    return True
