"""Explicit curve models and their function fields.

Three models are shipped: the marked projective line, short Weierstrass
elliptic curves y^2 = x^3 + ax + b, and the Raynaud plane curves
x^q - x y^(q-1) - y z^(q-1) = 0 with q = l*p.  A function-field element
is one integral y-power vector over F_p[x] over one monic denominator, in
the fixed affine chart (z = 1 for Raynaud).  Places are either rational
branches, whose coordinate series lengthen on demand, or, on the Raynaud
curves, the points on the line z = 0, read through the second chart as
f = Z^shift G / H from two integral Z-power vectors.  Both kinds read
v(N / D) = v(N) - v(D) and v(h dx) = v(h) + v(dx).  Every order of
vanishing of a polynomial at a point of the line or at a factor of
X^q - X is one field._order.
"""
from __future__ import annotations

import random
from itertools import zip_longest
from math import comb, inf

from .errors import (
    CurveMismatch,
    InsufficientPrecision,
    NewtonStall,
    SemanticError,
    SingularPoint,
    ZeroElement,
)
from .field import (
    INF,
    PrimeField,
    RatFunc,
    TruncSeries,
    UPoly,
    _Frac,
    _canon,
    _deriv,
    _div_exact,
    _gcd,
    _list_add,
    _mul,
    _order,
    _series_inv,
    _shift,
    _taylor,
    _trim,
    poly_at_series,
)


# ---------------------------------------------------------------------------
# integral algebras
#
# A vector is a list of coefficient lists over F_p[x] (ascending, trimmed,
# [] for zero); entry k is the coefficient of Y^k.  An algebra is
# F_p(x)[Y] / (G), G = sum_k m_k Y^k the cleared minpoly with m_d = x^s.  Its
# leading coefficient is a monomial, so pseudo-reduction only shifts.  The
# instances: the y-algebra of each curve model, and on the Raynaud curves
# the algebra of z = y^p and the chart y = 1.

class _Algebra:
    __slots__ = ("p", "d", "s", "m", "terms")

    def __init__(self, p, m):
        self.p, self.d, self.s = p, len(m) - 1, len(m[-1]) - 1
        self.m = [_trim([c % p for c in u]) for u in m]
        # x^s Y^(d+j) = sum_k -m_k Y^(j+k)
        self.terms = [(k, [-c % p for c in u]) for k, u in enumerate(self.m[:-1]) if u]


def _vadd(u, v, p):
    if len(u) < len(v):
        u, v = v, u
    return [_list_add(a, b, p) for a, b in zip(u, v)] + list(u[len(v) :])


def _vtrim(v):
    v = [list(c) for c in v]
    while v and not v[-1]:
        v.pop()
    return v


def _reduce(v, alg):
    """(w, e) with v = w / x^(s e) in the algebra and len(w) <= d."""
    v, e = _vtrim(v), 0
    while len(v) > alg.d:
        out = [_shift(c, alg.s) for c in v[: alg.d]] + [[] for _ in v]
        for j, c in enumerate(v[alg.d :]):
            for k, m in alg.terms:
                out[j + k] = _list_add(out[j + k], _mul(c, m, alg.p), alg.p)
        v, e = _vtrim(out), e + 1
    return v, e


def _vmul(a, b, alg):
    """a * b in the algebra: (w, e) with a * b = w / x^(s e).

    One bivariate Kronecker product: Y^k x^i goes to t^(k * stride + i),
    and no x-degree of the product reaches the stride.
    """
    if alg.d == 1:  # the line: one product
        c = _mul(a[0], b[0], alg.p) if a and b else []
        return ([c] if c else []), 0
    a, b = sorted((_vtrim(a), _vtrim(b)), key=len)
    if not a:
        return [], 0
    if len(a) == 1:
        return _vtrim([_mul(a[0], c, alg.p) for c in b]), 0
    stride = max(map(len, a)) + max(map(len, b)) - 1
    fa, fb = ([t for c in v for t in c + [0] * (stride - len(c))] for v in (a, b))
    prod = _mul(fa, fb, alg.p)
    return _reduce([_trim(prod[k : k + stride]) for k in range(0, len(prod), stride)], alg)


def _inverse(a, alg):
    """(v, det) with a * v = det in the algebra, v integral, det != 0.

    Fraction-free (Bareiss) solve of the multiplication system for the
    right-hand side 1: column k is a * Y^k cleared of its x^(s e_k), and the
    solution is scaled back by those powers.
    """
    d, p = alg.d, alg.p
    cols, col, e = [], _vtrim(a), 0
    for k in range(d):
        cols.append((col + [[]] * d, e))
        col, de = _reduce([[]] + col, alg)
        e += de
    rows = [[c[0][i] for c in cols] + [[1] if i == 0 else []] for i in range(d)]
    prev = [1]
    for k in range(d):
        # the shortest pivot keeps the minors low in degree
        live = [i for i in range(k, d) if rows[i][k]]
        if not live:
            raise ZeroDivisionError("non-invertible algebra element")
        piv = min(live, key=lambda i: len(rows[i][k]))
        rows[k], rows[piv] = rows[piv], rows[k]
        pk, rk = rows[k][k], rows[k]
        for ri in rows[k + 1 :]:
            ri[k + 1 :] = [_list_add(_mul(pk, t, p), [-c for c in _mul(ri[k], u, p)], p)
                           for t, u in zip(ri[k + 1 :], rk[k + 1 :])]
        if len(prev) > 1:  # exact, by long division
            for ri in rows[k + 1 :]:
                ri[k + 1 :] = [_div_exact(t, prev, p) for t in ri[k + 1 :]]
        prev = pk
    sol = [None] * d
    for i in range(d - 1, -1, -1):
        t = _mul(prev, rows[i][d], p)
        for j in range(i + 1, d):
            t = _list_add(t, [-c for c in _mul(rows[i][j], sol[j], p)], p)
        sol[i] = _div_exact(t, rows[i][i], p)
    return [_shift(c, alg.s * ek) for c, (_, ek) in zip(sol, cols)], prev


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


def _point(curve, pt):
    """The normal form of a rational point of the curve: INF, an int mod p
    on the line, or an affine pair mod p on the other models."""
    if pt == INF:
        return INF
    p = curve.p
    if curve.model == "p1":
        return int(pt) % p
    return (int(pt[0]) % p, int(pt[1]) % p)


class _CurveBase(_Memo):
    __slots__ = ("field",)

    model = "?"
    marks = ()

    @property
    def p(self) -> int:
        return self.field.p

    # constructors for function-field elements
    def ff(self, *comps) -> "FFElem":
        return FFElem(self, comps)

    def ff_const(self, c) -> "FFElem":
        return FFElem._make(self, [_trim([c % self.p])], [1], coprime=True)

    def x_elem(self) -> "FFElem":
        return FFElem._make(self, [[0, 1]], [1], coprime=True)

    def y_elem(self) -> "FFElem":
        if self.ext_degree < 2:
            raise CurveMismatch("no y coordinate on this model")
        return FFElem._make(self, [[], [1]], [1], coprime=True)

    def algebra(self) -> _Algebra:
        """The y-algebra, from the cleared minpoly of the model."""
        return self._memo("algebra", lambda: _Algebra(self.p, self.cleared_minpoly()))

    def minpoly(self):
        """The monic minpoly of y over F_p(x), constant term first."""
        def build():
            alg = self.algebra()
            den = UPoly.monomial(self.field, alg.s)
            return tuple(RatFunc(self.field, UPoly(self.field, c), den) for c in alg.m)
        return self._memo("minpoly", build)

    def yprime(self) -> "FFElem":
        """dy/dx = -G_x(y) / G_y(y) for the cleared minpoly G(x, Y)."""
        def build():
            alg = self.algebra()
            gx, e = _reduce([_deriv(c, self.p) for c in alg.m], alg)
            gy = [[k * c % self.p for c in u] for k, u in enumerate(alg.m)][1:]
            return (-FFElem._make(self, gx, _shift([1], alg.s * e))
                    / FFElem._make(self, gy, [1]))
        return self._memo("yprime", build)

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
        norm = [_point(self, m) for m in marks]
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

    def cleared_minpoly(self):
        return [[], [1]]  # y-vectors have the one entry of F_p(x)


class Weierstrass(_CurveBase):
    """y^2 = x^3 + ax + b with nonzero discriminant."""

    __slots__ = ("a", "b")
    model = "ell"
    ext_degree = 2

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

    def _c_half(self) -> UPoly:
        """(x^3 + ax + b)^((p-1)/2), built once per curve."""
        return self._memo("c_half", lambda: self.c_poly() ** ((self.p - 1) // 2))

    def hasse(self) -> int:
        """Coefficient of x^(p-1) in (x^3 + ax + b)^((p-1)/2)."""
        return self._c_half().coeff(self.p - 1)

    def cleared_minpoly(self):
        return [(-self.c_poly()).coeffs, [], [1]]  # Y^2 - c(x)

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

    def cleared_minpoly(self):
        # x Y^(q-1) + Y - x^q
        return [[0] * self.q + [-1], [1]] + [[]] * (self.q - 3) + [[0, 1]]

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

class FFElem(_Frac):
    """Element of the function field: the _Frac normal form of a y-basis
    vector over F_p[x], one numerator coefficient tuple per power of y
    (() for 0), over one monic denominator tuple coprime to all of them.

    The rules that need only x are _Frac's; the y-parts are here: products
    in the y-algebra (_nmul), the Bareiss inverse (_vinv), the chain term
    of the derivative (_dchain) and Horner in z = y^p (_zhorner, _zvec).
    The constructor takes RatFunc, UPoly or int components over the curve's
    field; comps gives them back as reduced RatFuncs.  num (the tuples) and
    den (a UPoly) are read-only views.
    """

    # _xz: the Z-chart triple (xz_components), set by Z0Place on first use
    __slots__ = ("curve", "_xz")

    def __init__(self, curve, comps):
        rats = []
        for c in comps:
            if isinstance(c, UPoly):
                c = RatFunc.from_poly(c)
            elif isinstance(c, int):
                c = RatFunc.const(curve.field, c)
            elif not isinstance(c, RatFunc):
                raise TypeError(f"bad component {c!r}")
            if c.field != curve.field:
                raise ValueError("mixed fields")
            rats.append(c)
        if len(rats) == 1:  # a reduced RatFunc is canonical
            return self._set(curve, rats[0]._num, rats[0]._den)
        # over the lcm of reduced denominators the numerators are coprime
        den, num = _over_lcm([(c._num, c._den) for c in rats], curve.p)
        alg = curve.algebra()
        num, e = _reduce([v[0] for v in num], alg)
        self._set(curve, *_canon(num, _shift(den, alg.s * e), curve.p, not e))

    def _set(self, curve, num, den):
        self.curve, self.field = curve, curve.field
        self._num = tuple(map(tuple, num)) + ((),) * (curve.ext_degree - len(num))
        self._den = tuple(den)

    _home = property(lambda self: self.curve)
    num = property(lambda self: self._num)
    den = property(lambda self: UPoly(self.field, self._den))

    @property
    def comps(self):
        """The y-basis components as reduced rational functions; the only
        nonzero numerator is coprime to den already."""
        alone = sum(map(bool, self._num)) == 1
        return tuple(RatFunc._make(self.field, [c], self._den, alone) for c in self._num)

    def _coerce(self, other):
        if isinstance(other, FFElem):
            if other.curve != self.curve:
                raise CurveMismatch("elements on different curves")
            return other
        if isinstance(other, int):
            return self.curve.ff_const(other)
        if isinstance(other, (UPoly, RatFunc)):
            return FFElem(self.curve, (other,))
        return None

    # products and inverses keep their own names, which perfbench's tracer counts
    def __mul__(self, other):
        return _Frac.__mul__(self, other)

    __rmul__ = __mul__

    def inverse(self) -> "FFElem":
        return _Frac.inverse(self)

    def _nmul(self, a, b):
        alg = self.curve.algebra()
        num, e = _vmul(a, b, alg)
        return num, alg.s * e

    def _vinv(self):
        return _inverse(self._num, self.curve.algebra())

    def _dchain(self, num, den):
        """num / den plus the chain term D (dN/dy) y' / D^2 of the
        numerator N over D: with y' = Y / E, all over D^2 E."""
        curve, p = self.curve, self.curve.p
        alg, yp = curve.algebra(), curve.yprime()
        chain = [_trim([k * c % p for c in u]) for k, u in enumerate(self._num)][1:]
        w, e = _vmul(chain, yp._num, alg)
        scale = _shift(yp._den, alg.s * e)
        return ([_list_add(_mul(u, scale, p), _mul(c, self._den, p), p)
                 for u, c in zip_longest(num, w, fillvalue=[])], _mul(den, scale, p))

    def _zhorner(self, spread, den):
        """The spread numerators put together by Horner in z = y^p, over
        the spread den; y^p is read only below a nonzero top numerator."""
        curve, p = self.curve, self.curve.p
        alg = curve.algebra()
        while len(spread) > 1 and not spread[-1]:
            spread.pop()
        acc, e = [spread.pop()], 0
        for c in reversed(spread):
            z, ez = curve._memo("ypow_p", lambda: _reduce([[]] * p + [[1]], alg))  # y^p
            acc, e1 = _vmul(acc, z, alg)
            e += e1 + ez
            acc = [_list_add(acc[0] if acc else [], _shift(c, alg.s * e), p)] + acc[1:]
        return acc, _shift(den, alg.s * e)

    def _zvec(self):
        """(S, E): self = sum_j S_j z^j / E with z = y^p, canonical; with no
        y-part, self's own numerators and den on every model."""
        curve, p = self.curve, self.curve.p
        num, den = [list(c) for c in self._num], list(self._den)
        if not any(num[1:]):
            return num, den
        if curve.model == "ell":  # y = z / c^((p-1)/2)
            h = curve._c_half().coeffs
            return _canon([_mul(num[0], h, p), num[1]], _mul(den, h, p), p)
        return _zbasis_raynaud(curve, num, den)

    def evaluate(self, point):
        """Value at an affine rational point (x0, y0), or x0 alone for P^1."""
        p = self.curve.p
        x0, y0 = (point, 0) if isinstance(point, int) else (point[0], point[-1])
        return sum(c.evaluate(x0) * pow(y0, k, p)
                   for k, c in enumerate(self.comps) if not c.is_zero) % p

    def as_ratfunc(self) -> RatFunc:
        if any(self._num[1:]):
            raise CurveMismatch("element has y-components")
        return self.comps[0]

    def render(self) -> str:
        return " ; ".join(c.render() for c in self.comps)

    def __eq__(self, other):
        if isinstance(other, FFElem):
            return (other.curve == self.curve and other._num == self._num
                    and other._den == self._den)
        if isinstance(other, (UPoly, RatFunc)) and other.field != self.field:
            return False  # arithmetic refuses mixed fields; equality says no
        if isinstance(other, (int, UPoly, RatFunc)):
            return self == self._coerce(other)
        return NotImplemented

    def __hash__(self):
        return hash((self.curve.key(), self._num, self._den))

    def __repr__(self):
        return f"FFElem({self.render()})"


def _over_lcm(pairs, p):
    """(L, vectors): L the monic lcm of the denominators of the (vector,
    den) coefficient-list pairs, and each vector times L / den."""
    den = [1]
    for _, d in pairs:
        if len(d) > 1:
            den = _mul(_div_exact(den, _gcd(den, d, p), p), d, p)
    return den, [[_mul(c, _div_exact(den, d, p), p) for c in v] for v, d in pairs]


def _zalg(curve) -> _Algebra:
    """z = y^p on a Raynaud curve: x^p Z^(q-1) + Z - x^(pq) = 0."""
    p, q = curve.p, curve.q
    return curve._memo("zalg", lambda: _Algebra(
        p, [[0] * (p * q) + [-1], [1]] + [[]] * (q - 3) + [[0] * p + [1]]))


def _y_over_z(curve):
    """y in the z-basis of a Raynaud curve, canonical (V, Delta), in closed
    form.

    Multiplying the curve equation by y and using y^q = z^l gives
    y^2 - x^q y + x z^l = 0, with roots y and x^q - y.  Their difference
    s = 2y - x^q has s^2 = D = x^(2q) - 4x z^l and s^p = 2(z - r) with
    r = x^(pq) / 2, so s = D^((p+1)/2) / (2(z - r)).  Synthetic division of
    the z-minpoly m by Z - r gives m = (Z - r) Q + m(r), so 1 / (z - r) is
    -Q(z) / m(r); m(r) != 0, its two terms having different degrees.  Hence
    y = x^q / 2 - D^((p+1)/2) Q(z) / (4 m(r)).
    """
    def build():
        p, q, l = curve.p, curve.q, curve.l
        alg, half = _zalg(curve), (p + 1) // 2
        r, qz = _shift([half], p * q), []
        for c in reversed(alg.m):  # qz collects m_d, m_(d-1) + r m_d, ...
            qz.append(_list_add(c, _mul(qz[-1], r, p), p) if qz else c)
        m_r, qz = qz.pop(), qz[::-1]
        # D^half Q, D^half = sum_j C(half, j) x^(2q(half-j)) (-4x)^j Z^(lj)
        w = [[] for _ in range(alg.d + l * half)]
        for j in range(half + 1):
            c, sh = comb(half, j) * pow(-4, j, p) % p, 2 * q * (half - j) + j
            for k, u in enumerate(qz, l * j):
                w[k] = _list_add(w[k], _shift(_mul(u, [c], p), sh), p)
        w, e = _reduce(w, alg)
        den = _shift(_mul(m_r, [4], p), alg.s * e)
        num = [[-c % p for c in u] for u in w] + [[] for _ in range(alg.d - len(w))]
        num[0] = _list_add(num[0], _shift(_mul(den, [half], p), q), p)
        return _canon(num, den, p)
    return curve._memo("y_over_z", build)


def _zbasis_raynaud(curve, num, den):
    """The canonical z-basis vector of N(y) / D on a Raynaud curve.

    Horner in Y modulo y^2 = x^q y - x z^l leaves N(y) = P + Q y with P, Q
    in F_p[x][z]; then y = V / Delta.
    """
    p, q, l = curve.p, curve.q, curve.l
    alg, (v, delta) = _zalg(curve), _y_over_z(curve)
    big_p, big_q = [], []
    for c in reversed(num):
        # (P + Q y) y + c = (c - x z^l Q) + (P + x^q Q) y
        nxt_q = [_list_add(u, _shift(w, q), p) for u, w in zip_longest(big_p, big_q, fillvalue=[])]
        big_p = [list(c)] + [[]] * (l - 1) + [_shift([-t % p for t in u], 1) for u in big_q]
        big_q = nxt_q
    (big_p, ep), (big_q, eq) = _reduce(big_p, alg), _reduce(big_q, alg)
    w, ew = _vmul(big_q, v, alg)
    # N(y) = P / x^(p ep) + W / (x^(p (eq + ew)) Delta)
    top = max(ep, eq + ew)
    out = [_list_add(_shift(_mul(u, delta, p), p * (top - ep)), _shift(t, p * (top - eq - ew)), p)
           for u, t in zip_longest(big_p, w, fillvalue=[])]
    return _canon(out, _shift(_mul(delta, den, p), p * top), p)


# ---------------------------------------------------------------------------
# branches

# the length a branch is built at, the first rung of every valuation
_FIRST_RUNG = 8


def _newton_series(field, ycoeffs, sol, prec):
    """Solve P(t, Y) = 0 for the series Y(t) to prec terms.

    ycoeffs maps Y-degree to the t-coefficient list of that coefficient.
    sol holds the known first terms, at least Y(0), and is lengthened in
    place.  Requires dP/dY (0, Y(0)) != 0; doubles precision per step.
    """
    p = field.p

    def ev(table, y, m):
        acc = []
        for k in range(max(table) if table else 0, -1, -1):
            acc = _list_add(_mul(acc, y, p, m), table.get(k, []), p)[:m]
        return acc + [0] * (m - len(acc))

    dcoeffs = {
        k - 1: [c * k % p for c in cs] for k, cs in ycoeffs.items() if k >= 1
    }
    y = list(sol)
    m = len(y)
    steps = 0
    while m < prec:
        m = min(2 * m, prec)
        ycur = (y + [0] * m)[:m]
        g = ev(ycoeffs, ycur, m)
        gp = ev(dcoeffs, ycur, m)
        if gp[0] == 0:
            raise SingularPoint(f"vanishing derivative solving at start {y[0]}")
        corr = _mul(g, _series_inv(gp, m, p), p, m)
        y = [(a - b) % p for a, b in zip(ycur, corr + [0] * m)]
        steps += 1
        if steps > prec.bit_length() + 8:
            raise NewtonStall(f"no convergence at precision {m}")
    final = (y + [0] * prec)[:prec]
    check = ev(ycoeffs, final, prec)
    if any(check):
        raise NewtonStall("expansion fails to satisfy the defining equation")
    sol[:] = final
    return final


def _degree_bound(f) -> int:
    """B(f) >= |v_P(f)| at every place P, for f = N(x, y) / D(x) != 0: the
    poles of x and y have degrees d and deg_x G, those of 1/D degree d deg D."""
    d = f.curve.ext_degree
    gx = max(map(len, f.curve.algebra().m)) - 1
    return d * (max(map(len, f._num)) + len(f._den) - 2) + (d - 1) * gx


class _Place:
    """What both kinds of place share: the one valuation rule."""

    __slots__ = ()

    def valuation_of(self, f) -> int:
        """v(f) of a function f = N / D, read as v(N) - v(D), or of a
        Differential h dx, read as v(h) + v(dx)."""
        if isinstance(f, Differential):
            return self.valuation_of(f.h) + self._dx_valuation()
        f = _on_curve(self.curve, f)
        if f.is_zero:
            raise ZeroElement("valuation of 0")
        return self._valuation(f)


class SeriesBranch(_Place):
    """A rational place with coordinate expansions in a uniformizer t.

    x_series and y_series (None on the line) are known to at least
    O(t^prec).  solve(n) gives them to O(t^n): on the line they are
    exact; elsewhere a Newton solution resumes from its last length.
    """

    __slots__ = ("curve", "key", "point", "uniformizer", "x_series", "y_series", "prec",
                 "_solve")

    weight = 1

    def __init__(self, curve, key, point, uniformizer, solve):
        self.curve, self.key, self.point, self.uniformizer = curve, key, point, uniformizer
        self._solve, self.prec = solve, 0
        self.lengthen(_FIRST_RUNG)

    def lengthen(self, n):
        """Make the coordinate series known to at least O(t^n)."""
        if n > self.prec:
            self.x_series, self.y_series = self._solve(n)
            self.prec = n

    def _coords(self, n):
        """The coordinate series cut to O(t^n); exact monomials stay exact."""
        self.lengthen(n)
        return [s if s is None or s.prec <= n or (s.prec == inf and len(s.coeffs) == 1)
                else s.truncate(n) for s in (self.x_series, self.y_series)]

    def _parts(self, f, n):
        """(N(x(t), y(t)), D(x(t))) for the function f = N / D, from the
        coordinates cut to O(t^n), with the precision the series rules give."""
        field, (xs, ys) = self.curve.field, self._coords(n)
        acc = TruncSeries.zero(field, self.key)
        ypow = TruncSeries.const(field, self.key, 1)
        last = max((k for k, c in enumerate(f._num) if c), default=-1)
        for k, c in enumerate(f._num[: last + 1]):
            if c:
                acc = acc + poly_at_series(UPoly(field, c), xs) * ypow
            if k < last:
                ypow = ypow * ys
        return acc, poly_at_series(UPoly(field, f._den), xs)

    def _series(self, f, n):
        """f (a function or a Differential) from the coordinates cut to
        O(t^n); None while the denominator shows no term."""
        if isinstance(f, Differential):
            s = self._series(f.h, n)
            return None if s is None else s * self._coords(n + 1)[0].derivative()
        num, den = self._parts(f, n)
        return num * den.inverse(prec_hint=n) if den.coeffs else None

    def expand(self, f, prec=None) -> TruncSeries:
        """Laurent expansion of f, a function or a Differential, to exactly
        O(t^prec) (the branch's length by default).  The coordinates are cut
        to n = prec first; n grows by each shortfall of the result."""
        if prec is None:
            prec = self.prec
        if not isinstance(f, Differential):
            f = _on_curve(self.curve, f)
        n = max(prec, 1)
        while (s := self._series(f, n)) is None or s.prec < prec:
            n = 2 * n if s is None else n + prec - s.prec
        return s.truncate(prec) if s.prec > prec else s

    def _valuation(self, f) -> int:
        """v(N) - v(D), from expansions that start at the branch's length
        and double until both show a term.  A truncated series never shows
        a wrong order; f still zero past the degree bound is an error."""
        n, bound = self.prec, _degree_bound(f)
        while True:
            num, den = self._parts(f, n)
            if num.coeffs and den.coeffs:
                return num.ord_low - den.ord_low
            if den.coeffs and num.prec - den.ord_low > bound:
                raise InsufficientPrecision(
                    f"curves: the expansion at place {self.key} is 0 to "
                    f"O(t^{num.prec - den.ord_low}), past the degree bound {bound} on |v|")
            n *= 2

    def _dx_valuation(self) -> int:
        """v(dx/dt); x is no constant, so some rung shows a term."""
        n = self.prec
        while not (s := self._coords(n)[0].derivative()).coeffs:
            n *= 2
        return s.ord_low

    def __repr__(self):
        return f"Branch({self.key}, prec={self.prec})"


class Z0Place(_Place):
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

    def _zval(self, vec) -> int:
        """v(sum_k c_k Z^k) for a nonzero reduced Z-power vector: the terms
        have distinct valuations (q - 1) ord_phi c_k + k, Z having
        valuation 1, so the least of them is the valuation."""
        p, q1, phi = self.curve.p, self.curve.q - 1, self.phi.coeffs
        return min(q1 * _order(c, phi, p)[0] + k for k, c in enumerate(vec) if c)

    def _valuation(self, f) -> int:
        """v(Z^shift G / H) = shift + v(G) - v(H)."""
        if getattr(f, "_xz", None) is None:  # the same at every z = 0 place
            f._xz = xz_components(self.curve, f)
        g, h, shift = f._xz
        return shift + self._zval(g) - self._zval(h)

    def _dx_valuation(self) -> int:
        # dx = (Z^(q-1) - X) Z^(-2) dZ on the curve, dZ a unit at z = 0, and
        # Z^(q-1) - X = X^q - 2X vanishes there only at X = 0, simply
        return self.curve.q - 3 if self.phi.coeffs == (0, 1) else -2

    def __repr__(self):
        return f"Z0Place(phi={list(self.phi.coeffs)}, p={self.curve.p})"


def _w(curve: RaynaudPlane) -> UPoly:
    """w(X) = X^q - X, with Z^(q-1) = w in the chart y = 1."""
    return UPoly(curve.field, [0, -1] + [0] * (curve.q - 2) + [1])


def xz_components(curve: RaynaudPlane, f: FFElem):
    """Rewrite f in the chart y = 1 as (g, h, shift) with f = Z^shift G / H:
    g and h are the Z-power vectors over F_p[X] of the polynomials G and H
    in X and Z, reduced by the radical relation Z^(q-1) = X^q - X = w.

    Uses x = X/Z and y = 1/Z: with M = max(deg N_k + k), G is
    sum_k Z^(M - k) N_k(X/Z), H is Z^(deg D) D(X/Z) and shift = deg D - M.
    """
    q, w = curve.q, _w(curve)
    alg = curve._memo("xzalg", lambda: _Algebra(curve.p, [(-w).coeffs] + [[]] * (q - 2) + [[1]]))
    terms = [(k, c) for k, c in enumerate(f._num) if c]
    top = max((len(c) - 1 + k for k, c in terms), default=0)
    g = [[] for _ in range(top + 1)]
    for k, c in terms:
        for i, a in enumerate(c):  # a x^i y^k = a X^i Z^(M - i - k) / Z^M
            if a:  # one k per (Z, X) exponent pair, so nothing adds up
                row = g[top - i - k]
                row += [0] * (i + 1 - len(row))
                row[i] = a
    dc = f._den
    h = [[0] * i + [a] if a else [] for i, a in reversed(list(enumerate(dc)))]
    return _reduce(g, alg)[0], _reduce(h, alg)[0], len(dc) - 1 - top


def _factor_linear_and_rest(a, p):
    """The rational roots of the coefficient list a != 0 over F_p,
    ascending, with their multiplicities, and the cofactor list free of
    them: ([(root, mult), ...], cofactor).  The one scan of F_p: a root
    shows by evaluation, its multiplicity by exact division."""
    out = []
    for c in range(p):
        if len(a) < 2:
            break
        if not sum(_taylor(a, c, p, 1)):
            m, a = _order(a, (-c % p, 1), p)
            out.append((c, m))
    return out, a


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

    Distinct-degree splitting; the linear part splits by the root scan, the
    equal-degree pieces of degree d >= 2 by seeded Cantor-Zassenhaus,
    deterministic because the RNG seed is fixed.
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
            if d == 1:  # the rational roots, by the one scan of F_p
                factors.extend(UPoly(poly.field, (-a % p, 1))
                               for a, _ in _factor_linear_and_rest(g.coeffs, p)[0])
            else:
                factors.extend(_equal_degree_split(g, d, rng))
            work = work // g
            frob = frob % work
    return factors


def _equal_degree_split(poly: UPoly, d: int, rng) -> list:
    """Cantor-Zassenhaus on a product of irreducibles of the same degree
    d >= 2.  A splitter r cuts a piece by gcd(r^((p^d-1)/2) - 1, piece):
    first the fixed r = X + a for a = 0, 1, ..., p - 1, each piece going on
    from the a that cut it out, then seeded random draws."""
    field, p = poly.field, poly.field.p
    e = (p**d - 1) // 2
    work, out = [(poly.monic(), 0)], []
    while work:
        piece, a = work.pop()
        while piece.degree > d:
            r = UPoly(field, [a, 1] if a < p else [rng.randrange(p) for _ in range(piece.degree)])
            a += 1
            g = (_poly_powmod(r, e, piece) - 1).gcd(piece)
            if 0 < g.degree < piece.degree:
                work.append((g, a))
                piece = piece // g
        out.append(piece)
    return out


def z0_places(curve: RaynaudPlane):
    """All places of the curve on z = 0, one per irreducible factor of
    X^q - X; w' = -1, so w = X^q - X is squarefree."""
    def build():
        places = [Z0Place(curve, f) for f in _factor_squarefree(_w(curve))]
        places.sort(key=lambda pl: (pl.weight, pl.phi.coeffs))
        return places
    return curve._memo("z0_places", build)


def branch_at(curve, point, prec=None) -> SeriesBranch:
    """The curve's one branch at a rational point, lengthened to at least
    prec; it lengthens itself when an expansion asks for more."""
    point = _point(curve, point)
    br = curve._memo(("branch", point), lambda: _branch(curve, point))
    if prec is not None:
        br.lengthen(prec)
    return br


def _branch(curve, point) -> SeriesBranch:
    field = curve.field
    if curve.model == "p1":
        key, name = ("p1", curve.p, point), "1/x" if point == INF else f"x-{point}"
        x = TruncSeries.t_power(field, key, -1) if point == INF else _exact(field, key, point)
        return SeriesBranch(curve, key, point, name, lambda n: (x, None))
    if point != INF:
        return _branch_affine(curve, point)
    if curve.model != "ell":
        raise CurveMismatch(f"no point at infinity in the chart of {curve!r}")
    # t = x/y; x = 1/u with u = t^2 (1 + a u^2 + b u^3)
    key = ("ell", curve.key(), INF)
    table, sol = {0: [0, 0, -1], 1: [1], 2: [0, 0, -curve.a], 3: [0, 0, -curve.b]}, [0]

    def solve(n):
        unit = _newton_series(field, table, sol, n + 5)[2:]
        xs = TruncSeries(field, key, -2, _series_inv(unit, n + 3, curve.p), n + 1)
        return xs, xs * TruncSeries.t_power(field, key, -1)
    return SeriesBranch(curve, key, INF, "x/y", solve)


def _exact(field, key, c):
    """c + t, exactly."""
    return TruncSeries(field, key, 0, (c, 1), inf)


def _branch_affine(curve, point) -> SeriesBranch:
    """The branch at an affine point (x0, y0) of G(x, Y) = 0, G the cleared
    minpoly.  Where dG/dY != 0 the uniformizer is x - x0 and Newton solves
    G(x0 + t, Y) = 0 for Y; else, where dG/dx != 0, it is y - y0 and Newton
    solves G(X, y0 + t) = 0 for X."""
    field, p = curve.field, curve.p
    (x0, y0), m = point, curve.algebra().m
    vals = [sum(_taylor(c, x0, p, 1)) for c in m]
    if sum(v * pow(y0, k, p) for k, v in enumerate(vals)) % p:
        raise ValueError(f"({x0},{y0}) is not on the curve")
    key = (curve.model, curve.key(), point)
    by_x = sum(k * v * pow(y0, k - 1, p) for k, v in enumerate(vals) if k) % p != 0
    if by_x:
        table = {k: _taylor(c, x0, p) for k, c in enumerate(m) if c}
    elif not sum(sum(_taylor(_deriv(c, p), x0, p, 1)) * pow(y0, k, p)
                 for k, c in enumerate(m)) % p:
        raise SingularPoint(f"both partials vanish at ({x0},{y0})")
    else:  # G(X, y0 + t) = sum_i X^i sum_k m_k[i] (y0 + t)^k
        table, power = {}, [1]
        for c in m:
            for i, a in enumerate(c):
                if a:
                    table[i] = _list_add(table.get(i, []), [a * b for b in power], p)
            power = _mul(power, [y0, 1], p)
    sol = [y0 if by_x else x0]

    def solve(n):
        s = TruncSeries(field, key, 0, _newton_series(field, table, sol, n), n)
        return (_exact(field, key, x0), s) if by_x else (s, _exact(field, key, y0))
    return SeriesBranch(curve, key, point, f"x-{x0}" if by_x else f"y-{y0}" if y0 else "y", solve)


def raynaud_p_inf(curve: RaynaudPlane, prec=None) -> SeriesBranch:
    """The distinguished point P_inf = [0:0:1], i.e. (0,0) in the chart z = 1."""
    return branch_at(curve, (0, 0), prec)


# ---------------------------------------------------------------------------
# operations of the public surface

def _on_curve(curve, f) -> FFElem:
    """f as an element of the curve's function field, the one coercion of
    the places: an int, UPoly or RatFunc is lifted, and an element of an
    unequal curve is refused."""
    if not isinstance(f, FFElem):
        return FFElem(curve, (f,))
    if f.curve != curve:
        raise CurveMismatch("element of a different curve")
    return f


def valuation(f, place) -> int:
    """v_place(f) for a function, or of the form h*dx for a Differential."""
    return place.valuation_of(f)


class Differential:
    """A rational differential h*dx in the working chart."""

    __slots__ = ("curve", "h")

    def __init__(self, curve, h):
        self.curve = curve
        self.h = _on_curve(curve, h)

    def __add__(self, other):
        if not isinstance(other, Differential):
            return NotImplemented
        return Differential(self.curve, self.h + other.h)

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
    div = Divisor((place, valuation(omega, place)) for place in candidate_places)
    complete = div.degree() == 2 * omega.curve.genus() - 2
    return div, complete
