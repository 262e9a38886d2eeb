"""Exact arithmetic over a prime field F_p.

Univariate polynomials, reduced rational functions and truncated Laurent
series, together with p-th power detection and formal differentiation.
Everything is an immutable value; field elements themselves are plain ints
in [0, p).

Every product of coefficient lists goes through one kernel, _mul, which cuts
its operands to the wanted number of terms first.  A one-term operand scales
the other; below a product of lengths of _KRONECKER_AT it runs the schoolbook
loop; above, it packs each list into one int with slots wide enough for any
product coefficient (Kronecker substitution) and does one big-int multiply.
Series inverses are Newton iterations on the same kernel.

A fraction has one normal form, _canon, and one storage and implementation,
_Frac: numerator coefficient tuples over one monic denominator tuple,
coprime.  A RatFunc is its one-numerator case and curves.FFElem its vector
case; each rule that needs only x is written once in _Frac.  A UPoly is
built only outside the arithmetic: in the cli's parsing and selftest, in
the num/den views, in every read of curves.SeriesBranch._parts, in the
curves' minpoly, Weierstrass.c_poly, _factor_squarefree and Z0Place.phi,
in connections._omega_frame, and in the omega of moduli.
Exact division, in the Bareiss steps of curves._inverse too, is long
division.  Frobenius acts on coefficient lists by one slice (_spread,
_is_spread), and RatFunc's local reads take the point at infinity, INF,
as a point like any other; they and UPoly.evaluate share one list
helper, _taylor.
"""
from __future__ import annotations

import sys
from array import array
from enum import Enum
from functools import total_ordering
from math import inf

from .errors import InsufficientPrecision, ZeroDenominator, ZeroElement

# the point at infinity of the line, a place like any rational one
INF = "inf"


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin; bases {2,3,5,7} decide every n < 3.2e9."""
    if n < 2:
        return False
    for q in (2, 3, 5, 7):
        if n == q:
            return True
        if n % q == 0:
            return False
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in (2, 3, 5, 7):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class PrimeField:
    """The field with p elements, p an odd prime below 2^31."""

    __slots__ = ("p",)

    def __init__(self, p: int):
        if not isinstance(p, int) or not (3 <= p < (1 << 31)):
            raise ValueError(f"p must be an odd prime in [3, 2^31), got {p!r}")
        if p % 2 == 0 or not is_prime(p):
            raise ValueError(f"p must be an odd prime, got {p}")
        self.p = p

    def inv(self, a: int) -> int:
        a %= self.p
        if a == 0:
            raise ZeroDivisionError("inverse of 0")
        return pow(a, self.p - 2, self.p)

    def __eq__(self, other) -> bool:
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("PrimeField", self.p))

    def __repr__(self):
        return f"F_{self.p}"


@total_ordering
class Degree(Enum):
    """Degree sentinel for the zero polynomial.

    Compares below every integer; arithmetic on it is a TypeError on purpose.
    """

    NEG_INF = "neg_inf"

    def __lt__(self, other):
        if isinstance(other, (int, Degree)):
            return isinstance(other, int)
        return NotImplemented


NEG_INF = Degree.NEG_INF

_KRONECKER_AT = 64
# slot width in bytes -> array typecode, for packing with one C-level pass
_ARRAY = {array(c).itemsize: c for c in "QLIHB"} if sys.byteorder == "little" else {}


def _mul(a, b, p, n=None):
    """a * b over F_p in [0, p), cut to n terms; a and b may be unreduced."""
    if n is not None:
        if n <= 0:
            return []
        a, b = a[:n], b[:n]
    if not a or not b:
        return []
    if len(a) > len(b):
        a, b = b, a
    la, lb = len(a), len(b)
    k = la + lb - 1 if n is None else min(n, la + lb - 1)
    if la == 1:  # b is already cut to n terms
        a0 = a[0]
        return [a0 * c % p for c in b]
    if la * lb < _KRONECKER_AT:
        out = [0] * k
        for i, ai in enumerate(a):
            if ai:
                for j, bj in enumerate(b if i + lb <= k else b[: k - i], i):
                    out[j] += ai * bj
        return [c % p for c in out]
    if min(a) < 0 or min(b) < 0:
        a, b = [c % p for c in a], [c % p for c in b]
    # a slot holds any coefficient of the product: at most la terms of
    # max(a) * max(b); widths are whole powers of two bytes
    bits = max(a).bit_length() + max(b).bit_length() + la.bit_length()
    w = 1 << ((bits - 1) >> 3).bit_length()
    code = _ARRAY.get(w)
    if code:
        pa, pb = array(code, a).tobytes(), array(code, b).tobytes()
    else:
        pa = b"".join(c.to_bytes(w, "little") for c in a)
        pb = b"".join(c.to_bytes(w, "little") for c in b)
    prod = int.from_bytes(pa, "little") * int.from_bytes(pb, "little")
    buf = memoryview(prod.to_bytes((la + lb - 1) * w, "little"))[: k * w]
    if code:
        return [c % p for c in buf.cast(code).tolist()]
    return [int.from_bytes(buf[i : i + w], "little") % p for i in range(0, k * w, w)]


def _pow(a, n, p):
    """a^n over F_p by squaring, high bit first."""
    out = [1]
    for bit in bin(n)[2:]:
        out = _mul(out, out, p)
        out = _mul(out, a, p) if bit == "1" else out
    return out


class _Ring:
    """Subtraction and integer powers from +, unary -, * and _coerce."""

    __slots__ = ()

    def __sub__(self, other):
        o = self._coerce(other)
        return NotImplemented if o is None else self + (-o)

    def __rsub__(self, other):
        o = self._coerce(other)
        return NotImplemented if o is None else o + (-self)

    def __pow__(self, n: int):
        if n < 0:
            return self.inverse() ** (-n)
        result, base = self._coerce(1), self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result


class UPoly(_Ring):
    """Dense univariate polynomial over F_p, coefficients ascending."""

    __slots__ = ("field", "coeffs")

    def __init__(self, field: PrimeField, coeffs):
        p = field.p
        cs = [int(c) % p for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.field = field
        self.coeffs = tuple(cs)

    @classmethod
    def zero(cls, field):
        return cls(field, ())

    @classmethod
    def one(cls, field):
        return cls(field, (1,))

    @classmethod
    def const(cls, field, c):
        return cls(field, (c,))

    @classmethod
    def x(cls, field):
        return cls(field, (0, 1))

    @classmethod
    def monomial(cls, field, n: int, c: int = 1):
        return cls(field, (0,) * n + (c,))

    @property
    def degree(self):
        return len(self.coeffs) - 1 if self.coeffs else NEG_INF

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def lc(self) -> int:
        if not self.coeffs:
            raise ZeroElement("leading coefficient of the zero polynomial")
        return self.coeffs[-1]

    def coeff(self, n: int) -> int:
        if 0 <= n < len(self.coeffs):
            return self.coeffs[n]
        return 0

    def monic(self) -> "UPoly":
        if self.is_zero or self.coeffs[-1] == 1:
            return self
        c = self.field.inv(self.coeffs[-1])
        return UPoly(self.field, [a * c for a in self.coeffs])

    def _coerce(self, other):
        if isinstance(other, UPoly):
            if other.field != self.field:
                raise ValueError("mixed fields")
            return other
        if isinstance(other, int):
            return UPoly(self.field, (other,))
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return UPoly(self.field, _list_add(self.coeffs, o.coeffs, self.field.p))

    __radd__ = __add__

    def __neg__(self):
        return UPoly(self.field, [-c for c in self.coeffs])

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return UPoly(self.field, _mul(self.coeffs, o.coeffs, self.field.p))

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative power of a polynomial")
        return _Ring.__pow__(self, n)

    def __divmod__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if o.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        quo, rem = _divmod(self.coeffs, o.coeffs, self.field.p)
        return UPoly(self.field, quo), UPoly(self.field, rem)

    def __floordiv__(self, other):
        return divmod(self, other)[0]

    def __mod__(self, other):
        return divmod(self, other)[1]

    def gcd(self, other: "UPoly") -> "UPoly":
        return UPoly(self.field, _gcd(self.coeffs, self._coerce(other).coeffs, self.field.p))

    def derivative(self) -> "UPoly":
        return UPoly(self.field, _deriv(self.coeffs, self.field.p))

    def evaluate(self, a: int) -> int:
        return sum(_taylor(self.coeffs, a, self.field.p, 1))

    def pth_power(self) -> "UPoly":
        """self**p via the Frobenius coefficient spread (c^p = c in F_p)."""
        return UPoly(self.field, _spread(self.coeffs, self.field.p))

    def pth_root(self):
        """Inverse of pth_power when it exists, else None."""
        p = self.field.p
        return UPoly(self.field, self.coeffs[::p]) if _is_spread(self.coeffs, p) else None

    def render(self) -> str:
        return _render(self.coeffs)

    def __eq__(self, other):
        if isinstance(other, int):
            other = UPoly(self.field, (other,))
        if not isinstance(other, UPoly):
            return NotImplemented  # RatFunc and FFElem compare themselves
        return other.field == self.field and other.coeffs == self.coeffs

    def __hash__(self):
        return hash((self.field.p, self.coeffs))

    def __repr__(self):
        return f"UPoly(p={self.field.p}, {list(self.coeffs)})"


def _series_inv(u, count, p):
    """Inverse of the unit power series u (u[0] != 0) mod t^count.

    Newton iteration y <- y * (2 - u * y): with h terms right, u * y is
    1 + t^h * e mod t^2h, so the next h terms are those of -y * e.
    """
    y = [pow(u[0], p - 2, p)]
    while len(y) < count:
        h = len(y)
        m = min(2 * h, count)
        corr = _mul(y, _mul(u, y, p, m)[h:], p, m - h)
        y += [-c % p for c in corr] + [0] * (m - h - len(corr))
    return y


def _divmod(a, b, p):
    """(quotient, remainder) of coefficient lists over F_p; b[-1] != 0."""
    db, r = len(b) - 1, list(a)
    quo = [0] * max(0, len(r) - db)
    inv, low = pow(b[-1], p - 2, p), b[:-1]
    for i in range(len(r) - 1, db - 1, -1):
        c = r[i] % p
        if c:
            q = quo[i - db] = c * inv % p
            r[i - db : i] = [u - q * v for u, v in zip(r[i - db : i], low)]
    return quo, _trim([c % p for c in r[:db]])


def _order(a, b, p):
    """(m, a / b^m) for the largest m with b^m | a: how often the
    coefficient list b of degree >= 1 divides a != 0 over F_p, by exact
    division until a remainder shows."""
    if not a:
        raise ZeroElement("valuation of 0")
    m = 0
    while True:
        quo, rem = _divmod(a, b, p)
        if rem:
            return m, a
        m, a = m + 1, quo


def _gcd(a, b, p):
    """Monic gcd of two coefficient lists over F_p, by Euclid."""
    a, b = _trim(list(a)), _trim(list(b))
    while b:
        a, b = b, _divmod(a, b, p)[1]
    if not a or a[-1] == 1:
        return a
    inv = pow(a[-1], p - 2, p)
    return [c * inv % p for c in a]


def _div_exact(a, b, p):
    """a / b over F_p when b divides a, by long division."""
    if len(a) < len(b):
        return []
    if len(b) == 1:
        c = pow(b[0], p - 2, p)
        return [v * c % p for v in a]
    return _divmod(a, b, p)[0]


def _trim(a):
    if a and not a[-1]:  # the zero tail goes in one deletion, in place
        k = len(a) - 1
        while k and not a[k - 1]:
            k -= 1
        del a[k:]
    return a


def _shift(a, n):
    """x^n * a."""
    return [0] * n + list(a) if a and n else list(a)


def _spread(a, p):
    """The Frobenius spread a(x^p): coefficient i moves to p i."""
    out = [0] * (p * len(a) - p + 1)
    out[::p] = a
    return out


def _is_spread(a, p):
    """Whether a = b(x^p), b = a[::p]: every slice a[r::p], 0 < r < p, is 0."""
    return not any(any(a[r::p]) for r in range(1, min(p, len(a))))


def _list_add(a, b, p):
    if len(a) < len(b):
        a, b = b, a
    return _trim([(u + v) % p for u, v in zip(a, b)] + [c % p for c in a[len(b):]])


def _deriv(a, p):
    return _trim([i * c % p for i, c in enumerate(a)][1:])


def _taylor(a, c, p, n=None):
    """The first n coefficients (all by default) of a(x + c), so [a(c)] at
    n = 1, by one pass that only accumulates: coefficient i is the remainder
    of the i-th synthetic division by x - c, pass i dividing cs[i:]."""
    c %= p
    if n == 1:
        acc = 0
        for v in reversed(a) if c else a[:1]:
            acc = (acc * c + v) % p
        return [acc]
    cs = list(a)
    if c:
        for i in range(min(n or len(cs), len(cs))):
            acc = 0
            for j in range(len(cs) - 1, i - 1, -1):
                acc = cs[j] = (cs[j] + c * acc) % p
    return cs[:n]


def _canon(num, den, p, coprime=False):
    """(numerators, den) with den monic and gcd(den, numerators) = 1.

    The one normal form of a fraction: a RatFunc is the case of one
    numerator.  The power of x in den cancels by valuations; the rest takes
    one gcd chain, shortest numerator first, stopped at the first constant
    gcd.  coprime=True promises gcd 1 and only makes den monic.
    """
    num = [list(c) for c in num]
    nz = [c for c in num if c]
    if not nz:
        return [[] for _ in num], [1]
    if not coprime:
        v = min(next(i for i, c in enumerate(e) if c) for e in nz + [den])
        den, num = den[v:], [c[v:] for c in num]
        g = den if any(den[:-1]) else [1]  # a monomial den is coprime by now
        for c in sorted(nz, key=len):
            if len(g) == 1:
                break
            g = _gcd(g, c[v:], p)
        if len(g) > 1:
            den, num = _div_exact(den, g, p), [_div_exact(c, g, p) for c in num]
    inv = pow(den[-1], p - 2, p)
    return [[c * inv % p for c in e] for e in num], [c * inv % p for c in den]


class _Frac(_Ring):
    """The one fraction: numerator coefficient tuples _num over one monic
    denominator tuple _den, coprime (_canon's normal form), over field.

    A RatFunc has one numerator; a curves.FFElem has one per power of y,
    and a y-part when a numerator past the first is nonzero.  Each rule
    that needs only x is stated here once.  A subclass gives _home (its
    field, or its curve), _set(home, num, den) and _coerce; FFElem adds the
    y-parts: _nmul, _vinv, _dchain, _zhorner and _zvec.
    """

    __slots__ = ("field", "_num", "_den")

    @classmethod
    def _make(cls, home, num, den, coprime=False):
        """num / den on home from integral data, brought to normal form."""
        self = object.__new__(cls)
        self._set(home, *_canon(num, den, home.p, coprime))
        return self

    def _like(self, num, den, coprime=False):
        return self._make(self._home, num, den, coprime)

    @property
    def is_zero(self) -> bool:
        return not any(self._num)

    def __add__(self, other):
        """No gcd is owed when a denominator is 1: gcd(a, u b + v a) =
        gcd(a, u) = 1 when b = 1, and symmetrically."""
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        p, (u, a), (v, b) = self.field.p, (self._num, self._den), (o._num, o._den)
        if a == b:
            num, den = [_list_add(s, t, p) for s, t in zip(u, v)], a
        else:
            num = [_list_add(_mul(s, b, p), _mul(t, a, p), p) for s, t in zip(u, v)]
            den = _mul(a, b, p)
        return self._like(num, den, 1 in (len(a), len(b)))

    __radd__ = __add__

    def __neg__(self):
        p = self.field.p
        return self._like([[-c % p for c in e] for e in self._num], self._den, True)

    def __mul__(self, other):
        """An int scales the numerators and keeps the pair coprime; else the
        numerators multiply through _nmul, which also gives the power of x
        the product's den takes, and _canon takes the gcd."""
        p = self.field.p
        if isinstance(other, int):
            k = other % p
            return self._like([[c * k % p for c in u] if k else [] for u in self._num],
                              self._den, True)
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        num, shift = self._nmul(self._num, o._num)
        return self._like(num, _shift(_mul(self._den, o._den, p), shift))

    __rmul__ = __mul__

    def _nmul(self, a, b):
        """(a * b, shift) for numerator vectors; one numerator, one product."""
        return [_mul(a[0], b[0], self.field.p)], 0

    def inverse(self):
        """1 / self: without a y-part the swap den / num, already coprime,
        so only the new den is made monic; with one, _vinv's solve."""
        if self.is_zero:
            raise ZeroDenominator("inverse of zero function")
        if any(self._num[1:]):
            v, det = self._vinv()
            return self._like([_mul(c, self._den, self.field.p) for c in v], det)
        return self._like([self._den], self._num[0], True)

    def __truediv__(self, other):
        o = self._coerce(other)
        return NotImplemented if o is None else self * o.inverse()

    def __rtruediv__(self, other):
        o = self._coerce(other)
        return NotImplemented if o is None else o * self.inverse()

    def derivative(self):
        """d/dx: (N' D - N D') / D^2 for every numerator N, plus, with a
        y-part, _dchain's term for the derivative of y."""
        p, den = self.field.p, self._den
        dd = _deriv(den, p)
        quo = ([_list_add(_mul(_deriv(u, p), den, p), [-c for c in _mul(u, dd, p)], p)
                for u in self._num], _mul(den, den, p))
        return self._like(*(self._dchain(*quo) if any(self._num[1:]) else quo))

    def dlog(self):
        if self.is_zero:
            raise ZeroElement("dlog of 0")
        return self.derivative() / self

    def pth_power(self):
        """self**p: Frobenius spreads each coefficient list and keeps the
        pair coprime; a y-part is put back together by _zhorner."""
        p = self.field.p
        num, den = [_spread(u, p) for u in self._num], _spread(self._den, p)
        if any(self._num[1:]):
            return self._like(*self._zhorner(num, den))
        return self._like(num, den, True)

    def pth_root(self):
        """g with g^p = self, or None when self is not a p-th power: in
        canonical form, when the denominator or a numerator over z = y^p
        (_zvec) is not a p-th power in F_p[x]."""
        p = self.field.p
        s, e = self._zvec() if any(self._num[1:]) else (self._num, self._den)
        if not all(_is_spread(u, p) for u in [*s, e]):
            return None
        return self._like([u[::p] for u in s], e[::p], True)


def _render(a):
    return " ".join(map(str, a)) or "0"


class RatFunc(_Frac):
    """Reduced rational function num/den over F_p; den monic, gcd 1.

    The one-numerator case of _Frac.  The constructor takes UPolys; num and
    den give them back as read-only UPoly views.  The local reads work at
    every rational place, the point at infinity INF included.
    """

    __slots__ = ()

    def __init__(self, field: PrimeField, num: UPoly, den: UPoly | None = None):
        for f in (num.field, field if den is None else den.field):
            if f is not field and f != field:
                raise ValueError("mixed fields")
        den = (1,) if den is None else den.coeffs
        if den == (1,):  # a polynomial is in normal form
            return self._set(field, (num.coeffs,), den)
        if not den:
            raise ZeroDenominator("rational function with zero denominator")
        self._set(field, *_canon([num.coeffs], den, field.p))

    def _set(self, field, num, den):
        self.field, self._num, self._den = field, (tuple(num[0]),), tuple(den)

    _home = property(lambda self: self.field)
    num = property(lambda self: UPoly(self.field, self._num[0]))
    den = property(lambda self: UPoly(self.field, self._den))

    @classmethod
    def from_poly(cls, poly: UPoly):
        return cls(poly.field, poly)

    @classmethod
    def const(cls, field, c: int):
        return cls._make(field, [_trim([c % field.p])], [1], True)

    @classmethod
    def zero(cls, field):
        return cls.const(field, 0)

    @classmethod
    def one(cls, field):
        return cls.const(field, 1)

    @classmethod
    def x(cls, field):
        return cls._make(field, [[0, 1]], [1], True)

    def _coerce(self, other):
        if isinstance(other, RatFunc):
            if other.field != self.field:
                raise ValueError("mixed fields")
            return other
        if isinstance(other, UPoly):
            return RatFunc(self.field, other)
        if isinstance(other, int):
            return RatFunc.const(self.field, other)
        return None

    def evaluate(self, a: int) -> int:
        p = self.field.p
        d = sum(_taylor(self._den, a, p, 1))
        if d == 0:
            raise ZeroDenominator(f"pole at x = {a}")
        return sum(_taylor(self._num[0], a, p, 1)) * pow(d, p - 2, p) % p

    def valuation_at(self, a) -> int:
        """Order of vanishing at x = a, a = INF included."""
        if self.is_zero:
            raise ZeroElement("valuation of 0")
        (num,), den, p = self._num, self._den, self.field.p
        if a == INF:
            return len(den) - len(num)
        return _order(num, (-a % p, 1), p)[0] - _order(den, (-a % p, 1), p)[0]

    def series_at(self, a, prec) -> "TruncSeries":
        """Laurent expansion in t = x - a, or t = 1/x at a = INF, with
        coefficients on [ord, prec).  At INF, num/den is
        t^deg(den) rev(num) / (t^deg(num) rev(den))."""
        center = ("inf",) if a == INF else ("aff", a)
        if self.is_zero:
            return TruncSeries(self.field, center, prec, (), prec)
        p, (num,), den = self.field.p, self._num, self._den
        if a == INF:
            n, d = _shift(num[::-1], len(den) - 1), _shift(den[::-1], len(num) - 1)
        else:
            n, d = _taylor(num, a, p), _taylor(den, a, p)
        k = next(i for i, c in enumerate(n) if c)
        m = next(i for i, c in enumerate(d) if c)
        ord_low = k - m
        count = prec - ord_low
        if count <= 0:
            return TruncSeries(self.field, center, prec, (), prec)
        inv = _series_inv(d[m:], count, p)
        cs = _mul(n[k:], inv, p, count)
        return TruncSeries(self.field, center, ord_low, cs, prec)

    def series_at_infinity(self, prec) -> "TruncSeries":
        return self.series_at(INF, prec)

    def residue_at(self, a) -> int:
        """Residue of self * dx at x = a, a = INF included (there
        dx = -dt/t^2 in t = 1/x).

        0 away from the poles; num(a)/den'(a) at a simple finite pole and
        -lc(num) at a simple pole at INF (den is monic); only a pole of
        order >= 2 takes the Laurent expansion.
        """
        if self.is_zero:
            return 0
        p, (num,), den = self.field.p, self._num, self._den
        if a == INF:
            gap = len(den) - len(num)
            if gap > 1:
                return 0
            lead = num[-1] if gap == 1 else self.series_at(INF, 2).coeff(1)
            return -lead % p
        if sum(_taylor(den, a, p, 1)):
            return 0
        dd = sum(_taylor(_deriv(den, p), a, p, 1))
        if dd:
            return sum(_taylor(num, a, p, 1)) * pow(dd, p - 2, p) % p
        return self.series_at(a, 0).coeff(-1)

    def residue_at_infinity(self) -> int:
        return self.residue_at(INF)

    def render(self) -> str:
        return f"{_render(self._num[0])} / {_render(self._den)}"

    def __eq__(self, other):
        if isinstance(other, (RatFunc, UPoly)) and other.field != self.field:
            return False  # arithmetic refuses mixed fields; equality says no
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o._num == self._num and o._den == self._den

    def __hash__(self):
        if self._den == (1,):  # as the UPoly it equals
            return hash((self.field.p, self._num[0]))
        return hash((self.field.p, self._num[0], self._den))

    def __repr__(self):
        return f"RatFunc({self.render()}, p={self.field.p})"


class TruncSeries(_Ring):
    """Truncated Laurent series in a local parameter t at a tagged center.

    Coefficients are known for exponents in [ord_low, prec); the stored tuple
    covers [ord_low, ord_low + len(coeffs)) and the remaining known window is
    zero.  prec may be math.inf for exact elements (constants, polynomials in
    t).  The zero-to-known-precision series stores ord_low == prec and an
    empty tuple.
    """

    __slots__ = ("field", "center", "ord_low", "coeffs", "prec")

    def __init__(self, field, center, ord_low, coeffs, prec):
        p = field.p
        cs = [int(c) % p for c in coeffs]
        if prec != inf:
            prec = int(prec)
            cs = cs[: max(0, prec - ord_low)]
        lead = 0
        while lead < len(cs) and cs[lead] == 0:
            lead += 1
        cs = cs[lead:]
        ord_low += lead
        while cs and cs[-1] == 0:
            cs.pop()
        if not cs:
            ord_low = prec
        self.field = field
        self.center = center
        self.ord_low = ord_low
        self.coeffs = tuple(cs)
        self.prec = prec

    @classmethod
    def zero(cls, field, center, prec=inf):
        return cls(field, center, prec, (), prec)

    @classmethod
    def const(cls, field, center, c: int):
        return cls(field, center, 0, (c,), inf)

    @classmethod
    def t_power(cls, field, center, n: int, c: int = 1):
        return cls(field, center, n, (c,), inf)

    @property
    def is_zero_to_prec(self) -> bool:
        return not self.coeffs

    def valuation(self) -> int:
        if not self.coeffs:
            raise InsufficientPrecision(
                f"series is 0 to O(t^{self.prec}); valuation undecidable"
            )
        return self.ord_low

    def coeff(self, n: int) -> int:
        if n >= self.prec:
            raise InsufficientPrecision(
                f"coefficient at t^{n} beyond precision O(t^{self.prec})"
            )
        if not self.coeffs or n < self.ord_low:
            return 0
        i = n - self.ord_low
        if i < len(self.coeffs):
            return self.coeffs[i]
        return 0

    def _check(self, other):
        if other.field != self.field or other.center != self.center:
            raise ValueError("series at different centers")

    def _coerce(self, other):
        if isinstance(other, TruncSeries):
            self._check(other)
            return other
        if isinstance(other, int):
            return TruncSeries.const(self.field, self.center, other)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        prec = min(self.prec, o.prec)
        if not self.coeffs and not o.coeffs:
            return TruncSeries(self.field, self.center, prec, (), prec)
        parts = [s for s in (self, o) if s.coeffs]
        lo = min(s.ord_low for s in parts)
        hi = max(s.ord_low + len(s.coeffs) for s in parts)
        out = [0] * (hi - lo)
        for s in parts:
            for i, c in enumerate(s.coeffs):
                out[s.ord_low - lo + i] += c
        return TruncSeries(self.field, self.center, lo, out, prec)

    __radd__ = __add__

    def __neg__(self):
        return TruncSeries(
            self.field, self.center, self.ord_low,
            [-c for c in self.coeffs], self.prec,
        )

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        prec = min(self.prec + o.ord_low, o.prec + self.ord_low)
        if not self.coeffs or not o.coeffs:
            return TruncSeries(self.field, self.center, prec, (), prec)
        ord_low = self.ord_low + o.ord_low
        n = None if prec == inf else prec - ord_low
        out = _mul(self.coeffs, o.coeffs, self.field.p, n)
        return TruncSeries(self.field, self.center, ord_low, out, prec)

    __rmul__ = __mul__

    def inverse(self, prec_hint=None) -> "TruncSeries":
        """1/self.  Exact inputs need prec_hint unless they are monomials."""
        if not self.coeffs:
            raise InsufficientPrecision("inverse of a series with no visible term")
        v = self.ord_low
        if self.prec == inf:
            if len(self.coeffs) == 1:
                c = self.field.inv(self.coeffs[0])
                return TruncSeries(self.field, self.center, -v, (c,), inf)
            if prec_hint is None:
                raise ValueError("inverse of an exact non-monomial needs prec_hint")
            count = prec_hint + v
        else:
            count = self.prec - v
        count = max(count, 1)
        inv = _series_inv(self.coeffs, count, self.field.p)
        return TruncSeries(self.field, self.center, -v, inv, count - v)

    def derivative(self) -> "TruncSeries":
        """d/dt, one coefficient of precision lost."""
        prec = self.prec if self.prec == inf else self.prec - 1
        out = [(self.ord_low + i) * c for i, c in enumerate(self.coeffs)]
        return TruncSeries(self.field, self.center, self.ord_low - 1, out, prec)

    def truncate(self, prec) -> "TruncSeries":
        if prec > self.prec:
            raise InsufficientPrecision("cannot extend a series by truncation")
        return TruncSeries(self.field, self.center, self.ord_low, self.coeffs, prec)

    def __eq__(self, other):
        if not isinstance(other, TruncSeries):
            return NotImplemented
        return (
            other.field == self.field
            and other.center == self.center
            and other.ord_low == self.ord_low
            and other.coeffs == self.coeffs
            and other.prec == self.prec
        )

    def __hash__(self):
        return hash((self.field.p, self.center, self.ord_low, self.coeffs, self.prec))

    def __repr__(self):
        return (
            f"Series(center={self.center}, ord={self.ord_low}, "
            f"coeffs={list(self.coeffs)}, prec={self.prec})"
        )


def poly_at_series(poly: UPoly, s: TruncSeries) -> TruncSeries:
    """Evaluate a polynomial at a series by Horner; precision via min-rules.

    The accumulator t^lo * cs + O(t^prec) is a list in TruncSeries normal
    form, and each step acc * s + c follows the TruncSeries rules.  Only the
    terms the result keeps are read: an exact monomial s = c t^k spreads the
    coefficients, sum a_i c^i t^(k i); and at s = s0 + O(t) known to O(t^n),
    (s - s0)^n = O(t^n), so N(s) = (N mod (x - s0)^n)(s) + O(t^n).
    """
    p, coeffs, cut = poly.field.p, poly.coeffs, inf
    sl, sc, sp = s.ord_low, s.coeffs, s.prec
    if sp == inf and len(sc) == 1 and sl:
        lo = min(0, sl * (len(coeffs) - 1))
        out = [0] * (abs(sl) * len(coeffs))
        for i, a in enumerate(coeffs):
            out[sl * i - lo] = a * pow(sc[0], i, p)
        return TruncSeries(poly.field, s.center, lo, out, inf)
    if sl == 0 and sc and len(coeffs) > sp:
        mod = UPoly(poly.field, [-sc[0], 1]) ** sp
        coeffs, cut = _divmod(coeffs, mod.coeffs, p)[1], sp
    lo = prec = inf
    cs = []
    for c in reversed(coeffs):
        prec = min(prec + sl, sp + lo)
        lo += sl
        cs = _mul(cs, sc, p, None if prec == inf else prec - lo)
        if c and prec > 0:
            if not cs:
                lo = 0
            elif lo > 0:
                cs[:0] = [0] * lo
                lo = 0
            cs += [0] * (1 - lo - len(cs))
            cs[-lo] = (cs[-lo] + c) % p
        while cs and not cs[-1]:
            cs.pop()
        if cs and not cs[0]:  # t^0 cancelled the leading term
            lead = next(i for i, a in enumerate(cs) if a)
            cs, lo = cs[lead:], lo + lead
        if not cs:
            lo = prec
    return TruncSeries(poly.field, s.center, lo, cs, min(prec, cut))

