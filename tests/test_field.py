"""Exact rational function arithmetic over small prime fields."""
from __future__ import annotations

import operator
import random
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dormant import field as field_module
from dormant.errors import InsufficientPrecision, ZeroDenominator, ZeroElement
from dormant.field import (
    INF,
    PrimeField,
    RatFunc,
    TruncSeries,
    UPoly,
    _deriv,
    _is_spread,
    _laurent,
    _list_add,
    _mul,
    _order,
    _pow,
    _series_inv,
    _spread,
    _taylor,
    poly_at_series,
)

F3 = PrimeField(3)
F5 = PrimeField(5)
F7 = PrimeField(7)
FIELDS = [F3, F5, F7]


def ratx(field):
    """x as a RatFunc over field."""
    return RatFunc(field, UPoly(field, (0, 1)))


def rand_poly(rng, field, deg):
    return UPoly(field, [rng.randrange(field.p) for _ in range(deg + 1)])


def rand_ratfunc(rng, field, deg=4):
    num = rand_poly(rng, field, rng.randrange(deg + 1))
    den = UPoly(field, ())
    while den.is_zero:
        den = rand_poly(rng, field, rng.randrange(deg + 1))
    return RatFunc(field, num, den)


class TestPrimeField:
    def test_rejects_composite(self):
        with pytest.raises(ValueError):
            PrimeField(9)

    def test_rejects_two(self):
        with pytest.raises(ValueError):
            PrimeField(2)

    def test_large_prime_accepted(self):
        f = PrimeField(2147483647)
        assert f.inv(2) == (2147483647 + 1) // 2

    def test_inverse(self):
        for field in FIELDS:
            for a in range(1, field.p):
                assert a * field.inv(a) % field.p == 1


def ev(coeffs, a, p):
    """The value of a coefficient list at a, term by term."""
    return sum(c * pow(a, i, p) for i, c in enumerate(coeffs)) % p


class TestUPoly:
    """The list kernels behind every polynomial, and the UPoly input type."""

    def test_mul_matches_schoolbook_past_karatsuba_cutoff(self):
        rng = random.Random(0)
        for field in (F3, F7):
            a = rand_poly(rng, field, 150)
            b = rand_poly(rng, field, 131)
            prod = a * b
            # convolution done directly
            ref = [0] * (151 + 132 - 1)
            for i, ca in enumerate(a.coeffs):
                for j, cb in enumerate(b.coeffs):
                    ref[i + j] += ca * cb
            assert prod == UPoly(field, ref)

    def test_divmod_roundtrip(self):
        rng = random.Random(0)
        for field in FIELDS:
            for _ in range(40):
                a = rand_poly(rng, field, rng.randrange(9))
                b = UPoly(field, ())
                while b.is_zero:
                    b = rand_poly(rng, field, rng.randrange(5))
                q, r = divmod(a, b)
                assert q * b + r == a
                assert len(r.coeffs) < len(b.coeffs)

    def test_derivative_of_pth_power_vanishes(self):
        rng = random.Random(1)
        for field in FIELDS:
            p = field.p
            assert _deriv(_pow([0, 1], p, p), p) == []
            f = rand_poly(rng, field, 6).coeffs
            assert _deriv(_spread(f, p), p) == []

    def test_leibniz(self):
        rng = random.Random(0)
        for field in FIELDS:
            p = field.p
            for _ in range(100):
                a = rand_poly(rng, field, rng.randrange(7)).coeffs
                b = rand_poly(rng, field, rng.randrange(7)).coeffs
                lhs = _deriv(_mul(a, b, p), p)
                rhs = _list_add(_mul(_deriv(a, p), b, p), _mul(a, _deriv(b, p), p), p)
                assert lhs == rhs

    def test_pth_root_examples(self):
        # x^3, x, and x^6 + x^3 + 1 = (x^2 + x + 1)^3 over F_3
        assert _is_spread([0, 0, 0, 1], 3) and [0, 0, 0, 1][::3] == [0, 1]
        assert not _is_spread([0, 1], 3)
        f = [1, 0, 0, 1, 0, 0, 1]
        assert _is_spread(f, 3) and _spread(f[::3], 3) == f
        assert _pow(f[::3], 3, 3) == f

    def test_pth_root_iff_derivative_zero_univariate(self):
        # over F_p(x) itself d f = 0 forces f in F_p[x^p]
        rng = random.Random(0)
        for field in FIELDS:
            p = field.p
            for _ in range(60):
                f = list(rand_poly(rng, field, rng.randrange(10)).coeffs)
                if rng.random() < 0.3:
                    f = _spread(f, p)
                assert (not _deriv(f, p)) == _is_spread(f, p)
                if _is_spread(f, p):
                    assert _pow(f[::p], p, p) == f

    def test_gcd_monic(self):
        x = UPoly(F5, (0, 1))
        g = ((x + 1) * (x + 2) * 3).gcd((x + 1) * (x + 3) * 2)
        assert g == x + 1

    def test_taylor_shift(self):
        rng = random.Random(2)
        for field in FIELDS:
            p = field.p
            f = rand_poly(rng, field, 6).coeffs
            a = rng.randrange(p)
            shifted = _taylor(f, a, p)
            for t in range(p):
                assert ev(shifted, t, p) == ev(f, (a + t) % p, p)
                assert _taylor(f, t, p, 1) == [ev(f, t, p)]

    @settings(max_examples=200, deadline=None)
    @given(p=st.sampled_from([3, 5, 7, 101]), data=st.data())
    def test_valuation_at_matches_the_taylor_shift(self, p, data):
        # the old definition: the index of the first nonzero coefficient of
        # f(x + b); f carries a planted root a of multiplicity m
        field = PrimeField(p)
        a, m = data.draw(st.integers(0, p - 1)), data.draw(st.integers(0, 6))
        cof = UPoly(field, data.draw(st.lists(st.integers(0, p - 1), min_size=1, max_size=6)))
        f = (cof if not cof.is_zero else UPoly(field, (1,))) * UPoly(field, (-a, 1)) ** m
        r = RatFunc(field, f)
        for b in (a, a + p, data.draw(st.integers(-2 * p, 2 * p))):
            shifted = _taylor(f.coeffs, b, p)
            assert r.valuation_at(b) == next(i for i, c in enumerate(shifted) if c)
        assert r.valuation_at(a) >= m


def residue(r, c):
    """The residue of r dx at c, INF included, from _laurent: the
    coefficient of t^-1 at a finite c, and minus that of t^1 at INF, where
    dx = -dt/t^2 in t = 1/x."""
    num, den, p = r.num.coeffs, r.den.coeffs, r.field.p
    e = 1 if c == INF else -1
    cs = _laurent(num, den, c, e + 1, p)[1] if num else []
    top = cs[-1] if cs else 0
    return -top % p if c == INF else top


def naive_laurent(num, den, c, prec, p):
    """_laurent's (v, cs) by the textbook route: the shift to c by the
    binomial theorem (the reversal at INF), then division term by term."""
    if c == INF:
        a, b, v = list(num[::-1]), list(den[::-1]), len(den) - len(num)
    else:
        a, b = ([sum(u * comb(i, j) * pow(c, i - j, p) for i, u in enumerate(f) if i >= j) % p
                 for j in range(len(f))] for f in (num, den))
        k, m = (next(i for i, u in enumerate(f) if u) for f in (a, b))
        a, b, v = a[k:], b[m:], k - m
    n = max(prec - v, 0)
    a, inv, cs = a + [0] * n, pow(b[0], p - 2, p), []
    for i in range(n):
        cs.append((a[i] - sum(cs[j] * b[i - j] for j in range(i) if i - j < len(b))) * inv % p)
    return v, cs


class TestRatFunc:
    def test_normalize_cancels_common_factor(self):
        x = UPoly(F5, (0, 1))
        r = RatFunc(F5, x**2 - 1, x - 1)
        assert r.num == x + 1
        assert r.den == UPoly(F5, (1,))

    def test_normalize_zero_numerator(self):
        x = UPoly(F5, (0, 1))
        r = RatFunc(F5, UPoly(F5, ()), x**3)
        assert r.is_zero
        assert r.den == UPoly(F5, (1,))

    def test_normalize_monic_denominator(self):
        x = UPoly(F7, (0, 1))
        r = RatFunc(F7, 2 * x, UPoly(F7, (4,)))
        assert r.num == 4 * x
        assert r.den == UPoly(F7, (1,))

    def test_zero_denominator_rejected(self):
        with pytest.raises(ZeroDenominator):
            RatFunc(F5, UPoly(F5, (1,)), UPoly(F5, ()))

    def test_canonical_form_unique(self):
        rng = random.Random(0)
        for field in FIELDS:
            for _ in range(50):
                r = rand_ratfunc(rng, field)
                h = UPoly(field, ())
                while h.is_zero:
                    h = rand_poly(rng, field, rng.randrange(4))
                blown = RatFunc(field, r.num * h, r.den * h)
                assert blown.num == r.num and blown.den == r.den

    def test_derivative_examples(self):
        x = ratx(F5)
        assert (x**5).derivative().is_zero
        d = (1 / x).derivative()
        assert d == -(x**-2)

    def test_quotient_rule(self):
        rng = random.Random(0)
        for _ in range(40):
            f = rand_ratfunc(rng, F3)
            g = rand_ratfunc(rng, F3)
            if g.is_zero:
                continue
            lhs = (f / g).derivative()
            rhs = (f.derivative() * g - f * g.derivative()) / (g * g)
            assert lhs == rhs

    def test_pth_root(self):
        x = ratx(F3)
        assert (x**3).pth_root() == x
        assert x.pth_root() is None
        r = (x**3 + 1) / (x**6)
        # x^3 + 1 = (x + 1)^3 over F_3
        assert r.pth_root() == (x + 1) / (x**2)

    def test_derivative_zero_iff_pth_power(self):
        rng = random.Random(3)
        for field in FIELDS:
            for _ in range(60):
                r = rand_ratfunc(rng, field)
                if r.is_zero:
                    continue
                if r.derivative().is_zero:
                    assert r.pth_root() is not None
                else:
                    assert r.pth_root() is None

    def test_evaluate_pole(self):
        # a value is the t^0 Laurent coefficient; at a pole the expansion
        # starts below t^0
        r = 1 / ratx(F5)
        assert _laurent(r.num.coeffs, r.den.coeffs, 2, 1, 5) == (0, [3])
        assert _laurent(r.num.coeffs, r.den.coeffs, 0, 1, 5) == (-1, [1, 0])
        assert r.valuation_at(0) == -1

    def test_valuations(self):
        x = ratx(F5)
        r = (x**2) / (x - 1)
        assert r.valuation_at(0) == 2
        assert r.valuation_at(1) == -1
        assert r.valuation_at(2) == 0
        assert r.valuation_at(INF) == -1

    def test_residues_sum_to_zero(self):
        # the residue theorem: when every pole is rational, the residues at
        # the rational places and at INF add up to 0
        rng = random.Random(4)
        split = 0
        for field in FIELDS:
            p = field.p
            for _ in range(25):
                r = rand_ratfunc(rng, field, deg=3)
                rest = r.den.coeffs
                for a in range(p):
                    rest = _order(rest, (-a % p, 1), p)[1]
                if len(rest) == 1:
                    split += 1
                    assert sum(residue(r, c) for c in [*range(p), INF]) % p == 0
        assert split > 40

    def test_residue_simple_pole(self):
        x = ratx(F7)
        r = 3 / x + 2 / (x - 1)
        assert residue(r, 0) == 3
        assert residue(r, 1) == 2
        assert residue(r, 2) == 0
        assert residue(r, INF) == 7 - 5
        assert residue(RatFunc.const(F7, 0), 0) == residue(RatFunc.const(F7, 0), INF) == 0

    def test_residue_double_pole(self):
        # 1/x^2 + 3/x + 2/(x - 1)^2 at p = 7: the double poles add no residue
        x = ratx(F7)
        r = 1 / x**2 + 3 / x + 2 / (x - 1) ** 2
        assert [residue(r, c) for c in (0, 1, INF)] == [3, 0, 4]
        # x dx has a pole of order 3 at INF, x^2 / (x - 1) one of order 4
        assert residue(x, INF) == 0
        assert residue(x**2 / (x - 1), INF) == 6 and residue(x**2 / (x - 1), 1) == 1

    @settings(max_examples=300, deadline=None)
    @given(p=st.sampled_from([3, 5, 7, 131]),
           a=st.one_of(st.none(), st.integers(-400, 400)),
           order=st.integers(0, 3), prec=st.integers(-5, 6), data=st.data())
    def test_residue_matches_series_oracle(self, p, a, order, prec, data):
        # den = rest * (x - a)^order: a regular point, a simple pole or a
        # pole of order 2 or 3, unless num or rest cancel or add to it;
        # a = None is infinity, where num takes x^order instead.  The
        # oracle expands by the binomial theorem and divides term by term.
        field = PrimeField(p)
        coeffs = st.lists(st.integers(0, p - 1), min_size=1, max_size=5)
        num = UPoly(field, data.draw(coeffs))
        rest = UPoly(field, data.draw(coeffs))
        if rest.is_zero:
            rest = UPoly(field, (1,))
        if a is None:
            a, num = INF, num * UPoly(field, (0,) * order + (1,))
        else:
            rest = rest * UPoly(field, (-a, 1)) ** order
        r = RatFunc(field, num, rest)
        if r.is_zero:
            assert residue(r, a) == 0
            return
        n, d, c = r.num.coeffs, r.den.coeffs, a if a == INF else a % p
        assert _laurent(n, d, a, prec, p) == naive_laurent(n, d, c, prec, p)
        # unreduced input: num and den keep a common factor
        assert _laurent(num.coeffs, rest.coeffs, a, prec, p) == naive_laurent(n, d, c, prec, p)
        top = naive_laurent(n, d, c, 2 if a == INF else 0, p)[1]
        want = 0 if not top else -top[-1] % p if a == INF else top[-1]
        assert residue(r, a) == want

    @settings(max_examples=200, deadline=None)
    @given(p=st.sampled_from([5, 7, 11]), data=st.data())
    def test_residue_of_dlog_is_the_valuation(self, p, data):
        # res_c(g'/g dx) = v_c(g) mod p at every rational place c, for a
        # split g = k prod (x - r)^m; at INF v(g) = -deg g
        field = PrimeField(p)
        roots = data.draw(st.dictionaries(st.integers(0, p - 1), st.integers(1, 2 * p), max_size=4))
        g = UPoly(field, (data.draw(st.integers(1, p - 1)),))
        for c, m in roots.items():
            g = g * UPoly(field, (-c, 1)) ** m
        r = RatFunc(field, UPoly(field, _deriv(g.coeffs, p)), g)
        for c in range(p):
            assert residue(r, c) == roots.get(c, 0) % p
        assert residue(r, INF) == -sum(roots.values()) % p


def expand(r, c, prec):
    """r's Laurent expansion at c to O(t^prec), from _laurent, as a series."""
    num, den, p = r.num.coeffs, r.den.coeffs, r.field.p
    if not num:
        return TruncSeries.zero(r.field, ("aff", c), prec)
    v, cs = _laurent(num, den, c, prec, p)
    return TruncSeries(r.field, ("aff", c), v, cs, prec)


class TestTruncSeries:
    def test_series_of_inverse_x(self):
        x = ratx(F5)
        assert _laurent([1], [0, 1], 0, 3, 5) == (-1, [1, 0, 0, 0])
        s = expand(1 / x, 0, 3)
        assert s.valuation() == -1
        assert s.coeff(-1) == 1
        assert s.coeff(0) == 0

    def test_series_at_infinity_of_x(self):
        assert _laurent([0, 1], [1], INF, 4, 5) == (-1, [1, 0, 0, 0, 0])
        s = expand(ratx(F5), INF, 4)
        assert s.valuation() == -1
        assert s.coeff(-1) == 1
        # (x + 2) / (x^2 + 1) = t (1 + 2t) / (1 + t^2) in t = 1/x
        assert _laurent([2, 1], [1, 0, 1], INF, 5, 5) == (1, [1, 2, 4, 3])

    def test_geometric(self):
        assert _laurent([1], [1, 2], 0, 6, 3) == (0, [1] * 6)
        x = ratx(F3)
        s = expand(1 / (1 - x), 0, 6)
        for n in range(6):
            assert s.coeff(n) == 1

    def test_expand_is_ring_hom(self):
        # series products to precision: the product of the expansions of f
        # and g agrees with that of f * g wherever it is known, at 0, at a
        # pole of either and at INF
        rng = random.Random(0)
        for field in FIELDS:
            for _ in range(25):
                f = rand_ratfunc(rng, field)
                g = rand_ratfunc(rng, field)
                prec = 8
                for c in (0, 1, INF):
                    prod = expand(f, c, prec) * expand(g, c, prec)
                    sfg = expand(f * g, c, prec)
                    for n in range(min(prec, prod.prec)):
                        assert prod.coeff(n) == sfg.coeff(n)

    def test_add_min_precision(self):
        a = TruncSeries(F5, ("aff", 0), 0, (1, 2), 5)
        b = TruncSeries(F5, ("aff", 0), 0, (3,), 3)
        c = a + b
        assert c.prec == 3
        assert c.coeff(0) == 4

    def test_mul_precision_rule(self):
        a = TruncSeries(F5, ("aff", 0), 1, (1,), 4)
        b = TruncSeries(F5, ("aff", 0), 2, (1,), 6)
        c = a * b
        # min(4 + 2, 6 + 1) = 6
        assert c.prec == 6
        assert c.valuation() == 3

    def test_coeff_past_precision_raises(self):
        a = TruncSeries(F5, ("aff", 0), 0, (1,), 3)
        assert a.coeff(2) == 0
        with pytest.raises(InsufficientPrecision):
            a.coeff(3)

    def test_valuation_of_truncated_zero_raises(self):
        a = TruncSeries(F5, ("aff", 0), 0, (), 4)
        with pytest.raises(InsufficientPrecision):
            a.valuation()

    def test_inverse_roundtrip(self):
        rng = random.Random(5)
        for field in FIELDS:
            for _ in range(20):
                coeffs = [rng.randrange(1, field.p)] + [
                    rng.randrange(field.p) for _ in range(7)
                ]
                s = TruncSeries(field, ("aff", 0), 0, coeffs, 8)
                prod = s * s.inverse()
                for n in range(prod.prec):
                    assert prod.coeff(n) == (1 if n == 0 else 0)

    def test_inverse_with_shift(self):
        s = TruncSeries(F5, ("aff", 0), -2, (2, 1), 1)
        inv = s.inverse()
        assert inv.valuation() == 2
        prod = s * inv
        assert prod.coeff(0) == 1

    def test_inverse_needs_leading_term(self):
        s = TruncSeries(F5, ("aff", 0), 0, (), 3)
        with pytest.raises(InsufficientPrecision):
            s.inverse()

    def test_derivative(self):
        s = TruncSeries(F7, ("aff", 0), -1, (1, 0, 1), 4)
        d = s.derivative()
        assert d.coeff(-2) == 6
        assert d.coeff(0) == 1

    def test_truncate_cannot_extend(self):
        s = TruncSeries(F5, ("aff", 0), 0, (1, 1), 3)
        assert s.truncate(2).prec == 2
        with pytest.raises(InsufficientPrecision):
            s.truncate(9)

    def test_center_mismatch_rejected(self):
        a = TruncSeries(F5, ("aff", 0), 0, (1,), 3)
        b = TruncSeries(F5, ("aff", 1), 0, (1,), 3)
        with pytest.raises(ValueError):
            a + b

    def test_exact_const_has_infinite_precision(self):
        c = TruncSeries.const(F5, ("aff", 0), 2)
        assert c.prec == float("inf")
        assert c.coeff(10**6) == 0

    def test_poly_at_series(self):
        t = TruncSeries.t_power(F5, ("aff", 0), 1)
        s = poly_at_series([1, 2, 3], t)
        assert s.coeff(0) == 1 and s.coeff(1) == 2 and s.coeff(2) == 3

    def test_ratfunc_at_series(self):
        # num(x(t)) / den(x(t)) at x = t agrees with the expansion at 0
        x = ratx(F5)
        r = 1 / (1 - x)
        t = TruncSeries(F5, ("aff", 0), 0, (0, 1), 5)
        s = poly_at_series(r.num.coeffs, t) * poly_at_series(r.den.coeffs, t).inverse()
        assert series_state(s) == series_state(expand(r, 0, 5))
        for n in range(4):
            assert s.coeff(n) == 1


class TestDlog:
    def test_dlog_of_product(self):
        rng = random.Random(6)
        for field in FIELDS:
            for _ in range(30):
                f = rand_ratfunc(rng, field)
                g = rand_ratfunc(rng, field)
                if f.is_zero or g.is_zero:
                    continue
                assert (f * g).dlog() == f.dlog() + g.dlog()

    def test_dlog_of_zero(self):
        with pytest.raises(ZeroElement):
            RatFunc.const(F5, 0).dlog()


def naive_mul(a, b, p):
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return [c % p for c in out]


KERNEL_PRIMES = (3, 5, 7, 131, 2147483647)


def coeff_list(rng, length, p, kind):
    if kind == "reduced":
        return [rng.randrange(p) for _ in range(length)]
    if kind == "top":
        return [p - 1] * length
    if kind == "sparse":
        return [rng.randrange(p) if rng.random() < 0.1 else 0 for _ in range(length)]
    if kind == "unreduced":
        return [rng.randrange(p << 20) for _ in range(length)]
    return [rng.randrange(-5 * p, 5 * p) for _ in range(length)]


KINDS = ("reduced", "top", "sparse", "unreduced", "negative")


class TestMulKernel:
    """_mul against the schoolbook oracle, on both sides of the crossover."""

    @settings(max_examples=150, deadline=None)
    @given(
        p=st.sampled_from(KERNEL_PRIMES),
        la=st.integers(0, 600),
        lb=st.integers(0, 600),
        kinds=st.tuples(st.sampled_from(KINDS), st.sampled_from(KINDS)),
        cut=st.one_of(st.none(), st.integers(-3, 3), st.floats(0, 1.2)),
        rng=st.randoms(use_true_random=False),
    )
    def test_matches_oracle(self, p, la, lb, kinds, cut, rng):
        a = coeff_list(rng, la, p, kinds[0])
        b = coeff_list(rng, lb, p, kinds[1])
        full = naive_mul(a, b, p)
        if cut is None:
            assert _mul(a, b, p) == full
            return
        # n below, at and above la + lb - 1
        n = len(full) + cut if isinstance(cut, int) else int(cut * len(full))
        assert _mul(a, b, p, n) == full[: max(n, 0)]

    @settings(max_examples=60, deadline=None)
    @given(
        p=st.sampled_from(KERNEL_PRIMES),
        lu=st.integers(1, 600),
        m=st.integers(1, 700),
        rng=st.randoms(use_true_random=False),
    )
    def test_series_inverse(self, p, lu, m, rng):
        u = [rng.randrange(1, p)] + [rng.randrange(p) for _ in range(lu - 1)]
        inv = _series_inv(u, m, p)
        assert len(inv) == m
        assert _mul(u, inv, p, m) == [1] + [0] * (m - 1)

    def test_slot_width_at_boundaries(self):
        # coefficients 2^k - 1 fill their bits, so the middle terms of the
        # product need all of the slot width the kernel reserves
        p = 2147483647
        for la in (8, 9, 15, 16, 17, 255, 256, 257):
            for ka in range(1, 36):
                for kb in range(1, 36):
                    va, vb = (1 << ka) - 1, (1 << kb) - 1
                    want = [min(j + 1, la, 2 * la - 1 - j) * va * vb % p
                            for j in range(2 * la - 1)]
                    assert _mul([va] * la, [vb] * la, p) == want

    def test_crossover_sizes_agree(self):
        rng = random.Random(3)
        for p in KERNEL_PRIMES:
            for la in range(1, 20):
                for lb in (la, 2 * la + 1, 100):
                    a = coeff_list(rng, la, p, "reduced")
                    b = coeff_list(rng, lb, p, "top")
                    assert _mul(a, b, p) == naive_mul(a, b, p)
                    assert _mul(b, a, p, la) == naive_mul(a, b, p)[:la]


def horner_oracle(poly, s):
    """The Horner loop through TruncSeries objects, on a coefficient list."""
    acc = TruncSeries.zero(s.field, s.center)
    for c in reversed(poly):
        acc = acc * s + c
    return acc


def series_state(s):
    return s.ord_low, s.coeffs, s.prec, s.center


class TestPolyAtSeries:
    """poly_at_series on coefficient lists against the series Horner loop."""

    @settings(max_examples=400, deadline=None)
    @given(
        p=st.sampled_from((3, 5, 131)),
        poly=st.lists(st.integers(0, 130), max_size=12),
        ord_low=st.integers(-6, 6),
        coeffs=st.lists(st.integers(0, 130), max_size=40),
        known=st.one_of(st.none(), st.integers(-4, 40)),
        cancel=st.booleans(),
    )
    def test_matches_series_horner(self, p, poly, ord_low, coeffs, known, cancel):
        field = PrimeField(p)
        prec = float("inf") if known is None else ord_low + known
        if cancel:
            # s = s0 + ... at valuation 0 and poly(s0) = 0, so the constant
            # term of the last Horner step cancels the leading term
            ord_low = 0
            coeffs = [1 + coeffs[0] % (p - 1) if coeffs else 1] + coeffs[1:]
            tail = sum(c * pow(coeffs[0], i, p) for i, c in enumerate(poly[1:], 1))
            poly = [-tail % p] + poly[1:]
        s = TruncSeries(field, ("c", p), ord_low, coeffs, prec)
        f = UPoly(field, poly).coeffs
        got, want = poly_at_series(f, s), horner_oracle(f, s)
        assert series_state(got) == series_state(want)
        assert type(got.prec) is type(want.prec)

    @pytest.mark.parametrize("p", [3, 5, 131])
    @pytest.mark.parametrize("prec", [float("inf"), -2, 0, 1, 7])
    def test_zero_series_and_zero_poly(self, p, prec):
        field = PrimeField(p)
        for s in (TruncSeries.zero(field, "c", prec),
                  TruncSeries(field, "c", -3, [0, 0, 2, 1], prec)):
            for poly in ([], [0, 1], [2], [1, 0, 4, 3]):
                f = UPoly(field, poly).coeffs
                got = poly_at_series(f, s)
                assert series_state(got) == series_state(horner_oracle(f, s))

    def test_cancellation_empties_the_series(self):
        # x - 2 at s = 2 + O(t^3) is 0 to precision 3
        s = TruncSeries(F5, "c", 0, [2], 3)
        got = poly_at_series([3, 1], s)
        assert series_state(got) == (3, (), 3, "c")
        assert series_state(got) == series_state(horner_oracle([3, 1], s))

    @settings(max_examples=300, deadline=None)
    @given(
        p=st.sampled_from((3, 5, 131)),
        poly=st.lists(st.integers(0, 130), max_size=80),
        lead=st.integers(1, 130),
        coeffs=st.lists(st.integers(0, 130), max_size=12),
        prec=st.integers(1, 12),
    )
    def test_long_poly_at_short_unit(self, p, poly, lead, coeffs, prec):
        # ord_low 0 and len(poly) > prec: the remainder mod (x - s0)^prec
        field = PrimeField(p)
        s = TruncSeries(field, "c", 0, [1 + lead % (p - 1)] + coeffs, prec)
        f = UPoly(field, poly).coeffs
        got, want = poly_at_series(f, s), horner_oracle(f, s)
        assert series_state(got) == series_state(want)
        assert type(got.prec) is type(want.prec)

    @settings(max_examples=200, deadline=None)
    @given(
        p=st.sampled_from((3, 5, 131)),
        poly=st.lists(st.integers(0, 130), max_size=40),
        c=st.integers(1, 130),
        k=st.integers(-4, 4).filter(bool),
    )
    def test_exact_monomial(self, p, poly, c, k):
        # s = c t^k exactly: the coefficients spread, with no products
        field = PrimeField(p)
        s = TruncSeries.t_power(field, "c", k, 1 + c % (p - 1))
        f = UPoly(field, poly).coeffs
        got, want = poly_at_series(f, s), horner_oracle(f, s)
        assert series_state(got) == series_state(want)
        assert type(got.prec) is type(want.prec)

    def test_reads_the_kept_terms_once(self, monkeypatch):
        # a degree-200 polynomial at 2 + t + O(t^8) is read through its
        # remainder mod (x - 2)^8, not by 200 Horner products
        calls = []
        real = field_module._mul
        monkeypatch.setattr(field_module, "_mul", lambda *a, **k: calls.append(1) or real(*a, **k))
        f = rand_poly(random.Random(5), F5, 200).coeffs
        s = TruncSeries(F5, "c", 0, [2, 1], 8)
        got = poly_at_series(f, s)
        assert len(calls) < 20
        monkeypatch.undo()
        assert series_state(got) == series_state(horner_oracle(f, s))


# ---------------------------------------------------------------------------
# reference normal form: the textbook reduction (gcd, exact quotient, monic)
# that RatFunc used before it shared the function-field normal form; RatFunc
# must agree with it on construction and after every operation

def ref_normal(num, den):
    """(num, den) coefficient tuples of num/den in lowest terms, den monic."""
    if den.is_zero:
        raise ZeroDenominator("reference: zero denominator")
    if num.is_zero:
        return (), (1,)
    g = num.gcd(den)
    num, den = divmod(num, g)[0], divmod(den, g)[0]
    c = num.field.inv(den.coeffs[-1])
    return (num * c).coeffs, (den * c).coeffs


def state(r):
    return r.num.coeffs, r.den.coeffs


REF_PRIMES = (3, 5, 7, 101)
# planted common factors of these degrees give gcds from constants to 23
# terms, so the exact divisions of the normal form run short and long
PLANTED_DEGREES = (0, 1, 2, 7, 14, 15, 16, 22)


@st.composite
def planted_pairs(draw, field):
    """(num, den) with a planted common factor and powers of x; den is
    non-monic and nonzero, num may be zero."""
    p = field.p
    coeffs = st.integers(0, p - 1)
    g = draw(st.lists(coeffs, min_size=draw(st.sampled_from(PLANTED_DEGREES)),
                      max_size=22))
    g = UPoly(field, g + [draw(st.integers(1, p - 1))])
    num = UPoly(field, draw(st.lists(coeffs, max_size=6)))
    den = UPoly(field, draw(st.lists(coeffs, max_size=5)) + [draw(st.integers(1, p - 1))])
    x = UPoly(field, (0, 1))
    num = num * g * x ** draw(st.integers(0, 3))
    den = den * g * x ** draw(st.integers(0, 3))
    return num, den


class TestReferenceNormalForm:
    @pytest.mark.parametrize("p", REF_PRIMES)
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_construction(self, p, data):
        field = PrimeField(p)
        num, den = data.draw(planted_pairs(field))
        assert state(RatFunc(field, num, den)) == ref_normal(num, den)
        assert state(RatFunc(field, num)) == ref_normal(num, UPoly(field, (1,)))

    @pytest.mark.parametrize("p", REF_PRIMES)
    @settings(max_examples=30, deadline=None)
    @given(data=st.data())
    def test_operations(self, p, data):
        field = PrimeField(p)
        (an, ad), (bn, bd) = (data.draw(planted_pairs(field)) for _ in range(2))
        a, b = RatFunc(field, an, ad), RatFunc(field, bn, bd)
        an, ad, bn, bd = a.num, a.den, b.num, b.den
        assert state(a + b) == ref_normal(an * bd + bn * ad, ad * bd)
        assert state(a - b) == ref_normal(an * bd - bn * ad, ad * bd)
        assert state(-a) == ref_normal(-an, ad)
        assert state(a * b) == ref_normal(an * bn, ad * bd)
        assert state(a + bn) == ref_normal(an + bn * ad, ad)
        assert state(a * 3) == ref_normal(an * 3, ad)
        if not b.is_zero:
            assert state(a / b) == ref_normal(an * bd, ad * bn)
        for n in range(-3, 4):
            if n < 0 and a.is_zero:
                with pytest.raises(ZeroDenominator):
                    a ** n
            elif n < 0:
                assert state(a**n) == ref_normal(ad ** -n, an ** -n)
            else:
                assert state(a**n) == ref_normal(an**n, ad**n)
        def deriv(u):
            return UPoly(field, _deriv(u.coeffs, p))

        def frob(u):
            return UPoly(field, _spread(u.coeffs, p))

        da = deriv(an) * ad - an * deriv(ad)
        assert state(a.derivative()) == ref_normal(da, ad * ad)
        if not a.is_zero:
            assert state(a.dlog()) == ref_normal(da, ad * an)
        fa = a.pth_power()
        assert state(fa) == ref_normal(frob(an), frob(ad))
        assert state(fa.pth_root()) == ref_normal(an, ad)
        if not a.is_zero:  # x times a nonzero p-th power is none
            assert (fa * ratx(field)).pth_root() is None


# ---------------------------------------------------------------------------
# one fraction core: RatFunc and the line's FFElem are its two cases, so they
# must agree value for value and error for error

def outcome(op, *args):
    """The result of op as a RatFunc state, None, or the type it raised."""
    try:
        r = op(*args)
    except Exception as exc:
        return type(exc)
    if r is None:
        return None
    return state(r.comps[0] if hasattr(r, "comps") else r)


PARITY_OPS = {
    "add": operator.add,
    "sub": operator.sub,
    "mul": operator.mul,
    "truediv": operator.truediv,
    "int over": lambda a, b: 3 / a,
    "poly over": lambda a, b: UPoly(a.field, (0, 1)) / a,
    "times int": lambda a, b: a * b,  # b an int here
    "derivative": lambda a, b: a.derivative(),
    "dlog": lambda a, b: a.dlog(),
    "pth_power": lambda a, b: a.pth_power(),
    "pth_root": lambda a, b: a.pth_root(),
    "root of a power": lambda a, b: a.pth_power().pth_root(),
    "inverse": lambda a, b: a.inverse(),
    **{f"pow {n}": (lambda n: lambda a, b: a**n)(n) for n in range(-3, 4)},
}


class TestLineParity:
    @pytest.mark.parametrize("p", REF_PRIMES)
    @settings(max_examples=30, deadline=None)
    @given(data=st.data())
    def test_ratfunc_and_line_ffelem_agree(self, p, data):
        from dormant.curves import INF, FFElem, P1Marked

        field = PrimeField(p)
        curve = P1Marked(field, (0, 1, INF))
        a, b = (RatFunc(field, *data.draw(planted_pairs(field))) for _ in range(2))
        k = data.draw(st.integers(-p, 2 * p))
        zero = RatFunc.const(field, 0)
        for u, v in ((a, b), (b, a), (a, zero), (zero, a)):
            for name, op in PARITY_OPS.items():
                w = k if name == "times int" else v
                fw = k if name == "times int" else FFElem(curve, (v,))
                assert outcome(op, FFElem(curve, (u,)), fw) == outcome(op, u, w), name


class TestMixedFields:
    """Operands over different primes are refused on every path."""

    def test_constructor(self):
        with pytest.raises(ValueError, match="mixed fields"):
            RatFunc(F5, UPoly(F7, [6, 1]))
        with pytest.raises(ValueError, match="mixed fields"):
            RatFunc(F5, UPoly(F5, [1]), UPoly(F7, [6, 1]))

    @pytest.mark.parametrize("op", [operator.add, operator.sub, operator.mul, operator.truediv])
    def test_arithmetic(self, op):
        x = ratx(F5)
        for other in (UPoly(F7, [6, 1]), RatFunc(F7, UPoly(F7, [6, 1]))):
            for a, b in ((x, other), (other, x)):
                with pytest.raises(ValueError, match="mixed fields"):
                    op(a, b)

    def test_equality_is_false(self):
        # equality is no arithmetic: a foreign operand is unequal, not refused
        x = ratx(F5)
        for other in (UPoly(F7, [0, 1]), ratx(F7)):
            assert x != other and other != x and not x == other
            assert x not in [other] and other not in [x]
        assert x == UPoly(F5, (0, 1))

    def test_equality_is_symmetric(self):
        # UPoly hands a foreign type back, so both orders agree
        from dormant.curves import INF, P1Marked

        poly, rat = UPoly(F5, (0, 1)), ratx(F5)
        elem = P1Marked(F5, (0, 1, INF)).x_elem()
        for a, b in ((poly, rat), (poly, elem), (rat, elem)):
            assert a == b and b == a
        assert poly != ratx(F7) and ratx(F7) != poly
        assert hash(rat) == hash(poly) and len({rat, poly}) == 1
        assert poly != "x" and (poly == object()) is False
