"""Curve models, function-field arithmetic, branches and divisors."""
from __future__ import annotations

import operator
import random
from itertools import zip_longest

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dormant import curves
from dormant.curves import (
    INF,
    Differential,
    Divisor,
    FFElem,
    P1Marked,
    RaynaudPlane,
    SeriesBranch,
    Weierstrass,
    branch_at,
    d_of,
    divisor_of_differential,
    raynaud_p_inf,
    valuation,
    xz_components,
    z0_places,
)
from dormant.errors import (
    CurveMismatch,
    InsufficientPrecision,
    SemanticError,
    ZeroDenominator,
    ZeroElement,
)
from dormant.field import (
    PrimeField,
    RatFunc,
    TruncSeries,
    UPoly,
    _canon,
    _deriv,
    _gcd,
    _list_add,
    _shift,
)
from dormant.tango import default_places

F3 = PrimeField(3)
F5 = PrimeField(5)
F7 = PrimeField(7)


def ratx(field):
    """x as a RatFunc over field."""
    return RatFunc(field, UPoly(field, (0, 1)))


def line(p, *marks):
    return P1Marked(PrimeField(p), marks)


def xz_ratfuncs(curve, f):
    """Z^shift G / H of xz_components as q - 1 Z-power components over
    F_p(X), put together by the oracle's own product and inverse."""
    g, h, shift = xz_components(curve, f)
    field, q = curve.field, curve.q
    zero, one = RatFunc.const(field, 0), RatFunc.const(field, 1)
    w = RatFunc(field, UPoly(field, [0, -1] + [0] * (q - 2) + [1]))
    zmin = [-w] + [zero] * (q - 2) + [one]
    g, h = ([RatFunc(field, UPoly(field, c)) for c in v] for v in (g, h))
    quo = _o_mul(_o_trim(g), _o_inv_mod(h, zmin, field), field)
    out = [zero] * (q - 1)
    for k, c in enumerate(_o_divmod(quo, zmin, field)[1]):
        a, b = divmod(k + shift, q - 1)  # Z^(k + shift) = w^a Z^b
        out[b] = out[b] + c * (w ** a if a >= 0 else 1 / w ** -a)
    return out


class TestConstructors:
    def test_genus_values(self):
        assert line(5, 0, 1, INF).genus() == 0
        assert Weierstrass(F5, 1, 1).genus() == 1
        assert RaynaudPlane(F5, 1).genus() == 6
        assert RaynaudPlane(F3, 2).genus() == 10

    def test_marks_must_be_distinct(self):
        with pytest.raises(SemanticError):
            line(5, 0, 1, 1)
        with pytest.raises(SemanticError):
            # 6 and 1 coincide mod 5
            line(5, 1, 6, INF)

    def test_five_marks_impossible_over_f3(self):
        # the line over F_3 has only 4 rational points
        with pytest.raises(SemanticError):
            line(3, 0, 1, 2, INF, 0)

    def test_stability(self):
        assert line(5, 0, 1, INF).stable
        assert not line(5, 0, INF).stable

    def test_singular_cubic_rejected(self):
        with pytest.raises(ValueError):
            Weierstrass(F5, 0, 0)
        with pytest.raises(ValueError):
            Weierstrass(F3, 0, 1)  # disc = -a^3 over F_3

    def test_raynaud_needs_q_at_least_4(self):
        with pytest.raises(ValueError):
            RaynaudPlane(F3, 1)
        assert RaynaudPlane(F3, 2).q == 6


class TestOrdinarity:
    def test_hasse_examples(self):
        # the x^(p-1) coefficient of c^((p-1)/2); ordinary iff it is nonzero
        assert Weierstrass(F5, 1, 1).hasse() == 2
        assert Weierstrass(F3, 1, 0).hasse() == 0
        assert Weierstrass(F7, 0, 1).hasse() == 3

    def test_hasse_one_families(self):
        # these are the curves used by the flat-count suite
        for b in (0, 2, 3):
            assert Weierstrass(F5, 3, b).hasse() == 1
        for a in (0, 3, 5):
            assert Weierstrass(F7, a, 5).hasse() == 1

    @pytest.mark.parametrize(
        "p,a,b", [(5, 3, 0), (5, 3, 2), (5, 3, 3), (7, 0, 5), (7, 3, 5), (7, 5, 5)]
    )
    def test_criterion_1_curves_are_ordinary(self, p, a, b):
        assert Weierstrass(PrimeField(p), a, b).hasse() != 0

    def test_p3_short_form_always_supersingular(self):
        for a in range(1, 3):
            for b in range(3):
                assert Weierstrass(F3, a, b).hasse() == 0


class TestFFElemArithmetic:
    def test_minpoly_satisfied_on_raynaud(self):
        for curve in (RaynaudPlane(F5, 1), RaynaudPlane(F3, 2)):
            q = curve.q
            y = curve.y_elem()
            x = curve.x_elem()
            rel = y ** (q - 1) + y / x - x ** (q - 1)
            assert rel.is_zero

    def test_inverse_of_y_on_raynaud32(self):
        # x y^5 + y = x^6  gives  1/y = y^4/x^5 + 1/x^6
        curve = RaynaudPlane(F3, 2)
        y = curve.y_elem()
        inv = y.inverse()
        x = ratx(F3)
        assert inv.comps[0] == x**-6
        assert inv.comps[4] == x**-5
        assert all(c.is_zero for i, c in enumerate(inv.comps) if i not in (0, 4))
        assert (inv * y - 1).is_zero

    def test_inverse_roundtrip_random(self):
        rng = random.Random(0)
        curve = RaynaudPlane(F5, 1)
        for _ in range(5):
            comps = [rng.randrange(5) for _ in range(4)]
            if not any(comps):
                comps[0] = 1
            f = FFElem(curve, comps)
            assert (f * f.inverse() - 1).is_zero

    def test_elliptic_inverse(self):
        curve = Weierstrass(F5, 1, 1)
        y = curve.y_elem()
        x = curve.x_elem()
        f = y + x
        assert (f * f.inverse() - 1).is_zero

    def test_implicit_derivative_elliptic(self):
        curve = Weierstrass(F5, 1, 2)
        y = curve.y_elem()
        c_prime = UPoly(curve.field, _deriv(curve.c_poly(), curve.p))
        assert (2 * y * y.derivative() - c_prime).is_zero

    def test_implicit_derivative_raynaud(self):
        curve = RaynaudPlane(F5, 1)
        q = curve.q
        x, y = curve.x_elem(), curve.y_elem()
        yp = y.derivative()
        # differentiate x^q - x y^(q-1) - y = 0
        lhs = -(y ** (q - 1)) + (x * y ** (q - 2) - 1) * yp
        assert lhs.is_zero

    def test_pth_power_then_root(self):
        rng = random.Random(1)
        for curve in (Weierstrass(F3, 1, 1), RaynaudPlane(F5, 1)):
            for _ in range(4):
                comps = [rng.randrange(curve.p) for _ in range(curve.ext_degree)]
                f = FFElem(curve, comps) + curve.x_elem() * rng.randrange(1, curve.p)
                g = f.pth_power()
                assert g.pth_root() == f

    def test_root_of_non_power_is_none(self):
        for curve in (Weierstrass(F5, 1, 1), RaynaudPlane(F5, 1)):
            assert curve.x_elem().pth_root() is None
            assert curve.y_elem().pth_root() is None

    def test_pth_power_is_frobenius_on_values(self):
        # the value at a point is the t^0 coefficient of the expansion there
        curve = Weierstrass(F5, 1, 1)
        f = curve.x_elem() * curve.y_elem() + 2
        g = f.pth_power()
        for pt in curve.rational_points():
            if pt == INF:
                continue
            br = branch_at(curve, pt)
            x0, y0 = pt
            assert br.expand(f, 1).coeff(0) == (x0 * y0 + 2) % 5
            assert br.expand(g, 1).coeff(0) == pow(x0 * y0 + 2, 5, 5)

    def test_dlog_additive(self):
        curve = Weierstrass(F7, 1, 3)
        f = curve.x_elem()
        g = curve.y_elem() + 2
        assert (f * g).dlog() == f.dlog() + g.dlog()

    @pytest.mark.parametrize("curve", [line(5, 0, 1, INF), Weierstrass(F7, 1, 3),
                                       RaynaudPlane(F3, 2)], ids=["p1", "ell", "raynaud"])
    def test_scalar_product_scales_the_numerator(self, curve, monkeypatch):
        x = curve.x_elem()
        f = x / (x * x + 1) + (curve.y_elem() if curve.ext_degree > 1 else 2)
        scalars = range(-curve.p, 2 * curve.p + 1)
        for k in scalars:
            assert f * k == k * f == f * curve.ff_const(k)
        # no gcd: the scaled numerators stay coprime to the denominator
        calls = []
        monkeypatch.setattr("dormant.field._gcd", lambda *a: calls.append(a) or _gcd(*a))
        for k in scalars:
            k * f
        assert calls == []

    @pytest.mark.parametrize("curve", [line(5, 0, 1, INF), Weierstrass(F7, 1, 3),
                                       RaynaudPlane(F3, 2)], ids=["p1", "ell", "raynaud"])
    def test_zero_division_is_a_zero_denominator(self, curve):
        # the error RatFunc raises, inside the DormantError contract
        zero, x = curve.ff_const(0), curve.x_elem()
        for op in (zero.inverse, lambda: x / zero, lambda: x / 0, lambda: 1 / zero,
                   lambda: zero ** -2):
            with pytest.raises(ZeroDenominator):
                op()


class TestWeierstrassBranches:
    def test_generic_point(self):
        curve = Weierstrass(F5, 0, 0 + 4)  # y^2 = x^3 + 4
        # (0, 2) lies on the curve
        br = branch_at(curve, (0, 2), 12)
        res = br.y_series * br.y_series - (
            br.x_series * br.x_series * br.x_series + 4
        )
        assert res.is_zero_to_prec

    def test_two_torsion_uniformizer_is_y(self):
        curve = Weierstrass(F5, 4, 0)  # y^2 = x^3 - x
        br = branch_at(curve, (1, 0), 10)
        assert br.uniformizer == "y"
        res = br.y_series**2 - (br.x_series**3 + 4 * br.x_series)
        assert res.is_zero_to_prec
        assert valuation(curve.x_elem() - 1, br) == 2
        assert valuation(curve.y_elem(), br) == 1

    def test_infinity(self):
        curve = Weierstrass(F5, 4, 0)
        br = branch_at(curve, INF, 16)
        assert valuation(curve.x_elem(), br) == -2
        assert valuation(curve.y_elem(), br) == -3
        res = br.y_series**2 - (br.x_series**3 + 4 * br.x_series)
        assert res.is_zero_to_prec

    @pytest.mark.parametrize("p, a, b, prec", [(7, 3, 5, 556), (11, 1, 1, 300)])
    def test_infinity_long_precision(self, p, a, b, prec):
        curve = Weierstrass(PrimeField(p), a, b)
        br = branch_at(curve, INF, prec)
        assert br.x_series.prec >= prec
        assert valuation(curve.x_elem(), br) == -2
        assert valuation(curve.y_elem(), br) == -3
        res = br.y_series**2 - (br.x_series**3 + a * br.x_series + b)
        assert res.is_zero_to_prec

    def test_point_not_on_curve_rejected(self):
        with pytest.raises(ValueError):
            branch_at(Weierstrass(F5, 4, 0), (2, 2), 8)

    def test_delta_divisor_empty(self):
        # dx/y is a nowhere-zero exact-model differential: divisor 0
        curve = Weierstrass(F5, 4, 0)
        delta = Differential(curve, curve.y_elem().inverse())
        places = [branch_at(curve, pt, 14) for pt in curve.rational_points()]
        div, complete = divisor_of_differential(delta, places)
        assert div.is_zero
        assert complete  # 2g - 2 = 0

    def test_rational_points_count(self):
        curve = Weierstrass(F5, 4, 0)
        pts = curve.rational_points()
        assert len(pts) == 8
        assert set(pts) == {
            INF, (0, 0), (1, 0), (4, 0), (2, 1), (2, 4), (3, 2), (3, 3)
        }


class TestRaynaudBranches:
    def test_p_inf_expansion_frozen(self):
        # y = x^5 - x^21 - x^37 + ... at P_inf on the (p, l) = (5, 1) curve
        curve = RaynaudPlane(F5, 1)
        br = raynaud_p_inf(curve, 40)
        s = br.y_series
        assert s.valuation() == 5
        assert s.coeff(5) == 1
        assert s.coeff(21) == 4
        assert s.coeff(37) == 4
        for n in range(40):
            if n not in (5, 21, 37):
                assert s.coeff(n) == 0

    def test_affine_point_with_y_uniformizer(self):
        # (1, 2) on the (3, 2) curve has dG/dy = 0 there
        curve = RaynaudPlane(F3, 2)
        br = branch_at(curve, (1, 2), 10)
        assert br.uniformizer == "y-2"
        x_s, y_s = br.x_series, br.y_series
        res = x_s**6 - x_s * y_s**5 - y_s
        assert res.is_zero_to_prec

    def test_only_two_affine_points_on_32(self):
        assert set(RaynaudPlane(F3, 2).affine_points()) == {(0, 0), (1, 2)}

    def test_single_affine_point_on_51(self):
        assert RaynaudPlane(F5, 1).affine_points() == [(0, 0)]

    def test_z0_place_inventory(self):
        assert [pl.weight for pl in z0_places(RaynaudPlane(F5, 1))] == [1] * 5
        weights = [pl.weight for pl in z0_places(RaynaudPlane(F3, 2))]
        assert weights == [1, 1, 4]

    def test_valuation_of_y_at_z0(self):
        # y = 1/Z has a simple pole at every point of z = 0
        for curve in (RaynaudPlane(F5, 1), RaynaudPlane(F3, 2)):
            y = curve.y_elem()
            for pl in z0_places(curve):
                assert valuation(y, pl) == -1

    def test_divisor_of_x_on_51(self):
        curve = RaynaudPlane(F5, 1)
        x = curve.x_elem()
        pinf = raynaud_p_inf(curve, 30)
        assert valuation(x, pinf) == 1
        vals = sorted(valuation(x, pl) for pl in z0_places(curve))
        assert vals == [-1, -1, -1, -1, 3]
        # total degree of div(x) is zero
        assert 1 + sum(vals) == 0

    def test_smoothness_report(self):
        # a branch at an affine point needs a nonzero partial of the cleared
        # minpoly there (else SingularPoint); the chart y = 1 has d/dX = -1
        for curve in (RaynaudPlane(F5, 1), RaynaudPlane(F3, 2)):
            for pt in curve.affine_points():
                assert branch_at(curve, pt).point == pt

    def test_xz_components_of_y(self):
        curve = RaynaudPlane(F5, 1)
        comps = xz_ratfuncs(curve, curve.y_elem())
        # y = 1/Z = Z^(q-2) / (X^q - X)
        w = UPoly(F5, [0, -1, 0, 0, 0, 1])
        nonzero = [(k, c) for k, c in enumerate(comps) if not c.is_zero]
        assert len(nonzero) == 1
        k, c = nonzero[0]
        assert k == curve.q - 2
        assert c == RatFunc(F5, UPoly(F5, (1,)), w)


class TestPlaceCoercion:
    """Both kinds of place lift ints, UPolys and RatFuncs, and refuse the
    elements of an unequal curve."""

    def test_places_refuse_another_curve(self):
        curve = RaynaudPlane(F3, 2)
        for place in (z0_places(curve)[0], raynaud_p_inf(curve)):
            with pytest.raises(CurveMismatch):
                valuation(RaynaudPlane(F3, 3).y_elem(), place)
        # an equal curve is the same curve
        assert valuation(RaynaudPlane(F3, 2).y_elem(), z0_places(curve)[0]) == -1

    @pytest.mark.parametrize("curve", [RaynaudPlane(F3, 2), line(3, 0, 1, INF)],
                             ids=["raynaud", "p1"])
    def test_places_lift_ints_and_polynomials(self, curve):
        x, xe = UPoly(F3, (0, 1)), curve.x_elem()
        places = default_places(curve)
        assert any(isinstance(pl, SeriesBranch) for pl in places)
        for place in places:
            assert valuation(2, place) == 0
            assert valuation(x, place) == valuation(xe, place)
            assert valuation(x ** 2 + 1, place) == valuation(xe ** 2 + 1, place)
            with pytest.raises(ZeroElement):
                valuation(3, place)


class TestCertificateDifferentials:
    def test_divisor_of_d_inverse_y_51(self):
        # f = -1/y has df with divisor exactly 10 P_inf, 10 = 2g - 2
        curve = RaynaudPlane(F5, 1)
        f = -curve.y_elem().inverse()
        omega = d_of(f)
        pinf = raynaud_p_inf(curve, 40)
        places = [pinf] + z0_places(curve)
        div, complete = divisor_of_differential(omega, places)
        assert complete
        assert div.degree() == 10
        assert div.coeff(pinf) == 10
        for pl in z0_places(curve):
            assert div.coeff(pl) == 0

    def test_divisor_of_d_inverse_y_32(self):
        curve = RaynaudPlane(F3, 2)
        f = -curve.y_elem().inverse()
        omega = d_of(f)
        pinf = raynaud_p_inf(curve, 60)
        places = [pinf] + z0_places(curve) + [branch_at(curve, (1, 2), 30)]
        div, complete = divisor_of_differential(omega, places)
        assert complete
        assert div.degree() == 18
        assert div.coeff(pinf) == 18

    def test_second_certificate_on_51(self):
        # -x y^2 + x^2 y^5 - x^3 y^8 + x^4 y^11 differs from -1/y
        # by the 5th power of (1 + x y^3)/x
        curve = RaynaudPlane(F5, 1)
        x, y = curve.x_elem(), curve.y_elem()
        f2 = -x * y**2 + x**2 * y**5 - x**3 * y**8 + x**4 * y**11
        g = (1 + x * y**3) / x
        assert f2 == -y.inverse() + g**5
        assert f2.derivative() == (-y.inverse()).derivative()


class TestP1Branches:
    def test_finite_branch_expansion(self):
        curve = line(5, 0, 1, INF)
        br = branch_at(curve, 0, 10)
        x = ratx(F5)
        s = br.expand(FFElem(curve, (1 / x,)))
        assert s.valuation() == -1
        assert s.coeff(-1) == 1

    def test_infinity_branch(self):
        curve = line(5, 0, 1, INF)
        br = branch_at(curve, INF, 10)
        s = br.expand(curve.x_elem(), 6)
        assert s.valuation() == -1

    def test_form_residue(self):
        curve = line(7, 0, 1, INF)
        x = ratx(F7)
        omega = Differential(curve, FFElem(curve, (3 / x + 2 / (x - 1),)))
        assert branch_at(curve, 0).expand(omega, 0).coeff(-1) == 3
        assert branch_at(curve, 1).expand(omega, 0).coeff(-1) == 2
        assert branch_at(curve, INF).expand(omega, 0).coeff(-1) == 2

    def test_log_form_divisor(self):
        curve = line(5, 0, 1, INF)
        x = ratx(F5)
        omega = Differential(curve, FFElem(curve, (1 / (x * (x - 1)),)))
        places = [branch_at(curve, pt, 10) for pt in (0, 1, 2, INF)]
        div, complete = divisor_of_differential(omega, places)
        assert complete
        assert div.degree() == -2
        assert div.coeff(places[0]) == -1
        assert div.coeff(places[1]) == -1
        assert div.coeff(places[3]) == 0


class TestDivisorAlgebra:
    def test_floor_div(self):
        curve = RaynaudPlane(F5, 1)
        pinf = raynaud_p_inf(curve, 20)
        q0 = z0_places(curve)[0]
        d = Divisor([(pinf, 11), (q0, -3)])
        fd = d.floor_div(5)
        assert fd.coeff(pinf) == 2
        assert fd.coeff(q0) == -1  # floor(-3/5) = -1

    def test_degree_uses_place_weights(self):
        curve = RaynaudPlane(F3, 2)
        big = [pl for pl in z0_places(curve) if pl.weight == 4][0]
        d = Divisor([(big, 2)])
        assert d.degree() == 8

    def test_add_cancel(self):
        curve = RaynaudPlane(F5, 1)
        pinf = raynaud_p_inf(curve, 20)
        d = Divisor([(pinf, 1)])
        assert (d - d).is_zero

    def test_zero_function_has_no_valuation(self):
        curve = line(5, 0, 1, INF)
        with pytest.raises(ZeroElement):
            valuation(FFElem(curve, (0,)), branch_at(curve, 0, 8))


class TestComputeOnce:
    def test_z_chart_vector_once_per_element(self, monkeypatch):
        curve = RaynaudPlane(F5, 1)
        omega = d_of(-curve.y_elem().inverse())
        pinf = raynaud_p_inf(curve, 40)
        z0 = z0_places(curve)
        assert len(z0) == 5
        seen = []
        inner = curves.xz_components
        monkeypatch.setattr(curves, "xz_components",
                            lambda c, f: seen.append(f) or inner(c, f))
        for _ in range(2):
            div, complete = divisor_of_differential(omega, [pinf] + z0)
            assert complete and div.coeff(pinf) == 10
        assert [id(f) for f in seen] == [id(omega.h)]
        x = curve.x_elem()
        assert sorted(valuation(x, pl) for pl in z0) == [-1, -1, -1, -1, 3]
        assert [id(f) for f in seen] == [id(omega.h), id(x)]

    @pytest.mark.parametrize("curve", [Weierstrass(F7, 3, 5), RaynaudPlane(F3, 2)],
                             ids=["ell", "raynaud"])
    def test_minpoly_built_once_and_immutable(self, curve):
        # the minpoly is held by the curve's algebra, built once: the
        # cleared minpoly, with the monomial x^s as its leading coefficient
        alg = curve.algebra()
        assert alg is curve.algebra()
        assert alg.m == [[c % curve.p for c in u] for u in curve.cleared_minpoly()]
        assert len(alg.m) == curve.ext_degree + 1 and alg.m[-1] == [0] * alg.s + [1]


# ---------------------------------------------------------------------------
# oracle: function-field arithmetic on y-basis vectors of RatFunc components,
# a gcd after every component operation; the library's integral
# representation must agree with it operation by operation.  RatFunc shares
# the library's normal form, so test_field.py pins every RatFunc operation
# to a textbook reference (UPoly.gcd, //, monic) that does not.

def _o_trim(a):
    while a and a[-1].is_zero:
        a.pop()
    return a


def _o_add(a, b, field):
    out = [RatFunc.const(field, 0)] * max(len(a), len(b))
    for i, c in enumerate(a):
        out[i] = out[i] + c
    for i, c in enumerate(b):
        out[i] = out[i] + c
    return _o_trim(out)


def _o_mul(a, b, field):
    if not a or not b:
        return []
    out = [RatFunc.const(field, 0) for _ in range(len(a) + len(b) - 1)]
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            out[i + j] = out[i + j] + ai * bj
    return _o_trim(out)


def _o_divmod(a, b, field):
    rem = list(a)
    db = len(b) - 1
    if len(rem) - 1 < db:
        return [], _o_trim(rem)
    inv_lc = RatFunc.const(field, 1) / b[-1]
    quo = [RatFunc.const(field, 0)] * (len(rem) - db)
    for i in range(len(rem) - 1, db - 1, -1):
        c = rem[i]
        if not c.is_zero:
            q = c * inv_lc
            quo[i - db] = q
            for j, bc in enumerate(b):
                rem[i - db + j] = rem[i - db + j] - q * bc
    return _o_trim(quo), _o_trim(rem[:db])


def _o_inv_mod(a, m, field):
    """s with s * a = 1 modulo m, by the extended Euclidean algorithm."""
    r0, r1 = list(m), _o_trim(list(a))
    s0, s1 = [], [RatFunc.const(field, 1)]
    while r1:
        q, r = _o_divmod(r0, r1, field)
        r0, r1 = r1, r
        s0, s1 = s1, _o_add(s0, [-c for c in _o_mul(q, s1, field)], field)
    assert len(r0) == 1
    return [c / r0[0] for c in s0]


def _o_matinv(m, field):
    n = len(m)
    a = [list(row) + [RatFunc.const(field, 1 if i == j else 0) for j in range(n)]
         for i, row in enumerate(m)]
    for col in range(n):
        piv = next(r for r in range(col, n) if not a[r][col].is_zero)
        a[col], a[piv] = a[piv], a[col]
        inv = RatFunc.const(field, 1) / a[col][col]
        a[col] = [c * inv for c in a[col]]
        for r in range(n):
            if r != col and not a[r][col].is_zero:
                f = a[r][col]
                a[r] = [c - f * d for c, d in zip(a[r], a[col])]
    return [row[n:] for row in a]


class Oracle:
    """Old-style arithmetic on one curve; elements are d-tuples of RatFunc."""

    def __init__(self, curve):
        self.curve, self.field, self.d = curve, curve.field, curve.ext_degree
        f, x = self.field, ratx(self.field)
        if curve.model == "ell":
            self.minpoly = [-RatFunc(f, UPoly(f, curve.c_poly())), RatFunc.const(f, 0), RatFunc.const(f, 1)]
        elif curve.model == "raynaud":
            q = curve.q
            self.minpoly = ([-(x ** (q - 1)), 1 / x] + [RatFunc.const(f, 0)] * (q - 3)
                            + [RatFunc.const(f, 1)])

    def vec(self, comps):
        cs = _o_trim(list(comps))
        if len(cs) > self.d:
            cs = _o_divmod(cs, self.minpoly, self.field)[1]
        return tuple(cs + [RatFunc.const(self.field, 0)] * (self.d - len(cs)))

    def const(self, c):
        return self.vec([RatFunc.const(self.field, c)])

    def y(self):
        return self.vec([RatFunc.const(self.field, 0), RatFunc.const(self.field, 1)])

    def add(self, a, b):
        return tuple(u + v for u, v in zip(a, b))

    def mul(self, a, b):
        return self.vec(_o_mul(_o_trim(list(a)), _o_trim(list(b)), self.field))

    def inv(self, a):
        if self.d == 1:
            return (1 / a[0],)
        return self.vec(_o_inv_mod(a, self.minpoly, self.field))

    def pow(self, a, n):
        out = self.const(1)
        for _ in range(n):
            out = self.mul(out, a)
        return out

    def yprime(self):
        curve, f = self.curve, self.field
        if curve.model == "ell":
            c = RatFunc(f, UPoly(f, curve.c_poly()))
            cp = RatFunc(f, UPoly(f, _deriv(curve.c_poly(), f.p)))
            return self.vec([RatFunc.const(f, 0), cp / (2 * c)])
        q, y = curve.q, self.y()
        den = self.add(self.mul(self.vec([ratx(f)]), self.pow(y, q - 2)), self.const(-1))
        return self.mul(self.pow(y, q - 1), self.inv(den))

    def derivative(self, a):
        straight = tuple(c.derivative() for c in a)
        if self.d == 1:
            return straight
        chain = self.vec([k * a[k] for k in range(1, self.d)])
        return self.add(straight, self.mul(chain, self.yprime()))

    def zpows(self):
        if self.d == 1:
            return [self.const(1)]
        z = self.pow(self.y(), self.curve.p)
        pows = [self.const(1)]
        for _ in range(self.d - 1):
            pows.append(self.mul(pows[-1], z))
        return pows

    def pth_power(self, a):
        acc = self.const(0)
        for c, zk in zip(a, self.zpows()):
            acc = self.add(acc, self.mul(self.vec([c.pth_power()]), zk))
        return acc

    def zbasis(self, a):
        cols = self.zpows()
        minv = _o_matinv([[cols[j][i] for j in range(self.d)] for i in range(self.d)],
                         self.field)
        out = []
        for row in minv:
            acc = RatFunc.const(self.field, 0)
            for c, comp in zip(row, a):
                acc = acc + c * comp
            out.append(acc)
        return out

    def xz(self, a):
        """The Z-chart vector of a Raynaud element (X = x/y, Z = 1/y)."""
        q, f = self.curve.q, self.field
        zero = RatFunc.const(f, 0)
        w = RatFunc(f, UPoly(f, [0, -1] + [0] * (q - 2) + [1]))
        zmin = [-w] + [zero] * (q - 2) + [RatFunc.const(f, 1)]

        def zshift(comps, e):
            out = [zero] * (q - 1)
            for k, c in enumerate(comps):
                if not c.is_zero:
                    out[(k + e) % (q - 1)] = out[(k + e) % (q - 1)] + c * w ** ((k + e) // (q - 1))
            return out

        def homog(poly):
            vec, deg = [zero] * (q - 1), len(poly.coeffs) - 1
            for i, c in enumerate(poly.coeffs):
                if c:
                    term = [RatFunc(f, UPoly(f, (0,) * i + (c,)))] + [zero] * (q - 2)
                    vec = [u + v for u, v in zip(vec, zshift(term, deg - i))]
            return vec, deg

        total = [zero] * (q - 1)
        for k, c in enumerate(a):
            if c.is_zero:
                continue
            nvec, dn = homog(c.num)
            dvec, dd = homog(c.den)
            part = _o_mul(_o_trim(list(nvec)), _o_inv_mod(dvec, zmin, f), f)
            part = list(_o_divmod(part, zmin, f)[1]) + [zero] * (q - 1)
            part = zshift(part[: q - 1], dd - dn - k)
            total = [u + v for u, v in zip(total, part)]
        return total


ORACLE_CURVES = {
    "p1-3": line(3, 0, 1, INF),
    "p1-5": line(5, 0, 1, INF),
    "p1-7": line(7, 0, 1, INF),
    "ell-5,1,2": Weierstrass(F5, 1, 2),
    "ell-7,3,5": Weierstrass(F7, 3, 5),
    "ray-3,2": RaynaudPlane(F3, 2),
    "ray-5,1": RaynaudPlane(F5, 1),
    "ray-3,3": RaynaudPlane(F3, 3),
}
ORACLES = {name: Oracle(c) for name, c in ORACLE_CURVES.items()}


@st.composite
def oracle_elements(draw, curve, nonzero=False):
    """d RatFunc components: short numerators over small monic denominators;
    at most three nonzero components keep the oracle affordable."""
    field, p, d = curve.field, curve.p, curve.ext_degree
    dens = ((1,), (0, 1), (1, 1), (0, 0, 1), (p - 1, 0, 1), (2, 1, 1))
    support = draw(st.lists(st.integers(0, d - 1), min_size=1 if nonzero else 0,
                            max_size=min(d, 3), unique=True))
    comps = [RatFunc.const(field, 0)] * d
    for k in support:
        num = draw(st.lists(st.integers(0, p - 1), min_size=1, max_size=4))
        if nonzero and not any(num):
            num[0] = 1
        comps[k] = RatFunc(field, UPoly(field, num), UPoly(field, draw(st.sampled_from(dens))))
    return FFElem(curve, comps)


ORACLE_IDS = sorted(ORACLE_CURVES)


class TestIntegralRepresentationOracle:
    """Ring laws and every FFElem operation against the RatFunc oracle."""

    @pytest.mark.parametrize("name", ORACLE_IDS)
    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_ring_laws_and_products(self, name, data):
        curve, o = ORACLE_CURVES[name], ORACLES[name]
        a, b, c = (data.draw(oracle_elements(curve)) for _ in range(3))
        assert (a * b).comps == o.mul(a.comps, b.comps)
        assert (a + b).comps == o.add(a.comps, b.comps)
        assert (a - b).comps == o.add(a.comps, tuple(-u for u in b.comps))
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert (a + b) + c == a + (b + c)
        assert (a - a).is_zero and a + 0 == a and a * 1 == a

    @pytest.mark.parametrize("name", ORACLE_IDS)
    @settings(max_examples=12, deadline=None)
    @given(data=st.data())
    def test_inverse(self, name, data):
        curve, o = ORACLE_CURVES[name], ORACLES[name]
        a = data.draw(oracle_elements(curve, nonzero=True))
        inv = a.inverse()
        assert inv.comps == o.inv(a.comps)
        assert a * inv == 1
        assert (a / a) == 1

    @pytest.mark.parametrize("name", ORACLE_IDS)
    @settings(max_examples=15, deadline=None)
    @given(data=st.data())
    def test_derivative_and_leibniz(self, name, data):
        curve, o = ORACLE_CURVES[name], ORACLES[name]
        a, b = (data.draw(oracle_elements(curve)) for _ in range(2))
        assert a.derivative().comps == o.derivative(a.comps)
        assert (a * b).derivative() == a.derivative() * b + a * b.derivative()

    @pytest.mark.parametrize("name", ORACLE_IDS)
    @settings(max_examples=20, deadline=None)
    @given(data=st.data())
    def test_pth_power_and_root(self, name, data):
        curve, o = ORACLE_CURVES[name], ORACLES[name]
        a = data.draw(oracle_elements(curve))
        g = a.pth_power()
        assert g.comps == o.pth_power(a.comps)
        assert g == a ** curve.p
        assert g.pth_root() == a
        if not a.derivative().is_zero:
            assert a.pth_root() is None

    @pytest.mark.parametrize("name", ORACLE_IDS)
    @settings(max_examples=20, deadline=None)
    @given(data=st.data())
    def test_zbasis_reconstructs(self, name, data):
        curve, o = ORACLE_CURVES[name], ORACLES[name]
        a = data.draw(oracle_elements(curve))
        # self = sum_j S_j (y^p)^j / E, read off the canonical z-vector
        s, e = a._zvec()
        s = [RatFunc(curve.field, UPoly(curve.field, c), UPoly(curve.field, e))
             for c in s + [[]] * (curve.ext_degree - len(s))]
        assert s == o.zbasis(a.comps)
        z = curve.y_elem() ** curve.p if curve.ext_degree > 1 else curve.ff_const(1)
        total, zj = curve.ff_const(0), curve.ff_const(1)
        for sj in s:
            total, zj = total + sj * zj, zj * z
        assert total == a

    @pytest.mark.parametrize("name", [n for n in ORACLE_IDS if n.startswith("ray")])
    @settings(max_examples=20, deadline=None)
    @given(data=st.data())
    def test_xz_components(self, name, data):
        curve, o = ORACLE_CURVES[name], ORACLES[name]
        a = data.draw(oracle_elements(curve))
        assert xz_ratfuncs(curve, a) == o.xz(a.comps)

    @pytest.mark.parametrize("name", ORACLE_IDS)
    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_render_eq_hash(self, name, data):
        curve, o = ORACLE_CURVES[name], ORACLES[name]
        a, b = (data.draw(oracle_elements(curve)) for _ in range(2))
        prod = o.mul(a.comps, b.comps)
        assert (a * b).render() == " ; ".join(c.render() for c in prod)
        rebuilt = FFElem(curve, prod)
        assert rebuilt == a * b and hash(rebuilt) == hash(a * b)
        assert rebuilt.render() == (b * a).render()
        assert (a + 1 != a) and a == FFElem(curve, a.comps)


def _z0_reference(place, comps):
    """v at a z = 0 place by the old route: the Z-chart components over
    F_p(X), reduced by gcd, and the orders of phi by repeated divmod."""
    def ordp(poly):
        m = 0
        while True:
            quo, rem = divmod(poly, UPoly(poly.field, place.phi))
            if not rem.is_zero:
                return m
            m, poly = m + 1, quo
    return min((place.curve.q - 1) * (ordp(c.num) - ordp(c.den)) + k
               for k, c in enumerate(comps) if not c.is_zero)


@pytest.mark.parametrize("name", [n for n in ORACLE_IDS if n.startswith("ray")])
@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_z0_valuations_match_the_divmod_reference(name, data):
    curve, o = ORACLE_CURVES[name], ORACLES[name]
    x, y = curve.x_elem(), curve.y_elem()
    a = data.draw(oracle_elements(curve, nonzero=True))
    a = a * x ** data.draw(st.integers(-2, 3)) * y ** data.draw(st.integers(-2, 2))
    comps = o.xz(a.comps)
    places = z0_places(curve)
    assert [valuation(a, pl) for pl in places] == [_z0_reference(pl, comps) for pl in places]


@pytest.mark.parametrize("name", ORACLE_IDS)
@settings(max_examples=10, deadline=None)
@given(data=st.data())
def test_valuation_of_a_quotient_is_a_difference(name, data):
    """v(a / b) = v(a) - v(b) at every default place of all three models,
    for functions and for forms: a / b is read from its own N and D, and
    a form adds the same v(dx) on both sides."""
    curve = ORACLE_CURVES[name]
    a, b = (data.draw(oracle_elements(curve, nonzero=True)) for _ in range(2))
    for place in default_places(curve):
        assert valuation(a / b, place) == valuation(a, place) - valuation(b, place)
        assert (valuation(Differential(curve, a / b), place)
                == valuation(Differential(curve, a), place) - valuation(b, place))


@pytest.mark.parametrize("name", ORACLE_IDS)
def test_cancellation_leaves_canonical_form(name):
    # numerators longer than the denominator that share a factor with it
    curve, o = ORACLE_CURVES[name], ORACLES[name]
    field = curve.field
    u = RatFunc(field, UPoly(field, (1, 1)) ** 3 * UPoly(field, (0,) * 5 + (1,)))
    v = RatFunc(field, UPoly(field, (1,)), UPoly(field, (0, 1, 1)))
    a = FFElem(curve, [u] * curve.ext_degree)
    b = FFElem(curve, [v])
    prod = a * b
    assert prod.comps == o.mul(a.comps, b.comps)
    assert prod._den == (1,)


@pytest.mark.parametrize("op", [operator.add, operator.sub, operator.mul, operator.truediv])
def test_mixed_fields_refused(op):
    # a foreign coefficient is refused on the line as on the other models,
    # never reduced modulo the curve's prime
    foreign = (RatFunc(F7, UPoly(F7, [6, 1])), UPoly(F7, [6, 1]))
    for curve in (line(5, 0, 1, INF), Weierstrass(F5, 1, 2), RaynaudPlane(F5, 1)):
        x = curve.x_elem()
        for other in foreign:
            for a, b in ((x, other), (other, x)):
                with pytest.raises(ValueError, match="mixed fields"):
                    op(a, b)
            with pytest.raises(ValueError, match="mixed fields"):
                FFElem(curve, (other,))
            with pytest.raises(ValueError, match="mixed fields"):
                FFElem(curve, (1, other))
            # equality is no arithmetic: a foreign operand is unequal
            assert x != other and other != x and not x == other
            assert x not in [other] and other not in [x]


def _lucas_ab(p, q, l):
    """A, B in F_p[x, z] with Y^p = A Y + B modulo Y^2 - x^q Y + x z^l, as
    dicts (i, j) -> coefficient of x^i z^j."""
    a, b = {(0, 0): 1}, {}
    for _ in range(p - 1):
        na = {(i + q, j): c for (i, j), c in a.items()}
        for key, c in b.items():
            na[key] = (na.get(key, 0) + c) % p
        b = {(i + 1, j + l): -c % p for (i, j), c in a.items()}
        a = {k: c for k, c in na.items() if c}
    return a, b


@pytest.mark.parametrize("p,l", [(3, 2), (3, 3), (5, 1), (5, 3), (7, 1), (7, 3)])
def test_y_from_z_on_raynaud(p, l):
    """y^p = A y + B with A != 0, so y = (z - B) / A lies in F_p(x)(z)."""
    curve = RaynaudPlane(PrimeField(p), l)
    x, y = curve.x_elem(), curve.y_elem()
    z = y.pth_power()
    zl = z ** l

    def value(poly):
        acc = curve.ff_const(0)
        for (i, j), c in sorted(poly.items()):
            acc = acc + c * x ** i * zl ** (j // l)
        return acc

    a, b = _lucas_ab(p, curve.q, l)
    av = value(a)
    assert not av.is_zero
    assert av * y + value(b) == z


def _y_over_z_by_solve(curve):
    """The oracle for the closed form: Y^p = A Y + B modulo
    Y^2 - x^q Y + x z^l by the (p - 1)-step recurrence, then y = (z - B) / A
    by the Bareiss solve of the z-algebra."""
    p, q, l = curve.p, curve.q, curve.l
    alg = curves._zalg(curve)
    a, b = [[1]], []
    for _ in range(p - 1):
        a, b = ([_list_add(_shift(u, q), v, p) for u, v in zip_longest(a, b, fillvalue=[])],
                [[]] * l + [_shift([-c % p for c in u], 1) for u in a])
    (a, ea), (b, eb) = curves._reduce(a, alg), curves._reduce(b, alg)
    zmb = [[-c % p for c in u] for u in b] + [[], []]
    zmb[1] = _list_add(zmb[1], _shift([1], p * eb), p)  # x^(p eb) (z - B)
    v, det = curves._inverse(a, alg)  # a v = det
    w, ew = curves._vmul(zmb, v, alg)  # y = x^(p ea) w / (x^(p (eb + ew)) det)
    return _canon([_shift(c, p * ea) for c in w], _shift(det, p * (eb + ew)), p)


@pytest.mark.parametrize("p,l", [(3, 2), (3, 3), (5, 1), (5, 2), (5, 3), (7, 1)])
def test_y_over_z_closed_form_matches_the_solve(p, l):
    field = PrimeField(p)
    curve = RaynaudPlane(field, l)
    v, delta = curves._y_over_z(curve)
    assert (v, delta) == _y_over_z_by_solve(RaynaudPlane(field, l))
    # sum_j V_j z^j = Delta y with z = y^p, in FFElem arithmetic
    y = curve.y_elem()
    z, acc = y.pth_power(), curve.ff_const(0)
    for c in reversed(v):
        acc = acc * z + FFElem(curve, (UPoly(field, c),))
    assert acc == FFElem(curve, (UPoly(field, delta),)) * y


def test_y_over_z_solves_no_system(monkeypatch):
    def refuse(*args):
        raise AssertionError("a linear solve behind y over z")
    monkeypatch.setattr(curves, "_inverse", refuse)
    curve = RaynaudPlane(F5, 3)
    v, delta = curves._y_over_z(curve)
    assert len(v) == curve.q - 1 and delta[-1] == 1


def _cz_random_split(poly, d, rng, p):
    """The oracle for the fixed splitters: Cantor-Zassenhaus by seeded
    random draws only, on a monic coefficient list."""
    f = UPoly(PrimeField(p), poly)
    deg = len(f.coeffs) - 1
    if deg == d:
        return [list(f.coeffs)]
    e = (p**d - 1) // 2
    while True:
        r = UPoly(f.field, [rng.randrange(p) for _ in range(deg)])
        h = UPoly(f.field, curves._poly_powmod(list(r.coeffs), e, list(f.coeffs), p))
        for g in (r.gcd(f), (h - 1).gcd(f)):
            if 0 < len(g.coeffs) - 1 < deg:
                return (_cz_random_split(list(g.coeffs), d, rng, p)
                        + _cz_random_split(list(divmod(f, g)[0].coeffs), d, rng, p))


@pytest.mark.parametrize("p,l", [(3, 2), (3, 3), (5, 3), (7, 3)])
def test_fixed_splitters_keep_the_z0_factors(p, l, monkeypatch):
    field = PrimeField(p)
    got = [pl.phi for pl in z0_places(RaynaudPlane(field, l))]
    prod = UPoly(field, (1,))
    for f in got:
        prod = prod * UPoly(field, f)
    assert prod.coeffs == tuple(curves._w(RaynaudPlane(field, l)))
    monkeypatch.setattr(curves, "_equal_degree_split", _cz_random_split)
    assert got == [pl.phi for pl in z0_places(RaynaudPlane(field, l))]


def test_random_draws_split_what_no_fixed_splitter_does():
    # every X + a has one quadratic character at the roots of both cubics
    f, g = UPoly(F5, [1, 0, 1, 1]), UPoly(F5, [4, 1, 2, 1])
    fg = list((f * g).coeffs)
    for a in range(5):
        h = UPoly(F5, curves._poly_powmod([a, 1], (5**3 - 1) // 2, fg, 5)) - 1
        assert len(h.gcd(f * g).coeffs) - 1 in (0, 6)
    out = curves._equal_degree_split(fg, 3, random.Random(0), 5)
    assert sorted(tuple(h) for h in out) == sorted([f.coeffs, g.coeffs])


def _det(rows):
    """Determinant over F_p(x) by Gaussian elimination on RatFunc entries."""
    rows, det = [list(r) for r in rows], 1
    for k in range(len(rows)):
        piv = next(i for i in range(k, len(rows)) if not rows[i][k].is_zero)
        if piv != k:
            rows[k], rows[piv], det = rows[piv], rows[k], -det
        det = det * rows[k][k]
        for r in rows[k + 1 :]:
            c = r[k] / rows[k][k]
            r[k:] = [u - c * v for u, v in zip(r[k:], rows[k][k:])]
    return det


@pytest.mark.parametrize("name", ORACLE_IDS)
@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_inverse_determinant_is_the_norm(name, data):
    """The det of the fraction-free solve is the determinant of the
    multiplication-by-a matrix, up to a constant and a power of x: the
    Bareiss divisions leave no extra factor of earlier pivots."""
    curve = ORACLE_CURVES[name]
    d, field = curve.ext_degree, curve.field
    a = data.draw(oracle_elements(curve, nonzero=True))
    num = a * UPoly(field, a._den)  # the integral vector a._num as an element
    _, det = curves._inverse(num._num, curve.algebra())
    cols = [num]
    while len(cols) < d:
        cols.append(cols[-1] * curve.y_elem())
    ratio = RatFunc(field, UPoly(field, det)) / _det([[c.comps[i] for c in cols] for i in range(d)])
    assert all(sum(1 for c in u.coeffs if c) == 1 for u in (ratio.num, ratio.den))


FRESH = {
    "p1-5": lambda: line(5, 0, 1, INF),
    "ell-5,1,2": lambda: Weierstrass(F5, 1, 2),
    "ray-3,2": lambda: RaynaudPlane(F3, 2),
    "ray-5,1": lambda: RaynaudPlane(F5, 1),
}


def _complete_candidates(curve):
    """Functions f whose df has its divisor on the rational candidate places."""
    x = curve.x_elem()
    if curve.model == "p1":  # df has one finite zero besides 0 and 1
        fs = [x ** a * (x - 1) ** b for a in range(-2, 3) for b in range(-2, 3)]
        return [f for f in fs if not f.derivative().is_zero]
    y = curve.y_elem()
    if curve.model == "ell":
        return [y ** -1, x ** 3 * y ** -2, x ** -2 * y, x ** -2 * y ** 3]
    return [y ** b for b in (-2, -1, 1, 2)] + [x / y, y / x, x ** 2 / y ** 2]


class TestPrecisionRule:
    """Valuations double from the branch's length, so where they start (the
    first rung, which a caller may lengthen) changes no answer."""

    @pytest.mark.parametrize("name", sorted(FRESH))
    @settings(max_examples=8, deadline=None)
    @given(data=st.data())
    def test_first_rung_changes_no_valuation(self, name, data):
        base = ORACLE_CURVES[name]
        f = data.draw(st.sampled_from(_complete_candidates(base)))
        f = data.draw(st.integers(1, base.p - 1)) * f + data.draw(st.integers(0, base.p - 1))
        g = data.draw(oracle_elements(base, nonzero=True))
        rung = data.draw(st.integers(4, 1200))
        seen = []
        for prec in (None, rung):
            curve = FRESH[name]()
            places = default_places(curve)
            for pl in places:
                if prec and isinstance(pl, SeriesBranch):
                    pl.lengthen(prec)
            div, complete = divisor_of_differential(d_of(FFElem(curve, f.comps)), places)
            assert complete and div.degree() == 2 * curve.genus() - 2
            seen.append((div, [valuation(FFElem(curve, g.comps), pl) for pl in places]))
        assert seen[0] == seen[1]
        if curve.model == "p1":
            r = g.comps[0]
            assert seen[0][1] == [r.valuation_at(pl.point) for pl in places]

    def test_forced_zero_expansion_hits_the_cap(self, monkeypatch):
        # B(x) = 4 * 1 + 3 * 5 = 19 on (5, 1): the rungs 8, 16 and 32
        curve = RaynaudPlane(F5, 1)
        pinf = raynaud_p_inf(curve)
        # the numerator is 0 to O(t^n) at every rung, over a unit denominator
        monkeypatch.setattr(SeriesBranch, "_parts",
                            lambda br, f, n: (TruncSeries.zero(curve.field, br.key, n),
                                              TruncSeries.const(curve.field, br.key, 1)))
        with pytest.raises(InsufficientPrecision) as err:
            pinf.valuation_of(curve.x_elem())
        msg = str(err.value)
        assert msg.startswith("curves:") and str(pinf.key) in msg and "O(t^32)" in msg


# ---------------------------------------------------------------------------
# one fraction storage: arithmetic reads coefficient tuples; no arithmetic
# builds a UPoly, and nothing below the parser builds a RatFunc

STORAGE_OPS = {
    "add": lambda a, b: a + b,
    "sub": lambda a, b: a - b,
    "mul": lambda a, b: a * b,
    "times int": lambda a, b: a * 3,
    "truediv": lambda a, b: a / b,
    "pow 3": lambda a, b: a**3,
    "pow -2": lambda a, b: a**-2,
    "inverse": lambda a, b: a.inverse(),
    "derivative": lambda a, b: a.derivative(),
    "dlog": lambda a, b: a.dlog(),
    "pth_power": lambda a, b: a.pth_power(),
    "pth_root": lambda a, b: a.pth_root(),
    "root of a power": lambda a, b: a.pth_power().pth_root(),
    "eq": lambda a, b: (a == b, a == a, a == 2),
    "hash": lambda a, b: (hash(a), hash(a - a + 2)),  # a constant hashes as a UPoly
}


def _storage_pairs():
    """(a, b) pairs with poles and, off the line, y-parts, on fresh curves."""
    def rat(field, num, den):
        return RatFunc(field, UPoly(field, num), UPoly(field, den))

    pairs = [(rat(F5, [1, 2], [3, 0, 1]), rat(F5, [0, 4, 1], [1, 1]))]
    for curve in (line(5, 0, 1, INF), Weierstrass(F5, 1, 1), RaynaudPlane(F3, 2)):
        field, d = curve.field, curve.ext_degree
        a = FFElem(curve, [rat(field, [1, k], [k + 1, 0, 1]) for k in range(d)])
        b = FFElem(curve, [rat(field, [2, 0, k], [1, 1]) for k in range(d)][::-1])
        pairs.append((a, b))
    return pairs


def test_arithmetic_builds_no_upoly(monkeypatch):
    want = {(i, name): op(a, b) for i, (a, b) in enumerate(_storage_pairs())
            for name, op in STORAGE_OPS.items()}
    pairs = _storage_pairs()  # fresh curves: their data is built under the refusal

    def refuse(self, *args):
        raise AssertionError("a UPoly built inside the arithmetic")
    monkeypatch.setattr(UPoly, "__init__", refuse)
    for i, (a, b) in enumerate(pairs):
        for name, op in STORAGE_OPS.items():
            assert op(a, b) == want[i, name], name
    # nor does any pipeline below the parser build a UPoly or a RatFunc:
    # with both refused, each renders the bytes of an unrefused run
    monkeypatch.undo()
    want = [run() for run in _pipelines()]
    runs = _pipelines()  # fresh curves, the jobs parsed before the refusal

    def refuse_rat(self, *args):
        raise AssertionError("a RatFunc built below the parser")
    monkeypatch.setattr(UPoly, "__init__", refuse)
    monkeypatch.setattr(RatFunc, "_set", refuse_rat)
    assert [run() for run in runs] == want


# jobs whose curves and payloads the parser builds, before the refusal
PIPELINE_JOBS = (
    # a rank-2 p-curvature on the line
    "cmd=pcurv\np1 p=3 marks=0,1,inf\nconn rank=2 bundle=triv\n1 / 2 1\n0\n1 / 0 1\n0",
    # f = xy on (3, 2): its divisor names z = 0 places of degrees 1 and 4
    "cmd=tango-certify\nmode=machine\nraynaud p=3 l=2\nf 0 ; 0 1",
    # the (3, 2) surface of f = -1/y, built and validated
    "cmd=raynaud\naction=build\nraynaud p=3 l=2\nN=3\n"
    "f 2 / 0 0 0 0 0 0 1 ; 0 / 1 ; 0 / 1 ; 0 / 1 ; 2 / 0 0 0 0 0 1",
    "cmd=raynaud\naction=validate\nraynaud p=3 l=2\nN=3\n"
    "f 2 / 0 0 0 0 0 0 1 ; 0 / 1 ; 0 / 1 ; 0 / 1 ; 2 / 0 0 0 0 0 1",
)


def _pipelines():
    """Thunks of the pipelines below the parser, each on fresh curves and
    freshly parsed jobs, giving what it renders."""
    from dormant.cli import parse_job, run_job
    from dormant.connections import (
        LogConnection,
        canonical_connection,
        p_curvature,
        residue_pcurvature_identity,
    )
    from dormant.moduli import enumerate_flat, sweep_genus0

    specs = [parse_job(text) for text in PIPELINE_JOBS]
    line_job = parse_job(PIPELINE_JOBS[0])  # its p-curvature has nonzero p-residues
    ell, ray = Weierstrass(F7, 0, 5), RaynaudPlane(F5, 3)
    return [
        lambda: [r.render() for r in sweep_genus0(5, 4)],
        lambda: enumerate_flat(ell).render(),
        lambda: p_curvature(canonical_connection(Weierstrass(F5, 3, 0))).scalar().render(),
        *(lambda spec=spec: run_job(spec) for spec in specs),
        lambda: repr(residue_pcurvature_identity(
            LogConnection(line_job.curve, line_job.blocks[0].matrix))),
        lambda: Divisor([(pl, 1) for pl in z0_places(ray)]).render(),
    ]


def test_z0_places_render_by_their_factor():
    # a z = 0 place is named by its irreducible factor of X^q - X
    curve = RaynaudPlane(F3, 2)
    div = Divisor([(pl, 1) for pl in z0_places(curve)])
    assert div.render() == "1*z0[0 1] + 1*z0[1 1 1 1 1] + 1*z0[2 1]"
