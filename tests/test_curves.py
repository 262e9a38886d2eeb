"""Curve models, function-field arithmetic, branches and divisors."""
from __future__ import annotations

import random

import pytest

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
    genus,
    is_ordinary,
    raynaud_p_inf,
    raynaud_smoothness_report,
    series_expand,
    valuation,
    xz_components,
    z0_places,
)
from dormant.errors import SemanticError, ZeroElement
from dormant.field import PrimeField, RatFunc, UPoly

F3 = PrimeField(3)
F5 = PrimeField(5)
F7 = PrimeField(7)


def line(p, *marks):
    return P1Marked(PrimeField(p), marks)


class TestConstructors:
    def test_genus_values(self):
        assert genus(line(5, 0, 1, INF)) == 0
        assert genus(Weierstrass(F5, 1, 1)) == 1
        assert genus(RaynaudPlane(F5, 1)) == 6
        assert genus(RaynaudPlane(F3, 2)) == 10

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
        ordinary, h = is_ordinary(Weierstrass(F5, 1, 1))
        assert ordinary and h == 2
        ordinary, h = is_ordinary(Weierstrass(F3, 1, 0))
        assert not ordinary and h == 0
        ordinary, h = is_ordinary(Weierstrass(F7, 0, 1))
        assert ordinary and h == 3

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
        # is_ordinary returns a pair, so only its first entry is the verdict
        assert is_ordinary(Weierstrass(PrimeField(p), a, b))[0]

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
        x = RatFunc.x(F3)
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
            f = curve.ff(*comps)
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
        c_prime = curve.c_poly().derivative()
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
                f = curve.ff(*comps) + curve.x_elem() * rng.randrange(1, curve.p)
                g = f.pth_power()
                assert g.pth_root() == f

    def test_root_of_non_power_is_none(self):
        for curve in (Weierstrass(F5, 1, 1), RaynaudPlane(F5, 1)):
            assert curve.x_elem().pth_root() is None
            assert curve.y_elem().pth_root() is None

    def test_pth_power_is_frobenius_on_values(self):
        curve = Weierstrass(F5, 1, 1)
        f = curve.x_elem() * curve.y_elem() + 2
        g = f.pth_power()
        for pt in curve.rational_points():
            if pt == INF:
                continue
            assert g.evaluate(pt) == pow(f.evaluate(pt), 5, 5)

    def test_dlog_additive(self):
        curve = Weierstrass(F7, 1, 3)
        f = curve.x_elem()
        g = curve.y_elem() + 2
        assert (f * g).dlog() == f.dlog() + g.dlog()


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
        assert raynaud_smoothness_report(RaynaudPlane(F5, 1))
        assert raynaud_smoothness_report(RaynaudPlane(F3, 2))

    def test_xz_components_of_y(self):
        curve = RaynaudPlane(F5, 1)
        comps = xz_components(curve, curve.y_elem())
        # y = 1/Z = Z^(q-2) / (X^q - X)
        w = UPoly(F5, [0, -1, 0, 0, 0, 1])
        nonzero = [(k, c) for k, c in enumerate(comps) if not c.is_zero]
        assert len(nonzero) == 1
        k, c = nonzero[0]
        assert k == curve.q - 2
        assert c == RatFunc(F5, UPoly.one(F5), w)


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
        x = RatFunc.x(F5)
        s = series_expand(curve.ff(1 / x), br, 6)
        assert s.valuation() == -1
        assert s.coeff(-1) == 1

    def test_infinity_branch(self):
        curve = line(5, 0, 1, INF)
        br = branch_at(curve, INF, 10)
        s = br.expand(curve.x_elem(), 6)
        assert s.valuation() == -1

    def test_form_residue(self):
        curve = line(7, 0, 1, INF)
        x = RatFunc.x(F7)
        h = curve.ff(3 / x + 2 / (x - 1))
        assert branch_at(curve, 0, 8).form_residue(h) == 3
        assert branch_at(curve, 1, 8).form_residue(h) == 2
        assert branch_at(curve, INF, 8).form_residue(h) == 2

    def test_log_form_divisor(self):
        curve = line(5, 0, 1, INF)
        x = RatFunc.x(F5)
        omega = Differential(curve, curve.ff(1 / (x * (x - 1))))
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
            valuation(curve.ff(0), branch_at(curve, 0, 8))


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
        m = curve.minpoly()
        assert isinstance(m, tuple) and m is curve.minpoly()
        assert len(m) == curve.ext_degree + 1 and m[-1] == RatFunc.one(curve.field)
        with pytest.raises((TypeError, AttributeError)):
            m[0] = m[-1]
