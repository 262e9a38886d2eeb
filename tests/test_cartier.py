"""Cartier operator and pre-Tango certification."""
from __future__ import annotations

import random

import pytest

from dormant import curves
from dormant.cartier import (
    CartierOutput,
    cartier_curve,
    decide_pre_tango,
    is_pre_tango,
    pretango_from_tango,
    tango_from_pretango,
)
from dormant.connections import (
    LogConnection,
    canonical_connection,
    omega_frame_differential,
    omega_label,
    omega_log_label,
    p_curvature,
    solve_dlog,
    trivial_label,
)
from dormant.curves import (
    INF,
    Differential,
    FFElem,
    P1Marked,
    RaynaudPlane,
    Weierstrass,
    branch_at,
    d_of,
)
from dormant.errors import (
    CandidateIsPthPower,
    NoRationalGenerator,
    NotExactOnChart,
    NotFlat,
    NotOmegaBundle,
    NotPreTango,
    ReconstructionFailure,
)
from dormant.field import PrimeField, RatFunc, TruncSeries, UPoly, _trim

F3 = PrimeField(3)
F5 = PrimeField(5)
F7 = PrimeField(7)


def ratx(field):
    """x as a RatFunc over field."""
    return RatFunc(field, UPoly(field, (0, 1)))


def line(p, *marks):
    return P1Marked(PrimeField(p), marks)


ORACLE_CURVES = {
    "p1-5": line(5, 0, INF),
    "p1-7": line(7, 0, 1, INF),
    "ell-5": Weierstrass(F5, 1, 1),
    "ell-7": Weierstrass(F7, 3, 0),
    "ray-3-2": RaynaudPlane(F3, 2),
    "ray-5-1": RaynaudPlane(F5, 1),
}


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


def rand_ratfunc(rng, field, dn=3, dd=2):
    num = UPoly(field, [rng.randrange(field.p) for _ in range(dn + 1)])
    den = UPoly(field, [rng.randrange(field.p) for _ in range(dd)] + [1])
    return RatFunc(field, num, den)


class TestCartierLine:
    def test_dlog_is_fixed(self):
        curve = line(5, 0, INF)
        x = ratx(F5)
        for form in (1 / x, 1 / (x - 2), 3 / x):
            out = cartier_curve(Differential(curve, form))
            assert out.image.h == FFElem(curve, (form,))
            assert not out.is_exact

    def test_power_rule(self):
        curve = line(5, 0, INF)
        x = ratx(F5)
        out = cartier_curve(Differential(curve, x**4))
        assert out.image.h == curve.ff_const(1)
        out = cartier_curve(Differential(curve, x**9))
        assert out.image.h == FFElem(curve, (x,))
        for i in (0, 1, 2, 3, 5, 6):
            assert cartier_curve(Differential(curve, x**i)).is_exact

    def test_kills_derivatives(self):
        rng = random.Random(0)
        curve = line(5, 0, INF)
        for _ in range(8):
            f = rand_ratfunc(rng, F5)
            out = cartier_curve(Differential(curve, f.derivative()))
            assert out.is_exact

    def test_antiderivative_roundtrip(self):
        rng = random.Random(0)
        curve = line(7, 0, INF)
        for _ in range(6):
            f = rand_ratfunc(rng, F7)
            omega = Differential(curve, f.derivative())
            g = cartier_curve(omega).antiderivative()
            assert g.derivative() == FFElem(curve, (f.derivative(),))

    def test_semilinear(self):
        rng = random.Random(0)
        curve = line(5, 0, INF)
        for _ in range(5):
            g = rand_ratfunc(rng, F5, dn=2, dd=1)
            w = rand_ratfunc(rng, F5)
            lhs = cartier_curve(Differential(curve, g.pth_power() * w)).image
            rhs = cartier_curve(Differential(curve, w)).image.scale(FFElem(curve, (g,)))
            assert lhs.h == rhs.h

    def test_additive(self):
        rng = random.Random(1)
        curve = line(3, 0, INF)
        a = rand_ratfunc(rng, F3)
        b = rand_ratfunc(rng, F3)
        lhs = cartier_curve(Differential(curve, a + b)).image
        rhs = cartier_curve(Differential(curve, a)).image + cartier_curve(
            Differential(curve, b)
        ).image
        assert lhs.h == rhs.h

    def test_inexact_antiderivative_raises(self):
        curve = line(5, 0, INF)
        x = ratx(F5)
        out = cartier_curve(Differential(curve, 1 / x))
        with pytest.raises(NotExactOnChart):
            out.antiderivative()

    def test_local_series_rule_matches(self):
        curve = line(5, 0, 2, INF)
        x = ratx(F5)
        h = 1 / x + 3 / (x - 2) + x**4 + x**2
        omega = Differential(curve, h)
        image = cartier_curve(omega).image
        for mark in (0, 2):
            br = branch_at(curve, mark, 40)
            local = cartier_series(br.expand(omega), 5)
            direct = br.expand(image)
            prec = min(local.prec, direct.prec)
            assert local.truncate(prec) == direct.truncate(prec)


class TestCartierCurve:
    def test_hasse_action_on_invariant_form(self):
        for p, a, b, expect in ((5, 1, 1, 2), (5, 3, 0, 1), (3, 1, 0, 0), (7, 0, 1, 3)):
            curve = Weierstrass(PrimeField(p), a, b)
            assert curve.hasse() == expect
            delta = Differential(curve, curve.y_elem().inverse())
            out = cartier_curve(delta)
            assert out.image.h == curve.y_elem().inverse() * expect

    def test_supersingular_invariant_is_exact(self):
        curve = Weierstrass(F3, 1, 0)
        delta = Differential(curve, curve.y_elem().inverse())
        f = cartier_curve(delta).antiderivative()
        assert f.derivative() == curve.y_elem().inverse()

    def test_kills_derivatives_on_curves(self):
        ell = Weierstrass(F5, 1, 2)
        ray = RaynaudPlane(F5, 1)
        for curve in (ell, ray):
            x, y = curve.x_elem(), curve.y_elem()
            for f in (x, y, x * y, y.inverse(), x**3 + y):
                assert cartier_curve(d_of(f)).is_exact

    def test_semilinear_on_curve(self):
        curve = Weierstrass(F5, 1, 1)
        x, y = curve.x_elem(), curve.y_elem()
        g = x + y
        w = y.inverse()
        lhs = cartier_curve(Differential(curve, g ** 5 * w)).image
        rhs = cartier_curve(Differential(curve, w)).image.scale(g)
        assert lhs.h == rhs.h

    def test_raynaud_certificate_form_is_exact(self):
        curve = RaynaudPlane(F5, 1)
        eta = omega_frame_differential(omega_label(curve))
        out = cartier_curve(eta)
        assert out.is_exact
        g = out.antiderivative()
        assert g.derivative() == eta.h

    @pytest.mark.parametrize("curve", [Weierstrass(F5, 1, 1), RaynaudPlane(F3, 2)],
                             ids=["ell", "raynaud"])
    def test_corrupt_zbasis_is_caught(self, curve, monkeypatch):
        # the z-basis of a form with a y-part is the one thing the step
        # checks, so a wrong S_0 must not pass
        h = curve.x_elem() + curve.y_elem()
        assert cartier_curve(Differential(curve, h)).spreads
        zvec = FFElem._zvec

        def corrupt(self):
            s, e = zvec(self)
            s[0] = list(s[0]) + [1]
            return s, e

        monkeypatch.setattr(FFElem, "_zvec", corrupt)
        with pytest.raises(ReconstructionFailure):
            cartier_curve(Differential(curve, h))

    @pytest.mark.parametrize("name", list(ORACLE_CURVES))
    def test_split_oracle(self, name):
        # on x-only forms and, off the line, forms with a y-part: the
        # components sliced from the spreads recombine to h, and the
        # antiderivative of dh differentiates back to h'
        curve = ORACLE_CURVES[name]
        rng = random.Random(name)
        p, x = curve.p, curve.x_elem()
        for parts in [1] * 8 + [2] * 8 * (curve.ext_degree > 1):
            h = FFElem(curve, (rand_ratfunc(rng, curve.field, 2, 1) for _ in range(parts)))
            out = cartier_curve(Differential(curve, h))
            total = curve.ff_const(0)
            for i in range(p):
                hi = FFElem._make(curve, [_trim(s[i::p]) for s in out.spreads], out.den)
                total = total + hi.pth_power() * x**i
            assert total == h
            assert cartier_curve(d_of(h)).antiderivative().derivative() == h.derivative()

    def test_xonly_form_builds_no_y_over_z(self, monkeypatch):
        def boom(curve):
            raise AssertionError("y over z built for an x-only form")

        monkeypatch.setattr(curves, "_y_over_z", boom)
        curve = RaynaudPlane(F5, 1)
        x = curve.x_elem()
        out = cartier_curve(Differential(curve, x**9 + 1))
        assert out.image.h == x and not out.is_exact
        out = cartier_curve(Differential(curve, x**3 + 1))
        assert out.is_exact and out.antiderivative().derivative() == x**3 + 1

    def test_xonly_antiderivative_makes_no_algebra_product(self, monkeypatch):
        # the empty top numerators of an x-only form are dropped before the
        # Horner sum in z = y^p, so no product with y^p is taken
        curve = RaynaudPlane(F7, 2)
        out = cartier_curve(Differential(curve, curve.x_elem() ** 3 + 1))
        calls = []
        vmul = curves._vmul
        monkeypatch.setattr(curves, "_vmul", lambda *a: calls.append(a) or vmul(*a))
        assert out.antiderivative().render() == "0 1 0 0 2 / 1" + " ; 0 / 1" * 12
        assert calls == []

    def test_verdict_builds_no_element(self, monkeypatch):
        made = []
        make = FFElem._make.__func__

        def counted(cls, *args, **kw):
            made.append(cls)
            return make(cls, *args, **kw)

        for curve in (line(5, 0, INF), Weierstrass(F5, 1, 1), RaynaudPlane(F3, 2)):
            x = curve.x_elem()
            omega = Differential(curve, x**4 / (x + 1))
            monkeypatch.setattr(FFElem, "_make", classmethod(counted))
            out = cartier_curve(omega)
            assert not out.is_exact
            assert made == []
            out.image
            assert made == [FFElem]
            monkeypatch.undo()
            made.clear()

    def test_line_route_agrees(self):
        # (x^6 + 1)/x dx = x^5 dx + (1/x)^5 x^4 dx over F_5, so C gives dx/x
        curve = line(5, 0, INF)
        x = ratx(F5)
        omega = Differential(curve, (x**6 + 1) / x)
        assert cartier_curve(omega).image.h == FFElem(curve, (1 / x,))


class TestPreTango:
    def test_genus0_p3_frozen_labels(self):
        curve = line(3, 0, 1, INF)
        lab = omega_log_label(curve)
        x = ratx(F3)
        good = LogConnection(curve, [[2 / x + 2 / (x - 1)]], lab)
        assert is_pre_tango(good) is True
        bad = LogConnection(curve, [[2 / x]], lab)
        assert is_pre_tango(bad) is False

    def test_genus0_p3_exhaustive_rule(self):
        # a residue profile over three marks is pre-Tango exactly when its
        # lifted labels sum to 2p - 1
        curve = line(3, 0, 1, INF)
        lab = omega_log_label(curve)
        x = ratx(F3)
        hits = []
        for m0 in range(3):
            for m1 in range(3):
                conn = LogConnection(
                    curve, [[m0 / x + m1 / (x - 1)]], lab
                )
                minf = (-(m0 + m1) - 1) % 3
                verdict = is_pre_tango(conn)
                assert verdict == (m0 + m1 + minf == 5)
                if verdict:
                    hits.append((m0, m1, minf))
        assert hits == [(1, 2, 2), (2, 1, 2), (2, 2, 1)]

    def test_tango_function_on_line(self):
        curve = line(3, 0, 1, INF)
        lab = omega_log_label(curve)
        x = ratx(F3)
        conn = LogConnection(curve, [[2 / x + 2 / (x - 1)]], lab)
        f = tango_from_pretango(conn)
        assert f.derivative() == curve.ff_const(1)

    def test_roundtrip_on_line(self):
        curve = line(3, 0, 1, INF)
        lab = omega_log_label(curve)
        x = ratx(F3)
        conn = LogConnection(curve, [[2 / x + 2 / (x - 1)]], lab)
        f = tango_from_pretango(conn)
        back = pretango_from_tango(lab, f)
        assert back.scalar() == conn.scalar()
        assert back.label == conn.label

    def test_not_pretango_raises_on_extraction(self):
        curve = line(3, 0, 1, INF)
        lab = omega_log_label(curve)
        x = ratx(F3)
        conn = LogConnection(curve, [[2 / x]], lab)
        with pytest.raises(NotPreTango):
            tango_from_pretango(conn)

    def test_ordinary_elliptic_classes(self):
        curve = Weierstrass(F5, 3, 0)
        lab = omega_label(curve)
        yinv = curve.y_elem().inverse()
        verdicts = [
            is_pre_tango(LogConnection(curve, [[yinv * w]], lab))
            for w in range(5)
        ]
        assert verdicts == [False, True, True, True, True]

    def test_supersingular_invariant_class(self):
        curve = Weierstrass(F3, 1, 0)
        lab = omega_label(curve)
        conn = LogConnection(curve, [[0]], lab)
        assert is_pre_tango(conn) is True

    def test_hasse_two_curve(self):
        curve = Weierstrass(F5, 1, 1)
        lab = omega_label(curve)
        yinv = curve.y_elem().inverse()
        assert is_pre_tango(LogConnection(curve, [[0]], lab)) is False
        with pytest.raises(NotFlat):
            is_pre_tango(LogConnection(curve, [[yinv]], lab))

    def test_formal_certificate_agrees_with_rational_route(self):
        # when a rational generator exists, the Cartier step on the
        # generator read off the p-curvature powering gives its verdict
        for p, a, b, expect in ((5, 1, 1, False), (3, 1, 0, True)):
            curve = Weierstrass(PrimeField(p), a, b)
            lab = omega_label(curve)
            conn = LogConnection(curve, [[0]], lab)
            eta = omega_frame_differential(lab)
            assert is_pre_tango(conn) is expect
            u = p_curvature(conn).horizontal
            assert cartier_curve(eta.scale(u)).is_exact is is_pre_tango(conn)

    @pytest.mark.parametrize("p, l", [(3, 2), (5, 1), (3, 3)])
    @pytest.mark.parametrize("unit", ["1+xy", "1+y", "x+y"])
    def test_formal_certificate_on_the_one_point_model(self, p, l, unit):
        # a = -dlog u has the horizontal generator u, but the monomial
        # search of solve_dlog misses it, so the verdict comes from the
        # generator of the p-curvature powering; the global Cartier step on
        # u eta is the independent check
        curve = RaynaudPlane(PrimeField(p), l)
        x, y = curve.x_elem(), curve.y_elem()
        u = {"1+xy": x * y + 1, "1+y": y + 1, "x+y": x + y}[unit]
        lab = omega_label(curve)
        conn = LogConnection(curve, [[-u.dlog()]], lab)
        with pytest.raises(NoRationalGenerator):
            solve_dlog(curve, u.dlog())
        out = decide_pre_tango(conn)
        expect = cartier_curve(omega_frame_differential(lab).scale(u)).is_exact
        assert out.is_exact is expect
        assert expect is (unit == "1+xy")

    def test_raynaud_roundtrip(self):
        curve = RaynaudPlane(F5, 1)
        lab = omega_label(curve)
        f = -curve.y_elem().inverse()
        conn = pretango_from_tango(lab, f)
        assert conn.scalar().is_zero
        assert is_pre_tango(conn) is True
        f2 = tango_from_pretango(conn)
        assert f2.derivative() == f.derivative()

    def test_wrong_label_rejected(self):
        curve = line(3, 0, 1, INF)
        conn = LogConnection(curve, [[0]], trivial_label(curve))
        with pytest.raises(NotOmegaBundle):
            is_pre_tango(conn)

    def test_pth_power_candidate_rejected(self):
        curve = line(5, 0, 1, INF)
        lab = omega_log_label(curve)
        x = ratx(F5)
        with pytest.raises(CandidateIsPthPower):
            pretango_from_tango(lab, FFElem(curve, (x**5,)))
