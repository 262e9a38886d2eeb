"""Divisor certificates: floor quotients, exact divisibility, searches."""
from __future__ import annotations

import pytest

from dormant.curves import (
    INF,
    Divisor,
    P1Marked,
    RaynaudPlane,
    Weierstrass,
    branch_at,
    raynaud_p_inf,
)
from dormant.errors import (
    CandidateIsPthPower,
    CurveMismatch,
    IncompleteDivisor,
    InvalidCertificate,
    NotDivisibleByP,
    PNotDividing2gMinus2,
    PremiseViolated,
)
from dormant.field import PrimeField
from dormant.tango import (
    TangoCertificate,
    build_generalized_tango,
    certify_tango_structure,
    default_places,
    search_tango_candidates,
    tango_invariant_lower_bound,
)


def p1(p):
    return P1Marked(PrimeField(p), (0,))


class TestFloorDiv:
    def test_floor_on_mixed_signs(self):
        curve = p1(5)
        b0 = branch_at(curve, 0, 8)
        binf = branch_at(curve, INF, 8)
        d = Divisor([(b0, 7), (binf, -3)])
        q = d.floor_div(5)
        assert q.coeff(b0) == 1
        # -3/5 rounds toward minus infinity
        assert q.coeff(binf) == -1
        assert q.degree() == 0


class TestRaynaudCertificates:
    def test_l1_lower_bound(self):
        curve = RaynaudPlane(PrimeField(5), 1)
        f = -(curve.y_elem() ** -1)
        assert tango_invariant_lower_bound(curve, f) == 2

    def test_l1_certificate(self):
        curve = RaynaudPlane(PrimeField(5), 1)
        f = -(curve.y_elem() ** -1)
        cert = certify_tango_structure(curve, f)
        assert cert.value == 2
        assert cert.is_exact
        pinf = raynaud_p_inf(curve, 40)
        assert cert.divisor.coeff(pinf) == 10
        assert cert.quotient.coeff(pinf) == 2
        assert cert.divisor.degree() == 10
        assert cert.verify()

    def test_l1_polynomial_twin_same_divisor(self):
        # -1/y and its polynomial reduction differ by a p-th power, so the
        # differentials agree and the certificates match
        curve = RaynaudPlane(PrimeField(5), 1)
        x, y = curve.x_elem(), curve.y_elem()
        f1 = -(y ** -1)
        f2 = -x * y**2 + x**2 * y**5 - x**3 * y**8 + x**4 * y**11
        c1 = certify_tango_structure(curve, f1)
        c2 = certify_tango_structure(curve, f2)
        assert c1.divisor == c2.divisor
        assert c1.value == c2.value == 2

    def test_candidate_on_an_equal_curve(self):
        # curves compare by equality, not identity; unequal ones are refused
        f = -(RaynaudPlane(PrimeField(5), 1).y_elem() ** -1)
        curve = RaynaudPlane(PrimeField(5), 1)
        cert = certify_tango_structure(curve, f)
        assert cert.value == 2 and cert.is_exact
        assert cert.divisor == certify_tango_structure(f.curve, f).divisor
        with pytest.raises(CurveMismatch):
            certify_tango_structure(RaynaudPlane(PrimeField(5), 2), f)

    def test_scaling_preserves_divisor(self):
        curve = RaynaudPlane(PrimeField(5), 1)
        f = -(curve.y_elem() ** -1)
        c1 = certify_tango_structure(curve, f)
        c2 = certify_tango_structure(curve, curve.ff_const(2) * f)
        assert c1.divisor == c2.divisor

    def test_l2_certificate(self):
        curve = RaynaudPlane(PrimeField(3), 2)
        f = -(curve.y_elem() ** -1)
        cert = certify_tango_structure(curve, f)
        assert cert.value == 6
        assert cert.is_exact
        pinf = raynaud_p_inf(curve, 60)
        assert cert.divisor.coeff(pinf) == 18
        assert cert.divisor.degree() == 18

    def test_tampered_divisor_detected(self):
        curve = RaynaudPlane(PrimeField(5), 1)
        f = -(curve.y_elem() ** -1)
        cert = certify_tango_structure(curve, f)
        bad = TangoCertificate(curve, cert.f, cert.divisor.times(2), cert.quotient)
        with pytest.raises(InvalidCertificate):
            bad.verify()

    def test_tampered_quotient_detected(self):
        curve = RaynaudPlane(PrimeField(5), 1)
        f = -(curve.y_elem() ** -1)
        cert = certify_tango_structure(curve, f)
        bad = TangoCertificate(curve, cert.f, cert.divisor, cert.quotient.times(2))
        with pytest.raises(InvalidCertificate):
            bad.verify()

    def test_render_tags_exact_certificates(self):
        curve = RaynaudPlane(PrimeField(5), 1)
        cert = certify_tango_structure(curve, -(curve.y_elem() ** -1))
        assert cert.render().startswith("tango value=2")


class TestEllipticAndLine:
    def test_supersingular_value_zero_structure(self):
        # on y^2 = x^3 + x over F_3 the candidate 2y has d(2y) = dx/y,
        # the nowhere vanishing differential: an exact structure of value 0
        curve = Weierstrass(PrimeField(3), 1, 0)
        f = curve.ff_const(2) * curve.y_elem()
        cert = certify_tango_structure(curve, f)
        assert cert.value == 0
        assert cert.is_exact
        assert cert.divisor.is_zero

    def test_ordinary_not_divisible(self):
        curve = Weierstrass(PrimeField(5), 3, 0)
        with pytest.raises(NotDivisibleByP) as exc:
            certify_tango_structure(curve, curve.y_elem())
        assert hasattr(exc.value, "branch")

    def test_ordinary_lower_bound_negative(self):
        curve = Weierstrass(PrimeField(5), 3, 0)
        assert tango_invariant_lower_bound(curve, curve.y_elem()) == -1

    def test_irrational_zeros_refuse(self):
        # d(x) vanishes at the two torsion points with x^2 = 2, which are
        # irrational over F_5
        curve = Weierstrass(PrimeField(5), 3, 0)
        with pytest.raises(IncompleteDivisor):
            tango_invariant_lower_bound(curve, curve.x_elem())

    def test_line_has_no_structure(self):
        curve = p1(5)
        with pytest.raises(PNotDividing2gMinus2):
            certify_tango_structure(curve, curve.x_elem())

    def test_pth_power_rejected(self):
        curve = p1(5)
        with pytest.raises(CandidateIsPthPower):
            tango_invariant_lower_bound(curve, curve.x_elem() ** 5)


class TestGeneralized:
    def test_l1_premise_fails(self):
        # 2g - 2 = 10 is not a multiple of p(p-1) = 20
        curve = RaynaudPlane(PrimeField(5), 1)
        pinf = raynaud_p_inf(curve, 40)
        with pytest.raises(PremiseViolated):
            build_generalized_tango(
                curve, -(curve.y_elem() ** -1), Divisor([(pinf, 1)])
            )

    def test_l2_builds(self):
        # 2g - 2 = 18 = p(p-1) * 3 with N = 3 * P_inf
        curve = RaynaudPlane(PrimeField(3), 2)
        pinf = raynaud_p_inf(curve, 60)
        N = Divisor([(pinf, 3)])
        gt = build_generalized_tango(curve, -(curve.y_elem() ** -1), N)
        assert gt.N.degree() == 3
        assert gt.divisor == N.times(6)

    def test_l2_wrong_support(self):
        curve = RaynaudPlane(PrimeField(3), 2)
        wrong = Divisor([(branch_at(curve, (1, 2), 30), 3)])
        with pytest.raises(InvalidCertificate):
            build_generalized_tango(curve, -(curve.y_elem() ** -1), wrong)

    def test_constant_candidate_rejected(self):
        curve = RaynaudPlane(PrimeField(3), 2)
        pinf = raynaud_p_inf(curve, 60)
        with pytest.raises(CandidateIsPthPower):
            build_generalized_tango(curve, curve.ff_const(1), Divisor([(pinf, 3)]))


class TestSearch:
    def test_line_small_window(self):
        rep = search_tango_candidates(p1(5), 2)
        assert rep.tried == 4
        assert rep.skipped == 0
        assert rep.best_value == -1
        assert rep.maximizers == [(-2, 0), (-1, 0), (1, 0), (2, 0)]

    def test_line_pth_powers_skipped(self):
        rep = search_tango_candidates(p1(5), 5)
        assert rep.tried == 10
        assert rep.skipped == 2
        assert rep.best_value == -1
        assert len(rep.maximizers) == 8

    def test_raynaud_finds_structure(self):
        curve = RaynaudPlane(PrimeField(5), 1)
        rep = search_tango_candidates(curve, 1)
        assert rep.tried == 8
        assert rep.best_value == 2
        assert (0, -1) in rep.maximizers
        assert "best=2" in rep.render()

    def test_default_places_cover_models(self):
        assert len(default_places(p1(3))) == 4
        curve = Weierstrass(PrimeField(3), 1, 0)
        assert len(default_places(curve)) == len(curve.rational_points())
