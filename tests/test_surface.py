"""Gluing data of the fibered surface: construction, cocycles, probes."""
from __future__ import annotations

import pytest

from dormant import curves, surface
from dormant.curves import (
    Divisor,
    P1Marked,
    RaynaudPlane,
    branch_at,
    raynaud_p_inf,
    z0_places,
)
from dormant.errors import (
    NotExactOnChart,
    PremiseViolated,
    UnitFailure,
    UnsupportedCurve,
)
from dormant.field import PrimeField
from dormant.surface import (
    Chart,
    SurfaceGluingData,
    build_surface,
    default_covering,
    fiber_points,
    fiber_smoothness_probe,
    pathology_witness,
    random_fiber_samples,
    validate_cocycle,
)
from dormant.tango import (
    GeneralizedTango,
    build_generalized_tango,
    certify_tango_structure,
    default_places,
)


def tango32():
    curve = RaynaudPlane(PrimeField(3), 2)
    f = -(curve.y_elem() ** -1)
    pinf = raynaud_p_inf(curve, 24)
    return build_generalized_tango(curve, f, Divisor([(pinf, 3)]))


def three_chart_covering(gtc):
    # same affine complement twice, trivialized by two different
    # generators whose ratio x^6/y is a unit off the z = 0 places
    curve = gtc.curve
    x, y = curve.x_elem(), curve.y_elem()
    pinf = raynaud_p_inf(curve, 24)
    z0keys = tuple(pl.key for pl in z0_places(curve))
    return [
        Chart("minus-pinf", (pinf.key,), curve.ff_const(1)),
        Chart("affine", z0keys, x ** -3),
        Chart("affine-twisted", z0keys, y * x ** -9),
    ]


class TestBuild:
    def test_default_cover_frozen_data(self):
        gtc = tango32()
        curve = gtc.curve
        x, y = curve.x_elem(), curve.y_elem()
        data = build_surface(gtc)
        assert [c.name for c in data.charts] == ["minus-pinf", "affine"]
        assert data.curve_tag == "raynaud 3 2"
        assert data.fiber_tag == "y^2 z = x^3 + F*(t_alpha) z^3"
        assert data.t[0] == -(y ** -1)
        assert data.t[1] == -(y ** 4) / x ** 23
        u01, r01 = data.overlaps[(0, 1)]
        u10, r10 = data.overlaps[(1, 0)]
        assert u01 == x ** 3
        assert r01 == x ** -2
        assert u10 == x ** -3
        assert r10 == -(x ** -8)

    def test_chart_functions_integrate_the_twisted_form(self):
        gtc = tango32()
        p = gtc.curve.field.p
        data = build_surface(gtc)
        for chart, t in zip(data.charts, data.t):
            gen = chart.gen
            assert t.derivative() == (gen ** (p - 1)).pth_power() * gtc.f.derivative()

    def test_rebuild_is_deterministic(self):
        gtc = tango32()
        a = build_surface(gtc)
        b = build_surface(gtc)
        assert a.t == b.t
        assert set(a.overlaps) == set(b.overlaps)
        for k in a.overlaps:
            assert a.overlaps[k] == b.overlaps[k]

    def test_three_chart_cover(self):
        gtc = tango32()
        curve = gtc.curve
        x, y = curve.x_elem(), curve.y_elem()
        data = build_surface(gtc, three_chart_covering(gtc))
        assert data.t[2] == -(y ** 5) / x ** 54 + x ** -24
        u12, _ = data.overlaps[(1, 2)]
        assert u12 == x * y ** 4 + curve.ff_const(1)
        assert len(data.overlaps) == 6
        assert validate_cocycle(data)

    def test_single_chart_degenerates(self):
        gtc = tango32()
        x = gtc.curve.x_elem()
        z0keys = tuple(pl.key for pl in z0_places(gtc.curve))
        data = build_surface(gtc, [Chart("affine", z0keys, x ** -3)])
        assert data.overlaps == {}
        assert validate_cocycle(data)

    def test_render_mentions_every_field(self):
        data = build_surface(tango32())
        text = data.render()
        assert "surface over raynaud 3 2" in text
        assert "y^2 z = x^3 + F*(t_alpha) z^3" in text
        assert "chart 0 (minus-pinf)" in text
        assert "u_01" in text and "r_10" in text


class TestBuildErrors:
    def test_degree_premise(self):
        gtc = tango32()
        curve = gtc.curve
        pinf = raynaud_p_inf(curve, 24)
        bad = GeneralizedTango(
            curve, gtc.f, Divisor([(pinf, 1)]), gtc.divisor
        )
        with pytest.raises(PremiseViolated):
            build_surface(bad)

    def test_premise_fails_on_small_plane(self):
        # 2g - 2 = 10 is never a multiple of p(p - 1) = 20
        curve = RaynaudPlane(PrimeField(5), 1)
        f = -(curve.y_elem() ** -1)
        pinf = raynaud_p_inf(curve, 24)
        bad = GeneralizedTango(
            curve, f, Divisor([(pinf, 1)]), Divisor([(pinf, 10)])
        )
        with pytest.raises(PremiseViolated):
            build_surface(bad)

    def test_inexact_candidate_is_refused(self):
        gtc = tango32()
        curve = gtc.curve
        x, one = curve.x_elem(), curve.ff_const(1)
        fake = GeneralizedTango(curve, one / (x - one), gtc.N, gtc.divisor)
        with pytest.raises(NotExactOnChart):
            build_surface(fake)

    def test_polar_exponent_must_be_divisible(self):
        gtc = tango32()
        curve = gtc.curve
        x, y = curve.x_elem(), curve.y_elem()
        z0keys = tuple(pl.key for pl in z0_places(curve))
        fake = GeneralizedTango(curve, -(y ** -1) + x, gtc.N, gtc.divisor)
        with pytest.raises(NotExactOnChart, match="not divisible"):
            build_surface(fake, [Chart("affine", z0keys, x ** -3)])

    def test_generator_must_trivialize(self):
        gtc = tango32()
        curve = gtc.curve
        x, one = curve.x_elem(), curve.ff_const(1)
        pinf = raynaud_p_inf(curve, 24)
        z0keys = tuple(pl.key for pl in z0_places(curve))
        bad = [
            Chart("minus-pinf", (pinf.key,), one),
            Chart("affine", z0keys, (x - one) * x ** -3),
        ]
        with pytest.raises(UnitFailure):
            build_surface(gtc, bad)

    def test_default_covering_needs_the_plane_model(self):
        curve = P1Marked(PrimeField(3), (0, 1, 2))
        one = curve.ff_const(1)
        # the model gate fires before any divisor is read
        record = GeneralizedTango(curve, one, Divisor(), Divisor())
        with pytest.raises(UnsupportedCurve):
            default_covering(record)


class TestValidate:
    def test_doctored_unit_is_located(self):
        gtc = tango32()
        curve = gtc.curve
        x, one = curve.x_elem(), curve.ff_const(1)
        data = build_surface(gtc)
        ov = dict(data.overlaps)
        u, r = ov[(0, 1)]
        ov[(0, 1)] = (u * (x - one), r)
        rep = validate_cocycle(
            SurfaceGluingData(curve, data.charts, data.t, ov, data.places)
        )
        assert not rep
        assert any("u_01 u_10 != 1" in v for v in rep.violations)
        assert any("not a unit" in v for v in rep.violations)
        assert any("differential relation" in v for v in rep.violations)

    def test_doctored_shift_breaks_only_the_transition(self):
        gtc = tango32()
        data = build_surface(gtc)
        ov = dict(data.overlaps)
        u, r = ov[(0, 1)]
        ov[(0, 1)] = (u, r + gtc.curve.ff_const(1))
        rep = validate_cocycle(
            SurfaceGluingData(gtc.curve, data.charts, data.t, ov, data.places)
        )
        assert not rep
        assert rep.violations == ["transition t_0 = F*(u^(p-1)) t_1 - F*(r) fails"]

    def test_doctored_chart_function_fails(self):
        gtc = tango32()
        x = gtc.curve.x_elem()
        data = build_surface(gtc)
        t = (data.t[0], x ** 3)
        rep = validate_cocycle(
            SurfaceGluingData(gtc.curve, data.charts, t, data.overlaps, data.places)
        )
        assert not rep

    def test_scalar_doctoring_is_caught_by_the_triple_law(self):
        # at p = 3 a scalar on u_02 is invisible to the transition
        # because (p - 1)-th powers kill it; only the cocycle sees it
        gtc = tango32()
        curve = gtc.curve
        data = build_surface(gtc, three_chart_covering(gtc))
        ov = dict(data.overlaps)
        u, r = ov[(0, 2)]
        ov[(0, 2)] = (curve.ff_const(2) * u, r)
        rep = validate_cocycle(
            SurfaceGluingData(curve, data.charts, data.t, ov, data.places)
        )
        assert not rep
        assert not any("transition" in v for v in rep.violations)
        assert any("u_02 u_20 != 1" in v for v in rep.violations)
        assert any("unit cocycle" in v for v in rep.violations)

    def test_report_renders(self):
        data = build_surface(tango32())
        assert validate_cocycle(data).render() == "cocycle ok"


class TestSmoothness:
    def test_random_samples_are_smooth(self):
        data = build_surface(tango32())
        samples = random_fiber_samples(data, 100, seed=0)
        rep = fiber_smoothness_probe(data, samples)
        assert len(rep.entries) == 100
        assert rep.all_smooth
        assert "100 samples, 0 singular" == rep.render()

    def test_fiber_point_inventories(self):
        data = build_surface(tango32())
        assert fiber_points(data, 1, (0, 0)) == [
            (0, 1, 0), (0, 0, 1), (1, 1, 1), (1, 2, 1),
        ]
        assert fiber_points(data, 0, (1, 2)) == [
            (0, 1, 0), (0, 1, 1), (0, 2, 1), (2, 0, 1),
        ]

    def test_vanishing_fiber_partials_fall_back_to_the_base(self):
        # y = 0 kills both fiber partials; dt != 0 decides smoothness
        data = build_surface(tango32())
        rep = fiber_smoothness_probe(data, [(1, (0, 0), (0, 0, 1))])
        assert rep.all_smooth

    def test_point_at_fiber_infinity_is_smooth(self):
        data = build_surface(tango32())
        rep = fiber_smoothness_probe(data, [(0, (1, 2), (0, 1, 0))])
        assert rep.all_smooth

    def test_pth_power_chart_function_goes_singular(self):
        gtc = tango32()
        x = gtc.curve.x_elem()
        data = build_surface(gtc)
        doctored = SurfaceGluingData(
            gtc.curve, data.charts, (data.t[0], x ** 3), data.overlaps, data.places
        )
        rep = fiber_smoothness_probe(doctored, [(1, (0, 0), (0, 0, 1))])
        assert not rep.all_smooth
        assert rep.singular_samples[0]["fiber"] == (0, 0, 1)
        assert "singular" in rep.render()

    def test_rejects_points_off_the_fiber(self):
        data = build_surface(tango32())
        with pytest.raises(ValueError):
            fiber_smoothness_probe(data, [(1, (0, 0), (2, 1, 1))])
        with pytest.raises(ValueError):
            fiber_smoothness_probe(data, [(1, (0, 0), (0, 0, 0))])

    def test_base_curve_jacobian_agrees(self):
        # every rational affine point of the base has a nonzero partial of
        # its cleared minpoly, so a branch, else SingularPoint
        curve = RaynaudPlane(PrimeField(3), 2)
        for pt in curve.affine_points():
            assert branch_at(curve, pt).point == pt


class TestWitness:
    def test_shipped_curve_has_a_witness(self):
        w = pathology_witness(tango32())
        assert w.dim_global_sections == 1
        assert w.flag
        assert "non-reduced" in w.render()

    def test_negative_degree_has_none(self):
        gtc = tango32()
        pinf = raynaud_p_inf(gtc.curve, 24)
        record = GeneralizedTango(
            gtc.curve, gtc.f, Divisor([(pinf, -1)]), gtc.divisor
        )
        w = pathology_witness(record)
        assert w.dim_global_sections == 0
        assert not w.flag

    def test_dimension_follows_the_gap_ladder(self):
        # pole orders at the distinguished point form the semigroup <5, 6>
        gtc = tango32()
        pinf = raynaud_p_inf(gtc.curve, 24)
        expected = {0: 1, 3: 1, 4: 1, 5: 2, 6: 3, 10: 4, 19: 10, 20: 11}
        for n, dim in expected.items():
            record = GeneralizedTango(
                gtc.curve, gtc.f, Divisor([(pinf, n)]), gtc.divisor
            )
            assert pathology_witness(record).dim_global_sections == dim

    def test_large_degree_matches_riemann_roch(self):
        gtc = tango32()
        g = gtc.curve.genus()
        pinf = raynaud_p_inf(gtc.curve, 24)
        for n in range(2 * g - 1, 2 * g + 4):
            record = GeneralizedTango(
                gtc.curve, gtc.f, Divisor([(pinf, n)]), gtc.divisor
            )
            assert pathology_witness(record).dim_global_sections == n + 1 - g

    def test_needs_the_plane_model(self):
        curve = P1Marked(PrimeField(3), (0, 1, 2))
        one = curve.ff_const(1)
        record = GeneralizedTango(curve, one, Divisor(), Divisor())
        with pytest.raises(UnsupportedCurve):
            pathology_witness(record)

    def test_needs_support_at_the_distinguished_point(self):
        gtc = tango32()
        br = branch_at(gtc.curve, (1, 2), 24)
        record = GeneralizedTango(
            gtc.curve, gtc.f, Divisor([(br, 3)]), gtc.divisor
        )
        with pytest.raises(UnsupportedCurve):
            pathology_witness(record)


@pytest.mark.parametrize("build,what", [(default_covering, "default covering"),
                                        (pathology_witness, "witness search")])
def test_one_point_premise_keeps_each_text(build, what):
    # both entry points check the premise by one helper, each naming itself
    curve = P1Marked(PrimeField(3), (0, 1, 2))
    with pytest.raises(UnsupportedCurve, match=f"^{what} lives on the one-point model$"):
        build(GeneralizedTango(curve, curve.ff_const(1), Divisor(), Divisor()))
    gtc = tango32()
    off = Divisor([(branch_at(gtc.curve, (1, 2), 24), 3)])
    with pytest.raises(UnsupportedCurve, match=f"^{what} wants N concentrated at P_inf$"):
        build(GeneralizedTango(gtc.curve, gtc.f, off, gtc.divisor))


class TestInvariance:
    def test_diagonal_scaling_preserves_the_certificate(self):
        # (x, y) -> (c x, c y) maps the carrier to itself when
        # c^(q-1) = 1; the pulled back candidate keeps value and divisor
        curve = RaynaudPlane(PrimeField(5), 1)
        y = curve.y_elem()
        cert = certify_tango_structure(curve, -(y ** -1))
        scaled = certify_tango_structure(curve, curve.ff_const(2) / y)
        assert cert.value == scaled.value == 2
        assert cert.divisor.degree() == scaled.divisor.degree() == 10
        mine = sorted(pl.key for pl, _ in cert.divisor.items())
        theirs = sorted(pl.key for pl, _ in scaled.divisor.items())
        assert mine == theirs

    def test_only_the_identity_fixes_the_shipped_curve(self):
        # lambda^(q-1) = 1 in F_p has one solution at (3, 2), four at (5, 1)
        assert [a for a in range(1, 3) if pow(a, 5, 3) == 1] == [1]
        assert [a for a in range(1, 5) if pow(a, 4, 5) == 1] == [1, 2, 3, 4]


class TestChartValueOnce:
    def test_samples_and_probe_evaluate_each_chart_base_once(self, monkeypatch):
        data = build_surface(tango32())
        seen = []
        inner = surface._chart_value
        monkeypatch.setattr(surface, "_chart_value",
                            lambda d, ci, base: seen.append((ci, base)) or inner(d, ci, base))
        samples = random_fiber_samples(data, 100, seed=0)
        assert len(samples) == 100
        assert len(seen) == len(set(seen)) >= 2
        seen.clear()
        rep = fiber_smoothness_probe(data, samples)
        assert rep.all_smooth and len(rep.entries) == 100
        assert len(seen) == len(set(seen)) == len({(ci, b) for ci, b, _ in samples})


class TestPlacesByDemand:
    def test_branches_lengthen_only_where_asked(self):
        # div(df) = 180 P_inf on (5, 3), genus 91: P_inf doubles only as far
        # as that asks, short of the fixed 6g + 10 = 556 of old, and every
        # other affine place decides its valuations at the first rung
        curve = RaynaudPlane(PrimeField(5), 3)
        pinf = raynaud_p_inf(curve)
        gtc = build_generalized_tango(curve, -(curve.y_elem() ** -1), Divisor([(pinf, 9)]))
        assert validate_cocycle(build_surface(gtc)).ok
        others = [pt for pt in curve.affine_points() if pt != (0, 0)]
        assert others and all(branch_at(curve, pt).prec == curves._FIRST_RUNG for pt in others)
        assert pinf.prec < 556

    @pytest.mark.parametrize("p,l,n", [(3, 2, 3), (5, 3, 9)])
    def test_long_places_keep_the_surface_bytes(self, p, l, n):
        # the criterion-9 surface and the (5,3) one, f = -1/y, render the
        # same bytes when every branch of the curve's own places starts
        # lengthened to 4096 terms
        def render(length):
            curve = RaynaudPlane(PrimeField(p), l)
            for pl in default_places(curve):
                if length and isinstance(pl, curves.SeriesBranch):
                    pl.lengthen(length)
            pinf = raynaud_p_inf(curve)
            gtc = build_generalized_tango(curve, -(curve.y_elem() ** -1), Divisor([(pinf, n)]))
            return build_surface(gtc).render()

        assert render(4096) == render(None)


def test_doctored_shift_pole_is_located():
    # a shift with a pole inside the overlap fails the pole test at that
    # place and the transition, and nothing else
    gtc = tango32()
    curve = gtc.curve
    one = curve.ff_const(1)
    data = build_surface(gtc)
    ov = dict(data.overlaps)
    u, r = ov[(0, 1)]
    ov[(0, 1)] = (u, r + one / (curve.x_elem() - one))
    rep = validate_cocycle(SurfaceGluingData(curve, data.charts, data.t, ov, data.places))
    assert rep.violations == [
        "r_01 has a pole at ('raynaud', ('raynaud', 3, 2), (1, 2))",
        "transition t_0 = F*(u^(p-1)) t_1 - F*(r) fails",
    ]


@pytest.mark.parametrize("p,l,n", [(3, 2, 3), (5, 3, 9)])
def test_build_reads_each_valuation_once(monkeypatch, p, l, n):
    # the overlaps follow from the chart checks, and each place of a chart
    # reads its chart function once, after the surgery at P_inf
    curve = RaynaudPlane(PrimeField(p), l)
    pinf = raynaud_p_inf(curve)
    gtc = build_generalized_tango(curve, -(curve.y_elem() ** -1), Divisor([(pinf, n)]))
    reads = []
    inner = curves._Place.valuation_of
    monkeypatch.setattr(curves._Place, "valuation_of",
                        lambda place, f: reads.append((place.key, f)) or inner(place, f))
    build_surface(gtc)
    assert reads and len(reads) == len(set(reads))
