"""Enumeration of flat connections and the counting and emptiness laws."""
from __future__ import annotations

from fractions import Fraction

import pytest

from dormant import cartier, connections
from dormant.connections import monodromy, residue_pcurvature_identity
from dormant.curves import INF, P1Marked, RaynaudPlane, Weierstrass
from dormant.errors import UnsupportedCurve
from dormant.field import PrimeField, RatFunc
from dormant.miura import is_dormant, miura_from_tango, pretango_of
from dormant.moduli import (
    EnumerationReport,
    count_pretango,
    emptiness_oracle,
    enumerate_flat,
    standard_marked_line,
    sweep_genus0,
)


def line(p, marks=(0, 1, INF)):
    return P1Marked(PrimeField(p), marks)


class TestEmptinessOracle:
    def test_genus0_sample(self):
        value, empty = emptiness_oracle(0, 3, (1, 1, 1), 5)
        assert value == Fraction(3, 5)
        assert not empty

    def test_genus1_unpointed(self):
        for p in (3, 5, 7):
            value, empty = emptiness_oracle(1, 0, (), p)
            assert value == Fraction(0)
            assert not empty

    def test_negative_forces_empty(self):
        value, empty = emptiness_oracle(0, 3, (2, 0, 0), 3)
        assert value == Fraction(-4, 3)
        assert empty

    def test_returns_exact_rationals(self):
        value, _ = emptiness_oracle(0, 4, (1, 2, 3, 4), 5)
        assert isinstance(value, Fraction)


class TestGenus0:
    def test_admissible_singleton(self):
        report = enumerate_flat(line(3), (2, 0, 0))
        assert report.admissible
        assert report.flat_count == 1
        assert report.pretango_count == 0
        assert report.dimension_formula_value == Fraction(-1)

    def test_inadmissible_empty(self):
        report = enumerate_flat(line(3), (1, 0, 0))
        assert not report.admissible
        assert report.flat_count == 0

    def test_pretango_cell(self):
        report = enumerate_flat(line(3), (2, 2, 1))
        assert report.flat_count == 1
        assert report.pretango_count == 1
        assert report.dimension_formula_value == Fraction(0)
        assert monodromy(report.flat_list[0]) == (2, 2, 1)

    def test_flat_connections_pass_residue_identity(self):
        report = enumerate_flat(line(3), (2, 2, 1))
        for conn in report.flat_list:
            assert all(row["ok"] for row in residue_pcurvature_identity(conn))

    def test_wrong_vector_length(self):
        with pytest.raises(ValueError):
            enumerate_flat(line(3), (1, 0))

    def test_count_law_exhaustive(self):
        # flat count is 1 on admissible cells and 0 otherwise; the
        # pre-Tango verdict is recomputed by an independent route that
        # expands the horizontal polynomial over the integers and scans
        # exponents congruent to p - 1
        def oracle(p, r, marks_fin, mu):
            if (r - 2 + sum(mu)) % p != 0:
                return 0
            if any(m % p == 0 for m in mu[:-1]):
                return 0
            poly = {0: 1}
            for mark, m in zip(marks_fin, mu[:-1]):
                for _ in range(p - (m % p) - 1):
                    nxt = {}
                    for e, c in poly.items():
                        nxt[e + 1] = (nxt.get(e + 1, 0) + c) % p
                        nxt[e] = (nxt.get(e, 0) - c * mark) % p
                    poly = nxt
            bad = any(c and e % p == p - 1 for e, c in poly.items())
            return 0 if bad else 1

        totals = {(3, 3): 3, (3, 4): 5, (5, 3): 10, (7, 3): 21}
        for p, r in ((3, 3), (3, 4), (5, 3), (7, 3)):
            marks_fin = tuple(range(r - 1))
            reports = sweep_genus0(p, r)
            assert len(reports) == p**r
            seen = 0
            for rep in reports:
                assert rep.flat_count == (1 if rep.admissible else 0)
                assert rep.flat_count <= 1
                assert all(c in rep.flat_list for c in rep.pretango_list)
                if rep.dimension_formula_value < 0:
                    assert rep.pretango_count == 0
                expected = oracle(p, r, marks_fin, rep.monodromy)
                assert rep.pretango_count == expected
                seen += rep.pretango_count
                if r == 3:
                    # with three marks the verdict collapses to a sum rule
                    law = 1 if sum(rep.monodromy) == 2 * p - 1 else 0
                    assert rep.pretango_count == law
            # three-mark totals are p(p - 1)/2; the four-mark sweep at
            # p = 3 picks up (1, 1, 1, 1) because its finite marks
            # exhaust the prime field
            assert seen == totals[(p, r)]

    def test_sweep_is_lexicographic(self):
        reports = sweep_genus0(3, 3)
        assert reports[0].monodromy == (0, 0, 0)
        assert reports[1].monodromy == (0, 0, 1)
        assert reports[-1].monodromy == (2, 2, 2)

    def test_too_many_marks_refused(self):
        with pytest.raises(UnsupportedCurve):
            standard_marked_line(3, 5)


class TestGenus1:
    def test_unit_hasse_degree_law_f5(self):
        # the three F_5 curves with Hasse invariant 1 realize the full
        # degree-p fiber over the rationals, with p - 1 pre-Tango classes
        for a, b in ((3, 0), (3, 2), (3, 3)):
            curve = Weierstrass(PrimeField(5), a, b)
            assert curve.hasse() == 1
            report = enumerate_flat(curve)
            assert report.flat_count == 5
            assert report.pretango_count == 4

    def test_unit_hasse_degree_law_f7(self):
        for a, b in ((0, 5), (3, 5), (5, 5)):
            curve = Weierstrass(PrimeField(7), a, b)
            assert curve.hasse() == 1
            report = enumerate_flat(curve)
            assert report.flat_count == 7
            assert report.pretango_count == 6

    def test_nonunit_hasse_rational_fiber_is_small(self):
        # Hasse invariant 2: the degree-5 fiber has a single rational point
        curve = Weierstrass(PrimeField(5), 1, 1)
        assert curve.hasse() == 2
        report = enumerate_flat(curve)
        assert report.flat_count == 1
        assert report.pretango_count == 0

    def test_supersingular_report_only(self):
        curve = Weierstrass(PrimeField(3), 1, 0)
        report = enumerate_flat(curve)
        assert report.flat_count == 1
        assert report.pretango_count == 1

    def test_marks_rejected(self):
        with pytest.raises(ValueError):
            enumerate_flat(Weierstrass(PrimeField(5), 3, 0), (1,))


class TestCountPretango:
    def test_sign_flip(self):
        # exponent (1, 1, 2) means monodromy (2, 2, 1)
        report = count_pretango(line(3), (1, 1, 2))
        assert report.monodromy == (2, 2, 1)
        assert report.pretango_count == 1

    def test_elliptic_empty_exponent(self):
        report = count_pretango(Weierstrass(PrimeField(5), 3, 0), ())
        assert report.pretango_count == 4


class TestReportSurface:
    def test_machine_block(self):
        report = enumerate_flat(Weierstrass(PrimeField(5), 3, 0))
        assert report.machine_block() == "flat=5 pretango=4 admissible=true formula=0"

    def test_render_fields(self):
        report = enumerate_flat(line(3), (2, 2, 1))
        text = report.render()
        assert "flat       1" in text
        assert "pretango   1" in text
        assert "admissible true" in text
        assert "ell" not in text.split("curve")[1].splitlines()[0]

    def test_raynaud_refused(self):
        with pytest.raises(UnsupportedCurve):
            enumerate_flat(RaynaudPlane(PrimeField(5), 1))


class TestProveOnce:
    @pytest.mark.parametrize("curve, mu", [
        (line(5), (4, 4, 1)),
        (line(7, (0, 1, 2, INF)), (2, 5, 2, 3)),
        (Weierstrass(PrimeField(5), 3, 0), ()),
    ], ids=["line5", "line7", "ell5"])
    def test_enumeration_and_roundtrip_power_each_connection_once(
            self, monkeypatch, curve, mu):
        powered, decided = [], []

        def counting(log, inner):
            return lambda conn: log.append(conn) or inner(conn)

        monkeypatch.setattr(connections, "_power_frame",
                            counting(powered, connections._power_frame))
        monkeypatch.setattr(cartier, "_horizontal_cartier",
                            counting(decided, cartier._horizontal_cartier))
        rep = enumerate_flat(curve, mu)
        assert rep.pretango_count
        opers = []
        for conn in rep.pretango_list:
            m = miura_from_tango(conn)
            assert is_dormant(m)
            assert pretango_of(m) == conn
            opers.append(m.connection)
        # powered objects stay alive in the log, so their ids are distinct
        ids = [id(conn) for conn in powered]
        assert len(ids) == len(set(ids))
        assert {id(c) for c in rep.flat_list + tuple(opers)} <= set(ids)
        assert [id(c) for c in decided] == [id(c) for c in rep.flat_list]

    def test_line_sweep_expands_no_series(self, monkeypatch):
        # every residue the sweep reads sits at a simple pole, infinity
        # included, so none needs a Laurent expansion
        calls = []
        for name in ("series_at", "series_at_infinity"):
            expand = getattr(RatFunc, name)
            monkeypatch.setattr(RatFunc, name, lambda f, *a, expand=expand, name=name:
                                calls.append((name, a)) or expand(f, *a))
        sweep_genus0(5, 4)
        assert calls == []
