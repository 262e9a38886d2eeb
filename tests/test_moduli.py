"""Enumeration of flat connections and the counting and emptiness laws."""
from __future__ import annotations

from fractions import Fraction

import time

import pytest

from dormant import cartier, cli, connections
from dormant.cartier import cartier_curve, decide_pre_tango, is_pre_tango, pretango_from_tango
from dormant.connections import (
    LogConnection,
    dual,
    monodromy,
    omega_frame_differential,
    omega_label,
    p_curvature,
    rank1_p_curvature_closed,
    residue_pcurvature_identity,
)
from dormant.curves import INF, P1Marked, RaynaudPlane, Weierstrass
from dormant.errors import UndeclaredPoleDetected, UnsupportedCurve
from dormant.field import PrimeField, RatFunc, _deriv, _mul
from dormant.miura import is_dormant, miura_from_tango, pretango_of, specialize
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

    @pytest.mark.parametrize("p", [5, 7])
    def test_one_powering_decides_the_family(self, p):
        # enumerate_flat reads the family off the Hasse invariant and powers
        # nothing; the oracle powers all p candidates d + w dx/y
        classes = set()
        for a, b in ((a, b) for a in range(p) for b in range(p) if (4 * a**3 + 27 * b**2) % p):
            curve = Weierstrass(PrimeField(p), a, b)
            yinv = curve.y_elem().inverse()
            rep = enumerate_flat(curve)
            want = [w for w in range(p) if connections._power_frame(
                LogConnection(curve, [[w * yinv]], validate=False)).is_zero]
            assert [conn.scalar() for conn in rep.flat_list] == [w * yinv for w in want]
            classes.add(len(want))
        assert classes == {1, p}

    def test_count_law_by_hasse_invariant(self):
        # psi(d + w dx/y) = w (1 - H) / y^p, so the family is flat exactly
        # when H = 1; C(dx/y) = H^(1/p) dx/y, so d alone is pre-Tango exactly
        # when H = 0, and with H = 1 the p - 1 twists w != 0 are
        seen = set()
        for p in (5, 7):
            for a, b in ((a, b) for a in range(p) for b in range(p) if (4 * a**3 + 27 * b**2) % p):
                curve = Weierstrass(PrimeField(p), a, b)
                h = curve.hasse()
                rep = enumerate_flat(curve)
                want = (p, p - 1) if h == 1 else (1, 1) if h == 0 else (1, 0)
                assert (rep.flat_count, rep.pretango_count) == want
                seen.add((p, want))
        assert len(seen) == 6

    @pytest.mark.parametrize("p", [5, 7, 11, 13])
    def test_cartier_oracle_decides_every_member(self, p):
        # every smooth curve at p = 5 and 7, one of Hasse invariant 1 at
        # p = 11 and 13: each member d + w dx/y is built afresh, powered and,
        # if flat, decided by its Cartier step, apart from enumerate_flat
        curves = ([(a, b) for a in range(p) for b in range(p) if (4 * a**3 + 27 * b**2) % p]
                  if p < 11 else [{11: (1, 5), 13: (1, 6)}[p]])
        for a, b in curves:
            curve = Weierstrass(PrimeField(p), a, b)
            label, yinv = omega_label(curve), curve.y_elem().inverse()
            members = [LogConnection(curve, [[w * yinv]], label) for w in range(p)]
            flat = [c for c in members if connections._power_frame(c).is_zero]
            pretango = [c for c in flat if decide_pre_tango(c).is_exact]
            rep = enumerate_flat(curve)
            assert rep.flat_list == tuple(flat)
            assert rep.pretango_list == tuple(pretango)
            assert curve.hasse() != 1 or len(flat) == p

    def test_witness_law_on_a_hasse_one_curve(self):
        # du1/u1 = -dx/y, so u1^w dx/y = d(-u1^w / w), and the Tango function
        # -u1^w / w gives back the member d + w dx/y
        curve = Weierstrass(PrimeField(7), 0, 5)
        assert curve.hasse() == 1
        label, yinv = omega_label(curve), curve.y_elem().inverse()
        u1 = p_curvature(LogConnection(curve, [[yinv]], label)).horizontal
        assert u1.dlog() == -yinv
        for w in range(1, 7):
            f = u1**w * (-pow(w, -1, 7))
            assert f.derivative() == u1**w * yinv
            assert pretango_from_tango(label, f) == LogConnection(curve, [[w * yinv]], label)

    def test_large_hasse_one_family_powers_nothing(self, monkeypatch):
        def refuse(conn):
            raise AssertionError("the elliptic family is read off the Hasse invariant")

        monkeypatch.setattr(connections, "_power_frame", refuse)
        monkeypatch.setattr(cartier, "_horizontal_cartier", refuse)
        curve = Weierstrass(PrimeField(101), 1, 32)
        assert curve.hasse() == 1
        rep = enumerate_flat(curve)
        assert (rep.flat_count, rep.pretango_count) == (101, 100)
        assert rep.pretango_list == rep.flat_list[1:]


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
        # enumeration powers nothing: the line's candidates are flat by their
        # pole table and decided by the Cartier step, and the elliptic family
        # is flat and decided by the Hasse invariant
        assert powered == []
        want = rep.flat_list if curve.model == "p1" else ()
        assert [id(c) for c in decided] == [id(c) for c in want]
        opers = []
        for conn in rep.pretango_list:
            m = miura_from_tango(conn)
            assert is_dormant(m)
            assert pretango_of(m) == conn
            opers.append(m.connection)
        # powered objects stay alive in the log, so their ids are distinct
        ids = [id(conn) for conn in powered]
        assert len(ids) == len(set(ids))
        # the round trip powers only the rank-2 opers and decides nothing again
        assert sorted(ids) == sorted(id(c) for c in opers)
        assert [id(c) for c in decided] == [id(c) for c in want]

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


class TestLineRoute:
    """p_curvature on the line at rank one reads u off the pole table; the
    routes it replaced are its oracles."""

    @pytest.mark.parametrize("p, r", [(5, 4), (7, 3)])
    def test_agrees_with_the_powering_and_the_scans(self, p, r):
        seen = {True: 0, False: 0}
        for rep in sweep_genus0(p, r):
            for conn in rep.flat_list:
                a, psi, old = conn.scalar(), p_curvature(conn), connections._power_frame(conn)
                assert psi.is_zero and old.is_zero and psi.matrix == old.matrix
                u = psi.horizontal
                assert (u.derivative() + a * u).is_zero
                # the powering's u differs by a constant times a p-th power
                assert (old.horizontal / u).derivative().is_zero
                # the generator a scanned pole table names is the same u
                assert connections._certified(a, connections._line_poles(a)[0]) == (
                    psi.exponents, True)
                table, rest = connections._entry_poles(conn, 0, 0)
                scanned_table, scanned_rest = connections._line_poles(a)
                assert table == scanned_table and list(rest) == list(scanned_rest) == [1]
                scanned = LogConnection(conn.curve, conn.matrix, conn.label)
                assert monodromy(scanned) == monodromy(conn) == rep.monodromy
                eta = omega_frame_differential(conn.label)
                verdict = is_pre_tango(conn)
                assert cartier_curve(eta.scale(old.horizontal)).is_exact is verdict
                seen[verdict] += 1
        assert min(seen.values()) > 0

    def test_unvalidated_connections_fall_back_to_the_powering(self, monkeypatch):
        powered = []
        power = connections._power_frame
        monkeypatch.setattr(connections, "_power_frame",
                            lambda conn: powered.append(conn) or power(conn))
        curve = line(5, (0, INF))
        x = RatFunc.x(curve.field)
        q = x * x - 2  # no root in F_5
        for a, flat in ((1 / (x * x), False), (1 / q, False), (-q.dlog(), True)):
            conn = LogConnection(curve, [[a]], validate=False)
            psi = p_curvature(conn)
            assert powered[-1] is conn
            assert psi.is_zero is flat
            assert psi.scalar() == rank1_p_curvature_closed(conn)
            if flat:
                assert (psi.horizontal.derivative() + conn.scalar() * psi.horizontal).is_zero

    def test_large_p_powers_nothing(self, monkeypatch):
        def refuse(conn):
            raise AssertionError("powered")
        monkeypatch.setattr(connections, "_power_frame", refuse)
        curve = line(30011)
        x = RatFunc.x(curve.field)
        conn = LogConnection(curve, [[(2 + x) / (x * (x - 1))]])
        psi = p_curvature(conn)
        assert psi.is_zero and psi.horizontal.as_ratfunc().num.degree == 30011 - 1

    @pytest.mark.parametrize("p, r", [(5, 4), (7, 3)])
    def test_certificate_agrees_with_the_identity(self, p, r):
        # the partial-fraction certificate N den(a) = -num(a) D against the
        # identity u' den(a) = -num(a) u it divides by u, u built in full
        def both(a, table):
            exps, ok = connections._certified(a, table)
            u = connections._line_generator(exps, a.curve.p)
            rhs = _mul([-c % a.curve.p for c in a._num[0]], u, a.curve.p)
            return ok, _mul(_deriv(u, a.curve.p), a._den, a.curve.p) == rhs

        flat = 0
        for rep in sweep_genus0(p, r):
            for conn in rep.flat_list:
                assert both(conn.scalar(), connections._entry_poles(conn, 0, 0)[0]) == (True, True)
                flat += 1
        assert flat == p ** (r - 1)
        # the three connections that validation would refuse
        curve = line(5, (0, INF))
        x = RatFunc.x(curve.field)
        q = x * x - 2  # no root in F_5
        for a in (1 / (x * x), 1 / q, -q.dlog()):
            a = curve.ff(a)
            assert both(a, connections._line_poles(a)[0]) == (False, False)

    def test_direct_u_eta_is_the_scaled_frame(self):
        # u eta built from the exponents against eta.scale(u), byte for byte
        n = 0
        for rep in sweep_genus0(5, 4):
            for conn in rep.flat_list:
                psi = p_curvature(conn)
                direct = decide_pre_tango(conn).source.h
                scaled = omega_frame_differential(conn.label).scale(psi.horizontal).h
                assert (direct._num, direct._den) == (scaled._num, scaled._den)
                n += 1
        assert n == 125

    def test_round_trips_hand_over_their_pole_tables(self, monkeypatch):
        # dual and pretango_of derive each table from their source's, with
        # no scan, and every handed table is the one a scan finds
        handed, scans = [], []
        scan, make = connections._line_poles, connections._line_connection
        monkeypatch.setattr(connections, "_line_connection", lambda curve, a, entry, label:
                            handed.append((a, entry)) or make(curve, a, entry, label))
        reports = sweep_genus0(5, 4)
        monkeypatch.setattr(connections, "_line_poles", lambda f: scans.append(f) or scan(f))
        trips = 0
        for conn in (c for rep in reports for c in rep.pretango_list):
            m = miura_from_tango(conn)
            assert is_dormant(m) and pretango_of(m) == conn
            trips += 1
        assert trips == 26 and scans == [] and len(handed) == 2 * trips
        for a, (table, rest) in handed:
            scanned, scanned_rest = scan(a)
            assert table == scanned and list(rest) == list(scanned_rest)

    def test_frame_shifted_tables_match_a_scan(self, monkeypatch):
        # a special oper from specialize frames both graded lines by the
        # coordinate, so pretango_of shifts by dlog h: -k at each finite mark,
        # k times their number at infinity
        handed = []
        make = connections._line_connection
        monkeypatch.setattr(connections, "_line_connection", lambda curve, a, entry, label:
                            handed.append((a, entry)) or make(curve, a, entry, label))
        n = 0
        for conn in (c for rep in sweep_genus0(5, 4) for c in rep.pretango_list):
            sp, _ = specialize(miura_from_tango(conn).connection)
            del handed[:]
            back = pretango_of(sp)
            assert back == conn and monodromy(back) == monodromy(conn)
            ((a, (table, rest)),) = handed
            scanned, scanned_rest = connections._line_poles(a)
            assert table == scanned and list(rest) == list(scanned_rest)
            n += 1
        assert n == 26

    def test_derived_tables_keep_higher_orders(self):
        # the dual of an unvalidated connection with a double pole is refused
        # for that pole, as a scan of its entry would find it
        curve = line(5)
        x = RatFunc.x(curve.field)
        for a, msg in ((1 / (x * x) + 2 / x, "pole of order 2 at 0"),
                       (3 / (x - 1) ** 3, "pole of order 3 at 1")):
            conn = LogConnection(curve, [[a]], validate=False)
            with pytest.raises(UndeclaredPoleDetected, match=f"^{msg}$"):
                dual(conn)
            with pytest.raises(UndeclaredPoleDetected, match=f"^{msg}$"):
                LogConnection(curve, [[-a]], conn.label.dual())

    def test_largest_p_builds_no_generator(self, monkeypatch):
        # the verdict at p = 2^31 - 1 reads the pole table alone: neither
        # the powering nor the builder of u (degree about 2^31) may run
        def refuse(*args):
            raise AssertionError("built")
        monkeypatch.setattr(connections, "_power_frame", refuse)
        monkeypatch.setattr(connections, "_line_generator", refuse)
        job = "p1 p=2147483647 marks=0,1,inf\nconn rank=1 bundle=triv\n2 1 / 0 -1 1"
        t0 = time.perf_counter()
        text, code = cli.run_job(cli.parse_job("mode=machine\ncmd=pcurv\n" + job))
        assert time.perf_counter() - t0 < 1.0
        assert (text, code) == ("pcurv rank=1 zero=true\n0 / 1", 0)

    def test_sweep_scans_no_pole_set(self, monkeypatch):
        # the sweep builds each pole table from the residues it was given
        scans = []
        scan = connections._line_poles
        monkeypatch.setattr(connections, "_line_poles", lambda f: scans.append(f) or scan(f))
        reports = sweep_genus0(5, 4)
        assert sum(rep.pretango_count for rep in reports) and scans == []


class TestThreeMarkLaw:
    def test_closed_form_pretango_law(self):
        # on marks 0, 1, inf with e_m = (-mu_m) mod p and e_0, e_1 >= 1, the
        # structure is pre-Tango exactly when no k has 0 <= kp - e_0 <= e_1 - 1
        flat = pretango = 0
        for p in (5, 7, 11, 13):
            for rep in sweep_genus0(p, 3):
                e0, e1, _ = (-mu % p for mu in rep.monodromy)
                if not (rep.flat_count and e0 and e1):
                    continue
                law = not any(0 <= k * p - e0 <= e1 - 1 for k in range(3))
                assert rep.pretango_count == law
                flat += 1
                pretango += law
        assert (flat, pretango) == (296, 164)
