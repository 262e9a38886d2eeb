"""Cartan pairs, exponent bookkeeping, and the dormancy bridge."""
from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dormant.cartier import cartier_curve, is_pre_tango
from dormant.connections import (
    LogConnection,
    monodromy,
    omega_label,
    omega_log_label,
    p_curvature,
    solve_dlog,
    trivial_label,
)
from dormant.curves import INF, Differential, FFElem, P1Marked, RaynaudPlane, Weierstrass
from dormant.errors import (
    BadTrivialization,
    CurveMismatch,
    DegenerateKS,
    NoRationalGenerator,
    NotDormant,
    NotFlat,
    NotPreTango,
)
from dormant.field import PrimeField, RatFunc, UPoly
from dormant.miura import (
    CartanConnection,
    ExponentVector,
    cartan_from_connections,
    class_of,
    exponent_of,
    is_dormant,
    miura_from_cartan,
    miura_from_tango,
    pretango_of,
    specialize,
)
from dormant.moduli import enumerate_flat, standard_marked_line


def line(p, marks=(0, 1, INF)):
    return P1Marked(PrimeField(p), marks)


def rat(field, num, den=(1,)):
    return RatFunc(field, UPoly(field, num), UPoly(field, den))


def pole_sum(curve, coeffs):
    """sum of c/(x - m) over the finite marks, as a matrix entry."""
    field = curve.field
    total = rat(field, (0,))
    finite = [m for m in curve.marks if m != INF]
    for m, c in zip(finite, coeffs):
        total = total + rat(field, (c,), (-m % field.p, 1))
    return total


def d_conn(curve, label=None):
    return LogConnection(curve, [[curve.ff_const(0)]], label)


class TestTau:
    """tau: an integer to its residue class in {0, ..., p-1}, as
    ExponentVector reads each entry; the classes' lifts are those entries."""

    def test_zero_fixed(self):
        assert ExponentVector(5, (0,), [(0, 0)]).vectors == ((0, 0),)

    def test_roundtrip(self):
        vec = ExponentVector(5, (0,), [(0, 3)])
        assert ExponentVector(5, (0,), vec.vectors).vectors == ((0, 3),)

    def test_top_class(self):
        assert ExponentVector(5, (0,), [(-1, 4)]).vectors == ((4, 4),)

    def test_bijection(self):
        # -7, ..., -1 and 0, ..., 6 each run once through the seven classes
        vec = ExponentVector(7, range(14), [(0, n) for n in range(-7, 7)])
        assert [v for _, v in vec.vectors] == [*range(7), *range(7)]


class TestClassOf:
    def test_empty(self):
        vec = class_of(PrimeField(5), (), ())
        assert vec.vectors == ()

    def test_scalar_prepends_zero(self):
        vec = class_of(PrimeField(3), (0,), (1,))
        assert vec.vectors == ((0, 1),)

    def test_class_rep_normalizes(self):
        vec = ExponentVector(5, ("a", "b"), ((2, 3), (1, 1)))
        assert vec.class_rep() == ((0, 1), (0, 0))

    def test_same_class_modulo_diagonal(self):
        a = ExponentVector(5, (0,), ((0, 1),))
        b = ExponentVector(5, (0,), ((2, 3),))
        assert a.same_class(b)
        assert a != b


class TestCartan:
    def test_trivial_build(self):
        curve = line(3)
        c = cartan_from_connections(d_conn(curve, omega_log_label(curve)))
        assert len(c.components) == 2
        assert c.components[0].scalar().is_zero
        assert c.components[1].scalar().is_zero
        assert c.components[1].label.corrections == {INF: -1}

    def test_dual_negates_monodromy(self):
        curve = line(3)
        conn = LogConnection(curve, [[pole_sum(curve, (2, 2))]], omega_log_label(curve))
        assert monodromy(conn) == (2, 2, 1)
        c = cartan_from_connections(conn)
        assert monodromy(c.components[1]) == (1, 1, 2)

    def test_curve_mismatch(self):
        c1, c2 = line(3), line(3, (0, 2, INF))
        with pytest.raises(CurveMismatch):
            CartanConnection(c1, (d_conn(c1), d_conn(c2)))
        with pytest.raises(CurveMismatch):
            CartanConnection(c2, (d_conn(c1), d_conn(c1)))


class TestMiuraFromCartan:
    def test_shape_from_trivial_pair(self):
        curve = line(3)
        c = CartanConnection(curve, (d_conn(curve), d_conn(curve)))
        m = miura_from_cartan(c)
        assert m.is_special
        assert m.a0.is_zero
        assert m.a1.is_zero
        assert m.connection.entry(1, 0) == curve.ff_const(1)

    def test_graded_recovers_input(self):
        curve = line(3)
        c = CartanConnection(curve, (d_conn(curve), d_conn(curve)))
        assert miura_from_cartan(c).cartan == c

    def test_frozen_exponent_example(self):
        curve = line(5)
        dlogx = LogConnection(curve, [[rat(curve.field, (1,), (0, 1))]], trivial_label(curve))
        c = CartanConnection(curve, (d_conn(curve), dlogx))
        vec = exponent_of(miura_from_cartan(c))
        assert vec.vectors == ((0, 1), (0, 0), (0, 4))

    def test_exponent_matches_component_monodromy(self):
        curve = line(5)
        rng = random.Random(0)
        for _ in range(6):
            res = (rng.randrange(5), rng.randrange(5))
            nb = LogConnection(curve, [[pole_sum(curve, res)]], omega_log_label(curve))
            c = cartan_from_connections(nb)
            vec = exponent_of(miura_from_cartan(c))
            mono1 = monodromy(c.components[1])
            for i in range(3):
                assert vec.vectors[i] == (0, mono1[i])

    def test_rejects_higher_rank(self):
        # a Cartan connection is a pair: one component or three are refused
        curve = line(3)
        for n in (1, 3):
            with pytest.raises(ValueError, match="^a Cartan connection is a pair$"):
                CartanConnection(curve, [d_conn(curve)] * n)


class TestSpecialize:
    def test_idempotent_on_special(self):
        curve = line(5)
        dlogx = LogConnection(curve, [[rat(curve.field, (1,), (0, 1))]], trivial_label(curve))
        m = miura_from_cartan(CartanConnection(curve, (d_conn(curve), dlogx)))
        sp, rec = specialize(m.connection)
        assert rec == curve.ff_const(1)
        assert sp.connection == m.connection

    def test_roundtrip_records_basis_change(self):
        curve = line(5)
        x = curve.x_elem()
        a0 = FFElem(curve, (rat(curve.field, (3,), (0, 1)),))
        a1 = FFElem(curve, (rat(curve.field, (1,), (-1 % 5, 1)),))
        rng = random.Random(0)
        for _ in range(30):
            e0 = rng.randrange(-2, 3)
            e1 = rng.randrange(-2, 3)
            c = rng.randrange(1, 5)
            g = curve.ff_const(c) * x ** e0 * (x - 1) ** e1
            presented = LogConnection(
                curve,
                [[a0, curve.ff_const(0)], [g, a1 - g.dlog()]],
                trivial_label(curve),
                validate=False,
            )
            sp, rec = specialize(presented)
            assert rec == g
            assert sp.a1 == a1
            assert sp.a0 == a0
            assert sp.is_special

    def test_zero_corner_degenerate(self):
        curve = line(5)
        bad = LogConnection(
            curve,
            [[curve.ff_const(0), curve.ff_const(0)],
             [curve.ff_const(0), curve.ff_const(0)]],
            trivial_label(curve),
            validate=False,
        )
        with pytest.raises(DegenerateKS):
            specialize(bad)

    def test_chart_vanishing_degenerate(self):
        # x - 2 vanishes away from the marks {0, 1, inf}
        curve = line(5)
        x = curve.x_elem()
        bad = LogConnection(
            curve,
            [[curve.ff_const(0), curve.ff_const(0)],
             [x - 2, curve.ff_const(0)]],
            trivial_label(curve),
            validate=False,
        )
        with pytest.raises(DegenerateKS):
            specialize(bad)

    def test_upper_entry_rejected(self):
        curve = line(5)
        bad = LogConnection(
            curve,
            [[curve.ff_const(0), curve.ff_const(1)],
             [curve.ff_const(1), curve.ff_const(0)]],
            trivial_label(curve),
            validate=False,
        )
        with pytest.raises(BadTrivialization):
            specialize(bad)


class TestBridge:
    def test_genus0_p3_dormant(self):
        curve = line(3)
        conn = LogConnection(curve, [[pole_sum(curve, (2, 2))]], omega_log_label(curve))
        assert is_pre_tango(conn)
        m = miura_from_tango(conn)
        assert m.is_special
        assert is_dormant(m)
        assert pretango_of(m) == conn

    def test_genus0_p3_exponent_sign(self):
        curve = line(3)
        conn = LogConnection(curve, [[pole_sum(curve, (2, 2))]], omega_log_label(curve))
        m = miura_from_tango(conn)
        vec = exponent_of(m)
        # monodromy (2, 2, 1) flips sign into the exponent class
        assert vec.vectors == ((0, 1), (0, 1), (0, 2))
        eps = [-v % 3 for v in monodromy(conn)]
        assert vec.same_class(class_of(curve.field, curve.marks, eps))

    def test_genus0_p5_dormant(self):
        curve = line(5)
        conn = LogConnection(curve, [[pole_sum(curve, (4, 4))]], omega_log_label(curve))
        assert monodromy(conn) == (4, 4, 1)
        assert is_pre_tango(conn)
        m = miura_from_tango(conn)
        assert is_dormant(m)
        assert exponent_of(m).vectors == ((0, 1), (0, 1), (0, 4))
        assert pretango_of(m) == conn

    def test_genus0_negative_raises(self):
        curve = line(3)
        conn = LogConnection(curve, [[pole_sum(curve, (1, 1))]], omega_log_label(curve))
        assert not is_pre_tango(conn)
        with pytest.raises(NotPreTango):
            miura_from_tango(conn)

    def test_ordinary_elliptic_obstruction(self):
        # d is flat but not pre-Tango on an ordinary curve: the rank-2
        # p-curvature concentrates in the lower corner
        curve = Weierstrass(PrimeField(5), 3, 0)
        nabla = d_conn(curve, omega_label(curve))
        assert not is_pre_tango(nabla)
        m = miura_from_cartan(cartan_from_connections(nabla))
        assert not is_dormant(m)
        psi = p_curvature(m.connection)
        assert psi.entry(0, 0).is_zero
        assert psi.entry(1, 1).is_zero
        assert not psi.entry(1, 0).is_zero
        with pytest.raises(NotPreTango):
            miura_from_tango(nabla)
        with pytest.raises(NotDormant):
            pretango_of(m)

    def test_ordinary_elliptic_twisted_dormant(self):
        curve = Weierstrass(PrimeField(5), 3, 0)
        yinv = curve.y_elem().inverse()
        conn = LogConnection(curve, [[yinv]], omega_label(curve))
        assert is_pre_tango(conn)
        m = miura_from_tango(conn)
        assert is_dormant(m)
        assert pretango_of(m) == conn

    def test_supersingular_elliptic_dormant(self):
        curve = Weierstrass(PrimeField(3), 1, 0)
        nabla = d_conn(curve, omega_label(curve))
        assert is_pre_tango(nabla)
        m = miura_from_tango(nabla)
        assert is_dormant(m)
        assert pretango_of(m) == nabla

    def test_raynaud_dormant(self):
        curve = RaynaudPlane(PrimeField(5), 1)
        nabla = d_conn(curve, omega_label(curve))
        assert is_pre_tango(nabla)
        m = miura_from_tango(nabla)
        assert is_dormant(m)
        assert pretango_of(m) == nabla

    def test_nonflat_input(self):
        curve = Weierstrass(PrimeField(5), 1, 1)
        yinv = curve.y_elem().inverse()
        conn = LogConnection(curve, [[yinv]], omega_label(curve))
        m = miura_from_cartan(cartan_from_connections(conn))
        assert not is_dormant(m)
        with pytest.raises(NotFlat):
            miura_from_tango(conn)

    def test_dormant_residues_fixed_by_frobenius(self):
        curve = line(3)
        conn = LogConnection(curve, [[pole_sum(curve, (2, 2))]], omega_log_label(curve))
        m = miura_from_tango(conn)
        p = curve.field.p
        for mono in map(monodromy, m.cartan.components):
            for v in mono:
                assert pow(v, p, p) == v % p

    def test_dormancy_survives_regauging(self):
        curve = line(3)
        conn = LogConnection(curve, [[pole_sum(curve, (2, 2))]], omega_log_label(curve))
        m = miura_from_tango(conn)
        x = curve.x_elem()
        presented = LogConnection(
            curve,
            [[m.a0, curve.ff_const(0)], [x, m.a1 - x.dlog()]],
            trivial_label(curve),
            validate=False,
        )
        sp, rec = specialize(presented)
        assert rec == x
        assert is_dormant(sp)

    @pytest.mark.parametrize("model", ["p1", "ell", "raynaud"])
    def test_coordinate_frame_roundtrip(self, model):
        # specialize writes both graded lines in the coordinate frame, so
        # pretango_of must shift the second one back to dual(omega)
        if model == "p1":
            curve = line(5)
            conn = LogConnection(curve, [[pole_sum(curve, (4, 4))]], omega_log_label(curve))
            assert monodromy(conn) == (4, 4, 1)
        elif model == "ell":
            curve = Weierstrass(PrimeField(3), 1, 0)
            conn = d_conn(curve, omega_label(curve))
        else:
            curve = RaynaudPlane(PrimeField(5), 1)
            conn = d_conn(curve, omega_label(curve))
        sp, _ = specialize(miura_from_tango(conn).connection)
        assert all(comp.label.omega == 0 for comp in sp.cartan.components)
        assert pretango_of(sp) == conn


class TestTriangularOracle:
    def test_dormant_exactly_when_dx_over_u1_is_exact(self):
        # [[0, 0], [1, a1]] has horizontal sections (1, u1 g) with
        # u1' + a1 u1 = 0 and g' = -1/u1, so it is dormant exactly when
        # d + a1 is flat and C(dx/u1) = 0; u1 from the line's pole table or
        # solve_dlog, else from the p-curvature powering.  C(dx/u1) = C(u1^(p-1) dx)/u1 needs
        # no inverse of the powering's large integral u1
        ops = []
        for p in (3, 5, 7):  # d + 1 + r/x + r/(x - 1) is not flat
            curve = line(p)
            ops += [(curve, pole_sum(curve, (r0, r1))) for r0 in range(p) for r1 in range(p)]
            ops += [(curve, pole_sum(curve, (r, r)) + 1) for r in range(p)]
        for p, a, b in ((5, 3, 0), (5, 1, 1), (7, 3, 0), (7, 0, 1), (5, 2, 0), (7, 3, 5)):
            curve = Weierstrass(PrimeField(p), a, b)
            yinv = curve.y_elem().inverse()
            ops += [(curve, yinv * w) for w in range(p)]
        for p, l in ((3, 2), (5, 1), (3, 3)):
            curve = RaynaudPlane(PrimeField(p), l)
            x, y = curve.x_elem(), curve.y_elem()
            ops += [(curve, -u0.dlog()) for u0 in (x * y + 1, y + 1, x + y, x * x / y + 1)]
        seen = {True: 0, False: 0}
        for curve, a1 in ops:
            rank_one = LogConnection(curve, [[a1]], trivial_label(curve), validate=False)
            psi = p_curvature(rank_one)
            expect = psi.is_zero
            if expect:
                try:
                    u1 = (psi.horizontal if curve.model == "p1"
                          else solve_dlog(curve, -rank_one.scalar()))
                except NoRationalGenerator:
                    u1 = psi.horizontal
                expect = cartier_curve(Differential(curve, u1 ** (curve.p - 1))).is_exact
            m = miura_from_cartan(CartanConnection(curve, (d_conn(curve), rank_one)))
            assert is_dormant(m) is expect
            seen[expect] += 1
        assert min(seen.values()) > 20


@st.composite
def admissible_residues(draw):
    """The standard (p, r) line, p <= 7 and r <= 4, and a residue vector on
    it that passes the divisibility test."""
    p, r = draw(st.sampled_from((3, 5, 7))), draw(st.integers(3, 4))
    head = draw(st.lists(st.integers(0, p - 1), min_size=r - 1, max_size=r - 1))
    return standard_marked_line(p, r), (*head, -(r - 2 + sum(head)) % p)


class TestRoundTripLaws:
    @settings(max_examples=150, deadline=None)
    @given(case=admissible_residues())
    def test_pretango_members(self, case):
        # each pre-Tango member comes back from its dormant operator, whose
        # exponent is the class of minus its monodromy, a tuple in [0, p)
        curve, mu = case
        report = enumerate_flat(curve, mu)
        assert report.admissible
        for conn in report.pretango_list:
            mono = monodromy(conn)
            assert type(mono) is tuple
            assert all(type(v) is int and 0 <= v < curve.p for v in mono)
            m = miura_from_tango(conn)
            assert pretango_of(m) == conn
            assert exponent_of(m) == class_of(curve.field, curve.marks, [-v for v in mono])
