"""Connection layer: p-curvature, monodromy, horizontal sections, descent."""
from __future__ import annotations

import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dormant import connections
from dormant.cartier import cartier_curve, decide_pre_tango, is_pre_tango
from dormant.connections import (
    BundleLabel,
    LogConnection,
    canonical_connection,
    dual,
    frame_shift,
    frobenius_descent,
    monodromy,
    omega_frame_differential,
    omega_label,
    omega_log_label,
    p_curvature,
    rank1_p_curvature_closed,
    residue_pcurvature_identity,
    solve_dlog,
    trivial_label,
    _divisor_points_p1,
    _least_solution,
)
from dormant.curves import (
    INF,
    Differential,
    Divisor,
    FFElem,
    P1Marked,
    RaynaudPlane,
    Weierstrass,
    branch_at,
)
from dormant.errors import (
    CurveMismatch,
    NoRationalGenerator,
    NotFlat,
    NotOmegaBundle,
    UndeclaredPoleDetected,
)
from dormant.field import PrimeField, RatFunc, UPoly
from dormant.moduli import sweep_genus0

F3 = PrimeField(3)
F5 = PrimeField(5)
F7 = PrimeField(7)


def ratx(field):
    """x as a RatFunc over field."""
    return RatFunc(field, UPoly(field, (0, 1)))


def line(p, *marks):
    return P1Marked(PrimeField(p), marks)


def rat(field, num, den=(1,)):
    return RatFunc(field, UPoly(field, num), UPoly(field, den))


def simple_poles(curve, coeffs):
    """Sum of c/(x - m) over the finite marks."""
    x = ratx(curve.field)
    acc = RatFunc.const(curve.field, 0)
    fin = [m for m in curve.marks if m != INF]
    for m, c in zip(fin, coeffs):
        acc = acc + RatFunc.const(curve.field, c) / (x - m)
    return acc


def local_pole(curve, f, place):
    """(pole order, residue) of f dx at a rational place, read off the
    curve's own branch there; kept free of the connection layer on purpose."""
    if f.is_zero:
        return 0, 0
    br, form = branch_at(curve, place), Differential(curve, f)
    return max(0, -br.valuation_of(form)), br.expand(form, 0).coeff(-1)


def reference_verdict(curve, matrix, label):
    """The first error text of the line's pole rule, or None: at each
    rational place at most a simple pole, and at an unmarked one the
    residue of a diagonal entry is its frame correction mod p (0 off the
    diagonal); finite places ascending, then non-rational poles, then INF."""
    p = curve.p
    for i, row in enumerate(matrix):
        for j, cell in enumerate(row):
            f = FFElem(curve, (cell,))
            corr = label.corrections if i == j else {}
            rational = 0
            for c in range(p):
                order, res = local_pole(curve, f, c)
                rational += order
                if order > 1:
                    return f"pole of order {order} at {c}"
                if c not in curve.marks and res != corr.get(c, 0) % p:
                    return f"residue at the unmarked point {c} is off the frame"
            if not f.is_zero and len(f._den) - 1 > rational:
                return "non-rational pole in a matrix entry"
            order, res = local_pole(curve, f, INF)
            if order > 1 or INF not in curve.marks and res != corr.get(INF, 0) % p:
                return "pole at infinity beyond log order"
    return None


@st.composite
def line_connections(draw):
    """(curve, matrix, label) on a marked line: simple and double poles at
    random points, frame corrections at marks, non-marks and INF, an
    optional polynomial part and an optional pole at a non-rational point.
    A balancing term at a mark can make the residue at INF the correction."""
    p = draw(st.sampled_from([3, 5, 7]))
    field = PrimeField(p)
    pts = [*range(p), INF]
    curve = P1Marked(field, draw(st.lists(st.sampled_from(pts), min_size=3, max_size=4,
                                          unique=True)))
    corr = draw(st.dictionaries(st.sampled_from(pts), st.integers(-2, 2), max_size=3))
    label = BundleLabel(curve, "drawn", corr)
    x, rank = ratx(field), draw(st.integers(1, 2))
    finite = [m for m in curve.marks if m != INF]
    nonsquare = next(n for n in range(2, p) if pow(n, (p - 1) // 2, p) == p - 1)

    def entry(diag):
        if draw(st.integers(0, 5 if diag else 1)) == 0:
            return RatFunc.const(field, 0)
        f, total = RatFunc.const(field, 0), 0
        for a in draw(st.lists(st.integers(0, p - 1), max_size=3, unique=True)):
            order = draw(st.sampled_from([1, 1, 2]))
            want = corr.get(a, 0) if diag and a not in curve.marks else None
            r = draw(st.sampled_from([want % p] if want is not None else range(p))
                     if draw(st.booleans()) else st.integers(0, p - 1))
            f = f + r / (x - a) ** order
            total += r if order == 1 else 0
        if finite and draw(st.booleans()):
            target = corr.get(INF, 0) if diag else 0
            f = f + (-target - total) / (x - draw(st.sampled_from(finite)))
        if draw(st.integers(0, 4)) == 0:
            f = f + 1 / (x * x - nonsquare)
        return f + UPoly(field, draw(st.lists(st.integers(0, p - 1), max_size=2)))

    matrix = [[entry(i == j) for j in range(rank)] for i in range(rank)]
    return curve, matrix, label


def trial_loop(curve, g):
    """(i, j) with i dlog x + j dlog y = g, lexicographically first in a
    scan of all p^2 pairs, or None; kept free of the solver on purpose."""
    dlx, dly = curve.x_elem().dlog(), curve.y_elem().dlog()
    for i in range(curve.p):
        for j in range(curve.p):
            if (i * dlx + j * dly - g).is_zero:
                return i, j
    return None


def flat_rank_one_draws():
    """(conn, u0) for flat rank-one connections on the omega bundle of all
    three models: the (5,3) line sweep and the flat w dx/y on every smooth
    elliptic curve at p = 5 and 7, with u0 None; and a = -dlog u0 on Raynaud
    curves for hand-built units u0, most of whose generators the monomial
    solve misses."""
    for rep in sweep_genus0(5, 3):
        yield from ((conn, None) for conn in rep.flat_list)
    for p in (5, 7):
        for a, b in ((a, b) for a in range(p) for b in range(p) if (4 * a**3 + 27 * b**2) % p):
            curve = Weierstrass(PrimeField(p), a, b)
            yinv = curve.y_elem().inverse()
            for w in range(p):
                conn = LogConnection(curve, [[yinv * w]], omega_label(curve))
                if p_curvature(conn).is_zero:
                    yield conn, None
    for p, l in ((3, 2), (5, 1), (3, 3)):
        curve = RaynaudPlane(PrimeField(p), l)
        x, y = curve.x_elem(), curve.y_elem()
        for u0 in (x * y + 1, y + 1, x + y, x * x / y + 1):
            yield LogConnection(curve, [[-u0.dlog()]], omega_label(curve)), u0


def random_line_connection(rng, p, kind):
    """A validated rank-one d + a on a marked line over F_p.  plain: simple
    poles of random residue at the marks, and one frame correction k at a
    random point c carried as k/(x - c); canonical: the Frobenius pullback
    in the frame of a split unit; omega: simple poles at the marks of a
    stable line, on its omega bundle."""
    field, x = PrimeField(p), ratx(PrimeField(p))
    fin = rng.sample(range(p), rng.randint(2, min(p, 4)))
    curve = P1Marked(field, (*fin, INF) if kind == "omega" or rng.random() < 0.5 else fin)
    if kind == "canonical":
        u = RatFunc.const(field, rng.randrange(1, p))
        for c in rng.sample(range(p), rng.randint(1, min(p, 3))):
            u = u * (x - c) ** rng.choice([-3, -2, -1, 1, 2, 3])
        return canonical_connection(curve, FFElem(curve, (u,)))
    res = {m: rng.randrange(p) for m in fin}
    label, c, k = trivial_label(curve), rng.randrange(p), rng.randint(-3, 3)
    if kind == "omega":
        label = omega_label(curve)
    elif rng.random() < 0.5:
        label = BundleLabel(curve, "shifted", {c: k})
        res[c] = res.get(c, 0) + k
    if INF not in curve.marks:  # the residue at INF, -sum res, must vanish
        res[fin[0]] -= sum(res.values())
    a = sum((RatFunc.const(field, r) / (x - m) for m, r in res.items()), RatFunc.const(field, 0))
    return LogConnection(curve, [[a]], label)


def generator_descent(conn):
    """The descended divisor from the horizontal generator's root scan; p
    divides every coefficient of a validated connection.  Kept free of
    frobenius_descent."""
    curve, p = conn.curve, conn.curve.p
    div = _divisor_points_p1(p_curvature(conn).horizontal)
    mono = dict(zip(curve.marks, monodromy(conn)))
    items = []
    for pt in sorted(set(curve.marks) | set(conn.label.corrections) | set(div), key=str):
        total = div.get(pt, 0) + conn.label.correction_at(pt) + mono.get(pt, 0)
        assert total % p == 0
        if total:
            items.append((branch_at(curve, pt), total // p))
    return Divisor(items)


def apply_p_times(conn, vec):
    # literal p-fold application of v -> v' + A v, kept free of the
    # powering code on purpose
    for _ in range(conn.curve.p):
        vec = [
            vec[i].derivative()
            + sum(
                (conn.entry(i, k) * vec[k] for k in range(conn.rank)),
                conn.curve.ff_const(0),
            )
            for i in range(conn.rank)
        ]
    return vec


class TestPCurvature:
    def test_zero_connection_is_flat(self):
        curve = line(5, 0, 1, INF)
        conn = LogConnection(curve, [[0]])
        assert p_curvature(conn).is_zero
        conn2 = LogConnection(curve, [[0, 0], [0, 0]])
        assert p_curvature(conn2).is_zero

    def test_computed_once_per_connection(self):
        curve = line(5, 0, 1, INF)
        conn = LogConnection(curve, [[simple_poles(curve, (2, 3))]])
        assert p_curvature(conn) is p_curvature(conn)

    def test_dlog_pole_is_flat(self):
        # psi(1/x) = x^-p (1 + (p-1)!) = 0 by Wilson
        for p in (3, 5, 7):
            curve = line(p, 0, INF)
            a = rat(curve.field, (1,), (0, 1))
            conn = LogConnection(curve, [[a]])
            assert p_curvature(conn).is_zero
            assert rank1_p_curvature_closed(conn).is_zero

    def test_constant_connection(self):
        # a = 1 gives psi = 1^p + 0 = 1; not log at infinity, so unchecked
        for p in (3, 5):
            curve = line(p, 0, INF)
            conn = LogConnection(curve, [[1]], validate=False)
            assert p_curvature(conn).scalar() == 1

    def test_closed_form_matches_powering(self):
        rng = random.Random(0)
        for p in (3, 5):
            curve = line(p, 0, INF)
            field = curve.field
            for _ in range(6):
                num = [rng.randrange(p) for _ in range(3)]
                den = [rng.randrange(p) for _ in range(2)] + [1]
                a = RatFunc(field, UPoly(field, num), UPoly(field, den))
                conn = LogConnection(curve, [[a]], validate=False)
                assert p_curvature(conn).scalar() == rank1_p_curvature_closed(conn)

    def test_powering_matches_literal_application(self):
        rng = random.Random(0)
        for p, trials in ((3, 4), (5, 2)):
            curve = line(p, 0, INF)
            for _ in range(trials):
                mat = [
                    [
                        rat(curve.field, [rng.randrange(p) for _ in range(2)])
                        for _ in range(2)
                    ]
                    for _ in range(2)
                ]
                conn = LogConnection(curve, mat, validate=False)
                psi = p_curvature(conn)
                for j in range(2):
                    basis = [curve.ff_const(1 if i == j else 0) for i in range(2)]
                    col = apply_p_times(conn, basis)
                    for i in range(2):
                        assert psi.entry(i, j) == col[i]

    def test_elliptic_family_closed_form(self):
        # psi(d + w dx/y) = w (1 - hasse) / y^p
        curve = Weierstrass(F5, 1, 1)
        assert curve.hasse() == 2
        yinv = curve.y_elem().inverse()
        for w in range(5):
            conn = LogConnection(curve, [[yinv * w]])
            psi = p_curvature(conn).scalar()
            assert psi == rank1_p_curvature_closed(conn)
            assert psi == (w - curve.hasse() * w) * yinv**5
            assert psi.is_zero == (w == 0)

    def test_rank_one_p_curvature_is_linear(self):
        # Jacobson: psi(d + a) = a^p + d^(p-1) a, so psi(d + w a) = w psi(d + a)
        # for w in F_p; random rank-one a on all three models, by the powering
        rng = random.Random(42)
        models = set()
        for curve in CROSS_CHECK_CURVES:
            field, p = curve.field, curve.p
            for _ in range(3):
                den = rng.choice(((1,), (0, 1), (p - 1, 1)))
                comps = [rat(field, [rng.randrange(p) for _ in range(rng.randint(1, 2))], den)
                         for _ in range(min(curve.ext_degree, 3))]
                a = FFElem(curve, comps)
                psi = connections._power_frame(LogConnection(curve, [[a]], validate=False))
                for w in range(p):
                    conn = LogConnection(curve, [[w * a]], validate=False)
                    assert connections._power_frame(conn).scalar() == w * psi.scalar()
            models.add(curve.model)
        assert models == {"p1", "ell", "raynaud"}

    def test_elliptic_hasse_one_all_flat(self):
        curve = Weierstrass(F5, 3, 0)
        assert curve.hasse() == 1
        yinv = curve.y_elem().inverse()
        for w in range(5):
            conn = LogConnection(curve, [[yinv * w]])
            assert p_curvature(conn).is_zero

    def test_nilpotent_log_example(self):
        # A = [[0, 1/x], [0, 0]]: psi = -(N/x^p) exactly
        curve = line(5, 0, INF)
        a01 = rat(curve.field, (1,), (0, 1))
        conn = LogConnection(curve, [[0, a01], [0, 0]])
        psi = p_curvature(conn)
        xinv = FFElem(curve, (rat(curve.field, (1,), (0, 1)),))
        assert psi.entry(0, 0).is_zero
        assert psi.entry(1, 0).is_zero
        assert psi.entry(1, 1).is_zero
        assert psi.entry(0, 1) == -(xinv**5)

    def test_canonical_connections_are_flat(self):
        curve = line(5, 0, 1, INF)
        x = curve.x_elem()
        assert p_curvature(canonical_connection(curve, x)).is_zero
        ell = Weierstrass(F5, 1, 2)
        assert p_curvature(canonical_connection(ell, ell.y_elem())).is_zero

    def test_canonical_flat_on_raynaud(self):
        curve = RaynaudPlane(F5, 1)
        conn = canonical_connection(curve, curve.y_elem())
        assert p_curvature(conn).is_zero

    def test_tensor_adds_p_curvature(self):
        # psi is additive at rank one: the tensor product d + a1 + a2 of
        # d + a1 and d + a2 has psi(d + a1) + psi(d + a2), on each model
        # (0 on the line, where log connections with residues in F_p are flat)
        curve = line(5, 0, 1, INF)
        pairs = [(curve, simple_poles(curve, (1, 2)), simple_poles(curve, (3, 1)))]
        for curve, a in _frame_models()[1:]:
            pairs.append((curve, a, curve.x_elem()))
        for curve, a1, a2 in pairs:
            c1, c2, t = (LogConnection(curve, [[a]]) for a in (a1, a2, a1 + a2))
            psi = p_curvature(t).scalar()
            assert psi.is_zero == (curve.model == "p1")
            assert psi == p_curvature(c1).scalar() + p_curvature(c2).scalar()

    def test_dual_negates(self):
        curve = line(5, 0, 1, INF)
        a = simple_poles(curve, (2, 3))
        conn = LogConnection(curve, [[a]])
        d = dual(conn)
        assert d.scalar() == FFElem(curve, (-a,))
        assert rank1_p_curvature_closed(d) == -rank1_p_curvature_closed(conn)


# the cross-check runs on all three curve models
CROSS_CHECK_CURVES = (
    line(3, 0, INF),
    line(5, 0, 1, INF),
    line(7, 0, 1, INF),
    Weierstrass(F5, 1, 2),
    Weierstrass(F7, 3, 5),
    RaynaudPlane(F3, 2),
    RaynaudPlane(F5, 1),
)


@st.composite
def random_connections(draw):
    """A random, usually non-flat matrix whose entries have y-components
    over simple denominators 1, x or x - 1."""
    curve = draw(st.sampled_from(CROSS_CHECK_CURVES))
    field, p = curve.field, curve.p
    rank = draw(st.sampled_from((1, 2)))
    coeffs = st.lists(st.integers(0, p - 1), min_size=1, max_size=2)

    def cell():
        # fewer y-powers at rank 2 keep the literal route affordable
        den = draw(st.sampled_from(((1,), (0, 1), (p - 1, 1))))
        comps = [draw(coeffs) for _ in range(min(curve.ext_degree, 4 - rank))]
        return FFElem(curve, (rat(field, c, den) for c in comps))

    mat = [[cell() for _ in range(rank)] for _ in range(rank)]
    return LogConnection(curve, mat, validate=False)


class TestPCurvatureCrossCheck:
    @settings(max_examples=50, deadline=None)
    @given(random_connections())
    def test_powering_matches_literal_application(self, conn):
        psi = p_curvature(conn)
        for j in range(conn.rank):
            basis = [conn.curve.ff_const(1 if i == j else 0) for i in range(conn.rank)]
            col = apply_p_times(conn, basis)
            for i in range(conn.rank):
                assert psi.entry(i, j) == col[i]
        if conn.rank == 1:
            assert psi.scalar() == rank1_p_curvature_closed(conn)


class TestValidation:
    def test_pole_off_marks_rejected(self):
        curve = line(5, 0, 1, INF)
        a = rat(curve.field, (1,), (-2, 1))
        with pytest.raises(UndeclaredPoleDetected):
            LogConnection(curve, [[a]])

    def test_double_pole_rejected(self):
        curve = line(5, 0, INF)
        a = rat(curve.field, (1,), (0, 0, 1))
        with pytest.raises(UndeclaredPoleDetected):
            LogConnection(curve, [[a]])

    def test_irrational_pole_rejected(self):
        # x^2 + x + 1 has no root mod 5
        curve = line(5, 0, INF)
        a = rat(curve.field, (1,), (1, 1, 1))
        with pytest.raises(UndeclaredPoleDetected):
            LogConnection(curve, [[a]])

    def test_polynomial_entry_rejected(self):
        curve = line(5, 0, INF)
        a = rat(curve.field, (0, 1))
        with pytest.raises(UndeclaredPoleDetected):
            LogConnection(curve, [[a]])

    def test_pole_at_unmarked_infinity_rejected(self):
        curve = line(5, 0, 1, 2)
        a = rat(curve.field, (1,), (0, 1))
        with pytest.raises(UndeclaredPoleDetected):
            LogConnection(curve, [[a]])

    def test_regular_at_infinity_accepted(self):
        # dlog(x/(x-1)) = -1/(x(x-1)) vanishes at infinity to order 2
        curve = line(5, 0, 1, 2)
        a = simple_poles(curve, (1, 4))
        conn = LogConnection(curve, [[a]])
        assert conn.rank == 1

    def test_validate_flag_skips_checks(self):
        curve = line(5, 0, INF)
        a = rat(curve.field, (0, 1))
        conn = LogConnection(curve, [[a]], validate=False)
        assert conn.scalar() == FFElem(curve, (a,))

    def test_marks_without_zero(self):
        # the frame of log differentials vanishes at infinity only; nothing
        # may leak a pole into unmarked finite points
        curve = line(5, 1, 2, INF)
        label = omega_log_label(curve)
        a = simple_poles(curve, (2, 1))
        conn = LogConnection(curve, [[a]], label)
        assert conn.label.correction_at(INF) == 1

    def test_frame_correction_absorbs_declared_zero(self):
        curve = line(5, 0, 1, INF)
        label = BundleLabel(curve, "shifted", {2: 1})
        a = simple_poles(curve, (1, 1)) + rat(curve.field, (1,), (-2, 1))
        conn = LogConnection(curve, [[a]], label)
        assert conn.label.correction_at(2) == 1

    def test_undeclared_frame_zero_rejected(self):
        # a frame zero off the marks with no matching residue is an error
        curve = line(5, 0, 1, INF)
        label = BundleLabel(curve, "shifted", {2: 1})
        a = simple_poles(curve, (1, 1))
        with pytest.raises(UndeclaredPoleDetected):
            LogConnection(curve, [[a]], label)

    @settings(max_examples=200, deadline=None)
    @given(case=line_connections())
    def test_matches_the_curve_places(self, case):
        # the verdict and first error text of validation, and the monodromy,
        # agree with valuations and expansions at the curve's own places
        curve, matrix, label = case
        try:
            conn, got = LogConnection(curve, matrix, label), None
        except UndeclaredPoleDetected as e:
            conn, got = LogConnection(curve, matrix, label, validate=False), str(e)
        assert got == reference_verdict(curve, matrix, label)
        if conn.rank == 1:
            a = conn.scalar()
            assert monodromy(conn) == tuple(
                (local_pole(curve, a, m)[1] - label.correction_at(m)) % curve.p
                for m in curve.marks)

    def test_pth_power_frame_twist_invisible(self):
        x = ratx(F5)
        curve = line(5, 1, INF)
        u = (x - 1) ** 5
        conn = canonical_connection(curve, u)
        assert conn.scalar().is_zero
        assert conn.label.correction_at(1) == 5
        assert monodromy(conn) == (0, 0)


class TestMonodromy:
    def test_apparent_residues_trivial_frame(self):
        curve = line(7, 0, 1, INF)
        a = simple_poles(curve, (3, 2))
        conn = LogConnection(curve, [[a]])
        assert monodromy(conn) == (3, 2, 2)

    def test_omega_frame_correction_at_infinity(self):
        curve = line(7, 0, 1, INF)
        a = simple_poles(curve, (3, 2))
        conn = LogConnection(curve, [[a]], omega_log_label(curve))
        assert monodromy(conn) == (3, 2, 1)

    def test_sum_rule(self):
        # residues of a rational form sum to zero, so the corrected values
        # add up to minus the frame degree
        rng = random.Random(0)
        curve = line(7, 0, 2, 5, INF)
        label = omega_log_label(curve)
        for _ in range(10):
            a = simple_poles(curve, [rng.randrange(7) for _ in range(3)])
            conn = LogConnection(curve, [[a]], label)
            vals = list(monodromy(conn))
            assert sum(vals) % 7 == -sum(label.corrections.values()) % 7

    def test_canonical_monodromy_vanishes(self):
        curve = line(5, 0, 1, INF)
        x = ratx(F5)
        for u in (x, x - 1, x**2 * (x - 1) ** 3):
            conn = canonical_connection(curve, u)
            assert all(v == 0 for v in monodromy(conn))

    def test_rank_two_rejected(self):
        curve = line(5, 0, INF)
        conn = LogConnection(curve, [[0, 0], [0, 0]])
        with pytest.raises(ValueError):
            monodromy(conn)

    def test_poles_are_read_once(self, monkeypatch):
        # validation finds each entry's poles and residues; monodromy and the
        # residue matrix of the identity report only read them back (the
        # (dt/t)^p coefficients of the p-curvature are another quantity)
        curve = line(5, 0, 1, INF)
        conn = LogConnection(curve, [[simple_poles(curve, (1, 3))]])
        calls, watch = [], [True]

        def spy(owner, name):
            orig = getattr(owner, name)
            monkeypatch.setattr(owner, name,
                                lambda *a: (watch and calls.append(name)) or orig(*a))

        spy(connections, "_laurent")
        spy(connections, "_factor_linear_and_rest")
        p_residue = connections._p_residue_p1

        def unwatched(*a):
            watch.clear()
            try:
                return p_residue(*a)
            finally:
                watch.append(True)

        monkeypatch.setattr(connections, "_p_residue_p1", unwatched)
        assert monodromy(conn) == (1, 3, 1)
        report = residue_pcurvature_identity(conn)
        assert [row["rhs"] for row in report] == [[[0]]] * 3
        assert calls == []


class TestResidueIdentity:
    def test_rank_one_flat(self):
        curve = line(5, 0, 1, INF)
        a = simple_poles(curve, (1, 3))
        conn = LogConnection(curve, [[a]])
        report = residue_pcurvature_identity(conn)
        assert len(report) == 3
        assert all(row["ok"] for row in report)
        # residues in the prime field make both sides vanish
        assert all(row["lhs"] == [[0]] for row in report)

    def test_nilpotent_residue(self):
        curve = line(5, 0, INF)
        a01 = rat(curve.field, (1,), (0, 1))
        conn = LogConnection(curve, [[0, a01], [0, 0]])
        report = {row["mark"]: row for row in residue_pcurvature_identity(conn)}
        assert report[0]["ok"]
        assert report[0]["lhs"] == [[0, 4], [0, 0]]
        assert report[INF]["ok"]

    def test_upper_triangular(self):
        curve = line(5, 0, 1, INF)
        a = simple_poles(curve, (2, 0))
        b = simple_poles(curve, (0, 3))
        offd = rat(curve.field, (1,), (0, 1))
        conn = LogConnection(curve, [[a, offd], [0, b]])
        assert all(row["ok"] for row in residue_pcurvature_identity(conn))


class TestHorizontal:
    def test_recovers_unit(self):
        curve = line(5, 0, INF)
        x = ratx(F5)
        conn = LogConnection(curve, [[-(x.dlog())]])
        u = p_curvature(conn).horizontal
        assert u == FFElem(curve, (x,))

    def test_flat_line_always_solvable(self):
        # dlog connections exhaust the flat rank-one ones on the line
        rng = random.Random(0)
        curve = line(5, 0, 1, 2, INF)
        x = ratx(F5)
        for _ in range(8):
            u = RatFunc.const(F5, 1)
            for m in (0, 1, 2):
                u = u * (x - m) ** rng.randrange(1, 5)
            conn = LogConnection(curve, [[u.dlog()]])
            h = p_curvature(conn).horizontal
            assert h.dlog() == FFElem(curve, (-u.dlog(),))

    def test_not_flat_raises(self):
        # the pre-Tango step is what asks for a horizontal generator
        curve = Weierstrass(F5, 1, 1)
        conn = LogConnection(curve, [[curve.y_elem().inverse()]], omega_label(curve))
        with pytest.raises(NotFlat):
            decide_pre_tango(conn)

    def test_powering_reads_off_a_horizontal_generator(self):
        # u' + a u = 0, checked by differentiation on every model
        models = set()
        for conn, _ in flat_rank_one_draws():
            u, a = connections._power_frame(conn).horizontal, conn.scalar()
            assert not u.is_zero
            assert (u.derivative() + a * u).is_zero
            models.add(conn.curve.model)
        assert models == {"p1", "ell", "raynaud"}

    def test_iterate_route_agrees_with_the_generator_routes(self):
        # the pre-Tango verdict on the generator read off the p-curvature
        # powering, against the one on the pole table's generator on the
        # line, on solve_dlog's where the monomial solve finds one, and on
        # the hand-built unit u0 where it misses
        def verdict(conn, u):
            return cartier_curve(omega_frame_differential(conn.label).scale(u)).is_exact

        seen = {True: 0, False: 0}
        for conn, u0 in flat_rank_one_draws():
            try:
                u = (p_curvature(conn).horizontal if conn.curve.model == "p1"
                     else solve_dlog(conn.curve, -conn.scalar()))
            except NoRationalGenerator:
                if u0 is None:  # w/y with w != 0: no second generator to hand
                    continue
                u = u0
            mine = verdict(conn, connections._power_frame(conn).horizontal)
            assert mine is verdict(conn, u) is is_pre_tango(conn)
            seen[mine] += 1
        assert min(seen.values()) > 10

    def test_no_horizontal_generator_off_flat_rank_one(self):
        curve = Weierstrass(F5, 1, 1)
        nonflat = LogConnection(curve, [[curve.y_elem().inverse()]])
        assert not p_curvature(nonflat).is_zero
        assert p_curvature(nonflat).horizontal is None
        line5 = line(5, 0, INF)
        x = ratx(F5)
        for m in ([[0, 0], [0, 0]], [[0, 1 / x], [0, 0]], [[1, 0], [1, 1 / x]]):
            conn = LogConnection(line5, m, validate=False)
            assert p_curvature(conn).horizontal is None

    def test_elliptic_monomial_search_miss(self):
        # w/y is odd under the hyperelliptic flip, dlog of x^i y^j is even
        curve = Weierstrass(F5, 3, 0)
        g = curve.y_elem().inverse()
        with pytest.raises(NoRationalGenerator):
            solve_dlog(curve, g)

    def test_elliptic_monomial_search_hit(self):
        curve = Weierstrass(F5, 3, 0)
        y = curve.y_elem()
        assert solve_dlog(curve, y.dlog()) == y

    def test_line_generator_from_residues(self):
        # d - g for g = sum of r/(x - c), every point marked: the generator
        # the pole table names has dlog g; the monomial solve is not the line's
        rng = random.Random(6)
        for p in (3, 5, 7, 11):
            curve = line(p, *range(p), INF)
            x = ratx(curve.field)
            for _ in range(6):
                g = RatFunc.const(curve.field, 0)
                for c in rng.sample(range(p), rng.randrange(1, p + 1)):
                    g = g + RatFunc.const(curve.field, rng.randrange(1, p)) / (x - c)
                g = FFElem(curve, (g,))
                assert p_curvature(LogConnection(curve, [[-g]])).horizontal.dlog() == g
                with pytest.raises(CurveMismatch):
                    solve_dlog(curve, g)

    def test_line_double_pole_descent(self):
        # reference: the exponents of u are the residues at the rational
        # poles, read off the branch expansions of g dx; the pole table
        # names the same ones, and its certificate refuses g, whose rest
        # g - dlog u keeps the double poles
        curve = line(5, 0, INF)
        x = ratx(F5)
        g = FFElem(curve, (1 / x**2 + 2 / (x - 1) + 3 / (x - 4) ** 3,))
        want = {}
        for c in range(5):
            s = branch_at(curve, c).expand(Differential(curve, g), 0)
            if s.coeffs and s.ord_low < 0 and (e := s.coeff(-1)):
                want[c] = e
        assert want == {1: 2}  # 3 / (x - 4)^3 has no residue
        exps, ok = connections._certified(-g, connections._line_poles(-g)[0])
        assert exps == want and not ok
        assert not p_curvature(LogConnection(curve, [[-g]], validate=False)).is_zero
        u = RatFunc.const(F5, 1)
        for c, e in want.items():
            u = u * (x - c) ** e
        assert g - FFElem(curve, (u.dlog(),)) == FFElem(curve, (1 / x**2 + 3 / (x - 4) ** 3,))

    @pytest.mark.parametrize("curve", [
        Weierstrass(F5, 1, 2), Weierstrass(F7, 3, 5),
        RaynaudPlane(F3, 2), RaynaudPlane(F5, 1),
    ], ids=str)
    def test_monomial_solve_matches_trial_loop(self, curve):
        x, y = curve.x_elem(), curve.y_elem()
        dlx, dly = x.dlog(), y.dlog()
        for i in range(curve.p):
            for j in range(curve.p):
                g = i * dlx + j * dly
                oi, oj = trial_loop(curve, g)
                assert solve_dlog(curve, g) == x**oi * y**oj
        for g in (y.inverse(), x, x.inverse() + y):
            assert trial_loop(curve, g) is None
            with pytest.raises(NoRationalGenerator):
                solve_dlog(curve, g)

    def test_elliptic_solve_tries_one_candidate(self, monkeypatch):
        # a trial scan makes one subtraction per candidate (i, j), here
        # up to p^2 = 121
        curve = Weierstrass(PrimeField(11), 1, 3)
        x, y = curve.x_elem(), curve.y_elem()
        g = 10 * x.dlog() + 10 * y.dlog()
        calls = []
        sub = FFElem.__sub__
        monkeypatch.setattr(FFElem, "__sub__",
                            lambda a, b: calls.append(b) or sub(a, b))
        assert solve_dlog(curve, g) == x**10 * y**10
        assert len(calls) == 1

    def test_elliptic_dlogs_of_x_and_y_once_per_curve(self, monkeypatch):
        curve = Weierstrass(F7, 3, 5)
        x, y = curve.x_elem(), curve.y_elem()
        goals = (2 * x.dlog() + 3 * y.dlog(), 5 * y.dlog())
        calls = []
        dlog = FFElem.dlog
        monkeypatch.setattr(FFElem, "dlog", lambda f: calls.append(f) or dlog(f))
        assert solve_dlog(curve, goals[0]) == x**2 * y**3
        assert solve_dlog(curve, goals[1]) == y**5
        assert len(calls) <= 2

    @settings(max_examples=300, deadline=None)
    @given(p=st.sampled_from([3, 5, 7]), data=st.data())
    def test_least_solution_matches_brute_force(self, p, data):
        cell = st.integers(0, p - 1)
        rows = data.draw(st.lists(st.tuples(cell, cell, cell), max_size=4))
        want = next(((i, j) for i in range(p) for j in range(p)
                     if all((a * i + b * j - c) % p == 0 for a, b, c in rows)),
                    None)
        assert _least_solution(rows, p) == want


class TestDescent:
    def test_minus_dlog_x(self):
        curve = line(5, 0, INF)
        x = ratx(F5)
        conn = LogConnection(curve, [[-(x.dlog())]])
        dc = frobenius_descent(conn)
        assert dc == Divisor([(branch_at(curve, 0, 4), 1)])
        assert dc.degree() == 1

    def test_canonical_descends_to_unit_divisor(self):
        curve = line(5, 0, INF)
        conn = canonical_connection(curve, curve.x_elem())
        dc = frobenius_descent(conn)
        want = Divisor(
            [(branch_at(curve, 0, 4), 1), (branch_at(curve, INF, 4), -1)]
        )
        assert dc == want
        assert dc.degree() == 0

    def test_frame_keys_are_points_mod_p(self):
        # a correction keyed 7 is the correction at the point 2 over F_5,
        # and keys that land on one point add up
        curve = line(5, 0, INF)
        a = rat(F5, (1,), (-2, 1))
        descents = []
        for key in (2, 7):
            conn = LogConnection(curve, [[a]], BundleLabel(curve, "shifted", {key: 1}))
            assert conn.label.corrections == {2: 1}
            descents.append(frobenius_descent(conn).render())
        assert descents == ["1*2"] * 2
        label = BundleLabel(curve, "shifted", {2: 1, 7: 1})
        assert label.correction_at(2) == 2 and label.corrections == {2: 2}
        with pytest.raises(UndeclaredPoleDetected):
            LogConnection(curve, [[a]], label)

    def test_large_p_descent_is_not_cubic(self):
        # the horizontal generator has degree near 2p; its valuations are
        # the pole table's exponents, read with no root scan of u
        field = PrimeField(101)
        curve, x = P1Marked(field, (0, 1, INF)), ratx(field)
        u = x ** 2 * (x - 1) / ((x - 3) ** 3 * (x - 5))
        conn = canonical_connection(curve, FFElem(curve, (u,)))
        start = time.perf_counter()
        dc = frobenius_descent(conn)
        assert time.perf_counter() - start < 0.25
        assert dc.render() == "-2*inf + 1*0 + 1*1"

    @pytest.mark.parametrize("p", [5, 7])
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_divisor_points_match_valuations(self, p, data):
        field = PrimeField(p)
        curve, x = line(p, 0, 1, INF), ratx(field)
        cell = st.integers(0, p - 1)
        u = RatFunc.const(field, data.draw(st.integers(1, p - 1)))
        for c, e in data.draw(st.lists(st.tuples(cell, st.integers(-3, 3)), max_size=4)):
            u = u * (x - c) ** e
        u = u * rat(field, [1] + data.draw(st.lists(cell, max_size=3)),
                    [1] + data.draw(st.lists(cell, max_size=3)))
        vals = {c: u.valuation_at(c) for c in range(p)}
        want = {c: v for c, v in vals.items() if v}
        if u.valuation_at(INF):
            want[INF] = u.valuation_at(INF)
        got = _divisor_points_p1(FFElem(curve, (u,)))
        assert list(got.items()) == list(want.items())

    def test_degree_bookkeeping(self):
        # p deg D' = deg div(u) + frame degree + sum of lifted residues
        rng = random.Random(0)
        curve = line(5, 0, 1, 3, INF)
        x = ratx(F5)
        for _ in range(6):
            u = RatFunc.const(F5, 1)
            for m in (0, 1, 3):
                u = u * (x - m) ** rng.randrange(4)
            conn = LogConnection(curve, [[u.dlog()]])
            dc = frobenius_descent(conn)
            lift = sum(v % 5 for v in monodromy(conn))
            assert 5 * dc.degree() == lift

    def test_not_flat_raises(self):
        # every rank-one connection that validation passes on the line is
        # flat, so one that is not has a pole validation refuses: here
        # psi(d + 1/x^2) = 1/x^(2p); off the line descent is refused outright
        curve = line(5, 0, INF)
        x = ratx(F5)
        conn = LogConnection(curve, [[1 / x**2]], validate=False)
        assert not p_curvature(conn).is_zero
        with pytest.raises(UndeclaredPoleDetected):
            frobenius_descent(conn)
        ell = Weierstrass(F5, 1, 1)
        with pytest.raises(CurveMismatch):
            frobenius_descent(LogConnection(ell, [[ell.y_elem().inverse()]]))

    def test_off_the_line_is_refused(self):
        # descent is cut to the line: off it the canonical connections and
        # the flat twists w/y alike are refused, whatever generator they have
        ell, ray = Weierstrass(F5, 3, 0), RaynaudPlane(F3, 2)
        yinv = ell.y_elem().inverse()
        conns = [canonical_connection(ell, ell.y_elem()), canonical_connection(ray, ray.y_elem())]
        conns += [LogConnection(ell, [[yinv * w]]) for w in range(5)]
        for conn in conns:
            with pytest.raises(CurveMismatch, match="on the line"):
                frobenius_descent(conn)

    def test_descent_matches_the_generator_formula(self):
        # oracle: the divisor of the built generator by a root scan,
        # _divisor_points_p1(u), in (div u + frame + lifted residues) / p,
        # on 480 seeded validated connections of three kinds at p <= 11
        rng = random.Random(11)
        degrees = set()
        for p in (3, 5, 7, 11):
            for k in range(120):
                conn = random_line_connection(rng, p, ("plain", "canonical", "omega")[k % 3])
                dc = frobenius_descent(conn)
                assert dc == generator_descent(conn)
                degrees.add(dc.degree())
        assert len(degrees) > 3


class TestLabels:
    def test_omega_log_needs_infinity(self):
        curve = line(5, 0, 1, 2)
        with pytest.raises(NotOmegaBundle):
            omega_log_label(curve)

    def test_omega_log_needs_stability(self):
        curve = line(5, 0, INF)
        with pytest.raises(NotOmegaBundle):
            omega_log_label(curve)

    def test_degree_and_dual(self):
        # the dual negates the frame divisor, degree r - 2 at INF, and the
        # omega power
        curve = line(5, 0, 1, 2, INF)
        label = omega_log_label(curve)
        assert (label.corrections, label.omega) == ({INF: 2}, 1)
        assert (label.dual().corrections, label.dual().omega) == ({INF: -2}, -1)
        assert label.dual().dual() == label

    def test_frame_differential_residues(self):
        # dx / (x(x-1)) has residue -1 at 0, 1 at 1, 0 at infinity
        curve = line(5, 0, 1, INF)
        omega = omega_frame_differential(omega_log_label(curve))
        assert connections._line_poles(omega.h) == ({0: (1, 4), 1: (1, 1)}, [1])
        assert branch_at(curve, INF).expand(omega, 0).coeff(-1) == 0

    def test_ell_frame_is_invariant(self):
        curve = Weierstrass(F5, 1, 2)
        omega = omega_frame_differential(omega_label(curve))
        assert omega.h == curve.y_elem().inverse()


def _frame_models():
    """One curve of each model, with an element that is not a constant."""
    ell = Weierstrass(F5, 1, 2)
    ray = RaynaudPlane(F3, 2)
    return [
        (line(5, 0, 1, INF), line(5, 0, 1, INF).x_elem()),
        (ell, ell.x_elem() + ell.y_elem().inverse()),
        (ray, ray.y_elem()),
    ]


class TestFrames:
    """The omega frame of each model, carried on a label as a power."""

    @pytest.mark.parametrize("curve, a", _frame_models(), ids=["p1", "ell", "raynaud"])
    def test_weights_negate_under_dual(self, curve, a):
        omega, triv = omega_label(curve), trivial_label(curve)
        assert (omega.omega, omega.dual().omega, triv.omega) == (1, -1, 0)
        assert omega.dual().corrections == {pt: -v for pt, v in omega.corrections.items()}
        assert omega.dual().dual() == omega and triv.dual() == triv

    @pytest.mark.parametrize("curve, a", _frame_models(), ids=["p1", "ell", "raynaud"])
    def test_shift_is_k_dlog_h_and_undoes_itself(self, curve, a):
        h = omega_frame_differential(omega_label(curve)).h
        assert frame_shift(curve, a, 1) == a + h.dlog()
        assert frame_shift(curve, a, 0) is a
        for k in range(-2, 3):
            assert frame_shift(curve, frame_shift(curve, a, k), -k) == a

    @pytest.mark.parametrize("curve, a", _frame_models(), ids=["p1", "ell", "raynaud"])
    def test_labels_differ_by_frame_power(self, curve, a):
        zero = curve.ff_const(0)
        assert omega_label(curve) != trivial_label(curve)
        assert (LogConnection(curve, [[zero]], trivial_label(curve), validate=False)
                != LogConnection(curve, [[zero]], omega_label(curve), validate=False))
        # a name is not a frame: only the power marks the omega bundle
        named = BundleLabel(curve, omega_label(curve).name, omega_label(curve).corrections)
        with pytest.raises(NotOmegaBundle, match="does not frame the differentials"):
            omega_frame_differential(named)

    def test_a_frame_of_another_model_is_an_input_error(self):
        homes = {"omega_log": "the marked line", "omega_ell": "the elliptic model",
                 "ray_omega": "the one-point model"}
        for curve, _ in _frame_models():
            own = omega_label(curve).name
            assert omega_label(curve, own) is omega_label(curve)
            for name, home in homes.items():
                if name != own:
                    with pytest.raises(ValueError, match=f"^{name} lives on {home}$"):
                        omega_label(curve, name)

