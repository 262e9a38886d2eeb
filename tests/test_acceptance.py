"""End-to-end gate over the shipped numerical targets.

Each test covers one acceptance criterion and finishes by printing a
single pass line (visible under pytest -s; a failure prints through the
assertion). Budgets are wall-clock seconds measured on the spot.
"""
from __future__ import annotations

import random
import time

import pytest

from dormant.cartier import cartier_curve, is_pre_tango
from dormant.cli import parse_job, run_job
from dormant.connections import (
    LogConnection,
    canonical_connection,
    monodromy,
    omega_label,
    p_curvature,
    rank1_p_curvature_closed,
    residue_pcurvature_identity,
    trivial_label,
)
from dormant.curves import (
    INF,
    Differential,
    Divisor,
    P1Marked,
    RaynaudPlane,
    Weierstrass,
    d_of,
    raynaud_p_inf,
)
from dormant.errors import SemanticError, SyntaxError, UnsupportedCurve
from dormant.field import PrimeField, RatFunc, UPoly
from dormant.miura import (
    cartan_from_connections,
    class_of,
    exponent_of,
    is_dormant,
    miura_from_cartan,
    miura_from_tango,
    pretango_of,
)
from dormant.moduli import count_pretango, sweep_genus0
from dormant.surface import (
    build_surface,
    fiber_smoothness_probe,
    pathology_witness,
    random_fiber_samples,
    validate_cocycle,
)
from dormant.tango import build_generalized_tango, certify_tango_structure, default_places

ORDINARY = {
    5: ((3, 0), (3, 2), (3, 3)),
    7: ((0, 5), (3, 5), (5, 5)),
}

# (p, r) combos of the exhaustive sweep; (3, 5) is geometrically
# impossible (no five distinct rational marks over F_3) and is checked
# to refuse cleanly instead
SWEEPS = ((3, 3), (3, 4), (5, 3), (5, 4), (5, 5), (7, 3), (7, 4), (7, 5))

_sweep_cache: dict = {}
_sweep_build_time: list = []


def sweeps():
    if not _sweep_cache:
        t0 = time.monotonic()
        for p, r in SWEEPS:
            _sweep_cache[(p, r)] = sweep_genus0(p, r)
        _sweep_build_time.append(time.monotonic() - t0)
    return _sweep_cache


def line(p, *marks):
    return P1Marked(PrimeField(p), marks or (0, 1, INF))


def simple_poles(curve, coeffs):
    x = RatFunc.x(curve.field)
    acc = RatFunc.zero(curve.field)
    fin = [m for m in curve.marks if m != INF]
    for m, c in zip(fin, coeffs):
        acc = acc + RatFunc.const(curve.field, c) / (x - m)
    return acc


def apply_p_times(conn, vec):
    # literal p-fold application of v -> v' + A v, independent of the
    # powering code
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


def rand_ratfunc(rng, field, dn=3, dd=2):
    num = UPoly(field, [rng.randrange(field.p) for _ in range(dn + 1)])
    den = UPoly(field, [rng.randrange(field.p) for _ in range(dd)] + [1])
    return RatFunc(field, num, den)


def test_criterion_1_elliptic_pretango_count():
    for p, pairs in ORDINARY.items():
        for a, b in pairs:
            curve = Weierstrass(PrimeField(p), a, b)
            assert curve.hasse() == 1
            t0 = time.monotonic()
            rep = count_pretango(curve)
            elapsed = time.monotonic() - t0
            assert rep.flat_count == p
            assert rep.pretango_count == p - 1
            assert elapsed < 10.0
            job = f"cmd=enumerate\nmode=machine\npretango=true\nell p={p} a={a} b={b}\n"
            text, code = run_job(parse_job(job))
            assert code == 0
            assert text.startswith(f"flat={p} pretango={p - 1} ")
    print("criterion 1 (elliptic pre-Tango count p-1 of p): pass")


def test_criterion_2_flat_moduli_degree():
    reports = sweeps()
    assert _sweep_build_time[0] < 60.0
    checked = 0
    for (p, r), reps in reports.items():
        assert len(reps) == p**r
        for rep in reps:
            total = r - 2 + sum(m % p for m in rep.monodromy)
            expected = 1 if total % p == 0 else 0
            assert rep.flat_count == expected
            checked += 1
    assert checked == sum(p**r for p, r in SWEEPS)
    with pytest.raises(UnsupportedCurve):
        sweep_genus0(3, 5)
    print("criterion 2 (flat count 1 iff p | r-2+sum of lifts): pass")


def test_criterion_3_pcurvature_oracle_equivalence():
    for p in (3, 5, 7):
        curve = line(p)
        rng = random.Random(p)
        for _ in range(100):
            a = simple_poles(curve, (rng.randrange(p), rng.randrange(p)))
            conn = LogConnection(curve, [[a]], trivial_label(curve))
            psi = p_curvature(conn)
            assert psi.scalar() == rank1_p_curvature_closed(conn)
            lit = apply_p_times(conn, [curve.ff_const(1)])
            assert psi.scalar() == lit[0]
            for entry in residue_pcurvature_identity(conn):
                assert entry["ok"]
        for _ in range(30):
            mat = [
                [
                    simple_poles(curve, (rng.randrange(p), rng.randrange(p)))
                    for _ in range(2)
                ]
                for _ in range(2)
            ]
            conn = LogConnection(curve, mat, trivial_label(curve))
            psi = p_curvature(conn)
            for j in range(2):
                basis = [curve.ff_const(1 if i == j else 0) for i in range(2)]
                col = apply_p_times(conn, basis)
                for i in range(2):
                    assert psi.entry(i, j) == col[i]
            for entry in residue_pcurvature_identity(conn):
                assert entry["ok"]
    print("criterion 3 (closed form = powering = literal p-fold, residue law): pass")


def test_criterion_4_cartier_suite():
    # derivatives die, for every curve model
    for curve in (line(5, 0, INF), Weierstrass(PrimeField(5), 1, 2),
                  RaynaudPlane(PrimeField(5), 1)):
        rng = random.Random(0)
        x, y = curve.x_elem(), (curve.y_elem() if curve.ext_degree > 1 else None)
        for _ in range(20):
            f = curve.ff(rand_ratfunc(rng, curve.field))
            if y is not None and rng.randrange(2):
                f = f + y * rng.randrange(1, curve.p)
            out = cartier_curve(d_of(f))
            assert out.is_exact
    # semilinearity C(g^p w) = g C(w)
    rng = random.Random(1)
    curve = line(5, 0, INF)
    for _ in range(50):
        g = rand_ratfunc(rng, curve.field, dn=2, dd=1)
        w = rand_ratfunc(rng, curve.field)
        lhs = cartier_curve(Differential(curve, g.pth_power() * w)).image
        rhs = cartier_curve(Differential(curve, w)).image.scale(curve.ff(g))
        assert lhs.h == rhs.h
    # fixed forms are exactly the flat rank-1 twists
    for p in (3, 5, 7):
        curve = line(p, 0, INF)
        field = curve.field
        rng = random.Random(p)
        xr = RatFunc.x(field)
        for k in range(100):
            if k % 2:
                w = rand_ratfunc(rng, field, dn=2, dd=2)
            else:
                # a logarithmic derivative, so a fixed form by design
                w = RatFunc.zero(field)
                for _ in range(3):
                    c = rng.randrange(p)
                    s = rng.randrange(1, p)
                    w = w + RatFunc.const(field, s) / (xr - c)
            fixed = cartier_curve(Differential(curve, w)).image.h == curve.ff(w)
            flat = p_curvature(
                LogConnection(curve, [[w]], validate=False)
            ).is_zero
            assert fixed == flat
    print("criterion 4 (exactness, semilinearity, fixed iff flat): pass")


def test_criterion_5_tango_certificate_5_1():
    t0 = time.monotonic()
    curve = RaynaudPlane(PrimeField(5), 1)
    g = curve.genus()
    assert g == 6
    f = -(curve.y_elem() ** -1)
    cert = certify_tango_structure(curve, f)
    assert cert.value == 2
    assert cert.value == 2 * (g - 1) // 5
    coeffs = [c for _, c in cert.divisor.items()]
    assert all(c % 5 == 0 for c in coeffs)
    assert sum(coeffs) == 10 == 2 * g - 2
    assert sum(c // 5 for c in coeffs) == 2
    assert cert.verify(default_places(curve))
    assert time.monotonic() - t0 < 30.0
    print("criterion 5 ((df) = 5D with deg D = 2 on the (5,1) curve): pass")


def test_criterion_6_roundtrip_and_dichotomy():
    # every pre-Tango structure from the elliptic counts comes back
    for p, pairs in ORDINARY.items():
        for a, b in pairs:
            curve = Weierstrass(PrimeField(p), a, b)
            rep = count_pretango(curve)
            assert rep.pretango_count == p - 1
            for conn in rep.pretango_list:
                m = miura_from_tango(conn)
                assert p_curvature(m.connection).is_zero
                assert is_dormant(m)
                assert pretango_of(m) == conn
    # every pre-Tango structure from the sweeps, with the exponent sign law
    seen = 0
    for (p, r), reps in sweeps().items():
        field = PrimeField(p)
        for rep in reps:
            for conn in rep.pretango_list:
                m = miura_from_tango(conn)
                assert p_curvature(m.connection).is_zero
                assert is_dormant(m)
                assert pretango_of(m) == conn
                eps = [(-v) % p for v in monodromy(conn)]
                assert exponent_of(m).same_class(
                    class_of(field, conn.curve.marks, eps)
                )
                seen += 1
    assert seen > 0
    # the dichotomy: flat but not pre-Tango picks up rank-2 curvature
    for p, a, b in ((5, 3, 0), (7, 0, 5)):
        curve = Weierstrass(PrimeField(p), a, b)
        nabla = LogConnection(
            curve, [[curve.ff_const(0)]], omega_label(curve)
        )
        assert p_curvature(nabla).is_zero
        assert not is_pre_tango(nabla)
        m = miura_from_cartan(cartan_from_connections(nabla))
        psi = p_curvature(m.connection)
        assert not psi.is_zero
        assert not is_dormant(m)
    print("criterion 6 (dormancy round trip and the rank-2 dichotomy): pass")


def test_criterion_7_emptiness_law():
    violations = 0
    for (p, r), reps in sweeps().items():
        for rep in reps:
            if rep.dimension_formula_value < 0 and rep.pretango_count != 0:
                violations += 1
    assert violations == 0
    print("criterion 7 (negative formula value forces empty locus): pass")


def test_criterion_8_surface_integrity():
    t0 = time.monotonic()
    curve = RaynaudPlane(PrimeField(3), 2)
    f = -(curve.y_elem() ** -1)
    pinf = raynaud_p_inf(curve, 24)
    gtc = build_generalized_tango(curve, f, Divisor([(pinf, 3)]))
    data = build_surface(gtc)
    report = validate_cocycle(data)
    assert report.ok, report.violations
    # the differential transition, checked here by direct derivation
    frob = lambda w: w.pth_power()
    for (i, j), (u, _r) in data.overlaps.items():
        lhs = data.t[i].derivative()
        rhs = frob(u ** (curve.p - 1)) * data.t[j].derivative()
        assert lhs == rhs
    samples = random_fiber_samples(data, 100, seed=0)
    probe = fiber_smoothness_probe(data, samples)
    assert len(probe.entries) == 100
    assert probe.all_smooth
    witness = pathology_witness(gtc)
    assert witness.dim_global_sections > 0
    assert witness.flag
    assert time.monotonic() - t0 < 60.0
    print("criterion 8 (cocycle, transitions, smooth fibers, witness): pass")


def test_criterion_9_determinism_and_robustness():
    jobs = (
        "cmd=enumerate\nmode=machine\nmonodromy=4,4,1\np1 p=5 marks=0,1,inf\n",
        "cmd=raynaud\naction=build\nraynaud p=3 l=2\nN=3\n"
        "f 2 / 0 0 0 0 0 0 1 ; 0 / 1 ; 0 / 1 ; 0 / 1 ; 2 / 0 0 0 0 0 1\n",
        "cmd=pcurv\nmode=machine\np1 p=3 marks=0,1,inf\n"
        "conn rank=1 bundle=omega_log\n1 1 / 0 2 1\n",
    )
    for job in jobs:
        base = run_job(parse_job(job))
        for variant in (job, job + "threads=8\n"):
            assert run_job(parse_job(variant)) == base
    rng = random.Random(0)
    for _ in range(10000):
        blob = bytes(rng.randrange(256) for _ in range(rng.randrange(0, 160)))
        try:
            parse_job(blob)
        except (SyntaxError, SemanticError):
            pass
    print("criterion 9 (byte-stable machine output, total parser): pass")
