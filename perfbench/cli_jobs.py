"""cli-jobs: job texts through `parse_job` + `run_job`, as the command does.

Every job builds its own curve, so no per-curve cache carries over; the
primes reach about 10^4, series stay short and malformed input is mixed
in.  A unit of latency is one job.  The expected texts of the fixed jobs
are in `cli_expected.json` (machine output of the README and criterion-9
jobs at the commit that added this benchmark).
"""
from __future__ import annotations

import json
import os
import random

FIXED = {
    "readme-pretango": "cmd=pretango\np1 p=3 marks=0,1,inf\n"
                       "conn rank=1 bundle=omega_log\n1 1 / 0 2 1\n",
    "readme-enumerate": "cmd=enumerate\nmonodromy=4,4,1\nmode=machine\np1 p=5 marks=0,1,inf\n",
    "readme-tango-certify": "cmd=tango-certify\nraynaud p=5 l=1\n"
                            "f 4 / 0 0 0 0 0 1 ; 0 / 1 ; 0 / 1 ; 4 / 0 0 0 0 1\n",
    "c9-enumerate": "cmd=enumerate\nmode=machine\nmonodromy=4,4,1\np1 p=5 marks=0,1,inf\n",
    "c9-raynaud-build": "cmd=raynaud\naction=build\nraynaud p=3 l=2\nN=3\n"
                        "f 2 / 0 0 0 0 0 0 1 ; 0 / 1 ; 0 / 1 ; 0 / 1 ; 2 / 0 0 0 0 0 1\n",
    "c9-pcurv": "cmd=pcurv\nmode=machine\np1 p=3 marks=0,1,inf\n"
                "conn rank=1 bundle=omega_log\n1 1 / 0 2 1\n",
    "raynaud-validate": "cmd=raynaud\naction=validate\nraynaud p=3 l=2\nN=3\n"
                        "f 2 / 0 0 0 0 0 0 1 ; 0 / 1 ; 0 / 1 ; 0 / 1 ; 2 / 0 0 0 0 0 1\n",
    "selftest": "cmd=selftest\np=3\np1 p=3 marks=0,1,inf\n",
}
for _name in ("c9-enumerate", "c9-raynaud-build", "c9-pcurv"):
    FIXED[_name + "-threads8"] = FIXED[_name] + "threads=8\n"
# criterion 1: the ordinary curves whose pre-Tango count is p - 1 of p
for _p, _a, _b in ((5, 3, 0), (5, 3, 2), (5, 3, 3), (7, 0, 5), (7, 3, 5), (7, 5, 5)):
    FIXED[f"c1-ell{_p},{_a},{_b}"] = (f"cmd=enumerate\nmode=machine\npretango=true\n"
                                      f"ell p={_p} a={_a} b={_b}\n")

# -1/y on the (p, 1) one-point curves, y-basis components
TANGO_F = {
    5: ["4 / 0 0 0 0 0 1", "0 / 1", "0 / 1", "4 / 0 0 0 0 1"],
    11: ["10 / 0 0 0 0 0 0 0 0 0 0 0 1"] + ["0 / 1"] * 8
        + ["10 / 0 0 0 0 0 0 0 0 0 0 1"],
}

# job cost depends on p and on how large the residues are relative to p;
# primes and residue fractions are drawn stratified (one from each slice
# of their range), so the cost of a pass varies little with the seed while
# every input still changes.  The bands keep every seeded job below the
# seventeen fixed-cost jobs of 0.1 s and more (fixed jobs, tango-certify
# on (11, 1), the large prime), so job_ms.p90 reads fixed-cost jobs only.
BAND_PCURV_TWO_MARKS = (101, 103, 107, 109, 113, 127, 131)
BAND_PCURV_THREE_MARKS = (29, 31, 37)
BAND_RANK2 = (11, 13)
BAND_PRETANGO = (19, 23, 29)
BAND_ENUMERATE = (5, 7, 11, 13)
BAND_CARTIER_ELL = (5, 7, 11, 13)
BAND_LARGE = (9973, 10007, 10009, 10037, 10039, 10061, 10067, 10069, 10079, 10091)


def _poly(cs):
    cs = list(cs)
    while cs and cs[-1] == 0:
        cs.pop()
    return " ".join(map(str, cs)) if cs else "0"


def _line_conn(p, m0, m1):
    """m0/x + m1/(x-1) as num / den on the 0,1,inf line."""
    return f"{_poly([(-m0) % p, (m0 + m1) % p])} / 0 {p - 1} 1"


def _stratified(rng, seq, n):
    """n draws from seq, one from each of n equal slices, in seeded order."""
    out = [seq[len(seq) * k // n + rng.randrange(max(1, len(seq) // n))] for k in range(n)]
    rng.shuffle(out)
    return out


def _residue(p, u):
    """The residue in [1, p - 1] at fraction u of that range."""
    return 1 + int(u * (p - 1))


def _pretango_draw(rng, p, u, yes):
    # the monodromy of m0/x + m1/(x-1) on omega_log is (m0, m1, m_inf); in
    # every genus-0 sweep the pre-Tango ones are those whose lifts sum to
    # 2p - 1, and the others sum to p - 1
    if yes:
        m0 = _residue(p, u)
        return m0, rng.randrange(p - m0, p)
    m0 = min(_residue(p, u), p - 3)
    return m0, rng.randrange(1, p - 1 - m0)


def _malformed(rng):
    p = rng.choice((5, 7, 11, 13))
    composite = rng.choice((9, 15, 21, 25, 27, 33, 35))
    c = rng.randrange(1, p)
    good_conn = f"conn rank=1 bundle=omega_log\n{c} / 0 1\n"
    return [
        f"cmd=frobnicate\np1 p={p} marks=0,1,inf\n",
        f"cmd=pcurv\np1 p={composite} marks=0,1,inf\n{good_conn}",
        f"cmd=pcurv\nmode=machine\n{good_conn}",
        f"cmd=pretango\np1 p={p} marks=0,1,inf\nconn rank=2 bundle=omega_log\n"
        f"{c} / 0 1\n0\n0\n{c} / 0 1\n",
        f"cmd=pcurv\np1 p={p} marks=0,1,inf\nconn rank=1 bundle=triv\n{c} x / 0 1\n",
        f"cmd=pcurv\np1 p={p} marks=0,1,inf\nconn rank=2 bundle=triv\n{c} / 0 1\n0\n",
        f"cmd=raynaud\naction=build\nraynaud p=3 l=2\n"
        f"f 2 / 0 0 0 0 0 0 1 ; 0 / 1 ; 0 / 1 ; 0 / 1 ; 2 / 0 0 0 0 0 1\n",
        f"cmd=enumerate\nmode=machine\nmonodromy={c},{c}\np1 p={p} marks=0,1,inf\n",
        f"cmd=enumerate\nmode=machine\nmode=human\np1 p={p} marks=0,1,inf\n",
        f"cmd=pcurv\np1 p={p} marks=0,1,inf\nbogus line here\n",
        f"cmd=pcurv\np1 p={p} marks=0,1,inf\nconn rank=1 bundle=sideways\n0\n",
        f"cmd=miura\np1 p={p} marks=0,1,inf\n{good_conn}",
        f"cmd=tango-search\nraynaud p=5 l=1\n",
        f"cmd=pcurv\nell p={p} a=0 b=0\nconn rank=1 bundle=triv\n0\n",
        f"p=7\ncmd=pcurv\np1 p={p if p != 7 else 5} marks=0,inf\nconn rank=1 bundle=triv\n0\n",
        "",
        f"cmd=pcurv\np1 p={p} marks=0,1,inf\nconn rank=1 bundle=triv\n{c} / 0\n",
        f"cmd=cartier\nmode=machine\nraynaud p={p} l=1\nform 1 / 1 ; " + "1 ; " * p + "1\n",
    ]


# wall seconds of one pass child at the commit that added the benchmark
# (10 to 13 s on a 2-vCPU VM); run.py makes --seconds / PASS_SECONDS passes
PASS_SECONDS = 12


def plan(seed):
    """Job texts and what each answer must satisfy; plain ints only."""
    rng = random.Random(seed)
    jobs = [{"name": name, "text": text, "kind": "fixed"} for name, text in FIXED.items()]

    fractions = [k / 1000 for k in range(1000)]
    for p, u in zip(_stratified(rng, BAND_PCURV_TWO_MARKS, 8), _stratified(rng, fractions, 8)):
        jobs.append({"kind": "pcurv", "text": f"cmd=pcurv\nmode=machine\np1 p={p} marks=0,inf\n"
                     f"conn rank=1 bundle=triv\n{_residue(p, u)} / 0 1\n"})
    for p, u in zip(_stratified(rng, BAND_PCURV_THREE_MARKS * 2, 6), _stratified(rng, fractions, 6)):
        a = _line_conn(p, _residue(p, u), rng.randrange(p))
        jobs.append({"kind": "pcurv", "text": f"cmd=pcurv\nmode=machine\np1 p={p} marks=0,1,inf\n"
                     f"conn rank=1 bundle=triv\n{a}\n"})
    for p in _stratified(rng, BAND_RANK2 * 4, 8):
        cells = [_line_conn(p, rng.randrange(p), rng.randrange(p)) for _ in range(4)]
        jobs.append({"kind": "pcurv", "text": f"cmd=pcurv\nmode=machine\np1 p={p} marks=0,1,inf\n"
                     "conn rank=2 bundle=triv\n" + "\n".join(cells) + "\n"})
    draws = zip(_stratified(rng, BAND_PRETANGO * 4, 12), _stratified(rng, fractions, 12))
    for k, (p, u) in enumerate(draws):
        m0, m1 = _pretango_draw(rng, p, u, yes=k % 2 == 0)
        jobs.append({"kind": "pretango", "text": f"cmd=pretango\nmode=machine\np1 p={p} marks=0,1,inf\n"
                     f"conn rank=1 bundle=omega_log\n{_line_conn(p, m0, m1)}\n"})
    for p, u in zip(_stratified(rng, BAND_PRETANGO * 3, 8), _stratified(rng, fractions, 8)):
        m0, m1 = _pretango_draw(rng, p, u, yes=True)
        jobs.append({"kind": "miura", "text": f"cmd=miura\naction=from-pretango\nmode=machine\n"
                     f"p1 p={p} marks=0,1,inf\nconn rank=1 bundle=omega_log\n{_line_conn(p, m0, m1)}\n"})
    # 30 cartier jobs on the (5, 1) curve cost about the same (short series
    # on a degree-4 extension); they sit in the middle of the job costs, so
    # job_ms.p50 falls inside one class whatever the seed
    ell_primes = _stratified(rng, BAND_CARTIER_ELL * 3, 6)
    for k in range(36):
        if k < 6:
            p = ell_primes[k]
            a, b = rng.randrange(p), rng.randrange(p)
            while (4 * a ** 3 + 27 * b ** 2) % p == 0:
                a, b = rng.randrange(p), rng.randrange(p)
            curve, ext = f"ell p={p} a={a} b={b}", 2
        else:
            p, curve, ext = 5, "raynaud p=5 l=1", 4
        g = [rng.randrange(p) for _ in range(3)]
        g[rng.randrange(3)] = rng.randrange(1, p)
        # C(g^p x^k dx) is g dx for k = p - 1 and 0 for 0 <= k < p - 1
        shift = p - 1 if k % 2 == 0 else rng.randrange(p - 1)
        form = [0] * (shift + 2 * p + 1)
        for i, c in enumerate(g):
            form[shift + p * i] = c
        image = g if shift == p - 1 else []
        comps = [f"{_poly(image)} / 1"] + ["0 / 1"] * (ext - 1)
        jobs.append({"kind": "cartier", "text": f"cmd=cartier\nmode=machine\n{curve}\n"
                     f"form {_poly(form)}\n",
                     "expect": f"cartier exact={'false' if image else 'true'}\n" + " ; ".join(comps)})
    for k, u in enumerate(_stratified(rng, fractions, 16)):
        # every (p, r) once admissible and once not
        p, r = BAND_ENUMERATE[k // 2 % 4], 3 + k // 8
        mu = [_residue(p, u)] + [rng.randrange(p) for _ in range(r - 1)]
        if k % 2 == 0:
            mu[-1] = (2 - r - sum(mu[:-1])) % p
        marks = ",".join(str(i) for i in range(r - 1)) + ",inf"
        flat = 1 if (r - 2 + sum(mu)) % p == 0 else 0
        jobs.append({"kind": "enumerate", "flat": flat,
                     "text": f"cmd=enumerate\nmode=machine\nmonodromy={','.join(map(str, mu))}\n"
                     f"p1 p={p} marks={marks}\n"})
    for p in (5, 5) + (11,) * 6:
        c, d = rng.randrange(1, p), rng.randrange(p)
        comps = [s.split(" / ") for s in TANGO_F[p]]
        comps = [([c * int(t) % p for t in num.split()], den.split()) for num, den in comps]
        # adding the constant d to the first component: num + d * den
        num0, den0 = comps[0]
        num0 = num0 + [0] * (len(den0) - len(num0))
        comps[0] = ([(n + d * int(t)) % p for n, t in zip(num0, den0)], den0)
        f = " ; ".join(f"{_poly(num)} / {' '.join(den)}" for num, den in comps)
        q = p
        genus = (q - 1) * (q - 2) // 2
        jobs.append({"kind": "tango", "chi": 2 * genus - 2, "p": p,
                     "text": f"cmd=tango-certify\nmode=machine\nraynaud p={p} l=1\nf {f}\n"})
    p = rng.choice(BAND_LARGE)
    jobs.append({"kind": "pcurv", "text": f"cmd=pcurv\nmode=machine\np1 p={p} marks=0,inf\n"
                 "conn rank=1 bundle=triv\n0\n"})
    # 22 malformed jobs: the 18 kinds, then the first 4 again with other draws
    for text in _malformed(rng) + _malformed(rng)[:4]:
        jobs.append({"kind": "malformed", "text": text})
    for i, job in enumerate(jobs):
        job.setdefault("name", f"{job['kind']}{i}")
    return {"jobs": jobs, "items": len(jobs)}


def setup(plan):
    path = os.path.join(os.path.dirname(os.path.abspath(__file__)), "cli_expected.json")
    with open(path, encoding="utf-8") as fh:
        expected = json.load(fh)
    return {"plan": plan, "expected": expected}


def answer(text):
    """(text, exit code) as `dormant run` gives them for a job file."""
    from dormant.cli import parse_job, run_job
    from dormant.errors import SemanticError, SyntaxError

    try:
        spec = parse_job(text)
    except (SyntaxError, SemanticError) as err:
        return f"error: {err}", 2
    return run_job(spec)


def _check_pcurv(job, out):
    from dormant.cli import ConnBlock, parse_job
    from dormant.connections import LogConnection, rank1_p_curvature_closed

    spec = parse_job(job["text"])
    block = next(b for b in spec.blocks if isinstance(b, ConnBlock))
    conn = LogConnection(spec.curve, block.matrix)
    lines = out.split("\n")
    if conn.rank == 1:
        # a rank-1 log connection on the line with residues in F_p is flat
        psi = rank1_p_curvature_closed(conn)
        return lines == ["pcurv rank=1 zero=true", psi.render()] and psi.is_zero
    # literal p-fold application of v -> v' + A v to each frame vector
    curve = conn.curve
    cols = []
    for j in range(conn.rank):
        vec = [curve.ff_const(1 if i == j else 0) for i in range(conn.rank)]
        for _ in range(curve.p):
            vec = [vec[i].derivative()
                   + sum((conn.entry(i, k) * vec[k] for k in range(conn.rank)), curve.ff_const(0))
                   for i in range(conn.rank)]
        cols.append(vec)
    entries = [cols[j][i].render() for i in range(conn.rank) for j in range(conn.rank)]
    zero = all(cols[j][i].is_zero for i in range(conn.rank) for j in range(conn.rank))
    return lines == [f"pcurv rank=2 zero={'true' if zero else 'false'}"] + entries


def _check_pretango(job, out):
    from dormant.cartier import pretango_from_tango
    from dormant.cli import ConnBlock, parse_job
    from dormant.connections import LogConnection, omega_log_label

    spec = parse_job(job["text"])
    block = next(b for b in spec.blocks if isinstance(b, ConnBlock))
    conn = LogConnection(spec.curve, block.matrix, omega_log_label(spec.curve))
    head, _, witness = out.partition("\n")
    if head == "pretango yes=false":
        return witness == "obstruction: nonzero Cartier image on the horizontal line"
    if head != "pretango yes=true" or not witness.startswith("witness f = "):
        return False
    curve_line = job["text"].split("\n")[2]
    f = parse_job(f"cmd=pretango\n{curve_line}\nf {witness[len('witness f = '):]}\n").blocks[0].value
    return pretango_from_tango(conn.label, f) == conn


def _check_miura(job, out):
    from dormant.cli import parse_job
    from dormant.connections import LogConnection, p_curvature

    lines = out.split("\n")
    if len(lines) != 6 or not lines[0].startswith("conn rank=2 ") or lines[5] != "special=true":
        return False
    curve_line = job["text"].split("\n")[3]
    spec = parse_job(f"cmd=pcurv\n{curve_line}\n" + "\n".join(lines[:5]) + "\n")
    matrix = spec.blocks[0].matrix
    oper = LogConnection(spec.curve, matrix, validate=False)
    return (matrix[0][1].is_zero and matrix[1][0] == spec.curve.ff_const(1)
            and p_curvature(oper).is_zero)


def _check_tango(job, out):
    lines = out.split("\n")
    p, chi = job["p"], job["chi"]
    if lines[0] != f"tango value={chi // p} exact=true":
        return False
    coeffs = [int(line.rsplit(" ", 1)[1]) for line in lines[1:]]
    return sum(coeffs) == chi and all(c % p == 0 for c in coeffs)


def _check(job, expected, res):
    out, code = res
    kind = job["kind"]
    if kind == "malformed":
        ok = code == 2
    elif code != 0:
        ok = False
    elif kind == "fixed":
        ok = [out, code] == expected[job["name"]]
    elif kind == "cartier":
        ok = out == job["expect"]
    elif kind == "enumerate":
        ok = out.startswith(f"flat={job['flat']} ")
    elif kind == "pcurv":
        ok = _check_pcurv(job, out)
    elif kind == "pretango":
        ok = _check_pretango(job, out)
    elif kind == "miura":
        ok = _check_miura(job, out)
    else:
        ok = _check_tango(job, out)
    return [f"{job['name']} {code}\n{out}"], int(not ok)


def units(state, span):
    """(label, items, call, check) per unit; check(result) -> (answers, failed)."""
    for job in state["plan"]["jobs"]:
        yield (job["name"], 1, lambda text=job["text"]: answer(text),
               lambda res, job=job: _check(job, state["expected"], res))
