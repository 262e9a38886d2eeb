"""Logarithmic connections d + A dx on framed bundles.

A connection is stored through its apparent matrix in a chosen frame of the
bundle; the frame's section divisor is kept on the bundle label so that
intrinsic residues can be recovered from apparent ones.  At rank one on the
line the p-curvature is 0 once the pole table's partial fractions certify the
u it names; else it is operator powering, (d/dx + A)^p on the identity frame, on
integral data: one denominator Delta clears A and the curve's structure
constants, the p steps run on y-basis coefficient lists over F_p[x], and
only the result is divided by Delta^p.
"""
from __future__ import annotations

from itertools import zip_longest

from .errors import (
    CurveMismatch,
    NoRationalGenerator,
    NotOmegaBundle,
    UndeclaredPoleDetected,
)
from .field import _deriv, _laurent, _list_add, _mul, _pow, _shift, _spread, _trim
from .curves import (
    INF,
    Differential,
    Divisor,
    FFElem,
    P1Marked,
    _Memo,
    _factor_linear_and_rest,
    _on_curve,
    _over_lcm,
    _point,
    _vadd,
    _vmul,
    branch_at,
)


class BundleLabel:
    """Name of a framed bundle plus the section divisor of the frame.

    corrections maps a rational point of the curve to the valuation of the
    frame section there; apparent residues of a connection matrix exceed
    intrinsic ones by exactly that coefficient.  The keys are normalized as
    branch_at normalizes points (so 7 is the point 2 on the line over F_5),
    and the coefficients of keys that land on one point add up.  corrections
    is a mapping or an iterable of (point, coefficient) pairs.  omega is k
    when the frame is (h dx)^k for the curve's omega frame h dx, and 0 for
    the coordinate frame or a hand-made one; only omega_label and dual set
    it.
    """

    __slots__ = ("curve", "name", "corrections", "omega")

    def __init__(self, curve, name: str, corrections=None, omega: int = 0):
        self.curve = curve
        self.name = name
        self.omega = omega
        self.corrections = {}
        pairs = corrections.items() if isinstance(corrections, dict) else corrections or ()
        for pt, v in pairs:
            pt = _point(curve, pt)
            self.corrections[pt] = self.corrections.get(pt, 0) + v

    def correction_at(self, point) -> int:
        return self.corrections.get(point, 0)

    def dual(self) -> "BundleLabel":
        return BundleLabel(
            self.curve,
            f"dual({self.name})",
            {pt: -v for pt, v in self.corrections.items()},
            -self.omega,
        )

    def __eq__(self, other):
        return (
            isinstance(other, BundleLabel)
            and other.curve == self.curve
            and other.omega == self.omega
            and other.corrections == self.corrections
        )

    def __repr__(self):
        return f"BundleLabel({self.name}, {self.corrections})"


def trivial_label(curve) -> BundleLabel:
    return BundleLabel(curve, "triv")


# the omega frame of each model: its name, and the model it lives on
_FRAMES = {
    "p1": ("omega_log", "the marked line"),
    "ell": ("omega_ell", "the elliptic model"),
    "raynaud": ("ray_omega", "the one-point model"),
}
OMEGA_FRAMES = tuple(name for name, _ in _FRAMES.values())


def _omega_frame(curve):
    """(label, h dx) of the curve's omega frame, built once per curve.

    The line is framed by dx / prod(x - a_i) over the finite marks, a global
    section vanishing to order r - 2 at the infinite mark, which therefore
    must be present; an elliptic curve by dx/y (nowhere zero); a Raynaud
    curve by d(-1/y) = dy/y^2.
    """
    def build():
        if curve.model == "p1":
            if not curve.stable:
                raise NotOmegaBundle("need a stable marked line")
            if INF not in curve.marks:
                raise NotOmegaBundle("the frame requires the infinite mark")
            den = [1]
            for m in curve.marks:
                if m != INF:
                    den = _mul(den, [-m % curve.p, 1], curve.p)
            h = FFElem._make(curve, [[1]], den, coprime=True)
            corrections = {INF: len(curve.marks) - 2}
        elif curve.model == "ell":
            h, corrections = curve.y_elem().inverse(), None
        else:
            h = (-curve.y_elem().inverse()).derivative()
            corrections = {(0, 0): 2 * curve.genus() - 2}
        label = BundleLabel(curve, _FRAMES[curve.model][0], corrections, 1)
        return label, Differential(curve, h)
    return curve._memo("omega_frame", build)


def omega_label(curve, name: str | None = None) -> BundleLabel:
    """The omega bundle of the curve's model in its frame; a name (one of
    OMEGA_FRAMES) of another model is an input error."""
    if name is not None and name != _FRAMES[curve.model][0]:
        raise ValueError(f"{name} lives on {dict(_FRAMES.values())[name]}")
    return _omega_frame(curve)[0]


def omega_log_label(curve: P1Marked) -> BundleLabel:
    return omega_label(curve, "omega_log")


def omega_frame_differential(label: BundleLabel) -> Differential:
    """The differential h dx that frames the omega bundle, once the label
    is checked to be that bundle in that frame."""
    if label.omega == 1:
        own, eta = _omega_frame(label.curve)
        if label.corrections == own.corrections:
            return eta
    raise NotOmegaBundle(f"{label.name} does not frame the differentials")


def frame_shift(curve, a: FFElem, k: int) -> FFElem:
    """A rank-1 matrix a in the coordinate frame (dx)^k, rewritten in the
    omega frame (h dx)^k: a + k dlog h; -k shifts back."""
    if not k:
        return a
    dl = curve._memo("omega_dlog", lambda: _omega_frame(curve)[1].h.dlog())
    return a + k * dl


class LogConnection(_Memo):
    """d + A dx in a fixed frame; rank is the matrix size.

    Immutable; facts proven about it (p-curvature, pre-Tango verdict) are
    kept through _memo, so each is proven once per connection.
    """

    __slots__ = ("curve", "rank", "matrix", "label")

    def __init__(self, curve, matrix, label: BundleLabel | None = None,
                 validate: bool = True):
        rows = [tuple(_on_curve(curve, c) for c in row) for row in matrix]
        self.curve = curve
        self._cache = {}
        self.rank = len(rows)
        if any(len(r) != self.rank for r in rows):
            raise ValueError("matrix must be square")
        self.matrix = tuple(rows)
        self.label = label if label is not None else trivial_label(curve)
        # pole placement is checked where it is cheap; the other models are
        # validated at their use sites
        if validate and curve.model == "p1":
            _validate_p1_log(self)

    def entry(self, i: int, j: int) -> FFElem:
        return self.matrix[i][j]

    def scalar(self) -> FFElem:
        if self.rank != 1:
            raise ValueError("rank-1 access on a higher-rank connection")
        return self.matrix[0][0]

    def __eq__(self, other):
        return (
            isinstance(other, LogConnection)
            and other.curve == self.curve
            and other.matrix == self.matrix
            and other.label == self.label
        )

    def __repr__(self):
        cells = "; ".join(
            ", ".join(c.render() for c in row) for row in self.matrix
        )
        return f"LogConnection[{self.rank}]({cells})"


def _line_poles(f: FFElem):
    """({place: (order, residue)}, cofactor) for the form f dx on the line:
    its poles at the rational roots of den f, ascending, then at INF where
    v(f) + v(dx) < 0 (v(dx) = -2 there), and the factor of den f with no
    rational root.  The one scan of F_p; the residues are ints in [0, p)."""
    (num,), den = f._num, f._den
    roots, rest = _factor_linear_and_rest(den, f.curve.p)
    poles = {c: (m, _p_residue_p1(f, c, 1)) for c, m in roots}
    if num and (k := len(num) - len(den) + 2) > 0:
        poles[INF] = (k, _p_residue_p1(f, INF, 1))
    return poles, rest


def _entry_poles(conn: LogConnection, i: int, j: int):
    """_line_poles of the entry (i, j), found once per connection; 0 has none."""
    return conn._memo(("poles", i, j), lambda f=conn.matrix[i][j]:
                      _line_poles(f) if any(f._num) else ({}, [1]))


def _residue(conn: LogConnection, i: int, j: int, place) -> int:
    return _entry_poles(conn, i, j)[0].get(place, (0, 0))[1]


def _line_connection(curve, a: FFElem, entry, label: BundleLabel) -> LogConnection:
    """The validated d + a on the line, given a's (table, rest) as _line_poles finds it."""
    conn = LogConnection(curve, [[a]], label, validate=False)
    conn._cache[("poles", 0, 0)] = entry
    _validate_p1_log(conn)
    return conn


def _negated(conn: LogConnection, k: int, label: BundleLabel) -> LogConnection:
    """d - (a + k dlog h) on label for the rank-one d + a, h dx the omega
    frame; on the line its pole table is read off a's, as dlog h has residue
    -1 at each finite mark and their number at INF."""
    curve, b = conn.curve, -frame_shift(conn.curve, conn.scalar(), k)
    if curve.model != "p1":
        return LogConnection(curve, [[b]], label)
    (table, rest), fin = _entry_poles(conn, 0, 0), [m for m in curve.marks if m != INF]
    shift, out = {**dict.fromkeys(fin, -k), INF: k * len(fin)}, {}
    for c in {**table, **shift}:
        order, res = table.get(c, (0, 0))
        if (res := -(res + shift.get(c, 0)) % curve.p) or order > 1:  # else it cancels
            out[c] = max(order, 1), res
    return _line_connection(curve, b, (out, rest), label)


def _partial_fractions(terms, p: int):
    """(num, den) = sum of v / (x - c) over pairs (c, v), num untrimmed."""
    num, den = [], [1]
    for c, v in terms:
        num = [(s - c * t + v * d) % p for s, t, d in zip([0] + num, num + [0], den)]
        den = [(s - c * t) % p for s, t in zip([0] + den, den + [0])]
    return num, den


def _validate_p1_log(conn: LogConnection) -> None:
    """One rule at every rational place, infinity included: an entry has at
    most a simple pole, and at an unmarked place its residue is 0, or on the
    diagonal the frame correction mod p (a frame vanishing to order k adds k
    dlog of the coordinate).  Order: finite places ascending, non-rational, INF."""
    p, marks = conn.curve.p, conn.curve.marks
    for i in range(conn.rank):
        for j in range(conn.rank):
            poles, rest = _entry_poles(conn, i, j)
            corr = conn.label.corrections if i == j else {}
            for c in sorted((poles.keys() | corr.keys()) - {INF}) + [INF]:
                order, res = poles.get(c, (0, 0))
                off = c not in marks and res != corr.get(c, 0) % p
                if c == INF:
                    if len(rest) > 1:
                        raise UndeclaredPoleDetected("non-rational pole in a matrix entry")
                    if order > 1 or off:
                        raise UndeclaredPoleDetected("pole at infinity beyond log order")
                elif order > 1:
                    raise UndeclaredPoleDetected(f"pole of order {order} at {c}")
                elif off:
                    raise UndeclaredPoleDetected(
                        f"residue at the unmarked point {c} is off the frame")


# ---------------------------------------------------------------------------
# p-curvature

class PCurvatureTensor:
    """Matrix of the p-curvature, valued in (dx)^(tensor p); horizontal is
    a rational u with u' + a u = 0 for a flat rank-one d + a, else None; for
    exponents {c: e} that certified it on the line, prod (x - c)^e, built when read."""

    __slots__ = ("curve", "rank", "matrix", "_horizontal", "exponents")

    def __init__(self, curve, matrix, horizontal=None, exponents=None):
        self.curve = curve
        self.rank = len(matrix)
        self.matrix = tuple(tuple(row) for row in matrix)
        self._horizontal, self.exponents = horizontal, exponents

    @property
    def horizontal(self):
        if self._horizontal is None and self.exponents is not None:
            self._horizontal = FFElem._make(
                self.curve, [_line_generator(self.exponents, self.curve.p)], [1], True)
        return self._horizontal

    @property
    def is_zero(self) -> bool:
        return all(c.is_zero for row in self.matrix for c in row)

    def entry(self, i: int, j: int) -> FFElem:
        return self.matrix[i][j]

    def scalar(self) -> FFElem:
        if self.rank != 1:
            raise ValueError("rank-1 access on a higher-rank tensor")
        return self.matrix[0][0]

    def __repr__(self):
        tag = "0" if self.is_zero else "nonzero"
        return f"PCurvatureTensor[{self.rank}]({tag})"


def p_curvature(conn: LogConnection) -> PCurvatureTensor:
    """The p-curvature, computed once per connection: at rank one on the
    line 0 if _certified certifies the pole table's u, which is built only
    when horizontal is read; else _power_frame's."""
    def compute():
        if conn.rank == 1 and conn.curve.model == "p1":
            exps, ok = _certified(conn.scalar(), _entry_poles(conn, 0, 0)[0])
            if ok:
                return PCurvatureTensor(conn.curve, [[conn.curve.ff_const(0)]], exponents=exps)
        return _power_frame(conn)
    return conn._memo("p_curvature", compute)


def _certified(a: FFElem, poles):
    """(exps, ok): e = -res_c mod p != 0 at each finite place c of the table,
    ok whether u = prod (x - c)^e has u' den(a) = -num(a) u; divided by u,
    with N / D = u'/u = sum e / (x - c), that is N den(a) = -num(a) D."""
    p = a.curve.p
    exps = {c: e for c, (_, res) in poles.items() if c != INF and (e := -res % p)}
    num, den = _partial_fractions(exps.items(), p)
    return exps, _mul(_trim(num), a._den, p) == _mul([-c % p for c in a._num[0]], den, p)


def _power_frame(conn: LogConnection) -> PCurvatureTensor:
    """(d/dx + A)^p applied to the frame columns; x is separating so the
    p-th derivation power contributes nothing and the result is linear.

    Powering runs on integral y-vectors.  With y' = Y / E and x^s the
    leading coefficient of the curve's minpoly, a product or a reduced
    derivative of integral vectors has a denominator dividing L_C = E x^s,
    and Delta = L_A L_C clears A too.  So P_k = Delta^k (d/dx + A)^k I is
    integral, and P_{k+1} = Delta P_k' - k Delta' P_k + (Delta A) P_k.
    Only P_p is divided, by Delta^p.  The powering stops at the first zero
    iterate; at rank one, if that is P_{k+1}, the integral
    u = Delta^(p-k) P_k = Delta^p (d/dx + a)^k 1 is horizontal.
    """
    curve = conn.curve
    p, n, alg = curve.p, conn.rank, curve.algebra()
    la, cells = _over_lcm([(c._num, c._den) for row in conn.matrix for c in row], p)
    yp = curve.yprime() if alg.d > 1 else None
    lc = _shift(yp._den, alg.s) if yp else [1]
    delta = _mul(la, lc, p)
    ndd = [-c % p for c in _deriv(delta, p)]
    # Delta A as integral vectors; the diagonal also carries the - k Delta'
    table = [[[_mul(lc, c, p) for c in cells[i * n + l]] for l in range(n)] for i in range(n)]
    m = [[[[1]] if i == j else [] for j in range(n)] for i in range(n)]
    horizontal = None
    for k in range(p):
        nxt = [[None] * n for _ in range(n)]
        for i in range(n):
            for j in range(n):
                out = [_mul(delta, _deriv(c, p), p) for c in m[i][j]]
                chain = [_trim([t * v % p for v in c]) for t, c in enumerate(m[i][j][1:], 1)]
                if any(chain):  # Delta (dP/dy) Y / E = L_A x^s w / x^(s e)
                    w, e = _vmul(chain, yp._num, alg)
                    out = _vadd(out, [_shift(_mul(la, c, p), alg.s * (1 - e))
                                      for c in w], p)
                for l in range(n):
                    w, e = _vmul(table[i][l], m[l][j], alg)
                    out = _vadd(out, [c[alg.s * e :] for c in w], p)
                nxt[i][j] = out
        m, prev = nxt, m
        if not any(c for row in m for v in row for c in v):
            if n == 1:
                lift = _pow(delta, p - k, p)
                horizontal = FFElem._make(curve, [_mul(c, lift, p) for c in prev[0][0]], [1], True)
            break
        for i in range(n):
            table[i][i][0] = _list_add(table[i][i][0], ndd, p)
    dp = _spread(delta, p)
    return PCurvatureTensor(curve, [[FFElem._make(curve, v, dp) for v in row] for row in m],
                            horizontal)


def rank1_p_curvature_closed(conn: LogConnection) -> FFElem:
    """a^p + (d/dx)^(p-1) a for rank one; agrees with operator powering."""
    a = conn.scalar()
    acc = a
    for _ in range(conn.curve.p - 1):
        acc = acc.derivative()
    return a ** conn.curve.p + acc


# ---------------------------------------------------------------------------
# monodromy

def monodromy(conn: LogConnection) -> tuple:
    """Residues at the marks, in the order of curve.marks, corrected by
    the frame divisor: ints in [0, p); () off the line, which has no marks."""
    if conn.rank != 1:
        raise ValueError("monodromy vector is a rank-one notion")
    curve = conn.curve
    if curve.model != "p1":
        return ()
    return tuple((_residue(conn, 0, 0, m) - conn.label.correction_at(m)) % curve.p
                 for m in curve.marks)


def residue_pcurvature_identity(conn: LogConnection):
    """Per-mark check that Res(Psi) equals R^p - R for the residue matrix R.

    Both sides are taken in the working frame; they transform the same way,
    so the comparison is frame-independent.
    """
    curve = conn.curve
    if curve.model != "p1":
        raise CurveMismatch("identity report implemented over the marked line")
    p = curve.p
    psi = p_curvature(conn)
    report = []
    for mark in conn.curve.marks:
        n = conn.rank
        rmat = [[_residue(conn, i, j, mark) for j in range(n)] for i in range(n)]
        lhs = [[_p_residue_p1(psi.entry(i, j), mark, p) for j in range(n)] for i in range(n)]
        rhs = _int_mat_sub(_int_mat_pow(rmat, p, p), rmat, p)
        report.append({"mark": mark, "lhs": lhs, "rhs": rhs, "ok": lhs == rhs})
    return report


def _p_residue_p1(f: FFElem, mark, k: int) -> int:
    """Coefficient of (dt/t)^k in f (dx)^k at the mark of the line, k odd:
    the residue at k = 1, the p-residue at k = p.  It is the coefficient of
    t^-k in f at a finite mark; at INF, where (dx)^k = -t^(-2k) (dt)^k in
    t = 1/x, minus that of t^k."""
    (num,), den, p = f._num, f._den, f.curve.p
    e = k if mark == INF else -k
    cs = _laurent(num, den, mark, e + 1, p)[1] if num else []
    c = cs[-1] if cs else 0
    return -c % p if mark == INF else c


def _int_mat_pow(m, e, p):
    n = len(m)
    out = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    base = [row[:] for row in m]
    while e:
        if e & 1:
            out = _int_mat_mul(out, base, p)
        base = _int_mat_mul(base, base, p)
        e >>= 1
    return out


def _int_mat_mul(a, b, p):
    n = len(a)
    return [
        [sum(a[i][k] * b[k][j] for k in range(n)) % p for j in range(n)]
        for i in range(n)
    ]


def _int_mat_sub(a, b, p):
    return [
        [(x - y) % p for x, y in zip(ra, rb)] for ra, rb in zip(a, b)
    ]


# ---------------------------------------------------------------------------
# canonical connections and descent

def canonical_connection(curve, unit=1) -> LogConnection:
    """The Frobenius-pullback connection, written in the frame unit * 1.

    With the natural frame the matrix is zero; multiplying the frame by a
    rational unit u shifts the apparent matrix to dlog u.
    """
    unit = _on_curve(curve, unit)
    if unit.is_zero:
        raise ValueError("frame unit must be nonzero")
    a = unit.dlog()
    label = BundleLabel(curve, "canonical", _divisor_points_p1(unit))
    return LogConnection(curve, [[a]], label)


def _divisor_points_p1(u: FFElem):
    """Valuations of a rational u at its rational zeros and poles, in
    ascending order, then at inf."""
    if u.curve.ext_degree != 1:
        return {}
    (num,), den, p = u._num, u._den, u.curve.p
    zeros, poles = _factor_linear_and_rest(num, p)[0], _factor_linear_and_rest(den, p)[0]
    corr = dict(sorted(zeros + [(c, -m) for c, m in poles]))
    if v_inf := len(den) - len(num):
        corr[INF] = v_inf
    return corr


def solve_dlog(curve, g: FFElem) -> FFElem:
    """Find rational u with dlog u = g, up to p-th powers, on a model with a
    y coordinate (the line has none: CurveMismatch).

    u is searched among the monomials x^i y^j: i dlog x + j dlog y = g is
    solved as an F_p-linear system on the cleared y-basis coefficients, for
    the lexicographically least (i, j).  A miss raises NoRationalGenerator
    carrying the unresolved form; a pre-Tango step then takes
    PCurvatureTensor.horizontal.
    """
    g = _on_curve(curve, g)
    if g.is_zero:
        return curve.ff_const(1)
    p = curve.p
    x, y = curve.x_elem(), curve.y_elem()
    dlx, dly = curve._memo("dlog_xy", lambda: (x.dlog(), y.dlog()))
    rows = [row for comps in zip(*_over_lcm([(e._num, e._den) for e in (dlx, dly, g)], p)[1])
            for row in zip_longest(*comps, fillvalue=0)]
    ij = _least_solution(rows, p)
    if ij is not None and (ij[0] * dlx + ij[1] * dly - g).is_zero:
        return x ** ij[0] * y ** ij[1]
    raise NoRationalGenerator("monomial search exhausted")


def _line_generator(exps, p: int):
    """prod (x - c)^e over exps = {c: e} as a coefficient list, each factor
    by its binomials, top down."""
    u = [1]
    for c, e in exps.items():
        lin = [0] * e + [1]
        for k in range(e - 1, -1, -1):
            lin[k] = lin[k + 1] * -c * (k + 1) * pow(e - k, -1, p) % p
        u = _mul(u, lin, p)
    return u


def _least_solution(rows, p):
    """Lexicographically least (i, j) in F_p^2 with a i + b j = c for every
    row (a, b, c), or None; Gauss-Jordan elimination."""
    piv = {}  # pivot column -> its row, reduced and scaled to 1
    for row in rows:
        for col, pr in piv.items():
            row = [(v - row[col] * w) % p for v, w in zip(row, pr)]
        col = next((k for k in (0, 1) if row[k]), None)
        if col is None:
            if row[2]:
                return None
            continue
        inv = pow(row[col], p - 2, p)
        row = [v * inv % p for v in row]
        piv = {k: [(v - pr[col] * w) % p for v, w in zip(pr, row)]
               for k, pr in piv.items()}
        piv[col] = row
    if len(piv) == 2:
        return piv[0][2], piv[1][2]
    if 0 not in piv:
        return 0, piv[1][2] if 1 in piv else 0
    _, b, c = piv[0]
    return (0, c * pow(b, p - 2, p) % p) if b else (c, 0)


def frobenius_descent(conn: LogConnection) -> Divisor:
    """The divisor a rank-one log connection on the line descends to along
    Frobenius.

    Its coefficient at a point is (v(u) + frame correction + lifted
    residue) / p for the horizontal u = prod (x - c)^e_c that p_curvature
    reads off the pole table, so v(u) is e_c at each finite c and -sum e_c
    at INF.  Every connection that validation passes is flat there, as its
    residues lie in F_p, and p divides every weight: at a finite c it is
    e_c + corr + ((res - corr) mod p) with e_c = -res mod p, and at INF the
    same with -sum e_c = sum of the finite res_c = -res_INF mod p, by the
    residue theorem.
    """
    curve = conn.curve
    if curve.model != "p1":
        raise CurveMismatch("Frobenius descent is implemented on the line")
    if conn.rank != 1:
        raise ValueError("descent implemented for rank one")
    _validate_p1_log(conn)
    p, exps = curve.p, p_curvature(conn).exponents
    div = {**exps, INF: -sum(exps.values())}
    mono = dict(zip(curve.marks, monodromy(conn)))
    items = []
    for pt in sorted({*curve.marks, *conn.label.corrections, *div}, key=str):
        total = div.get(pt, 0) + conn.label.correction_at(pt) + mono.get(pt, 0)
        if total:
            items.append((branch_at(curve, pt), total // p))
    return Divisor(items)


# ---------------------------------------------------------------------------
# dual

def dual(conn: LogConnection) -> LogConnection:
    """d - a on the dual label, for the rank-one d + a."""
    return _negated(conn, 0, conn.label.dual())
