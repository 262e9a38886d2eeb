"""Logarithmic connections d + A dx on framed bundles.

A connection is stored through its apparent matrix in a chosen frame of the
bundle; the frame's section divisor is kept on the bundle label so that
intrinsic residues can be recovered from apparent ones.  The p-curvature is
computed by operator powering, (d/dx + A)^p on the identity frame, on
integral data: one denominator Delta clears A and the curve's structure
constants, the p steps run on y-basis coefficient lists over F_p[x], and
only the result is divided by Delta^p.
"""
from __future__ import annotations

from itertools import zip_longest

from .errors import (
    CurveMismatch,
    NoRationalGenerator,
    NotDivisibleByP,
    NotFlat,
    NotOmegaBundle,
    UndeclaredPoleDetected,
)
from .field import RatFunc, UPoly, _deriv, _list_add, _mul, _shift, _spread, _trim
from .curves import (
    INF,
    Differential,
    Divisor,
    FFElem,
    P1Marked,
    RaynaudPlane,
    Weierstrass,
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
    the coordinate frame or a hand-made one; only omega_label, dual and
    tensor set it.
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

    def degree(self) -> int:
        return sum(self.corrections.values())

    def correction_at(self, point) -> int:
        return self.corrections.get(point, 0)

    def dual(self) -> "BundleLabel":
        return BundleLabel(
            self.curve,
            f"dual({self.name})",
            {pt: -v for pt, v in self.corrections.items()},
            -self.omega,
        )

    def tensor(self, other: "BundleLabel") -> "BundleLabel":
        return BundleLabel(self.curve, f"{self.name}*{other.name}",
                           [*self.corrections.items(), *other.corrections.items()],
                           self.omega + other.omega)

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
            den = UPoly.one(curve.field)
            for m in curve.marks:
                if m != INF:
                    den = den * UPoly(curve.field, (-m, 1))
            h = FFElem(curve, (RatFunc(curve.field, UPoly.one(curve.field), den),))
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


def omega_ell_label(curve: Weierstrass) -> BundleLabel:
    return omega_label(curve, "omega_ell")


def raynaud_omega_label(curve: RaynaudPlane) -> BundleLabel:
    return omega_label(curve, "ray_omega")


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
    rational root.  The one scan of F_p; the residues are RatFunc's."""
    r = f.as_ratfunc()
    roots, rest = _factor_linear_and_rest(r._den, f.curve.p)
    poles = {c: (m, r.residue_at(c)) for c, m in roots}
    if not r.is_zero and (k := len(r._num[0]) - len(r._den) + 2) > 0:
        poles[INF] = (k, r.residue_at_infinity())
    return poles, rest


def _entry_poles(conn: LogConnection, i: int, j: int):
    """_line_poles of the entry (i, j), found once per connection."""
    return conn._memo(("poles", i, j), lambda: _line_poles(conn.matrix[i][j]))


def _residue(conn: LogConnection, i: int, j: int, place) -> int:
    return _entry_poles(conn, i, j)[0].get(place, (0, 0))[1]


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
    """Matrix of the p-curvature, valued in (dx)^(tensor p)."""

    __slots__ = ("curve", "rank", "matrix")

    def __init__(self, curve, matrix):
        self.curve = curve
        self.rank = len(matrix)
        self.matrix = tuple(tuple(row) for row in matrix)

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
    """The p-curvature, computed once per connection by _power_frame."""
    return conn._memo("p_curvature", lambda: _power_frame(conn))


def _power_frame(conn: LogConnection) -> PCurvatureTensor:
    """(d/dx + A)^p applied to the frame columns; x is separating so the
    p-th derivation power contributes nothing and the result is linear.

    Powering runs on integral y-vectors.  With y' = Y / E and x^s the
    leading coefficient of the curve's minpoly, a product or a reduced
    derivative of integral vectors has a denominator dividing L_C = E x^s,
    and Delta = L_A L_C clears A too.  So P_k = Delta^k (d/dx + A)^k I is
    integral, and P_{k+1} = Delta P_k' - k Delta' P_k + (Delta A) P_k.
    Only P_p is divided, by Delta^p.
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
    for _ in range(p):
        nxt = [[None] * n for _ in range(n)]
        for i in range(n):
            for j in range(n):
                out = [_mul(delta, _deriv(c, p), p) for c in m[i][j]]
                chain = [_trim([k * v % p for v in c]) for k, c in enumerate(m[i][j][1:], 1)]
                if any(chain):  # Delta (dP/dy) Y / E = L_A x^s w / x^(s e)
                    w, e = _vmul(chain, yp._num, alg)
                    out = _vadd(out, [_shift(_mul(la, c, p), alg.s * (1 - e))
                                      for c in w], p)
                for l in range(n):
                    w, e = _vmul(table[i][l], m[l][j], alg)
                    out = _vadd(out, [c[alg.s * e :] for c in w], p)
                nxt[i][j] = out
        m = nxt
        for i in range(n):
            table[i][i][0] = _list_add(table[i][i][0], ndd, p)
    dp = _spread(delta, p)
    return PCurvatureTensor(curve, [[FFElem._make(curve, v, dp) for v in row] for row in m])


def rank1_p_curvature_closed(conn: LogConnection) -> FFElem:
    """a^p + (d/dx)^(p-1) a for rank one; agrees with operator powering."""
    a = conn.scalar()
    acc = a
    for _ in range(conn.curve.p - 1):
        acc = acc.derivative()
    return a ** conn.curve.p + acc


# ---------------------------------------------------------------------------
# monodromy

class MonodromyVector:
    """Residues at the declared marks, corrected by the frame divisor."""

    __slots__ = ("curve", "marks", "values")

    def __init__(self, curve, marks, values):
        self.curve = curve
        self.marks = tuple(marks)
        self.values = tuple(v % curve.p for v in values)

    def __iter__(self):
        return iter(self.values)

    def __len__(self):
        return len(self.values)

    def __getitem__(self, i):
        return self.values[i]

    def __eq__(self, other):
        if isinstance(other, MonodromyVector):
            return other.marks == self.marks and other.values == self.values
        if isinstance(other, tuple):
            return self.values == other
        return NotImplemented

    def __repr__(self):
        return f"MonodromyVector({dict(zip(self.marks, self.values))})"


def monodromy(conn: LogConnection) -> MonodromyVector:
    if conn.rank != 1:
        raise ValueError("monodromy vector is a rank-one notion")
    vals = []
    if conn.curve.model == "p1":  # the other models carry no marks
        vals = [_residue(conn, 0, 0, m) - conn.label.correction_at(m)
                for m in conn.curve.marks]
    return MonodromyVector(conn.curve, conn.curve.marks, vals)


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
        lhs = [[_p_residue_p1(psi.entry(i, j).as_ratfunc(), mark, p) % p for j in range(n)]
               for i in range(n)]
        rhs = _int_mat_sub(_int_mat_pow(rmat, p, p), rmat, p)
        report.append({"mark": mark, "lhs": lhs, "rhs": rhs, "ok": lhs == rhs})
    return report


def _p_residue_p1(f: RatFunc, mark, p: int) -> int:
    """Coefficient of (dt/t)^p in f (dx)^p at the mark."""
    if f.is_zero:
        return 0
    if mark == INF:
        # dx = -t^(-2) dt, (dx)^p = -t^(-2p) (dt)^p for odd p
        s = f.series_at_infinity(p + 1)
        return (-s.coeff(p)) % p
    s = f.series_at(mark, -p + 1)
    return s.coeff(-p)


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
    """Find rational u with dlog u = g, up to p-th powers.

    On the line u is the polynomial prod (x - c)^e over the rational poles
    c of g, e the residue of g at c in [1, p); it solves dlog u = g exactly
    when u' den(g) = num(g) u.  On the other models u is searched among the
    monomials x^i y^j: i dlog x + j dlog y = g is solved as an F_p-linear
    system on the cleared y-basis coefficients, for the lexicographically
    least (i, j).  A miss raises NoRationalGenerator carrying the unresolved
    form, which is the honest outcome because a formal certificate can
    still decide dormancy downstream.
    """
    g = _on_curve(curve, g)
    if g.is_zero:
        return curve.ff_const(1)
    p, field = curve.p, curve.field
    if curve.ext_degree == 1:
        u = UPoly.one(field)
        for c, (_, e) in _line_poles(g)[0].items():
            if e and c != INF:
                u = u * UPoly(field, (-c, 1)) ** e
        if _mul(_deriv(u.coeffs, p), g._den, p) == _mul(g._num[0], u.coeffs, p):
            return FFElem(curve, (u,))
        raise NoRationalGenerator(
            "no rational solution of dlog u = g over the line",
            descent=g - FFElem(curve, (RatFunc.from_poly(u).dlog(),)),
        )
    x, y = curve.x_elem(), curve.y_elem()
    dlx, dly = curve._memo("dlog_xy", lambda: (x.dlog(), y.dlog()))
    rows = [row for comps in zip(*_over_lcm([(e._num, e._den) for e in (dlx, dly, g)], p)[1])
            for row in zip_longest(*comps, fillvalue=0)]
    ij = _least_solution(rows, p)
    if ij is not None and (ij[0] * dlx + ij[1] * dly - g).is_zero:
        return x ** ij[0] * y ** ij[1]
    raise NoRationalGenerator("monomial search exhausted", descent=g)


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


def horizontal_generator(conn: LogConnection) -> FFElem:
    """Rational u with u' + a u = 0, i.e. dlog u = -a; rank one and flat."""
    if conn.rank != 1:
        raise ValueError("horizontal generator is a rank-one notion")
    if not p_curvature(conn).is_zero:
        raise NotFlat("nonzero p-curvature admits no horizontal generator")
    return solve_dlog(conn.curve, -conn.scalar())


class DescentClass:
    """Descent datum of a flat rank-one connection.

    Principal classes store the descended divisor and the horizontal
    generator; a missing rational generator leaves a residual form which
    still pins the class on the twisted model.
    """

    __slots__ = ("curve", "principal", "divisor", "generator", "residual")

    def __init__(self, curve, principal, divisor=None, generator=None, residual=None):
        self.curve = curve
        self.principal = principal
        self.divisor = divisor
        self.generator = generator
        self.residual = residual

    def __eq__(self, other):
        if not isinstance(other, DescentClass):
            return NotImplemented
        if other.curve != self.curve or other.principal != self.principal:
            return False
        if self.principal:
            # on the twisted line only the degree survives
            return self.divisor.degree() == other.divisor.degree()
        diff = self.residual - other.residual
        if diff.is_zero:
            return True
        try:
            solve_dlog(self.curve, diff)
            return True
        except NoRationalGenerator:
            return False

    def __repr__(self):
        if self.principal:
            return f"DescentClass(principal, {self.divisor.render()})"
        return "DescentClass(non-principal)"


def frobenius_descent(conn: LogConnection) -> DescentClass:
    """Descend a flat rank-one log connection along Frobenius.

    The descended divisor coefficient at a point is
    (v(u) + frame correction + lifted residue) / p for the horizontal u;
    failure of divisibility is a hard error, a missing rational u a
    non-principal class.
    """
    curve = conn.curve
    if conn.rank != 1:
        raise ValueError("descent implemented for rank one")
    p = curve.p
    if not p_curvature(conn).is_zero:
        raise NotFlat("descent requires a flat connection")
    try:
        u = horizontal_generator(conn)
    except NoRationalGenerator:
        return DescentClass(curve, False, residual=conn.scalar())
    mono = monodromy(conn)
    mono_map = dict(zip(mono.marks, mono.values))
    if curve.ext_degree != 1:
        return DescentClass(curve, True, Divisor(), u)
    div = _divisor_points_p1(u)
    items = []
    for pt in sorted(set(conn.curve.marks) | set(conn.label.corrections) | set(div), key=str):
        total = div.get(pt, 0) + conn.label.correction_at(pt) + (mono_map.get(pt, 0) % p)
        if total % p:
            raise NotDivisibleByP(
                f"descent weight {total} at {pt} is not divisible by {p}",
                branch=pt,
            )
        if total:
            items.append((branch_at(curve, pt), total // p))
    return DescentClass(curve, True, Divisor(items), u)


# ---------------------------------------------------------------------------
# tensor and dual

def tensor(c1: LogConnection, c2: LogConnection) -> LogConnection:
    if c1.curve != c2.curve:
        raise CurveMismatch("tensor over different curves")
    if c1.rank == 1 and c2.rank == 1:
        a = c1.scalar() + c2.scalar()
        return LogConnection(c1.curve, [[a]], c1.label.tensor(c2.label))
    if c1.rank == 1:
        a = c1.scalar()
        m = [
            [c2.entry(i, j) + (a if i == j else 0) for j in range(c2.rank)]
            for i in range(c2.rank)
        ]
        return LogConnection(c1.curve, m, c1.label.tensor(c2.label))
    if c2.rank == 1:
        return tensor(c2, c1)
    raise ValueError("tensor of two higher-rank connections is not needed")


def dual(conn: LogConnection) -> LogConnection:
    m = [
        [-conn.entry(j, i) for j in range(conn.rank)]
        for i in range(conn.rank)
    ]
    return LogConnection(conn.curve, m, conn.label.dual())
