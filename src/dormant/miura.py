"""Exponent bookkeeping, Cartan pairs, and special rank-2 Miura operators.

A Cartan connection is a tuple of rank-1 log connections, the l-th living
on the l-th tensor power of the log tangent sheaf.  The Miura operator
built from a rank-2 Cartan pair is the lower-triangular connection

    [[a0, 0], [1, a1]]

written in the coordinate frame, with the constant 1 in the corner
realizing the identity Kodaira-Spencer map.  Dormancy of that operator is
equivalent to the pre-Tango condition on the rank-1 input; both
directions of the bridge are implemented.
"""
from __future__ import annotations

from typing import Sequence, Tuple

from .errors import (
    BadTrivialization,
    CurveMismatch,
    DegenerateKS,
    NotDormant,
    NotPreTango,
)
from .field import _order
from .curves import INF, FFElem
from .connections import (
    LogConnection,
    _negated,
    dual,
    frame_shift,
    monodromy,
    omega_label,
    p_curvature,
    tensor,
    trivial_label,
)
from .cartier import is_pre_tango

class ExponentVector:
    """Per-mark vectors in F_p^n together with their class modulo the
    diagonal, normalized so the first entry is 0."""

    __slots__ = ("p", "marks", "vectors")

    def __init__(self, p: int, marks, vectors):
        self.p = p
        self.marks = tuple(marks)
        self.vectors = tuple(tuple(v % p for v in vec) for vec in vectors)
        if len(self.vectors) != len(self.marks):
            raise ValueError("one vector per mark expected")

    @property
    def n(self) -> int:
        return len(self.vectors[0]) if self.vectors else 0

    def class_rep(self) -> Tuple[Tuple[int, ...], ...]:
        return tuple(
            tuple((v - vec[0]) % self.p for v in vec) for vec in self.vectors
        )

    def __eq__(self, other):
        if not isinstance(other, ExponentVector):
            return NotImplemented
        return self.marks == other.marks and self.vectors == other.vectors

    def same_class(self, other: "ExponentVector") -> bool:
        return self.marks == other.marks and self.class_rep() == other.class_rep()

    def __repr__(self):
        return f"ExponentVector({dict(zip(self.marks, self.vectors))})"


def class_of(field, marks, eps) -> ExponentVector:
    """Exponent class of per-mark data: each entry is prepended with 0 and
    read modulo the diagonal."""
    vectors = []
    for e in eps:
        if isinstance(e, (tuple, list)):
            vectors.append((0, *[int(v) for v in e]))
        else:
            vectors.append((0, int(e)))
    return ExponentVector(field.p, marks, vectors)


class CartanConnection:
    """Tuple of rank-1 log connections on O, T_log, T_log^2, ..."""

    __slots__ = ("curve", "components")

    def __init__(self, curve, components: Sequence[LogConnection]):
        comps = tuple(components)
        for comp in comps:
            if comp.curve != curve:
                raise CurveMismatch("Cartan components on different curves")
            if comp.rank != 1:
                raise ValueError("Cartan components must be rank one")
        self.curve = curve
        self.components = comps

    @property
    def n(self) -> int:
        return len(self.components)

    def __eq__(self, other):
        if not isinstance(other, CartanConnection):
            return NotImplemented
        return self.curve == other.curve and self.components == other.components

    def __repr__(self):
        return f"CartanConnection(n={self.n})"


def cartan_from_connections(*nablas: LogConnection) -> CartanConnection:
    """(nabla_1, ..., nabla_{n-1}) on the log cotangent side to the Cartan
    tuple (d, nabla_1^dual, nabla_1^dual (x) nabla_2^dual, ...)."""
    if not nablas:
        raise ValueError("at least one input connection expected")
    curve = nablas[0].curve
    for nb in nablas:
        if nb.curve != curve:
            raise CurveMismatch("inputs on different curves")
        if nb.rank != 1:
            raise ValueError("rank-one inputs expected")
    comps = [LogConnection(curve, [[curve.ff_const(0)]], trivial_label(curve))]
    acc = None
    for nb in nablas:
        dv = dual(nb)
        acc = dv if acc is None else tensor(acc, dv)
        comps.append(acc)
    return CartanConnection(curve, comps)


class MiuraGL2Oper:
    """Rank-2 connection [[a0, 0], [1, a1]] plus its graded Cartan pair."""

    __slots__ = ("curve", "cartan", "connection")

    def __init__(self, curve, cartan: CartanConnection, connection: LogConnection):
        if connection.rank != 2:
            raise ValueError("rank-2 connection expected")
        self.curve = curve
        self.cartan = cartan
        self.connection = connection

    @property
    def a0(self) -> FFElem:
        return self.connection.entry(0, 0)

    @property
    def a1(self) -> FFElem:
        return self.connection.entry(1, 1)

    @property
    def is_special(self) -> bool:
        return (
            self.connection.entry(0, 1).is_zero
            and self.connection.entry(1, 0) == self.curve.ff_const(1)
        )

    def __eq__(self, other):
        if not isinstance(other, MiuraGL2Oper):
            return NotImplemented
        return (
            self.curve == other.curve
            and self.connection == other.connection
            and self.cartan == other.cartan
        )

    def __repr__(self):
        return f"MiuraGL2Oper(a0={self.a0.render()}, a1={self.a1.render()})"


def miura_from_cartan(c: CartanConnection) -> MiuraGL2Oper:
    """The special Miura operator of a rank-2 Cartan pair, written in the
    coordinate frame: a component framed by (h dx)^k is shifted back by
    -k dlog h."""
    if c.n != 2:
        raise ValueError("only the rank-2 construction is executable")
    curve = c.curve
    a0, a1 = (frame_shift(curve, comp.scalar(), -comp.label.omega) for comp in c.components)
    conn = LogConnection(
        curve,
        [[a0, curve.ff_const(0)], [curve.ff_const(1), a1]],
        trivial_label(curve),
        validate=False,
    )
    return MiuraGL2Oper(curve, c, conn)


def exponent_of(m: MiuraGL2Oper) -> ExponentVector:
    """Per-mark residue vectors of the graded components."""
    marks = m.curve.marks
    monos = [monodromy(comp) for comp in m.cartan.components]
    vectors = [tuple(mono[i] for mono in monos) for i in range(len(marks))]
    return ExponentVector(m.curve.field.p, marks, vectors)


def is_dormant(m: MiuraGL2Oper) -> bool:
    """True when the rank-2 p-curvature vanishes identically."""
    return p_curvature(m.connection).is_zero


def specialize(general: LogConnection):
    """Unique diagonal change of frame onto the special shape.

    The input must already kill the upper filtration line (zero (1,2)
    entry); the (2,1) entry must be a unit on the chart away from the
    marks.  Returns the special operator and the recorded basis change.
    """
    if general.rank != 2:
        raise ValueError("rank-2 input expected")
    curve = general.curve
    if not general.entry(0, 1).is_zero:
        raise BadTrivialization("nonzero (1,2) entry is not a Miura presentation")
    g = general.entry(1, 0)
    if g.is_zero:
        raise DegenerateKS("the Kodaira-Spencer entry vanishes identically")
    if curve.model == "p1":
        num, p = g.as_ratfunc().num.coeffs, curve.p
        for mark in curve.marks:
            if mark != INF:
                num = _order(num, (-mark % p, 1), p)[1]
        if len(num) > 1:
            raise DegenerateKS("the Kodaira-Spencer entry vanishes on the chart")
    comps = [LogConnection(curve, [[a]], trivial_label(curve), validate=False)
             for a in (general.entry(0, 0), general.entry(1, 1) + g.dlog())]
    return miura_from_cartan(CartanConnection(curve, comps)), g


def miura_from_tango(conn: LogConnection) -> MiuraGL2Oper:
    """Dormant special Miura operator of a pre-Tango connection."""
    if not is_pre_tango(conn):
        raise NotPreTango("the input connection is not pre-Tango")
    return miura_from_cartan(cartan_from_connections(conn))


def pretango_of(m: MiuraGL2Oper) -> LogConnection:
    """Recover the rank-1 pre-Tango connection from a dormant operator."""
    if not m.is_special:
        raise BadTrivialization("specialize the operator first")
    if not is_dormant(m):
        raise NotDormant("the operator has nonzero p-curvature")
    curve, comp1 = m.curve, m.cartan.components[1]
    # the graded line rewritten in the frame (h dx)^-1 of dual(omega), negated
    return _negated(comp1, -1 - comp1.label.omega, omega_label(curve))
