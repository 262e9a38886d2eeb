"""Command line front end and the line-oriented job file format.

One plain-text format carries every command: comment lines start with
`#`, options are `key=value` lines, the curve is one descriptor line,
and payloads follow as typed blocks whose entries use the coefficient
grammar of the field layer (`c0 c1 ... / d0 d1 ...`, components joined
by `;`).  Parsing is total: any input either yields a JobSpec or raises
SyntaxError with a line number, or SemanticError.
"""
from __future__ import annotations

import argparse
import os
import random
import sys
from typing import Optional

from .cartier import cartier_curve, decide_pre_tango
from .connections import (
    OMEGA_FRAMES,
    LogConnection,
    canonical_connection,
    frame_shift,
    omega_label,
    omega_log_label,
    p_curvature,
    trivial_label,
)
from .curves import (
    INF,
    Differential,
    Divisor,
    FFElem,
    P1Marked,
    RaynaudPlane,
    Weierstrass,
    _place_name,
    d_of,
    raynaud_p_inf,
)
from .errors import (
    DormantError,
    SemanticError,
    SyntaxError,
)
from .field import PrimeField, RatFunc, UPoly, is_prime
from .miura import (
    CartanConnection,
    MiuraGL2Oper,
    exponent_of,
    is_dormant,
    miura_from_cartan,
    miura_from_tango,
    pretango_of,
    specialize,
)
from .moduli import count_pretango, enumerate_flat, sweep_genus0
from .surface import build_surface, validate_cocycle
from .tango import (
    build_generalized_tango,
    certify_tango_structure,
    search_tango_candidates,
)

COMMANDS = (
    "pcurv",
    "cartier",
    "pretango",
    "enumerate",
    "tango-certify",
    "tango-search",
    "miura",
    "raynaud",
    "selftest",
)


# ---------------------------------------------------------------------------
# job model

class ConnBlock:
    __slots__ = ("rank", "bundle", "matrix", "special")

    def __init__(self, rank: int, bundle: str, matrix=(), special: bool = False):
        self.rank = rank
        self.bundle = bundle
        self.matrix = list(matrix)
        self.special = special


class ValueBlock:
    """A single-payload block: `form` (a differential h dx) or `f`."""

    __slots__ = ("kind", "value")

    def __init__(self, kind: str, value: FFElem):
        self.kind = kind
        self.value = value


class JobSpec:
    """Parsed job: command, base curve, payload blocks, options."""

    __slots__ = ("command", "p", "curve", "blocks", "options")

    def __init__(self, command, p, curve, blocks, options):
        self.command = command
        self.p = p
        self.curve = curve
        self.blocks = tuple(blocks)
        self.options = dict(options)

    @property
    def machine(self) -> bool:
        return self.options.get("mode") == "machine"


# ---------------------------------------------------------------------------
# parsing

def _parse_int(token: str, lineno: int, what: str) -> int:
    try:
        return int(token)
    except ValueError:
        raise SyntaxError(lineno, f"{what}: {token!r} is not an integer")


def _parse_elem(curve, line: str, lineno: int) -> FFElem:
    if curve is None:
        raise SyntaxError(lineno, "payload before the curve line")
    field = curve.field
    comps = []
    for chunk in line.split(";"):
        num_s, slash, den_s = chunk.partition("/")
        nums = [_parse_int(t, lineno, "coefficient") for t in num_s.split()]
        if not nums:
            raise SyntaxError(lineno, "empty numerator in a payload component")
        if slash:
            dens = [_parse_int(t, lineno, "coefficient") for t in den_s.split()]
            if not dens:
                raise SyntaxError(lineno, "empty denominator in a payload component")
        else:
            dens = [1]
        try:
            comps.append(RatFunc(field, UPoly(field, nums), UPoly(field, dens)))
        except DormantError as err:
            raise SemanticError(f"line {lineno}: {err}")
    if len(comps) > curve.ext_degree:
        raise SemanticError(
            f"line {lineno}: {len(comps)} components on a degree "
            f"{curve.ext_degree} model"
        )
    return FFElem(curve, tuple(comps))


def _parse_kv_pairs(tokens, lineno: int) -> dict:
    out = {}
    for tok in tokens:
        key, eq, val = tok.partition("=")
        if not eq or not key or not val:
            raise SyntaxError(lineno, f"expected key=value, got {tok!r}")
        if key in out:
            raise SyntaxError(lineno, f"duplicate key {key!r}")
        out[key] = val
    return out

def _parse_curve(line: str, lineno: int, p_declared):
    tokens = line.split()
    model = tokens[0]
    kv = _parse_kv_pairs(tokens[1:], lineno)
    if "p" not in kv:
        raise SyntaxError(lineno, "curve line must carry p=<prime>")
    p = _parse_int(kv["p"], lineno, "p")
    if p_declared is not None and p != p_declared:
        raise SemanticError(
            f"line {lineno}: curve p={p} disagrees with the declared p={p_declared}"
        )
    if not is_prime(p):
        raise SemanticError(f"line {lineno}: p={p} is not prime")
    try:  # PrimeField is the one judge of the range of p
        field = PrimeField(p)
        if model == "p1":
            if "marks" not in kv:
                raise SyntaxError(lineno, "p1 needs marks=<a,b,...>")
            marks = []
            for part in kv["marks"].split(","):
                part = part.strip()
                marks.append(INF if part == "inf" else _parse_int(part, lineno, "mark"))
            return P1Marked(field, tuple(marks)), p
        if model == "ell":
            for need in ("a", "b"):
                if need not in kv:
                    raise SyntaxError(lineno, f"ell needs {need}=<int>")
            return Weierstrass(
                field,
                _parse_int(kv["a"], lineno, "a"),
                _parse_int(kv["b"], lineno, "b"),
            ), p
        # raynaud: parse_job routes only p1, ell and raynaud lines here
        if "l" not in kv:
            raise SyntaxError(lineno, "raynaud needs l=<int>")
        return RaynaudPlane(field, _parse_int(kv["l"], lineno, "l")), p
    except (SyntaxError, SemanticError):
        raise
    except (DormantError, ValueError) as err:
        raise SemanticError(f"line {lineno}: {err}")


def _parse_option(key: str, val: str, lineno: int, options: dict) -> None:
    if key in options:
        raise SyntaxError(lineno, f"duplicate option {key!r}")
    if key == "monodromy":
        parts = [s for s in val.split(",") if s.strip() != ""]
        if not parts:
            raise SyntaxError(lineno, "monodromy= needs a,b,...")
        options[key] = tuple(_parse_int(s.strip(), lineno, "residue") for s in parts)
    elif key == "pretango":
        if val not in ("true", "false"):
            raise SyntaxError(lineno, "pretango= must be true or false")
        options[key] = val == "true"
    elif key in ("height", "N", "threads"):
        options[key] = _parse_int(val, lineno, key)
    elif key == "mode":
        if val not in ("human", "machine"):
            raise SemanticError(f"line {lineno}: mode must be human or machine")
        options[key] = val
    elif key == "action":
        options[key] = val
    else:
        raise SyntaxError(lineno, f"unknown option {key!r}")


def parse_job(text) -> JobSpec:
    """Parse job text (str or UTF-8 bytes) into a JobSpec.

    Raises SyntaxError with the offending 1-based line number, or
    SemanticError when the text parses but describes an inconsistent
    object; nothing else escapes.
    """
    if isinstance(text, (bytes, bytearray)):
        try:
            text = bytes(text).decode("utf-8")
        except UnicodeDecodeError:
            raise SyntaxError(1, "input is not valid UTF-8")
    if not isinstance(text, str):
        raise SyntaxError(1, "job text expected")
    command = None
    p = None
    curve = None
    blocks: list = []
    options: dict = {}
    pending: Optional[list] = None  # [ConnBlock, entries_left]
    lineno = 0
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if pending is not None:
            block = pending[0]
            block.matrix.append(_parse_elem(curve, line, lineno))
            pending[1] -= 1
            if pending[1] == 0:
                n = block.rank
                block.matrix = [block.matrix[i * n:(i + 1) * n] for i in range(n)]
                pending = None
            continue
        head = line.split()
        if head[0] in ("p1", "ell", "raynaud"):
            if curve is not None:
                raise SyntaxError(lineno, "second curve line")
            curve, p = _parse_curve(line, lineno, p)
            continue
        if head[0] == "conn":
            if curve is None:
                raise SyntaxError(lineno, "connection block before the curve line")
            kv = _parse_kv_pairs(head[1:], lineno)
            if "rank" not in kv:
                raise SyntaxError(lineno, "conn needs rank=<n>")
            rank = _parse_int(kv["rank"], lineno, "rank")
            if rank < 1:
                raise SemanticError(f"line {lineno}: rank must be positive")
            bundle = kv.get("bundle", "triv")
            if bundle not in ("triv", "omega") + OMEGA_FRAMES:
                raise SemanticError(f"line {lineno}: unknown bundle {bundle!r}")
            block = ConnBlock(rank, bundle)
            blocks.append(block)
            pending = [block, rank * rank]
            continue
        if head[0] in ("form", "f"):
            payload = line[len(head[0]):].strip()
            if not payload:
                raise SyntaxError(lineno, f"{head[0]} needs an inline payload")
            blocks.append(ValueBlock(head[0], _parse_elem(curve, payload, lineno)))
            continue
        key, eq, val = line.partition("=")
        if eq and " " not in key.strip() and key.strip():
            key = key.strip()
            val = val.strip()
            if key == "cmd":
                if command is not None:
                    raise SyntaxError(lineno, "second cmd= line")
                if val not in COMMANDS:
                    raise SemanticError(f"line {lineno}: unknown command {val!r}")
                command = val
            elif key == "p":
                if p is not None:
                    raise SyntaxError(lineno, "second p= line")
                p = _parse_int(val, lineno, "p")
                if not is_prime(p):
                    raise SemanticError(f"line {lineno}: p={p} is not prime")
            elif key == "special":
                if val not in ("true", "false"):
                    raise SyntaxError(lineno, "special= must be true or false")
                if not blocks or not isinstance(blocks[-1], ConnBlock):
                    raise SyntaxError(lineno, "special= must follow a conn block")
                blocks[-1].special = val == "true"
            else:
                _parse_option(key, val, lineno, options)
            continue
        raise SyntaxError(lineno, f"unrecognized line {head[0]!r}")
    if pending is not None:
        raise SyntaxError(lineno, "unterminated connection block")
    if lineno == 0 or (p is None and curve is None and not blocks and command is None and not options):
        raise SyntaxError(1, "empty job file")
    if curve is None:
        raise SyntaxError(lineno, "missing curve line")
    return JobSpec(command, p, curve, blocks, options)


# ---------------------------------------------------------------------------
# job execution

def _bool(v) -> str:
    return "true" if v else "false"


def _label_for(curve, name: str):
    if name == "triv":
        return trivial_label(curve)
    return omega_label(curve, None if name == "omega" else name)


def _first_block(spec: JobSpec, cls, what: str):
    for block in spec.blocks:
        if isinstance(block, cls):
            return block
    raise SemanticError(f"{spec.command} needs a {what} block")


def _connection(spec: JobSpec, rank: Optional[int] = None) -> LogConnection:
    block = _first_block(spec, ConnBlock, "connection")
    if rank is not None and block.rank != rank:
        raise SemanticError(f"{spec.command} wants rank {rank}, got {block.rank}")
    return LogConnection(spec.curve, block.matrix, _label_for(spec.curve, block.bundle))


def _value(spec: JobSpec, kind: str) -> FFElem:
    for block in spec.blocks:
        if isinstance(block, ValueBlock) and block.kind == kind:
            return block.value
    raise SemanticError(f"{spec.command} needs a {kind} payload")


def _run_pcurv(spec: JobSpec) -> str:
    conn = _connection(spec)
    psi = p_curvature(conn)
    lines = [f"pcurv rank={conn.rank} zero={_bool(psi.is_zero)}"]
    if spec.machine or not psi.is_zero:
        for i in range(psi.rank):
            for j in range(psi.rank):
                lines.append(psi.entry(i, j).render())
    if not spec.machine:
        lines = [
            f"rank {conn.rank} connection, p-curvature "
            + ("zero" if psi.is_zero else "nonzero")
        ] + lines[1:]
    return "\n".join(lines)


def _run_cartier(spec: JobSpec) -> str:
    h = _value(spec, "form")
    omega = Differential(spec.curve, h)
    out = cartier_curve(omega)
    img = out.image.h
    if spec.machine:
        return f"cartier exact={_bool(out.is_exact)}\n{img.render()}"
    tag = "exact, image 0" if out.is_exact else f"image = ({img.render()}) dx"
    return f"cartier: {tag}"


def _run_pretango(spec: JobSpec) -> str:
    conn = _connection(spec, rank=1)
    out = decide_pre_tango(conn)
    verdict = out.is_exact
    if verdict:
        witness = f"witness f = {out.antiderivative().render()}"
    else:
        witness = "obstruction: nonzero Cartier image on the horizontal line"
    if spec.machine:
        return f"pretango yes={_bool(verdict)}\n{witness}"
    return ("yes" if verdict else "no") + "\n" + witness


def _run_enumerate(spec: JobSpec) -> str:
    mu = spec.options.get("monodromy", ())
    if spec.options.get("pretango"):
        rep = count_pretango(spec.curve, mu)
    else:
        rep = enumerate_flat(spec.curve, mu)
    return rep.machine_block() if spec.machine else rep.render()


def _run_tango_certify(spec: JobSpec) -> str:
    f = _value(spec, "f")
    cert = certify_tango_structure(spec.curve, f)
    if spec.machine:
        lines = [f"tango value={cert.value} exact={_bool(cert.is_exact)}"]
    else:
        lines = [f"value {cert.value}", f"exact {_bool(cert.is_exact)}"]
    for place, coeff in cert.divisor.items():
        lines.append(f"{_place_name(place)} {coeff}")
    return "\n".join(lines)


def _run_tango_search(spec: JobSpec) -> str:
    if "height" not in spec.options:
        raise SemanticError("tango-search needs height=<H>")
    rep = search_tango_candidates(spec.curve, spec.options["height"])
    if spec.machine:
        best = "none" if rep.best_value is None else rep.best_value
        return f"search best={best} tried={rep.tried} skipped={rep.skipped}"
    return rep.render()


def _serialize_oper(m: MiuraGL2Oper, bundle: str) -> str:
    lines = [f"conn rank=2 bundle={bundle}"]
    for i in range(2):
        for j in range(2):
            lines.append(m.connection.entry(i, j).render())
    lines.append("special=true")
    return "\n".join(lines)


def _oper_from_block(spec: JobSpec) -> MiuraGL2Oper:
    block = _first_block(spec, ConnBlock, "rank-2 oper")
    if block.rank != 2:
        raise SemanticError("oper blocks have rank 2")
    if not block.special:
        raise SemanticError("oper blocks carry a special=true line")
    curve = spec.curve
    label = _label_for(curve, block.bundle)
    rebuilt = LogConnection(curve, block.matrix, trivial_label(curve), validate=False)
    oper, _ = specialize(rebuilt)
    if not label.omega:
        return oper
    # the serialized matrix is written in the coordinate frame; the graded
    # line sits on dual(omega), in the frame (h dx)^-1
    comp1 = LogConnection(curve, [[frame_shift(curve, oper.a1, -1)]], label.dual(),
                          validate=False)
    return miura_from_cartan(CartanConnection(curve, (oper.cartan.components[0], comp1)))


def _run_miura(spec: JobSpec) -> str:
    action = spec.options.get("action")
    if action == "from-pretango":
        conn = _connection(spec, rank=1)
        block = _serialize_oper(miura_from_tango(conn), conn.label.name)
        if spec.machine:
            return block
        return "dormant miura operator\n" + block
    if action == "exponent":
        ev = exponent_of(_oper_from_block(spec))
        if spec.machine:
            flat = ";".join(",".join(str(v) for v in vec) for vec in ev.vectors)
            return f"exponent={flat}"
        marks = ev.marks or ("-",) * len(ev.vectors)
        return "\n".join(
            f"{'inf' if mk == INF else mk} {list(vec)}"
            for mk, vec in zip(marks, ev.vectors)
        )
    if action == "dormant":
        verdict = is_dormant(_oper_from_block(spec))
        return f"dormant yes={_bool(verdict)}" if spec.machine else ("yes" if verdict else "no")
    raise SemanticError("miura needs action=from-pretango|exponent|dormant")


def _run_raynaud(spec: JobSpec) -> tuple:
    action = spec.options.get("action")
    if action not in ("build", "validate"):
        raise SemanticError("raynaud needs action=build|validate")
    curve = spec.curve
    if curve.model != "raynaud":
        raise SemanticError("raynaud jobs live on the one-point model")
    if "N" not in spec.options:
        raise SemanticError("raynaud needs N=<degree at P_inf>")
    f = _value(spec, "f")
    pinf = raynaud_p_inf(curve)
    gtc = build_generalized_tango(curve, f, Divisor([(pinf, spec.options["N"])]))
    data = build_surface(gtc)
    if action == "build":
        return data.render(), 0
    rep = validate_cocycle(data)
    return rep.render(), 0 if rep.ok else 1


# selftest battery; each suite is a deterministic assertion bundle

def _suite_field():
    field = PrimeField(5)
    rng = random.Random(0)
    for _ in range(20):
        f = RatFunc(
            field,
            UPoly(field, [rng.randrange(5) for _ in range(4)]),
            UPoly(field, [rng.randrange(1, 5)] + [rng.randrange(5) for _ in range(3)]),
        )
        g = RatFunc(
            field,
            UPoly(field, [rng.randrange(5) for _ in range(3)]),
            UPoly(field, [rng.randrange(1, 5)] + [rng.randrange(5) for _ in range(2)]),
        )
        assert (f + g).derivative() == f.derivative() + g.derivative()
        assert (f * g).derivative() == f.derivative() * g + f * g.derivative()
        assert (f ** 5).pth_root() == f


def _suite_cartier():
    curve = P1Marked(PrimeField(5), (0, 1, INF))
    x = curve.x_elem()
    assert cartier_curve(Differential(curve, x ** 4)).image.h == curve.ff_const(1)
    rng = random.Random(0)
    for _ in range(10):
        f = FFElem(curve, (RatFunc(
            curve.field, UPoly(curve.field, [rng.randrange(5) for _ in range(6)])
        ),))
        assert cartier_curve(d_of(f)).is_exact


def _suite_connections():
    curve = Weierstrass(PrimeField(5), 3, 0)
    assert p_curvature(canonical_connection(curve)).is_zero
    assert enumerate_flat(curve).flat_count == 5


def _suite_moduli():
    reports = sweep_genus0(3, 3)
    assert sum(r.flat_count for r in reports) == 9
    assert sum(r.pretango_count for r in reports) == 3


def _suite_miura():
    curve = P1Marked(PrimeField(3), (0, 1, INF))
    field = curve.field
    a = RatFunc(field, UPoly(field, (2,)), UPoly(field, (0, 1))) + RatFunc(
        field, UPoly(field, (2,)), UPoly(field, (2, 1))
    )
    conn = LogConnection(curve, [[a]], omega_log_label(curve))
    m = miura_from_tango(conn)
    assert is_dormant(m)
    assert exponent_of(m).vectors == ((0, 1), (0, 1), (0, 2))
    assert pretango_of(m) == conn


def _suite_surface():
    curve = RaynaudPlane(PrimeField(3), 2)
    f = -(curve.y_elem() ** -1)
    pinf = raynaud_p_inf(curve)
    gtc = build_generalized_tango(curve, f, Divisor([(pinf, 3)]))
    data = build_surface(gtc)
    assert validate_cocycle(data).ok


def _run_selftest(spec: JobSpec) -> tuple:
    suites = (
        ("field", _suite_field),
        ("cartier", _suite_cartier),
        ("connections", _suite_connections),
        ("moduli", _suite_moduli),
        ("miura", _suite_miura),
        ("surface", _suite_surface),
    )
    lines = []
    failed = 0
    for name, fn in suites:
        try:
            fn()
        except Exception as err:  # report, never crash the battery
            failed += 1
            lines.append(f"FAIL {name}: {err}")
        else:
            lines.append(f"ok {name}")
    lines.append(f"passed={len(suites) - failed} failed={failed}")
    return "\n".join(lines), 0 if failed == 0 else 1


def run_job(spec: JobSpec) -> tuple:
    """Execute a job; returns (report text, exit code).

    0 on success, 1 on a domain failure, 2 on an input error.
    """
    try:
        if spec.command is None:
            raise SemanticError("job carries no command")
        if spec.command == "selftest":
            return _run_selftest(spec)
        if spec.command == "raynaud":
            return _run_raynaud(spec)
        simple = {
            "pcurv": _run_pcurv,
            "cartier": _run_cartier,
            "pretango": _run_pretango,
            "enumerate": _run_enumerate,
            "tango-certify": _run_tango_certify,
            "tango-search": _run_tango_search,
            "miura": _run_miura,
        }
        return simple[spec.command](spec), 0
    except (SyntaxError, SemanticError, ValueError, KeyError) as err:
        return f"error: {err}", 2
    except DormantError as err:
        return f"error: {err}", 1


# ---------------------------------------------------------------------------
# entry point

def _read_chunk(chunk: str) -> str:
    if chunk == "-":
        return sys.stdin.read()
    if os.path.isfile(chunk):
        with open(chunk, "r", encoding="utf-8") as fh:
            return fh.read()
    return chunk


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dormant",
        description="exact computations with flat connections in characteristic p",
    )
    parser.add_argument("--machine", action="store_true", help="machine-stable output")
    parser.add_argument("--threads", type=int, default=1, help="accepted and ignored")
    sub = parser.add_subparsers(dest="command")
    run_p = sub.add_parser("run", help="run a self-contained job file")
    run_p.add_argument("job")
    for name in ("pcurv", "cartier", "pretango", "tango-certify"):
        sp = sub.add_parser(name)
        sp.add_argument("inputs", nargs="+", help="job files or inline job text")
    en = sub.add_parser("enumerate")
    en.add_argument("inputs", nargs="+")
    en.add_argument("--monodromy", default=None)
    en.add_argument("--pretango", action="store_true")
    ts = sub.add_parser("tango-search")
    ts.add_argument("inputs", nargs="+")
    ts.add_argument("--height", type=int, default=None)
    mi = sub.add_parser("miura")
    mi.add_argument("action", choices=("from-pretango", "exponent", "dormant"))
    mi.add_argument("inputs", nargs="+")
    ra = sub.add_parser("raynaud")
    ra.add_argument("action", choices=("build", "validate"))
    ra.add_argument("inputs", nargs="+")
    sub.add_parser("selftest")
    return parser


def _user_line(message: str, flags: int) -> str:
    """A parser message numbered from the user's first line, past the flag
    lines main prepends; an error on a flag's own line is the command line's."""
    n, _, rest = message.partition(": ")
    if n[:5] != "line " or not n[5:].isdigit():
        return message
    k = int(n[5:]) - flags
    return f"line {k}: {rest}" if k > 0 else f"command line: {rest}"


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        ns = parser.parse_args(list(sys.argv[1:]) if argv is None else list(argv))
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    if ns.command is None:
        parser.print_usage(sys.stderr)
        return 2
    lines = []
    if ns.command != "run":
        lines.append(f"cmd={ns.command}")
    if getattr(ns, "action", None):
        lines.append(f"action={ns.action}")
    if getattr(ns, "monodromy", None):
        lines.append(f"monodromy={ns.monodromy}")
    if getattr(ns, "pretango", False):
        lines.append("pretango=true")
    if getattr(ns, "height", None) is not None:
        lines.append(f"height={ns.height}")
    if ns.machine:
        lines.append("mode=machine")
    if ns.threads != 1:
        lines.append(f"threads={ns.threads}")
    flags = len(lines)
    try:
        if ns.command == "run":
            if ns.job == "-":
                lines.append(sys.stdin.read())
            else:
                with open(ns.job, "r", encoding="utf-8") as fh:
                    lines.append(fh.read())
        elif ns.command != "selftest":
            for chunk in ns.inputs:
                lines.append(_read_chunk(chunk))
        else:
            lines.append("p=3")
            lines.append("p1 p=3 marks=0,1,inf")
    except OSError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    try:
        spec = parse_job("\n".join(lines))
    except (SyntaxError, SemanticError) as err:
        print(f"error: {_user_line(str(err), flags)}", file=sys.stderr)
        return 2
    text, code = run_job(spec)
    print(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
