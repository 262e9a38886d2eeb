"""Benchmark-side tracing of the `dormant` layers.

`Tracer.install()` wraps the public functions and methods of the nine
library modules by rebinding every `dormant.*` module attribute (and every
class attribute) that refers to them, so calls that cross layers through
`from .x import y` bindings are seen too.  Nothing under `src/` changes.

Each wrapped call pushes a frame; on return its inclusive time is added to
its name's aggregate and charged to the parent frame as child time, so a
name's self time is its inclusive time minus the time of wrapped calls
inside it.  Calls of the field layer, and methods everywhere, run millions
of times per pass and are kept only as per-name aggregates (count,
inclusive, self, errors).  Module-level functions of the upper layers and
the benchmark's own spans are also kept as single spans (name, start, end,
parent span, item id), in memory, up to `SPAN_CAP`, and written out by
`write()`.
"""
from __future__ import annotations

import importlib
import inspect
import json
import types
from contextlib import contextmanager
from enum import Enum
from time import perf_counter

LAYERS = (
    "field", "curves", "connections", "cartier", "tango",
    "miura", "moduli", "surface", "cli",
)

# metric prefix -> the wrapped names ("layer.qualname") it sums; the names
# of one metric do not call one another
NAMED = {
    "field.upoly_mul": ("field.UPoly.__mul__",),
    "field.upoly_divmod": ("field.UPoly.__divmod__",),
    "field.upoly_gcd": ("field.UPoly.gcd",),
    "field.ratfunc_new": ("field.RatFunc.__init__",),
    "field.series_mul": ("field.TruncSeries.__mul__",),
    "field.series_inv": ("field.TruncSeries.inverse",),
    "curves.ffelem_mul": ("curves.FFElem.__mul__",),
    "curves.ffelem_inv": ("curves.FFElem.inverse",),
    "curves.valuation": ("curves.valuation",),
    "curves.branch_at": ("curves.branch_at",),
    "connections.p_curvature": ("connections.p_curvature",),
    "cartier.is_pre_tango": ("cartier.is_pre_tango",),
    "cartier.cartier_curve": ("cartier.cartier_curve",),
    "tango.default_places": ("tango.default_places",),
    "tango.certify": ("tango.certify_tango_structure", "tango.build_generalized_tango"),
    "miura.is_dormant": ("miura.is_dormant",),
    "moduli.enumerate_flat": ("moduli.enumerate_flat",),
    "surface.build": ("surface.build_surface",),
    "surface.validate": ("surface.validate_cocycle",),
    "surface.probe": ("surface.fiber_smoothness_probe",),
    "cli.parse": ("cli.parse_job",),
    "cli.run": ("cli.run_job",),
}

# spans the workloads open around a whole step made of several calls
BENCH_SPANS = ("miura.roundtrip",)

SPAN_CAP = 200_000
_SKIP = {"__repr__", "__new__", "__init_subclass__", "__getattr__",
         "__getattribute__", "__setattr__", "__del__", "__class_getitem__",
         "__eq__", "__hash__", "key"}
# leaf calls made millions of times per pass; left unwrapped, their time is
# the caller's self time, which keeps the traced pass within about 1.5x of
# the untraced one
_SKIP_CLASSES = {"PrimeField", "Degree"}
_SKIP_QUAL = {"UPoly.__init__", "UPoly.__mod__", "UPoly.__floordiv__", "UPoly.monic"}


class _Stat:
    __slots__ = ("calls", "incl", "self_s", "errors", "depth", "extra")

    def __init__(self):
        self.calls = 0
        self.incl = 0.0      # outermost-call time only, so recursion is not doubled
        self.self_s = 0.0
        self.errors = 0
        self.depth = 0
        self.extra = {}


def _pairs_below(k, la, lb):
    """#{(i, j): 0 <= i < la, 0 <= j < lb, i + j < k}."""
    def n(m):
        return m * (m + 1) // 2 if m > 0 else 0
    return n(k) - n(k - la) - n(k - lb) + n(k - la - lb)


def _upoly_mul_extra(ex, args, result):
    a, b = args[0], args[1]
    lb = len(b.coeffs) if hasattr(b, "coeffs") else (1 if b else 0)
    ex["coeff_ops"] = ex.get("coeff_ops", 0) + len(a.coeffs) * lb


def _gcd_extra(ex, args, result):
    if len(result.coeffs) == 1:
        ex["trivial"] = ex.get("trivial", 0) + 1


def _series_mul_extra(ex, args, result):
    a, b = args[0], args[1]
    if not hasattr(b, "coeffs"):
        la, lb, kept = len(a.coeffs), 1, len(a.coeffs)
    else:
        la, lb = len(a.coeffs), len(b.coeffs)
        if result.prec == float("inf"):
            kept = la * lb
        else:
            kept = _pairs_below(result.prec - a.ord_low - b.ord_low, la, lb)
    ex["coeff_ops"] = ex.get("coeff_ops", 0) + la * lb
    ex["kept"] = ex.get("kept", 0) + kept


def _conn_key(conn):
    # attribute reads only, so the key itself calls no wrapped code
    curve = conn.curve
    cells = tuple(
        tuple((c.num.coeffs, c.den.coeffs) for c in cell.comps)
        for row in conn.matrix for cell in row
    )
    return (type(curve).__name__, curve.field.p, getattr(curve, "marks", ()),
            getattr(curve, "a", None), getattr(curve, "b", None),
            getattr(curve, "l", None), conn.label.name, cells)


def _pcurv_extra(ex, args, result):
    ex.setdefault("distinct", set()).add(_conn_key(args[0]))


_EXTRA = {
    "field.UPoly.__mul__": _upoly_mul_extra,
    "field.UPoly.gcd": _gcd_extra,
    "field.TruncSeries.__mul__": _series_mul_extra,
    "connections.p_curvature": _pcurv_extra,
}


class Tracer:
    """Wraps the library in place; `on` gates recording."""

    def __init__(self):
        self.on = False
        self.stats = {}          # "layer.qualname" -> _Stat
        self.layer_of = {}       # "layer.qualname" -> layer
        self.stack = []          # frames: [child_time, span_id]
        self.spans = []          # (id, name, start, end, parent, item)
        self.spans_dropped = 0
        self.next_id = 0
        self.item = None
        self._undo = []

    # -- installation -----------------------------------------------------

    def install(self):
        mods = {name: importlib.import_module(f"dormant.{name}") for name in LAYERS}
        wrapped = {}  # id(original function) -> wrapper
        for layer, mod in mods.items():
            for attr, obj in list(vars(mod).items()):
                if getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isclass(obj):
                    # private bases too: their public methods are inherited
                    self._wrap_class(obj, layer, wrapped)
                elif isinstance(obj, types.FunctionType) and not attr.startswith("_"):
                    wrapped[id(obj)] = self._wrap(obj, layer, attr, span=layer != "field")
        # rebind every module attribute that refers to a wrapped function
        for mod in mods.values():
            for attr, obj in list(vars(mod).items()):
                w = wrapped.get(id(obj)) if isinstance(obj, types.FunctionType) else None
                if w is not None:
                    self._undo.append((mod, attr, obj))
                    setattr(mod, attr, w)
        missing = [k for keys in NAMED.values() for k in keys if k not in self.stats]
        if missing:
            raise RuntimeError(f"named entry points not found: {missing}")

    def _wrap_class(self, cls, layer, wrapped):
        if issubclass(cls, (Enum, BaseException)) or cls.__name__ in _SKIP_CLASSES:
            return
        for attr, obj in list(vars(cls).items()):
            if not isinstance(obj, types.FunctionType) or attr in _SKIP:
                continue
            if f"{cls.__name__}.{attr}" in _SKIP_QUAL:
                continue
            if attr.startswith("_") and not (attr.startswith("__") and attr.endswith("__")):
                continue
            w = wrapped.get(id(obj))
            if w is None:
                w = self._wrap(obj, layer, f"{cls.__name__}.{obj.__name__}", span=False)
                wrapped[id(obj)] = w
            self._undo.append((cls, attr, obj))
            setattr(cls, attr, w)

    def uninstall(self):
        for owner, attr, obj in reversed(self._undo):
            setattr(owner, attr, obj)
        self._undo.clear()

    def _wrap(self, fn, layer, qualname, span):
        key = f"{layer}.{qualname}"
        st = self.stats[key] = _Stat()
        self.layer_of[key] = layer
        extra = _EXTRA.get(key)
        tracer = self

        def wrapper(*args, **kwargs):
            if not tracer.on:
                return fn(*args, **kwargs)
            stack = tracer.stack
            parent = stack[-1][1] if stack else None
            frame = [0.0, parent]
            if span:
                frame[1] = tracer.next_id
                tracer.next_id += 1
            stack.append(frame)
            st.depth += 1
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                st.errors += 1
                raise
            finally:
                t1 = perf_counter()
                stack.pop()
                dt = t1 - t0
                st.calls += 1
                st.self_s += dt - frame[0]
                st.depth -= 1
                if not st.depth:
                    st.incl += dt
                if stack:
                    stack[-1][0] += dt
                if span:
                    tracer._record(frame[1], key, t0, t1, parent)
            if extra is not None and result is not NotImplemented:
                extra(st.extra, args, result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = fn.__name__
        wrapper.__qualname__ = fn.__qualname__
        wrapper.__doc__ = fn.__doc__
        return wrapper

    def _record(self, sid, name, t0, t1, parent):
        if len(self.spans) < SPAN_CAP:
            self.spans.append((sid, name, t0, t1, parent, self.item))
        else:
            self.spans_dropped += 1

    # -- benchmark spans ----------------------------------------------------

    @contextmanager
    def span(self, name):
        """A span opened by the benchmark around calls into the library."""
        if not self.on:
            yield
            return
        st = self.stats.get(f"bench.{name}")
        if st is None:
            st = self.stats[f"bench.{name}"] = _Stat()
            self.layer_of[f"bench.{name}"] = "bench"
        stack = self.stack
        parent = stack[-1][1] if stack else None
        frame = [0.0, self.next_id]
        self.next_id += 1
        stack.append(frame)
        t0 = perf_counter()
        try:
            yield
        finally:
            t1 = perf_counter()
            stack.pop()
            st.calls += 1
            st.incl += t1 - t0
            st.self_s += t1 - t0 - frame[0]
            if stack:
                stack[-1][0] += t1 - t0
            self._record(frame[1], f"bench.{name}", t0, t1, parent)

    # -- results ------------------------------------------------------------

    def metrics(self):
        """Per-layer metrics by name, as plain numbers."""
        out = {}
        self_by_layer = dict.fromkeys(LAYERS, 0.0)
        errors_by_layer = dict.fromkeys(LAYERS, 0)
        for key, st in self.stats.items():
            layer = self.layer_of[key]
            if layer in self_by_layer:
                self_by_layer[layer] += st.self_s
                errors_by_layer[layer] += st.errors
        for layer in ("field", "curves", "connections", "cartier"):
            out[f"{layer}.self_s"] = self_by_layer[layer]
        for metric, keys in NAMED.items():
            parts = [self.stats[key] for key in keys]
            out[f"{metric}.calls"] = sum(st.calls for st in parts)
            out[f"{metric}.s"] = sum(st.incl for st in parts)
            st = parts[0]
            ex = st.extra
            if metric in ("field.upoly_mul", "field.series_mul"):
                out[f"{metric}.coeff_ops"] = ex.get("coeff_ops", 0)
            if metric == "field.upoly_gcd":
                out[f"{metric}.trivial_ratio"] = ex.get("trivial", 0) / st.calls if st.calls else 0.0
            if metric == "field.series_mul":
                ops = ex.get("coeff_ops", 0)
                out[f"{metric}.kept_ratio"] = ex.get("kept", 0) / ops if ops else 0.0
            if metric == "connections.p_curvature":
                distinct = len(ex.get("distinct", ()))
                out[f"{metric}.repeat_ratio"] = st.calls / distinct if distinct else 0.0
        for name in BENCH_SPANS:
            st = self.stats.get(f"bench.{name}")
            out[f"{name}.s"] = st.incl if st else 0.0
        for layer in LAYERS:
            out[f"{layer}.errors"] = errors_by_layer[layer]
        return out

    def write(self, path):
        """Write the spans and the per-name aggregates as JSON lines."""
        with open(path, "w", encoding="utf-8") as fh:
            for sid, name, t0, t1, parent, item in self.spans:
                fh.write(json.dumps({"span": sid, "name": name, "start": t0,
                                     "end": t1, "parent": parent, "item": item}) + "\n")
            for key, st in sorted(self.stats.items()):
                if st.calls:
                    fh.write(json.dumps({"aggregate": key, "calls": st.calls,
                                         "incl_s": st.incl, "self_s": st.self_s,
                                         "errors": st.errors}) + "\n")
            fh.write(json.dumps({"spans_dropped": self.spans_dropped}) + "\n")
