"""The benchmark tracer finds every entry point it names.

perfbench/tracer.py wraps only methods in a class's own body and refuses
to install when a named one (RatFunc.__init__, FFElem.__mul__,
FFElem.inverse, ...) has moved; this runs that check in the unit suite.
"""
from __future__ import annotations

from pathlib import Path

from dormant import curves, field

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_install_finds_the_named_entry_points(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    from tracer import Tracer

    mul, init = curves.FFElem.__dict__["__mul__"], field.RatFunc.__dict__["__init__"]
    tracer = Tracer()
    try:
        tracer.install()  # RuntimeError if a named entry point is missing
        assert curves.FFElem.__dict__["__mul__"] is not mul
    finally:
        tracer.uninstall()
    assert curves.FFElem.__dict__["__mul__"] is mul
    assert field.RatFunc.__dict__["__init__"] is init
