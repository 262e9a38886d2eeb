"""Every public name of the library is reached.

A public module-level function or class of src/dormant, or a public method
of any class (a private base's public methods are inherited, so they count
too), must be named somewhere else: in src/ outside its own definition, or
in perfbench/, or in API below with the reason a user calls it.  A name
that only tests reach is a helper that nothing calls.

A use counts by its receiver.  An identifier or an import names a
module-level function or class.  C.m, with C a class of src/, names the
method m of C and of C's bases only; m on any other receiver (an instance,
a module) names every m, module-level or method.  A dotted perfbench string
such as the tracer's "field.UPoly.gcd" names that one definition.
"""
from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# "module.name" or "module.Class.method" -> why a user calls it
API = {
    "cartier.tango_from_pretango": "the witness f whose df spans the horizontal line of a pre-Tango structure",
    "connections.residue_pcurvature_identity": "Res(psi) = R^p - R at each mark, the residue identity of the p-curvature",
    "connections.frobenius_descent": "the divisor a flat rank-one connection on the line descends to",
    "field.RatFunc.valuation_at": "the order of a rational function at a rational place, INF included",
    "miura.class_of": "the exponent class of per-mark data, to compare with exponent_of",
    "miura.ExponentVector.same_class": "equality of exponent classes modulo the diagonal",
    "moduli.emptiness_oracle": "the dimension formula and the emptiness it forces",
    "tango.TangoCertificate.verify": "recomputes a certificate's divisor data from its f",
}


def _parse(directory):
    return {path.stem: ast.parse(path.read_text(encoding="utf-8"))
            for path in sorted((ROOT / directory).glob("*.py"))}


def _public_definitions(trees):
    """{qualified name: definition node} of the module trees: the public
    functions and classes, and the public methods of every class."""
    defs = {}
    for module, tree in trees.items():
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            if node.name[0] != "_":
                defs[f"{module}.{node.name}"] = node
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and item.name[0] != "_":
                        defs[f"{module}.{node.name}.{item.name}"] = item
    return defs


def _bases(trees):
    """{class name: the names of the class and of all its bases} for the
    classes of the module trees."""
    direct = {node.name: [b.id for b in node.bases if isinstance(b, ast.Name)]
              for tree in trees.values() for node in tree.body
              if isinstance(node, ast.ClassDef)}

    def closure(name):
        return {name}.union(*(closure(b) for b in direct.get(name, ())))
    return {name: closure(name) for name in direct}


def _uses(trees, bases):
    """{key: nodes} of the uses in the trees, keyed by what a use can name:
    (None, name) a module-level name, ("*", m) every m, (C, m) the method m
    of the class C."""
    uses = {}
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                keys = [(None, node.id)]
            elif isinstance(node, ast.alias):
                keys = [(None, node.name.rsplit(".", 1)[-1])]
            elif isinstance(node, ast.Attribute):
                recv = node.value.id if isinstance(node.value, ast.Name) else None
                keys = [(c, node.attr) for c in bases.get(recv, ["*"])]
            else:
                continue
            for key in keys:
                uses.setdefault(key, []).append(node)
    return uses


def _named(uses, qual):
    """The uses that can name the definition qual."""
    *owner, name = qual.split(".")[1:]
    return uses.get(("*", name), []) + uses.get((owner[0] if owner else None, name), [])


def _strings(trees):
    return {node.value for tree in trees.values() for node in ast.walk(tree)
            if isinstance(node, ast.Constant) and isinstance(node.value, str)}


def _unreached():
    trees, bench = _parse("src/dormant"), _parse("perfbench")
    bases = _bases(trees)
    src, in_bench = _uses(trees, bases), _uses(bench, bases)
    strings = _strings(bench)
    out = []
    for qual, node in _public_definitions(trees).items():
        own = {id(n) for n in ast.walk(node)}
        if qual in API or qual in strings or _named(in_bench, qual) \
                or any(id(n) not in own for n in _named(src, qual)):
            continue
        out.append(qual)
    return out


def test_every_public_name_is_reached():
    assert _unreached() == []


def test_api_names_are_public_definitions_with_one_line_reasons():
    defs = _public_definitions(_parse("src/dormant"))
    for qual, reason in API.items():
        assert qual in defs, qual
        assert reason and "\n" not in reason


def test_api_names_are_in_the_readme_table():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    table = [line for line in readme.splitlines() if line.startswith("| `")]
    for qual in API:
        module, name = qual.split(".", 1)
        row = next(line for line in table if line.startswith(f"| `{module}`"))
        assert f"`{name}`" in row, qual
