"""Every public name of the library is reached.

A public module-level function or class of src/dormant, or a public method
of a public class, must be named somewhere else: in src/ outside its own
definition (as an identifier, an attribute or an import), or in perfbench/
(as an identifier, or as the last part of a dotted string such as the
tracer's "curves.valuation"), or in API below with the reason a user calls
it.  A name that only tests reach is a helper that nothing calls.
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
    """{qualified name: definition node} of the module trees."""
    defs = {}
    for module, tree in trees.items():
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name[0] == "_":
                continue
            defs[f"{module}.{node.name}"] = node
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and item.name[0] != "_":
                        defs[f"{module}.{node.name}.{item.name}"] = item
    return defs


def _names(tree, strings=False):
    """(name, node) for each identifier, attribute and import in tree; with
    strings, also the last part of each dotted string constant."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node
        elif isinstance(node, ast.Attribute):
            yield node.attr, node
        elif isinstance(node, ast.alias):
            yield node.name.rsplit(".", 1)[-1], node
        elif strings and isinstance(node, ast.Constant) and isinstance(node.value, str) \
                and "." in node.value:
            yield node.value.rsplit(".", 1)[-1], node


def _unreached():
    trees = _parse("src/dormant")
    src = {}
    for tree in trees.values():
        for name, node in _names(tree):
            src.setdefault(name, []).append(node)
    bench = {name for tree in _parse("perfbench").values() for name, _ in _names(tree, strings=True)}
    out = []
    for qual, node in _public_definitions(trees).items():
        name = qual.rsplit(".", 1)[-1]
        own = {id(n) for n in ast.walk(node)}
        if any(id(n) not in own for n in src.get(name, ())) or name in bench or qual in API:
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
