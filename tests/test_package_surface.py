"""The package ships only what it runs: every public top-level function and
class of a `src/geomcover` module is named in the code of some module of the
package outside its own definition, or is the CLI's entry point `cli.main`,
or is bound by the benchmark tracer; and every public method of a class
there is read as an attribute (`x.name`) by some code of the package outside
its own definition. Docstrings and the re-exports of `__init__` do not
count, so a wrapper that only tests call fails here."""

import ast
import os

from test_tracer_bindings import _load_tracer

SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src", "geomcover")


def _modules() -> list[tuple[str, ast.Module]]:
    """(module name, syntax tree) of each module of the package but `__init__`."""
    out = []
    for fname in sorted(os.listdir(SRC)):
        if fname.endswith(".py") and fname != "__init__.py":
            with open(os.path.join(SRC, fname), encoding="utf-8") as fh:
                out.append(("geomcover." + fname[:-3], ast.parse(fh.read())))
    assert len(out) >= 8
    return out


def _names_in(node: ast.AST) -> set[str]:
    """The names that the code of `node` reads: Name ids and Attribute attrs."""
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.add(sub.attr)
    return out


def test_every_public_definition_is_reached():
    tracer = _load_tracer()
    reached = {(mod, attr) for mod, attr, *_ in tracer.SPANNED + tracer.COUNTED}
    reached.add(("geomcover.cli", "main"))
    statements = []  # (module, top-level statement, the names its code reads)
    for mod, tree in _modules():
        statements += [(mod, node, _names_in(node)) for node in tree.body]
    unreached = [
        "%s.%s" % (mod, node.name) for mod, node, _ in statements
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and not node.name.startswith("_")
        and (mod, node.name) not in reached
        and not any(node.name in names for _, other, names in statements if other is not node)
    ]
    assert not unreached, unreached


def test_every_public_method_is_reached():
    modules = _modules()
    attributes = [node for _, tree in modules for node in ast.walk(tree)
                  if isinstance(node, ast.Attribute)]
    methods = [(mod, cls.name, fn) for mod, tree in modules for cls in tree.body
               if isinstance(cls, ast.ClassDef) for fn in cls.body
               if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
               and not fn.name.startswith("_")]
    assert len(methods) >= 10
    unreached = []
    for mod, cls, fn in methods:
        own = {id(node) for node in ast.walk(fn)}
        if not any(node.attr == fn.name and id(node) not in own for node in attributes):
            unreached.append("%s.%s.%s" % (mod, cls, fn.name))
    assert not unreached, unreached
