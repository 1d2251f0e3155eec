"""No module of the package builds a ``LagrangianEnsemble`` but ``HistoryBuffer.latest``.

The ensemble is the one slice type: the newest slot, with the tangent flow
the buffer holds for it.  A stack of slots is three plain arrays
(``HistoryBuffer.gather``), so this test keeps a second kind of ensemble,
one without a tangent flow, from growing back in ``src/flockdde``.
"""

import ast
import pathlib

import flockdde


def _builders(node, scope):
    """The scopes, as dotted names, of every ``LagrangianEnsemble(...)`` call under node."""
    for child in ast.iter_child_nodes(node):
        inner = scope
        if isinstance(child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            inner = (*scope, child.name)
        func = getattr(child, "func", None)
        name = (func.attr if isinstance(func, ast.Attribute)
                else func.id if isinstance(func, ast.Name) else None)
        if isinstance(child, ast.Call) and name == "LagrangianEnsemble":
            yield ".".join(inner)
        yield from _builders(child, inner)


def test_only_latest_builds_an_ensemble():
    builders = []
    for path in sorted(pathlib.Path(flockdde.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        builders += [f"{path.name}: {scope}" for scope in _builders(tree, ())]
    assert builders == ["state.py: HistoryBuffer.latest"]
