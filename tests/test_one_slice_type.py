"""One slice type and one stepper: each has a single caller in the package.

The ensemble is the one slice type: the newest slot, with the tangent flow
the buffer holds for it, and only ``HistoryBuffer.latest`` builds one.  A
stack of slots is three plain arrays (``HistoryBuffer.gather``), so this
test keeps a second kind of ensemble, one without a tangent flow, from
growing back in ``src/flockdde``.  Likewise ``dynamics._advance`` is the one
stepping loop, which alone decides how a run ends, and only ``integrate``
drives it, so no second consumer of the loop grows back beside the run.
"""

import ast
import pathlib

import pytest

import flockdde


def _callers(node, scope, callee):
    """The scopes, as dotted names, of every ``callee(...)`` call under node."""
    for child in ast.iter_child_nodes(node):
        inner = scope
        if isinstance(child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            inner = (*scope, child.name)
        func = getattr(child, "func", None)
        name = (func.attr if isinstance(func, ast.Attribute)
                else func.id if isinstance(func, ast.Name) else None)
        if isinstance(child, ast.Call) and name == callee:
            yield ".".join(inner)
        yield from _callers(child, inner, callee)


@pytest.mark.parametrize("callee,scopes", [
    ("LagrangianEnsemble", ["state.py: HistoryBuffer.latest"]),
    ("_advance", ["dynamics.py: integrate"]),
], ids=["LagrangianEnsemble", "_advance"])
def test_one_caller_in_the_package(callee, scopes):
    found = []
    for path in sorted(pathlib.Path(flockdde.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        found += [f"{path.name}: {scope}" for scope in _callers(tree, (), callee)]
    assert found == scopes
