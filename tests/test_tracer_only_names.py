"""No module of the package reads a name kept only for the benchmark's tracer.

``bench/spans.py`` wraps ``CuckerSmaleKernel.eval`` and ``eval_deriv``,
``HistoryBuffer.query`` and ``dynamics.alignment_rhs`` until its spans are
re-pointed (ROADMAP item 9a).  A run reads the kernel through
``eval_with_deriv_sq`` and ``profile``, the history through ``slot`` and
``interpolate``, and the force through ``_force``; this test keeps a second
evaluator or reader from growing back in ``src/flockdde``.
"""

import ast
import pathlib

import flockdde

TRACER_ONLY = {"eval", "eval_deriv", "query", "alignment_rhs"}


def test_no_module_reads_a_tracer_only_name():
    defined, reads = set(), []
    for path in sorted(pathlib.Path(flockdde.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.FunctionDef):
                defined.add(node.name)
            name = (node.attr if isinstance(node, ast.Attribute)
                    else node.id if isinstance(node, ast.Name) else None)
            if name in TRACER_ONLY:
                reads.append(f"{path.name}:{node.lineno}: {name}")
    assert TRACER_ONLY <= defined  # the modules that define them were parsed
    assert reads == []
