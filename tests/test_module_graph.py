"""The package's module graph is acyclic, and it imports only the
standard library.

Read from the source, as `test_runner.py` reads it: the top-level
`from .x import` edges of `src/effectlayers/*.py` form a DAG.  The one
import inside a function is `Equation.describe`'s of `render`, which
stands above `terms` and so cannot be imported at its top.
"""

import ast
import graphlib
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "effectlayers"


class _PackageImports(ast.NodeVisitor):
    """(imported module, enclosing class and function names) for each
    relative import of a module; a top-level import has no enclosing name."""

    def __init__(self):
        self.enclosing = []
        self.imports = []

    def visit_FunctionDef(self, node):
        self.enclosing.append(node.name)
        self.generic_visit(node)
        self.enclosing.pop()

    visit_AsyncFunctionDef = visit_ClassDef = visit_FunctionDef

    def visit_ImportFrom(self, node):
        if node.level:
            targets = [node.module] if node.module else [a.name for a in node.names]
            scope = ".".join(self.enclosing)
            self.imports += [(target, scope) for target in targets]


def package_imports() -> dict:
    """Module name -> its (imported module, scope) pairs."""
    out = {}
    for path in sorted(SRC.glob("*.py")):
        finder = _PackageImports()
        finder.visit(ast.parse(path.read_text(encoding="utf-8")))
        out[path.stem] = finder.imports
    return out


def top_level_graph() -> dict:
    return {
        module: {target for target, scope in imports if not scope}
        for module, imports in package_imports().items()
    }


def test_top_level_imports_form_a_dag():
    graph = top_level_graph()
    assert graph["distlaw"] >= {"monads", "normal_forms", "reports", "terms"}
    order = list(graphlib.TopologicalSorter(graph).static_order())  # or CycleError
    assert set(order) == set(graph)


def test_the_one_function_level_import_is_equation_describes():
    nested = [
        (module, target, scope)
        for module, imports in package_imports().items()
        for target, scope in imports
        if scope
    ]
    assert nested == [("terms", "render", "Equation.describe")]


def test_the_reader_and_the_reports_stand_below_the_pipeline():
    graph = top_level_graph()

    def reached(module):
        seen, todo = set(), [module]
        while todo:
            for target in graph[todo.pop()] - seen:
                seen.add(target)
                todo.append(target)
        return seen

    above = {"normal_forms", "distlaw", "preservation", "pipeline"}
    for module in ("specfile", "render", "reports"):
        assert not reached(module) & above, module


def test_every_absolute_import_is_of_the_standard_library():
    absolute = set()
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                absolute |= {a.name.partition(".")[0] for a in node.names}
            elif isinstance(node, ast.ImportFrom) and not node.level:
                absolute.add(node.module.partition(".")[0])
    assert "fractions" in absolute
    assert absolute <= sys.stdlib_module_names, absolute - sys.stdlib_module_names
