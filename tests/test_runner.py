"""The one check runner, `terms.run_check`, and the checks that run through it."""

import ast
from fractions import Fraction as F
from itertools import product
from pathlib import Path

import pytest

from effectlayers.monads import Bound, fin_distribution, fin_powerset, multiset
from effectlayers.preservation import probe_relevant, relevance_sides
from effectlayers.terms import (
    ARITH,
    FAIL,
    PASS,
    App,
    Const,
    FiniteAlgebra,
    LawReport,
    OpSymbol,
    ParamDivisionByZero,
    Var,
    app,
    equation,
    eval_param,
    find_violation,
    run_check,
)
from effectlayers.values import canon_key

SRC = Path(__file__).resolve().parent.parent / "src" / "effectlayers"


class TestRunCheck:
    def test_passes_when_no_case_has_a_witness(self):
        visited = []

        def witness(a, b):
            visited.append((a, b))
            return None

        report = run_check("law", product((1, 2), (3, 4)), witness, "frag")
        assert report == LawReport("law", PASS, None, "frag")
        assert report.ok
        assert visited == [(1, 3), (1, 4), (2, 3), (2, 4)]

    def test_fails_with_the_first_witness_in_case_order(self):
        visited = []

        def witness(n):
            visited.append(n)
            return {"odd": n} if n % 2 else None

        report = run_check("even", [(4,), (2,), (7,), (6,), (9,)], witness, "frag")
        assert report == LawReport("even", FAIL, {"odd": 7}, "frag")
        assert not report.ok
        # no case after the first witness is visited
        assert visited == [4, 2, 7]

    def test_any_non_none_witness_fails(self):
        report = run_check("law", [(0,)], lambda n: {}, "")
        assert report.status == FAIL and report.counterexample == {}


class TestFindViolation:
    """`find_violation` is `run_check`'s first witness over valuations in
    `product` order, parameters innermost, skipping instances whose
    parameter divides by zero."""

    F_OP = OpSymbol("f", 2, param=True)
    # f(x, y)[p] is x at p = 0 and y otherwise
    ALGEBRA = FiniteAlgebra(
        (0, 1, 2), {"f": lambda args, p: args[0] if p == 0 else args[1]}
    )
    # l / (1 - l) divides by zero at l = 1
    RATIO = App(ARITH["/"], (Var("l"), App(ARITH["-"], (Const(F(1)), Var("l")))))

    def reference(self, e, grid):
        """The first separating instance, looked for by a plain loop."""
        x, y = e.context
        for vx, vy in product(self.ALGEBRA.carrier, repeat=2):
            for l in grid:
                try:
                    p = eval_param(self.RATIO, {"l": l})
                except ParamDivisionByZero:
                    continue
                lhs = self.ALGEBRA.interp["f"]((vx, vy), p)
                if lhs != vx:
                    return {"valuation": {x: vx, y: vy}, "params": {"l": l}, "lhs": lhs, "rhs": vx}
        return None

    def test_first_witness_in_product_order_skipping_division_by_zero(self):
        x, y = Var("x"), Var("y")
        e = equation(app(self.F_OP, x, y, param=self.RATIO), x)
        grid = (F(0), F(1, 2), F(1))
        w = find_violation(self.ALGEBRA, e, grid)
        assert w == {"valuation": {"x": 0, "y": 1}, "params": {"l": F(1, 2)}, "lhs": 1, "rhs": 0}
        assert w == self.reference(e, grid)

    def test_holds_when_every_other_instance_divides_by_zero(self):
        x, y = Var("x"), Var("y")
        e = equation(app(self.F_OP, x, y, param=self.RATIO), x)
        grid = (F(0), F(1))
        assert find_violation(self.ALGEBRA, e, grid) is None
        assert self.reference(e, grid) is None


@pytest.mark.parametrize("T", [fin_powerset(), multiset(), fin_distribution()], ids=lambda T: T.name)
@pytest.mark.parametrize("X", [("a", "b"), ("a", "b", "c")], ids=len)
def test_relevance_witness_is_the_canonically_smallest_failure(T, X):
    """The witness equals that of collecting every failure and taking the
    least by `canon_key`."""
    b = Bound()
    failures = []
    for v in T.enumerate(X, b):
        lhs, rhs = relevance_sides(T, v)
        if lhs != rhs:
            failures.append(v)
    assert failures
    v = min(failures, key=canon_key)
    lhs, rhs = relevance_sides(T, v)
    report = probe_relevant(T, X, b)
    assert report.status == FAIL
    assert report.counterexample == {"value": v, "psi.diag": lhs, "T(diag)": rhs}


def test_only_the_runner_builds_a_law_report():
    """Every check finds its witness through `run_check`: no other code in
    the package builds a `LawReport`."""
    builders = []
    for path in sorted(SRC.glob("*.py")):
        finder = _LawReportCalls()
        finder.visit(ast.parse(path.read_text(encoding="utf-8")))
        builders += [(path.name, scope) for scope in finder.scopes]
    assert builders and set(builders) == {("terms.py", "run_check")}


class _LawReportCalls(ast.NodeVisitor):
    """The innermost named function around each call of `LawReport`."""

    def __init__(self):
        self.enclosing = ["<module>"]
        self.scopes = []

    def visit_FunctionDef(self, node):
        self.enclosing.append(node.name)
        self.generic_visit(node)
        self.enclosing.pop()

    visit_AsyncFunctionDef = visit_FunctionDef

    def visit_Call(self, node):
        func = node.func
        name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
        if name == "LawReport":
            self.scopes.append(self.enclosing[-1])
        self.generic_visit(node)
