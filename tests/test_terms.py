from dataclasses import dataclass, is_dataclass, replace
from fractions import Fraction as F
from itertools import islice, product

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from effectlayers import terms
from effectlayers.render import render_term
from effectlayers.specfile import _parse_param_expr, _Stream, _tokenize
from effectlayers.terms import (
    ARITH,
    App,
    Const,
    FiniteAlgebra,
    OpSymbol,
    ParamDivisionByZero,
    Signature,
    SyntacticClass,
    Term,
    TermError,
    Var,
    app,
    classify,
    equation,
    eval_param,
    find_violation,
    interpret,
    interpret_in_context,
    render_param,
    tabled,
    term_args,
    term_depth,
    term_vars,
)
from effectlayers.theories import PLUS, SEQ, SKIP, monoid_theory, semilattice_theory
from effectlayers.values import Dist, MultiSet, canon_key, sort_values

x, y, z = Var("x"), Var("y"), Var("z")


def prepare_indices(t: Term, context):
    """0-based projection indices realizing the variable rearrangement of `t`.

    Applying the result to a |context|-tuple lists the values of the variable
    occurrences of `t`, left to right.
    """
    pos = {x: i for i, x in enumerate(context)}
    try:
        return tuple(pos[x] for x in term_args(t))
    except KeyError as exc:
        raise TermError(f"variable {exc.args[0]!r} not in context {list(context)}")


class TestTermBasics:
    def test_term_vars_first_occurrence_order(self):
        t = app(SEQ, app(SEQ, Var("x1"), Var("x3")), app(SEQ, Var("x2"), Var("x1")))
        assert term_vars(t) == ("x1", "x3", "x2")

    def test_term_args_in_order_with_repeats(self):
        t = app(SEQ, app(SEQ, Var("x1"), Var("x3")), app(SEQ, Var("x2"), Var("x1")))
        assert term_args(t) == ("x1", "x3", "x2", "x1")

    def test_depth_counts_variables_as_one(self):
        assert term_depth(x) == 1
        assert term_depth(app(SEQ, x, app(SEQ, y, z))) == 3

    def test_prepare_indices_projects_the_context(self):
        t = app(SEQ, app(SEQ, Var("x1"), Var("x3")), app(SEQ, Var("x2"), Var("x1")))
        assert prepare_indices(t, ["x1", "x2", "x3"]) == (0, 2, 1, 0)

    def test_signature_rejects_duplicates(self):
        with pytest.raises(TermError):
            Signature((SEQ, OpSymbol(";", 2)))

    def test_signature_lookup(self):
        sig = Signature((SEQ, SKIP))
        assert ";" in sig and "skip" in sig
        assert "+" not in sig
        assert sig[";"] is SEQ and sig["skip"] is SKIP
        with pytest.raises(KeyError):
            sig["+"]
        assert Signature(()).ops == () and ";" not in Signature(())

    def test_signature_merge(self):
        merged = Signature((SEQ, SKIP)).merge(Signature((PLUS,)))
        assert [o.name for o in merged.ops] == [";", "skip", "+"]
        assert merged["+"] is PLUS and "skip" in merged
        shared = Signature((SEQ,)).merge(Signature((SEQ, PLUS)))
        assert shared == Signature((SEQ, PLUS))
        assert hash(shared) == hash(Signature((SEQ, PLUS)))
        with pytest.raises(TermError):
            Signature((SEQ,)).merge(Signature((OpSymbol(";", 3),)))


class TestParams:
    def test_eval_param(self):
        e = App(ARITH["/"], (Var("l"), App(ARITH["+"], (Var("l"), Const(F(1))))))
        assert eval_param(e, {"l": F(1, 2)}) == F(1, 3)

    def test_division_by_zero_is_reported(self):
        e = App(ARITH["/"], (Const(F(1)), Var("l")))
        with pytest.raises(ParamDivisionByZero):
            eval_param(e, {"l": F(0)})

    def test_a_float_parameter_is_refused(self):
        oplus = OpSymbol("⊕", 2, param=True)
        with pytest.raises(TermError, match=r"parameter 0\.1 of '⊕' is a float"):
            app(oplus, x, y, param=0.1)
        assert app(oplus, x, y, param="1/10").param == F(1, 10)


# parameter terms in l and t; 0 and 1 are the literals the grammar reads bare
LITERALS = [Const(v) for v in (F(0), F(1), F(1, 2), F(1, 3), F(2, 3), F(3, 4))]
param_terms = st.recursive(
    st.sampled_from([Var("l"), Var("t"), *LITERALS]),
    lambda sub: st.builds(
        lambda op, a, b: App(ARITH[op], (a, b)), st.sampled_from("+-*/"), sub, sub
    ),
    max_leaves=8,
)
param_envs = st.fixed_dictionaries(
    {"l": st.sampled_from([F(0), F(1, 2), F(1)]), "t": st.sampled_from([F(0), F(1, 4), F(1)])}
)


def reference_eval(p, env):
    """Weights evaluated by direct recursion, one branch per operator."""
    if isinstance(p, Const):
        return p.value
    if isinstance(p, Var):
        return env[p.name]
    a, b = (reference_eval(q, env) for q in p.args)
    op = p.op.name
    if op == "+":
        return a + b
    if op == "-":
        return a - b
    if op == "*":
        return a * b
    if b == 0:
        raise ParamDivisionByZero(op)
    return a / b


def bare(p):
    return isinstance(p, Const) and p.value.denominator == 1


def read_param(text):
    ts = _Stream(_tokenize(text))
    p = _parse_param_expr(ts)
    assert ts.peek().kind == "end"
    return p


def read_back(p):
    """`p` as the grammar reads its rendering: a "/" between two bare
    literals is one literal."""
    if not isinstance(p, App):
        return p
    a, b = p.args
    if p.op.name == "/" and bare(a) and bare(b):
        return Const(a.value / b.value)
    return App(p.op, (read_back(a), read_back(b)))


def readable(p):
    """No "/" between a bare literal and a literal that is 0 or not an
    integer: the grammar reads "1 / 1/2" as the literal 1/1 and then "/ 2",
    and "1 / 0" as a literal with a zero denominator."""
    if not isinstance(p, App):
        return True
    a, b = p.args
    if p.op.name == "/" and bare(a) and isinstance(b, Const) and not (bare(b) and b.value):
        return False
    return readable(a) and readable(b)


class TestParameterTerms:
    @settings(max_examples=300, deadline=None)
    @given(param_terms, param_envs)
    def test_eval_param_agrees_with_the_reference(self, p, env):
        try:
            want = reference_eval(p, env)
        except ParamDivisionByZero:
            with pytest.raises(ParamDivisionByZero) as exc:
                eval_param(p, env)
            assert str(exc.value) == f"parameter {render_param(p)} divides by zero"
        else:
            assert eval_param(p, env) == want

    @settings(max_examples=300, deadline=None)
    @given(param_terms)
    def test_rendered_parameters_read_back(self, p):
        assume(readable(p))
        assert read_param(render_param(p)) == read_back(p)


class TestClassification:
    def test_linear(self):
        e = equation(app(SEQ, x, app(SEQ, y, z)), app(SEQ, app(SEQ, x, y), z))
        assert classify(e) is SyntacticClass.LINEAR

    def test_balanced(self):
        e = equation(app(SEQ, x, x), app(SEQ, x, x, param=None))
        assert classify(equation(app(PLUS, x, x), x)) is not SyntacticClass.LINEAR

    def test_affine_safe(self):
        e = equation(app(SEQ, x, y), y)  # drops x, duplicates nothing
        assert classify(e) is SyntacticClass.AFFINE_SAFE

    def test_duplication_is_balanced(self):
        e = equation(app(PLUS, x, x), x)
        assert classify(e) is SyntacticClass.BALANCED

    def test_duplicating_and_dropping_is_general(self):
        e = equation(app(PLUS, x, x), y, context=("x", "y"))
        assert classify(e) is SyntacticClass.GENERAL


def bool_or_algebra():
    return FiniteAlgebra(
        (0, 1),
        {
            "+": lambda a, p=None: a[0] | a[1],
            ";": lambda a, p=None: a[0] & a[1],
            "skip": lambda a, p=None: 1,
            "abort": lambda a, p=None: 0,
        },
    )


class TestAlgebra:
    def test_interpret_in_context_reads_the_valuation(self):
        t = app(SEQ, x, app(SEQ, y, z))
        ctx = ("x", "y", "z")
        A = bool_or_algebra()
        assert interpret_in_context(t, A, ctx, {"x": 1, "y": 1, "z": 1}) == 1
        assert interpret_in_context(t, A, ctx, {"x": 1, "y": 0, "z": 1}) == 0
        assert interpret_in_context(app(PLUS, x, x), A, ("x",), {"x": 0}) == 0

    def test_variable_outside_the_valuation_is_an_error(self):
        with pytest.raises(TermError, match="'y' not in context"):
            interpret_in_context(app(PLUS, x, y), bool_or_algebra(), ("x",), {"x": 0})

    def test_interpret_folds_with_leaf_and_ops(self):
        t = app(SEQ, x, app(PLUS, Const(0), y))
        leaf = lambda u: u.value if isinstance(u, Const) else {"x": 1, "y": 1}[u.name]
        assert interpret(t, bool_or_algebra().op, leaf) == 1

    def test_operation_is_looked_up_before_its_arguments(self):
        looked_up = []

        def ops(name):
            looked_up.append(name)
            raise TermError(f"no {name}")

        with pytest.raises(TermError, match="no ;"):
            interpret(app(SEQ, app(PLUS, x, y), z), ops, lambda u: 0)
        assert looked_up == [";"]

    def test_parameter_expressions_are_evaluated(self):
        t = App(CHOOSE, (x, y), App(ARITH["*"], (Var("l"), Const(F(2)))))
        A = choice_algebra()
        leaf = {"x": 0, "y": 1}
        assert interpret(t, A.op, lambda u: leaf[u.name], {"l": F(1, 2)}) == 0
        assert interpret(t, A.op, lambda u: leaf[u.name], {"l": F(1, 8)}) == 1
        with pytest.raises(TermError, match="unbound parameter variable 'l'"):
            interpret(t, A.op, lambda u: leaf[u.name])

    def test_holds_and_violations(self):
        A = bool_or_algebra()
        for e in semilattice_theory().equations:
            assert find_violation(A, e, ()) is None, e.describe()
        bad = equation(app(PLUS, x, y), x)
        w = find_violation(A, bad, ())
        assert w is not None and w["lhs"] != w["rhs"]

    def test_monoid_theory_holds_in_conjunction(self):
        A = bool_or_algebra()
        for e in monoid_theory().equations:
            assert find_violation(A, e, ()) is None, e.describe()


# ---------------------------------------------------------------------------
# differential test: interpret_in_context against the argument-consuming
# evaluator it replaced, kept here as a reference

CHOOSE = OpSymbol("ch", 2, param=True)
CONST = OpSymbol("c", 0)


def choice_algebra():
    return FiniteAlgebra(
        (0, 1),
        {
            # left and not right: neither commutative nor idempotent
            ";": lambda a, p=None: a[0] & (1 - a[1]),
            "ch": lambda a, p: a[0] if p >= F(1, 2) else a[1],
            "c": lambda a, p=None: 1,
        },
    )


def _consume(t, A, args, env):
    """Fold bottom-up, taking variable values from `args` left to right."""
    if isinstance(t, Var):
        return args[0], args[1:]
    if isinstance(t, Const):
        return t.value, args
    vals = []
    for a in t.args:
        v, args = _consume(a, A, args, env)
        vals.append(v)
    p = t.param
    if isinstance(p, Term):
        p = eval_param(p, env)
    return A.op(t.op.name)(tuple(vals), p), args


def reference_interpret(t, A, context, valuation, env):
    idx = prepare_indices(t, context)
    tup = tuple(valuation[v] for v in context)
    value, rest = _consume(t, A, tuple(tup[i] for i in idx), env)
    assert rest == ()
    return value


def _terms_to_depth_2():
    leaves = [x, y, z, Const(0), App(CONST, ())]
    weight = App(ARITH["-"], (Const(F(1)), Var("l")))  # 1 - l
    apps = [app(SEQ, l, r) for l, r in product(leaves, repeat=2)]
    apps += [App(CHOOSE, (l, r), weight) for l, r in product(leaves, repeat=2)]
    return leaves + apps


def test_interpret_agrees_with_the_argument_consuming_reference():
    A = choice_algebra()
    ctx = ("x", "y", "z")
    terms = _terms_to_depth_2()
    assert len(terms) == 55
    checked = 0
    for t in terms:
        for values in product(A.carrier, repeat=len(ctx)):
            valuation = dict(zip(ctx, values))
            for l in (F(0), F(1, 3), F(1, 2), F(3, 4), F(1)):
                env = {"l": l}
                expected = reference_interpret(t, A, ctx, valuation, env)
                assert interpret_in_context(t, A, ctx, valuation, env) == expected
                checked += 1
    assert checked == 55 * 8 * 5


def test_tabled_computes_once_per_input_and_keeps_one_object_per_result():
    calls, results = [], {}

    def parity(args, param):
        calls.append((args, param))
        return frozenset({sum(args) % 2})  # a new object on every call

    op = tabled(parity, results)
    inputs = [((1, 2), None), ((2, 1), None), ((2, 2), None), ((1, 2), None)]
    outs = [op(*i) for i in inputs]
    assert calls == inputs[:3]  # once per distinct input
    # equal results of distinct inputs are one object
    assert outs[0] is outs[1] is outs[3] and outs[2] == frozenset({0})
    assert results == {frozenset({1}): outs[0], frozenset({0}): outs[2]}
    assert op.cache_info().currsize == 3
    op.cache_clear()
    assert op.cache_info().currsize == 0
    assert op((1, 2), None) is outs[0] and len(calls) == 4  # computed again


def test_tabled_keeps_one_table_per_parameter_value():
    calls, results = [], {}

    def scaled(args, param):
        calls.append(param)
        return sum(args) * param

    op = tabled(scaled, results)
    half = op.at(F(1, 2))
    assert op.at(F(2, 4)) is half  # found by value
    assert half((1, 2)) is half((1, 2)) == F(3, 2) and calls == [F(1, 2)]
    assert op.at(F(3, 4))((1, 1)) is half((1, 2))  # one object per result
    assert op.cache_info().currsize == 0
    op.cache_clear()
    assert op.at(F(1, 2)) is not half


def test_a_staged_parameter_reads_its_own_table():
    oplus = OpSymbol("⊕", 2, param=True)
    op = tabled(lambda args, p: min(args) if p < F(1, 2) else max(args), {})
    A = FiniteAlgebra((0, 1), {"⊕": op})
    for p, expected in ((F(1, 3), 0), (F(2, 3), 1)):
        fn = A.stage(app(oplus, x, y, param=p))
        assert fn({"x": 0, "y": 1}) == expected
        assert op.at(p).cache_info().currsize == 1
    assert op.cache_info().currsize == 0  # no call hashed a Fraction


# ---------------------------------------------------------------------------
# staging: a term folded once into its term function


def plain_fold(t, A, valuation, env):
    """`t` folded in `A` with no staging: the reference for `A.stage`."""
    leaf = lambda u: u.value if isinstance(u, Const) else valuation[u.name]
    return interpret(t, A.op, leaf, env)


def grid_envs(e, grid):
    pnames = e.param_names
    return [dict(zip(pnames, c)) for c in product(grid, repeat=len(pnames))] or [{}]


class TestStaging:
    def test_staged_sides_equal_the_plain_fold_on_the_flagship(self, flagship_axiom_check):
        A, axioms, grid = flagship_axiom_check
        assert len(axioms) == 7
        checked = 0
        for e in axioms:
            envs = grid_envs(e, grid)
            valuations = product(A.carrier, repeat=len(e.context))
            for values in islice(valuations, 0, None, 37):
                valuation = dict(zip(e.context, values))
                for env in envs:
                    for side in (e.lhs, e.rhs):
                        try:
                            expected = plain_fold(side, A, valuation, env)
                        except ParamDivisionByZero:
                            with pytest.raises(ParamDivisionByZero):
                                A.stage(side, env)
                            continue
                        assert A.stage(side, env)(valuation) == expected
                        checked += 1
        assert checked > 300

    def test_staging_is_cached_per_term_and_env(self):
        A = choice_algebra()
        t = App(CHOOSE, (x, app(SEQ, y, x)), Var("l"))
        env = {"l": F(1, 2)}
        f = A.stage(t, env)
        assert A.stage(t, env) is f
        assert A.stage(t, {"l": F(1, 2)}) is not f  # another env object
        assert A.staged[(id(t), id(env))] == (t, env, f)

    def test_an_empty_env_stages_as_none(self):
        """A parameter-free check builds a fresh empty env per call; those
        calls share one staged function, so the cache does not grow."""
        A = bool_or_algebra()
        e = equation(app(SEQ, x, y), app(SEQ, y, x))
        f = A.stage(e.lhs)
        assert A.stage(e.lhs, {}) is f
        for _ in range(3):
            find_violation(A, e, ())
        assert set(A.staged) == {(id(e.lhs), id(None)), (id(e.rhs), id(None))}

    def test_a_replaced_copy_stages_through_its_own_operations(self):
        A = choice_algebra()
        t, env, valuation = app(SEQ, x, y), {}, {"x": 1, "y": 0}
        assert A.stage(t, env)(valuation) == interpret_in_context(t, A, ("x", "y"), valuation) == 1
        B = replace(A, interp={**A.interp, ";": lambda a, p=None: a[1]})
        assert B.staged == {}
        assert B.stage(t, env)(valuation) == 0  # A's cached function gives 1
        assert interpret_in_context(t, B, ("x", "y"), valuation) == 0
        assert A.stage(t, env)(valuation) == 1
        assert replace(A) == A  # equality ignores the cache

    @pytest.mark.parametrize("divides", ["lhs", "rhs"])
    def test_a_parameter_dividing_by_zero_skips_the_instance(self, monkeypatch, divides):
        l = Var("l")
        ratio = App(ARITH["/"], (l, App(ARITH["-"], (Const(F(1)), l))))  # l/(1 - l)
        plain, ratioed = App(CHOOSE, (x, y), l), App(CHOOSE, (x, y), ratio)
        e = equation(*((ratioed, plain) if divides == "lhs" else (plain, ratioed)))
        grid = (F(0), F(1, 2), F(1))
        visited = []
        original = terms.interpret_in_context

        def logged(t, A, context, valuation, env=None):
            visited.append(("lhs" if t is e.lhs else "rhs", dict(valuation), dict(env)))
            return original(t, A, context, valuation, env)

        monkeypatch.setattr(terms, "interpret_in_context", logged)
        # ch[l/(1 - l)] and ch[l] pick the same argument at l = 0 and 1/2
        assert find_violation(choice_algebra(), e, grid) is None
        expected = []
        for values in product((0, 1), repeat=2):
            valuation = dict(zip(("x", "y"), values))
            for lam in grid:
                expected.append(("lhs", valuation, {"l": lam}))
                if not (lam == 1 and divides == "lhs"):
                    expected.append(("rhs", valuation, {"l": lam}))
        assert visited == expected

    def test_parameter_names_are_walked_once_per_equation(self, monkeypatch):
        walked = []
        original = terms.term_params

        def counted(t):
            walked.append(t)
            return original(t)

        monkeypatch.setattr(terms, "term_params", counted)
        l = Var("l")
        e = equation(App(CHOOSE, (x, y), l), App(CHOOSE, (y, x), App(ARITH["-"], (Const(F(1)), l))))
        A, grid = choice_algebra(), (F(0), F(1, 2), F(1))
        find_violation(A, e, grid)
        first = len(walked)
        for _ in range(99):
            find_violation(A, e, grid)
        assert e.param_names == ("l",)
        assert len(walked) == first

    def test_missing_variable_message_is_unchanged(self):
        A = bool_or_algebra()
        with pytest.raises(TermError) as exc:
            interpret_in_context(app(SEQ, x, app(PLUS, x, y)), A, ("x",), {"x": 0})
        assert str(exc.value) == "variable 'y' not in context ['x']"
        with pytest.raises(TermError, match="variable 'y' not in the valuation"):
            A.stage(app(PLUS, x, y))({"x": 0})

    def test_missing_operation_is_reported_at_the_outermost_application(self):
        t = app(SEQ, app(PLUS, x, y), z)
        valuation = {"x": 0, "y": 0, "z": 0}
        for missing, reported in [((";", "+"), ";"), (("+",), "+")]:
            A = bool_or_algebra()
            A = replace(A, interp={k: v for k, v in A.interp.items() if k not in missing})
            with pytest.raises(TermError) as exc:
                interpret_in_context(t, A, ("x", "y", "z"), valuation)
            assert str(exc.value) == f"algebra does not interpret {reported!r}"
            assert A.staged == {}


class TestRendering:
    def test_infix_precedence(self):
        t = app(SEQ, app(PLUS, x, y), z)
        assert render_term(t) == "(x + y);z"
        t2 = app(PLUS, x, app(SEQ, y, z))
        assert render_term(t2) == "x + y;z"

    def test_equation_describe_uses_the_term_printer(self):
        e = equation(app(SEQ, Const(frozenset({("b",), ("a",)})), x), x)
        assert e.describe() == "{a, b};x = x"

    def test_param_op(self):
        oplus = OpSymbol("⊕", 2, param=True)
        t = App(oplus, (Var("x"), Var("y")), F(1, 2))
        assert "⊕[1/2]" in render_term(t)


# ---------------------------------------------------------------------------
# differential test: the term classes against the frozen dataclasses they
# replaced, kept here as a reference.  The copies subclass no `Term`, so
# their keys are `reference_key`'s, the generic dataclass fallback that
# `canon_key` had for the old classes and for `OpSymbol`.


class dataclass_terms:
    class Term:
        __slots__ = ()

    def _kept_hash(obj, fields: tuple) -> int:
        h = hash(fields)
        object.__setattr__(obj, "_hash", h)
        return h

    @dataclass(frozen=True)
    class Var(Term):
        name: str

    @dataclass(frozen=True)
    class Const(Term):
        value: object

        def __hash__(self):
            try:
                return self._hash
            except AttributeError:
                return dataclass_terms._kept_hash(self, (self.value,))

    @dataclass(frozen=True)
    class App(Term):
        op: OpSymbol
        args: tuple = ()
        param: object = None

        def __post_init__(self):
            if len(self.args) != self.op.arity:
                raise TermError(
                    f"{self.op.name!r} expects {self.op.arity} args, got {len(self.args)}"
                )
            if self.op.param and self.param is None:
                raise TermError(f"{self.op.name!r} requires a parameter")
            if not self.op.param and self.param is not None:
                raise TermError(f"{self.op.name!r} takes no parameter")

        def __hash__(self):
            try:
                return self._hash
            except AttributeError:
                return dataclass_terms._kept_hash(self, (self.op, self.args, self.param))


# `repr` prints the bare class name, as it did for the module-level classes
for _cls in (dataclass_terms.Var, dataclass_terms.Const, dataclass_terms.App):
    _cls.__qualname__ = _cls.__name__

OPLUS = OpSymbol("⊕", 2, param=True)
TERM_CONSTANTS = [
    "a",
    "b",
    (),
    ("a", "b"),
    F(1, 2),
    frozenset(),
    frozenset({("a",), ("a", "b")}),
    MultiSet(["a", "a", "b"]),
    MultiSet([("a",), ()]),
    Dist({"a": F(1, 3), "b": F(2, 3)}),
    Dist({("b",): 1}),
]
# shapes, built by `build` from either set of classes
param_shapes = st.recursive(
    st.sampled_from([("var", "l"), ("var", "t"), ("const", F(0)), ("const", F(1, 2))]),
    lambda sub: st.tuples(
        st.just("app"), st.sampled_from([ARITH[o] for o in "+-*/"]), st.tuples(sub, sub), st.none()
    ),
    max_leaves=4,
)
term_shapes = st.recursive(
    st.one_of(
        st.tuples(st.just("var"), st.sampled_from(["a", "x"])),
        st.tuples(st.just("const"), st.sampled_from(TERM_CONSTANTS)),
        st.just(("app", SKIP, (), None)),
    ),
    lambda sub: st.one_of(
        st.tuples(st.just("app"), st.sampled_from([SEQ, PLUS]), st.tuples(sub, sub), st.none()),
        st.tuples(
            st.just("app"),
            st.just(OPLUS),
            st.tuples(sub, sub),
            st.one_of(st.sampled_from([F(1, 2), F(1, 3), F(1)]), param_shapes),
        ),
    ),
    max_leaves=6,
)


def reference_key(v):
    """`canon_key` with its old fallback for any frozen dataclass: the class
    name tagged "dc:" over its fields' keys."""
    if isinstance(v, tuple):
        return ("tuple", tuple(reference_key(x) for x in v), ())
    if is_dataclass(v):
        fields = tuple(reference_key(getattr(v, f)) for f in v.__dataclass_fields__)
        return ("dc:" + type(v).__name__, fields, ())
    return canon_key(v)


def build(shape, classes):
    kind = shape[0]
    if kind == "var":
        return classes.Var(shape[1])
    if kind == "const":
        return classes.Const(shape[1])
    _, op, args, param = shape
    if isinstance(param, tuple):
        param = build(param, classes)
    return classes.App(op, tuple(build(a, classes) for a in args), param)


class TestTermClasses:
    def test_no_term_type_is_a_dataclass(self):
        assert not any(is_dataclass(cls) for cls in (Term, Var, Const, App))

    def test_operations_keep_their_dataclass_keys(self):
        ops = [SEQ, SKIP, PLUS, OPLUS, OpSymbol("f", 3), *ARITH.values()]
        for op in ops:
            assert canon_key(op) == reference_key(op)
        assert canon_key(OPLUS) == (
            "dc:OpSymbol", (("str", (), "⊕"), ("int", (), 2), ("bool", (), True)), ()
        )

    @settings(max_examples=300, deadline=None)
    @given(st.lists(term_shapes, min_size=1, max_size=6))
    def test_agree_with_the_frozen_dataclasses(self, shapes):
        new = [build(s, terms) for s in shapes]
        old = [build(s, dataclass_terms) for s in shapes]
        for n, o in zip(new, old):
            assert repr(n) == repr(o)
            assert hash(n) == hash(o)
            assert canon_key(n) == reference_key(o)
        for i, j in product(range(len(new)), repeat=2):
            assert (new[i] == new[j]) == (old[i] == old[j])
            assert (new[i] != new[j]) == (old[i] != old[j])
        index = {id(t): i for i, t in enumerate(new + old)}
        got = [index[id(t)] for t in sort_values(new)]
        want = [index[id(t)] - len(new) for t in sorted(old, key=reference_key)]
        assert got == want

    @settings(max_examples=100, deadline=None)
    @given(
        st.sampled_from([SEQ, SKIP, OPLUS]),
        st.integers(0, 3),
        st.sampled_from([None, F(1, 2), Var("l")]),
    )
    def test_applications_are_checked_as_before(self, op, n, param):
        def made(classes):
            try:
                return repr(classes.App(op, (classes.Var("x"),) * n, param))
            except TermError as exc:
                return str(exc)

        assert made(terms) == made(dataclass_terms)
