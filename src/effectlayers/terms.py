"""Finitary signatures, terms, equations, and the variable-analysis machinery.

Terms are either variables, ground constants, or operation applications.
A parameter expression, the weight of an operation such as ⊕, is a term
over the four symbols of `ARITH`: parameter names are its variables and
rationals its constants.
`interpret` is the one term evaluator: the fold out of the term algebra,
given an operation lookup and a value for each leaf.  Normal forms, the
syntactic law, program evaluation and equation checks all run it, and so
do weights: `eval_param` folds one into the rationals, and `render_param`
into the strings "(a op b)".
`run_check` is the one check loop: every law, probe, brute-force search
and axiom check hands it its cases and a witness function and gets back a
`LawReport`.  Equation checking is exhaustive over the finite carrier it
is given.

Equation checks stage each side: `FiniteAlgebra.stage` runs `interpret`
once per term and parameter point with closures for operations and
leaves, so the fold yields the term function, valuation -> value, and
each instance only applies it.  Staging is that fold, not a second
evaluator.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from typing import Callable, Mapping, Optional, Sequence


class TermError(Exception):
    pass


class ParamDivisionByZero(Exception):
    """A parameter expression divided by zero; the instance is skipped."""


# ---------------------------------------------------------------------------
# signatures and terms

def _kept_hash(obj, fields: tuple) -> int:
    """The hash of `fields`, the one the generated `__hash__` of `obj`'s
    frozen dataclass would give, computed on first use and kept: a term is
    hashed at every table lookup, and recomputing it walks the whole term."""
    h = hash(fields)
    object.__setattr__(obj, "_hash", h)
    return h


@dataclass(frozen=True)
class OpSymbol:
    name: str
    arity: int
    param: bool = False  # True for rational-parameterized families

    def __post_init__(self):
        if self.arity < 0:
            raise TermError(f"negative arity for {self.name!r}")

    def __hash__(self):
        try:
            return self._hash
        except AttributeError:
            return _kept_hash(self, (self.name, self.arity, self.param))


@dataclass(frozen=True)
class Signature:
    ops: tuple

    def __post_init__(self):
        by_name = {o.name: o for o in self.ops}
        if len(by_name) != len(self.ops):
            names = [o.name for o in self.ops]
            raise TermError(f"duplicate operation names in signature: {names}")
        object.__setattr__(self, "_by_name", by_name)

    def __getitem__(self, name: str) -> OpSymbol:
        return self._by_name[name]

    def __contains__(self, name: str) -> bool:
        return name in self._by_name

    def merge(self, other: "Signature") -> "Signature":
        extra = tuple(o for o in other.ops if o.name not in self)
        for o in other.ops:
            if o.name in self and self[o.name] != o:
                raise TermError(f"conflicting declarations for op {o.name!r}")
        return Signature(self.ops + extra)


class Term:
    __slots__ = ()


# The three term classes have the equality, hash and repr a frozen
# dataclass would generate: equal when of one class with equal fields,
# hashed as the tuple of their fields.  They are plain `__slots__` classes,
# as the parser builds one per token; a term is never mutated once built.

class Var(Term):
    __slots__ = ("name",)

    def __init__(self, name: str):
        self.name = name

    def __eq__(self, other):
        if other.__class__ is not Var:
            return NotImplemented
        return self.name == other.name

    def __hash__(self):
        return hash((self.name,))

    def __repr__(self):
        return f"Var(name={self.name!r})"


class Const(Term):
    """A ground leaf: an element of the carrier embedded in a term."""

    __slots__ = ("value", "_hash")

    def __init__(self, value):
        self.value = value

    def __eq__(self, other):
        if other.__class__ is not Const:
            return NotImplemented
        return (self.value,) == (other.value,)

    def __hash__(self):
        try:
            return self._hash
        except AttributeError:
            return _kept_hash(self, (self.value,))

    def __repr__(self):
        return f"Const(value={self.value!r})"


class App(Term):
    __slots__ = ("op", "args", "param", "_hash")

    def __init__(self, op: OpSymbol, args: tuple = (), param=None):
        # `param`: Fraction | Term over ARITH | None
        if len(args) != op.arity:
            raise TermError(f"{op.name!r} expects {op.arity} args, got {len(args)}")
        if op.param:
            if param is None:
                raise TermError(f"{op.name!r} requires a parameter")
        elif param is not None:
            raise TermError(f"{op.name!r} takes no parameter")
        self.op = op
        self.args = args
        self.param = param

    def __eq__(self, other):
        if other.__class__ is not App:
            return NotImplemented
        return (self.op, self.args, self.param) == (other.op, other.args, other.param)

    def __hash__(self):
        try:
            return self._hash
        except AttributeError:
            return _kept_hash(self, (self.op, self.args, self.param))

    def __repr__(self):
        return f"App(op={self.op!r}, args={self.args!r}, param={self.param!r})"


def app(op: OpSymbol, *args, param=None) -> App:
    if isinstance(param, float):
        raise TermError(
            f"parameter {param!r} of {op.name!r} is a float; give a Fraction, "
            "an int or a string"
        )
    if param is not None and not isinstance(param, Term):
        param = Fraction(param)
    return App(op, tuple(args), param)


def term_vars(t: Term):
    """Distinct variable names of `t` in first-occurrence order."""
    out = []
    seen = set()
    for x in term_args(t):
        if x not in seen:
            seen.add(x)
            out.append(x)
    return tuple(out)


def term_args(t: Term):
    """Variable occurrences of `t`, left to right, with repetitions."""
    if isinstance(t, Var):
        return (t.name,)
    if isinstance(t, Const):
        return ()
    return tuple(x for a in t.args for x in term_args(a))


def term_depth(t: Term) -> int:
    if isinstance(t, (Var, Const)):
        return 1
    if not t.args:
        return 1
    return 1 + max(term_depth(a) for a in t.args)


def term_params(t: Term):
    """Parameter variable names appearing anywhere in `t`."""
    if isinstance(t, App):
        own = set(term_vars(t.param)) if isinstance(t.param, Term) else set()
        for a in t.args:
            own |= term_params(a)
        return own
    return set()


def map_consts(t: Term, f) -> Term:
    if isinstance(t, Const):
        return Const(f(t.value))
    if isinstance(t, Var):
        return t
    return App(t.op, tuple(map_consts(a, f) for a in t.args), t.param)


def subst_vars(t: Term, env: Mapping[str, Term]) -> Term:
    if isinstance(t, Var):
        return env[t.name]
    if isinstance(t, Const):
        return t
    return App(t.op, tuple(subst_vars(a, env) for a in t.args), t.param)


def instantiate_params(t: Term, env: Mapping[str, Fraction]) -> Term:
    """Replace parameter expressions by concrete rationals (may raise
    ParamDivisionByZero, in which case the instance is skipped)."""
    if isinstance(t, App):
        p = t.param
        if isinstance(p, Term):
            p = eval_param(p, env)
        return App(t.op, tuple(instantiate_params(a, env) for a in t.args), p)
    return t


def prepare_indices(t: Term, context: Sequence[str]):
    """0-based projection indices realizing the variable rearrangement of `t`.

    Applying the result to a |context|-tuple lists the values of the variable
    occurrences of `t`, left to right.
    """
    pos = {x: i for i, x in enumerate(context)}
    try:
        return tuple(pos[x] for x in term_args(t))
    except KeyError as exc:
        raise TermError(f"variable {exc.args[0]!r} not in context {list(context)}")


# ---------------------------------------------------------------------------
# parameter expressions (for families like the convex choice operators)

# A parameter expression is a term over these four symbols, its variables
# the parameter names and its constants rationals.  No walk over a term's
# arguments enters its parameter (term_args, _check_wellformed,
# theories._shape, normal_forms._consts, the closure universe), so they
# meet no signature, named law or closure.
ARITH = {name: OpSymbol(name, 2) for name in "+-*/"}
_RATIONAL = {
    "+": lambda ab, _: ab[0] + ab[1],
    "-": lambda ab, _: ab[0] - ab[1],
    "*": lambda ab, _: ab[0] * ab[1],
    "/": lambda ab, _: ab[0] / ab[1],
}


def _infix(name: str):
    return lambda ab, _: f"({ab[0]} {name} {ab[1]})"


def _param_leaf(u) -> str:
    return u.name if isinstance(u, Var) else render_param(u.value)


def eval_param(p, env: Mapping[str, Fraction]) -> Fraction:
    """The parameter term `p` in the rationals, each variable read from `env`."""

    def leaf(u):
        if isinstance(u, Const):
            return u.value
        try:
            return env[u.name]
        except KeyError:
            raise TermError(f"unbound parameter variable {u.name!r}") from None

    try:
        return interpret(p, _RATIONAL.__getitem__, leaf)
    except ZeroDivisionError:
        raise ParamDivisionByZero(f"parameter {render_param(p)} divides by zero") from None


def render_param(p) -> str:
    """A parameter, or any rational, as the spec syntax writes it: "1/2", "(1 - l)"."""
    if isinstance(p, Term):
        return interpret(p, _infix, _param_leaf)
    f = p if type(p) is Fraction else Fraction(p)
    if f.denominator == 1:
        return str(f.numerator)
    return f"{f.numerator}/{f.denominator}"


# ---------------------------------------------------------------------------
# equations and theories

class SyntacticClass(Enum):
    LINEAR = "LINEAR"
    BALANCED = "BALANCED"
    AFFINE_SAFE = "AFFINE_SAFE"
    GENERAL = "GENERAL"


@dataclass(frozen=True)
class Equation:
    context: tuple  # variable names
    lhs: Term
    rhs: Term
    name: str = ""

    def __post_init__(self):
        used = set(term_vars(self.lhs)) | set(term_vars(self.rhs))
        if not used <= set(self.context):
            raise TermError(
                f"equation {self.name or '<anon>'} uses variables outside its context"
            )

    @functools.cached_property
    def param_names(self) -> tuple:
        """The parameter variables of both sides, sorted; walked once, as
        every check of the equation reads them."""
        return tuple(sorted(term_params(self.lhs) | term_params(self.rhs)))

    def describe(self) -> str:
        # render imports this module
        from .render import render_term

        return self.name or f"{render_term(self.lhs)} = {render_term(self.rhs)}"


def equation(lhs: Term, rhs: Term, name: str = "", context=None) -> Equation:
    if context is None:
        ctx = list(term_vars(lhs))
        for x in term_vars(rhs):
            if x not in ctx:
                ctx.append(x)
        context = tuple(ctx)
    return Equation(tuple(context), lhs, rhs, name)


@dataclass(frozen=True)
class Theory:
    signature: Signature
    equations: tuple
    name: str = ""

    def __post_init__(self):
        for e in self.equations:
            _check_wellformed(e.lhs, self.signature)
            _check_wellformed(e.rhs, self.signature)


def _check_wellformed(t: Term, sig: Signature):
    if isinstance(t, App):
        if t.op.name not in sig or sig[t.op.name] != t.op:
            raise TermError(f"operation {t.op.name!r} not declared in signature")
        for a in t.args:
            _check_wellformed(a, sig)


def classify(e: Equation) -> SyntacticClass:
    """Strongest syntactic label governing which lifting theorem applies."""
    lv, rv = term_args(e.lhs), term_args(e.rhs)
    lset, rset = set(lv), set(rv)
    linear_each = len(lv) == len(lset) and len(rv) == len(rset)
    if lset == rset and linear_each:
        return SyntacticClass.LINEAR
    if lset == rset:
        return SyntacticClass.BALANCED
    if linear_each:
        return SyntacticClass.AFFINE_SAFE
    return SyntacticClass.GENERAL


# ---------------------------------------------------------------------------
# finite algebras and interpretation

def tabled(fn: Callable, results: dict) -> Callable:
    """`functools.cache` over `fn`, each result kept as one object per
    distinct value in `results`: equal results of distinct inputs compare
    by identity, and a set of them keeps one object under every hash seed.

    For an operation `fn(args, param)`, `.at(param)` is the table of
    `args -> fn(args, param)` for one rational parameter, found by its
    `(numerator, denominator)` pair.  A staged term looks it up once, so
    no call hashes the `Fraction`, whose hash runs in Python.
    """

    def kept(*args):
        out = fn(*args)
        return results.setdefault(out, out)

    @functools.cache
    def by_ratio(num: int, den: int):
        param = Fraction(num, den)
        return functools.cache(lambda args: kept(args, param))

    run = functools.cache(kept)
    run.at = lambda p: by_ratio(p.numerator, p.denominator)
    clear = run.cache_clear
    run.cache_clear = lambda: (clear(), by_ratio.cache_clear())
    return run


@dataclass(frozen=True)
class FiniteAlgebra:
    carrier: tuple
    # op name -> callable(args_tuple, param: Fraction|None) -> element
    interp: Mapping[str, Callable]
    name: str = ""
    # (id(t), id(param_env)) -> (t, param_env, term function); holding t and
    # the env keeps both ids from being reused while the entry exists
    staged: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def op(self, name: str):
        try:
            return self.interp[name]
        except KeyError:
            raise TermError(f"algebra does not interpret {name!r}")

    def stage(self, t: Term, param_env=None):
        """The term function of `t` in this algebra: a callable from a
        valuation (variable name -> element) to the value of `t`.

        It is `interpret` folding `t` into closures: operations are looked
        up, in `interpret`'s pre-order, and parameter expressions evaluated
        in `param_env` once, when `t` is staged.  The result is cached per
        term and env object, an empty env keyed as no env, so an env must
        not be mutated once staged.
        """
        param_env = param_env or None  # an empty env stages as none
        key = (id(t), id(param_env))
        hit = self.staged.get(key)
        if hit is None:
            fn = interpret(t, self._node, _stage_leaf, param_env)
            hit = self.staged[key] = (t, param_env, fn)
        return hit[2]

    def _node(self, name: str):
        f = self.op(name)
        at = getattr(f, "at", None)  # a tabled operation's table per parameter

        def build(subs, p):
            if at is not None and type(p) is Fraction:
                g = at(p)
                if len(subs) == 2:
                    a, b = subs
                    return lambda val: g((a(val), b(val)))
                return lambda val: g(tuple([s(val) for s in subs]))
            if len(subs) == 2:  # the common case, without a list per call
                a, b = subs
                return lambda val: f((a(val), b(val)), p)
            return lambda val: f(tuple([s(val) for s in subs]), p)

        return build


class _UnboundVariable(TermError):
    """A staged term read a variable its valuation lacks."""

    def __init__(self, name):
        super().__init__(f"variable {name!r} not in the valuation")
        self.name = name


def _stage_leaf(u):
    if isinstance(u, Const):
        v = u.value
        return lambda val: v
    name = u.name

    def read(val):
        try:
            return val[name]
        except KeyError:
            raise _UnboundVariable(name) from None

    return read


def interpret(t: Term, ops: Callable, leaf: Callable, param_env=None):
    """The fold of `t`: `leaf(u)` at each variable or constant `u`, and at an
    application `ops(name)` applied to the interpreted arguments and the
    parameter, its expression evaluated in `param_env`.

    The operation is looked up before its arguments are interpreted, so a
    missing operation is reported at the outermost application.
    """
    if not isinstance(t, App):
        return leaf(t)
    f = ops(t.op.name)
    args = tuple([interpret(a, ops, leaf, param_env) for a in t.args])
    p = t.param
    if isinstance(p, Term):
        p = eval_param(p, param_env or {})
    return f(args, p)


def interpret_in_context(t: Term, A: FiniteAlgebra, context, valuation, param_env=None):
    """Interpretation in `A`, each variable read from `valuation`: the staged
    term function of `t` applied to it."""
    try:
        return A.stage(t, param_env)(valuation)
    except _UnboundVariable as exc:
        raise TermError(f"variable {exc.name!r} not in context {list(context)}") from None


def find_violation(A: FiniteAlgebra, e: Equation, param_grid):
    """First valuation (and parameter assignment) separating lhs from rhs,
    valuations in `itertools.product` order, parameters innermost.

    Returns None when the equation holds exhaustively; parameter instances
    whose side conditions divide by zero are skipped.
    """
    pnames = e.param_names
    envs = [
        dict(zip(pnames, combo))
        for combo in itertools.product(param_grid, repeat=len(pnames))
    ]

    def instances():  # one valuation per value tuple, for all its parameters
        for values in itertools.product(A.carrier, repeat=len(e.context)):
            valuation = dict(zip(e.context, values))
            for env in envs:
                yield valuation, env

    def separating(valuation, env):
        try:
            lv = interpret_in_context(e.lhs, A, e.context, valuation, env)
            rv = interpret_in_context(e.rhs, A, e.context, valuation, env)
        except ParamDivisionByZero:
            return None
        if lv != rv:
            return {"valuation": valuation, "params": env, "lhs": lv, "rhs": rv}
        return None

    return run_check(e.name, instances(), separating, "").counterexample


# ---------------------------------------------------------------------------
# the check runner

PASS = "PASS"
FAIL = "FAIL"


@dataclass(frozen=True)
class LawReport:
    axiom: str  # DL1 | NATURALITY | WELL_DEFINED | MONAD_UNIT | axiom:... | symmetric...
    status: str
    counterexample: Optional[dict] = None
    fragment: str = ""

    @property
    def ok(self) -> bool:
        return self.status == PASS


def run_check(axiom: str, cases, witness: Callable, fragment: str) -> LawReport:
    """The one loop of every check: PASS, or FAIL with the first non-None
    `witness(*case)` over `cases`, in their order.  A case whose witness is
    None satisfies the check; no case after the first witness is visited."""
    for case in cases:
        w = witness(*case)
        if w is not None:
            return LawReport(axiom, FAIL, w, fragment)
    return LawReport(axiom, PASS, None, fragment)
