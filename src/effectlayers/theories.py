"""Standard algebraic theories and structural recognition of equation patterns.

The named laws are written once, in `_LAWS`: those of plain binary operations
and the convex-algebra laws of a parameterized one (⊕).  The laws of each
canonical kind are written once, in `_KIND_LAWS`, as (law, role of f, role
of o) triples.  The theory builders, the equation names and recognition all
read these tables.  Recognition drives two things: picking the canonical
normal-form realization for a (possibly weakened) theory, and naming
equations in reports ("assoc(;)", "idem(+)", ...).  An equation is named
by its shape, the equation up to renaming, looked up in one index of the
signature's law instances in both orientations.  A theory of plain
operations is a kind exactly when its operations, one to each role, make
its named laws the kind's laws; one parameterized binary operation alone
is CONVEX.  Anything else is GENERIC.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .terms import (
    ARITH,
    App,
    Const,
    Equation,
    OpSymbol,
    Signature,
    Term,
    Theory,
    Var,
    app,
    equation,
)

# ---------------------------------------------------------------------------
# named laws

_x, _y, _z = Var("x"), Var("y"), Var("z")
_l, _t = Var("l"), Var("t")
_inv = App(ARITH["-"], (Const(Fraction(1)), _l))  # 1 - l
_outer = App(ARITH["+"], (_l, App(ARITH["*"], (_inv, _t))))  # l + (1 - l) * t
_PLAIN, _PARAM, _EITHER = (False,), (True,), (False, True)


def distributivity(f: OpSymbol, g: OpSymbol, j: int):
    """The two sides of f distributing over g in f's argument j:
    f(.., g(y1..yn), ..) = g(f(.., y1, ..), .., f(.., yn, ..)), the other
    arguments x1..xm.  A constant g is absorbing: f(.., g, ..) = g.  A
    parameterized f or g carries the weight fp or gp."""
    fp = Var("fp") if f.param else None
    xs = [Var(f"x{i + 1}") for i in range(f.arity)]

    def f_at_j(arg: Term) -> Term:
        args = list(xs)
        args[j] = arg
        return App(f, tuple(args), fp)

    if g.arity == 0:
        return f_at_j(App(g, ())), App(g, ())
    gp = Var("gp") if g.param else None
    ys = [Var(f"y{i + 1}") for i in range(g.arity)]
    return f_at_j(App(g, tuple(ys), gp)), App(g, tuple(map(f_at_j, ys)), gp)


# The named laws.  Each maps to the kind of binary operation f it is a law of
# (plain, parameterized or either), the arity of the law's second operation o
# (None: it has none; 0: a constant; 2: a second plain binary operation) and
# a builder of the law's two sides.  A parameterized f takes the weight l.
_LAWS = {
    "assoc": (
        _PLAIN,
        None,
        lambda f, o: (app(f, _x, app(f, _y, _z)), app(f, app(f, _x, _y), _z)),
    ),
    "comm": (_PLAIN, None, lambda f, o: (app(f, _x, _y), app(f, _y, _x))),
    "idem": (
        _EITHER, None, lambda f, o: (app(f, _x, _x, param=_l if f.param else None), _x)
    ),
    "unit-left": (_PLAIN, 0, lambda f, o: (app(f, app(o), _x), _x)),
    "unit-right": (_PLAIN, 0, lambda f, o: (app(f, _x, app(o)), _x)),
    "absorb-left": (_PLAIN, 0, lambda f, o: distributivity(f, o, 0)),
    "absorb-right": (_PLAIN, 0, lambda f, o: distributivity(f, o, 1)),
    "distrib-left": (_PLAIN, 2, lambda f, o: distributivity(f, o, 1)),
    "distrib-right": (_PLAIN, 2, lambda f, o: distributivity(f, o, 0)),
    "skew-comm": (
        _PARAM,
        None,
        lambda f, o: (app(f, _x, _y, param=_l), app(f, _y, _x, param=_inv)),
    ),
    "skew-assoc": (
        _PARAM,
        None,
        lambda f, o: (
            app(f, _x, app(f, _y, _z, param=_t), param=_l),
            app(f, app(f, _x, _y, param=App(ARITH["/"], (_l, _outer))), _z, param=_outer),
        ),
    ),
}


def _law_name(law: str, f: OpSymbol, o: Optional[OpSymbol] = None) -> str:
    return f"{law}({f.name})" if o is None else f"{law}({f.name},{o.name})"


def _instances(f: OpSymbol, ops):
    """(law, o) for each law on the binary f, its o drawn from `ops`."""
    for law, (kinds, arity, _) in _LAWS.items():
        if f.param not in kinds:
            continue
        if arity is None:
            yield law, None
            continue
        for o in ops:
            if o.arity == arity and not o.param and o != f:
                yield law, o


def _law(name: str, f: OpSymbol, other=None, label: str = "") -> Equation:
    lhs, rhs = _LAWS[name][2](f, other)
    return equation(lhs, rhs, name=label or _law_name(name, f, other))


def _shape(lhs: Term, rhs: Term) -> tuple:
    """The equation lhs = rhs up to renaming: its variables numbered by first
    occurrence, its weights left out."""
    numbers: dict = {}

    def walk(t: Term):
        if isinstance(t, Var):
            return numbers.setdefault(t.name, len(numbers))
        if isinstance(t, App):
            return (t.op, *map(walk, t.args))
        return t

    return walk(lhs), walk(rhs)


@functools.cache
def _named_laws(sig: Signature) -> dict:
    """(law, f, o) of each law instance of `sig`, by its shape in either
    orientation; a shape keeps its first instance, trying the operations in
    order."""
    index: dict = {}
    for f in sig.ops:
        if f.arity != 2:
            continue
        for law, o in _instances(f, sig.ops):
            lhs, rhs = _LAWS[law][2](f, o)
            index.setdefault(_shape(lhs, rhs), (law, f, o))
            index.setdefault(_shape(rhs, lhs), (law, f, o))
    return index


def describe_equation(e: Equation, sig: Signature) -> str:
    """Best-effort pattern name for reports; falls back to rendered terms."""
    law = _named_laws(sig).get(_shape(e.lhs, e.rhs))
    return _law_name(*law) if law else e.describe()


# ---------------------------------------------------------------------------
# canonical kinds and their theories

SEQ = OpSymbol(";", 2)
SKIP = OpSymbol("skip", 0)
PLUS = OpSymbol("+", 2)
ABORT = OpSymbol("abort", 0)
OPLUS = OpSymbol("⊕", 2, param=True)

# each role's default operation, whose arity every operation in the role has
_ROLE_OPS = {"seq": SEQ, "skip": SKIP, "plus": PLUS, "abort": ABORT}

# The laws of each canonical kind but CONVEX, written once as (law, role of
# f, role of o) and in the builders' equation order.  The builders and
# recognition both read this table.
_MONOID = (
    ("unit-right", "seq", "skip"),
    ("unit-left", "seq", "skip"),
    ("assoc", "seq", None),
)
_UNITS = (("unit-left", "plus", "abort"), ("unit-right", "plus", "abort"))
_COMM = (("comm", "plus", None), ("assoc", "plus", None))
_SEMILATTICE = _UNITS + (("idem", "plus", None),) + _COMM
_DISTRIB = (("distrib-left", "seq", "plus"), ("distrib-right", "seq", "plus"))
_ABSORB = (("absorb-right", "seq", "abort"), ("absorb-left", "seq", "abort"))
_KIND_LAWS = {
    "MONOID": ("monoid", _MONOID),
    "SEMILATTICE": ("semilattice", _SEMILATTICE),
    "COMM_MONOID": ("commutative monoid", _UNITS + _COMM),
    "IDEM_SEMIRING": (
        "idempotent semiring", _MONOID + _SEMILATTICE + _DISTRIB + _ABSORB
    ),
    "SEMIRING": ("semiring", _MONOID + _UNITS + _COMM + _DISTRIB + _ABSORB),
    "TWO_MONOIDS_ABSORB": (
        "two monoids with absorption", _MONOID + _UNITS + _COMM + _ABSORB
    ),
}
# each kind's roles, in order of first appearance: its signature's order
_KIND_ROLES = {
    kind: tuple(dict.fromkeys(r for _, *roles in laws for r in roles if r))
    for kind, (_, laws) in _KIND_LAWS.items()
}


def _kind_theory(kind: str, **roles: OpSymbol) -> Theory:
    """The theory of `kind` with the given operations in its roles.  A unit
    law is labelled by its binary operation alone."""
    name, laws = _KIND_LAWS[kind]
    eqs = []
    for law, f, o in laws:
        label = f"{law}({roles[f].name})" if law.startswith("unit") else ""
        eqs.append(_law(law, roles[f], roles.get(o), label))
    sig = Signature(tuple(roles[r] for r in _KIND_ROLES[kind]))
    return Theory(sig, tuple(eqs), name=name)


def monoid_theory(seq: OpSymbol = SEQ, unit: OpSymbol = SKIP) -> Theory:
    return _kind_theory("MONOID", seq=seq, skip=unit)


def semilattice_theory(plus: OpSymbol = PLUS, unit: OpSymbol = ABORT) -> Theory:
    return _kind_theory("SEMILATTICE", plus=plus, abort=unit)


def comm_monoid_theory(plus: OpSymbol = PLUS, unit: OpSymbol = ABORT) -> Theory:
    return _kind_theory("COMM_MONOID", plus=plus, abort=unit)


def convex_theory(oplus: OpSymbol = OPLUS) -> Theory:
    return Theory(
        Signature((oplus,)),
        tuple(_law(law, oplus) for law in ("idem", "skew-comm", "skew-assoc")),
        name="convex algebra",
    )


def idem_semiring_theory() -> Theory:
    return _kind_theory("IDEM_SEMIRING", **_ROLE_OPS)


def semiring_theory() -> Theory:
    return _kind_theory("SEMIRING", **_ROLE_OPS)


def two_monoids_absorption_theory() -> Theory:
    return _kind_theory("TWO_MONOIDS_ABSORB", **_ROLE_OPS)


# ---------------------------------------------------------------------------
# recognition

@dataclass(frozen=True)
class Roles:
    seq: Optional[OpSymbol] = None
    skip: Optional[OpSymbol] = None
    plus: Optional[OpSymbol] = None
    abort: Optional[OpSymbol] = None
    oplus: Optional[OpSymbol] = None


def recognize_theory(theory: Theory):
    """Map a theory onto a canonical normal-form kind plus operation roles.

    Returns (kind_name, Roles); kind_name "GENERIC" when no canonical normal
    form is known for the equation set.  A theory of plain operations is a
    kind of `_KIND_LAWS` exactly when its operations, one to each role and
    of the role's arity, make its named laws the kind's laws.
    """
    sig = theory.signature
    param_ops = [o for o in sig.ops if o.param]
    binaries = [o for o in sig.ops if o.arity == 2 and not o.param]

    if param_ops:
        if len(param_ops) == 1 and not binaries and param_ops[0].arity == 2:
            return "CONVEX", Roles(oplus=param_ops[0])
        return "GENERIC", Roles()

    named = _named_laws(sig)
    laws = {named.get(_shape(e.lhs, e.rhs)) for e in theory.equations}
    for kind, (_, kind_laws) in _KIND_LAWS.items():
        if len(_KIND_ROLES[kind]) != len(sig.ops):
            continue
        for ops in itertools.permutations(sig.ops):
            roles = dict(zip(_KIND_ROLES[kind], ops))
            if any(o.arity != _ROLE_OPS[r].arity for r, o in roles.items()):
                continue
            if laws == {(law, roles[f], roles.get(o)) for law, f, o in kind_laws}:
                return kind, Roles(**roles)
    return "GENERIC", Roles()
