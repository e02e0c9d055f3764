"""Standard algebraic theories and structural recognition of equation patterns.

The named laws are written once, in `_LAWS`: those of plain binary operations
and the convex-algebra laws of a parameterized one (⊕).  The theory builders,
the equation names and recognition all read that table.
Recognition drives two things: picking the canonical normal-form realization
for a (possibly weakened) theory, and naming equations in reports
("assoc(;)", "idem(+)", ...).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .terms import (
    App,
    Equation,
    OpSymbol,
    PBin,
    PConst,
    PVar,
    Signature,
    Term,
    Theory,
    Var,
    app,
    equation,
)

# ---------------------------------------------------------------------------
# alpha matching of equations against patterns

def _match(t: Term, pat: Term, varmap: dict) -> bool:
    if isinstance(pat, Var):
        if pat.name in varmap:
            return varmap[pat.name] == t
        if not isinstance(t, Var):
            return False
        if t in varmap.values():
            return False
        varmap[pat.name] = t
        return True
    if isinstance(pat, App):
        # names do not compare weights: a parameter on either side is ignored
        if not isinstance(t, App) or t.op != pat.op:
            return False
        return all(_match(a, p, varmap) for a, p in zip(t.args, pat.args))
    return t == pat


def equation_matches(e: Equation, pat_lhs: Term, pat_rhs: Term) -> bool:
    """Alpha-equivalence of the equation with the pattern, either orientation."""
    for l, r in ((e.lhs, e.rhs), (e.rhs, e.lhs)):
        varmap: dict = {}
        if _match(l, pat_lhs, varmap) and _match(r, pat_rhs, varmap):
            return True
    return False


# ---------------------------------------------------------------------------
# named laws

_x, _y, _z = Var("x"), Var("y"), Var("z")
_l, _t = PVar("l"), PVar("t")
_inv = PBin("-", PConst(Fraction(1)), _l)  # 1 - l
_outer = PBin("+", _l, PBin("*", _inv, _t))  # l + (1 - l) * t
_PLAIN, _PARAM, _EITHER = (False,), (True,), (False, True)

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
    "absorb-left": (_PLAIN, 0, lambda f, o: (app(f, app(o), _x), app(o))),
    "absorb-right": (_PLAIN, 0, lambda f, o: (app(f, _x, app(o)), app(o))),
    "distrib-left": (
        _PLAIN,
        2,
        lambda f, o: (
            app(f, _x, app(o, _y, _z)),
            app(o, app(f, _x, _y), app(f, _x, _z)),
        ),
    ),
    "distrib-right": (
        _PLAIN,
        2,
        lambda f, o: (
            app(f, app(o, _y, _z), _x),
            app(o, app(f, _y, _x), app(f, _z, _x)),
        ),
    ),
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
            app(f, app(f, _x, _y, param=PBin("/", _l, _outer)), _z, param=_outer),
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


def _pattern_name(e: Equation, sig: Signature) -> Optional[str]:
    """The named law `e` is an instance of, trying the operations in order."""
    for f in sig.ops:
        if f.arity != 2:
            continue
        for law, o in _instances(f, sig.ops):
            if equation_matches(e, *_LAWS[law][2](f, o)):
                return _law_name(law, f, o)
    return None


def describe_equation(e: Equation, sig: Signature) -> str:
    """Best-effort pattern name for reports; falls back to rendered terms."""
    return _pattern_name(e, sig) or e.describe()


# ---------------------------------------------------------------------------
# canonical theory builders

SEQ = OpSymbol(";", 2)
SKIP = OpSymbol("skip", 0)
PLUS = OpSymbol("+", 2)
ABORT = OpSymbol("abort", 0)
OPLUS = OpSymbol("⊕", 2, param=True)


def monoid_theory(seq: OpSymbol = SEQ, unit: OpSymbol = SKIP) -> Theory:
    return Theory(
        Signature((seq, unit)),
        (
            _law("unit-right", seq, unit, label=f"unit-right({seq.name})"),
            _law("unit-left", seq, unit, label=f"unit-left({seq.name})"),
            _law("assoc", seq),
        ),
        name="monoid",
    )


def semilattice_theory(plus: OpSymbol = PLUS, unit: OpSymbol = ABORT) -> Theory:
    return Theory(
        Signature((plus, unit)),
        (
            _law("unit-left", plus, unit, label=f"unit-left({plus.name})"),
            _law("unit-right", plus, unit, label=f"unit-right({plus.name})"),
            _law("idem", plus),
            _law("comm", plus),
            _law("assoc", plus),
        ),
        name="semilattice",
    )


def comm_monoid_theory(plus: OpSymbol = PLUS, unit: OpSymbol = ABORT) -> Theory:
    base = semilattice_theory(plus, unit)
    eqs = tuple(e for e in base.equations if not e.name.startswith("idem"))
    return Theory(base.signature, eqs, name="commutative monoid")


def convex_theory(oplus: OpSymbol = OPLUS) -> Theory:
    return Theory(
        Signature((oplus,)),
        tuple(_law(law, oplus) for law in ("idem", "skew-comm", "skew-assoc")),
        name="convex algebra",
    )


def idem_semiring_theory() -> Theory:
    sig = Signature((SEQ, SKIP, PLUS, ABORT))
    eqs = (
        monoid_theory().equations
        + semilattice_theory().equations
        + (
            _law("distrib-left", SEQ, PLUS),
            _law("distrib-right", SEQ, PLUS),
            _law("absorb-right", SEQ, ABORT),
            _law("absorb-left", SEQ, ABORT),
        )
    )
    return Theory(sig, eqs, name="idempotent semiring")


def semiring_theory() -> Theory:
    base = idem_semiring_theory()
    eqs = tuple(e for e in base.equations if e.name != "idem(+)")
    return Theory(base.signature, eqs, name="semiring")


def two_monoids_absorption_theory() -> Theory:
    base = semiring_theory()
    eqs = tuple(e for e in base.equations if not e.name.startswith("distrib"))
    return Theory(base.signature, eqs, name="two monoids with absorption")


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
    form is known for the equation set.
    """
    sig = theory.signature
    param_ops = [o for o in sig.ops if o.param]
    binaries = [o for o in sig.ops if o.arity == 2 and not o.param]
    consts = [o for o in sig.ops if o.arity == 0]

    if param_ops:
        if len(param_ops) == 1 and not binaries and param_ops[0].arity == 2:
            return "CONVEX", Roles(oplus=param_ops[0])
        return "GENERIC", Roles()

    names = [_pattern_name(e, sig) for e in theory.equations]

    def has(law, f, o=None) -> bool:
        return _law_name(law, f, o) in names

    def unit(f):
        both = (c for c in consts if has("unit-left", f, c) and has("unit-right", f, c))
        return next(both, None)

    def accounted(roles: Roles) -> bool:
        """Every equation is a roles' law; nothing distributes over seq."""
        ops = [o for o in (roles.skip, roles.abort, roles.plus) if o is not None]
        laws = set()
        for f in (roles.seq, roles.plus):
            if f is not None:
                laws.update(_law_name(law, f, o) for law, o in _instances(f, ops))
        return all(n in laws for n in names)

    if len(binaries) == 1:
        f = binaries[0]
        c = unit(f)
        if has("assoc", f) and c is not None:
            if has("comm", f):
                roles = Roles(plus=f, abort=c)
                kind = "SEMILATTICE" if has("idem", f) else "COMM_MONOID"
            else:
                roles = Roles(seq=f, skip=c)
                kind = "MONOID"
            if accounted(roles):
                return kind, roles
        return "GENERIC", Roles()

    if len(binaries) == 2:
        for f, g in itertools.permutations(binaries):
            if not (has("assoc", f) and has("assoc", g) and has("comm", g)):
                continue
            c, d = unit(f), unit(g)
            if c is None or d is None:
                continue
            if not (has("absorb-left", f, d) and has("absorb-right", f, d)):
                continue
            roles = Roles(seq=f, skip=c, plus=g, abort=d)
            if not accounted(roles):
                continue
            if has("distrib-left", f, g) and has("distrib-right", f, g):
                return ("IDEM_SEMIRING" if has("idem", g) else "SEMIRING"), roles
            return "TWO_MONOIDS_ABSORB", roles
        return "GENERIC", Roles()

    return "GENERIC", Roles()
