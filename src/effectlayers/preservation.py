"""Deciding whether a monoidal monad's lifting preserves an equation.

The decision cascade: syntactic-identity fast path, then the syntactic
theorems keyed on the monad's relevance/affineness profile, then residual
diagrams on bounded fragments, and finally brute-force falsification over
all small algebras of the inner theory.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Optional

from .monads import Bound, BoundExplosionError, MonadInstance, fubini_tuples, lift_interp
from .normal_forms import quotient_monad
from .terms import (
    App,
    Equation,
    FiniteAlgebra,
    Signature,
    SyntacticClass,
    Theory,
    classify,
    find_violation,
    prepare_indices,
)
from .theories import recognize_theory
from .values import canon_key


HOLDS_ON_FRAGMENT = "HOLDS_ON_FRAGMENT"
FAILS = "FAILS"


@dataclass(frozen=True)
class ProbeResult:
    status: str
    counterexample: Optional[dict] = None
    fragment: str = ""

    @property
    def holds(self) -> bool:
        return self.status == HOLDS_ON_FRAGMENT


@dataclass(frozen=True)
class MonadProfile:
    symmetric: ProbeResult
    relevant: ProbeResult
    affine: ProbeResult


class NonSymmetricMonadError(Exception):
    """Lifting through a non-symmetric monad is unjustified."""


# ---------------------------------------------------------------------------
# probes

def probe_symmetric(T: MonadInstance, X, b: Bound) -> ProbeResult:
    """T(swap) o psi = psi o swap on all enumerated pairs."""
    T.require_outer()
    frag = f"{T.name} on {sorted(map(str, X))}"
    values = T.enumerate(tuple(X), b)
    for u in values:
        for v in values:
            lhs = T.map(lambda p: (p[1], p[0]), T.fubini(u, v))
            rhs = T.fubini(v, u)
            if lhs != rhs:
                return ProbeResult(
                    FAILS,
                    {"u": u, "v": v, "T(swap).psi": lhs, "psi.swap": rhs},
                    frag,
                )
    return ProbeResult(HOLDS_ON_FRAGMENT, None, frag)


def relevance_sides(T: MonadInstance, v):
    """Both legs of the relevance square at a single TX value (replayable)."""
    return T.fubini(v, v), T.map(lambda x: (x, x), v)


def probe_relevant(T: MonadInstance, X, b: Bound) -> ProbeResult:
    """psi o diagonal = T(diagonal); failure witnesses variable duplication.

    All failures are collected and the canonically smallest witness is
    reported, so replays are stable across runs.
    """
    T.require_outer()
    frag = f"{T.name} on {sorted(map(str, X))}"
    failures = []
    for v in T.enumerate(tuple(X), b):
        lhs, rhs = relevance_sides(T, v)
        if lhs != rhs:
            failures.append(v)
    if failures:
        v = min(failures, key=canon_key)
        lhs, rhs = relevance_sides(T, v)
        return ProbeResult(
            FAILS, {"value": v, "psi.diag": lhs, "T(diag)": rhs}, frag
        )
    return ProbeResult(HOLDS_ON_FRAGMENT, None, frag)


def affine_sides(T: MonadInstance, v):
    """Both legs of the absorption square at a single TX value."""
    return T.map(lambda _: (), v), T.unit(())


def probe_affine(T: MonadInstance, X, b: Bound) -> ProbeResult:
    """T(!) = eta_1 o !; failure witnesses variable dropping."""
    frag = f"{T.name} on {sorted(map(str, X))}"
    for v in T.enumerate(tuple(X), b):
        lhs, rhs = affine_sides(T, v)
        if lhs != rhs:
            return ProbeResult(
                FAILS, {"value": v, "T(!)": lhs, "eta_1": rhs}, frag
            )
    return ProbeResult(HOLDS_ON_FRAGMENT, None, frag)


def profile_monad(T: MonadInstance, X, b: Bound) -> MonadProfile:
    return MonadProfile(
        symmetric=probe_symmetric(T, X, b),
        relevant=probe_relevant(T, X, b),
        affine=probe_affine(T, X, b),
    )


# ---------------------------------------------------------------------------
# residual diagrams

def residual_commutes(T: MonadInstance, t, V, X, b: Bound) -> ProbeResult:
    """The square comparing 'rearrange then psi' with 'psi then rearrange'."""
    T.require_outer()
    idx = prepare_indices(t, V)
    k, n = len(idx), len(V)
    frag = f"res({T.name}, {len(V)} vars) on {sorted(map(str, X))}"
    values = T.enumerate(tuple(X), b)
    for tup in itertools.product(values, repeat=n):
        left = fubini_tuples(T, k, [tup[i] for i in idx])
        psi_all = fubini_tuples(T, n, list(tup))
        right = T.map(lambda xs: tuple(xs[i] for i in idx), psi_all)
        if left != right:
            return ProbeResult(
                FAILS,
                {"inputs": tup, "psi_then_prepare": right, "prepare_then_psi": left},
                frag,
            )
    return ProbeResult(HOLDS_ON_FRAGMENT, None, frag)


# ---------------------------------------------------------------------------
# lifted algebras

def lifted_algebra(T: MonadInstance, A: FiniteAlgebra, b: Bound) -> FiniteAlgebra:
    carrier = tuple(T.enumerate(A.carrier, b))
    return FiniteAlgebra(carrier, lift_interp(T, A), name=f"{T.name}-hat({A.name})")


# ---------------------------------------------------------------------------
# algebra enumeration for brute force

def enumerate_algebras(theory: Theory, carrier_size: int):
    """All (signature, equations)-respecting algebras on a canonical carrier.

    A backtracking search: operations get their tables in signature order,
    each operation's tables in `itertools.product` order, so the algebras
    come in the order of the product of all tables.  An equation is checked
    as soon as the last of its operations has a table (one with no
    operation at the root), and a partial assignment that fails it is
    dropped with all its extensions.

    Only for parameter-free theories; parameterized signatures have no finite
    table enumeration and are skipped by the caller.
    """
    ops = theory.signature.ops
    if any(o.param for o in ops):
        return
    carrier = tuple(range(carrier_size))
    position = {o.name: i for i, o in enumerate(ops)}
    due = [[] for _ in range(len(ops) + 1)]  # equations to check at each depth
    for e in theory.equations:
        used = [position[o.name] for o in _signature_of(e).ops]
        due[max(used, default=-1) + 1].append(e)
    tables = []
    for o in ops:
        inputs = list(itertools.product(carrier, repeat=o.arity))
        tables.append(
            [dict(zip(inputs, outs))
             for outs in itertools.product(carrier, repeat=len(inputs))]
        )

    def search(interp: dict, depth: int):
        A = FiniteAlgebra(carrier, interp, name=f"carrier{carrier_size}")
        if any(find_violation(A, e, ()) is not None for e in due[depth]):
            return
        if depth == len(ops):
            yield A
            return
        for t in tables[depth]:
            fn = (lambda table: (lambda args, param=None: table[args]))(t)
            yield from search(interp | {ops[depth].name: fn}, depth + 1)

    yield from search({}, 0)


# ---------------------------------------------------------------------------
# the verdict cascade

PRESERVED_SYNTACTIC = "PRESERVED_SYNTACTIC"
PRESERVED_RESIDUAL = "PRESERVED_RESIDUAL"
FALSIFIED = "FALSIFIED"
UNKNOWN = "UNKNOWN"

THM_LINEAR = "linear-equations"
THM_RELEVANT = "balanced-with-relevance"
THM_AFFINE = "affine-with-dropping"
THM_CARTESIAN = "relevant-and-affine"
THM_IDENTITY = "syntactic-identity"


@dataclass(frozen=True)
class Verdict:
    equation: Equation
    status: str
    theorem: str = ""
    counterexample: Optional[dict] = None
    evidence: tuple = ()
    fragment: str = ""

    @property
    def preserved(self) -> bool:
        return self.status in (PRESERVED_SYNTACTIC, PRESERVED_RESIDUAL)


# brute force enumerates the inner theory's algebras up to this carrier size
_MAX_BRUTE_CARRIER = 2


def check_preservation(
    T: MonadInstance,
    e: Equation,
    profile: MonadProfile,
    X,
    b: Bound,
    theory: Optional[Theory] = None,
) -> Verdict:
    """Decision cascade for 'does the lifting through T preserve e?'.

    The residual checks and brute force run on the fragment of carrier `X`
    within `b`.  `theory` is the inner theory whose algebras brute force
    ranges over; it defaults to the equation alone.
    """
    if not profile.symmetric.holds:
        raise NonSymmetricMonadError(
            f"monad {T.name!r} failed the symmetry probe; lifting is unjustified"
        )
    if e.lhs == e.rhs:
        return Verdict(e, PRESERVED_SYNTACTIC, THM_IDENTITY)

    cls = classify(e)
    if cls is SyntacticClass.LINEAR:
        return Verdict(e, PRESERVED_SYNTACTIC, THM_LINEAR)
    if cls is SyntacticClass.BALANCED and profile.relevant.holds:
        return Verdict(e, PRESERVED_SYNTACTIC, THM_RELEVANT)
    if cls is SyntacticClass.AFFINE_SAFE and profile.affine.holds:
        return Verdict(e, PRESERVED_SYNTACTIC, THM_AFFINE)
    if profile.relevant.holds and profile.affine.holds:
        return Verdict(e, PRESERVED_SYNTACTIC, THM_CARTESIAN)

    # a side whose variables each occur once, in context order, rearranges
    # by the identity, and its square commutes because T(id) = id
    identity = tuple(range(len(e.context)))
    sides = [
        side for side in (e.lhs, e.rhs)
        if prepare_indices(side, e.context) != identity
    ]
    if all(residual_commutes(T, side, e.context, X, b).holds for side in sides):
        return Verdict(
            e, PRESERVED_RESIDUAL, fragment=f"residual diagrams on |X|={len(X)}"
        )

    # brute force, cheap route first: abstract (Sigma, E)-algebras on tiny
    # carriers, then the theory's free algebra on the fragment carrier
    # (some failures, e.g. powerset-over-semilattice, only show up there).
    inner = theory or Theory(_signature_of(e), (e,))
    if not any(o.param for o in inner.signature.ops):
        for size in range(1, _MAX_BRUTE_CARRIER + 1):
            for A in enumerate_algebras(inner, size):
                LA = lifted_algebra(T, A, b)
                w = find_violation(LA, e, b.prob_grid)
                if w is not None:
                    return Verdict(
                        e,
                        FALSIFIED,
                        counterexample=_counterexample(
                            _algebra_table(A, inner.signature), w
                        ),
                        evidence=(profile.relevant, profile.affine),
                        fragment=f"lifted algebra on carrier size {size}",
                    )
    w, desc = _free_algebra_violation(T, inner, e, X, b)
    if w is not None:
        return Verdict(
            e,
            FALSIFIED,
            counterexample=w,
            evidence=(profile.relevant, profile.affine),
            fragment=desc,
        )
    searched = f"algebras up to carrier {_MAX_BRUTE_CARRIER}, bounded fragments"
    return Verdict(e, UNKNOWN, fragment=searched)


_FREE_CARRIER_CAP = 16


def _free_algebra_violation(T: MonadInstance, inner: Theory, e: Equation, X, b: Bound):
    """Search the lifted free algebra of the inner theory over atoms X."""
    kind, _ = recognize_theory(inner)
    if kind == "GENERIC":
        return None, ""
    S = quotient_monad(inner, kind)
    try:
        carrier = tuple(S.monad.enumerate(tuple(X), b))
    except BoundExplosionError:
        return None, ""
    if len(carrier) > _FREE_CARRIER_CAP:
        return None, ""
    A = S.algebra(carrier, name=f"free-{kind.lower()}({len(X)} atoms)")
    try:
        LA = lifted_algebra(T, A, b)
    except BoundExplosionError:
        return None, ""
    w = find_violation(LA, e, b.prob_grid)
    if w is None:
        return None, ""
    base = f"free {kind.lower()} algebra on atoms {sorted(map(str, X))}"
    desc = f"lifted free {kind.lower()} algebra on {len(X)} atoms"
    return _counterexample(base, w), desc


def _counterexample(base_algebra, w: dict) -> dict:
    """A `find_violation` witness over `base_algebra`; its parameters when
    the equation has any."""
    out = {"base_algebra": base_algebra, "valuation": w["valuation"]}
    if w["params"]:
        out["params"] = w["params"]
    return out | {"lhs": w["lhs"], "rhs": w["rhs"]}


def _signature_of(e: Equation):
    ops = {}

    def walk(t):
        if isinstance(t, App):
            ops[t.op.name] = t.op
            for a in t.args:
                walk(a)

    walk(e.lhs)
    walk(e.rhs)
    return Signature(tuple(ops.values()))


def _algebra_table(A: FiniteAlgebra, signature):
    out = {}
    for op in signature.ops:
        fn = A.op(op.name)
        out[op.name] = {
            args: fn(args, None)
            for args in itertools.product(A.carrier, repeat=op.arity)
        }
    return out
