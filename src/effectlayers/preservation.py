"""Deciding whether a monoidal monad's lifting preserves an equation.

The decision cascade: syntactic-identity fast path, then the syntactic
theorems keyed on the monad's relevance/affineness profile, and finally
brute-force falsification over all small algebras of the inner theory.

No residual square is checked: for a symmetric T, the square of a side
rearranging its variables by `idx` commutes iff (`idx` is injective or T is
relevant) and (`idx` is onto or T is affine) (contraction and weakening:
Jacobs, APAL 1994).  If every side's square commutes, a theorem has already
applied: the equation is linear, balanced with T relevant, affine-safe with
T affine, or T is both.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Optional

from .monads import (
    Bound,
    BoundExplosionError,
    InnerOnlyMonadError,
    MonadInstance,
    lift_interp,
    symmetry_witness,
)
from .normal_forms import quotient_monad
from .terms import (
    App,
    Equation,
    FiniteAlgebra,
    LawReport,
    Signature,
    SyntacticClass,
    Theory,
    classify,
    find_violation,
    run_check,
    subterms,
)
from .values import canon_key


@dataclass(frozen=True)
class MonadProfile:
    symmetric: LawReport
    relevant: LawReport
    affine: LawReport


class NonSymmetricMonadError(InnerOnlyMonadError):
    """Lifting through a non-symmetric monad is unjustified: such a monad can
    only be an inner layer."""


# ---------------------------------------------------------------------------
# the profile

def relevance_sides(T: MonadInstance, v):
    """Both legs of the relevance square at a single TX value (replayable)."""
    return T.fubini(v, v), T.map(lambda x: (x, x), v)


def profile_monad(T: MonadInstance, X, b: Bound) -> MonadProfile:
    """T's symmetry, relevance and affineness on one enumeration of the
    fragment of carrier `X` within `b`.  A T that is not symmetric is refused.

    symmetric: T(swap) o psi = psi o swap on all pairs.  relevant: psi o
    diagonal = T(diagonal); failure witnesses variable duplication.  affine:
    T(!) = eta_1 o !; failure witnesses variable dropping.  Relevance visits
    the values in canonical order, so its witness is the canonically
    smallest and replays are stable across runs.
    """
    T.require_outer()
    values = T.enumerate(tuple(X), b)
    frag = f"{T.name} on {sorted(map(str, X))}"
    symmetric = run_check(
        "symmetric", itertools.product(values, repeat=2), symmetry_witness(T), frag
    )
    if not symmetric.ok:
        raise NonSymmetricMonadError(
            f"monad {T.name!r} failed the symmetry probe; lifting is unjustified"
        )

    def relevance(v):
        lhs, rhs = relevance_sides(T, v)
        return {"value": v, "psi.diag": lhs, "T(diag)": rhs} if lhs != rhs else None

    def affineness(v):
        lhs, rhs = T.map(lambda _: (), v), T.unit(())
        return {"value": v, "T(!)": lhs, "eta_1": rhs} if lhs != rhs else None

    ordered = sorted(values, key=canon_key)
    return MonadProfile(
        symmetric=symmetric,
        relevant=run_check("relevant", itertools.product(ordered), relevance, frag),
        affine=run_check("affine", itertools.product(values), affineness, frag),
    )


# ---------------------------------------------------------------------------
# lifted algebras

def lifted_algebra(T: MonadInstance, A: FiniteAlgebra, b: Bound) -> FiniteAlgebra:
    carrier = tuple(T.enumerate(A.carrier, b))
    return FiniteAlgebra(carrier, lift_interp(T, A))


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

    # one algebra for the whole search, each operation reading the table
    # it has now, so each equation is staged once; a model is yielded as a
    # snapshot of its tables
    chosen = [None] * len(ops)
    A = FiniteAlgebra(carrier, {o.name: _reader(chosen, i) for i, o in enumerate(ops)})

    def search(depth: int):
        if any(find_violation(A, e, ()) is not None for e in due[depth]):
            return
        if depth == len(ops):
            interp = {o.name: _reader(chosen[:], i) for i, o in enumerate(ops)}
            yield FiniteAlgebra(carrier, interp)
            return
        for t in tables[depth]:
            chosen[depth] = t
            yield from search(depth + 1)

    yield from search(0)


def _reader(tables: list, i: int):
    """The operation that looks its arguments up in `tables[i]`."""
    return lambda args, param=None: tables[i][args]


def shared_search():
    """`enumerate_algebras` with its searches shared among its readers: each
    (theory, carrier size) search runs once, only as far as its furthest
    reader has read, and every reader gets its models in their order."""
    runs: dict = {}

    def models(theory: Theory, carrier_size: int):
        key = (theory, carrier_size)
        if key not in runs:
            runs[key] = ([], enumerate_algebras(theory, carrier_size))
        found, search = runs[key]
        for i in itertools.count():
            if i == len(found):
                A = next(search, None)
                if A is None:
                    return
                found.append(A)
            yield found[i]

    return models


# ---------------------------------------------------------------------------
# the verdict cascade

PRESERVED_SYNTACTIC = "PRESERVED_SYNTACTIC"
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
        return self.status == PRESERVED_SYNTACTIC


# brute force enumerates the inner theory's algebras up to this carrier size
_MAX_BRUTE_CARRIER = 2


def check_preservation(
    T: MonadInstance,
    e: Equation,
    profile: MonadProfile,
    X,
    b: Bound,
    theory: Optional[Theory] = None,
    search: Optional[Callable] = None,
) -> Verdict:
    """Decision cascade for 'does the lifting through T preserve e?'.

    `profile` is T's `profile_monad`, which has refused a non-symmetric T.
    Brute force runs on the fragment of carrier `X` within `b`, over the
    algebras of the inner theory `theory`, which defaults to the equation
    alone.  `search(theory, size)` gives those algebras, a fresh
    `enumerate_algebras` by default; checks given one `shared_search()`
    share its searches.
    """
    if e.lhs == e.rhs:
        return Verdict(e, PRESERVED_SYNTACTIC, THM_IDENTITY)

    cls = classify(e)
    if cls is SyntacticClass.LINEAR:
        return Verdict(e, PRESERVED_SYNTACTIC, THM_LINEAR)
    if cls is SyntacticClass.BALANCED and profile.relevant.ok:
        return Verdict(e, PRESERVED_SYNTACTIC, THM_RELEVANT)
    if cls is SyntacticClass.AFFINE_SAFE and profile.affine.ok:
        return Verdict(e, PRESERVED_SYNTACTIC, THM_AFFINE)
    if profile.relevant.ok and profile.affine.ok:
        return Verdict(e, PRESERVED_SYNTACTIC, THM_CARTESIAN)

    # brute force, cheap route first: abstract (Sigma, E)-algebras on tiny
    # carriers, then the theory's free algebra on the fragment carrier
    # (some failures, e.g. powerset-over-semilattice, only show up there).
    inner = theory or Theory(_signature_of(e), (e,))

    def falsified(base, LA, fragment):
        w = find_violation(LA, e, b.prob_grid)
        return None if w is None else (_counterexample(base, w), fragment)

    models = _lifted_models(T, inner, X, b, search or enumerate_algebras)
    found = run_check(e.name, models, falsified, "")
    if found.ok:
        searched = f"algebras up to carrier {_MAX_BRUTE_CARRIER}, bounded fragments"
        return Verdict(e, UNKNOWN, fragment=searched)
    counterexample, fragment = found.counterexample
    return Verdict(
        e,
        FALSIFIED,
        counterexample=counterexample,
        evidence=(profile.relevant, profile.affine),
        fragment=fragment,
    )


_FREE_CARRIER_CAP = 16


def _lifted_models(T: MonadInstance, inner: Theory, X, b: Bound, search: Callable):
    """The lifted algebras brute force searches, each with its base
    algebra's description and its fragment: those of the inner theory's
    algebras up to `_MAX_BRUTE_CARRIER` elements, found by `search` (for a
    parameter-free theory), then that of its free algebra over atoms X.
    A carrier size whose tables of one operation outnumber `b.ceiling` is
    refused before its search."""
    if not any(o.param for o in inner.signature.ops):
        for size in range(1, _MAX_BRUTE_CARRIER + 1):
            for o in inner.signature.ops:  # size ** cells tables, maybe too many to build
                cells = size ** o.arity
                if size > 1 and (cells >= b.ceiling.bit_length() or size**cells > b.ceiling):
                    what = f"the tables of {o.name!r} on {size} elements"
                    raise BoundExplosionError(what, f"{size}^{cells}", b.ceiling)
            for A in search(inner, size):
                yield (
                    _algebra_table(A, inner.signature),
                    lifted_algebra(T, A, b),
                    f"lifted algebra on carrier size {size}",
                )
    S = quotient_monad(inner)
    if S.kind == "GENERIC":
        return
    try:
        carrier = tuple(S.monad.enumerate(tuple(X), b))
        if len(carrier) > _FREE_CARRIER_CAP:
            return
        A = S.algebra(carrier)
        LA = lifted_algebra(T, A, b)
    except BoundExplosionError:
        return
    base = f"free {S.kind.lower()} algebra on atoms {sorted(map(str, X))}"
    yield base, LA, f"lifted free {S.kind.lower()} algebra on {len(X)} atoms"


def _counterexample(base_algebra, w: dict) -> dict:
    """A `find_violation` witness over `base_algebra`; its parameters when
    the equation has any."""
    out = {"base_algebra": base_algebra, "valuation": w["valuation"]}
    if w["params"]:
        out["params"] = w["params"]
    return out | {"lhs": w["lhs"], "rhs": w["rhs"]}


def _signature_of(e: Equation):
    walk = itertools.chain(subterms(e.lhs), subterms(e.rhs))
    ops = {u.op.name: u.op for u, _ in walk if isinstance(u, App)}
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
