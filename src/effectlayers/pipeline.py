"""End-to-end layer composition: check, weaken, quotient, compose, emit.

A stack is an inner seed theory plus outer effect layers.  For each outer
layer the pipeline checks which current equations survive lifting, drops
the rest (with evidence), rebuilds the normal-form monad for the weakened
theory, constructs and verifies the distributive law and composite monad,
and extends the theory with the outer layer's axioms plus the generated
distributivity axioms of the combined language.
"""

from __future__ import annotations

import functools
import string
from dataclasses import dataclass, replace
from typing import Callable, Mapping, NamedTuple, Optional, Sequence

from .distlaw import (
    QuotientLaw,
    _enum,
    build_quotient_law,
    compose,
    unpreserved_refusal,
    verify_distlaw,
    verify_monad,
)
from .monads import Bound, MonadInstance, lift_interp
from .normal_forms import QuotientMonad, quotient_monad
from .preservation import MonadProfile, check_preservation, profile_monad, shared_search
from .terms import (
    Const,
    Equation,
    FiniteAlgebra,
    Signature,
    Term,
    TermError,
    Theory,
    equation,
    find_violation,
    interpret,
    run_check,
    tabled,
)
from .theories import (
    INNER_SEED,
    OUTER,
    LayerSpec,
    convex_theory,
    distributivity,
    monoid_theory,
    semilattice_theory,
)

VERIFIED = "VERIFIED"
UNVERIFIED = "UNVERIFIED"


@dataclass(frozen=True)
class WeakenedTheory:
    kept: tuple          # equations that survived the lifting
    dropped: tuple       # (Equation, Verdict) pairs
    generated: tuple     # distributivity axioms of the combined language


@dataclass(frozen=True)
class StageResult:
    index: int
    outer_name: str
    profile: MonadProfile
    verdicts: tuple
    weakened: WeakenedTheory
    combined: Theory
    status: str                      # VERIFIED | UNVERIFIED
    law: Optional[QuotientLaw]
    composite: Optional[MonadInstance]
    inner_monad: QuotientMonad
    outer_monad: QuotientMonad
    law_reports: tuple = ()
    monad_reports: tuple = ()
    axiom_reports: tuple = ()
    unweakened_refusal: str = ""     # why the lifting gives the full theory no law

    @property
    def dropped_any(self) -> bool:
        return bool(self.weakened.dropped)


class StageAlgebra(NamedTuple):
    """What `eval_term` evaluates a stage's programs with, built once per
    report: the unit of the stage's monad, its operations by name, and the
    monad whose operation tables they fill."""

    unit: Callable
    interp: Mapping
    tables: QuotientMonad


@dataclass(frozen=True)
class CompositionReport:
    layers: tuple
    stages: tuple
    final_theory: Theory
    seed_monad: QuotientMonad  # the seed's own normal forms (stage 0)
    algebras: tuple  # one StageAlgebra per stage, the seed's first

    @property
    def dropped_any(self) -> bool:
        return any(s.dropped_any for s in self.stages)

    @property
    def all_verified(self) -> bool:
        return all(s.status == VERIFIED for s in self.stages)

    @property
    def exit_code(self) -> int:
        if not self.all_verified:
            return 2
        return 1 if self.dropped_any else 0


# ---------------------------------------------------------------------------
# generated axioms

def generate_distributivity(inner_sig: Signature, outer_sig: Signature):
    """Distributivity of every inner operation over every outer operation.

    For inner f (arity m >= 1), outer g and argument position j,
    `theories.distributivity(f, g, j)`: g distributes out of f's argument
    j, and an outer constant is absorbing.
    """
    eqs = []
    for f in inner_sig.ops:
        if f.arity == 0:
            continue
        for g in outer_sig.ops:
            if g.arity == 0:
                law, sides = "absorb", ("left", "right")
            else:
                law, sides = "distrib", ("right", "left")
            for j in range(f.arity):
                side = sides[j] if f.arity == 2 else str(j)
                name = f"{law}-{side}({f.name},{g.name})"
                eqs.append(equation(*distributivity(f, g, j), name=name))
    return eqs


# ---------------------------------------------------------------------------
# canonical algebra on a composite carrier

def composite_algebra(S: QuotientMonad, outer_q: QuotientMonad) -> FiniteAlgebra:
    """Interpret inner ops by lifting through T = `outer_q.monad` and outer
    ops by T's own canonical algebra, on no carrier: program evaluation
    needs none, and the axiom check gives it a (possibly sampled) carrier
    of T(SX).

    The lifted ops read S's operation table; T's ops are computed afresh.
    """
    outer = {
        o.name: functools.partial(outer_q.compute_op, o.name)
        for o in outer_q.theory.signature.ops
    }
    interp = lift_interp(outer_q.monad, S.algebra()) | outer
    return FiniteAlgebra((), interp)


def verify_generated_axioms(
    algebra: FiniteAlgebra, eqs: Sequence[Equation], param_grid: Sequence
):
    """`find_violation` for each combined-language axiom on the composite algebra.

    Each operation of `algebra` is tabled for the length of this call: the
    axioms interpret the same few applications many times over, and
    `interpret` passes `(args, param)` positionally, so `tabled` computes
    each application once (a staged application with a rational parameter
    reads that parameter's table).  The carrier and every result are kept
    as one object per distinct value, so a table hit and the check's
    `lv != rv` compare by identity, not by content.
    """
    canon: dict = {}
    carrier = tuple([canon.setdefault(v, v) for v in algebra.carrier])
    interp = {name: tabled(op, canon) for name, op in algebra.interp.items()}
    algebra = replace(algebra, carrier=carrier, interp=interp)
    def violation(e):
        return find_violation(algebra, e, param_grid)

    frag = f"carrier of {len(algebra.carrier)} composite values"
    return [run_check(f"axiom:{e.describe()}", [(e,)], violation, frag) for e in eqs]


# ---------------------------------------------------------------------------
# the stack

def compose_stack(
    layers: Sequence[LayerSpec],
    atoms=("a", "b"),
    bound: Optional[Bound] = None,
    law_cap: int = 60,
    algebra_cap: int = 12,
    build_laws: bool = True,
) -> CompositionReport:
    layers = tuple(layers)
    if not layers or layers[0].role != INNER_SEED:
        raise TermError("the first layer must be the inner seed")
    if len(layers) < 2 or any(l.role != OUTER for l in layers[1:]):
        raise TermError("at least one outer layer is required after the seed")
    b = bound or Bound()
    X = tuple(dict.fromkeys(atoms))
    if len(X) < 2:
        # the probes, preservation and law checks run on two distinct atoms at
        # least: on one, every distribution is a point mass, and no probe can
        # refute relevance
        X += tuple(c for c in string.ascii_lowercase if c not in X)[: 2 - len(X)]

    current = layers[0].theory
    seed_monad = quotient_monad(current, layers[0].normalizer, bound=b)  # must normalize
    algebras = [
        StageAlgebra(seed_monad.monad.unit, seed_monad.algebra().interp, seed_monad)
    ]
    stages = []
    for index, layer in enumerate(layers[1:], start=1):
        clash = [
            o.name for o in layer.theory.signature.ops if o.name in current.signature
        ]
        if clash:
            raise TermError(
                f"layer {layer.name!r} redeclares operations {clash}; "
                "each layer must bring distinct operation names"
            )
        outer_q = quotient_monad(layer.theory, layer.normalizer, bound=b)
        T = outer_q.monad
        T.require_outer()
        # the probes and the lifted algebras of brute force share one
        # enumeration of each carrier of T
        T_frag = replace(T, enumerate=functools.cache(T.enumerate))
        profile = profile_monad(T_frag, X, b)
        # and the equations that reach brute force share its model search
        search = shared_search()
        verdicts = tuple(
            check_preservation(T_frag, e, profile, X, b, theory=current, search=search)
            for e in current.equations
        )
        kept, dropped = [], []
        for v in verdicts:
            if v.preserved:
                kept.append(v.equation)
            else:
                dropped.append((v.equation, v))

        # the lifting T(op)∘ψ gives the unweakened theory no law: its verdicts
        # refuse one.  That no law exists at all is a no-go theorem for
        # probability over nondeterminism (Varacca & Winskel, MSCS 2006;
        # Zwart & Marsden, LICS 2019), not a result of these checks
        refusal = str(unpreserved_refusal(verdicts)) if dropped else ""

        weak_name = current.name + ("" if not dropped else " (weakened)")
        weak_inner = Theory(current.signature, tuple(kept), name=weak_name)
        generated = tuple(
            generate_distributivity(current.signature, layer.theory.signature)
        )
        combined = Theory(
            current.signature.merge(layer.theory.signature),
            tuple(kept) + layer.theory.equations + generated,
            name=f"{weak_name} + {layer.name}",
        )

        law = composite = None
        law_reports = monad_reports = axiom_reports = ()
        S = quotient_monad(weak_inner, bound=b)
        algebra = composite_algebra(S, outer_q)
        algebras.append(StageAlgebra(_composite_unit(T, S.monad), algebra.interp, S))
        if build_laws:
            law, wd = build_quotient_law(S, T, X, b)
            composite = compose(T, S, law).monad
            law_reports = (wd,) + tuple(verify_distlaw(law, X, b, law_cap))
            monad_reports = tuple(verify_monad(composite, X, b))
            # the carrier and the axioms never apply lambda; S's tables go
            # too, so no two checks' tables are held at once
            law.fold.cache_clear()
            S.clear_memos()
            carrier = _enum(composite.enumerate, X, b, cap=algebra_cap)
            axiom_reports = tuple(
                verify_generated_axioms(
                    replace(algebra, carrier=carrier),
                    generated + layer.theory.equations,
                    b.prob_grid,
                )
            )
            S.clear_memos()  # the report's monads start with empty tables
        reports = law_reports + monad_reports + axiom_reports

        stages.append(
            StageResult(
                index=index,
                outer_name=layer.name,
                profile=profile,
                verdicts=verdicts,
                weakened=WeakenedTheory(tuple(kept), tuple(dropped), generated),
                combined=combined,
                status=VERIFIED if all(r.ok for r in reports) else UNVERIFIED,
                law=law,
                composite=composite,
                inner_monad=S,
                outer_monad=outer_q,
                law_reports=law_reports,
                monad_reports=monad_reports,
                axiom_reports=axiom_reports,
                unweakened_refusal=refusal,
            )
        )
        current = combined
    return CompositionReport(layers, tuple(stages), current, seed_monad, tuple(algebras))


def _composite_unit(T: MonadInstance, S: MonadInstance) -> Callable:
    """The unit of T∘S, bound to this stage's T and S."""
    return lambda x: T.unit(S.unit(x))


# ---------------------------------------------------------------------------
# program evaluation in a composed stack

def eval_term(report: CompositionReport, t: Term, stage: int, atoms) -> object:
    """Denotation of a closed program in the monad of the given stage.

    Stage 0 is the seed's own normal forms; stage k >= 1 evaluates in the
    k-th composite via lifted inner operations and the outer layer's
    canonical algebra. Both are the report's stage algebras, built with the
    report; the inner operation table this fills is emptied on return, so
    the report holds no table between calls.
    """
    if stage < 0 or stage > len(report.stages):
        raise TermError(f"stage {stage} out of range (stack has {len(report.stages)} outer layers)")
    unit, interp, tables = report.algebras[stage]
    atom_set = set(atoms)

    def ops(name: str):
        try:
            return interp[name]
        except KeyError:
            raise TermError(f"operation {name!r} is not available at stage {stage}")

    def leaf(u: Term):
        if isinstance(u, Const):
            if u.value not in atom_set:
                raise TermError(f"unbound atom {u.value!r}")
            return unit(u.value)
        raise TermError("programs must be closed terms")

    try:
        return interpret(t, ops, leaf)
    finally:
        tables.clear_memos()


# ---------------------------------------------------------------------------
# canonical layer stacks

def monoid_layer(name: str = "sequencing") -> LayerSpec:
    return LayerSpec(name, monoid_theory(), "MONOID", INNER_SEED)


def nondet_layer(name: str = "nondeterminism") -> LayerSpec:
    return LayerSpec(name, semilattice_theory(), "SEMILATTICE", OUTER)


def prob_layer(name: str = "probability") -> LayerSpec:
    return LayerSpec(name, convex_theory(), "CONVEX", OUTER)


def probnetkat_stack() -> tuple:
    """The flagship three-layer stack: traces, nondeterminism, probability."""
    return (monoid_layer(), nondet_layer(), prob_layer())
