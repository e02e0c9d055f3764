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
from dataclasses import dataclass, replace
from typing import Optional, Sequence

from .distlaw import (
    LawRefusedError,
    LawReport,
    QuotientLaw,
    _enum,
    build_quotient_law,
    compose,
    verify_distlaw,
    verify_monad,
    PASS,
    FAIL,
)
from .monads import Bound, MonadInstance, lift_interp
from .normal_forms import QuotientMonad, quotient_monad
from .preservation import (
    UNKNOWN,
    MonadProfile,
    check_preservation,
    profile_monad,
)
from .terms import (
    App,
    Const,
    Equation,
    FiniteAlgebra,
    Signature,
    Term,
    TermError,
    Theory,
    Var,
    equation,
    find_violation,
    interpret,
)

INNER_SEED = "INNER_SEED"
OUTER = "OUTER"

VERIFIED = "VERIFIED"
UNVERIFIED = "UNVERIFIED"


@dataclass(frozen=True)
class LayerSpec:
    name: str
    theory: Theory
    normalizer: Optional[str] = None  # canonical kind; recognized when omitted
    role: str = OUTER


@dataclass(frozen=True)
class WeakenedTheory:
    kept: tuple          # equations that survived the lifting
    dropped: tuple       # (Equation, Verdict) pairs
    generated: tuple     # distributivity axioms of the combined language
    signature: Signature  # union of inner and outer signatures


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
    inner_monad: Optional[QuotientMonad]
    outer_monad: Optional[QuotientMonad]
    law_reports: tuple = ()
    monad_reports: tuple = ()
    axiom_reports: tuple = ()
    unweakened_refusal: str = ""     # why the original theory admits no law

    @property
    def dropped_any(self) -> bool:
        return bool(self.weakened.dropped)


@dataclass(frozen=True)
class CompositionReport:
    layers: tuple
    stages: tuple
    final_theory: Theory
    seed_monad: QuotientMonad  # the seed's own normal forms (stage 0)

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

    For inner f (arity m >= 1), outer g (arity n >= 1), and argument
    position j: f(..., g(y1..yn), ...) = g(f(...,y1,...), ..., f(...,yn,...)).
    Outer constants are absorbing: f(..., c, ...) = c.
    """
    from .terms import PVar

    eqs = []
    for f in inner_sig.ops:
        if f.arity == 0:
            continue
        fp = PVar("fp") if f.param else None
        for g in outer_sig.ops:
            gp = PVar("gp") if g.param else None
            if g.arity == 0:
                for j in range(f.arity):
                    xs = [Var(f"x{i + 1}") for i in range(f.arity)]
                    largs = list(xs)
                    largs[j] = App(g, ())
                    side = ("left", "right")[j] if f.arity == 2 else str(j)
                    eqs.append(
                        equation(
                            App(f, tuple(largs), fp),
                            App(g, ()),
                            name=f"absorb-{side}({f.name},{g.name})",
                        )
                    )
                continue
            for j in range(f.arity):
                xs = [Var(f"x{i + 1}") for i in range(f.arity)]
                ys = [Var(f"y{i + 1}") for i in range(g.arity)]
                largs = list(xs)
                largs[j] = App(g, tuple(ys), gp)
                rargs = []
                for y in ys:
                    inner_args = list(xs)
                    inner_args[j] = y
                    rargs.append(App(f, tuple(inner_args), fp))
                side = ("right", "left")[j] if f.arity == 2 else str(j)
                eqs.append(
                    equation(
                        App(f, tuple(largs), fp),
                        App(g, tuple(rargs), gp),
                        name=f"distrib-{side}({f.name},{g.name})",
                    )
                )
    return eqs


# ---------------------------------------------------------------------------
# canonical algebra on a composite carrier

def composite_algebra(
    T: MonadInstance,
    S: QuotientMonad,
    outer_q: QuotientMonad,
    carrier: Sequence,
) -> FiniteAlgebra:
    """Interpret inner ops by lifting through T and outer ops by T's own
    canonical algebra, on an explicit (possibly sampled) carrier of T(SX).

    The lifted ops read S's operation table; T's ops are computed afresh.
    """
    outer = {
        o.name: functools.partial(outer_q.compute_op, o.name)
        for o in outer_q.theory.signature.ops
    }
    interp = lift_interp(T, S.algebra()) | outer
    return FiniteAlgebra(tuple(carrier), interp, name="composite")


def verify_generated_axioms(
    algebra: FiniteAlgebra, eqs: Sequence[Equation], param_grid: Sequence
):
    """holds() for each combined-language axiom on the composite algebra.

    Each operation of `algebra` is memoized for the length of this call:
    the axioms interpret the same few applications many times over.
    """
    algebra = replace(
        algebra, interp={name: _memoized(op) for name, op in algebra.interp.items()}
    )
    reports = []
    for e in eqs:
        witness = find_violation(algebra, e, param_grid)
        reports.append(
            LawReport(
                f"axiom:{e.describe()}",
                FAIL if witness else PASS,
                witness,
                f"carrier of {len(algebra.carrier)} composite values",
            )
        )
    return reports


def _memoized(op):
    """`op(args, param)` computed once per distinct (args, param)."""
    memo = {}

    def cached(args, param=None):
        key = (tuple(args), param)
        try:
            return memo[key]
        except KeyError:
            out = memo[key] = op(args, param)
            return out

    return cached


# ---------------------------------------------------------------------------
# the stack

def compose_stack(
    layers: Sequence[LayerSpec],
    atoms=("a", "b"),
    bound: Optional[Bound] = None,
    keep_unknown: bool = False,
    law_cap: int = 120,
    algebra_cap: int = 24,
    build_laws: bool = True,
) -> CompositionReport:
    layers = tuple(layers)
    if not layers or layers[0].role != INNER_SEED:
        raise TermError("the first layer must be the inner seed")
    if len(layers) < 2 or any(l.role != OUTER for l in layers[1:]):
        raise TermError("at least one outer layer is required after the seed")
    b = bound or Bound()
    X = tuple(atoms)

    current = layers[0].theory
    seed_monad = quotient_monad(current, layers[0].normalizer)  # seed must normalize
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
        outer_q = quotient_monad(layer.theory, layer.normalizer)
        T = outer_q.monad
        T.require_outer()
        profile = profile_monad(T, X, b)
        verdicts = tuple(
            check_preservation(T, e, profile, X, b, theory=current)
            for e in current.equations
        )
        kept, dropped, has_unknown = [], [], False
        for v in verdicts:
            if v.preserved:
                kept.append(v.equation)
            elif v.status == UNKNOWN and keep_unknown:
                kept.append(v.equation)
                has_unknown = True
            else:
                dropped.append((v.equation, v))

        refusal = ""
        if dropped:
            try:
                # demonstrate that the unweakened theory admits no law
                S_orig = quotient_monad(current)
                build_quotient_law(S_orig, T, X, b, verdicts=verdicts)
            except LawRefusedError as exc:
                refusal = str(exc)
            except TermError as exc:  # no canonical normalizer either
                refusal = f"cannot realize the unweakened theory: {exc}"

        weak_name = current.name + ("" if not dropped else " (weakened)")
        weak_inner = Theory(current.signature, tuple(kept), name=weak_name)
        generated = tuple(
            generate_distributivity(current.signature, layer.theory.signature)
        )
        combined_sig = current.signature.merge(layer.theory.signature)
        combined = Theory(
            combined_sig,
            tuple(kept) + layer.theory.equations + generated,
            name=f"{weak_name} + {layer.name}",
        )

        law = composite = None
        law_reports = monad_reports = axiom_reports = ()
        status = UNVERIFIED if has_unknown else VERIFIED
        S = quotient_monad(weak_inner)
        if build_laws and not has_unknown:
            kept_verdicts = [v for v in verdicts if v.equation in kept]
            law, wd = build_quotient_law(S, T, X, b, verdicts=kept_verdicts)
            composite = compose(T, S, law).monad
            law_reports = (wd,) + tuple(verify_distlaw(law, X, b, cap=law_cap))
            monad_reports = tuple(verify_monad(composite, X, b))
            # the carrier and the axioms never apply lambda; S's tables go
            # too, so no two checks' tables are held at once
            law.memo.clear()
            S.clear_memos()
            carrier = _enum(composite.enumerate, X, b, cap=algebra_cap)
            algebra = composite_algebra(T, S, outer_q, carrier)
            axiom_reports = tuple(
                verify_generated_axioms(
                    algebra, generated + layer.theory.equations, b.prob_grid
                )
            )
            S.clear_memos()  # the report's monads start with empty tables
            if not all(
                r.ok for r in law_reports + monad_reports + axiom_reports
            ):
                status = UNVERIFIED

        stages.append(
            StageResult(
                index=index,
                outer_name=layer.name,
                profile=profile,
                verdicts=verdicts,
                weakened=WeakenedTheory(
                    tuple(kept), tuple(dropped), generated, combined_sig
                ),
                combined=combined,
                status=status,
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
    return CompositionReport(layers, tuple(stages), current, seed_monad)


# ---------------------------------------------------------------------------
# program evaluation in a composed stack

def eval_term(report: CompositionReport, t: Term, stage: int, atoms) -> object:
    """Denotation of a closed program in the monad of the given stage.

    Stage 0 is the seed's own normal forms; stage k >= 1 evaluates in the
    k-th composite via lifted inner operations and the outer layer's
    canonical algebra. The inner operation table this fills is emptied on
    return, so the report holds no table between calls.
    """
    atom_set = set(atoms)
    if stage < 0 or stage > len(report.stages):
        raise TermError(f"stage {stage} out of range (stack has {len(report.stages)} outer layers)")
    if stage == 0:
        S = report.seed_monad
        unit, interp = S.monad.unit, S.algebra().interp
    else:
        s = report.stages[stage - 1]
        if s.inner_monad is None:
            raise TermError(f"stage {stage} has no normal-form monad")
        T, S = s.outer_monad.monad, s.inner_monad
        unit = lambda x: T.unit(S.monad.unit(x))
        interp = composite_algebra(T, S, s.outer_monad, ()).interp

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
        S.clear_memos()


# ---------------------------------------------------------------------------
# canonical layer stacks

def monoid_layer(name: str = "sequencing") -> LayerSpec:
    from .theories import monoid_theory

    return LayerSpec(name, monoid_theory(), "MONOID", INNER_SEED)


def nondet_layer(name: str = "nondeterminism") -> LayerSpec:
    from .theories import semilattice_theory

    return LayerSpec(name, semilattice_theory(), "SEMILATTICE", OUTER)


def prob_layer(name: str = "probability") -> LayerSpec:
    from .theories import convex_theory

    return LayerSpec(name, convex_theory(), "CONVEX", OUTER)


def probnetkat_stack() -> tuple:
    """The flagship three-layer stack: traces, nondeterminism, probability."""
    return (monoid_layer(), nondet_layer(), prob_layer())
