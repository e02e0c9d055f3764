"""A planted-fault catalogue: one row per fault, and the checks that catch it.

Each fault wraps a real component: a distributive law, an outer monad's
lifting or multiplication, an inner quotient monad's operation, the
composite algebra, or the generated axioms.  Each row pins what flags
the fault: the axioms of the reports that fail, in report order, the
exception raised, or the exit code of a composition.  A change that
replaces a check (a theorem for a sampled check, say) keeps every row
caught, perhaps by a different check, and edits the row to say which.
"""

from dataclasses import replace

import pytest

from effectlayers import pipeline
from effectlayers.distlaw import (
    QuotientLaw,
    build_quotient_law,
    compose,
    verify_distlaw,
    verify_monad,
    verify_monoidal,
)
from effectlayers.monads import Bound, fin_distribution, fin_powerset
from effectlayers.normal_forms import quotient_monad
from effectlayers.pipeline import (
    INNER_SEED,
    OUTER,
    LayerSpec,
    compose_stack,
    probnetkat_stack,
)
from effectlayers.preservation import (
    NonSymmetricMonadError,
    check_preservation,
    profile_monad,
)
from effectlayers.terms import Equation, OpSymbol, app
from effectlayers.theories import monoid_theory, semilattice_theory
from effectlayers.values import Dist

B = Bound(max_word_len=2, max_set_size=2, max_term_depth=2)
# the flagship at the benchmark's ceiling: a composition takes about 0.1 s
FLAGSHIP_BOUND = Bound(max_word_len=2, max_set_size=3, max_term_depth=2, ceiling=20_000)
X = ("a", "b")


def failing(*report_groups):
    """The axioms of the failing reports, in report order."""
    return tuple(r.axiom for reports in report_groups for r in reports if not r.ok)


def monoid_law(T, S=None):
    """The law of the monoid theory (realized by `S`) over `T`."""
    S = S or quotient_monad(monoid_theory())
    profile = profile_monad(T, X, B)
    verdicts = [check_preservation(T, e, profile, X, B) for e in S.theory.equations]
    law, _ = build_quotient_law(S, T, X, B, verdicts=verdicts)
    return law


def law_checks(law):
    """DL.1-4 and naturality of `law`, then the laws of its composite monad."""
    composite = compose(law.outer, law.inner, law).monad
    return verify_distlaw(law, X, B, cap=60), verify_monad(composite, X, B)


def lambda_drops_the_empty_word(monkeypatch):
    law = monoid_law(fin_powerset())

    class Dropping(QuotientLaw):
        def apply(self, sv):
            return frozenset(w for w in QuotientLaw.apply(self, sv) if w != ())

    return failing(*law_checks(Dropping(law.inner, law.outer)))


def psi_not_symmetric(monkeypatch):
    P = fin_powerset()

    def biased(f, values):
        # a first argument of two or more elements keeps only its least one
        u, *rest = values
        if len(u) > 1:
            u = frozenset([min(u)])
        return P.lift(f, (u, *rest))

    T = replace(P, lift=biased)
    profile = profile_monad(T, X, B)
    try:
        check_preservation(T, monoid_theory().equations[0], profile, X, B)
    except NonSymmetricMonadError as exc:
        return (type(exc).__name__,)
    return ()


def mult_moves_weight(monkeypatch):
    D = fin_distribution()

    def moving(dd):
        # on a properly nested input, the last element's weight goes to the first
        d = D.mult(dd)
        if len(dd._d) > 1 and any(len(inner._d) > 1 for inner in dd._d) and len(d._d) > 1:
            items = dict(d.items())
            (first, last) = (next(iter(items)), list(items)[-1])
            items[first] += items.pop(last)
            return Dist(items)
        return d

    T = replace(D, mult=moving)
    own = failing(verify_monad(T, X, B), verify_monoidal(T, X, B))
    return own + failing(*law_checks(monoid_law(T)))


def oplus_uses_one_minus_p(monkeypatch):
    original = pipeline.composite_algebra

    def with_faulty_oplus(S, outer_q, carrier):
        A = original(S, outer_q, carrier)
        if "⊕" not in A.interp:
            return A
        mix = A.interp["⊕"]
        return replace(A, interp=A.interp | {"⊕": lambda args, p: mix(args, 1 - p)})

    monkeypatch.setattr(pipeline, "composite_algebra", with_faulty_oplus)
    report = compose_stack(
        probnetkat_stack(), atoms=X, bound=FLAGSHIP_BOUND, law_cap=60, algebra_cap=5
    )
    caught = failing(*(s.law_reports + s.monad_reports + s.axiom_reports for s in report.stages))
    return caught + (f"exit {report.exit_code}",)


def s_operation_wrong_on_one_input(monkeypatch):
    S = quotient_monad(monoid_theory())

    class Faulty(type(S)):
        def compute_op(self, op_name, args, param=None):
            if op_name == ";" and tuple(args) == (("a",), ("b",)):
                return ("b", "a")
            return super().compute_op(op_name, args, param)

    law = monoid_law(fin_powerset(), Faulty(S.kind, S.theory, S.roles, S.monad))
    return failing(*law_checks(law))


def generated_axiom_with_a_wrong_side(monkeypatch):
    original = pipeline.generate_distributivity

    def with_wrong_side(inner_sig, outer_sig):
        first, *rest = original(inner_sig, outer_sig)
        # the right side with the arguments of each inner application swapped
        wrong = app(
            first.rhs.op, *[app(a.op, *a.args[::-1]) for a in first.rhs.args]
        )
        return [Equation(first.context, first.lhs, wrong, first.name)] + rest

    monkeypatch.setattr(pipeline, "generate_distributivity", with_wrong_side)
    seed = LayerSpec("sequencing", monoid_theory(), "MONOID", INNER_SEED)
    choice = LayerSpec(
        "choice",
        semilattice_theory(OpSymbol("u", 2), OpSymbol("zero", 0)),
        "SEMILATTICE",
        OUTER,
    )
    report = compose_stack([seed, choice], atoms=X, bound=B, law_cap=40, algebra_cap=8)
    (stage,) = report.stages
    caught = failing(stage.law_reports, stage.monad_reports, stage.axiom_reports)
    return caught + (f"exit {report.exit_code}",)


ROWS = [
    pytest.param(
        lambda_drops_the_empty_word, ("DL1", "DL4", "MONAD_UNIT"), id="lambda-drops-empty-word"
    ),
    pytest.param(psi_not_symmetric, ("NonSymmetricMonadError",), id="psi-not-symmetric"),
    pytest.param(
        mult_moves_weight, ("MONAD_ASSOC", "MM2", "DL3", "MONAD_ASSOC"), id="mult-moves-weight"
    ),
    pytest.param(
        oplus_uses_one_minus_p,
        ("axiom:skew-assoc(⊕)", "exit 2"),
        id="oplus-uses-one-minus-p",
    ),
    pytest.param(
        s_operation_wrong_on_one_input,
        ("DL1", "DL4", "NATURALITY"),
        id="s-operation-wrong-on-one-input",
    ),
    pytest.param(
        generated_axiom_with_a_wrong_side,
        ("axiom:distrib-right(;,u)", "exit 2"),
        id="generated-axiom-wrong-side",
    ),
]


@pytest.mark.parametrize("fault, caught_by", ROWS)
def test_planted_fault_is_caught(monkeypatch, fault, caught_by):
    assert fault(monkeypatch) == caught_by
