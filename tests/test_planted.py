"""A planted-fault catalogue: one row per fault, and the checks that catch it.

Each fault wraps a real component: a distributive law, an outer monad's
lifting or multiplication, an inner quotient monad's operation, the
composite algebra, or the generated axioms.  Each row pins what flags
the fault: the axioms of the reports that fail, in report order, the
exception raised, or the exit code of a composition.  A change that
replaces a check (a theorem for a sampled check, say) keeps every row
caught, perhaps by a different check, and edits the row to say which.
A row no check catches is an expected miss: its id ends in "-missed", and
it pins that nothing fails while the fault shows.
"""

from dataclasses import replace
from fractions import Fraction
from itertools import product

import pytest

from effectlayers import pipeline
from effectlayers.distlaw import (
    LawRefusedError,
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
from effectlayers.terms import Const, Equation, OpSymbol, app
from effectlayers.theories import OPLUS, monoid_theory, semilattice_theory
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


def psi_not_natural(monkeypatch):
    P = fin_powerset()

    def off_diagonal(f, values):
        # once every argument has two elements, only the tuples of distinct
        # elements: symmetric and unital, but renaming an element moves
        # tuples on or off the diagonal
        if any(len(u) < 2 for u in values):
            return P.lift(f, values)
        return frozenset(f(xs) for xs in product(*values) if len(set(xs)) == len(xs))

    T = replace(P, lift=off_diagonal)
    own = failing(verify_monoidal(T, X, B))
    try:
        return own + failing(*law_checks(monoid_law(T)))
    except LawRefusedError as exc:
        return own + (type(exc).__name__,)


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


def compose_with_oplus_weight(monkeypatch, weight):
    """The flagship composed with a stage-2 ⊕ that mixes at `weight(p)`:
    the failing checks and the exit code, and whether `a (+)[1/4] b` then
    evaluates to something other than the sound stack's value."""
    quarter = app(OPLUS, Const("a"), Const("b"), param=Fraction(1, 4))

    def flagship():
        return compose_stack(
            probnetkat_stack(), atoms=X, bound=FLAGSHIP_BOUND, law_cap=60, algebra_cap=5
        )

    sound = pipeline.eval_term(flagship(), quarter, 2, X)
    original = pipeline.composite_algebra

    def with_faulty_oplus(S, outer_q, carrier):
        A = original(S, outer_q, carrier)
        if "⊕" not in A.interp:
            return A
        mix = A.interp["⊕"]
        return replace(A, interp=A.interp | {"⊕": lambda args, p: mix(args, weight(p))})

    monkeypatch.setattr(pipeline, "composite_algebra", with_faulty_oplus)
    report = flagship()
    caught = failing(*(s.law_reports + s.monad_reports + s.axiom_reports for s in report.stages))
    wrong = pipeline.eval_term(report, quarter, 2, X) != sound
    return caught + (f"exit {report.exit_code}",), wrong


def shows_at_a_quarter(flagged):
    caught, wrong = flagged
    return caught + (("a (+)[1/4] b wrong",) if wrong else ())


def oplus_uses_one_minus_p(monkeypatch):
    return compose_with_oplus_weight(monkeypatch, lambda p: 1 - p)[0]


def oplus_off_between_grid_points(monkeypatch):
    # p + p(p - 1/2)(p - 1): p on the grid {0, 1/2, 1}, 19/64 at 1/4.  The
    # grid is not all the checks reach: skew-assoc(⊕) at l = t = 1/2 mixes
    # at the derived weights 3/4 and 2/3, and there the weight is off.
    half = Fraction(1, 2)
    return shows_at_a_quarter(
        compose_with_oplus_weight(monkeypatch, lambda p: p + p * (p - half) * (p - 1))
    )


def oplus_off_between_reached_weights(monkeypatch):
    # p plus the product of (p - w) over every weight the checks reach from
    # the grid {0, 1/2, 1}: the grid, and skew-assoc(⊕)'s derived weights
    # 2/3 and 3/4.  133/512 at 1/4, and no check fails.
    reached = (0, Fraction(1, 2), Fraction(2, 3), Fraction(3, 4), 1)

    def weight(p):
        off = 1
        for w in reached:
            off *= p - w
        return p + off

    return shows_at_a_quarter(compose_with_oplus_weight(monkeypatch, weight))


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
    pytest.param(psi_not_natural, ("MF1", "MF2", "MM2", "DL3"), id="psi-not-natural"),
    pytest.param(
        mult_moves_weight, ("MONAD_ASSOC", "MM2", "DL3", "MONAD_ASSOC"), id="mult-moves-weight"
    ),
    pytest.param(
        oplus_uses_one_minus_p,
        ("axiom:skew-assoc(⊕)", "exit 2"),
        id="oplus-uses-one-minus-p",
    ),
    pytest.param(
        oplus_off_between_grid_points,
        ("axiom:skew-assoc(⊕)", "exit 2", "a (+)[1/4] b wrong"),
        id="oplus-off-between-grid-points",
    ),
    # item 5: symbolic parameters must turn this miss into a catch
    pytest.param(
        oplus_off_between_reached_weights,
        ("exit 1", "a (+)[1/4] b wrong"),
        id="oplus-off-between-reached-weights-missed",
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
