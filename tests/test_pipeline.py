from dataclasses import replace
from fractions import Fraction as F

import pytest

from effectlayers.distlaw import _enum
from effectlayers.pipeline import (
    INNER_SEED,
    VERIFIED,
    LayerSpec,
    compose_stack,
    eval_term,
    generate_distributivity,
    monoid_layer,
    nondet_layer,
    prob_layer,
)
from effectlayers.render import render_term
from effectlayers.terms import Const, TermError, Var, app
from effectlayers.theories import (
    idem_semiring_theory,
    monoid_theory,
    semilattice_theory,
)
from effectlayers.values import Dist, MultiSet


def eq_names(eqs):
    return {e.name for e in eqs}


class TestStageOne(object):
    def test_everything_survives_nondeterminism(self, flagship):
        s1 = flagship.stages[0]
        assert s1.status == VERIFIED
        assert not s1.weakened.dropped
        assert eq_names(s1.weakened.kept) == eq_names(monoid_theory().equations)

    def test_combined_theory_is_the_idempotent_semiring(self, flagship):
        s1 = flagship.stages[0]
        assert eq_names(s1.combined.equations) == eq_names(
            idem_semiring_theory().equations
        )
        assert len(s1.combined.equations) == 12

    def test_all_verification_reports_pass(self, flagship):
        s1 = flagship.stages[0]
        assert s1.law_reports and s1.monad_reports and s1.axiom_reports
        for r in s1.law_reports + s1.monad_reports + s1.axiom_reports:
            assert r.ok, r.axiom


class TestStageTwo(object):
    def test_exactly_the_copying_axioms_drop(self, flagship):
        s2 = flagship.stages[1]
        dropped = {e.name for e, _ in s2.weakened.dropped}
        assert dropped == {"idem(+)", "distrib-left(;,+)", "distrib-right(;,+)"}

    def test_absorption_survives(self, flagship):
        s2 = flagship.stages[1]
        kept = eq_names(s2.weakened.kept)
        assert {"absorb-left(;,abort)", "absorb-right(;,abort)"} <= kept

    def test_drop_evidence_is_concrete(self, flagship):
        s2 = flagship.stages[1]
        for e, v in s2.weakened.dropped:
            assert v.status == "FALSIFIED"
            assert v.counterexample is not None
            assert v.evidence  # the relevance/affineness probes that explain it

    def test_unweakened_theory_admits_no_law(self, flagship):
        s2 = flagship.stages[1]
        assert "cannot quotient the law" in s2.unweakened_refusal
        assert "idem(+)" in s2.unweakened_refusal

    def test_stage_two_is_verified_after_weakening(self, flagship):
        s2 = flagship.stages[1]
        assert s2.status == VERIFIED
        for r in s2.law_reports + s2.monad_reports + s2.axiom_reports:
            assert r.ok, r.axiom

    def test_final_theory_and_exit_code(self, flagship):
        names = eq_names(flagship.final_theory.equations)
        # two monoid structures with absorption survive
        assert {
            "assoc(;)",
            "unit-left(;)",
            "unit-right(;)",
            "assoc(+)",
            "comm(+)",
            "unit-left(+)",
            "unit-right(+)",
            "absorb-left(;,abort)",
            "absorb-right(;,abort)",
        } <= names
        # the probabilistic layer brings the convex axioms
        assert {"idem(⊕)", "skew-comm(⊕)", "skew-assoc(⊕)"} <= names
        # generated distributivity of both earlier operations over the coin
        assert {
            "distrib-left(;,⊕)",
            "distrib-right(;,⊕)",
            "distrib-left(+,⊕)",
            "distrib-right(+,⊕)",
        } <= names
        assert "idem(+)" not in names
        assert "distrib-left(;,+)" not in names
        assert flagship.exit_code == 1


class TestLambdaMemo:
    def test_no_stage_keeps_a_memo(self, choice_over_choice):
        stages = choice_over_choice.stages
        laws = [s.law for s in stages]
        assert laws and all(law is not None and law.memo == {} for law in laws)
        for s in stages:
            for q in (s.inner_monad, s.outer_monad):
                assert q.op_memo == q.mult_memo == q.result_memo == {}

    def test_cached_lambda_equals_the_first_call(self, choice_over_choice, small_bound):
        for stage in choice_over_choice.stages:
            # a copy of S too: lambda fills S's operation table
            law = replace(stage.law, inner=replace(stage.law.inner))
            assert law.memo == {} and law.memo is not stage.law.memo
            S, T = law.inner, law.outer
            for s in _enum(S.monad.enumerate, ("a", "b"), small_bound):
                sv = S.monad.map(T.unit, s)  # a DL.1 input
                first = law.apply(sv)
                assert sv in law.memo
                assert law.apply(sv) == first
                assert first == T.map(S.normalize, law.rho(S.representative(sv)))


class TestGeneratedAxioms:
    def test_shapes_for_monoid_under_semilattice(self):
        eqs = generate_distributivity(
            monoid_theory().signature, semilattice_theory().signature
        )
        names = {e.name for e in eqs}
        assert names == {
            "distrib-left(;,+)",
            "distrib-right(;,+)",
            "absorb-left(;,abort)",
            "absorb-right(;,abort)",
        }
        left = next(e for e in eqs if e.name == "distrib-left(;,+)")
        assert render_term(left.lhs) == "x1;(y1 + y2)"
        assert render_term(left.rhs) == "x1;y1 + x1;y2"
        absorb = next(e for e in eqs if e.name == "absorb-right(;,abort)")
        assert render_term(absorb.lhs) == "x1;abort"
        assert render_term(absorb.rhs) == "abort"


class TestStackValidation:
    def test_seed_must_come_first(self, small_bound):
        with pytest.raises(TermError):
            compose_stack([nondet_layer(), prob_layer()], bound=small_bound)

    def test_at_least_one_outer_layer(self, small_bound):
        with pytest.raises(TermError):
            compose_stack([monoid_layer()], bound=small_bound)


class TestSemilatticeOverPowerset:
    """Lifting nondeterminism over itself: idempotence does not survive."""

    @pytest.fixture
    def report(self, choice_over_choice):
        return choice_over_choice

    def test_idempotence_drops(self, report):
        dropped = {e.name for e, _ in report.stages[0].weakened.dropped}
        assert "idem(+)" in dropped
        assert report.exit_code == 1

    def test_refusal_recorded(self, report):
        assert "cannot quotient the law" in report.stages[0].unweakened_refusal

    def test_colliding_operation_names_are_rejected(self, small_bound):
        seed = LayerSpec(
            "inner choice", semilattice_theory(), "SEMILATTICE", INNER_SEED
        )
        with pytest.raises(TermError, match="distinct operation names"):
            compose_stack(
                [seed, nondet_layer("outer choice")], bound=small_bound
            )


class TestEvalTerm:
    def test_stage0_word(self, flagship):
        prog = app(
            flagship.layers[0].theory.signature[";"], Const("a"), Const("b")
        )
        assert eval_term(flagship, prog, 0, ("a", "b")) == ("a", "b")

    def test_stage1_set_of_words(self, flagship):
        sig1 = flagship.stages[0].combined.signature
        prog = app(
            sig1[";"],
            Const("a"),
            app(sig1["+"], Const("b"), app(sig1["abort"])),
        )
        assert eval_term(flagship, prog, 1, ("a", "b")) == frozenset({("a", "b")})

    def test_stage2_distribution(self, flagship):
        sig2 = flagship.final_theory.signature
        from effectlayers.terms import App

        prog = App(sig2["⊕"], (Const("a"), Const("b")), F(1, 2))
        out = eval_term(flagship, prog, 2, ("a", "b"))
        assert out == Dist(
            {MultiSet([("a",)]): F(1, 2), MultiSet([("b",)]): F(1, 2)}
        )

    def test_unbound_atom_is_an_error(self, flagship):
        with pytest.raises(TermError, match="unbound atom 'z'"):
            eval_term(flagship, Const("z"), 0, ("a", "b"))

    def test_op_not_at_stage_is_an_error(self, flagship):
        sig2 = flagship.final_theory.signature
        from effectlayers.terms import App

        prog = App(sig2["⊕"], (Const("a"), Const("b")), F(1, 2))
        with pytest.raises(
            TermError, match="operation '⊕' is not available at stage 1"
        ):
            eval_term(flagship, prog, 1, ("a", "b"))

    @pytest.mark.parametrize("stage", [-1, 3])
    def test_stage_out_of_range_is_an_error(self, flagship, stage):
        with pytest.raises(TermError, match=f"stage {stage} out of range"):
            eval_term(flagship, Const("a"), stage, ("a", "b"))

    @pytest.mark.parametrize("stage", [0, 1, 2])
    def test_no_table_outlives_a_call(self, flagship, stage):
        """Each call empties the operation tables it filled, so evaluating
        ever more distinct programs leaves the report's tables as they were."""
        sigs = [flagship.layers[0].theory.signature] + [
            s.combined.signature for s in flagship.stages
        ]
        seq = sigs[stage][";"]
        monads = [flagship.seed_monad] + [
            q for s in flagship.stages for q in (s.inner_monad, s.outer_monad)
        ]
        prog = Const("a")
        for n in range(4):
            prog = app(seq, prog, Const("ab"[n % 2]))
            assert eval_term(flagship, prog, stage, ("a", "b"))
            assert all(q.op_memo == q.mult_memo == q.result_memo == {} for q in monads)
        with pytest.raises(TermError, match="unbound atom 'z'"):
            eval_term(flagship, app(seq, prog, Const("z")), stage, ("a", "b"))
        assert all(q.op_memo == q.mult_memo == q.result_memo == {} for q in monads)

    @pytest.mark.parametrize("stage", [0, 1, 2])
    def test_open_program_is_an_error(self, flagship, stage):
        seq = flagship.layers[0].theory.signature[";"]
        prog = app(seq, Const("a"), Var("x"))
        with pytest.raises(TermError, match="programs must be closed terms"):
            eval_term(flagship, prog, stage, ("a", "b"))
