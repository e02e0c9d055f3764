import functools
from dataclasses import replace
from fractions import Fraction as F
from itertools import product

import pytest

from effectlayers import pipeline, terms
from effectlayers.distlaw import FAIL, PASS, LawReport, _enum
from effectlayers.pipeline import (
    INNER_SEED,
    OUTER,
    VERIFIED,
    LayerSpec,
    compose_stack,
    eval_term,
    generate_distributivity,
    verify_generated_axioms,
    monoid_layer,
    nondet_layer,
    prob_layer,
    probnetkat_stack,
)
from effectlayers.render import render_term
from effectlayers.terms import (
    Const,
    OpSymbol,
    ParamDivisionByZero,
    Signature,
    TermError,
    Theory,
    Var,
    app,
    equation,
    find_violation,
    interpret,
)
from effectlayers.theories import (
    comm_monoid_theory,
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


def _table_sizes(q):
    """The entries of q's operation and mu_S tables, and its distinct results."""
    return q._op.cache_info().currsize, q.mult.cache_info().currsize, len(q._results)


class TestLambdaMemo:
    def test_no_stage_keeps_a_memo(self, choice_over_choice):
        stages = choice_over_choice.stages
        laws = [s.law for s in stages]
        assert laws and all(
            law is not None and law.fold.cache_info().currsize == 0 for law in laws
        )
        for s in stages:
            for q in (s.inner_monad, s.outer_monad):
                assert _table_sizes(q) == (0, 0, 0)

    def test_cached_lambda_equals_the_first_call(self, choice_over_choice, small_bound):
        for stage in choice_over_choice.stages:
            # a copy of S too: lambda fills S's operation table
            law = replace(stage.law, inner=replace(stage.law.inner))
            assert law.fold.cache_info().currsize == 0 and law.fold is not stage.law.fold
            S, T = law.inner, law.outer
            for s in _enum(S.monad.enumerate, ("a", "b"), small_bound):
                sv = S.monad.map(T.unit, s)  # a DL.1 input
                first = law.apply(sv)
                hits = law.fold.cache_info().hits
                assert law.apply(sv) is first  # read from the table
                assert law.fold.cache_info().hits == hits + 1
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

    def test_stage_one_is_the_idempotent_semiring_builder(self, flagship):
        # the kept laws and the generated axioms: names and sides alike
        combined = flagship.stages[0].combined.equations
        assert set(combined) == set(idem_semiring_theory().equations)


class TestAxiomVisits:
    """`find_violation` interprets each side through the module's
    `interpret_in_context`, once per instance, valuations outermost: the
    benchmark counts `cases_checked` at that call."""

    @staticmethod
    def count_lhs_calls(monkeypatch, e):
        calls = []
        original = terms.interpret_in_context

        def counted(t, *args, **kwargs):
            if t is e.lhs:
                calls.append(t)
            return original(t, *args, **kwargs)

        monkeypatch.setattr(terms, "interpret_in_context", counted)
        return calls

    def test_every_instance_of_a_passing_stage_is_visited(
        self, monkeypatch, flagship_axiom_check
    ):
        A, axioms, grid = flagship_axiom_check
        total = 0
        for e in axioms:
            calls = self.count_lhs_calls(monkeypatch, e)
            (report,) = verify_generated_axioms(A, [e], grid)
            assert report.ok, report.axiom
            n = len(A.carrier) ** len(e.context) * len(grid) ** len(e.param_names)
            assert len(calls) == n, e.describe()
            total += n
        assert total == 4 * 10**3 * 3 + 10 * 3 + 10**2 * 3 + 10**3 * 9

    @staticmethod
    def reference_violation(A, e, grid):
        """`find_violation` as a plain fold, in the same visit order; also
        the number of instances visited."""
        visited = 0
        for values in product(A.carrier, repeat=len(e.context)):
            valuation = dict(zip(e.context, values))
            leaf = lambda u: u.value if isinstance(u, Const) else valuation[u.name]
            for combo in product(grid, repeat=len(e.param_names)):
                env = dict(zip(e.param_names, combo))
                visited += 1
                try:
                    lv, rv = (interpret(s, A.op, leaf, env) for s in (e.lhs, e.rhs))
                except ParamDivisionByZero:
                    continue
                if lv != rv:
                    witness = {"valuation": valuation, "params": env, "lhs": lv, "rhs": rv}
                    return witness, visited
        return None, visited

    def test_witness_is_the_first_in_visit_order(self, monkeypatch, flagship_axiom_check):
        A, axioms, grid = flagship_axiom_check
        oplus = next(e.lhs.op for e in axioms if e.name == "skew-comm(⊕)")
        x, y, l = Var("x"), Var("y"), Var("l")
        e = equation(app(oplus, x, y, param=l), app(oplus, y, x, param=l))
        reference, visited = self.reference_violation(A, e, grid)
        assert reference is not None and visited > 1
        calls = self.count_lhs_calls(monkeypatch, e)
        assert find_violation(A, e, grid) == reference
        assert len(calls) == visited
        (report,) = verify_generated_axioms(A, [e], grid)
        assert not report.ok and report.counterexample == reference


class TestAxiomTables:
    """`verify_generated_axioms` tables each operation and keeps one object
    per distinct value.  `reference_check` is the check it replaced, whose
    operations were memoized with `functools.cache`; both must give the same
    reports, witnesses included."""

    @staticmethod
    def reference_check(algebra, eqs, param_grid):
        interp = {name: functools.cache(op) for name, op in algebra.interp.items()}
        algebra = replace(algebra, interp=interp)
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

    def test_flagship_stage_two(self, flagship_axiom_check):
        A, axioms, grid = flagship_axiom_check
        reports = verify_generated_axioms(A, axioms, grid)
        assert all(r.ok for r in reports)
        assert reports == self.reference_check(A, axioms, grid)

    def test_planted_failures(self, flagship, flagship_axiom_check):
        A, _, grid = flagship_axiom_check
        sig = flagship.stages[1].combined.signature
        seq, plus, oplus = sig[";"], sig["+"], sig["⊕"]
        x, y, l = Var("x"), Var("y"), Var("l")
        planted = [
            equation(app(seq, x, y), app(seq, y, x)),
            equation(app(plus, x, y), x),
            equation(app(oplus, x, y, param=l), app(oplus, y, x, param=l)),
        ]
        reports = verify_generated_axioms(A, planted, grid)
        assert not any(r.ok for r in reports)
        assert reports == self.reference_check(A, planted, grid)

    @staticmethod
    def pair_stacks():
        """The benchmark's two-layer stacks, outer operations renamed apart."""
        x, y, z = Var("x"), Var("y"), Var("z")
        star = OpSymbol("*", 2)
        assoc = equation(
            app(star, x, app(star, y, z)), app(star, app(star, x, y), z), name="assoc(*)"
        )
        u, zero = OpSymbol("u", 2), OpSymbol("zero", 0)
        seeds = {
            "monoid": (monoid_theory(), "MONOID"),
            "semilattice": (semilattice_theory(), "SEMILATTICE"),
            "commmonoid": (comm_monoid_theory(), "COMM_MONOID"),
            "semigroup": (Theory(Signature((star,)), (assoc,), name="semigroup"), None),
        }
        outers = {
            "powerset": (semilattice_theory(u, zero), "SEMILATTICE"),
            "multiset": (comm_monoid_theory(u, zero), "COMM_MONOID"),
        }
        for seed, outer in (
            ("monoid", "powerset"),
            ("monoid", "multiset"),
            ("semilattice", "powerset"),
            ("commmonoid", "powerset"),
            ("semigroup", "powerset"),
        ):
            yield pytest.param(
                (
                    LayerSpec(seed, *seeds[seed], INNER_SEED),
                    LayerSpec(outer, *outers[outer], OUTER),
                ),
                id=f"{seed}>{outer}",
            )

    @pytest.mark.parametrize("layers", pair_stacks.__func__())
    def test_pair_stacks(self, layers, monkeypatch, small_bound):
        checks = []
        original = pipeline.verify_generated_axioms

        def recorded(algebra, eqs, grid):
            reports = original(algebra, eqs, grid)
            checks.append((algebra, eqs, grid, reports))
            return reports

        monkeypatch.setattr(pipeline, "verify_generated_axioms", recorded)
        compose_stack(layers, atoms=("a", "b"), bound=small_bound)
        ((algebra, eqs, grid, reports),) = checks
        assert reports == self.reference_check(algebra, eqs, grid)


class TestStackValidation:
    def test_seed_must_come_first(self, small_bound):
        with pytest.raises(TermError):
            compose_stack([nondet_layer(), prob_layer()], bound=small_bound)

    def test_at_least_one_outer_layer(self, small_bound):
        with pytest.raises(TermError):
            compose_stack([monoid_layer()], bound=small_bound)


class TestAtomPadding:
    """The checks run on two atoms at least: on one, every distribution is a
    point mass, and the flagship's stage 2 would keep `idem(+)`."""

    # the paper's verdict: drops per stage, stage statuses, exit code
    PAPER = (
        [[], ["distrib-left(;,+)", "distrib-right(;,+)", "idem(+)"]],
        [VERIFIED, VERIFIED],
        1,
    )

    @staticmethod
    def outcome(report):
        return (
            [sorted(e.describe() for e, _ in s.weakened.dropped) for s in report.stages],
            [s.status for s in report.stages],
            report.exit_code,
        )

    def test_one_atom_gives_the_two_atom_verdicts(self, flagship):
        one = compose_stack(probnetkat_stack(), atoms=("a",))
        assert self.outcome(one) == self.outcome(flagship) == self.PAPER

    def test_a_repeated_atom_gives_the_two_atom_verdicts(self, flagship):
        twice = compose_stack(probnetkat_stack(), atoms=("a", "a"))
        assert self.outcome(twice) == self.outcome(flagship) == self.PAPER

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_the_verdicts_do_not_depend_on_the_number_of_atoms(self, n):
        atoms = tuple("abcd"[:n])
        report = compose_stack(probnetkat_stack(), atoms=atoms, build_laws=False)
        assert self.outcome(report) == self.PAPER

    def test_the_padding_takes_the_first_free_letters(self, monkeypatch):
        seen = []
        profile = pipeline.profile_monad

        def recording(T, X, b):
            seen.append(X)
            return profile(T, X, b)

        monkeypatch.setattr(pipeline, "profile_monad", recording)
        cases = [(), ("a",), ("a", "a"), ("b",), ("ab",), ("a", "c"), ("c", "b", "a")]
        for atoms in cases:
            compose_stack(probnetkat_stack(), atoms=atoms, build_laws=False)
        assert seen[::2] == [
            ("a", "b"),
            ("a", "b"),
            ("a", "b"),
            ("b", "a"),
            ("ab", "a"),
            ("a", "c"),
            ("c", "b", "a"),
        ]


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
            assert all(_table_sizes(q) == (0, 0, 0) for q in monads)
        with pytest.raises(TermError, match="unbound atom 'z'"):
            eval_term(flagship, app(seq, prog, Const("z")), stage, ("a", "b"))
        assert all(_table_sizes(q) == (0, 0, 0) for q in monads)

    @pytest.mark.parametrize("build_laws", [False, True])
    def test_each_stage_algebra_is_built_once_per_report(
        self, monkeypatch, small_bound, build_laws
    ):
        """`composite_algebra` runs once per outer stage while the report is
        composed, for the axiom check too, and never again however many
        programs are evaluated."""
        built = []
        original = pipeline.composite_algebra

        def counted(*args):
            built.append(args)
            return original(*args)

        monkeypatch.setattr(pipeline, "composite_algebra", counted)
        report = compose_stack(
            probnetkat_stack(),
            atoms=("a", "b"),
            bound=small_bound,
            build_laws=build_laws,
        )
        assert len(built) == len(report.stages) == 2
        sigs = [report.layers[0].theory.signature] + [
            s.combined.signature for s in report.stages
        ]
        for n in range(50):
            stage = n % 3
            seq = sigs[stage][";"]
            prog = app(seq, Const("ab"[n % 2]), Const("ab"[n // 2 % 2]))
            assert eval_term(report, prog, stage, ("a", "b"))
        assert len(built) == 2

    @pytest.mark.parametrize("stage", [0, 1, 2])
    def test_open_program_is_an_error(self, flagship, stage):
        seq = flagship.layers[0].theory.signature[";"]
        prog = app(seq, Const("a"), Var("x"))
        with pytest.raises(TermError, match="programs must be closed terms"):
            eval_term(flagship, prog, stage, ("a", "b"))
