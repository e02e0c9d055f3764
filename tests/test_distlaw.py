import gc
import weakref
from dataclasses import replace
from fractions import Fraction as F

import pytest

from effectlayers import distlaw
from effectlayers.distlaw import (
    FAIL,
    LawRefusedError,
    LawReport,
    QuotientLaw,
    _enum,
    build_quotient_law,
    compose,
    verify_distlaw,
    verify_monad,
)
from effectlayers.monads import (
    Bound,
    BoundExplosionError,
    fin_distribution,
    fin_powerset,
    lift,
    multiset,
)
from effectlayers.terms import (
    App,
    Const,
    OpSymbol,
    Signature,
    TermError,
    Theory,
    Var,
    app,
    equation,
)
from effectlayers.values import Dist
from effectlayers.normal_forms import quotient_monad
from effectlayers.preservation import check_preservation, profile_monad
from effectlayers.theories import (
    idem_semiring_theory,
    monoid_theory,
    semilattice_theory,
    semiring_theory,
    two_monoids_absorption_theory,
)

GRID3 = (F(0), F(1, 2), F(1))
GRID5 = (F(0), F(1, 4), F(1, 2), F(3, 4), F(1))
B = Bound(max_word_len=2, max_set_size=2, max_term_depth=2, prob_grid=GRID3)
X = ("a", "b")


def law_over(theory, T):
    S = quotient_monad(theory)
    verdicts = [
        check_preservation(T, e, profile_monad(T, X, B), X, B, theory=S.theory)
        for e in S.theory.equations
    ]
    return build_quotient_law(S, T, X, B, verdicts=verdicts)


def monoid_over(T):
    return law_over(monoid_theory(), T)


def semigroup_theory():
    """Associativity alone: no canonical normal form, so GENERIC."""
    star = OpSymbol("*", 2)
    x, y, z = Var("x"), Var("y"), Var("z")
    assoc = equation(app(star, x, app(star, y, z)), app(star, app(star, x, y), z))
    return Theory(Signature((star,)), (assoc,), name="semigroup")


def well_defined_terms(law, monkeypatch):
    """The terms `_well_defined_report` enumerates, after it passes."""
    enumerated = []
    free_term_monad = distlaw.free_term_monad

    def recording(sig):
        m = free_term_monad(sig)

        def enum(carrier, bound):
            terms = m.enumerate(carrier, bound)
            enumerated.extend(terms)
            return terms

        return replace(m, enumerate=enum)

    monkeypatch.setattr(distlaw, "free_term_monad", recording)
    assert distlaw._well_defined_report(law, X, B).ok
    assert any(isinstance(t, App) and t.args for t in enumerated)
    return enumerated


class TestLambdaValues:
    def test_word_of_sets_becomes_set_of_words(self):
        law, report = monoid_over(fin_powerset())
        assert report.ok
        sv = (frozenset({"a"}), frozenset({"b", "c"}))  # a word of T-values
        assert law.apply(sv) == frozenset({("a", "b"), ("a", "c")})

    def test_unit_word_goes_to_unit(self):
        law, _ = monoid_over(fin_powerset())
        assert law.apply(()) == fin_powerset().unit(())


def reference_rho(T, t):
    """rho by its own structural recursion, lifting each operation."""
    if isinstance(t, Const):
        return T.map(Const, t.value)
    if isinstance(t, App):
        args = [reference_rho(T, a) for a in t.args]
        return lift(T, lambda parts: App(t.op, parts, t.param), args)
    raise TermError("distributive laws apply to ground terms only")


class TestRho:
    @pytest.mark.parametrize("T", [fin_powerset(), fin_distribution()], ids=lambda t: t.name)
    def test_rho_agrees_with_the_recursive_reference(self, T, monkeypatch):
        law, _ = monoid_over(T)
        for t in well_defined_terms(law, monkeypatch):
            assert law.rho(t) == reference_rho(T, t), t

    def test_a_copy_lifts_through_its_own_outer(self):
        law, _ = monoid_over(fin_powerset())
        D = fin_distribution()
        copy = replace(law, outer=D)
        t = App(law.inner.roles.seq, (Const(D.unit("a")), Const(D.unit("b"))))
        assert copy.rho(t) == reference_rho(D, t)


class TestFusedLambda:
    @pytest.mark.parametrize(
        "theory, T",
        [
            (monoid_theory, fin_powerset()),
            (monoid_theory, fin_distribution()),
            (monoid_theory, multiset()),
            (two_monoids_absorption_theory, fin_distribution()),
            (semigroup_theory, fin_powerset()),
        ],
        ids=[
            "monoid-powerset",
            "monoid-distribution",
            "monoid-multiset",
            "two-monoids-distribution",
            "generic-semigroup-powerset",
        ],
    )
    def test_fold_in_the_lifted_algebra_equals_q_after_rho(
        self, theory, T, monkeypatch
    ):
        law, _ = law_over(theory(), T)
        S = law.inner
        terms = well_defined_terms(law, monkeypatch)
        lam = replace(law).apply  # the check filled the law's memo
        for t in terms:
            assert lam(S.normalize(t)) == T.map(S.normalize, law.rho(t)), t

    def test_a_copy_applies_lambda_through_its_own_outer(self):
        law, _ = monoid_over(fin_powerset())
        D = fin_distribution()
        copy = replace(law, outer=D)
        coin = Dist({"a": F(1, 2), "b": F(1, 2)})
        sv = (D.unit("a"), coin)  # a word of distributions
        assert copy.apply(sv) == Dist({("a", "a"): F(1, 2), ("a", "b"): F(1, 2)})
        assert law.apply((frozenset({"a"}), frozenset({"a", "b"}))) == frozenset(
            {("a", "a"), ("a", "b")}
        )

    def test_a_law_and_its_table_go_with_the_last_reference(self):
        """λ's table is a plain dict on its law: no reference cycle keeps a
        dropped law, and what its table holds, until the cyclic collector runs."""
        law, _ = monoid_over(fin_powerset())
        assert law.apply((frozenset({"a"}), frozenset({"a", "b"})))
        assert law.memo
        ref = weakref.ref(law)
        gc.disable()
        try:
            del law
            assert ref() is None
        finally:
            gc.enable()

    def test_a_fault_in_the_fused_lambda_is_refused(self, monkeypatch):
        class Swapped(QuotientLaw):
            """The fused `;` with its two arguments swapped."""

            def __post_init__(self):
                super().__post_init__()
                fused, seq = self._fused, self.inner.roles.seq.name
                object.__setattr__(
                    self,
                    "_fused",
                    lambda name: (
                        (lambda args, param=None: fused(seq)(args[::-1], param))
                        if name == seq
                        else fused(name)
                    ),
                )

        monkeypatch.setattr(distlaw, "QuotientLaw", Swapped)
        with pytest.raises(LawRefusedError) as exc:
            monoid_over(fin_powerset())
        assert str(exc.value).startswith("fused λ disagrees with T(q)∘ρ (witness: ")
        assert "well-definedness" not in str(exc.value)


class TestVerification:
    @pytest.mark.parametrize("T", [fin_powerset(), fin_distribution()], ids=lambda t: t.name)
    def test_monoid_law_satisfies_all_axioms(self, T):
        law, _ = monoid_over(T)
        reports = verify_distlaw(law, X, B, cap=60)
        assert {r.axiom for r in reports} == {
            "DL1",
            "DL2",
            "DL3",
            "DL4",
            "NATURALITY",
        }
        assert all(r.ok for r in reports), [r.axiom for r in reports if not r.ok]

    def test_two_monoids_law_under_distribution(self):
        law, report = law_over(two_monoids_absorption_theory(), fin_distribution())
        assert report.ok
        reports = verify_distlaw(law, X, B, cap=40)
        assert all(r.ok for r in reports), [r.axiom for r in reports if not r.ok]

    def test_corrupted_law_is_caught(self):
        law, _ = monoid_over(fin_powerset())

        class Corrupted(QuotientLaw):
            def apply(self, sv):
                out = QuotientLaw.apply(self, sv)
                # silently drop the empty word from every output set
                return frozenset(w for w in out if w != ())

        bad = Corrupted(law.inner, law.outer)
        reports = verify_distlaw(bad, X, B, cap=60)
        assert any(not r.ok for r in reports)
        failed = next(r for r in reports if not r.ok)
        assert failed.counterexample is not None


class TestRefusal:
    def test_semilattice_over_powerset_is_refused(self):
        T = fin_powerset()
        S = quotient_monad(semilattice_theory())
        verdicts = [
            check_preservation(T, e, profile_monad(T, X, B), X, B, theory=S.theory)
            for e in S.theory.equations
        ]
        with pytest.raises(LawRefusedError) as exc:
            build_quotient_law(S, T, X, B, verdicts=verdicts)
        assert "idem(+)" in str(exc.value)
        assert exc.value.verdicts

    def test_well_definedness_alarm_renders_its_witness(self, monkeypatch):
        # a frozenset's repr depends on the hash seed; the rendering does not
        witness = {"value": frozenset({(), ("a",), ("b",)})}
        monkeypatch.setattr(
            distlaw,
            "_well_defined_report",
            lambda law, X, b: LawReport("WELL_DEFINED", FAIL, witness),
        )
        with pytest.raises(LawRefusedError) as exc:
            monoid_over(fin_powerset())
        assert "well-definedness check failed" in str(exc.value)
        assert "{ε, a, b}" in str(exc.value)


class TestFallback:
    def test_refusal_of_every_fallback_gives_the_flattest_size(self):
        with pytest.raises(BoundExplosionError) as exc:
            _enum(
                fin_powerset().enumerate,
                range(20),
                Bound(max_set_size=4, prob_grid=GRID5, ceiling=3),
            )
        # the flattest attempt allows sets of at most one of the 20 values
        assert exc.value.count == 21
        assert "-1" not in str(exc.value)
        assert isinstance(exc.value.__cause__, BoundExplosionError)


class TestComposite:
    def test_composite_monad_laws(self):
        T = fin_powerset()
        law, _ = monoid_over(T)
        M = compose(T, law.inner, law).monad
        reports = verify_monad(M, X, B)
        assert all(r.ok for r in reports), [r.axiom for r in reports if not r.ok]

    def test_composite_unit(self):
        T = fin_powerset()
        law, _ = monoid_over(T)
        M = compose(T, law.inner, law).monad
        assert M.unit("a") == frozenset({("a",)})

    @pytest.mark.parametrize(
        "T, theory",
        [(fin_powerset(), idem_semiring_theory), (multiset(), semiring_theory)],
        ids=["powerset", "multiset"],
    )
    def test_words_in_container_match_the_semiring_normal_forms(self, T, theory):
        # the representative-based law on words against the Fubini law psi
        law, _ = monoid_over(T)
        M = compose(T, law.inner, law).monad
        N = quotient_monad(theory()).monad
        level1 = M.enumerate(X, B)
        assert level1 == N.enumerate(X, B)
        f = {"a": "b", "b": "b"}.get
        for v in level1:
            assert M.map(f, v) == N.map(f, v)
        assert M.unit("a") == N.unit("a")
        level2 = _enum(M.enumerate, level1[:6], B.shrink(), cap=200)
        assert level2
        for vv in level2:
            assert M.mult(vv) == N.mult(vv)
