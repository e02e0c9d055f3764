from fractions import Fraction as F

import pytest

from effectlayers.monads import Bound, fin_distribution, fin_powerset, multiset
from effectlayers.preservation import (
    FALSIFIED,
    PRESERVED_SYNTACTIC,
    THM_AFFINE,
    THM_IDENTITY,
    THM_LINEAR,
    UNKNOWN,
    NonSymmetricMonadError,
    ProbeResult,
    MonadProfile,
    check_preservation,
    enumerate_algebras,
    profile_monad,
)
from effectlayers.terms import Var, app, equation
from effectlayers.theories import (
    PLUS,
    idem_semiring_theory,
    monoid_theory,
    semilattice_theory,
)

GRID3 = (F(0), F(1, 2), F(1))
B = Bound(max_word_len=2, max_set_size=3, prob_grid=GRID3)
X = ("a", "b")

x, y = Var("x"), Var("y")


@pytest.fixture(scope="module")
def profiles():
    return {
        "P": profile_monad(fin_powerset(), X, B),
        "M": profile_monad(multiset(), X, B),
        "D": profile_monad(fin_distribution(), X, B),
    }


class TestProfiles:
    def test_all_symmetric(self, profiles):
        assert all(p.symmetric.holds for p in profiles.values())

    def test_none_relevant(self, profiles):
        # copying a two-point set/multiset/coin never factors through the
        # diagonal, and every probe must carry a witness
        for p in profiles.values():
            assert not p.relevant.holds
            assert p.relevant.counterexample is not None

    def test_only_distribution_is_affine(self, profiles):
        assert not profiles["P"].affine.holds
        assert not profiles["M"].affine.holds
        assert profiles["D"].affine.holds

    def test_relevance_witness_for_distribution(self, profiles):
        from effectlayers.preservation import relevance_sides
        from effectlayers.values import Dist

        cx = profiles["D"].relevant.counterexample
        assert cx["psi.diag"] != cx["T(diag)"]
        # the reported witness replays: a fair coin copied independently
        # disagrees with the diagonal copy
        lhs, rhs = relevance_sides(fin_distribution(), cx["value"])
        assert (lhs, rhs) == (cx["psi.diag"], cx["T(diag)"])
        assert cx["value"] == Dist({"a": F(1, 2), "b": F(1, 2)})


class TestCascade:
    def test_identity_fast_path(self, profiles):
        e = equation(x, x)
        v = check_preservation(fin_powerset(), e, profiles["P"], X, B)
        assert v.status == PRESERVED_SYNTACTIC and v.theorem == THM_IDENTITY

    def test_linear_equations_always_preserved(self, profiles):
        for name, T in [
            ("P", fin_powerset()),
            ("M", multiset()),
            ("D", fin_distribution()),
        ]:
            for e in monoid_theory().equations:
                v = check_preservation(T, e, profiles[name], X, B)
                assert v.status == PRESERVED_SYNTACTIC
                assert v.theorem == THM_LINEAR

    def test_affine_dropping_preserved_by_distribution(self, profiles):
        e = next(
            e
            for e in idem_semiring_theory().equations
            if e.name == "absorb-right(;,abort)"
        )
        v = check_preservation(fin_distribution(), e, profiles["D"], X, B)
        assert v.status == PRESERVED_SYNTACTIC and v.theorem == THM_AFFINE

    def test_powerset_falsifies_idempotence(self, profiles):
        e = next(e for e in semilattice_theory().equations if e.name == "idem(+)")
        v = check_preservation(
            fin_powerset(), e, profiles["P"], X, B, theory=semilattice_theory()
        )
        assert v.status == FALSIFIED
        assert v.counterexample is not None
        assert v.evidence == (profiles["P"].relevant, profiles["P"].affine)

    def test_distribution_verdicts_on_idem_semiring(self, profiles):
        theory = idem_semiring_theory()
        D = fin_distribution()
        dropped = set()
        for e in theory.equations:
            v = check_preservation(D, e, profiles["D"], X, B, theory=theory)
            assert v.status != UNKNOWN, e.name
            if not v.preserved:
                dropped.add(e.name)
        assert dropped == {"idem(+)", "distrib-left(;,+)", "distrib-right(;,+)"}

    def test_falsification_reports_a_concrete_witness(self, profiles):
        theory = idem_semiring_theory()
        e = next(e for e in theory.equations if e.name == "idem(+)")
        v = check_preservation(fin_distribution(), e, profiles["D"], X, B, theory=theory)
        assert v.status == FALSIFIED
        assert v.counterexample["lhs"] != v.counterexample["rhs"]

    def test_non_symmetric_profile_refuses(self, profiles):
        broken = MonadProfile(
            symmetric=ProbeResult("FAILS", {"lhs": 0, "rhs": 1}),
            relevant=profiles["P"].relevant,
            affine=profiles["P"].affine,
        )
        with pytest.raises(NonSymmetricMonadError):
            check_preservation(fin_powerset(), equation(app(PLUS, x, y), x), broken, X, B)


class TestEnumerateAlgebras:
    def test_all_models_satisfy_the_theory(self):
        algebras = list(enumerate_algebras(semilattice_theory(), 2))
        assert algebras
        from effectlayers.terms import find_violation

        for A in algebras:
            for e in semilattice_theory().equations:
                assert find_violation(A, e, ()) is None

    def test_singleton_carrier_is_trivial(self):
        assert list(enumerate_algebras(monoid_theory(), 1))
