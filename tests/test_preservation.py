import itertools
from fractions import Fraction as F
from pathlib import Path

import pytest

from effectlayers import preservation
from effectlayers.monads import Bound, fin_distribution, fin_powerset, multiset
from effectlayers.preservation import (
    FALSIFIED,
    PRESERVED_SYNTACTIC,
    THM_AFFINE,
    THM_IDENTITY,
    THM_LINEAR,
    UNKNOWN,
    NonSymmetricMonadError,
    MonadProfile,
    _algebra_table,
    check_preservation,
    enumerate_algebras,
    profile_monad,
    residual_commutes,
)
from effectlayers.pipeline import compose_stack
from effectlayers.render import render_term
from effectlayers.specfile import parse_spec
from effectlayers.terms import (
    FAIL,
    FiniteAlgebra,
    LawReport,
    OpSymbol,
    Signature,
    Theory,
    Var,
    app,
    equation,
    find_violation,
    prepare_indices,
)
from effectlayers.theories import (
    PLUS,
    comm_monoid_theory,
    convex_theory,
    idem_semiring_theory,
    monoid_theory,
    semilattice_theory,
    semiring_theory,
    two_monoids_absorption_theory,
)

BUILDER_THEORIES = (
    monoid_theory,
    semilattice_theory,
    comm_monoid_theory,
    convex_theory,
    idem_semiring_theory,
    semiring_theory,
    two_monoids_absorption_theory,
)
SHIPPED_SPEC = Path(__file__).resolve().parent.parent / "specs" / "probnetkat.layers"

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
        assert all(p.symmetric.ok for p in profiles.values())

    def test_none_relevant(self, profiles):
        # copying a two-point set/multiset/coin never factors through the
        # diagonal, and every probe must carry a witness
        for p in profiles.values():
            assert not p.relevant.ok
            assert p.relevant.counterexample is not None

    def test_only_distribution_is_affine(self, profiles):
        assert not profiles["P"].affine.ok
        assert not profiles["M"].affine.ok
        assert profiles["D"].affine.ok

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
            symmetric=LawReport("symmetric", FAIL, {"lhs": 0, "rhs": 1}),
            relevant=profiles["P"].relevant,
            affine=profiles["P"].affine,
        )
        with pytest.raises(NonSymmetricMonadError):
            check_preservation(fin_powerset(), equation(app(PLUS, x, y), x), broken, X, B)


class TestEnumerateAlgebras:
    def test_all_models_satisfy_the_theory(self):
        algebras = list(enumerate_algebras(semilattice_theory(), 2))
        assert algebras
        for A in algebras:
            for e in semilattice_theory().equations:
                assert find_violation(A, e, ()) is None

    def test_singleton_carrier_is_trivial(self):
        assert list(enumerate_algebras(monoid_theory(), 1))

    def test_equation_without_operations_is_checked_at_the_root(self):
        theory = Theory(Signature(()), (equation(x, y),))
        assert len(list(enumerate_algebras(theory, 1))) == 1
        assert list(enumerate_algebras(theory, 2)) == []


def _product_then_filter(theory: Theory, carrier_size: int):
    """The reference search: build every complete algebra, then keep those
    that satisfy each equation."""
    if any(o.param for o in theory.signature.ops):
        return
    carrier = tuple(range(carrier_size))
    ops = theory.signature.ops
    tables = []
    for o in ops:
        inputs = list(itertools.product(carrier, repeat=o.arity))
        tables.append(
            [dict(zip(inputs, outs))
             for outs in itertools.product(carrier, repeat=len(inputs))]
        )
    for combo in itertools.product(*tables):
        interp = {
            o.name: (lambda table: (lambda args, param=None: table[args]))(t)
            for o, t in zip(ops, combo)
        }
        A = FiniteAlgebra(carrier, interp, name=f"carrier{carrier_size}")
        if all(find_violation(A, e, ()) is None for e in theory.equations):
            yield A


def _check_shipped_spec(stages: int):
    """The shipped spec's first `stages` outer layers composed as `check`
    composes them: preservation verdicts, no laws."""
    spec = parse_spec(SHIPPED_SPEC.read_text())
    return compose_stack(
        spec.layers[: stages + 1], atoms=spec.atoms, bound=Bound(), build_laws=False
    )


def _stage_two_inner_theory():
    return _check_shipped_spec(1).stages[0].combined


_C, _K = OpSymbol("c", 0), OpSymbol("k", 0)
_DIFFERENTIAL_THEORIES = [
    *((f.__name__, f) for f in BUILDER_THEORIES),
    ("stage-2 inner theory", _stage_two_inner_theory),
    ("x = y", lambda: Theory(Signature(()), (equation(x, y),))),
    (
        "nullary operations only",
        lambda: Theory(Signature((_C, _K)), (equation(app(_K), app(_C)),)),
    ),
]


@pytest.mark.parametrize(
    "make", [m for _, m in _DIFFERENTIAL_THEORIES],
    ids=[n for n, _ in _DIFFERENTIAL_THEORIES],
)
@pytest.mark.parametrize("size", (1, 2))
def test_model_search_matches_product_then_filter(make, size):
    theory = make()
    sig = theory.signature
    got = [_algebra_table(A, sig) for A in enumerate_algebras(theory, size)]
    want = [_algebra_table(A, sig) for A in _product_then_filter(theory, size)]
    assert got == want


@pytest.mark.parametrize(
    "T", [fin_powerset(), multiset(), fin_distribution()], ids=lambda T: T.name
)
def test_identity_rearrangement_squares_commute(T):
    """The residual check skips a side whose rearrangement is the identity,
    because T(id) = id makes its square commute."""
    checked = 0
    for make in BUILDER_THEORIES:
        for e in make().equations:
            for side in (e.lhs, e.rhs):
                if prepare_indices(side, e.context) != tuple(range(len(e.context))):
                    continue
                assert residual_commutes(T, side, e.context, X, Bound()).ok
                checked += 1
    assert checked


def test_stage_two_checks_only_non_identity_squares(monkeypatch):
    """The shipped spec's stage 2 runs the residual square only on the
    sides that duplicate or reorder variables."""
    calls = []

    def spy(T, t, V, X, b):
        calls.append((T.name, render_term(t)))
        return residual_commutes(T, t, V, X, b)

    monkeypatch.setattr(preservation, "residual_commutes", spy)
    _check_shipped_spec(2)
    stage_two = {t for name, t in calls if name == "distribution"}
    assert stage_two == {"x + x", "y1;x2 + y2;x2", "x1;y1 + x1;y2"}
