import itertools
from dataclasses import replace
from fractions import Fraction as F
from pathlib import Path

import pytest

from effectlayers import pipeline, preservation
from effectlayers.distlaw import verify_monoidal
from effectlayers.monads import (
    Bound,
    InnerOnlyMonadError,
    MonadInstance,
    fin_distribution,
    fin_powerset,
    lift,
    multiset,
    symmetry_witness,
)
from effectlayers.preservation import (
    FALSIFIED,
    PRESERVED_SYNTACTIC,
    THM_AFFINE,
    THM_CARTESIAN,
    THM_IDENTITY,
    THM_LINEAR,
    THM_RELEVANT,
    UNKNOWN,
    NonSymmetricMonadError,
    _algebra_table,
    check_preservation,
    enumerate_algebras,
    profile_monad,
)
from effectlayers.pipeline import compose_stack
from effectlayers.specfile import parse_spec
from effectlayers.terms import (
    FAIL,
    FiniteAlgebra,
    OpSymbol,
    Signature,
    Theory,
    Var,
    app,
    equation,
    find_violation,
)
from effectlayers.theories import (
    INNER_SEED,
    OUTER,
    PLUS,
    LayerSpec,
    comm_monoid_theory,
    convex_theory,
    idem_semiring_theory,
    monoid_theory,
    semilattice_theory,
    semiring_theory,
    two_monoids_absorption_theory,
)
from effectlayers.values import sort_values
from test_planted import biased_psi
from test_terms import prepare_indices

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

    def test_non_symmetric_profile_refuses(self):
        with pytest.raises(NonSymmetricMonadError):
            profile_monad(biased_psi(fin_powerset()), X, B)


class TestOneProfile:
    def test_the_profile_enumerates_the_fragment_once(self):
        P = fin_powerset()
        calls = []

        def counting(carrier, b):
            calls.append((carrier, b))
            return P.enumerate(carrier, b)

        profile_monad(replace(P, enumerate=counting), X, B)
        assert calls == [(X, B)]

    def test_a_non_symmetric_monad_is_an_inner_only_monad(self):
        with pytest.raises(InnerOnlyMonadError):
            profile_monad(biased_psi(fin_powerset()), X, B)

    def test_a_seed_without_equations_still_refuses_a_non_symmetric_monad(self, monkeypatch):
        choice = semilattice_theory()
        original = pipeline.quotient_monad

        def planted(theory, kind=None, bound=None):
            S = original(theory, kind, bound=bound)
            return replace(S, monad=biased_psi(S.monad)) if theory is choice else S

        monkeypatch.setattr(pipeline, "quotient_monad", planted)
        seed = LayerSpec("free", Theory(Signature((SEQ,)), ()), "GENERIC", INNER_SEED)
        outer = LayerSpec("choice", choice, "SEMILATTICE", OUTER)
        with pytest.raises(NonSymmetricMonadError):
            compose_stack([seed, outer], atoms=X, bound=B, build_laws=False)

    def test_sym_fails_with_the_profiles_witness(self):
        T = biased_psi(fin_powerset())
        (sym,) = [r for r in verify_monoidal(T, X, B) if r.axiom == "SYM"]
        assert sym.status == FAIL
        w = sym.counterexample
        assert w == symmetry_witness(T)(w["u"], w["v"])
        assert w["T(swap).psi"] != w["psi.swap"]


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
        A = FiniteAlgebra(carrier, interp)
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


def _restaging_search(theory: Theory, carrier_size: int):
    """The backtracking search with one algebra per partial assignment,
    each staging the equations due at its depth afresh."""
    ops = theory.signature.ops
    if any(o.param for o in ops):
        return
    carrier = tuple(range(carrier_size))
    position = {o.name: i for i, o in enumerate(ops)}
    due = [[] for _ in range(len(ops) + 1)]
    for e in theory.equations:
        used = [position[o.name] for o in preservation._signature_of(e).ops]
        due[max(used, default=-1) + 1].append(e)
    tables = []
    for o in ops:
        inputs = list(itertools.product(carrier, repeat=o.arity))
        tables.append(
            [dict(zip(inputs, outs))
             for outs in itertools.product(carrier, repeat=len(inputs))]
        )

    def search(interp: dict, depth: int):
        A = FiniteAlgebra(carrier, interp)
        if any(find_violation(A, e, ()) is not None for e in due[depth]):
            return
        if depth == len(ops):
            yield A
            return
        for t in tables[depth]:
            fn = (lambda table: (lambda args, param=None: table[args]))(t)
            yield from search(interp | {ops[depth].name: fn}, depth + 1)

    yield from search({}, 0)


# On carrier 3 a theory with two binary operations has 19,683 tables for
# the second after each model of the first, and the reference takes 14-24 s
# on one; those four are compared on carriers 1 and 2.
_TWO_BINARY = {
    "idem_semiring_theory", "semiring_theory", "two_monoids_absorption_theory",
    "stage-2 inner theory",
}


_SEARCH_CASES = [
    (n, m, size)
    for n, m in _DIFFERENTIAL_THEORIES
    for size in (1, 2, 3)
    if size < 3 or n not in _TWO_BINARY
]


@pytest.mark.parametrize(
    "make, size",
    [(m, size) for _, m, size in _SEARCH_CASES],
    ids=[f"{n}-{size}" for n, _, size in _SEARCH_CASES],
)
def test_model_search_matches_the_restaging_search(make, size):
    theory = make()
    sig = theory.signature
    got = [_algebra_table(A, sig) for A in enumerate_algebras(theory, size)]
    want = [_algebra_table(A, sig) for A in _restaging_search(theory, size)]
    assert got == want


def test_model_search_stages_each_equation_side_once(monkeypatch):
    """One algebra serves the whole search, and its staged-term cache holds
    each equation side once, however many candidates were checked."""
    searched = {}
    stage = FiniteAlgebra.stage

    def recording(A, t, param_env=None):
        searched[id(A)] = A
        return stage(A, t, param_env)

    monkeypatch.setattr(FiniteAlgebra, "stage", recording)
    theory = two_monoids_absorption_theory()
    assert list(enumerate_algebras(theory, 2))
    (A,) = searched.values()
    sides = {id(t) for e in theory.equations for t in (e.lhs, e.rhs)}
    assert len(A.staged) == len(sides)


def _recorded_searches(monkeypatch):
    """Each `enumerate_algebras` search from now on, as its (theory name,
    carrier size) and the number of models it has built so far."""
    runs = []
    search = preservation.enumerate_algebras

    def recorded(theory, size):
        run = [(theory.name, size), 0]
        runs.append(run)
        for A in search(theory, size):
            run[1] += 1
            yield A

    monkeypatch.setattr(preservation, "enumerate_algebras", recorded)
    return runs


def test_a_shared_search_runs_once_as_far_as_it_is_read(monkeypatch):
    """Readers of one (theory, size) get one search's models in its order,
    and no model is built before some reader asks for it."""
    fresh = {
        (make, size): [_algebra_table(A, make().signature) for A in enumerate_algebras(make(), size)]
        for make in (semilattice_theory, monoid_theory)
        for size in (1, 2)
    }
    runs = _recorded_searches(monkeypatch)
    shared = preservation.shared_search()
    for (make, size), want in fresh.items():
        theory = make()
        first = shared(theory, size)
        head = next(first)
        assert runs[-1] == [(theory.name, size), 1]  # nothing is built ahead
        whole = list(shared(theory, size))
        assert whole[0] is head and list(first) == whole[1:]
        assert [_algebra_table(A, theory.signature) for A in whole] == want
    assert runs == [[(make().name, size), len(want)] for (make, size), want in fresh.items()]


def test_a_stage_shares_its_model_searches(monkeypatch):
    """`check` of the shipped spec searches each (theory, carrier size)
    once, builds as many models as the furthest of its unshared searches
    did, and gives the same verdicts."""
    runs = _recorded_searches(monkeypatch)
    shared = _check_shipped_spec(2)
    shared_runs = list(runs)
    monkeypatch.setattr(pipeline, "shared_search", lambda: preservation.enumerate_algebras)
    runs.clear()
    unshared = _check_shipped_spec(2)
    assert [s.verdicts for s in shared.stages] == [s.verdicts for s in unshared.stages]
    built = {}
    for key, n in runs:
        built[key] = max(built.get(key, 0), n)
    assert len(runs) == 6 and sorted(shared_runs) == sorted([k, n] for k, n in built.items())


# ---------------------------------------------------------------------------
# test-only outer monads: the two profiles no monad in the package has

def maybe_monad() -> MonadInstance:
    """Maybe, Nothing as `()` and Just x as `(x,)`: commutative and
    relevant (copying Just x gives Just (x, x)), not affine (T(!) keeps
    Nothing apart from η(()))."""
    return MonadInstance(
        name="maybe",
        unit=lambda x: (x,),
        map=lambda f, v: tuple(map(f, v)),
        mult=lambda vv: vv[0] if vv else (),
        lift=lambda f, vs: (f(tuple(v[0] for v in vs)),) if all(vs) else (),
        enumerate=lambda X, b: [()] + [(x,) for x in sort_values(X)],
    )


def identity_monad() -> MonadInstance:
    """The identity monad: commutative, relevant and affine."""
    return MonadInstance(
        name="identity",
        unit=lambda x: x,
        map=lambda f, v: f(v),
        mult=lambda v: v,
        lift=lambda f, vs: f(tuple(vs)),
        enumerate=lambda X, b: sort_values(X),
    )


SEQ = OpSymbol(";", 2)


class TestRelevantOuterMonads:
    """The theorems that need a relevant T, reached through the test-only
    monads (no outer monad in the package is relevant)."""

    def test_maybe_preserves_a_balanced_equation_by_relevance(self):
        T = maybe_monad()
        v = check_preservation(T, equation(app(PLUS, x, x), x), profile_monad(T, X, B), X, B)
        assert v.status == PRESERVED_SYNTACTIC and v.theorem == THM_RELEVANT

    def test_identity_preserves_a_general_equation_as_cartesian(self):
        T = identity_monad()
        e = equation(app(SEQ, x, x), app(SEQ, y, y))
        v = check_preservation(T, e, profile_monad(T, X, B), X, B)
        assert v.status == PRESERVED_SYNTACTIC and v.theorem == THM_CARTESIAN

    def test_maybe_cannot_drop_a_variable(self):
        # x;y = x is affine-safe, but Maybe is not affine: Just 0 ; Nothing
        # is Nothing, not Just 0
        T = maybe_monad()
        v = check_preservation(T, equation(app(SEQ, x, y), x), profile_monad(T, X, B), X, B)
        assert v.status == FALSIFIED and not v.preserved
        assert v.fragment == "lifted algebra on carrier size 1"


# ---------------------------------------------------------------------------
# the residual squares follow from the profile

_AGREEMENT_MONADS = (fin_powerset, multiset, fin_distribution, maybe_monad, identity_monad)
_AGREEMENT_PROFILES = {  # (relevant, affine)
    "powerset": (False, False),
    "multiset": (False, False),
    "distribution": (False, True),
    "maybe": (True, False),
    "identity": (True, True),
}


def _operation_sides():
    """An operation of arity k applied to k occurrences of x, y, z, k = 1..3."""
    ops = {k: OpSymbol(f"f{k}", k) for k in (1, 2, 3)}
    for k, op in ops.items():
        for occurrences in itertools.product((x, y, Var("z")), repeat=k):
            yield app(op, *occurrences)


def _agreement_equations():
    """Every equation between two operation sides, with its own context and
    with one unused context variable appended."""
    sides = list(_operation_sides())
    for lhs, rhs in itertools.product(sides, repeat=2):
        e = equation(lhs, rhs)
        yield e
        yield equation(lhs, rhs, context=(*e.context, "w"))


def _square_commutes(T, idx, n, values) -> bool:
    """ψ^(k) after the rearrangement `idx` equals T(rearrange) after ψ^(n),
    on every n-tuple of `values`."""
    for tup in itertools.product(values, repeat=n):
        left = lift(T, tuple, [tup[i] for i in idx])
        right = T.map(lambda xs: tuple(xs[i] for i in idx), lift(T, tuple, tup))
        if left != right:
            return False
    return True


@pytest.mark.parametrize("make", _AGREEMENT_MONADS, ids=lambda m: m.__name__)
def test_squares_follow_from_the_profile(make, monkeypatch):
    """For a symmetric T, the square of a side with index map `idx` over a
    context of n variables commutes iff (`idx` is injective or T is
    relevant) and (`idx` is onto or T is affine).  So the squares decide
    nothing the syntactic theorems leave open: whenever no theorem applies,
    some side that is not the identity fails its square."""
    T, b = make(), Bound()
    profile = profile_monad(T, X, b)
    assert profile.symmetric.ok
    relevant, affine = profile.relevant.ok, profile.affine.ok
    assert (relevant, affine) == _AGREEMENT_PROFILES[T.name]
    # brute force finds nothing: a verdict is PRESERVED_SYNTACTIC or UNKNOWN
    monkeypatch.setattr(preservation, "_lifted_models", lambda *args: iter(()))
    values = T.enumerate(X, b)
    equations = list(_agreement_equations())
    assert len(equations) == 2 * 39 * 39  # 39 sides: 3 + 3**2 + 3**3
    squares = {}
    undecided = 0
    for e in equations:
        n = len(e.context)
        commutes = {}
        for side in (e.lhs, e.rhs):
            idx = prepare_indices(side, e.context)
            if (idx, n) not in squares:
                squares[idx, n] = _square_commutes(T, idx, n, values)
            rule = (len(set(idx)) == len(idx) or relevant) and (
                set(idx) == set(range(n)) or affine
            )
            assert squares[idx, n] == rule, (T.name, e.describe(), idx)
            commutes[idx] = squares[idx, n]
        v = check_preservation(T, e, profile, X, b)
        if v.status != PRESERVED_SYNTACTIC:
            assert v.status == UNKNOWN
            undecided += 1
            identity = tuple(range(n))
            assert any(not ok and idx != identity for idx, ok in commutes.items()), (
                T.name,
                e.describe(),
            )
    # the identities and the theorems' equations never reach brute force
    decided = {"powerset": 150, "multiset": 150, "distribution": 498, "maybe": 510}
    assert undecided == len(equations) - decided.get(T.name, len(equations))
