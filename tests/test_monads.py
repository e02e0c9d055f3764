from dataclasses import replace
from fractions import Fraction as F
from itertools import product
from math import comb

import pytest

from effectlayers import normal_forms
from effectlayers.monads import (
    Bound,
    BoundExplosionError,
    InnerOnlyMonadError,
    fin_distribution,
    fin_powerset,
    free_monoid,
    free_term_monad,
    lift,
    multiset,
)
from effectlayers.distlaw import verify_monad, verify_monoidal
from effectlayers.normal_forms import quotient_monad
from effectlayers.theories import (
    convex_theory,
    monoid_theory,
    two_monoids_absorption_theory,
)
from effectlayers.values import Dist, MultiSet, SumAtom

GRID3 = (F(0), F(1, 2), F(1))
GRID5 = (F(0), F(1, 4), F(1, 2), F(3, 4), F(1))
B = Bound(max_word_len=2, max_set_size=3, max_multiplicity=2, prob_grid=GRID3)


def outer_monads():
    return [fin_powerset(), multiset(), fin_distribution()]


class TestBound:
    def test_grid_must_be_symmetric(self):
        with pytest.raises(ValueError):
            Bound(prob_grid=(F(0), F(1, 3), F(1)))

    def test_grid_refuses_floats(self):
        with pytest.raises(ValueError, match="0.5"):
            Bound(prob_grid=(0, 0.5, 1))

    def test_grid_must_not_be_empty(self):
        # an equation with a parameter would hold vacuously on no weight
        with pytest.raises(ValueError, match="prob_grid"):
            Bound(prob_grid=())

    def test_shrink_is_idempotent(self):
        assert B.shrink().shrink() == B.shrink()

    def test_ceiling_guard(self):
        tight = Bound(max_set_size=4, prob_grid=GRID5, ceiling=5)
        with pytest.raises(BoundExplosionError):
            fin_powerset().enumerate(tuple("abcdefgh"), tight)


class TestMonadLaws:
    @pytest.mark.parametrize("T", outer_monads() + [free_monoid()], ids=lambda t: t.name)
    def test_laws_on_three_elements(self, T):
        reports = verify_monad(T, ("a", "b", "c"), B)
        assert all(r.ok for r in reports), [r.axiom for r in reports if not r.ok]

    def test_term_monad_laws(self):
        T = free_term_monad(monoid_theory().signature)
        reports = verify_monad(
            T, ("a", "b"), Bound(max_set_size=4, prob_grid=GRID5, max_term_depth=2)
        )
        assert all(r.ok for r in reports)


class TestMonoidalStructure:
    @pytest.mark.parametrize("T", outer_monads(), ids=lambda t: t.name)
    def test_coherence_diagrams(self, T):
        reports = verify_monoidal(T, ("a", "b", "c"), B)
        assert all(r.ok for r in reports), [r.axiom for r in reports if not r.ok]

    def test_inner_only_monads_refuse_fubini(self):
        with pytest.raises(InnerOnlyMonadError):
            free_monoid().require_outer()
        with pytest.raises(InnerOnlyMonadError):
            verify_monoidal(free_monoid(), ("a",), B)


class TestFubini:
    def test_powerset_is_cartesian_product(self):
        P = fin_powerset()
        u, v = frozenset({"a"}), frozenset({"b", "c"})
        assert P.fubini(u, v) == frozenset({("a", "b"), ("a", "c")})

    def test_distribution_is_product_measure(self):
        D = fin_distribution()
        d1 = Dist({"x": F(1, 2), "y": F(1, 2)})
        d2 = Dist.dirac("z")
        assert D.fubini(d1, d2) == Dist({("x", "z"): F(1, 2), ("y", "z"): F(1, 2)})

    def test_multiset_multiplicities_multiply(self):
        M = multiset()
        m1 = MultiSet(["a", "a"])
        m2 = MultiSet(["b"])
        assert M.fubini(m1, m2) == MultiSet([("a", "b"), ("a", "b")])

    @pytest.mark.parametrize("T", outer_monads(), ids=lambda t: t.name)
    def test_iterated_fubini_produces_flat_tuples(self, T):
        vals = [T.unit("a"), T.unit("b"), T.unit("c")]
        assert lift(T, tuple, vals) == T.unit(("a", "b", "c"))


TERMS = free_term_monad(monoid_theory().signature)


def naive_psi(T, u, v):
    """Binary psi of each outer monad, from its definition."""
    if T.name == "powerset":
        return frozenset((x, y) for x in u for y in v)
    if T.name == "multiset":
        return MultiSet({(x, y): i * j for x, i in u.items() for y, j in v.items()})
    return Dist({(x, y): p * q for x, p in u.items() for y, q in v.items()})


def naive_flatten(T, tt):
    if T.name == "powerset":
        return frozenset(x for u in tt for x in u)
    if T.name == "multiset":
        counts = {}
        for inner, n in tt.items():
            for x, k in inner.items():
                counts[x] = counts.get(x, 0) + n * k
        return MultiSet(counts)
    return Dist([(x, w * p) for inner, w in tt.items() for x, p in inner.items()])


def left_nested_psi(T, values):
    """psi^(k) as the left-nested iterate of binary psi from eta(())."""
    acc = T.unit(())
    for v in values:
        acc = T.map(lambda p: p[0] + (p[1],), naive_psi(T, acc, v))
    return acc


class TestLiftKernels:
    """Each outer monad's one-pass kernel against psi^(k) built from its
    definition, and the exact point-mass shortcuts of the distributions."""

    @pytest.mark.parametrize("k", [0, 1, 2, 3])
    @pytest.mark.parametrize("T", outer_monads(), ids=lambda t: t.name)
    def test_kernel_is_the_map_of_iterated_binary_psi(self, T, k):
        TX = T.enumerate(("a", "b"), B)

        def merge(xs):  # many tuples, one image
            return xs.count("a")

        for vs in product(TX, repeat=k):
            psi = left_nested_psi(T, vs)
            assert lift(T, tuple, vs) == psi
            assert lift(T, merge, vs) == T.map(merge, psi)
        if k == 2:
            for u, v in product(TX, repeat=2):
                assert T.fubini(u, v) == naive_psi(T, u, v)

    @pytest.mark.parametrize("T", outer_monads(), ids=lambda t: t.name)
    def test_mult_is_the_naive_flatten(self, T):
        TX = T.enumerate(("a", "b"), B)
        for tt in T.enumerate(TX, B.shrink()):
            assert T.mult(tt) == naive_flatten(T, tt)

    def test_mult_of_a_point_mass_is_its_distribution(self):
        D = fin_distribution()
        for d in D.enumerate(("a", "b"), B):
            assert D.mult(Dist.dirac(d)) is d

    def test_a_multiset_of_one_element_keeps_its_count(self):
        # a one-element multiset is no point mass: count 2 doubles the counts
        M, two = multiset(), MultiSet({"a": 2})
        assert lift(M, tuple, (two,)) == MultiSet({("a",): 2})
        for m in M.enumerate(("a", "b"), B):
            pairs = {(x, y): 2 * n for x, _ in two.items() for y, n in m.items()}
            assert lift(M, tuple, (two, m)) == MultiSet(pairs)
            assert M.mult(MultiSet({m: 2})) == MultiSet({x: 2 * n for x, n in m.items()})

    @pytest.mark.parametrize("T", outer_monads(), ids=lambda t: t.name)
    def test_coherence_at_the_default_bound(self, T):
        reports = verify_monoidal(T, ("a", "b", "c"), Bound())
        assert all(r.ok for r in reports), [r.axiom for r in reports if not r.ok]

    @pytest.mark.parametrize(
        "T, v", [(free_monoid(), ("a", "b")), (TERMS, TERMS.unit("a"))], ids=["word", "terms"]
    )
    def test_inner_only_monads_lift_only_up_to_one_argument(self, T, v):
        assert lift(T, len, ()) == T.unit(0)
        assert lift(T, lambda xs: xs, (v,)) == T.map(lambda x: (x,), v)
        with pytest.raises(InnerOnlyMonadError):
            lift(T, tuple, (v, v))
        with pytest.raises(InnerOnlyMonadError):
            lift(T, tuple, (v, v, v))


class TestEnumerators:
    def test_deterministic_order(self):
        for T in outer_monads():
            assert T.enumerate(("b", "a"), B) == T.enumerate(("a", "b"), B)

    def test_distribution_grid_on_two_elements(self):
        D = fin_distribution()
        dists = D.enumerate(("a", "b"), B)
        assert Dist({"a": F(1, 2), "b": F(1, 2)}) in dists
        assert len(dists) == 3
        assert all(sum(w for _, w in d.items()) == 1 for d in dists)


def _words(n, max_len):
    return sum(n**k for k in range(max_len + 1))


def _two_monoid_count(n, b):
    """Closed-form count of two-monoid normal forms over n plain atoms."""
    nested = 0
    if b.max_term_depth >= 2:
        nb = b.shrink()
        inner = _words(n, nb.max_word_len)
        # multisets of total >= 2 over the inner words become nested sums
        nested = comb(inner + nb.max_set_size, nb.max_set_size) - 1 - inner
    # a lone nested sum is not a word
    words = _words(n + nested, b.max_word_len) - nested
    return comb(words + b.max_set_size, b.max_set_size)


def _term_count(sig, n, b):
    """Count of free terms up to the bound's depth: a term of depth <= d is
    a leaf or an operation applied to terms of depth <= d - 1."""
    grid = len(b.prob_grid)
    leaves = n + sum(grid if o.param else 1 for o in sig.ops if o.arity == 0)
    count = leaves
    for _ in range(b.max_term_depth - 1):
        count = leaves + sum(
            count**o.arity * (grid if o.param else 1) for o in sig.ops if o.arity
        )
    return count


TWO_MONOIDS = quotient_monad(two_monoids_absorption_theory()).monad
TM1 = Bound(max_word_len=2, max_set_size=2, max_term_depth=1, prob_grid=GRID3)
TM2_SMALL = Bound(max_word_len=1, max_set_size=3, max_term_depth=2, prob_grid=GRID3)
T2 = Bound(max_term_depth=2, prob_grid=GRID3)
T3 = Bound(max_term_depth=3, prob_grid=GRID3)

# (name, monad, bound, closed-form count over n atoms); bounds keep every
# enumeration below a few thousand values
COUNTED = [
    ("word", free_monoid(), B, lambda n, b: _words(n, b.max_word_len)),
    (
        "powerset",
        fin_powerset(),
        B,
        lambda n, b: sum(comb(n, k) for k in range(min(n, b.max_set_size) + 1)),
    ),
    (
        "multiset",
        multiset(),
        B,
        lambda n, b: sum(
            comb(n, k) * b.max_multiplicity**k
            for k in range(min(n, b.max_set_size) + 1)
        ),
    ),
    ("two-monoids depth 1", TWO_MONOIDS, TM1, _two_monoid_count),
    ("two-monoids depth 2", TWO_MONOIDS, TM2_SMALL, _two_monoid_count),
    (
        "terms(seq,skip)",
        free_term_monad(monoid_theory().signature),
        T2,
        lambda n, b: _term_count(monoid_theory().signature, n, b),
    ),
    (
        "terms(seq,skip) depth 3",
        free_term_monad(monoid_theory().signature),
        T3,
        lambda n, b: _term_count(monoid_theory().signature, n, b),
    ),
    (
        "terms(oplus)",
        free_term_monad(convex_theory().signature),
        T2,
        lambda n, b: _term_count(convex_theory().signature, n, b),
    ),
]


class TestClosedFormCounts:
    """Each enumerator refuses exactly when its closed-form size exceeds the
    ceiling, and reports that size."""

    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize(
        "T,b,count", [c[1:] for c in COUNTED], ids=[c[0] for c in COUNTED]
    )
    def test_count_is_exact_and_decides_refusal(self, T, b, count, n):
        X = tuple("abc"[:n])
        expected = count(n, b)
        assert len(T.enumerate(X, replace(b, ceiling=10**12))) == expected
        assert len(T.enumerate(X, replace(b, ceiling=expected))) == expected
        with pytest.raises(BoundExplosionError) as exc:
            T.enumerate(X, replace(b, ceiling=expected - 1))
        assert exc.value.count == expected

    def test_deeper_terms_extend_the_shallower_universe(self):
        T = free_term_monad(monoid_theory().signature)
        deep = T.enumerate(("a", "b"), T3)
        shallow = T.enumerate(("a", "b"), T2)
        assert deep[: len(shallow)] == shallow
        assert len(set(deep)) == len(deep) == 147

    def test_nested_sums_reach_the_counted_fragment(self):
        b = Bound(max_word_len=2, max_set_size=2, max_term_depth=2, prob_grid=GRID3)
        values = TWO_MONOIDS.enumerate(("a",), b)
        assert len(values) == _two_monoid_count(1, b) == 1378
        assert any(
            isinstance(atom, SumAtom)
            for v in values
            for word in v
            for atom in word
        )

    def test_refused_two_monoid_enumeration_builds_nothing(
        self, small_bound, monkeypatch
    ):
        built = []

        class CountingMultiSet(normal_forms.MultiSet):
            __slots__ = ()

            def __init__(self, items=()):
                built.append(1)
                super().__init__(items)

        monkeypatch.setattr(normal_forms, "MultiSet", CountingMultiSet)
        b = replace(small_bound, ceiling=20_000)
        with pytest.raises(BoundExplosionError) as exc:
            TWO_MONOIDS.enumerate(("a", "b"), b)
        assert exc.value.count == 123_536_120 == _two_monoid_count(2, b)
        assert built == []


def assert_valid(v):
    """`v`, built without the constructor's checks, passes them: it equals
    the validating constructor's value on its own pairs."""
    pairs = v.items()
    if isinstance(v, MultiSet):
        assert all(type(n) is int and n > 0 for _, n in pairs)
        checked = MultiSet(dict(pairs))
    else:
        assert all(type(w) is F and w > 0 for _, w in pairs)
        assert sum(w for _, w in pairs) == 1
        checked = Dist(pairs)
    assert v == checked and hash(v) == hash(checked)
    assert v.items() == checked.items()


class TestTrustedConstruction:
    """The monad operations build their results without the constructors'
    checks; on small fragments over a and b they agree with the checked path."""

    def test_multiset(self):
        M = multiset()
        MX = M.enumerate(("a", "b"), B)
        for m1 in MX:
            for m2 in MX:
                prod = M.fubini(m1, m2)
                assert_valid(prod)
                assert prod == MultiSet([(x, y) for x in m1 for y in m2])
        for mm in M.enumerate(MX, B):
            flat = M.mult(mm)
            assert_valid(flat)
            assert flat == MultiSet([x for inner in mm for x in inner])

    def test_distribution(self):
        D = fin_distribution()
        b = Bound(max_set_size=4, prob_grid=GRID5)
        DX = D.enumerate(("a", "b"), b)
        DDX = D.enumerate(DX, b)
        for d1 in DX + DDX:
            for d2 in DX + DDX:
                prod = D.fubini(d1, d2)
                assert_valid(prod)
                expected = [
                    ((x, y), p * q) for x, p in d1.items() for y, q in d2.items()
                ]
                assert prod == Dist(expected)
        for dd in DDX:
            flat = D.mult(dd)
            assert_valid(flat)
            expected = [(x, w * v) for inner, w in dd.items() for x, v in inner.items()]
            assert flat == Dist(expected)

    def test_two_monoids(self):
        b = Bound(max_word_len=2, max_set_size=2, max_term_depth=2, prob_grid=GRID3)
        nested = TWO_MONOIDS.enumerate(("a",), b)
        assert any(isinstance(x, SumAtom) for v in nested for w in v for x in w)
        for v in nested:
            assert_valid(TWO_MONOIDS.map(str.upper, v))
        # words of two sums exercise the products of sums
        TX = TWO_MONOIDS.enumerate(("a",), TM1)
        for vv in TWO_MONOIDS.enumerate(TX, TM1):
            assert_valid(TWO_MONOIDS.mult(vv))
