import math
import re
from fractions import Fraction as F
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from effectlayers.monads import fin_distribution, multiset
from effectlayers.normal_forms import _mix, _mix_pair
from effectlayers.render import render_value
from effectlayers.specfile import ValueParseError, parse_program, parse_value
from effectlayers.terms import Const, OpSymbol, Signature, TermError, Var, app
from effectlayers.values import Dist, MultiSet, SumAtom, ValueError_, canon_key, sort_values

GRID5 = (F(0), F(1, 4), F(1, 2), F(3, 4), F(1))
atoms = st.sampled_from(["a", "b", "c"])
words = st.lists(atoms, max_size=3).map(tuple)


@st.composite
def sum_atoms(draw):
    ws = draw(st.lists(words, min_size=2, max_size=3))
    return SumAtom(MultiSet(ws))


sum_words = st.lists(st.one_of(atoms, sum_atoms()), min_size=1, max_size=3).map(tuple)
msets = st.lists(st.one_of(words, sum_words), max_size=3).map(MultiSet)
sets_of_words = st.lists(words, max_size=3).map(frozenset)


@st.composite
def dists(draw, elements=msets):
    support = draw(st.lists(elements, min_size=1, max_size=3, unique=True))
    n = len(support)
    weights = draw(
        st.lists(st.integers(min_value=1, max_value=5), min_size=n, max_size=n)
    )
    total = sum(weights)
    return Dist({v: F(w, total) for v, w in zip(support, weights)})


any_value = st.one_of(words, sum_words, sets_of_words, msets, dists())
nested_msets = st.lists(st.one_of(dists(), sets_of_words), max_size=3).map(MultiSet)
nested_sets = st.lists(st.one_of(msets, dists()), max_size=3).map(frozenset)
nested_values = st.one_of(
    any_value,
    nested_sets,
    st.lists(any_value, max_size=2).map(tuple),
    nested_msets,
)
# The values that read back: tuples of non-atom values are left out, since
# no stack builds them and their "·" join is ambiguous with a word's letters.
readable_values = st.one_of(any_value, nested_sets, nested_msets, dists(dists()))
weighted_values = st.one_of(msets, dists(), nested_msets)


def reference_key(v):
    """`canon_key` without the cached keys: recomputed on every call."""
    if v is None:
        return ("none", (), ())
    if isinstance(v, bool):
        return ("bool", (), v)
    if isinstance(v, int):
        return ("int", (), v)
    if isinstance(v, F):
        return ("frac", (), (v.numerator, v.denominator))
    if isinstance(v, str):
        return ("str", (), v)
    if isinstance(v, tuple):
        return ("tuple", tuple(reference_key(x) for x in v), ())
    if isinstance(v, frozenset):
        return ("set", tuple(sorted(reference_key(x) for x in v)), ())
    if isinstance(v, MultiSet):
        return ("mset", tuple((reference_key(e), n) for e, n in v.items()), ())
    if isinstance(v, Dist):
        return (
            "dist",
            tuple((reference_key(e), (w.numerator, w.denominator)) for e, w in v.items()),
            (),
        )
    if isinstance(v, SumAtom):
        return ("sumatom", (reference_key(v.summands),), ())
    raise TypeError(type(v).__name__)


class TestCanonKey:
    @given(any_value, any_value)
    def test_total_and_antisymmetric(self, u, v):
        ku, kv = canon_key(u), canon_key(v)
        assert (ku < kv) or (kv < ku) or (ku == kv)
        if ku == kv:
            assert u == v

    @given(st.lists(any_value, max_size=6))
    def test_sort_deterministic(self, vs):
        assert sort_values(vs) == sort_values(list(reversed(vs)))


class TestCachedKeys:
    @given(nested_values)
    def test_cached_key_equals_reference(self, v):
        expected = reference_key(v)
        assert canon_key(v) == expected
        sort_values([v, v])
        assert canon_key(v) == expected

    @given(st.lists(nested_values, max_size=6))
    def test_sort_order_unchanged(self, vs):
        assert sort_values(vs) == sorted(vs, key=reference_key)

    @given(st.data(), st.one_of(msets, dists()))
    def test_map_equals_validating_constructor(self, data, v):
        elements = [e for e, _ in v.items()]
        images = data.draw(
            st.lists(nested_values, min_size=len(elements), max_size=len(elements))
        )
        f = dict(zip(elements, images)).__getitem__
        mapped = v.map(f)
        if isinstance(v, Dist):
            checked = Dist([(f(e), w) for e, w in v.items()])
        else:
            checked = MultiSet([f(e) for e in v])
        assert mapped == checked
        assert hash(mapped) == hash(checked)
        assert mapped.items() == checked.items()
        assert canon_key(mapped) == reference_key(checked)


def rebuilt(v, rnd):
    """`v` built afresh, each multiset and distribution from its pairs in a
    shuffled order, so that no cached order, hash or key is shared."""
    if isinstance(v, (MultiSet, Dist)):
        pairs = [(rebuilt(e, rnd), w) for e, w in v.items()]
        rnd.shuffle(pairs)
        return type(v)(dict(pairs))
    if isinstance(v, tuple):
        return tuple(rebuilt(x, rnd) for x in v)
    if isinstance(v, frozenset):
        return frozenset(rebuilt(x, rnd) for x in v)
    if isinstance(v, SumAtom):
        return SumAtom(rebuilt(v.summands, rnd))
    return v


class TestContentIdentity:
    @given(nested_values, st.randoms(use_true_random=False))
    def test_insertion_order_is_invisible(self, v, rnd):
        w = rebuilt(v, rnd)
        assert w == v and hash(w) == hash(v)
        assert canon_key(w) == canon_key(v)
        assert render_value(w) == render_value(v)

    @given(weighted_values, st.randoms(use_true_random=False))
    def test_ordered_view_of_a_shuffled_build(self, v, rnd):
        w = rebuilt(v, rnd)
        hash(w)  # the hash first: it must not need the order
        assert w.items() == v.items()
        if isinstance(v, MultiSet):
            assert list(w) == list(v)

    @given(nested_values, nested_values)
    def test_equal_exactly_when_keys_are_equal(self, u, v):
        assert (u == v) == (canon_key(u) == canon_key(v))
        if u == v:
            assert hash(u) == hash(v)

    @given(weighted_values)
    def test_items_are_sorted_by_canon_key(self, v):
        keys = [canon_key(e) for e, _ in v.items()]
        assert keys == sorted(keys)
        assert len(set(keys)) == len(keys)


# one element of every value shape
shaped_values = st.one_of(atoms, words, sets_of_words, msets, dists())


class TestTrustedConstruction:
    """Point masses and two-point mixtures skip the validating constructors;
    each must be the value those constructors build."""

    @staticmethod
    def assert_same(trusted, checked):
        assert trusted == checked
        assert hash(trusted) == hash(checked)
        assert trusted.items() == checked.items()
        assert canon_key(trusted) == canon_key(checked) == reference_key(checked)

    @given(shaped_values)
    def test_dirac(self, e):
        self.assert_same(Dist.dirac(e), Dist({e: 1}))

    @given(shaped_values)
    def test_multiset_unit(self, e):
        self.assert_same(multiset().unit(e), MultiSet([e]))

    @given(shaped_values, shaped_values)
    def test_mix_pair(self, a, b):
        for other, lam in product((b, a), GRID5):
            self.assert_same(
                _mix_pair(a, other, lam), Dist([(a, lam), (other, 1 - lam)])
            )


# distributions over a few atoms with weights of unlike denominators, so
# that merging, mixing and mu meet numerators with a common factor
small_dists = st.dictionaries(
    atoms, st.integers(min_value=1, max_value=12), min_size=1, max_size=3
).map(lambda ws: Dist({e: F(n, sum(ws.values())) for e, n in ws.items()}))
lams = st.fractions(min_value=0, max_value=1, max_denominator=12)


def ref_collect(pairs):
    """The reference distribution of (element, Fraction) pairs, merged."""
    out = {}
    for e, w in pairs:
        out[e] = out.get(e, 0) + w
    return {e: w for e, w in out.items() if w}


class TestIntegerNumerators:
    """Every kernel keeps a distribution's numerators coprime positive ints
    and agrees with the same operation computed on `Fraction` weights."""

    @staticmethod
    def assert_is(d, reference):
        numerators = list(d._d.values())
        assert all(type(n) is int and n > 0 for n in numerators)
        assert math.gcd(*numerators) == 1
        checked = Dist(reference)  # the same distribution by another route
        assert d == checked and hash(d) == hash(checked)
        weights = d.items()
        assert all(type(w) is F for _, w in weights)
        keys = [canon_key(e) for e, _ in weights]
        assert keys == sorted(keys)
        assert dict(weights) == reference
        assert Dist(weights) == d

    @given(small_dists, st.sampled_from([lambda e: e, lambda e: "z", lambda e: e < "b"]))
    def test_map(self, d, f):
        self.assert_is(d.map(f), ref_collect((f(e), w) for e, w in d.items()))

    @given(st.lists(small_dists, min_size=1, max_size=3, unique=True), st.data())
    def test_mult(self, inner, data):
        outer = data.draw(st.lists(
            st.integers(min_value=1, max_value=12), min_size=len(inner), max_size=len(inner)
        ))
        dd = Dist({d: F(n, sum(outer)) for d, n in zip(inner, outer)})
        reference = ref_collect(
            (x, w * v) for d, w in dd.items() for x, v in d.items()
        )
        self.assert_is(fin_distribution().mult(dd), reference)

    @given(st.lists(small_dists, max_size=3), st.booleans())
    def test_lift(self, ds, merge):
        f = (lambda xs: len(set(xs))) if merge else tuple
        reference = ref_collect(
            (f(tuple(e for e, _ in pick)), math.prod(w for _, w in pick))
            for pick in product(*[d.items() for d in ds])
        )
        self.assert_is(fin_distribution().lift(f, ds), reference)

    @given(atoms, atoms, lams)
    def test_mix_pair(self, a, b, lam):
        self.assert_is(_mix_pair(a, b, lam), ref_collect([(a, lam), (b, 1 - lam)]))

    @given(small_dists, st.integers(min_value=2, max_value=5))
    def test_constructor_merges_repeated_elements(self, d, parts):
        # each weight given as `parts` equal pairs
        split = [(e, w / parts) for e, w in d.items() for _ in range(parts)]
        self.assert_is(Dist(split), dict(d.items()))

    def test_a_float_mixing_weight_is_refused(self):
        with pytest.raises(TermError, match=r"parameter 0\.1 is a float"):
            _mix(("a", "b"), 0.1)
        assert _mix(("a", "b"), "1/10") == Dist({"a": F(1, 10), "b": F(9, 10)})


class TestMultiSet:
    def test_union_and_scale(self):
        m = MultiSet(["x", "y", "x"])
        assert m.union(MultiSet(["y"])) == MultiSet(["x", "x", "y", "y"])

    def test_equality_ignores_insertion_order(self):
        assert MultiSet(["x", "y"]) == MultiSet(["y", "x"])


class TestDist:
    def test_weights_must_sum_to_one(self):
        with pytest.raises(ValueError_):
            Dist({"a": F(1, 2)})

    def test_float_weight_is_refused(self):
        with pytest.raises(ValueError_, match="0.5"):
            Dist({"a": 0.5, "b": 0.5})
        with pytest.raises(ValueError_, match="0.25"):
            Dist([("a", F(3, 4)), ("b", 0.25)])

    def test_zero_weights_are_dropped(self):
        assert Dist({"a": F(1), "b": F(0)}) == Dist.dirac("a")

    def test_map_merges_collisions(self):
        d = Dist({"a": F(1, 2), "b": F(1, 2)})
        assert d.map(lambda _: "z") == Dist.dirac("z")


class TestRendering:
    @pytest.mark.parametrize(
        "value, text",
        [
            ((), "ε"),
            (("a", "c"), "ac"),
            (frozenset(), "{}"),
            (frozenset({("a", "c"), ("b", "c")}), "{ac, bc}"),
            (MultiSet([("a",), ("a",)]), "⟨⟨a, a⟩⟩"),
            (MultiSet([]), "⟨⟨⟩⟩"),
            (
                Dist({MultiSet([("a", "c")]): F(1, 2), MultiSet([("b", "c")]): F(1, 2)}),
                "⟨⟨ac⟩⟩: 1/2, ⟨⟨bc⟩⟩: 1/2",
            ),
            (
                MultiSet([(SumAtom(MultiSet([("a",), ("b",)])), "c")]),
                "⟨⟨(a + b)·c⟩⟩",
            ),
            (
                Dist({Dist({("h",): 1}): F(1, 2), Dist({("s",): 1}): F(1, 2)}),
                "[h: 1]: 1/2, [s: 1]: 1/2",
            ),
            (frozenset({Dist({("a",): F(1, 2), ("b",): F(1, 2)})}), "{[a: 1/2, b: 1/2]}"),
            (
                MultiSet([Dist({("a",): 1}), Dist({("a",): F(1, 2), ("b",): F(1, 2)})]),
                "⟨⟨[a: 1], [a: 1/2, b: 1/2]⟩⟩",
            ),
            # a lone multi-letter atom takes a leading "·", or it would read
            # back as a word of one-letter atoms
            (("ab",), "·ab"),
            (frozenset({("ab",), ("ab", "cd")}), "{·ab, ab·cd}"),
            (MultiSet([("ab",), ("ab", "cd")]), "⟨⟨·ab, ab·cd⟩⟩"),
            (Dist({("ab",): F(1, 2), ("ab", "cd"): F(1, 2)}), "·ab: 1/2, ab·cd: 1/2"),
        ],
    )
    def test_canonical_forms(self, value, text):
        assert render_value(value) == text
        assert parse_value(text) == value

    @pytest.mark.parametrize(
        "text, error",
        [
            ("a: 1/0", "bad rational '1/0' at position 3"),
            ("a: 1/2/3", "bad rational '1/2/3' at position 3"),
            ("h: 1: 1/2, s: 1: 1/2", "trailing input at position 4"),
            ("{[a: 1/2, b: 1/2}", "expected ']' at position 16"),
        ],
    )
    def test_malformed_literals(self, text, error):
        with pytest.raises(ValueParseError, match=re.escape(error)):
            parse_value(text)

    @pytest.mark.parametrize(
        "text, printed",
        [
            ("a", "a"),
            ("a;b;c", "(a;b);c"),  # equal precedence is bracketed on the left too
            ("a;(b;c)", "a;(b;c)"),
            ("(a + b);c", "(a + b);c"),
            ("a;b + c", "a;b + c"),
            ("a ⊕[1/3] (b ⊕[1/2] c)", "a ⊕[1/3] (b ⊕[1/2] c)"),
            ("a + abort ⊕[0] m(a, skip;b)", "a + abort ⊕[0] m(a, skip;b)"),
            ("a;(b ⊕[1/2] c + a)", "a;(b ⊕[1/2] c + a)"),
            ("n[1/2](a, b;c)", "n[1/2](a, b;c)"),
            ("k[1/3] + n[0](k[1], a)", "k[1/3] + n[0](k[1], a)"),
        ],
    )
    def test_terms_render_as_programs(self, text, printed):
        ops = [OpSymbol(";", 2), OpSymbol("+", 2), OpSymbol("⊕", 2, param=True)]
        ops += [OpSymbol("m", 2), OpSymbol("skip", 0), OpSymbol("abort", 0)]
        ops += [OpSymbol("n", 2, param=True), OpSymbol("k", 0, param=True)]
        sig = Signature(tuple(ops))
        t = parse_program(text, sig, ("a", "b", "c"))
        assert render_value(t) == printed
        assert parse_program(printed, sig, ("a", "b", "c")) == t
        assert render_value(app(sig["m"], t, Var("x"))) == f"m({printed}, x)"

    def test_constants_render_as_values(self):
        seq = OpSymbol(";", 2)
        s = frozenset({(), ("a",), ("b",)})
        d = Dist({("a",): F(1, 2), ("b",): F(1, 2)})
        assert render_value(app(seq, Const(s), Const(d))) == "{ε, a, b};[a: 1/2, b: 1/2]"

    def test_integers_render_as_numerals(self):
        from effectlayers.reports import encode_value

        d = Dist({0: F(1, 2), 1: F(1, 2)})  # a counterexample on an integer carrier
        assert render_value(d) == encode_value(d) == "0: 1/2, 1: 1/2"
        assert render_value(frozenset({1, 0})) == "{0, 1}"
        with pytest.raises(TypeError, match="no canonical rendering for bool"):
            render_value(True)

    @settings(max_examples=300)
    @given(readable_values)
    def test_round_trip(self, v):
        assert parse_value(render_value(v)) == v

    @given(readable_values, readable_values)
    def test_rendering_is_canonical(self, u, v):
        if u == v:
            assert render_value(u) == render_value(v)
        else:
            assert render_value(u) != render_value(v)
