"""The counted, unranked multiset sequences against the enumerators they replaced.

`reference_mset_enumerate` and `reference_tm_enumerate` are the multiset
and two-monoid enumerators that built every value and then sorted them by
`canon_key`, kept here only as references.  `monads.Multisets` must give
the same values in the same order, with the same length and the same
refusals, while building only the values that are asked for.
"""

import itertools
import math
from collections.abc import Sequence
from dataclasses import replace
from fractions import Fraction as F

import pytest

from effectlayers.distlaw import _enum
from effectlayers.monads import (
    Bound,
    BoundExplosionError,
    Multisets,
    _guard,
    _mset_enumerate,
    composite,
    fin_distribution,
    fin_powerset,
    multiset,
)
from effectlayers.normal_forms import _tm_enumerate, _tm_monad, _tm_word_count, _tm_words
from effectlayers.values import Dist, MultiSet, SumAtom, canon_key, sort_values

# ---------------------------------------------------------------------------
# the reference enumerators: build everything, then sort


def reference_mset_enumerate(carrier, bound: Bound):
    n = len(carrier)
    s = min(n, bound.max_set_size)
    m = bound.max_multiplicity
    count = sum(math.comb(n, k) * m**k for k in range(s + 1))
    _guard("multisets", count, bound)
    ordered = sort_values(carrier)
    out = []
    for k in range(s + 1):
        for support in itertools.combinations(ordered, k):
            for mults in itertools.product(range(1, m + 1), repeat=k):
                out.append(MultiSet(dict(zip(support, mults))))
    return sort_values(out)


def reference_tm_nfs(words, min_total: int, max_total: int):
    return [
        MultiSet(combo)
        for total in range(min_total, max_total + 1)
        for combo in itertools.combinations_with_replacement(words, total)
    ]


def reference_tm_enumerate(carrier, bound: Bound):
    carrier = list(carrier)
    n_sums = sum(isinstance(x, SumAtom) for x in carrier)
    nest = bound.max_term_depth >= 2
    ib = bound.shrink()
    n_nested = 0
    if nest:
        n_inner = _tm_word_count(len(carrier), n_sums, ib.max_word_len)
        _guard("two-monoid words", n_inner, ib)
        n_inner_nfs = math.comb(n_inner + ib.max_set_size, ib.max_set_size)
        _guard("two-monoid normal forms", n_inner_nfs, ib)
        n_nested = n_inner_nfs - 1 - n_inner
    n_words = _tm_word_count(
        len(carrier) + n_nested, n_sums + n_nested, bound.max_word_len
    )
    _guard("two-monoid words", n_words, bound)
    _guard(
        "two-monoid normal forms",
        math.comb(n_words + bound.max_set_size, bound.max_set_size),
        bound,
    )
    atoms = carrier
    if nest:
        inner_words = _tm_words(carrier, ib.max_word_len)
        atoms = carrier + [
            SumAtom(m) for m in reference_tm_nfs(inner_words, 2, ib.max_set_size)
        ]
    nfs = reference_tm_nfs(_tm_words(atoms, bound.max_word_len), 0, bound.max_set_size)
    return sort_values(dict.fromkeys(nfs))


ENUMERATORS = {
    "multiset": (_mset_enumerate, reference_mset_enumerate),
    "two-monoids": (_tm_enumerate, reference_tm_enumerate),
}

# ---------------------------------------------------------------------------
# carriers and bounds

HALF = F(1, 2)
SUM_AB = SumAtom(MultiSet({("a",): 1, ("b",): 1}))
SUM_AA = SumAtom(MultiSet({("a",): 2}))
CARRIERS = {
    "a": ("a",),
    "ab": ("a", "b"),
    "cab": ("c", "a", "b"),
    "words": ((), ("b",), ("a", "b"), ("a",)),
    "dists": (
        Dist({"a": 1}),
        Dist({"a": HALF, "b": HALF}),
        Dist({"b": 1}),
    ),
    "sums": ("a", SUM_AB, SUM_AA),
    "sum-words": ((SUM_AB, "a"), ("a",), (SUM_AA,)),
}
CEILING = 5_000  # keeps each reference small enough to build


def mset_bounds():
    for s, m in itertools.product((1, 2, 3), (1, 2, 3)):
        yield Bound(max_set_size=s, max_multiplicity=m, ceiling=CEILING)


def tm_bounds():
    for w, s, d in itertools.product((1, 2), (1, 2, 3), (1, 2)):
        yield Bound(max_word_len=w, max_set_size=s, max_term_depth=d, ceiling=CEILING)


CASES = [
    pytest.param(kind, name, bound, id=f"{kind}-{name}-{i}")
    for kind, bounds in (("multiset", mset_bounds), ("two-monoids", tm_bounds))
    for name in CARRIERS
    for i, bound in enumerate(bounds())
]


def both(kind, name, bound):
    """(sequence, reference list), or the count each refuses with."""
    ours, ref = ENUMERATORS[kind]
    out = []
    for en in (ours, ref):
        try:
            out.append(en(CARRIERS[name], bound))
        except BoundExplosionError as exc:
            out.append(exc.count)
    return out


def keys(values):
    return [canon_key(v) for v in values]


@pytest.fixture
def built(monkeypatch):
    """Counts the `MultiSet`s built, by the validating constructor or not."""
    made = []
    trusted, init = MultiSet._trusted.__func__, MultiSet.__init__

    def counted_trusted(cls, items):
        made.append(items)
        return trusted(cls, items)

    def counted_init(self, items=()):
        made.append(items)
        init(self, items)

    monkeypatch.setattr(MultiSet, "_trusted", classmethod(counted_trusted))
    monkeypatch.setattr(MultiSet, "__init__", counted_init)
    return made


# ---------------------------------------------------------------------------
# the sequences against the references


@pytest.mark.parametrize("kind, name, bound", CASES)
def test_same_values_in_the_same_order(kind, name, bound):
    seq, ref = both(kind, name, bound)
    if isinstance(ref, int):
        assert seq == ref  # refused, with the same count
        return
    assert isinstance(seq, Multisets)
    assert len(seq) == len(ref)
    assert keys(seq) == keys(ref)
    assert seq == ref and ref == seq
    # iterated again, the sequence gives the values it kept
    assert all(a is b for a, b in zip(seq, seq))


@pytest.mark.parametrize("kind, name, bound", CASES)
def test_every_index_unranks_its_value(kind, name, bound):
    seq, ref = both(kind, name, bound)
    if isinstance(ref, int):
        return
    n = len(ref)
    assert keys(seq[i] for i in range(n)) == keys(ref)
    assert keys(seq[-i] for i in range(1, n + 1)) == keys(ref[-i] for i in range(1, n + 1))
    assert seq[n - 1] is seq[-1]  # built once, kept
    for i in (n, -n - 1):
        with pytest.raises(IndexError):
            seq[i]


@pytest.mark.parametrize("kind, name, bound", CASES)
def test_a_stride_sample_is_the_reference_sample(kind, name, bound):
    seq, ref = both(kind, name, bound)
    if isinstance(ref, int):
        return
    for k, cap in ((1, 5), (2, 3), (3, 60), (7, 4)):
        sample = seq[::k][:cap]
        assert keys(sample) == keys(ref[::k][:cap])
        assert keys(seq[: k * cap : k]) == keys(sample)


def test_a_sample_builds_only_the_values_it_keeps(built):
    seq = _tm_enumerate(CARRIERS["dists"], Bound(max_term_depth=1))
    assert len(seq) == 560 and built == []
    stride = len(seq) // 60
    assert len(seq[: stride * 60 : stride]) == 60
    assert len(built) == 60


def test_equal_like_a_list():
    seq = _mset_enumerate(("a", "b"), Bound())
    ref = reference_mset_enumerate(("a", "b"), Bound())
    assert seq == ref and seq == _mset_enumerate(("b", "a"), Bound())
    assert seq != ref[:-1] and seq != ref[::-1]
    assert seq != tuple(ref)  # a list equals no tuple either
    assert isinstance(seq, Sequence) and list(reversed(seq)) == ref[::-1]
    assert seq.index(ref[5]) == 5 and ref[5] in seq


@pytest.mark.parametrize("kind", ENUMERATORS)
def test_a_flat_bound_over_many_words_indexes_its_last_value(kind, built):
    """A set size of 1 admits as many words as the ceiling: unranking must
    neither recurse nor build a table over them."""
    words = [(f"w{i:05d}",) for i in range(6_000)]
    flat = Bound(
        max_word_len=1, max_set_size=1, max_multiplicity=1, max_term_depth=1,
        ceiling=10_000,
    )
    seq = ENUMERATORS[kind][0](words[::-1], flat)
    # the two-monoid atoms are the words, and its words are those atoms
    # alone, after the empty word
    last, extra = ((words[-1],), 2) if kind == "two-monoids" else (words[-1], 1)
    assert len(seq) == len(words) + extra
    assert built == []
    first, final = seq[0], seq[-1]
    assert len(built) == 2
    assert first == MultiSet() and final == MultiSet({last: 1})


# ---------------------------------------------------------------------------
# the composite asks T's guard before S builds a value


class Spy(Sequence):
    """Counts the values read from a sequence."""

    def __init__(self, seq):
        self.seq, self.reads = seq, 0

    def __len__(self):
        return len(self.seq)

    def __getitem__(self, i):
        self.reads += 1
        return self.seq[i]


@pytest.mark.parametrize("T", [fin_distribution(), fin_powerset(), multiset()], ids=lambda T: T.name)
def test_a_composite_refused_by_T_builds_no_value_of_S(T, built):
    # the flagship's second fallback level, at a ceiling every outer
    # monad refuses: 36 two-monoid normal forms over a, b
    b = replace(Bound().shrink(), max_term_depth=1, ceiling=500)
    S = _tm_monad()
    spies = []

    def spied(carrier, bound):
        spies.append(Spy(_tm_enumerate(carrier, bound)))
        return spies[-1]

    TS = composite(T, replace(S, enumerate=spied), lambda v: v, "T∘S")
    with pytest.raises(BoundExplosionError) as refused:
        TS.enumerate(("a", "b"), b)
    (spy,) = spies
    assert len(spy) == 36 and spy.reads == 0 and built == []
    with pytest.raises(BoundExplosionError) as today:
        T.enumerate(tuple(reference_tm_enumerate(("a", "b"), b)), b)
    assert refused.value.count == today.value.count


# ---------------------------------------------------------------------------
# the flagship's stage-2 fragments: S is the two-monoid monad, T the
# distributions, at the CLI's bound


def test_flagship_stage_two_fragments_match_the_reference():
    b, X = Bound(), ("a", "b")
    nb = b.shrink()
    T = fin_distribution()
    tx = T.enumerate(X, b)
    ttx = _enum(T.enumerate, tx, nb, cap=8)
    ours, ref = _tm_enumerate, reference_tm_enumerate
    # as verify_distlaw draws them: (carrier, bound, cap)
    draws = [(X, b, None), (ttx, nb, 60), (tx, nb, 16), (T.enumerate(X, nb), nb, 40)]
    stx = _enum(ref, tx, nb, cap=16)
    draws.append((stx, nb, 60))
    for carrier, bound, cap in draws:
        assert keys(_enum(ours, carrier, bound, cap)) == keys(
            _enum(ref, carrier, bound, cap)
        )
    # the composite carrier of the generated-axiom check
    S = _tm_monad()
    TS = composite(T, S, lambda v: v, "T∘S")
    TS_ref = composite(
        T, replace(S, enumerate=lambda c, bb: tuple(ref(c, bb))), lambda v: v, "T∘S"
    )
    assert keys(_enum(TS.enumerate, X, b, cap=12)) == keys(
        _enum(TS_ref.enumerate, X, b, cap=12)
    )
