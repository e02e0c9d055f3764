"""Canonical effect values: words, finite sets, multisets, rational distributions.

Every value is immutable, hashable, and kept in a canonical form so that
diagram checks can compare both legs bit-exactly.  Probabilities are
`fractions.Fraction`; floating point is banned from the semantics.
"""

from __future__ import annotations

from collections.abc import Mapping
from fractions import Fraction


class ValueError_(Exception):
    """Malformed effect value (bad weight sum, non-positive multiplicity, ...)."""


def canon_key(v):
    """Total order key over all value shapes used in this package.

    Keys are (tag, payload, prim) triples; cross-shape comparisons are decided
    by the tag, so heterogeneous carriers still sort deterministically.
    `MultiSet` and `Dist` keep their key once computed.  The common shapes
    are tested first: `Fraction`'s metaclass is `ABCMeta`, whose
    `isinstance` test is slow.
    """
    if isinstance(v, str):
        return ("str", (), v)
    if isinstance(v, tuple):
        return ("tuple", tuple(canon_key(x) for x in v), ())
    if isinstance(v, MultiSet):
        if v._key is None:
            v._key = ("mset", tuple((canon_key(e), n) for e, n in v._items), ())
        return v._key
    if isinstance(v, Dist):
        if v._key is None:
            v._key = (
                "dist",
                tuple(
                    (canon_key(e), (w.numerator, w.denominator)) for e, w in v._items
                ),
                (),
            )
        return v._key
    if isinstance(v, frozenset):
        return ("set", tuple(sorted(canon_key(x) for x in v)), ())
    if isinstance(v, SumAtom):
        return ("sumatom", (canon_key(v.summands),), ())
    if v is None:
        return ("none", (), ())
    if isinstance(v, bool):
        return ("bool", (), v)
    if isinstance(v, int):
        return ("int", (), v)
    if isinstance(v, Fraction):
        return ("frac", (), (v.numerator, v.denominator))
    # Terms and other frozen dataclasses: fall back to their fields.
    if hasattr(v, "__dataclass_fields__"):
        return (
            "dc:" + type(v).__name__,
            tuple(canon_key(getattr(v, f)) for f in v.__dataclass_fields__),
            (),
        )
    raise TypeError(f"no canonical key for {type(v).__name__}")


def sort_values(vs):
    return sorted(vs, key=canon_key)


def _canonical(value, items: dict):
    """Fill `value`'s slots from merged, already-valid items: sort and hash."""
    value._items = tuple(sorted(items.items(), key=lambda p: canon_key(p[0])))
    value._hash = hash(value._items)
    value._key = None
    return value


class MultiSet:
    """Finite multiset with positive multiplicities, canonically ordered."""

    __slots__ = ("_items", "_hash", "_key")

    def __init__(self, items=()):
        counts: dict = {}
        # dict first: it needs no ABC test
        if isinstance(items, (dict, MultiSet, Mapping)):
            pairs = items.items()
        else:
            pairs = [(e, 1) for e in items]
        for e, n in pairs:
            if not isinstance(n, int) or isinstance(n, bool):
                raise ValueError_(f"multiplicity must be an int, got {n!r}")
            if n < 0:
                raise ValueError_(f"negative multiplicity {n}")
            if n:
                counts[e] = counts.get(e, 0) + n
        _canonical(self, counts)

    def items(self):
        return self._items

    def total(self):
        return sum(n for _, n in self._items)

    def __len__(self):
        return len(self._items)

    def __bool__(self):
        return bool(self._items)

    def __iter__(self):
        for e, n in self._items:
            for _ in range(n):
                yield e

    def __eq__(self, other):
        return isinstance(other, MultiSet) and self._items == other._items

    def __hash__(self):
        return self._hash

    def __repr__(self):
        body = ", ".join(f"{e!r}: {n}" for e, n in self._items)
        return f"MultiSet({{{body}}})"

    def map(self, f):
        counts: dict = {}
        for e, n in self._items:
            fe = f(e)
            counts[fe] = counts.get(fe, 0) + n
        return _canonical(object.__new__(MultiSet), counts)

    def union(self, other: "MultiSet") -> "MultiSet":
        counts = dict(self._items)
        for e, n in other.items():
            counts[e] = counts.get(e, 0) + n
        return MultiSet(counts)

    def scale(self, k: int) -> "MultiSet":
        return MultiSet({e: n * k for e, n in self._items})


class Dist:
    """Finitely supported distribution with exact rational weights summing to 1."""

    __slots__ = ("_items", "_hash", "_key")

    def __init__(self, items):
        weights: dict = {}
        # dict first: it needs no ABC test
        pairs = items.items() if isinstance(items, (dict, Dist, Mapping)) else items
        for e, w in pairs:
            w = Fraction(w)
            if w < 0:
                raise ValueError_(f"negative weight {w}")
            if w:
                weights[e] = weights.get(e, 0) + w
        if sum(weights.values()) != 1:
            raise ValueError_(
                f"weights sum to {sum(weights.values())}, expected 1"
            )
        _canonical(self, weights)

    @staticmethod
    def dirac(e) -> "Dist":
        return Dist({e: Fraction(1)})

    def items(self):
        return self._items

    def __eq__(self, other):
        return isinstance(other, Dist) and self._items == other._items

    def __hash__(self):
        return self._hash

    def __repr__(self):
        body = ", ".join(f"{e!r}: {w}" for e, w in self._items)
        return f"Dist({{{body}}})"

    def map(self, f) -> "Dist":
        weights: dict = {}
        for e, w in self._items:
            fe = f(e)
            weights[fe] = weights.get(fe, 0) + w
        return _canonical(object.__new__(Dist), weights)


class SumAtom:
    """A nested nondeterministic sum appearing as a letter inside a word.

    Used by the two-monoids-with-absorption normal forms, where sums do not
    distribute over sequencing and therefore survive under a `;` context.
    The wrapped multiset always has total multiplicity >= 2.
    """

    __slots__ = ("summands", "_hash")

    def __init__(self, summands: MultiSet):
        if not isinstance(summands, MultiSet) or summands.total() < 2:
            raise ValueError_("SumAtom requires a multiset of total size >= 2")
        object.__setattr__(self, "summands", summands)
        object.__setattr__(self, "_hash", hash(("SumAtom", summands)))

    def __setattr__(self, *a):
        raise AttributeError("SumAtom is immutable")

    def __eq__(self, other):
        return isinstance(other, SumAtom) and self.summands == other.summands

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"SumAtom({self.summands!r})"
