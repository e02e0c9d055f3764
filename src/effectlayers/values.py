"""Canonical effect values: words, finite sets, multisets, rational distributions.

Every value is immutable and hashable, so that diagram checks can compare
both legs bit-exactly.  A `MultiSet` or `Dist` is identified by its
content, the merged `{element: weight}` dict: equality compares the
dicts, and the hash is that of their item set.  The canonical order, by
`canon_key`, is built only when an ordered view (`items()`, iteration,
`canon_key`) is first asked for, and then kept.

A `Dist` stores its weights up to scale: each element maps to a positive
int numerator, the numerators coprime, and an element's weight is its
numerator over their sum.  Reduced numerators are unique to a
distribution, so equality and hashing compare ints, and the kernels
multiply and add ints.  `Fraction` stays at the boundary: the validating
constructor takes exact rationals, and `items()` and `canon_key` give
each weight as a reduced fraction.  Floating point is banned from the
semantics, and the validating constructors refuse a float.
"""

from __future__ import annotations

from collections.abc import Mapping
from fractions import Fraction
from math import gcd, lcm
from operator import itemgetter

from .terms import App, Const, OpSymbol, Term


class ValueError_(Exception):
    """Malformed effect value (bad weight sum, non-positive multiplicity, ...)."""


def canon_key(v):
    """Total order key over all value shapes used in this package.

    Keys are (tag, payload, prim) triples; cross-shape comparisons are decided
    by the tag, so heterogeneous carriers still sort deterministically.
    `MultiSet` and `Dist` keep their key once computed.  The common shapes
    are tested first: `Fraction`'s metaclass is `ABCMeta`, whose
    `isinstance` test is slow.  A term, and an `OpSymbol`, keeps the key it
    had as a frozen dataclass, its class name tagged "dc:" over its fields'
    keys, as the GENERIC representatives are chosen by this order.
    """
    if isinstance(v, str):
        return ("str", (), v)
    if isinstance(v, tuple):
        return ("tuple", tuple(canon_key(x) for x in v), ())
    if isinstance(v, _Weighted):
        if v._key is None:
            _order(v)
        return v._key
    if isinstance(v, frozenset):
        return ("set", tuple(sorted(canon_key(x) for x in v)), ())
    if isinstance(v, SumAtom):
        return ("sumatom", (canon_key(v.summands),), ())
    if isinstance(v, Term):
        if isinstance(v, App):
            return ("dc:App", (canon_key(v.op), canon_key(v.args), canon_key(v.param)), ())
        if isinstance(v, Const):
            return ("dc:Const", (canon_key(v.value),), ())
        return ("dc:Var", (canon_key(v.name),), ())
    if v is None:
        return ("none", (), ())
    if isinstance(v, bool):
        return ("bool", (), v)
    if isinstance(v, int):
        return ("int", (), v)
    if isinstance(v, OpSymbol):
        fields = (("str", (), v.name), ("int", (), v.arity), ("bool", (), v.param))
        return ("dc:OpSymbol", fields, ())
    if isinstance(v, Fraction):
        return ("frac", (), (v.numerator, v.denominator))
    raise TypeError(f"no canonical key for {type(v).__name__}")


def sort_values(vs):
    return sorted(vs, key=canon_key)


def _canonical(value, items: dict):
    """Fill `value`'s slots from merged, already-valid items.

    This is the only place a `MultiSet` or `Dist` gets its content; the
    ordered view, key and hash are left for first use."""
    value._d = items
    value._items = value._key = value._hash = None
    return value


def _order(v):
    """Fill the ordered view and the key of `v` from one sort of its dict."""
    keyed = [(canon_key(e), e, w) for e, w in v._d.items()]
    keyed.sort(key=itemgetter(0))
    if v._tag == "dist":  # the weights: numerators over their sum
        total = sum(v._d.values())
        keyed = [(k, e, Fraction(n, total)) for k, e, n in keyed]
    v._items = tuple([(e, w) for _, e, w in keyed])
    if v._tag == "mset":
        payload = tuple([(k, n) for k, _, n in keyed])
    else:
        payload = tuple([(k, (w.numerator, w.denominator)) for k, _, w in keyed])
    v._key = (v._tag, payload, ())


class _Weighted:
    """What `MultiSet` and `Dist` share: identity by content.

    `_d` is the merged `{element: weight}` dict, filled by `_canonical`.
    Equality compares the dicts and the hash is taken over their items, so
    neither needs an order; `items()` and `canon_key` sort once, on first
    use, and keep the result."""

    __slots__ = ("_d", "_items", "_hash", "_key")

    def items(self):
        """The (element, weight) pairs, in canonical order."""
        if self._items is None:
            _order(self)
        return self._items

    def __eq__(self, other):
        return self is other or (
            isinstance(other, _Weighted)
            and other._tag == self._tag
            and self._d == other._d
        )

    def __hash__(self):
        if self._hash is None:
            self._hash = hash(frozenset(self._d.items()))
        return self._hash

    def __repr__(self):
        body = ", ".join(f"{e!r}: {w}" for e, w in self.items())
        return f"{type(self).__name__}({{{body}}})"

    @classmethod
    def _trusted(cls, items: dict):
        """The value of merged items that are valid by construction, built
        without the constructor's checks."""
        return _canonical(object.__new__(cls), items)

    def map(self, f):
        """The image under `f`, weights of elements with one image merged."""
        out: dict = {}
        for e, w in self._d.items():
            fe = f(e)
            out[fe] = out[fe] + w if fe in out else w
        return self._trusted(out)


class MultiSet(_Weighted):
    """Finite multiset with positive multiplicities, identified by content."""

    __slots__ = ()
    _tag = "mset"

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

    def total(self):
        return sum(self._d.values())

    def __len__(self):
        return len(self._d)

    def __bool__(self):
        return bool(self._d)

    def __iter__(self):
        for e, n in self.items():
            for _ in range(n):
                yield e


class Dist(_Weighted):
    """Finitely supported distribution with exact rational weights summing
    to 1, identified by content: `_d` maps each element to a positive int
    numerator, the numerators coprime, over their sum."""

    __slots__ = ()
    _tag = "dist"

    def __init__(self, items):
        weights: dict = {}
        # dict first: it needs no ABC test
        pairs = items.items() if isinstance(items, (dict, Dist, Mapping)) else items
        for e, w in pairs:
            if isinstance(w, float):
                raise ValueError_(
                    f"weight {w!r} of {e!r} is a float; give a Fraction, an int "
                    "or a string"
                )
            w = Fraction(w)
            if w < 0:
                raise ValueError_(f"negative weight {w}")
            if w:
                weights[e] = weights.get(e, 0) + w
        if sum(weights.values()) != 1:
            raise ValueError_(
                f"weights sum to {sum(weights.values())}, expected 1"
            )
        # over the least common denominator the numerators are coprime
        scale = lcm(*[w.denominator for w in weights.values()])
        _canonical(
            self, {e: w.numerator * scale // w.denominator for e, w in weights.items()}
        )

    @classmethod
    def _trusted(cls, items: dict):
        """The distribution of the merged positive int numerators `items`
        over their sum, built without the constructor's checks: every kernel
        builds its result here, where the numerators are made coprime."""
        g = gcd(*items.values())
        if g != 1:
            items = {e: n // g for e, n in items.items()}
        return _canonical(object.__new__(cls), items)

    @staticmethod
    def dirac(e) -> "Dist":
        return _canonical(object.__new__(Dist), {e: 1})


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
