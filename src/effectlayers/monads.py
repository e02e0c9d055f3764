"""Concrete finitary monads with exact arithmetic and bounded enumerators.

Each monad is a bundle of pure functions (unit, map, mult, lift) on
canonical container values.  An outer (commutative) monad's `lift` is its
one kernel for the lifting T(f)∘ψ^(k): it runs once over the product of its
k arguments, which is the monad's n-ary monoidal structure (Kock, "Strong
functors and monoidal monads", 1972).  ψ^(k) is `lift(T, tuple, values)`,
and binary ψ (`MonadInstance.fubini`) is derived from it.  Their coherence
(MF.1-3, MM.1-2, SYM) is checked by the Tier-1 tests, `verify_monoidal` in
`tests/test_monads.py` and acceptance criterion 1, not by the pipeline;
the pipeline checks SYM alone, through the same `symmetry_witness`, as part
of each outer monad's profile.
Enumerators list *all* values over a finite carrier within a
`Bound`, in deterministic order, and refuse to run when the count would
exceed the configured ceiling.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Sequence
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import cached_property
from typing import Callable, Optional

from .terms import (
    App,
    Const,
    FiniteAlgebra,
    Signature,
    Term,
    TermError,
    map_consts,
    rebuild,
)
from .values import Dist, MultiSet, sort_values


class BoundExplosionError(Exception):
    def __init__(self, what, count, ceiling):
        super().__init__(
            f"enumeration of {what} would produce {count} values "
            f"(ceiling {ceiling}); tighten the bounds"
        )
        self.count = count
        self.ceiling = ceiling


class InnerOnlyMonadError(Exception):
    """Raised when a non-commutative (inner-only) monad is used as an outer layer."""


# the one probability grid: `Bound`'s default and `Bound.shrink`'s floor
PROB_GRID = (Fraction(0), Fraction(1, 2), Fraction(1))
# the fields of a `Bound` that bound a size, each at least 1
_SIZES = ("max_word_len", "max_set_size", "max_multiplicity", "max_term_depth")


@dataclass(frozen=True)
class Bound:
    """Enumeration bounds; the defaults are the fragment the CLI checks."""

    max_word_len: int = 2
    max_set_size: int = 3
    max_multiplicity: int = 2
    prob_grid: tuple = PROB_GRID
    max_term_depth: int = 2
    ceiling: int = 200_000

    def __post_init__(self):
        for f in _SIZES:
            if getattr(self, f) < 1:
                raise ValueError(f"{f} must be >= 1")
        if self.ceiling < 1:  # not a size: `fallbacks` leaves it as it is
            raise ValueError("ceiling must be >= 1")
        for g in self.prob_grid:
            if isinstance(g, float):
                raise ValueError(
                    f"prob_grid entry {g!r} is a float; give a Fraction, an int "
                    "or a string"
                )
        grid = set(Fraction(g) for g in self.prob_grid)
        if not grid:
            raise ValueError("prob_grid must not be empty")
        if not all(0 <= g <= 1 for g in grid):
            raise ValueError("prob_grid must lie in [0,1]")
        if grid != {1 - g for g in grid}:
            raise ValueError("prob_grid must be closed under r -> 1-r")
        object.__setattr__(self, "prob_grid", tuple(sorted(grid)))

    def shrink(self) -> "Bound":
        """Smaller bounds for nested fragments (values of values)."""
        return self._shrunk

    @cached_property
    def fallbacks(self) -> tuple:
        """The flatter bounds a law check retries, in order, when this one is
        refused: the shrunk bound at term depth 1, then this one with every
        size 1.  Built once per bound, as `shrink` is."""
        return (
            replace(self.shrink(), max_term_depth=1),
            replace(self, **dict.fromkeys(_SIZES, 1)),
        )

    @cached_property
    def flat_nested(self) -> "Bound":
        """The shrunk bound with every size 1 but sets of 2, in which the monad
        laws enumerate values of values.  Built once per bound, as `shrink` is."""
        return replace(self.shrink(), **(dict.fromkeys(_SIZES, 1) | {"max_set_size": 2}))

    @cached_property
    def _shrunk(self) -> "Bound":
        # built once per bound: building a Bound validates its grid
        return replace(
            self,
            max_word_len=min(self.max_word_len, 2),
            max_set_size=min(self.max_set_size, 2),
            max_multiplicity=min(self.max_multiplicity, 2),
            prob_grid=tuple(g for g in self.prob_grid if g in PROB_GRID) or PROB_GRID,
        )


@dataclass(frozen=True)
class MonadInstance:
    name: str
    unit: Callable
    map: Callable        # (f, tv) -> tv'
    mult: Callable       # T(T X) value -> T X value
    # (f, k T-values) -> T(f) o psi^(k), one pass over the product of the
    # values; None if inner-only
    lift: Optional[Callable]
    enumerate: Callable  # (carrier: Sequence, Bound) -> list

    def require_outer(self):
        if self.lift is None:
            raise InnerOnlyMonadError(
                f"monad {self.name!r} has no lifting kernel (ψ), so it can only be"
                " an inner layer"
            )

    def fubini(self, u, v):
        """Binary psi: T X x T Y -> T(X x Y), the pairs of the kernel."""
        return lift(self, tuple, (u, v))


def _guard(what, count, bound: Bound):
    if count > bound.ceiling:
        raise BoundExplosionError(what, count, bound.ceiling)


# ---------------------------------------------------------------------------
# the lifting T(f) o psi^(k)

def lift(T: MonadInstance, f: Callable, values):
    """T(f) o psi^(k): apply `f` to each k-tuple drawn from the k T-values,
    by T's kernel.  An inner-only monad has no kernel and is refused."""
    if T.lift is None:
        T.require_outer()
    return T.lift(f, values)


def symmetry_witness(T: MonadInstance) -> Callable:
    """The symmetry law T(swap) o psi = psi o swap at a pair (u, v): None
    where it holds, else the pair and both sides."""

    def witness(u, v):
        lhs = T.map(lambda p: (p[1], p[0]), T.fubini(u, v))
        rhs = T.fubini(v, u)
        if lhs != rhs:
            return {"u": u, "v": v, "T(swap).psi": lhs, "psi.swap": rhs}
        return None

    return witness


def lift_interp(T: MonadInstance, A: FiniteAlgebra):
    """Interpretations on T(carrier): op-hat = T(op) o psi^(arity)."""

    def lifted(base):
        return lambda args, param=None: lift(T, lambda xs: base(xs, param), args)

    return {name: lifted(A.op(name)) for name in A.interp}


# ---------------------------------------------------------------------------
# composite monad of a distributive law (Beck)

def composite(T: MonadInstance, S: MonadInstance, lam: Callable, name: str) -> MonadInstance:
    """T∘S for a distributive law lam: S T -> T S.

    Unit T(eta_S) o eta_T, map T(S f), and mult T(mu_S) o mu_T o T(lam)
    on T S T S -> T T S S -> T S S -> T S.
    """
    return MonadInstance(
        name=name,
        unit=lambda x: T.unit(S.unit(x)),
        map=lambda f, v: T.map(lambda s: S.map(f, s), v),
        mult=lambda v: T.map(S.mult, T.mult(T.map(lam, v))),
        lift=None,
        enumerate=lambda X, b: T.enumerate(S.enumerate(tuple(X), b), b),
    )


# ---------------------------------------------------------------------------
# free monoid (words) -- non-commutative, inner-only

def _word_enumerate(carrier, bound: Bound):
    n = len(carrier)
    count = sum(n ** k for k in range(bound.max_word_len + 1))
    _guard("words", count, bound)
    out = []
    for k in range(bound.max_word_len + 1):
        out.extend(itertools.product(carrier, repeat=k))
    return out


def free_monoid() -> MonadInstance:
    return MonadInstance(
        name="word",
        unit=lambda x: (x,),
        map=lambda f, w: tuple(map(f, w)),
        mult=lambda ww: tuple(itertools.chain.from_iterable(ww)),
        lift=None,  # pointwise zip is unsound; no monoidal structure is provided
        enumerate=_word_enumerate,
    )


# ---------------------------------------------------------------------------
# finitary powerset

def _set_enumerate(carrier, bound: Bound):
    n = len(carrier)
    top = min(n, bound.max_set_size)
    count = sum(math.comb(n, k) for k in range(top + 1))
    _guard("subsets", count, bound)
    ordered = sort_values(carrier)
    out = []
    for k in range(top + 1):
        for combo in itertools.combinations(ordered, k):
            out.append(frozenset(combo))
    return out


def fin_powerset() -> MonadInstance:
    return MonadInstance(
        name="powerset",
        unit=lambda x: frozenset([x]),
        map=lambda f, u: frozenset(map(f, u)),
        mult=lambda uu: frozenset().union(*uu),
        lift=lambda f, us: frozenset(map(f, itertools.product(*us))),
        enumerate=_set_enumerate,
    )


# ---------------------------------------------------------------------------
# multisets (free commutative monoid)

class Multisets(Sequence):
    """The multisets over `base` with at most `distinct` distinct elements,
    each count in 1..`mult` and total at most `total`, in `canon_key` order,
    as a sequence that builds a value only when it is asked for.

    That order is the pre-order of a trie whose edges are (element, count)
    pairs, the elements in key order along a path and each node's children
    ordered by element, then count: a key's prefix sorts first.  The length
    is counted in closed form and `seq[i]` unranks value i alone (Feat:
    Duregård, Jansson & Wang, Haskell Symposium 2012).  Each value is kept
    once built; a slice builds only its indices.  Like a list, the sequence
    equals a list, or another such sequence, of the same values.
    """

    def __init__(self, base, total: int, mult: int, distinct: int):
        self._base = sort_values(base)
        self._mult, self._total, self._distinct = mult, total, distinct
        # _g[k][r]: the k-tuples of counts in 1..mult that sum to at most r
        g = [[1] * (total + 1)]
        for _ in range(distinct):
            prev = g[-1]
            g.append([
                sum(prev[r - c] for c in range(1, min(mult, r) + 1))
                for r in range(total + 1)
            ])
        self._g = g
        self._len = self._size(len(self._base), distinct, total)
        self._built: dict = {}
        self._all = None  # every value in order, once iterated

    def _size(self, m: int, d: int, r: int) -> int:
        """The multisets over m elements, <= d distinct, total <= r."""
        g = self._g
        return sum(math.comb(m, k) * g[k][r] for k in range(min(d, m) + 1))

    def __len__(self):
        return self._len

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [self[j] for j in range(*i.indices(self._len))]
        if i < 0:
            i += self._len
        if not 0 <= i < self._len:
            raise IndexError("multiset index out of range")
        if self._all is not None:
            return self._all[i]
        v = self._built.get(i)
        if v is None:
            v = self._built[i] = _built_mset(self._unrank(i))
        return v

    def _unrank(self, idx: int):
        """The (element, count) path of value `idx` in the trie."""
        base, n, size = self._base, len(self._base), self._size
        path = []
        i, d, r = 0, self._distinct, self._total
        while idx:
            idx -= 1  # past the node itself, into its children's subtrees
            # the subtrees of first elements at positions i..j-1 hold
            # whole - size(n - j) values: find the last j starting <= idx
            whole = size(n - i, d, r)
            lo, hi = i, n - 1
            while lo < hi:
                mid = (lo + hi + 1) // 2
                if whole - size(n - mid, d, r) <= idx:
                    lo = mid
                else:
                    hi = mid - 1
            idx -= whole - size(n - lo, d, r)
            c = 1
            while idx >= (sub := size(n - lo - 1, d - 1, r - c)):
                idx -= sub
                c += 1
            path.append((base[lo], c))
            i, d, r = lo + 1, d - 1, r - c
        return path

    def _paths(self):
        """Every (element, count) path, in pre-order."""
        base, n, mult = self._base, len(self._base), self._mult
        path = []

        def node(i, d, r):
            yield path
            if d and r:
                for j in range(i, n):
                    for c in range(1, min(mult, r) + 1):
                        path.append((base[j], c))
                        yield from node(j + 1, d - 1, r - c)
                        path.pop()

        return node(0, self._distinct, self._total)

    def __iter__(self):
        # one walk of the trie builds every value for less than unranking
        # each; iterated again, the sequence reads the list it kept
        if self._all is None:
            built = self._built
            self._all = [
                built[i] if i in built else _built_mset(path)
                for i, path in enumerate(self._paths())
            ]
            self._built = None
        return iter(self._all)

    def __eq__(self, other):
        if not isinstance(other, (list, Multisets)):
            return NotImplemented
        return len(self) == len(other) and all(a == b for a, b in zip(self, other))


def _built_mset(path) -> MultiSet:
    """The multiset of an (element, count) path, whose order is canonical."""
    v = MultiSet._trusted(dict(path))
    v._items = tuple(path)
    return v


def _mset_enumerate(carrier, bound: Bound):
    n = len(carrier)
    s = min(n, bound.max_set_size)
    m = bound.max_multiplicity
    count = sum(math.comb(n, k) * m**k for k in range(s + 1))
    _guard("multisets", count, bound)
    return Multisets(carrier, s * m, m, s)


# The monad operations below build their results with `_trusted`,
# without the constructors' checks: multiplicities, and the numerators of
# distributions, are products and sums of positive ints.

def _mset_lift(f, ms) -> MultiSet:
    # the tuples of elements and of their counts, in the same product order
    xss = itertools.product(*[m._d for m in ms])
    nss = itertools.product(*[m._d.values() for m in ms])
    counts: dict = {}
    for xs, ns in zip(xss, nss):
        y, n = f(xs), math.prod(ns)
        counts[y] = counts[y] + n if y in counts else n
    return MultiSet._trusted(counts)


def _mset_mult(mm: MultiSet) -> MultiSet:
    counts: dict = {}
    for inner, n in mm._d.items():
        for x, k in inner._d.items():
            counts[x] = counts.get(x, 0) + n * k
    return MultiSet._trusted(counts)


def multiset() -> MonadInstance:
    return MonadInstance(
        name="multiset",
        unit=lambda x: MultiSet._trusted({x: 1}),
        map=lambda f, m: m.map(f),
        mult=_mset_mult,
        lift=_mset_lift,
        enumerate=_mset_enumerate,
    )


# ---------------------------------------------------------------------------
# finitely supported rational distributions

def _grid_dists(carrier, grid):
    """All distributions with weights drawn from the grid, deterministic order.

    The weights are enumerated as numerators over the grid's common
    denominator.  The carrier's values are distinct, so each weighting is
    one distribution.
    """
    ordered = sort_values(carrier)
    if not ordered:
        return []
    scale = math.lcm(*[g.denominator for g in grid])
    steps = [g.numerator * scale // g.denominator for g in grid]
    last = len(ordered) - 1

    def go(i, remaining):
        if i == last:
            if remaining in steps:
                yield (remaining,)
            return
        for n in steps:
            if n <= remaining:
                for rest in go(i + 1, remaining - n):
                    yield (n,) + rest

    return [
        Dist._trusted({e: n for e, n in zip(ordered, ns) if n})
        for ns in go(0, scale)
    ]


def _dist_enumerate(carrier, bound: Bound):
    grid = set(bound.prob_grid) | {0, 1}
    n = len(carrier)
    _guard("distributions", len(grid) ** max(n - 1, 0), bound)
    return _grid_dists(carrier, sorted(grid))


# A point mass has numerator 1 and total 1, so the kernels below skip its
# arithmetic: the results are the same numerators.  This holds for `Dist`
# only; a one-element `MultiSet` may have count 2.

def _dist_mult(dd: Dist) -> Dist:
    if len(dd._d) == 1:  # mu(delta_d) = d
        (d,) = dd._d
        return d
    # each inner distribution's numerators, scaled to the common total
    totals = [sum(inner._d.values()) for inner in dd._d]
    common = math.lcm(*totals)
    weights: dict = {}
    for (inner, n), total in zip(dd._d.items(), totals):
        if total == 1:  # a point mass: its element takes the outer weight
            (x,) = inner._d
            w = n * common
            weights[x] = weights[x] + w if x in weights else w
            continue
        scale = n * (common // total)
        for x, v in inner._d.items():
            wv = scale * v
            weights[x] = weights[x] + wv if x in weights else wv
    return Dist._trusted(weights)


def _dist_lift(f, ds) -> Dist:
    # a point mass is one factor of size 1 in the product, so the tuples
    # of elements come in the order of the other arguments' numerators
    spread = [d._d.values() for d in ds if len(d._d) > 1]
    xss = itertools.product(*[d._d for d in ds])
    if not spread:
        return Dist.dirac(f(next(xss)))
    if len(spread) == 1:
        weights = spread[0]
    else:
        weights = map(math.prod, itertools.product(*spread))
    out: dict = {}
    for xs, w in zip(xss, weights):
        y = f(xs)
        out[y] = out[y] + w if y in out else w
    return Dist._trusted(out)


def fin_distribution() -> MonadInstance:
    return MonadInstance(
        name="distribution",
        unit=Dist.dirac,
        map=lambda f, d: d.map(f),
        mult=_dist_mult,
        lift=_dist_lift,
        enumerate=_dist_enumerate,
    )


# ---------------------------------------------------------------------------
# free term monad for a signature

def _graft(t: Term) -> Term:
    """Multiplication of the term monad: constants hold terms, graft them in."""
    return rebuild(t, _grafted)


def _grafted(u):
    if isinstance(u, Const):
        if not isinstance(u.value, Term):
            raise TermError("term-monad mult expects terms at the leaves")
        return u.value
    return u


def _term_enumerate_factory(sig: Signature):
    def enum(carrier, bound: Bound):
        grid = list(bound.prob_grid)

        def copies(o):  # one term per grid point for parameterized operations
            return len(grid) if o.param else 1

        # Depth-1 terms are the carrier and the constants; a term of depth
        # <= d is a leaf or an operation applied to terms of depth <= d - 1.
        # The guard counts them for every level before any is built.
        n_leaves = len(carrier) + sum(copies(o) for o in sig.ops if o.arity == 0)
        n_terms = n_leaves
        for _ in range(bound.max_term_depth - 1):
            n_terms = n_leaves + sum(
                n_terms**o.arity * copies(o) for o in sig.ops if o.arity
            )
            _guard("terms", n_terms, bound)

        all_terms = [Const(x) for x in sort_values(carrier)]
        for o in sig.ops:
            if o.arity == 0:
                if o.param:
                    all_terms.extend(App(o, (), g) for g in grid)
                else:
                    all_terms.append(App(o, ()))
        # each level adds the applications with an argument from the level
        # before; the others were built at a shallower level
        older = 0
        for _ in range(bound.max_term_depth - 1):
            prev = all_terms
            all_terms = list(prev)
            for o in sig.ops:
                if o.arity == 0:
                    continue
                for idx in itertools.product(range(len(prev)), repeat=o.arity):
                    if max(idx) < older:
                        continue
                    args = tuple(prev[i] for i in idx)
                    if o.param:
                        all_terms.extend(App(o, args, g) for g in grid)
                    else:
                        all_terms.append(App(o, args))
            older = len(prev)
        return all_terms

    return enum


def free_term_monad(sig: Signature) -> MonadInstance:
    return MonadInstance(
        name=f"terms({','.join(o.name for o in sig.ops)})",
        unit=Const,
        map=lambda f, t: map_consts(t, f),
        mult=_graft,
        lift=None,  # free term monads over nontrivial signatures are not commutative
        enumerate=_term_enumerate_factory(sig),
    )
