"""Quotient monads: free-algebra monads realized by canonical normal forms.

Each canonical theory (monoid, semilattice, commutative monoid, convex
algebra, idempotent semiring, semiring, two monoids with absorption) comes
with a normal-form value type, a normalizer q (terms -> normal forms), a
representative map back into terms, and a lawful monad structure.  Its row
of `_KINDS` holds one step per role, which a `QuotientMonad` looks up by
operation name: a sum or a sum of words in a set or multiset, or the convex
mix.  A bounded congruence-closure fallback covers theories without a known
normal form.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field, replace
from fractions import Fraction
from typing import Callable, Optional

from .monads import (
    Bound,
    MonadInstance,
    Multisets,
    _graft,
    _guard,
    composite,
    fin_distribution,
    fin_powerset,
    free_monoid,
    free_term_monad,
    lift,
    multiset,
)
from .terms import (
    App,
    Const,
    FiniteAlgebra,
    OpSymbol,
    ParamDivisionByZero,
    Term,
    TermError,
    Theory,
    Var,
    app,
    instantiate_params,
    interpret,
    map_consts,
    render_param,
    tabled,
    term_depth,
    term_vars,
)
from .theories import Roles, recognize_theory
from .values import Dist, MultiSet, SumAtom, canon_key, sort_values


class InconclusiveNormalization(Exception):
    """Bounded congruence closure could not decide; no silent answer."""


@dataclass(frozen=True)
class QuotientMonad:
    """A finitary monad presented by a theory and realized by normal forms."""

    kind: str
    theory: Theory
    roles: Roles
    monad: MonadInstance

    def __post_init__(self):
        # the canonical algebra's operations, looked up by `normalize`
        object.__setattr__(self, "_ops", self.algebra().op)
        # each operation's one-layer step, by its name; GENERIC has none
        steps = _KINDS[self.kind][1] if self.kind in _KINDS else {}
        object.__setattr__(
            self,
            "_steps",
            {getattr(self.roles, role).name: step for role, step in steps.items()},
        )
        # each operation by (op_name, args, param) and mu_S by its input;
        # a copy made with dataclasses.replace starts empty, and
        # compose_stack and eval_term empty them when done
        object.__setattr__(self, "_results", {})
        object.__setattr__(self, "_op", tabled(self.compute_op, self._results))
        object.__setattr__(self, "mult", tabled(self.monad.mult, self._results))

    # q_X: terms over Const(x) -> normal forms (a monad morphism onto SX)
    def normalize(self, t: Term):
        return interpret(t, self._ops, self._leaf)

    def _leaf(self, u: Term):
        if isinstance(u, Const):
            return self.monad.unit(u.value)
        raise TermError("cannot normalize a term with free variables")

    def apply_op(self, op_name: str, args, param=None):
        """Canonical algebra structure on SY for any carrier Y, computed
        once per distinct (op_name, args, param)."""
        return self._op(op_name, tuple(args), param)

    def compute_op(self, op_name: str, args, param=None):
        """`apply_op` computed afresh, without reading or filling the table."""
        step = self._steps.get(op_name)
        if step is None:
            raise TermError(
                f"{self.kind.lower()} normal forms do not interpret {op_name!r}"
            )
        return self.monad.mult(step(tuple(args), param))

    def clear_memos(self):
        """Forget every tabulated operation and mu_S."""
        self._op.cache_clear()
        self.mult.cache_clear()
        self._results.clear()

    def representative(self, value) -> Term:
        """Canonical term mapping to `value` under q (deterministic)."""
        return _KINDS[self.kind][2](self.roles, value)

    def algebra(self, carrier=()) -> FiniteAlgebra:
        """The canonical algebra structure on an explicit carrier of SY."""
        interp = {
            o.name: functools.partial(self.apply_op, o.name)
            for o in self.theory.signature.ops
        }
        return FiniteAlgebra(tuple(carrier), interp)


# ---------------------------------------------------------------------------
# one-layer steps: each role's operation on S Y arguments, as a value of
# S(S Y) that mu_S flattens

def _counted(elems=()) -> MultiSet:
    """The multiset of `elems`, counted without the constructor's checks:
    the multiset steps' bag."""
    counts: dict = {}
    for e in elems:
        counts[e] = counts[e] + 1 if e in counts else 1
    return MultiSet._trusted(counts)


def _sum(bag) -> dict:
    """+ and abort as a sum of the arguments in `bag`, frozenset or `_counted`."""
    return {"plus": lambda args, p: bag(args), "abort": lambda args, p: bag()}


def _sum_of_words(bag) -> dict:
    """The four roles as a sum in `bag` of words of the arguments: ; is one
    word of two letters, + two words of one letter."""
    return {
        "seq": lambda args, p: bag([args]),
        "skip": lambda args, p: bag([()]),
        "plus": lambda args, p: bag([(a,) for a in args]),
        "abort": lambda args, p: bag(),
    }


def _mix(args, param):
    if isinstance(param, float):
        raise TermError(
            f"probability parameter {param!r} is a float; give a Fraction, an "
            "int or a string"
        )
    lam = param if type(param) is Fraction else Fraction(param)
    if not 0 <= lam.numerator <= lam.denominator:
        raise TermError(f"probability parameter {lam} outside [0,1]")
    return _mix_pair(*args, lam)


def _mix_pair(a, b, lam):
    """a ⊕[lam] b: numerators p and q - p for lam = p/q."""
    p, q = lam.numerator, lam.denominator
    if p == q or a == b:
        return Dist.dirac(a)
    if p == 0:
        return Dist.dirac(b)
    return Dist._trusted({a: p, b: q - p})  # 0 < p < q, a != b


# ---------------------------------------------------------------------------
# set-of-words (idempotent semiring) and multiset-of-words (semiring) monads:
# the composite C∘W of words inside C, glued by the Fubini law, which sends
# a word of C-values to a C-value of words

def _words_in(C: MonadInstance, name: str) -> MonadInstance:
    # the law is psi^(k) at a word of k C-values
    return composite(C, free_monoid(), lambda w: lift(C, tuple, w), name)


# ---------------------------------------------------------------------------
# two monoids with absorption: multisets of words over atoms, where an atom
# is a carrier element or a nested sum (total >= 2) that does not distribute

# The two-monoid operations build their normal forms with `_trusted`,
# without the constructor's checks: multiplicities are products and sums of
# positive ints.

def tm_unit(x) -> MultiSet:
    return MultiSet._trusted({(x,): 1})


def _tm_eval(v: MultiSet, leaf: Callable) -> MultiSet:
    """Rebuild `v` with carrier atoms sent through `leaf`, renormalizing.

    Each word is one pass over its letters, kept as a list of atoms: a
    letter worth abort drops the word, one worth a single word once is
    spliced in, and any other becomes a nested sum.  A word that ends as a
    lone nested sum is that sum (unit law of ;).
    """
    counts: dict = {}
    for word, n in v._d.items():
        atoms: list = []
        for atom in word:
            if isinstance(atom, SumAtom):
                av = _tm_eval(atom.summands, leaf)
            else:
                av = leaf(atom)
            d = av._d
            if len(d) == 1:
                ((w, k),) = d.items()
                if k == 1:
                    atoms.extend(w)
                    continue
            elif not d:
                break
            atoms.append(SumAtom(av))
        else:
            if len(atoms) == 1 and isinstance(atoms[0], SumAtom):
                summands = atoms[0].summands._d.items()
            else:
                summands = ((tuple(atoms), 1),)
            for w, k in summands:
                counts[w] = counts.get(w, 0) + n * k
    return MultiSet._trusted(counts)


def _tm_word_count(n_atoms: int, n_sums: int, max_len: int) -> int:
    """Canonical words of length <= max_len; a lone nested sum is not a word."""
    return sum(n_atoms**k for k in range(max_len + 1)) - n_sums


def _tm_words(atoms, max_len: int):
    return [
        w
        for k in range(max_len + 1)
        for w in itertools.product(atoms, repeat=k)
        # canonical words never consist of a lone sum
        if not (k == 1 and isinstance(w[0], SumAtom))
    ]


def _tm_enumerate(carrier, bound: Bound):
    # Every size is counted in closed form and guarded before any value is
    # built.  Distinct combinations of distinct words are distinct multisets,
    # and there are comb(W+S, S) multisets of at most S words out of W.
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
        n_nested = n_inner_nfs - 1 - n_inner  # the sums: total >= 2
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
        S = ib.max_set_size
        inner = Multisets(_tm_words(carrier, ib.max_word_len), S, S, S)
        atoms = carrier + [SumAtom(m) for m in inner if m.total() >= 2]
    S = bound.max_set_size
    return Multisets(_tm_words(atoms, bound.max_word_len), S, S, S)


def _tm_monad() -> MonadInstance:
    return MonadInstance(
        name="two-monoids",
        unit=tm_unit,
        map=lambda f, v: _tm_eval(v, lambda x: tm_unit(f(x))),
        mult=lambda vv: _tm_eval(vv, lambda inner: inner),
        lift=None,
        enumerate=_tm_enumerate,
    )


# ---------------------------------------------------------------------------
# representatives (canonical terms)

def _fold_left(f: OpSymbol, terms, empty: Term) -> Term:
    if not terms:
        return empty
    acc = terms[0]
    for t in terms[1:]:
        acc = app(f, acc, t)
    return acc


def _word_term(roles: Roles, word, atom_rep=Const) -> Term:
    return _fold_left(roles.seq, [atom_rep(a) for a in word], app(roles.skip))


def _summands(v):
    # a MultiSet iterates in canonical order; a set is sorted
    return sort_values(v) if isinstance(v, frozenset) else v


def _rep_sum(roles: Roles, v) -> Term:
    return _fold_left(roles.plus, [Const(x) for x in _summands(v)], app(roles.abort))


def _rep_convex(roles: Roles, d: Dist) -> Term:
    (x, w), *rest = d.items()
    if not rest:
        return Const(x)
    tail = Dist._trusted({e: d._d[e] for e, _ in rest})
    return App(roles.oplus, (Const(x), _rep_convex(roles, tail)), w)


def _rep_words(roles: Roles, v) -> Term:
    """Sum of words; a nested sum (two monoids) is a sum in parentheses."""

    def atom_rep(a):
        if isinstance(a, SumAtom):
            return _rep_words(roles, a.summands)
        return Const(a)

    return _fold_left(
        roles.plus,
        [_word_term(roles, w, atom_rep) for w in _summands(v)],
        app(roles.abort),
    )


# ---------------------------------------------------------------------------
# kind -> (monad factory, one-layer steps by role, representative)

_KINDS = {
    # ; is a word of two letters, skip the empty word
    "MONOID": (
        free_monoid,
        {"seq": lambda args, p: args, "skip": lambda args, p: ()},
        _word_term,
    ),
    "SEMILATTICE": (fin_powerset, _sum(frozenset), _rep_sum),
    "COMM_MONOID": (multiset, _sum(_counted), _rep_sum),
    "CONVEX": (fin_distribution, {"oplus": _mix}, _rep_convex),
    "IDEM_SEMIRING": (
        lambda: _words_in(fin_powerset(), "set-of-words"),
        _sum_of_words(frozenset),
        _rep_words,
    ),
    "SEMIRING": (
        lambda: _words_in(multiset(), "multiset-of-words"),
        _sum_of_words(_counted),
        _rep_words,
    ),
    # same one-layer steps as the semiring, different mult
    "TWO_MONOIDS_ABSORB": (_tm_monad, _sum_of_words(_counted), _rep_words),
}

CANONICAL_KINDS = tuple(_KINDS)


def quotient_monad(
    theory: Theory, kind: Optional[str] = None, bound: Optional[Bound] = None
) -> QuotientMonad:
    """Realize the free (signature, equations) monad by canonical normal forms.

    When `kind` is omitted the theory is recognized structurally; unknown
    theories fall back to GENERIC bounded congruence classes, which
    normalize within `bound` (`Bound()` by default).
    """
    rec_kind, roles = recognize_theory(theory)
    if kind is None:
        kind = rec_kind
    elif kind != "GENERIC" and kind != rec_kind:
        raise TermError(
            f"theory {theory.name!r} was recognized as {rec_kind}, not {kind}"
        )
    if kind == "GENERIC":
        return generic_quotient_monad(theory, bound)
    return QuotientMonad(kind, theory, roles, _KINDS[kind][0]())


# ---------------------------------------------------------------------------
# GENERIC: bounded congruence closure

@dataclass
class CongruenceClosure:
    """Equality of ground terms inside a bounded universe.

    Equation instances whose sides leave the universe are skipped, so the
    relation is a finitary truncation: it may fail to identify terms whose
    proof needs intermediates deeper than the bound, but every identification
    it does make is justified by the theory.

    The universe is closed under subterms, so an instance relates two of its
    terms exactly when each side matches one of them and the two matches
    bind the shared variables alike; matching is syntactic, so the instances
    are found once, before any merge.  Congruence is then closed by a
    signature table (Downey, Sethi & Tarjan, JACM 1980): each round keys
    every application by its operation, parameter and argument classes and
    merges it with the first term of its key, until a round merges nothing.
    """

    theory: Theory
    carrier: tuple
    bound: Bound

    def __post_init__(self):
        universe = free_term_monad(self.theory.signature).enumerate(
            self.carrier, self.bound
        )
        index = {t: i for i, t in enumerate(universe)}
        # an application as (head id, argument ids); a leaf as None
        heads: dict = {}
        nodes = [
            (
                heads.setdefault((t.op, t.param), len(heads)),
                tuple(index[a] for a in t.args),
            )
            if isinstance(t, App)
            else None
            for t in universe
        ]

        def match(pat: Term, i: int, env: dict) -> bool:
            if isinstance(pat, Var):
                return env.setdefault(pat.name, i) == i
            if isinstance(pat, Const):
                return index.get(pat) == i
            node = nodes[i]
            return (
                node is not None
                and node[0] == heads.get((pat.op, pat.param))
                and all(match(p, a, env) for p, a in zip(pat.args, node[1]))
            )

        def matches(pat: Term, shared):
            """Universe terms matching `pat`, keyed by the shared bindings."""
            out: dict = {}
            for i in range(len(universe)):
                env: dict = {}
                if match(pat, i, env):
                    out.setdefault(tuple(env[v] for v in shared), []).append(i)
            return out

        parent = list(range(len(universe)))

        def find(i: int) -> int:
            while parent[i] != i:
                parent[i] = parent[parent[i]]
                i = parent[i]
            return i

        def union(i: int, j: int) -> bool:
            ri, rj = find(i), find(j)
            parent[ri] = rj
            return ri != rj

        grid = self.bound.prob_grid
        for e in self.theory.equations:
            pnames = e.param_names
            for combo in itertools.product(grid, repeat=len(pnames)):
                penv = dict(zip(pnames, combo))
                try:
                    lhs = instantiate_params(e.lhs, penv)
                    rhs = instantiate_params(e.rhs, penv)
                except ParamDivisionByZero:
                    continue
                shared = [v for v in term_vars(lhs) if v in term_vars(rhs)]
                right = matches(rhs, shared)
                for key, left in matches(lhs, shared).items():
                    for i, j in itertools.product(left, right.get(key, ())):
                        union(i, j)

        apps = [(i, node) for i, node in enumerate(nodes) if node and node[1]]
        merged = True
        while merged:
            merged = False
            table: dict = {}
            for i, (head, args) in apps:
                first = table.setdefault((head, *map(find, args)), i)
                merged |= union(first, i)

        classes: dict = {}
        for i in range(len(universe)):
            classes.setdefault(find(i), []).append(i)

        def rep_key(i: int):
            return term_depth(universe[i]), canon_key(universe[i])

        reps = list(universe)  # a term alone in its class stands for itself
        for members in classes.values():
            if len(members) > 1:
                # the least key, computed once per member; ties keep
                # universe order
                rep = universe[min(members, key=rep_key)]
                for i in members:
                    reps[i] = rep
        self._index = index
        self._reps = reps
        self._universe = universe

    def normal_form(self, t: Term) -> Term:
        i = self._index.get(t)
        if i is None:
            raise InconclusiveNormalization(
                f"term outside the bounded universe: {self._why_outside(t)}"
            )
        return self._reps[i]

    def _why_outside(self, t: Term) -> str:
        """Each bound `t` breaks: an off-grid parameter, its depth, a constant."""
        b = self.bound
        grid = "{" + ", ".join(map(render_param, b.prob_grid)) + "}"
        why = [
            f"parameter {render_param(p)} is not on the grid {grid}"
            for p in sorted(_params(t) - set(b.prob_grid))
        ]
        depth = term_depth(t)
        if depth > b.max_term_depth:
            why.append(f"depth {depth} exceeds max_term_depth {b.max_term_depth}")
        outside = set(_consts(t)) - set(self.carrier)
        why += [f"constant {x} is not in the carrier" for x in sort_values(outside)]
        return "; ".join(why)


def generic_quotient_monad(
    theory: Theory, bound: Optional[Bound] = None
) -> QuotientMonad:
    """Congruence-class realization; sound only up to the enumeration bound.

    Operations and mu normalize in closures built from `bound` (`Bound()` by
    default), deepened to the term's depth.
    """

    @functools.cache
    def closure(carrier: tuple, b: Bound) -> CongruenceClosure:
        # the module's name is read at each build, so a wrapper on it sees all
        return CongruenceClosure(theory, carrier, b)

    default_bound = bound or Bound()

    @functools.cache
    def depth_bound(depth: int) -> Bound:  # building a Bound validates its grid
        return replace(default_bound, max_term_depth=depth)

    @functools.cache
    def term_closure(carrier: tuple, depth: int) -> CongruenceClosure:
        # keyed on the depth, not the Bound, whose hash hashes its grid
        return closure(carrier, depth_bound(depth))

    def norm_term(t: Term):
        carrier = tuple(sort_values(set(_consts(t))))
        depth = max(default_bound.max_term_depth, term_depth(t))
        return term_closure(carrier, depth).normal_form(t)

    def unit(x):
        return Const(x)

    def mmap(f, t):
        return norm_term(map_consts(t, f))

    def mult(tt):
        return norm_term(_graft(tt))

    def enum(carrier, bound: Bound):
        # one normal form per class, in the order the universe meets them
        return list(dict.fromkeys(closure(tuple(carrier), bound)._reps))

    monad = MonadInstance(
        name=f"generic({theory.name or 'theory'})",
        unit=unit,
        map=mmap,
        mult=mult,
        lift=None,
        enumerate=enum,
    )
    _, roles = recognize_theory(theory)

    return _GenericQuotient("GENERIC", theory, roles, monad, norm_term)


def _consts(t: Term):
    if isinstance(t, Const):
        yield t.value
    elif isinstance(t, App):
        for a in t.args:
            yield from _consts(a)


def _params(t: Term) -> set:
    if isinstance(t, App):
        return set().union({t.param} - {None}, *map(_params, t.args))
    return set()


@dataclass(frozen=True)
class _GenericQuotient(QuotientMonad):
    norm_term: Callable = field(repr=False, compare=False)

    def normalize(self, t: Term):
        return self.norm_term(t)

    def compute_op(self, op_name, args, param=None):
        op = self.theory.signature[op_name]
        return self.norm_term(App(op, tuple(args), param))

    def representative(self, value) -> Term:
        return value  # normal forms of the generic realization are terms
