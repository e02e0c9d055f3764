"""Quotient monads: free-algebra monads realized by canonical normal forms.

Each canonical theory (monoid, semilattice, commutative monoid, convex
algebra, idempotent semiring, semiring, two monoids with absorption) comes
with a normal-form value type, a normalizer q (terms -> normal forms), a
representative map back into terms, and a lawful monad structure.  A bounded
congruence-closure fallback covers theories without a known normal form.
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
    _graft,
    _guard,
    composite,
    fin_distribution,
    fin_powerset,
    free_monoid,
    free_term_monad,
    fubini_tuples,
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
    # each operation applied so far, by (op_name, args, param), and each
    # mu_S, by its S(S Y) input; a copy made with dataclasses.replace
    # starts empty, and compose_stack and eval_term empty them when done
    op_memo: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    mult_memo: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    # one object per distinct result of either table. Distinct inputs can
    # give equal results (mu_S is many-to-one); as separate objects, a set
    # would keep whichever its hash-seeded iteration met first, and how many
    # canonical orders get computed would vary from run to run
    result_memo: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        # the canonical algebra's operations, looked up by `normalize`
        object.__setattr__(self, "_ops", self.algebra().op)

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
        key = (op_name, tuple(args), param)
        try:
            return self.op_memo[key]
        except KeyError:
            pass
        out = self.compute_op(*key)
        out = self.op_memo[key] = self.result_memo.setdefault(out, out)
        return out

    def compute_op(self, op_name: str, args, param=None):
        """`apply_op` computed afresh, without reading or filling the table."""
        shallow = _KINDS[self.kind][1]
        return self.monad.mult(shallow(self.roles, op_name, tuple(args), param))

    def mult(self, v):
        """mu_S: S(S Y) -> S Y, computed once per distinct input."""
        try:
            return self.mult_memo[v]
        except KeyError:
            pass
        out = self.monad.mult(v)
        out = self.mult_memo[v] = self.result_memo.setdefault(out, out)
        return out

    def clear_memos(self):
        """Forget every tabulated operation and mu_S."""
        self.op_memo.clear()
        self.mult_memo.clear()
        self.result_memo.clear()

    def representative(self, value) -> Term:
        """Canonical term mapping to `value` under q (deterministic)."""
        return _KINDS[self.kind][2](self.roles, value)

    def algebra(self, carrier=(), name: str = "") -> FiniteAlgebra:
        """The canonical algebra structure on an explicit carrier of SY."""
        interp = {
            o.name: functools.partial(self.apply_op, o.name)
            for o in self.theory.signature.ops
        }
        return FiniteAlgebra(tuple(carrier), interp, name=name)


# ---------------------------------------------------------------------------
# shallow one-layer applications: build S(S Y) from an op and S Y arguments

def _sh_monoid(roles: Roles, op, args, param):
    if op == roles.seq.name:
        return args  # a 2-letter word of values
    if op == roles.skip.name:
        return ()
    raise TermError(f"monoid normal forms do not interpret {op!r}")


def _sh_semilattice(roles: Roles, op, args, param):
    if op == roles.plus.name:
        return frozenset(args)
    if op == roles.abort.name:
        return frozenset()
    raise TermError(f"semilattice normal forms do not interpret {op!r}")


def _sh_comm_monoid(roles: Roles, op, args, param):
    if op == roles.plus.name:
        return MultiSet(args)
    if op == roles.abort.name:
        return MultiSet()
    raise TermError(f"multiset normal forms do not interpret {op!r}")


def _sh_convex(roles: Roles, op, args, param):
    if op == roles.oplus.name:
        lam = Fraction(param)
        if not 0 <= lam <= 1:
            raise TermError(f"probability parameter {lam} outside [0,1]")
        a, b = args
        return _mix_pair(a, b, lam)
    raise TermError(f"convex normal forms do not interpret {op!r}")


def _mix_pair(a, b, lam):
    if lam == 1:
        return Dist.dirac(a)
    if lam == 0:
        return Dist.dirac(b)
    if a == b:
        return Dist.dirac(a)
    return Dist({a: lam, b: 1 - lam})


def _sh_idem_semiring(roles: Roles, op, args, param):
    if op == roles.seq.name:
        return frozenset([args])  # one word of two letters
    if op == roles.skip.name:
        return frozenset([()])
    if op == roles.plus.name:
        return frozenset([(a,) for a in args])
    if op == roles.abort.name:
        return frozenset()
    raise TermError(f"idempotent-semiring normal forms do not interpret {op!r}")


def _sh_semiring(roles: Roles, op, args, param):
    if op == roles.seq.name:
        return MultiSet([args])
    if op == roles.skip.name:
        return MultiSet([()])
    if op == roles.plus.name:
        return MultiSet([(a,) for a in args])
    if op == roles.abort.name:
        return MultiSet()
    raise TermError(f"semiring normal forms do not interpret {op!r}")


# ---------------------------------------------------------------------------
# set-of-words (idempotent semiring) and multiset-of-words (semiring) monads:
# the composite C∘W of words inside C, glued by the Fubini law, which sends
# a word of C-values to a C-value of words

def _words_in(C: MonadInstance, name: str) -> MonadInstance:
    return composite(C, free_monoid(), lambda w: fubini_tuples(C, len(w), w), name)


# ---------------------------------------------------------------------------
# two monoids with absorption: multisets of words over atoms, where an atom
# is a carrier element or a nested sum (total >= 2) that does not distribute

# The two-monoid operations build their normal forms with `_trusted`,
# without the constructor's checks: multiplicities are products and sums of
# positive ints.

def tm_abort() -> MultiSet:
    return MultiSet._trusted({})


def tm_skip() -> MultiSet:
    return MultiSet._trusted({(): 1})


def tm_unit(x) -> MultiSet:
    return MultiSet._trusted({(x,): 1})


def _tm_atomize(v: MultiSet):
    if len(v._d) == 1:
        ((word, n),) = v._d.items()
        if n == 1:
            return list(word)
    return [SumAtom(v)]


def tm_seq(a: MultiSet, b: MultiSet) -> MultiSet:
    if not a or not b:
        return tm_abort()
    atoms = _tm_atomize(a) + _tm_atomize(b)
    if len(atoms) == 1 and isinstance(atoms[0], SumAtom):
        # a one-factor product of a sum is that sum (unit law of ;)
        return atoms[0].summands
    return MultiSet._trusted({tuple(atoms): 1})


def _tm_eval(v: MultiSet, leaf: Callable) -> MultiSet:
    """Rebuild `v` with carrier atoms sent through `leaf`, renormalizing."""
    counts: dict = {}
    for word, n in v._d.items():
        wv = tm_skip()
        for atom in word:
            if isinstance(atom, SumAtom):
                av = _tm_eval(atom.summands, leaf)
            else:
                av = leaf(atom)
            wv = tm_seq(wv, av)
        for w, k in wv._d.items():
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


def _tm_nfs(words, min_total: int, max_total: int):
    return [
        MultiSet(combo)
        for total in range(min_total, max_total + 1)
        for combo in itertools.combinations_with_replacement(words, total)
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
        inner_words = _tm_words(carrier, ib.max_word_len)
        atoms = carrier + [
            SumAtom(m) for m in _tm_nfs(inner_words, 2, ib.max_set_size)
        ]
    nfs = _tm_nfs(_tm_words(atoms, bound.max_word_len), 0, bound.max_set_size)
    return sort_values(dict.fromkeys(nfs))


def _tm_monad() -> MonadInstance:
    return MonadInstance(
        name="two-monoids",
        unit=tm_unit,
        map=lambda f, v: _tm_eval(v, lambda x: tm_unit(f(x))),
        mult=lambda vv: _tm_eval(vv, lambda inner: inner),
        fubini=None,
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
    items = list(d.items())
    if not items:
        raise TermError("empty distribution has no representative")
    if len(items) == 1:
        return Const(items[0][0])
    (x, w), rest = items[0], items[1:]
    tail = Dist({e: p / (1 - w) for e, p in rest})
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
# kind -> (monad factory, shallow one-layer application, representative)

_KINDS = {
    "MONOID": (free_monoid, _sh_monoid, _word_term),
    "SEMILATTICE": (fin_powerset, _sh_semilattice, _rep_sum),
    "COMM_MONOID": (multiset, _sh_comm_monoid, _rep_sum),
    "CONVEX": (fin_distribution, _sh_convex, _rep_convex),
    "IDEM_SEMIRING": (
        lambda: _words_in(fin_powerset(), "set-of-words"),
        _sh_idem_semiring,
        _rep_words,
    ),
    "SEMIRING": (
        lambda: _words_in(multiset(), "multiset-of-words"),
        _sh_semiring,
        _rep_words,
    ),
    # same one-layer shape as the semiring, different mult
    "TWO_MONOIDS_ABSORB": (_tm_monad, _sh_semiring, _rep_words),
}

CANONICAL_KINDS = tuple(_KINDS)


def quotient_monad(theory: Theory, kind: Optional[str] = None) -> QuotientMonad:
    """Realize the free (signature, equations) monad by canonical normal forms.

    When `kind` is omitted the theory is recognized structurally; unknown
    theories fall back to GENERIC bounded congruence classes.
    """
    rec_kind, roles = recognize_theory(theory)
    if kind is None:
        kind = rec_kind
    elif kind != "GENERIC" and kind != rec_kind:
        raise TermError(
            f"theory {theory.name!r} was recognized as {rec_kind}, not {kind}"
        )
    if kind == "GENERIC":
        return generic_quotient_monad(theory)
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
            pnames = e.param_names()
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
                "term outside the bounded universe; enlarge max_term_depth"
            )
        return self._reps[i]


def generic_quotient_monad(theory: Theory) -> QuotientMonad:
    """Congruence-class realization; sound only up to the enumeration bound."""

    closures: dict = {}

    def closure(carrier, bound: Bound) -> CongruenceClosure:
        key = (tuple(carrier), bound)
        if key not in closures:
            closures[key] = CongruenceClosure(theory, tuple(carrier), bound)
        return closures[key]

    default_bound = Bound()
    bounds: dict = {}  # by depth: building a Bound validates its grid

    def norm_term(t: Term):
        carrier = tuple(sort_values(set(_consts(t))))
        depth = max(default_bound.max_term_depth, term_depth(t))
        if depth not in bounds:
            bounds[depth] = replace(default_bound, max_term_depth=depth)
        return closure(carrier, bounds[depth]).normal_form(t)

    def unit(x):
        return Const(x)

    def mmap(f, t):
        return norm_term(map_consts(t, f))

    def mult(tt):
        return norm_term(_graft(tt))

    def enum(carrier, bound: Bound):
        # one normal form per class, in the order the universe meets them
        return list(dict.fromkeys(closure(carrier, bound)._reps))

    monad = MonadInstance(
        name=f"generic({theory.name or 'theory'})",
        unit=unit,
        map=mmap,
        mult=mult,
        fubini=None,
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


class _GenericQuotient(QuotientMonad):
    def __init__(self, kind, theory, roles, monad, norm_term):
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "theory", theory)
        object.__setattr__(self, "roles", roles)
        object.__setattr__(self, "monad", monad)
        object.__setattr__(self, "op_memo", {})
        object.__setattr__(self, "mult_memo", {})
        object.__setattr__(self, "result_memo", {})
        object.__setattr__(self, "_norm_term", norm_term)

    def normalize(self, t: Term):
        return self._norm_term(t)

    def compute_op(self, op_name, args, param=None):
        op = self.theory.signature[op_name]
        return self._norm_term(App(op, tuple(args), param))

    def representative(self, value) -> Term:
        return value  # normal forms of the generic realization are terms
