from dataclasses import replace
from fractions import Fraction as F
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from effectlayers import normal_forms, theories
from effectlayers.distlaw import _enum, verify_monad
from effectlayers.monads import Bound, free_term_monad
from effectlayers.normal_forms import (
    CongruenceClosure,
    InconclusiveNormalization,
    _mix_pair,
    _tm_enumerate,
    _tm_eval,
    generic_quotient_monad,
    quotient_monad,
)
from effectlayers.terms import (
    App,
    Const,
    OpSymbol,
    ParamDivisionByZero,
    Signature,
    TermError,
    Theory,
    Var,
    app,
    equation,
    eval_param,
    instantiate_params,
    term_depth,
    term_vars,
)
from effectlayers.theories import (
    comm_monoid_theory,
    convex_theory,
    idem_semiring_theory,
    law_name,
    monoid_theory,
    semilattice_theory,
    semiring_theory,
    two_monoids_absorption_theory,
)
from effectlayers.values import MultiSet, SumAtom, canon_key

GRID3 = (F(0), F(1, 2), F(1))
NB = Bound(max_word_len=2, max_set_size=2, max_multiplicity=2, prob_grid=GRID3)

THEORIES = [
    (monoid_theory, "MONOID"),
    (semilattice_theory, "SEMILATTICE"),
    (comm_monoid_theory, "COMM_MONOID"),
    (convex_theory, "CONVEX"),
    (idem_semiring_theory, "IDEM_SEMIRING"),
    (semiring_theory, "SEMIRING"),
    (two_monoids_absorption_theory, "TWO_MONOIDS_ABSORB"),
]

# parameter valuations avoiding the zero denominator in skew-associativity
PENVS = [
    {"l": F(1, 2), "t": F(1, 2)},
    {"l": F(1), "t": F(1, 2)},
    {"l": F(1, 2), "t": F(1)},
]


def subst_vars(t, env):
    """`t` with each variable replaced by its term in `env`."""
    if isinstance(t, Var):
        return env[t.name]
    if isinstance(t, Const):
        return t
    return App(t.op, tuple(subst_vars(a, env) for a in t.args), t.param)


def q_interp(q, t, env, penv):
    """Interpret a term in the canonical algebra on the quotient carrier."""
    if isinstance(t, Var):
        return env[t.name]
    if isinstance(t, Const):
        return q.monad.unit(t.value)
    assert isinstance(t, App)
    args = [q_interp(q, a, env, penv) for a in t.args]
    param = t.param
    if param is not None and not isinstance(param, F):
        param = eval_param(param, penv)
    return q.apply_op(t.op.name, args, param)


def small_carrier(q, cap=6):
    vs = _enum(q.monad.enumerate, ("a", "b"), NB, cap=200)
    if len(vs) <= cap:
        return vs
    step = max(1, len(vs) // cap)
    return vs[::step][:cap]


def test_every_kind_but_convex_has_its_laws_in_the_kind_table():
    # theories writes each kind's laws; normal_forms holds its monad
    assert set(theories._KIND_LAWS) | {"CONVEX"} == set(normal_forms._KINDS)


@pytest.mark.parametrize("build, kind", THEORIES, ids=[k for _, k in THEORIES])
class TestQuotientSoundness:
    def test_recognized_kind(self, build, kind):
        assert quotient_monad(build()).kind == kind

    def test_equations_hold_on_normal_forms(self, build, kind):
        theory = build()
        q = quotient_monad(theory)
        carrier = small_carrier(q)
        for e in theory.equations:
            ctx = e.context
            for vals in product(carrier, repeat=len(ctx)):
                env = dict(zip(ctx, vals))
                for penv in PENVS:
                    lhs = q_interp(q, e.lhs, env, penv)
                    rhs = q_interp(q, e.rhs, env, penv)
                    assert lhs == rhs, (e.name, env, penv)

    def test_representative_round_trips(self, build, kind):
        q = quotient_monad(build())
        for v in _enum(q.monad.enumerate, ("a", "b"), NB, cap=200):
            t = q.representative(v)
            assert q.normalize(t) == v, t

    def test_monad_laws(self, build, kind):
        q = quotient_monad(build())
        reports = verify_monad(q.monad, ("a", "b"), NB)
        assert all(r.ok for r in reports), [r.counterexample for r in reports]


class TestTwoMonoidsCanonicality:
    def test_no_lone_sum_atom_words(self):
        q = quotient_monad(two_monoids_absorption_theory())
        for v in _enum(q.monad.enumerate, ("a", "b"), NB, cap=200):
            for word, _ in v.items():
                assert not (len(word) == 1 and isinstance(word[0], SumAtom)), v

    def test_lone_sum_flattens_under_seq(self):
        q = quotient_monad(two_monoids_absorption_theory())
        ab = q.apply_op("+", [q.monad.unit("a"), q.monad.unit("b")])
        seq = q.apply_op(";", [ab, q.apply_op("skip", [])])
        assert seq == ab


class TestGenericClosure:
    def test_generic_agrees_with_semilattice_on_ground_terms(self):
        theory = semilattice_theory()
        qg = generic_quotient_monad(theory)
        a, b = Const("a"), Const("b")
        plus = theory.signature["+"]
        t1 = App(plus, (App(plus, (a, b), None), a), None)
        t2 = App(plus, (b, a), None)
        assert qg.normalize(t1) == qg.normalize(t2)
        assert qg.normalize(a) != qg.normalize(b)

    def test_generic_respects_every_ground_instance(self):
        theory = monoid_theory()
        qg = generic_quotient_monad(theory)
        consts = [Const("a"), Const("b")]
        for e in theory.equations:
            for vals in product(consts, repeat=len(e.context)):
                env = dict(zip(e.context, vals))
                lhs = _subst(e.lhs, env)
                rhs = _subst(e.rhs, env)
                assert qg.normalize(lhs) == qg.normalize(rhs), e.name

    def test_a_term_outside_the_universe_names_the_bound_it_breaks(self):
        theory = monoid_theory()
        dot = theory.signature[";"]
        closure = CongruenceClosure(
            theory, ("a",), Bound(max_term_depth=1, prob_grid=GRID3)
        )
        a, c = Const("a"), Const("c")
        for t, why in [
            (App(dot, (a, a), None), "depth 2 exceeds max_term_depth 1"),
            (c, "constant c is not in the carrier"),
            (
                App(dot, (c, a), None),
                "depth 2 exceeds max_term_depth 1; constant c is not in the carrier",
            ),
        ]:
            with pytest.raises(InconclusiveNormalization) as exc:
                closure.normal_form(t)
            assert str(exc.value) == f"term outside the bounded universe: {why}"


def _subst(t, env):
    if isinstance(t, Var):
        return env[t.name]
    if isinstance(t, Const):
        return t
    return App(t.op, tuple(_subst(a, env) for a in t.args), t.param)


# ---------------------------------------------------------------------------
# CongruenceClosure against a naive reference fixpoint


def _naive_normal_forms(theory, carrier, bound):
    """Reference closure: every round re-matches every equation side against
    the whole universe and compares every pair of applications."""
    universe = free_term_monad(theory.signature).enumerate(carrier, bound)
    uni_set = set(universe)
    parent = {t: t for t in universe}

    def find(t):
        while parent[t] != t:
            t = parent[t]
        return t

    def union(a, b):
        ra, rb = find(a), find(b)
        parent[ra] = rb
        return ra != rb

    def match(pat, t, env):
        if isinstance(pat, Var):
            return env.setdefault(pat.name, t) == t
        if isinstance(pat, Const):
            return pat == t
        return (
            isinstance(t, App)
            and t.op == pat.op
            and t.param == pat.param
            and all(match(p, a, env) for p, a in zip(pat.args, t.args))
        )

    sides = []
    for e in theory.equations:
        pnames = e.param_names
        for combo in product(bound.prob_grid, repeat=len(pnames)):
            penv = dict(zip(pnames, combo))
            try:
                li = instantiate_params(e.lhs, penv)
                ri = instantiate_params(e.rhs, penv)
            except ParamDivisionByZero:
                continue
            sides += [(li, ri, e.context), (ri, li, e.context)]

    changed = True
    while changed:
        changed = False
        for pat, other_side, ctx in sides:
            free = [v for v in ctx if v not in term_vars(pat)]
            for t in universe:
                env = {}
                if not match(pat, t, env):
                    continue
                for extra in product(universe, repeat=len(free)):
                    env.update(zip(free, extra))
                    inst = subst_vars(other_side, env)
                    if inst in uni_set:
                        changed |= union(t, inst)
        for t in universe:
            for other in universe:
                if (
                    isinstance(t, App)
                    and t.args
                    and isinstance(other, App)
                    and (other.op, other.param) == (t.op, t.param)
                    and all(find(a) == find(b) for a, b in zip(t.args, other.args))
                ):
                    changed |= union(t, other)

    reps = {}
    for t in universe:
        r = find(t)
        if r not in reps or (term_depth(t), canon_key(t)) < (
            term_depth(reps[r]),
            canon_key(reps[r]),
        ):
            reps[r] = t
    return {t: reps[find(t)] for t in universe}


_X, _Y, _Z = Var("x"), Var("y"), Var("z")
_M = OpSymbol("m", 2)
_COIN = OpSymbol("⊕", 2, param=True)


def _semigroup():
    star = OpSymbol("*", 2)
    assoc = equation(
        app(star, _X, app(star, _Y, _Z)), app(star, app(star, _X, _Y), _Z), "assoc(*)"
    )
    return Theory(Signature((star,)), (assoc,), "semigroup")


def _generic_seed():
    # the GENERIC seed of the CLI tests: m associative, ⊕ free
    assoc = equation(app(_M, _X, app(_M, _Y, _Z)), app(_M, app(_M, _X, _Y), _Z))
    return Theory(Signature((_M, _COIN)), (assoc,), "seed")


def _projection():
    # y occurs on one side only, so its instances range over the universe
    return Theory(Signature((_M,)), (equation(app(_M, _X, _Y), _X, "proj"),), "proj")


CLOSURE_CASES = [
    ("semigroup", _semigroup, ("a", "b"), 1),
    ("semigroup", _semigroup, ("a", "b"), 2),
    ("semigroup", _semigroup, ("a", "b"), 3),
    ("generic-seed", _generic_seed, ("a", "b"), 2),
    ("generic-seed", _generic_seed, ("a",), 3),
    ("projection", _projection, ("a", "b"), 2),
    ("projection", _projection, ("a", "b"), 3),
    ("convex", convex_theory, ("a", "b"), 2),
    ("convex", convex_theory, ("a",), 3),
    ("monoid", monoid_theory, ("a", "b"), 2),
    ("monoid", monoid_theory, ("a",), 3),
]


@pytest.mark.parametrize(
    "build, carrier, depth",
    [c[1:] for c in CLOSURE_CASES],
    ids=[f"{name}-{len(atoms)}atoms-depth{d}" for name, _, atoms, d in CLOSURE_CASES],
)
def test_closure_matches_naive_fixpoint(build, carrier, depth):
    theory = build()
    bound = Bound(prob_grid=GRID3, max_term_depth=depth)
    expected = _naive_normal_forms(theory, carrier, bound)
    closure = CongruenceClosure(theory, carrier, bound)
    assert set(closure._universe) == set(expected)
    for t in closure._universe:
        assert closure.normal_form(t) == expected[t], t


# ---------------------------------------------------------------------------
# canonical normal forms against congruence closure


@pytest.mark.parametrize("build, kind", THEORIES, ids=[k for _, k in THEORIES])
def test_normal_forms_agree_with_closure(build, kind):
    theory = build()
    q = quotient_monad(theory)
    for depth in (2, 3):
        closure = CongruenceClosure(
            theory, ("a", "b"), Bound(max_term_depth=depth, prob_grid=GRID3)
        )
        classes: dict = {}
        for t in closure._universe:
            classes.setdefault(closure.normal_form(t), set()).add(q.normalize(t))
        # sound: the closure identifies only terms with one normal form
        assert all(len(nfs) == 1 for nfs in classes.values()), depth
        # complete at depth 2: no normal form spans two classes.  The CONVEX
        # normal forms identify a ⊕[1] b with a; the closure keeps them apart
        if depth == 2 and kind != "CONVEX":
            assert len(set().union(*classes.values())) == len(classes)


# ---------------------------------------------------------------------------
# tabulated operations and mu_S


def _table_inputs(q):
    """The operation applications and mu_S inputs of a law-check fragment:
    every operation on the small carrier, and S(S X) values as DL.4 builds
    them, at shrunk bounds."""
    carrier = small_carrier(q)
    ops = [
        (o.name, args, p)
        for o in q.theory.signature.ops
        for args in product(carrier, repeat=o.arity)
        for p in (GRID3 if o.param else (None,))
    ]
    mults = _enum(q.monad.enumerate, carrier, NB.shrink(), cap=120)
    return ops, mults


TABLE_CASES = THEORIES + [(_semigroup, "GENERIC")]


def _table_sizes(q):
    """The entries of q's operation and mu_S tables, and its distinct results."""
    return q._op.cache_info().currsize, q.mult.cache_info().currsize, len(q._results)


@pytest.mark.parametrize("build, kind", TABLE_CASES, ids=[k for _, k in TABLE_CASES])
def test_tabulated_operations_equal_a_fresh_monad(build, kind):
    q, fresh = quotient_monad(build()), quotient_monad(build())
    assert q.kind == kind
    ops, mults = _table_inputs(q)
    assert ops and mults
    results = []
    for name, args, p in ops:
        out = q.apply_op(name, args, p)
        assert out == fresh.compute_op(name, args, p), (name, args, p)
        assert q.apply_op(name, list(args), p) is out
        results.append(out)
    for v in mults:
        out = q.mult(v)
        assert out == fresh.monad.mult(v), v
        assert q.mult(v) is out
        results.append(out)
    assert _table_sizes(fresh) == (0, 0, 0)
    assert _table_sizes(q)[:2] == (len(ops), len(set(mults)))
    # equal results of distinct inputs are one object
    distinct = len(set(results))
    assert len({id(r) for r in results}) == distinct < len(results)
    assert _table_sizes(q)[2] == distinct
    q.clear_memos()
    assert _table_sizes(q) == (0, 0, 0)


@pytest.mark.parametrize("build, kind", THEORIES, ids=[k for _, k in THEORIES])
def test_a_copy_starts_with_empty_tables(build, kind):
    q = quotient_monad(build())
    ops, mults = _table_inputs(q)
    q.apply_op(*ops[-1])
    q.mult(mults[-1])
    copy = replace(q)
    assert copy == q and _table_sizes(q)[:2] == (1, 1)
    assert _table_sizes(copy) == (0, 0, 0)
    assert copy.apply_op(*ops[-1]) == q.apply_op(*ops[-1])
    assert q._op is not copy._op and q.mult is not copy.mult


def test_a_copy_of_a_generic_monad_starts_with_empty_tables():
    q = quotient_monad(_semigroup())
    ops, mults = _table_inputs(q)
    for op in ops:
        q.apply_op(*op)
    q.mult(mults[-1])
    copy = replace(q)
    assert copy.kind == "GENERIC" and copy == q and all(_table_sizes(q))
    assert _table_sizes(copy) == (0, 0, 0)
    depth3 = replace(NB, max_term_depth=3)
    terms = free_term_monad(q.theory.signature).enumerate(("a", "b"), depth3)
    assert len(terms) > len({q.normalize(t) for t in terms}) > 2
    assert [copy.normalize(t) for t in terms] == [q.normalize(t) for t in terms]
    assert [copy.apply_op(*op) for op in ops] == [q.apply_op(*op) for op in ops]


# ---------------------------------------------------------------------------
# one-pass two-monoid mu_S against the fold it replaced: each word folded
# through the binary product, which re-atomizes the whole prefix per letter


def _fold_atomize(v: MultiSet):
    if len(v._d) == 1:
        ((word, n),) = v._d.items()
        if n == 1:
            return list(word)
    return [SumAtom(v)]


def _fold_seq(a: MultiSet, b: MultiSet) -> MultiSet:
    if not a or not b:
        return MultiSet._trusted({})
    atoms = _fold_atomize(a) + _fold_atomize(b)
    if len(atoms) == 1 and isinstance(atoms[0], SumAtom):
        return atoms[0].summands
    return MultiSet._trusted({tuple(atoms): 1})


def _fold_eval(v: MultiSet, leaf) -> MultiSet:
    counts: dict = {}
    for word, n in v._d.items():
        wv = MultiSet._trusted({(): 1})
        for atom in word:
            if isinstance(atom, SumAtom):
                av = _fold_eval(atom.summands, leaf)
            else:
                av = leaf(atom)
            wv = _fold_seq(wv, av)
        for w, k in wv._d.items():
            counts[w] = counts.get(w, 0) + n * k
    return MultiSet._trusted(counts)


def _same_mu(v, leaf):
    got, want = _tm_eval(v, leaf), _fold_eval(v, leaf)
    assert got == want and canon_key(got) == canon_key(want), v


def _tm_map_leaf(f):
    return lambda x: MultiSet._trusted({(f(x),): 1})


_TM = quotient_monad(two_monoids_absorption_theory())
# bounds with nested sums and without
_NESTED = Bound(max_word_len=2, max_set_size=2, max_term_depth=2)
_FLAT = Bound(max_word_len=2, max_set_size=2, max_term_depth=1)


def test_one_pass_map_matches_the_fold_on_enumerated_values():
    values = [*_tm_enumerate(("a",), _NESTED), *_tm_enumerate(("a", "b", "c"), _FLAT)]
    assert any(
        isinstance(letter, SumAtom) for v in values for w, _ in v.items() for letter in w
    )
    nested = SumAtom(MultiSet([("b",), ("c",)]))
    collapsing = (lambda x: "a", lambda x: "a" if x == "b" else x, lambda x: nested)
    for v in values:
        for f in collapsing:
            _same_mu(v, _tm_map_leaf(f))
            assert _TM.monad.map(f, v) == _fold_eval(v, _tm_map_leaf(f))


def test_one_pass_mult_matches_the_fold_on_enumerated_values():
    seq, plus, skip = _TM.roles.seq, _TM.roles.plus, _TM.roles.skip
    ab = _TM.normalize(app(plus, Const("a"), Const("b")))
    a_ab = _TM.normalize(app(seq, Const("a"), app(plus, app(skip), Const("b"))))
    # abort, skip, a letter, a sum and a word with a nested sum, as letters
    # of S(S X) without nesting; each one alone, with nesting
    carrier = (MultiSet(), MultiSet([()]), _TM.monad.unit("a"), ab, a_ab)
    assert any(isinstance(letter, SumAtom) for w, _ in a_ab.items() for letter in w)
    inputs = list(_tm_enumerate(carrier, _FLAT))
    for value in carrier:
        inputs += _tm_enumerate((value,), _NESTED)
    assert len(inputs) > 5000
    for vv in inputs:
        _same_mu(vv, lambda inner: inner)
        assert _TM.monad.mult(vv) == _fold_eval(vv, lambda inner: inner)


def _tm_words(letters):
    return st.lists(letters, max_size=3).map(tuple)


def _tm_values(letters):
    """Multisets of at most three words of at most three letters."""
    return st.lists(_tm_words(letters), max_size=3).map(MultiSet)


def _with_sums(letters):
    """Letters and nested sums of words of them, to any depth."""
    return st.recursive(
        letters,
        lambda inner: st.lists(_tm_words(inner), min_size=2, max_size=3).map(
            lambda words: SumAtom(MultiSet(words))
        ),
        max_leaves=6,
    )


_SX = _tm_values(_with_sums(st.sampled_from("ab")))


@settings(max_examples=200, deadline=None)
@given(_tm_values(_with_sums(_SX)))
def test_one_pass_mult_matches_the_fold_on_generated_values(vv):
    _same_mu(vv, lambda inner: inner)


@settings(max_examples=200, deadline=None)
@given(_SX, _SX, _SX)
def test_one_pass_eval_matches_the_fold_on_generated_leaves(v, a, b):
    # a leaf may be abort, skip, one word or a sum
    _same_mu(v, {"a": a, "b": b}.__getitem__)


# ---------------------------------------------------------------------------
# the step tables and the law index against the code they replaced: one
# if-chain per kind, and an alpha-matcher run on every law instance


def _old_step(kind):
    """The one-layer application of `kind` as one if-chain on the role names."""

    def monoid(roles, op, args, param):
        if op == roles.seq.name:
            return args
        if op == roles.skip.name:
            return ()
        raise TermError(f"monoid normal forms do not interpret {op!r}")

    def sums(bag):
        def step(roles, op, args, param):
            if op == roles.plus.name:
                return bag(args)
            if op == roles.abort.name:
                return bag()
            raise TermError(f"sum normal forms do not interpret {op!r}")

        return step

    def convex(roles, op, args, param):
        if op == roles.oplus.name:
            lam = param if type(param) is F else F(param)
            if not 0 <= lam <= 1:
                raise TermError(f"probability parameter {lam} outside [0,1]")
            a, b = args
            return _mix_pair(a, b, lam)
        raise TermError(f"convex normal forms do not interpret {op!r}")

    def words(bag):
        def step(roles, op, args, param):
            if op == roles.seq.name:
                return bag([args])
            if op == roles.skip.name:
                return bag([()])
            if op == roles.plus.name:
                return bag([(a,) for a in args])
            if op == roles.abort.name:
                return bag()
            raise TermError(f"word-sum normal forms do not interpret {op!r}")

        return step

    return {
        "MONOID": monoid,
        "SEMILATTICE": sums(frozenset),
        "COMM_MONOID": sums(MultiSet),
        "CONVEX": convex,
        "IDEM_SEMIRING": words(frozenset),
        "SEMIRING": words(MultiSet),
        "TWO_MONOIDS_ABSORB": words(MultiSet),
    }[kind]


@pytest.mark.parametrize("build, kind", THEORIES, ids=[k for _, k in THEORIES])
def test_step_tables_equal_the_if_chains(build, kind):
    q = quotient_monad(build())
    old = _old_step(kind)
    small = Bound(max_word_len=2, max_set_size=2, max_multiplicity=1, max_term_depth=1)
    values = q.monad.enumerate(("a", "b"), small)
    assert len(values) >= 3
    checked = 0
    for o in q.theory.signature.ops:
        for args in product(values, repeat=o.arity):
            for p in GRID3 if o.param else (None,):
                want = q.monad.mult(old(q.roles, o.name, args, p))
                assert q.compute_op(o.name, args, p) == want, (o.name, args, p)
                checked += 1
    assert checked >= len(values) ** 2


def _old_match(t, pat, varmap):
    if isinstance(pat, Var):
        if pat.name in varmap:
            return varmap[pat.name] == t
        if not isinstance(t, Var):
            return False
        if t in varmap.values():
            return False
        varmap[pat.name] = t
        return True
    if isinstance(pat, App):
        if not isinstance(t, App) or t.op != pat.op:
            return False
        return all(_old_match(a, p, varmap) for a, p in zip(t.args, pat.args))
    return t == pat


def _old_equation_matches(e, pat_lhs, pat_rhs):
    for l, r in ((e.lhs, e.rhs), (e.rhs, e.lhs)):
        varmap = {}
        if _old_match(l, pat_lhs, varmap) and _old_match(r, pat_rhs, varmap):
            return True
    return False


def _old_pattern(e, sig):
    for f in sig.ops:
        if f.arity != 2:
            continue
        for law, o in theories._instances(f, sig.ops):
            if _old_equation_matches(e, *theories._LAWS[law][2](f, o)):
                return law, f, o
    return None


def _old_describe(e, sig):
    pattern = _old_pattern(e, sig)
    return theories._law_name(*pattern) if pattern else e.describe()


_M, _K = OpSymbol("m", 2), OpSymbol("k", 0, param=True)
_MIXED_SIG = Signature((_M, theories.OPLUS, OpSymbol("c", 0), _K))


@pytest.mark.parametrize(
    "sig",
    [build().signature for build, _ in THEORIES] + [_MIXED_SIG],
    ids=[k for _, k in THEORIES] + ["mixed"],
)
def test_law_names_equal_the_alpha_matcher(sig):
    """Every law instance, in both orientations, under a renaming of its
    variables and with two of them merged, and a few equations that are no
    law, get the name the matcher gave."""
    equations = []
    for f in sig.ops:
        if f.arity != 2:
            continue
        for law, o in theories._instances(f, sig.ops):
            lhs, rhs = theories._LAWS[law][2](f, o)
            names = equation(lhs, rhs).context
            renamed = {v: Var(f"v{len(names) - i}") for i, v in enumerate(names)}
            merged = {v: Var(names[0]) for v in names}
            for l, r in ((lhs, rhs), (rhs, lhs)):
                equations.append(equation(l, r))
                for env in (renamed, merged):
                    equations.append(equation(subst_vars(l, env), subst_vars(r, env)))
    x, y = Var("x"), Var("y")
    for f in sig.ops:
        if f.arity == 2:
            w = F(1, 2) if f.param else None
            fxy, fxx = app(f, x, y, param=w), app(f, x, x, param=w)
            equations += [equation(fxy, x), equation(fxx, fxx)]
    equations.append(equation(x, y))
    named = 0
    for e in equations:
        got = law_name(e.lhs, e.rhs, sig) or e.describe()
        assert got == _old_describe(e, sig), e.describe()
        named += _old_pattern(e, sig) is not None
    assert named > len(equations) // 3
