from dataclasses import replace
from fractions import Fraction as F
from itertools import product

import pytest

from effectlayers.distlaw import _enum, verify_monad
from effectlayers.monads import Bound, free_term_monad
from effectlayers.normal_forms import (
    CongruenceClosure,
    generic_quotient_monad,
    quotient_monad,
)
from effectlayers.terms import (
    App,
    Const,
    OpSymbol,
    ParamDivisionByZero,
    Signature,
    Theory,
    Var,
    app,
    equation,
    eval_param,
    instantiate_params,
    subst_vars,
    term_depth,
    term_vars,
)
from effectlayers.theories import (
    comm_monoid_theory,
    convex_theory,
    idem_semiring_theory,
    monoid_theory,
    semilattice_theory,
    semiring_theory,
    two_monoids_absorption_theory,
)
from effectlayers.values import SumAtom, canon_key

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
        pnames = e.param_names()
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


@pytest.mark.parametrize("build, kind", TABLE_CASES, ids=[k for _, k in TABLE_CASES])
def test_tabulated_operations_equal_a_fresh_monad(build, kind):
    q, fresh = quotient_monad(build()), quotient_monad(build())
    assert q.kind == kind
    ops, mults = _table_inputs(q)
    assert ops and mults
    for name, args, p in ops:
        out = q.apply_op(name, args, p)
        assert out == fresh.compute_op(name, args, p), (name, args, p)
        assert q.apply_op(name, list(args), p) is out
    for v in mults:
        out = q.mult(v)
        assert out == fresh.monad.mult(v), v
        assert q.mult(v) is out
    assert fresh.op_memo == fresh.mult_memo == fresh.result_memo == {}
    assert len(q.mult_memo) == len(set(mults))
    # equal results of distinct inputs are one object
    results = list(q.op_memo.values()) + list(q.mult_memo.values())
    assert len({id(r) for r in results}) == len(set(results)) < len(results)
    q.clear_memos()
    assert q.op_memo == q.mult_memo == q.result_memo == {}


@pytest.mark.parametrize("build, kind", THEORIES, ids=[k for _, k in THEORIES])
def test_a_copy_starts_with_empty_tables(build, kind):
    q = quotient_monad(build())
    ops, mults = _table_inputs(q)
    q.apply_op(*ops[-1])
    q.mult(mults[-1])
    copy = replace(q)
    assert copy == q and q.op_memo and q.mult_memo
    assert copy.op_memo == copy.mult_memo == copy.result_memo == {}
    assert copy.apply_op(*ops[-1]) == q.apply_op(*ops[-1])
    assert q.op_memo is not copy.op_memo
