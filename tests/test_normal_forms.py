from fractions import Fraction as F
from itertools import product

import pytest

from effectlayers.distlaw import _enum, verify_monad
from effectlayers.monads import Bound
from effectlayers.normal_forms import generic_quotient_monad, quotient_monad
from effectlayers.terms import App, Const, Var, eval_param
from effectlayers.theories import (
    comm_monoid_theory,
    convex_theory,
    idem_semiring_theory,
    monoid_theory,
    semilattice_theory,
    semiring_theory,
    two_monoids_absorption_theory,
)
from effectlayers.values import SumAtom

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
        reports = verify_monad(q.monad, [(("a", "b"), NB)])
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
