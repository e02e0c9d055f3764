"""Acceptance gate: seven end-to-end criteria, one test each.

Each criterion gets a single pass/fail line in the terminal summary (see
conftest.py).  The oracles here are written independently of the library
internals they audit: set/multiset program semantics are re-derived from
scratch, and preservation verdicts are confirmed against exhaustive
model checking over all small algebras.
"""

from fractions import Fraction as F
from itertools import product

from effectlayers.distlaw import (
    verify_monad,
    verify_monoidal,
)
from effectlayers.monads import (
    Bound,
    fin_distribution,
    fin_powerset,
    free_monoid,
    free_term_monad,
    multiset,
)
from effectlayers.normal_forms import quotient_monad
from effectlayers.pipeline import eval_term
from effectlayers.preservation import (
    PRESERVED_SYNTACTIC,
    FALSIFIED,
    check_preservation,
    enumerate_algebras,
    lifted_algebra,
    profile_monad,
)
from effectlayers.render import render_value
from effectlayers.specfile import parse_program
from effectlayers.terms import (
    App,
    Const,
    OpSymbol,
    Signature,
    Theory,
    Var,
    equation,
    find_violation,
    map_consts,
    term_vars,
)
from effectlayers.theories import (
    convex_theory,
    idem_semiring_theory,
    monoid_theory,
    semilattice_theory,
    two_monoids_absorption_theory,
)
from effectlayers.values import Dist, MultiSet

GRID3 = (F(0), F(1, 2), F(1))
GRID5 = (F(0), F(1, 4), F(1, 2), F(3, 4), F(1))


# ---------------------------------------------------------------------------
# Criterion 1: monad laws + monoidal coherence for every monad in the tool


def test_criterion_1_monad_and_monoidal_suite():
    b = Bound(max_set_size=4, prob_grid=GRID5)
    carriers = [("a",), ("a", "b"), ("a", "b", "c")]
    quotients = [
        quotient_monad(build())
        for build in (
            monoid_theory,
            semilattice_theory,
            idem_semiring_theory,
            two_monoids_absorption_theory,
            convex_theory,
        )
    ]

    failures = []
    for X in carriers:
        for T in (fin_powerset(), multiset(), fin_distribution()):
            for r in verify_monad(T, X, b) + verify_monoidal(T, X, b):
                if not r.ok:
                    failures.append((T.name, r.axiom))
        for r in verify_monad(free_monoid(), X, b):
            if not r.ok:
                failures.append(("free monoid", r.axiom))
        for q in quotients:
            for r in verify_monad(q.monad, X, b):
                if not r.ok:
                    failures.append((q.kind, r.axiom))
    assert failures == []


# ---------------------------------------------------------------------------
# Criterion 2: stage 1 — powerset over the trace monoid


def test_criterion_2_stage_one_reproduction(flagship):
    s1 = flagship.stages[0]
    # every monoid equation survives, each via the linear-equations theorem
    assert not s1.weakened.dropped
    assert all(v.theorem == "linear-equations" for v in s1.verdicts)

    # the law exists; check DL.1-4 exhaustively, no sampling, |A| = 2,
    # words of length <= 2, every subset enumerated
    law = s1.law
    assert law is not None
    T = fin_powerset()
    S = law.inner.monad  # free monoid normal forms (words)
    b = Bound(max_word_len=2, max_set_size=4, prob_grid=GRID3)
    X = ("a", "b")

    tx = T.enumerate(X, b)
    assert len(tx) == 4  # full subset enumeration of a 2-element carrier
    sx = S.enumerate(X, b)
    stx = S.enumerate(tuple(tx), b)
    for s in sx:  # DL.1
        assert law.apply(S.map(T.unit, s)) == T.unit(s)
    for t in tx:  # DL.2
        assert law.apply(S.unit(t)) == T.map(S.unit, t)
    ttx = T.enumerate(tuple(tx), b)
    assert len(ttx) == 16
    for s in S.enumerate(tuple(ttx), b):  # DL.3, all 273 inputs
        assert law.apply(S.map(T.mult, s)) == T.mult(T.map(law.apply, law.apply(s)))
    for s in S.enumerate(tuple(stx), b):  # DL.4, all 463 inputs
        assert law.apply(S.mult(s)) == T.map(S.mult, law.apply(S.map(law.apply, s)))


# ---------------------------------------------------------------------------
# Criterion 3: stage 2 — distributions over the idempotent semiring


def test_criterion_3_stage_two_reproduction(flagship):
    s2 = flagship.stages[1]
    verdicts = {v.equation.name: v for v in s2.verdicts}

    idem = verdicts["idem(+)"]
    assert idem.status == FALSIFIED
    # the witness: the fair coin, copied independently, puts weight 1/4 on
    # the mixed pair while the diagonal copy puts 0 there
    relevant = idem.evidence[0]
    coin = relevant.counterexample["value"]
    assert coin == Dist({"a": F(1, 2), "b": F(1, 2)})
    independent = dict(relevant.counterexample["psi.diag"].items())
    diagonal = dict(relevant.counterexample["T(diag)"].items())
    assert independent[("a", "b")] == F(1, 4)
    assert ("a", "b") not in diagonal

    assert verdicts["distrib-left(;,+)"].status == FALSIFIED
    assert verdicts["distrib-right(;,+)"].status == FALSIFIED

    for name in (
        "assoc(;)", "unit-left(;)", "unit-right(;)",
        "assoc(+)", "comm(+)", "unit-left(+)", "unit-right(+)",
    ):
        assert verdicts[name].status == PRESERVED_SYNTACTIC, name

    # absorption survives because D is affine: D1 has exactly one value
    D = fin_distribution()
    assert len(D.enumerate(("x",), Bound(prob_grid=GRID3))) == 1
    assert s2.profile.affine.ok
    for name in ("absorb-left(;,abort)", "absorb-right(;,abort)"):
        assert verdicts[name].status == PRESERVED_SYNTACTIC
        assert verdicts[name].theorem == "affine-with-dropping"

    # the emitted theory: two monoids (i)-(vi) + absorption + convex axioms
    # + the four generated distributivity axioms, and nothing else
    final = {e.name for e in flagship.final_theory.equations}
    assert final == {
        "assoc(;)", "unit-left(;)", "unit-right(;)",
        "assoc(+)", "comm(+)", "unit-left(+)", "unit-right(+)",
        "absorb-left(;,abort)", "absorb-right(;,abort)",
        "idem(⊕)", "skew-comm(⊕)", "skew-assoc(⊕)",
        "distrib-left(;,⊕)", "distrib-right(;,⊕)",
        "distrib-left(+,⊕)", "distrib-right(+,⊕)",
    }
    assert flagship.exit_code == 1


# ---------------------------------------------------------------------------
# Criterion 4: the powerset-over-powerset obstruction


def test_criterion_4_powerset_over_powerset(choice_over_choice):
    report = choice_over_choice
    stage = report.stages[0]
    dropped = {e.name: v for e, v in stage.weakened.dropped}
    assert "idem(+)" in dropped
    v = dropped["idem(+)"]
    assert v.status == FALSIFIED
    # concrete counterexample on a small carrier
    assert v.counterexample is not None
    assert v.counterexample["lhs"] != v.counterexample["rhs"]
    # and an explicit refusal to build the unweakened law
    assert "cannot quotient the law" in stage.unweakened_refusal


# ---------------------------------------------------------------------------
# Criterion 5: preserved verdicts vs exhaustive model checking


def test_criterion_5_theorem_vs_oracle_soundness():
    f = OpSymbol("f", 2)
    c = OpSymbol("c", 0)
    sig = Signature((f, c))
    b = Bound(max_word_len=2, max_set_size=3, prob_grid=GRID3)
    X = ("a", "b")

    leaves = [Var("x"), Var("y"), Var("z"), App(c, ())]
    terms = list(leaves)
    for l, r in product(leaves, repeat=2):
        terms.append(App(f, (l, r)))
    order = ("x", "y", "z")

    monads = [fin_powerset(), multiset(), fin_distribution()]
    profiles = {T.name: profile_monad(T, X, b) for T in monads}

    checked = preserved = 0
    for lhs, rhs in product(terms, repeat=2):
        ctx = tuple(v for v in order if v in set(term_vars(lhs) + term_vars(rhs)))
        e = equation(lhs, rhs, context=ctx)
        theory = Theory(sig, (e,))
        models = {
            size: list(enumerate_algebras(theory, size)) for size in (1, 2)
        }
        for T in monads:
            checked += 1
            v = check_preservation(T, e, profiles[T.name], X, b, theory=theory)
            if v.status != PRESERVED_SYNTACTIC:
                continue
            preserved += 1
            # oracle: the lifted equation must hold in the lifting of every
            # model of the inner theory with carrier size <= 2
            for size in (1, 2):
                for A in models[size]:
                    LA = lifted_algebra(T, A, b)
                    w = find_violation(LA, e, b.prob_grid)
                    assert w is None, (T.name, e.describe(), size, w)
    assert checked == len(terms) ** 2 * 3
    assert preserved > 200  # the theorems do claim a substantial fraction


# ---------------------------------------------------------------------------
# Criterion 6: evaluator corpus vs an independent oracle


def _oracle_sets(t):
    """Stage-1 semantics, re-derived: sets of finished trace words."""
    if isinstance(t, Const):
        return frozenset({(t.value,)})
    name = t.op.name
    if name == "skip":
        return frozenset({()})
    if name == "abort":
        return frozenset()
    a, b = (_oracle_sets(u) for u in t.args)
    if name == ";":
        return frozenset(u + v for u in a for v in b)
    if name == "+":
        return a | b
    raise AssertionError(f"unexpected op {name}")


def _linearize(t):
    """Push every probabilistic choice to the top: a list of weighted
    coin-free programs.  Justified by the skew axioms and the generated
    distributivity of ; and + over the coin."""
    if isinstance(t, Const) or not t.args:
        return [(F(1), t)]
    if t.op.name == "⊕":
        p = t.param
        out = [(p * w, u) for w, u in _linearize(t.args[0])]
        out += [((1 - p) * w, u) for w, u in _linearize(t.args[1])]
        return [(w, u) for w, u in out if w]
    parts = [_linearize(u) for u in t.args]
    out = []
    for combo in product(*parts):
        w = F(1)
        for wi, _ in combo:
            w *= wi
        out.append((w, App(t.op, tuple(u for _, u in combo), None)))
    return out


def _oracle_msets(t):
    """Stage-2 semantics of coin-free programs without + under ; :
    multisets of trace words."""
    if isinstance(t, Const):
        return MultiSet([(t.value,)])
    name = t.op.name
    if name == "skip":
        return MultiSet([()])
    if name == "abort":
        return MultiSet()
    a, b = (_oracle_msets(u) for u in t.args)
    if name == ";":
        return MultiSet(
            {u + v: i * j for u, i in a.items() for v, j in b.items()}
        )
    if name == "+":
        return a.union(b)
    raise AssertionError(f"unexpected op {name}")


def _oracle_dist(t):
    acc = {}
    for w, residue in _linearize(t):
        v = _oracle_msets(residue)
        acc[v] = acc.get(v, F(0)) + w
    return Dist(acc)


STAGE1_PROGRAMS = [
    "(a + b);c",
    "a;abort",
    "a;(b + c)",
    "(a + b);(a + b)",
    "skip + a;b",
    "(a;b);c + a;(b;c)",
    "abort + abort",
    "a + (b + a)",
    "skip;skip",
    "(a + skip);b",
    "a;b;c",
    "abort;(a + b)",
]

STAGE2_PROGRAMS = [
    "a;c (+)[1/2] b;c",
    "a (+)[1/2] b",
    "a;b (+)[1/4] b;a",
    "(a (+)[1/2] b);c",
    "a;(b (+)[1/3] c)",
    "(a (+)[1/2] b) + c",
    "skip (+)[1/2] a;a",
    "(a (+)[1/2] b) (+)[1/2] c",
    "a (+)[0] b",
    "a (+)[1] b",
    "a (+)[1/2] a",
    "a + a",
    "abort (+)[1/2] abort",
    "(a;a (+)[2/3] b) + (c (+)[1/2] skip)",
]


def test_criterion_6_evaluator_corpus(flagship, shipped_spec):
    atoms = shipped_spec.atoms
    sig1 = shipped_spec.signature_at(1)
    sig2 = shipped_spec.signature_at(2)

    # the three named programs, byte for byte
    named = [
        ("(a + b);c", 1, "{ac, bc}"),
        ("a;abort", 1, "{}"),
        ("(a (+)[1/2] b);c", 2, "⟨⟨ac⟩⟩: 1/2, ⟨⟨bc⟩⟩: 1/2"),
    ]
    for text, stage, expected in named:
        prog = parse_program(text, sig2, atoms)
        assert render_value(eval_term(flagship, prog, stage, atoms)) == expected

    assert len(STAGE1_PROGRAMS) + len(STAGE2_PROGRAMS) >= 20
    for text in STAGE1_PROGRAMS:
        prog = parse_program(text, sig1, atoms)
        got = render_value(eval_term(flagship, prog, 1, atoms))
        want = render_value(_oracle_sets(prog))
        assert got == want, (text, got, want)
    for text in STAGE2_PROGRAMS:
        prog = parse_program(text, sig2, atoms)
        got = render_value(eval_term(flagship, prog, 2, atoms))
        want = render_value(_oracle_dist(prog))
        assert got == want, (text, got, want)


# ---------------------------------------------------------------------------
# Criterion 7: naturality of psi, q, rho, lambda


def _all_functions(X, Y):
    for images in product(Y, repeat=len(X)):
        yield dict(zip(X, images))


_CARRIERS = [("a",), ("a", "b")]


def test_criterion_7_naturality_spot_suite(flagship):
    b = Bound(max_word_len=2, max_set_size=3, prob_grid=GRID3)

    # psi: T(f x g) o psi = psi o (Tf x Tg)
    for T in (fin_powerset(), multiset(), fin_distribution()):
        for X, Y, X2, Y2 in product(_CARRIERS, repeat=4):
            for fm in _all_functions(X, Y):
                for gm in _all_functions(X2, Y2):
                    for u in T.enumerate(X, b):
                        for v in T.enumerate(X2, b):
                            lhs = T.map(
                                lambda p: (fm[p[0]], gm[p[1]]), T.fubini(u, v)
                            )
                            rhs = T.fubini(
                                T.map(lambda x: fm[x], u),
                                T.map(lambda x: gm[x], v),
                            )
                            assert lhs == rhs, (T.name, fm, gm, u, v)

    # q: S(f) o q = q o (term map f) for the quotient normalizers
    for build in (
        monoid_theory,
        semilattice_theory,
        convex_theory,
        two_monoids_absorption_theory,
    ):
        q = quotient_monad(build())
        tm = free_term_monad(q.theory.signature)
        tb = Bound(max_term_depth=2, prob_grid=GRID3)
        for X, Y in product(_CARRIERS, repeat=2):
            for fm in _all_functions(X, Y):
                for t in tm.enumerate(X, tb):
                    lhs = q.monad.map(lambda x: fm[x], q.normalize(t))
                    rhs = q.normalize(map_consts(t, lambda x: fm[x]))
                    assert lhs == rhs, (q.kind, fm, t)

    # rho and lambda for both stages of the flagship stack
    for stage in flagship.stages:
        law = stage.law
        T, S = law.outer, law.inner
        tm = free_term_monad(S.theory.signature)
        tb = Bound(max_term_depth=2, max_word_len=1, max_set_size=2, prob_grid=GRID3)
        for X, Y in product(_CARRIERS, repeat=2):
            for fm in _all_functions(X, Y):
                tf = lambda tv: T.map(lambda x: fm[x], tv)
                tx = T.enumerate(X, tb)
                for t in tm.enumerate(tuple(tx), tb):  # rho naturality
                    lhs = T.map(
                        lambda u: map_consts(u, lambda x: fm[x]),
                        law.rho(t),
                    )
                    rhs = law.rho(map_consts(t, tf))
                    assert lhs == rhs, (stage.outer_name, fm, t)
                for sv in S.monad.enumerate(tuple(tx), tb):  # lambda naturality
                    lhs = T.map(
                        lambda v: S.monad.map(lambda x: fm[x], v), law.apply(sv)
                    )
                    rhs = law.apply(S.monad.map(tf, sv))
                    assert lhs == rhs, (stage.outer_name, fm, sv)
