"""A literature corpus: every seed x outer pair, pinned to what decides it.

Each row composes one two-layer stack (the seeds and outer layers of the
benchmark's pairs workload, outer operations renamed apart) and pins the
equations it drops, the status of its stage or `LawRefusedError`, and the
exit code `effectlayers compose` gives it (the report's, or 2 for a refused
law).  Each row also cites the theorem that decides it, or says "none
known" and pins today's answer.  The shipped three-layer spec is the last
row, with one drop set and status per stage.

Rule: no row VERIFIES an unweakened combination that a cited theorem says
has no distributive law; such a row must drop an equation, and brute
force must have falsified it.
"""

from dataclasses import dataclass
from fractions import Fraction as F
from pathlib import Path

import pytest

from effectlayers.distlaw import LawRefusedError
from effectlayers.monads import Bound
from effectlayers.normal_forms import InconclusiveNormalization
from effectlayers.pipeline import INNER_SEED, OUTER, VERIFIED, LayerSpec, compose_stack
from effectlayers.preservation import FALSIFIED, THM_LINEAR
from effectlayers.specfile import parse_spec
from effectlayers.terms import OpSymbol, Signature, Theory, Var, app, equation
from effectlayers.theories import (
    comm_monoid_theory,
    convex_theory,
    monoid_theory,
    semilattice_theory,
)

SHIPPED_SPEC = Path(__file__).resolve().parent.parent / "specs" / "probnetkat.layers"

# the benchmark's law bound: ceiling 20,000, caps 60 and 5
BOUND = Bound(
    max_word_len=2,
    max_set_size=3,
    max_term_depth=2,
    prob_grid=(F(0), F(1, 2), F(1)),
    ceiling=20_000,
)
CAPS = dict(law_cap=60, algebra_cap=5)
X = ("a", "b")


def _semigroup():
    x, y, z = Var("x"), Var("y"), Var("z")
    star = OpSymbol("*", 2)
    assoc = equation(app(star, x, app(star, y, z)), app(star, app(star, x, y), z), "assoc(*)")
    return Theory(Signature((star,)), (assoc,), name="semigroup")


SEEDS = {
    "monoid": lambda: (monoid_theory(), "MONOID"),
    "semilattice": lambda: (semilattice_theory(), "SEMILATTICE"),
    "commmonoid": lambda: (comm_monoid_theory(), "COMM_MONOID"),
    "semigroup": lambda: (_semigroup(), None),  # no canonical normal form
    "convex": lambda: (convex_theory(), "CONVEX"),
}
_U, _ZERO = OpSymbol("u", 2), OpSymbol("zero", 0)
OUTERS = {
    "powerset": lambda: (semilattice_theory(_U, _ZERO), "SEMILATTICE"),
    "multiset": lambda: (comm_monoid_theory(_U, _ZERO), "COMM_MONOID"),
    "dist": lambda: (convex_theory(OpSymbol("o", 2, param=True)), "CONVEX"),
}


@dataclass(frozen=True)
class Row:
    drops: tuple          # dropped equation names, sorted; one tuple per stage
    status: object        # per-stage statuses, or LawRefusedError
    exit_code: int
    cites: str            # the deciding theorem, or "none known"
    no_go: bool = False   # the cited theorem says no law exists unweakened


LINEAR = (
    "linear equations are preserved by every commutative T (the source "
    "paper's preservation theorem)"
)
CONVEX = (
    "none known: ROADMAP item 4, CONVEX is recognized from the signature "
    "alone, so the weakened theory keeps the convex normal forms and the "
    "law is refused"
)
KEEP = Row(((),), (VERIFIED,), 0, LINEAR)
IDEM = (("idem(+)",),)
REFUSED = Row((("idem(⊕)",),), LawRefusedError, 2, CONVEX)

CORPUS = {
    ("monoid", "powerset"): KEEP,
    ("monoid", "multiset"): KEEP,
    ("monoid", "dist"): KEEP,
    ("semilattice", "powerset"): Row(
        IDEM, (VERIFIED,), 1,
        "no distributive law PP -> PP (Klin & Salamanca, 'Iterated covariant "
        "powerset is not a monad', MFPS 2018)",
        no_go=True,
    ),
    ("semilattice", "multiset"): Row(
        IDEM, (VERIFIED,), 1,
        "none known: multiset is not relevant, and brute force falsifies idem(+)",
    ),
    ("semilattice", "dist"): Row(
        IDEM, (VERIFIED,), 1,
        "no distributive law of probability over nondeterminism for the "
        "unweakened theory (Varacca & Winskel, MSCS 2006)",
        no_go=True,
    ),
    ("commmonoid", "powerset"): KEEP,
    ("commmonoid", "multiset"): KEEP,
    ("commmonoid", "dist"): KEEP,
    ("semigroup", "powerset"): KEEP,
    ("semigroup", "multiset"): KEEP,
    ("semigroup", "dist"): KEEP,
    ("convex", "powerset"): REFUSED,
    ("convex", "multiset"): REFUSED,
    ("convex", "dist"): REFUSED,
}

SHIPPED = Row(
    ((), ("distrib-left(;,+)", "distrib-right(;,+)", "idem(+)")),
    (VERIFIED, VERIFIED),
    1,
    "stage 1: linear equations; stage 2: no distributive law of probability "
    "over nondeterminism for the unweakened theory (Varacca & Winskel, MSCS "
    "2006), and the absorptions kept because distribution is affine "
    "(affine-with-dropping; Jacobs, APAL 1994)",
    no_go=True,
)


def _pair(seed, outer):
    return (
        LayerSpec(seed, *SEEDS[seed](), INNER_SEED),
        LayerSpec(outer, *OUTERS[outer](), OUTER),
    )


def _check(layers, atoms, row: Row):
    assert row.cites
    if row.status is LawRefusedError:
        with pytest.raises(LawRefusedError):
            compose_stack(layers, atoms=atoms, bound=BOUND, **CAPS)
        assert row.exit_code == 2  # `effectlayers compose` on a refused law
        # the drops that precede the refusal, decided without laws
        report = compose_stack(layers, atoms=atoms, bound=BOUND, build_laws=False)
    else:
        report = compose_stack(layers, atoms=atoms, bound=BOUND, **CAPS)
        assert tuple(s.status for s in report.stages) == row.status
        assert report.exit_code == row.exit_code
    drops = tuple(tuple(sorted(e.name for e, _ in s.weakened.dropped)) for s in report.stages)
    assert drops == row.drops
    if row.cites == LINEAR:
        assert all(v.theorem == THM_LINEAR for s in report.stages for v in s.verdicts)
    if row.no_go:
        dropped = [v for s in report.stages for _, v in s.weakened.dropped]
        assert dropped and all(v.status == FALSIFIED for v in dropped)


def test_the_corpus_covers_every_pair():
    assert set(CORPUS) == {(s, o) for s in SEEDS for o in OUTERS}


@pytest.mark.parametrize("pair", list(CORPUS), ids=">".join)
def test_pair(pair):
    _check(_pair(*pair), X, CORPUS[pair])


def test_shipped_stack():
    spec = parse_spec(SHIPPED_SPEC.read_text(encoding="utf-8"))
    _check(spec.layers, spec.atoms, SHIPPED)


@pytest.mark.xfail(
    strict=True,
    reason="ROADMAP item 11: a GENERIC normal form changes with the closure's "
    "depth, so q is no function of the class and DL.4 fails",
)
def test_a_generic_seed_whose_classes_merge_only_deeper():
    # (y*y)*x = (x*y)*x is falsified and dropped; b*a = a*b follows from the
    # other two only through terms deeper than b*a
    star, e = OpSymbol("*", 2), OpSymbol("e", 0)
    x, y, z, unit = Var("x"), Var("y"), Var("z"), app(e)
    seed = Theory(
        Signature((star, e)),
        (
            equation(app(star, app(star, y, y), x), app(star, app(star, x, y), x)),
            equation(
                app(star, app(star, z, x), app(star, unit, y)), app(star, y, app(star, z, x))
            ),
            equation(z, app(star, z, app(star, unit, unit))),
        ),
        name="seed",
    )
    layers = (
        LayerSpec("seed", seed, None, INNER_SEED),
        LayerSpec("dist", *OUTERS["dist"](), OUTER),
    )
    try:
        report = compose_stack(layers, atoms=X, bound=BOUND, **CAPS)
    except InconclusiveNormalization:
        return
    assert report.stages[0].status == VERIFIED
