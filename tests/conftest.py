import re
from fractions import Fraction as F
from pathlib import Path

import pytest

from effectlayers import Bound, compose_stack, probnetkat_stack

SMALL_GRID = (F(0), F(1, 2), F(1))


@pytest.fixture(scope="session")
def small_bound():
    return Bound(
        max_word_len=2, max_set_size=3, max_term_depth=2, prob_grid=SMALL_GRID
    )


@pytest.fixture(scope="session")
def tiny_bound():
    return Bound(
        max_word_len=2, max_set_size=2, max_term_depth=2, prob_grid=SMALL_GRID
    )


@pytest.fixture(scope="session")
def flagship(small_bound):
    """The fully composed three-layer stack, shared across the session."""
    return compose_stack(
        probnetkat_stack(),
        atoms=("a", "b"),
        bound=small_bound,
        law_cap=60,
        algebra_cap=12,
    )


@pytest.fixture(scope="session")
def flagship_axiom_check(flagship, small_bound):
    """The flagship's stage-2 generated-axiom check as `compose_stack` sets
    it up: the composite algebra on the sampled carrier, the axioms and the
    parameter grid.  The algebra reads a copy of S, so the shared stage's
    operation tables stay empty."""
    from dataclasses import replace

    from effectlayers.distlaw import _enum
    from effectlayers.pipeline import composite_algebra

    s2 = flagship.stages[1]
    carrier = _enum(s2.composite.enumerate, ("a", "b"), small_bound, cap=12)
    outer_q = s2.outer_monad
    algebra = composite_algebra(replace(s2.inner_monad), outer_q)
    algebra = replace(algebra, carrier=carrier)
    axioms = s2.weakened.generated + flagship.layers[2].theory.equations
    return algebra, axioms, small_bound.prob_grid


@pytest.fixture(scope="session")
def choice_over_choice(small_bound):
    """Nondeterminism lifted over nondeterminism (with renamed outer ops)."""
    from effectlayers.terms import OpSymbol
    from effectlayers.theories import INNER_SEED, OUTER, LayerSpec, semilattice_theory

    seed = LayerSpec("inner choice", semilattice_theory(), "SEMILATTICE", INNER_SEED)
    outer = LayerSpec(
        "outer choice",
        semilattice_theory(OpSymbol("u", 2), OpSymbol("zero", 0)),
        "SEMILATTICE",
        OUTER,
    )
    return compose_stack([seed, outer], bound=small_bound, law_cap=40, algebra_cap=8)


@pytest.fixture(scope="session")
def shipped_spec():
    from effectlayers.specfile import parse_spec

    path = Path(__file__).resolve().parent.parent / "specs" / "probnetkat.layers"
    return parse_spec(path.read_text())


def pytest_terminal_summary(terminalreporter):
    """One explicit pass/fail line per acceptance criterion."""
    results = {}
    for status in ("passed", "failed", "error"):
        for rep in terminalreporter.stats.get(status, []):
            m = re.search(r"test_acceptance\.py::test_criterion_(\d+)", rep.nodeid)
            if m:
                n = int(m.group(1))
                ok = status == "passed" and results.get(n, True)
                results[n] = ok
    if not results:
        return
    terminalreporter.write_sep("-", "acceptance criteria")
    for n in sorted(results):
        verdict = "PASS" if results[n] else "FAIL"
        terminalreporter.write_line(f"ACCEPTANCE CRITERION {n}: {verdict}")
