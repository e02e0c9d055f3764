"""The benchmark's three workloads, their inputs and their known answers.

Every answer checked here is written down ahead of time (the paper's
verdicts, hand-derived exit codes) or computed by an interpreter that
lives in this file and shares no code with the workbench.

* flagship -- `probnetkat_stack()` on atoms a, b, fully composed and
  verified, then its laws report.  Stage-2 law verification over the
  two-monoid normal forms dominates, including enumerations that the
  bound's ceiling refuses.  The input is fixed; the seed is unused.
* pairs -- five two-layer stacks, fully composed and verified.  No
  enumeration is refused; the time goes to generated-axiom checks, monad
  laws and, for the semigroup seed, the GENERIC congruence closure.  The
  seed picks the two atom names and the order of the stacks.
* eval -- seeded closed programs over `specs/probnetkat.layers` at stages
  0, 1, 2 (weights 1:1:2), shaped like the repo's evaluator corpus, each
  parsed, evaluated and rendered.  No law check and no enumeration: the
  values layer is used through operations.  Results are compared with
  `oracle`, an interpreter over words, sets of words and distributions
  over sets of words.
"""

from __future__ import annotations

import random
import re
import string
from fractions import Fraction

SMALL_GRID = (Fraction(0), Fraction(1, 2), Fraction(1))

# The flagship test fixture (tests/conftest.py) uses these bounds with the
# default ceiling of 200,000 and algebra_cap=12, and one composition then
# takes about a minute.  At a ceiling of 20,000 the flagship keeps its
# verdicts and all-PASS law reports and still refuses enumerations (14 of
# 34 attempts), each at about a tenth of the cost; at 15,000 even the
# flattest composite-carrier fallback is refused.  algebra_cap=5 keeps
# the generated-axiom checks from dominating.  One benchmark run can then
# repeat the composition several times.
LAW_BOUND = dict(
    max_word_len=2,
    max_set_size=3,
    max_term_depth=2,
    prob_grid=SMALL_GRID,
    ceiling=20_000,
)
LAW_CAP = 60
ALGEBRA_CAP = 5

# the bound `effectlayers check` uses when no --bounds file is given
CHECK_BOUND = dict(prob_grid=SMALL_GRID, max_set_size=3)

# the paper's stage-2 verdict for traces, then nondeterminism, then
# probability: stage 1 drops nothing
STAGE_DROPS = ((), ("distrib-left(;,+)", "distrib-right(;,+)", "idem(+)"))


def check_stage_drops(report) -> str | None:
    drops = tuple(
        tuple(sorted(e.describe() for e, _ in s.weakened.dropped)) for s in report.stages
    )
    if drops != STAGE_DROPS:
        return f"dropped {drops}, expected {STAGE_DROPS}"
    kept = {e.describe() for e in report.stages[1].weakened.kept}
    if not {"absorb-left(;,abort)", "absorb-right(;,abort)"} <= kept:
        return f"stage 2 lost absorption: kept {sorted(kept)}"
    return None


def dropped_names(report) -> tuple:
    return tuple(sorted(e.describe() for s in report.stages for e, _ in s.weakened.dropped))


def check_laws(report, document, exit_code, dropped) -> str | None:
    """Exit code, dropped equations, and every law report PASS."""
    got = dropped_names(report)
    if got != tuple(sorted(dropped)):
        return f"dropped {got}, expected {tuple(sorted(dropped))}"
    if report.exit_code != exit_code:
        return f"exit code {report.exit_code}, expected {exit_code}"
    failing = [
        f"stage {st['stage']} {r['axiom']}"
        for st in document.data["stages"]
        for kind in ("law_reports", "monad_reports", "axiom_reports")
        for r in st[kind]
        if r["status"] != "PASS"
    ]
    if failing or not document.data["stages"]:
        return f"law reports not all PASS: {failing}"
    return None


class Op:
    """One timed call into the workbench and the check of its result."""

    __slots__ = ("label", "run", "check")

    def __init__(self, label, run, check):
        self.label = label
        self.run = run      # tracer -> result (timed)
        self.check = check  # result -> None or a message (untimed)


def _compose_and_report(el, layers, atoms):
    bound = el.Bound(**LAW_BOUND)

    def run(tr):
        report = tr.call(
            "pipeline.compose_stack",
            el.compose_stack,
            layers,
            atoms=atoms,
            bound=bound,
            law_cap=LAW_CAP,
            algebra_cap=ALGEBRA_CAP,
        )
        document = tr.call("reports.document", el.laws_document, report)
        tr.call("reports.document", document.to_json)
        return report, document

    return run


# ---------------------------------------------------------------------------
# flagship

def flagship(el, setup, seed):
    def check(result):
        report, document = result
        return check_stage_drops(report) or check_laws(
            report, document, 1, STAGE_DROPS[1]
        )

    run = _compose_and_report(el, el.probnetkat_stack(), ("a", "b"))
    return [Op("flagship", run, check)], []


# ---------------------------------------------------------------------------
# pairs

def _pair_layers(el):
    """Seed theories and outer layers, outer operations renamed apart."""
    OpSymbol, th = el.OpSymbol, el.theories
    x, y, z = el.Var("x"), el.Var("y"), el.Var("z")
    star = OpSymbol("*", 2)
    semigroup = el.Theory(
        el.Signature((star,)),
        (
            el.equation(
                el.app(star, x, el.app(star, y, z)),
                el.app(star, el.app(star, x, y), z),
                name="assoc(*)",
            ),
        ),
        name="semigroup",
    )
    seeds = {
        "monoid": (th.monoid_theory(), "MONOID"),
        "semilattice": (th.semilattice_theory(), "SEMILATTICE"),
        "commmonoid": (th.comm_monoid_theory(), "COMM_MONOID"),
        "semigroup": (semigroup, None),  # no canonical normal form
        "convex": (th.convex_theory(), "CONVEX"),
    }
    u, zero = OpSymbol("u", 2), OpSymbol("zero", 0)
    outers = {
        "powerset": (th.semilattice_theory(u, zero), "SEMILATTICE"),
        "multiset": (th.comm_monoid_theory(u, zero), "COMM_MONOID"),
        "dist": (th.convex_theory(OpSymbol("o", 2, param=True)), "CONVEX"),
    }

    def stack(seed_name, outer_name):
        pl = el.pipeline
        return (
            el.LayerSpec(seed_name, *seeds[seed_name], pl.INNER_SEED),
            el.LayerSpec(outer_name, *outers[outer_name], pl.OUTER),
        )

    return stack


# (seed, outer) -> (exit code, dropped equations), derived by hand: every
# monoid, commutative-monoid and semigroup equation is linear and survives
# any commutative outer monad; powerset is neither relevant nor affine, so
# idempotence of + is dropped and the rest is a commutative monoid.
PAIRS = {
    ("monoid", "powerset"): (0, ()),
    ("monoid", "multiset"): (0, ()),
    ("semilattice", "powerset"): (1, ("idem(+)",)),
    ("commmonoid", "powerset"): (0, ()),
    ("semigroup", "powerset"): (0, ()),
}

# Convex seeds lose idem(⊕) under powerset and distribution.
# theories.recognize_theory maps any single binary parameterized operation
# to the CONVEX normal forms without looking at its equations, so the
# weakened theory gets them too and composing raises LawRefusedError.
# These stacks run as probes after the measured passes: a failing
# operation would distort every timing, but the defect is reported on
# every run.
PROBES = {
    ("convex", "powerset"): ("idem(⊕)",),
    ("convex", "dist"): ("idem(⊕)",),
}


def _pick_atoms(rng):
    # sorted, so every seed's atoms are ordered like "a" < "b" and the
    # fragments the checks enumerate are the same up to renaming
    return tuple(sorted(rng.sample(string.ascii_lowercase, 2)))


def pairs(el, setup, seed):
    rng = random.Random(seed)
    atoms = _pick_atoms(rng)
    order = list(PAIRS)
    rng.shuffle(order)
    stack = _pair_layers(el)
    ops = []
    for pair in order:
        exit_code, dropped = PAIRS[pair]

        def check(result, exit_code=exit_code, dropped=dropped):
            report, document = result
            return check_laws(report, document, exit_code, dropped)

        ops.append(Op(">".join(pair), _compose_and_report(el, stack(*pair), atoms), check))

    probes = []
    for pair, dropped in PROBES.items():

        def check(result, dropped=dropped):
            got = dropped_names(result[0])
            return None if got == dropped else f"dropped {got}, expected {dropped}"

        probes.append(Op(">".join(pair), _compose_and_report(el, stack(*pair), atoms), check))
    return ops, probes


# ---------------------------------------------------------------------------
# eval

EVAL_PROGRAMS = 1500  # programs per pass
MAX_DEPTH = 6

# The programs of the repo's evaluator corpus (tests/test_acceptance.py,
# STAGE1_PROGRAMS and STAGE2_PROGRAMS; they include the README's
# examples).  Each benchmark program copies one of them, so program sizes
# follow the corpus: 1-6 leaves, at most 2 ⊕.
CORPUS = {
    1: (
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
    ),
    2: (
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
    ),
}
CONSTS = ("skip", "abort")


def template(text, stage):
    """The operators, constants and ⊕ parameters of a corpus program.

    A stage-0 program is written as `;` and `skip` only, so a stage-1
    corpus program copied at stage 0 turns every operator into `;` and
    every constant into `skip`.
    """
    params = re.findall(r"\(\+\)\[([^\]]*)\]", text)
    names = re.findall(r"[a-z]+", text)
    consts = [n for n in names if n in CONSTS]
    ops = ["⊕"] * len(params) + [";"] * text.count(";")
    ops += ["+"] * (text.count("+") - len(params))
    assert len(ops) + 1 == len(names), text
    if stage == 0:
        ops, consts = [";"] * len(ops), ["skip"] * len(consts)
    return len(names), ops, consts, params


def _shape(rng, leaves, depth):
    """A random binary tree with `leaves` leaves and depth <= `depth`."""
    if leaves == 1:
        return None
    cap = 2 ** (depth - 1)
    left = rng.randint(max(1, leaves - cap), min(leaves - 1, cap))
    return (_shape(rng, left, depth - 1), _shape(rng, leaves - left, depth - 1))


def _render(shape, leaves, ops, params):
    """Fully parenthesized program text; pops leaves, operators, parameters."""
    if shape is None:
        return leaves.pop()
    op = ops.pop()
    left = _render(shape[0], leaves, ops, params)
    right = _render(shape[1], leaves, ops, params)
    if op == "⊕":
        return f"({left} (+)[{params.pop()}] {right})"
    return f"({left} {op} {right})"


def make_programs(seed, atoms, n=EVAL_PROGRAMS):
    """`n` (stage, program text) pairs.

    Program i is at stage (0, 1, 2, 2)[i % 4] and copies the corpus
    programs in turn: its leaf count, operators, constants and ⊕
    parameters are the corpus program's, so the work per pass hardly
    depends on the seed.  The seed redraws the tree shape, where each
    operator, constant and parameter goes, and the atom at every other
    leaf.
    """
    rng = random.Random(seed)
    out = []
    for i in range(n):
        stage = (0, 1, 2, 2)[i % 4]
        k = i // 4 if stage < 2 else 2 * (i // 4) + i % 4 - 2
        corpus = CORPUS[max(stage, 1)]
        size, ops, consts, params = template(corpus[k % len(corpus)], stage)
        leaves = consts + [rng.choice(atoms) for _ in range(size - len(consts))]
        for xs in (ops, leaves, params):
            rng.shuffle(xs)
        shape = _shape(rng, size, MAX_DEPTH)
        out.append((stage, _render(shape, leaves, ops, params)))
    return out


def _product(op, left, right):
    """`;` or `+` on sets of words."""
    if op == "+":
        return left | right
    return frozenset(u + v for u in left for v in right)


def oracle(text, stage, atoms):
    """Independent meaning of a program, read from the fully parenthesized
    syntax `make_programs` writes.

    Stage 0 gives a word (tuple of atoms) and stage 1 a set of words.
    Stage 2 gives a distribution over sets of words, {set: weight}: the
    stage-2 meaning with every nested sum distributed, as `collapse` maps
    a two-monoid normal form.  Both maps are homomorphisms and the
    distribution monad's lifting commutes with them, so the pushforward
    of the workbench's stage-2 value must equal this.
    """
    pos = 0

    def term():
        nonlocal pos
        if text[pos] == "(":
            pos += 1
            left = term()
            pos += 1
            if text.startswith("(+)[", pos):  # "(left (+)[p] right)"
                close = text.index("]", pos)
                p = Fraction(text[pos + 4:close])
                pos = close + 2
                right = term()
                pos += 1
                mixed = {s: p * w for s, w in left.items()}
                for s, w in right.items():
                    mixed[s] = mixed.get(s, 0) + (1 - p) * w
                return mixed
            op = text[pos]  # "(left ; right)" or "(left + right)"
            pos += 2
            right = term()
            pos += 1
            if stage == 0:
                return left + right
            if stage == 1:
                return _product(op, left, right)
            out = {}
            for ls, lw in left.items():
                for rs, rw in right.items():
                    s = _product(op, ls, rs)
                    out[s] = out.get(s, 0) + lw * rw
            return out
        end = pos
        while end < len(text) and text[end].isalnum():
            end += 1
        name, pos = text[pos:end], end
        word = (name,) if name in atoms else ()
        if stage == 0:
            return word
        words = frozenset() if name == "abort" else frozenset([word])
        return words if stage == 1 else {words: Fraction(1)}

    return term()


def collapse(el, nf):
    """Set of words of a two-monoid normal form, nested sums distributed."""
    out = set()
    for word, _ in nf.items():
        partial = {()}
        for letter in word:
            if isinstance(letter, el.SumAtom):
                alternatives = collapse(el, letter.summands)
            else:
                alternatives = {(letter,)}
            partial = {u + v for u in partial for v in alternatives}
        out |= partial
    return frozenset(out)


def check_value(el, stage, text, atoms, value, rendered):
    if el.parse_value(rendered) != value:
        return f"render/parse round trip changed {rendered!r}"
    expected = oracle(text, stage, atoms)
    if stage < 2:
        return None if value == expected else f"{value!r}, expected {expected!r}"
    if not isinstance(value, el.Dist):
        return f"stage 2 gave {type(value).__name__}, not a distribution"
    if not all(isinstance(w, Fraction) and 0 < w <= 1 for _, w in value.items()):
        return f"weights of {rendered!r} are not exact probabilities"
    if "(+)" not in text and len(value.items()) != 1:
        return "a program without ⊕ gave a proper mixture"
    pushed = {}
    for nf, w in value.items():
        words = collapse(el, nf)
        pushed[words] = pushed.get(words, 0) + w
    expected = {s: w for s, w in expected.items() if w}
    return None if pushed == expected else f"{rendered!r} collapses to {pushed}, expected {expected}"


def eval_programs(el, setup, seed):
    spec, report = setup
    atoms = spec.atoms
    ops = []
    for stage, text in make_programs(seed, atoms):
        sig = spec.signature_at(stage)

        def run(tr, stage=stage, text=text, sig=sig):
            term = tr.call("specfile.parse", el.parse_program, text, sig, atoms)
            value = tr.call("pipeline.eval", el.eval_term, report, term, stage, atoms)
            rendered = tr.call("render.render", el.render_value, value)
            tr.counts["render.chars"] += len(rendered)
            return value, rendered

        def check(result, stage=stage, text=text):
            return check_value(el, stage, text, atoms, *result)

        ops.append(Op(f"stage {stage}: {text}", run, check))
    return ops, []


WORKLOADS = {"flagship": flagship, "pairs": pairs, "eval": eval_programs}
