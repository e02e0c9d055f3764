"""Byte-for-byte guards on the reports and on theory recognition.

`golden/check.json` is the `--json` report of `effectlayers check` on the
shipped spec; `golden/flagship_laws.json` is the laws report of the
conftest flagship; `golden/eval.txt` holds one line per evaluator-corpus
program and stage 0, 1, 2 of the shipped spec: the rendered value, or the
`TermError` message. `golden/recognition.txt` holds one line per builder
theory and per copy of it with one or two equations removed: the
recognized kind, the roles' operations and every equation's pattern name.
`golden/fragments.txt` holds one line per `distlaw._enum` call of the
conftest flagship and of the shipped spec at `Bound()`: the stage, the
call's index within it, the number of values and a sha256 prefix of their
canonical keys, so a change to how fragments are built cannot move them
unseen. All five, and the text of an alarm term whose constants are sets,
are also checked in fresh interpreters under PYTHONHASHSEED 0 and 1.
`golden/compose.txt`, `golden/compose.json`, `golden/verify_laws.txt` and
`golden/verify_laws.json` are the text and `--json` reports of
`effectlayers compose` and `effectlayers verify-laws` on the shipped spec;
`tests/test_cli.py` checks them, once, since each takes seconds.
`golden/eval_cli.txt` is the output of `effectlayers eval` on one stage-1
and three stage-2 programs of the shipped spec, the second with non-dyadic
weights, the third with a leading nested sum and ε inside a nested sum,
checked by `tests/test_cli.py` and by CI.
A change that alters one on purpose regenerates it from the repository
root, and the diff is reviewed with the change:

    PYTHONPATH=src python -m effectlayers.cli check specs/probnetkat.layers \\
        --json tests/golden/check.json
    PYTHONPATH=src python -m effectlayers compose specs/probnetkat.layers \\
        --json tests/golden/compose.json > tests/golden/compose.txt
    PYTHONPATH=src python -m effectlayers verify-laws specs/probnetkat.layers \\
        --json tests/golden/verify_laws.json > tests/golden/verify_laws.txt
    (PYTHONPATH=src python -m effectlayers eval specs/probnetkat.layers \\
        -e '(a + b);(c + skip)' --stage 1
     PYTHONPATH=src python -m effectlayers eval specs/probnetkat.layers \\
        -e '((a (+)[1/2] b) + c);(skip (+)[1/4] (a + b))' --stage 2
     PYTHONPATH=src python -m effectlayers eval specs/probnetkat.layers \\
        -e '(a (+)[1/3] b) (+)[2/7] (c (+)[1/3] (a + b))' --stage 2
     PYTHONPATH=src python -m effectlayers eval specs/probnetkat.layers \\
        -e '((a + b);c) (+)[1/3] (a;(b + skip))' --stage 2) \\
        > tests/golden/eval_cli.txt
    PYTHONPATH=src python tests/test_golden.py               # flagship_laws.json
    PYTHONPATH=src python tests/test_golden.py eval          # eval.txt
    PYTHONPATH=src python tests/test_golden.py recognition   # recognition.txt
    PYTHONPATH=src python tests/test_golden.py fragments     # fragments.txt
"""

import hashlib
import os
import subprocess
import sys
from dataclasses import fields
from fractions import Fraction as F
from itertools import combinations
from pathlib import Path

import pytest

from effectlayers import Bound, compose_stack, eval_term, probnetkat_stack
from effectlayers import distlaw, pipeline
from effectlayers.cli import _load_bounds, main
from effectlayers.render import render_value
from effectlayers.reports import encode_value, laws_document
from effectlayers.specfile import parse_program, parse_spec
from effectlayers.terms import Const, OpSymbol, Signature, TermError, Theory, app
from effectlayers.theories import (
    SEQ,
    comm_monoid_theory,
    convex_theory,
    describe_equation,
    idem_semiring_theory,
    monoid_theory,
    recognize_theory,
    semilattice_theory,
    semiring_theory,
    two_monoids_absorption_theory,
)
from effectlayers.values import canon_key
from test_acceptance import STAGE1_PROGRAMS, STAGE2_PROGRAMS

GOLDEN = Path(__file__).resolve().parent / "golden"
ROOT = Path(__file__).resolve().parent.parent
SPEC = str(ROOT / "specs" / "probnetkat.layers")
# the bound of the conftest flagship fixture
FLAGSHIP_BOUND = Bound(
    max_word_len=2, max_set_size=3, max_term_depth=2,
    prob_grid=(F(0), F(1, 2), F(1)),
)


def test_check_report_is_unchanged(tmp_path, capsys):
    out = tmp_path / "check.json"
    assert main(["check", SPEC, "--json", str(out)]) == 1
    capsys.readouterr()
    assert out.read_bytes() == (GOLDEN / "check.json").read_bytes()


def test_flagship_laws_report_is_unchanged(flagship):
    text = laws_document(flagship).to_json() + "\n"
    assert text.encode() == (GOLDEN / "flagship_laws.json").read_bytes()


def eval_lines() -> str:
    """`program @ stage: value` for the corpus, composed as `eval` does."""
    spec = parse_spec(Path(SPEC).read_text(encoding="utf-8"))
    report = compose_stack(
        spec.layers, atoms=spec.atoms, bound=_load_bounds(None), build_laws=False
    )
    sig = spec.signature_at(len(report.stages))
    lines = []
    for text in STAGE1_PROGRAMS + STAGE2_PROGRAMS:
        program = parse_program(text, sig, spec.atoms)
        for stage in (0, 1, 2):
            try:
                out = render_value(eval_term(report, program, stage, spec.atoms))
            except TermError as exc:
                out = f"TermError: {exc}"
            lines.append(f"{text} @ {stage}: {out}\n")
    return "".join(lines)


def test_eval_outputs_are_unchanged():
    assert eval_lines().encode() == (GOLDEN / "eval.txt").read_bytes()


def recognition_lines() -> str:
    """`theory (ops) - [removed]: KIND roles | names` per builder theory."""
    idem = idem_semiring_theory()
    theories = [
        build()
        for build in (
            monoid_theory,
            semilattice_theory,
            comm_monoid_theory,
            convex_theory,
            idem_semiring_theory,
            semiring_theory,
            two_monoids_absorption_theory,
        )
    ] + [
        semilattice_theory(OpSymbol("u", 2), OpSymbol("zero", 0)),
        Theory(Signature(idem.signature.ops[::-1]), idem.equations, idem.name),
    ]
    lines = []
    for theory in theories:
        sig, eqs = theory.signature, theory.equations
        label = f"{theory.name} ({' '.join(o.name for o in sig.ops)})"
        for k in (0, 1, 2):
            for gone in combinations(range(len(eqs)), k):
                kept = tuple(e for i, e in enumerate(eqs) if i not in gone)
                kind, roles = recognize_theory(Theory(sig, kept))
                ops = [(f.name, getattr(roles, f.name)) for f in fields(roles)]
                lines.append(
                    f"{label} - [{', '.join(eqs[i].name for i in gone)}]: {kind}"
                    + "".join(f" {role}={op.name}" for role, op in ops if op)
                    + "".join(f" | {describe_equation(e, sig)}" for e in kept)
                    + "\n"
                )
    return "".join(lines)


def test_recognition_is_unchanged():
    text = recognition_lines()
    assert text.encode() == (GOLDEN / "recognition.txt").read_bytes()


def fragment_lines() -> str:
    """`run stage S call I: N values KEYS` per `_enum` call, where KEYS is a
    sha256 prefix of the values' canonical keys, in order.  The stage count
    steps at each `build_quotient_law`, which opens every stage's checks."""
    spec = parse_spec(Path(SPEC).read_text(encoding="utf-8"))
    runs = (
        ("flagship", probnetkat_stack(), ("a", "b"), FLAGSHIP_BOUND),
        ("spec", spec.layers, spec.atoms, _load_bounds(None)),
    )
    enum, build = distlaw._enum, pipeline.build_quotient_law
    lines = []
    for run, layers, atoms, bound in runs:
        at = {"stage": 0, "call": 0}

        def build_stage(*args, **kwargs):
            at["stage"] += 1
            at["call"] = 0
            return build(*args, **kwargs)

        def recorded(*args, **kwargs):
            vs = enum(*args, **kwargs)
            keys = "\n".join(repr(canon_key(v)) for v in vs).encode()
            lines.append(
                f"{run} stage {at['stage']} call {at['call']}: {len(vs)} values "
                f"{hashlib.sha256(keys).hexdigest()[:16]}\n"
            )
            at["call"] += 1
            return vs

        distlaw._enum = pipeline._enum = recorded
        pipeline.build_quotient_law = build_stage
        try:
            compose_stack(layers, atoms=atoms, bound=bound)
        finally:
            distlaw._enum = pipeline._enum = enum
            pipeline.build_quotient_law = build
    return "".join(lines)


def test_fragments_are_unchanged():
    assert fragment_lines().encode() == (GOLDEN / "fragments.txt").read_bytes()


def test_alarm_terms_print_sets_in_canonical_order():
    v = frozenset({(), ("a",), ("b",)})
    assert encode_value(app(SEQ, Const(v), Const(v))) == "{ε, a, b};{ε, a, b}"


@pytest.mark.parametrize("seed", ["0", "1"])
def test_outputs_do_not_depend_on_the_hash_seed(seed):
    """Set and dict orders follow PYTHONHASHSEED; the golden outputs,
    error texts among them, must follow the canonical order instead."""
    env = dict(os.environ, PYTHONHASHSEED=seed)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [os.environ.get("PYTHONPATH")] if p]
    )
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         __file__, "-k", "not hash_seed"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=600,
    )
    assert run.returncode == 0, run.stdout[-2000:]


if __name__ == "__main__" and sys.argv[1:] == ["eval"]:  # rewrite golden/eval.txt
    (GOLDEN / "eval.txt").write_text(eval_lines(), encoding="utf-8")
elif __name__ == "__main__" and sys.argv[1:] == ["recognition"]:
    (GOLDEN / "recognition.txt").write_text(recognition_lines(), encoding="utf-8")
elif __name__ == "__main__" and sys.argv[1:] == ["fragments"]:
    (GOLDEN / "fragments.txt").write_text(fragment_lines(), encoding="utf-8")
elif __name__ == "__main__":  # rewrite golden/flagship_laws.json
    # the conftest flagship fixture, built outside pytest
    report = compose_stack(
        probnetkat_stack(), atoms=("a", "b"), bound=FLAGSHIP_BOUND, law_cap=60,
        algebra_cap=12,
    )
    doc = laws_document(report).to_json() + "\n"
    (GOLDEN / "flagship_laws.json").write_text(doc, encoding="utf-8")
