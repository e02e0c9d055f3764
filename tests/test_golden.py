"""Byte-for-byte guards on two reports.

`golden/check.json` is the `--json` report of `effectlayers check` on the
shipped spec; `golden/flagship_laws.json` is the laws report of the
conftest flagship. A change that alters either report on purpose
regenerates both from the repository root, and the diff is reviewed with
the change:

    PYTHONPATH=src python -m effectlayers.cli check specs/probnetkat.layers \\
        --json tests/golden/check.json
    PYTHONPATH=src python tests/test_golden.py
"""

from fractions import Fraction as F
from pathlib import Path

from effectlayers import Bound, compose_stack, probnetkat_stack
from effectlayers.cli import main
from effectlayers.reports import laws_document

GOLDEN = Path(__file__).resolve().parent / "golden"
SPEC = str(Path(__file__).resolve().parent.parent / "specs" / "probnetkat.layers")


def test_check_report_is_unchanged(tmp_path, capsys):
    out = tmp_path / "check.json"
    assert main(["check", SPEC, "--json", str(out)]) == 1
    capsys.readouterr()
    assert out.read_bytes() == (GOLDEN / "check.json").read_bytes()


def test_flagship_laws_report_is_unchanged(flagship):
    text = laws_document(flagship).to_json() + "\n"
    assert text.encode() == (GOLDEN / "flagship_laws.json").read_bytes()


if __name__ == "__main__":  # rewrite golden/flagship_laws.json
    # the conftest flagship fixture, built outside pytest
    bound = Bound(
        max_word_len=2, max_set_size=3, max_term_depth=2,
        prob_grid=(F(0), F(1, 2), F(1)),
    )
    report = compose_stack(
        probnetkat_stack(), atoms=("a", "b"), bound=bound, law_cap=60, algebra_cap=12
    )
    doc = laws_document(report).to_json() + "\n"
    (GOLDEN / "flagship_laws.json").write_text(doc, encoding="utf-8")
