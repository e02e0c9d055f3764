import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from effectlayers.cli import _load_bounds, main

ROOT = Path(__file__).resolve().parent.parent
SPEC = str(ROOT / "specs" / "probnetkat.layers")


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_the_package_runs_as_a_module():
    # a checkout runs with the sources on the path and nothing installed
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-m", "effectlayers", "check", SPEC],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 1, proc.stderr
    assert "exit_code: 1" in proc.stdout


class TestEval:
    @pytest.mark.parametrize(
        "program, stage, expected",
        [
            ("a;c (+)[1/2] b;c", None, "⟨⟨ac⟩⟩: 1/2, ⟨⟨bc⟩⟩: 1/2"),
            ("(a + b);c", "1", "{ac, bc}"),
            ("a;abort", "1", "{}"),
            ("a;(b;c)", "0", "abc"),
            ("skip", "0", "ε"),
            ("a + a", "1", "{a}"),
        ],
    )
    def test_programs(self, capsys, program, stage, expected):
        argv = ["eval", SPEC, "-e", program]
        if stage is not None:
            argv += ["--stage", stage]
        code, out, _ = run(capsys, *argv)
        assert code == 0
        assert out.strip() == expected

    def test_json_report(self, capsys, tmp_path):
        out_path = tmp_path / "eval.json"
        code, out, _ = run(
            capsys, "eval", SPEC, "-e", "a;abort", "--stage", "1",
            "--json", str(out_path),
        )
        assert code == 0
        doc = json.loads(out_path.read_text())
        assert doc["kind"] == "eval"
        assert doc["value"] == "{}" == out.strip()

    def test_unbound_atom_exits_3(self, capsys):
        code, _, err = run(capsys, "eval", SPEC, "-e", "z;a")
        assert code == 3
        assert "unbound atom" in err

    def test_op_not_yet_available_exits_3(self, capsys):
        code, _, err = run(capsys, "eval", SPEC, "-e", "a + b", "--stage", "0")
        assert code == 3
        assert "error" in err

    def test_parameter_expression_is_evaluated(self, capsys):
        code, out, _ = run(capsys, "eval", SPEC, "-e", "a (+)[1/2*1/2] b")
        assert code == 0
        assert out.strip() == "⟨⟨a⟩⟩: 1/4, ⟨⟨b⟩⟩: 3/4"
        assert run(capsys, "eval", SPEC, "-e", "a (+)[1/4] b")[1] == out

    def test_unbound_parameter_variable_exits_3(self, capsys):
        code, _, err = run(capsys, "eval", SPEC, "-e", "a (+)[l] b")
        assert code == 3
        assert err.strip() == "error: unbound parameter variable 'l'"

    def test_parameter_dividing_by_zero_exits_3(self, capsys):
        code, _, err = run(capsys, "eval", SPEC, "-e", "a (+)[1/2 / (1 - 1)] b")
        assert code == 3
        assert err.strip() == "error: parameter (1/2 / (1 - 1)) divides by zero"

    def test_a_nested_division_by_zero_names_the_whole_parameter(self, capsys):
        code, _, err = run(capsys, "eval", SPEC, "-e", "a (+)[1 - 1/2 / (1 - 1)] b")
        assert code == 3
        assert err.strip() == "error: parameter (1 - (1/2 / (1 - 1))) divides by zero"

    def test_zero_denominator_in_a_program_exits_3(self, capsys):
        code, _, err = run(capsys, "eval", SPEC, "-e", "a (+)[1/0] b")
        assert code == 3
        assert re.match(r"error: \d+:\d+: zero denominator$", err.strip())


class TestCheck:
    def test_reports_drops_and_exits_1(self, capsys, tmp_path):
        out_path = tmp_path / "check.json"
        code, out, _ = run(capsys, "check", SPEC, "--json", str(out_path))
        assert code == 1
        assert "idem(+)" in out
        doc = json.loads(out_path.read_text())
        dropped = {
            d.split(":")[0] for stage in doc["stages"] for d in stage["dropped"]
        }
        assert dropped == {"idem(+)", "distrib-right(;,+)", "distrib-left(;,+)"}

    def test_json_round_trips(self, capsys, tmp_path):
        from effectlayers.reports import ReportDocument

        out_path = tmp_path / "check.json"
        run(capsys, "check", SPEC, "--json", str(out_path))
        text = out_path.read_text()
        doc = ReportDocument(json.loads(text))
        assert doc.to_json() + "\n" == text


def test_a_one_atom_spec_drops_what_the_shipped_spec_drops(capsys, tmp_path):
    # the checks pad the atoms to two; eval keeps the spec's one atom
    spec = tmp_path / "one.layers"
    text = Path(SPEC).read_text(encoding="utf-8")
    spec.write_text(text.replace("atoms a b c;", "atoms a;"), encoding="utf-8")
    out_path = tmp_path / "check.json"
    code, _, err = run(capsys, "check", str(spec), "--json", str(out_path))
    assert (code, err) == (1, "")
    doc = json.loads(out_path.read_text())
    dropped = {d.split(":")[0] for stage in doc["stages"] for d in stage["dropped"]}
    assert dropped == {"idem(+)", "distrib-right(;,+)", "distrib-left(;,+)"}
    code, _, err = run(capsys, "eval", str(spec), "-e", "a;b")
    assert code == 3 and "unbound atom 'b'" in err


# the programs of golden/eval_cli.txt, one output line each: a stage-1
# program, a stage-2 program with ⊕, one with non-dyadic weights and one
# with a leading nested sum and ε inside a nested sum, as the CI
# console-script step runs them
EVAL_GOLDEN = (
    ("(a + b);(c + skip)", "1"),
    ("((a (+)[1/2] b) + c);(skip (+)[1/4] (a + b))", "2"),
    ("(a (+)[1/3] b) (+)[2/7] (c (+)[1/3] (a + b))", "2"),
    ("((a + b);c) (+)[1/3] (a;(b + skip))", "2"),
)


def test_eval_matches_its_golden_file(capsys):
    out = "".join(
        run(capsys, "eval", SPEC, "-e", program, "--stage", stage)[1]
        for program, stage in EVAL_GOLDEN
    )
    assert out.encode() == (ROOT / "tests" / "golden" / "eval_cli.txt").read_bytes()


@pytest.mark.parametrize("command, code", [("compose", 1), ("verify-laws", 0)])
def test_report_matches_its_golden_file(capsys, tmp_path, command, code):
    """`tests/test_golden.py` says how to regenerate the golden files."""
    out_path = tmp_path / "report.json"
    result, out, err = run(capsys, command, SPEC, "--json", str(out_path))
    assert (result, err) == (code, "")
    golden = ROOT / "tests" / "golden" / command.replace("-", "_")
    assert out.encode() == golden.with_suffix(".txt").read_bytes()
    assert out_path.read_bytes() == golden.with_suffix(".json").read_bytes()


class TestInputErrors:
    def test_missing_file_exits_3(self, capsys):
        code, _, err = run(capsys, "check", "/nonexistent.layers")
        assert code == 3 and "error" in err

    def test_a_deep_program_exits_3(self, capsys):
        # parsing and evaluation recurse once per level of nesting
        program = ";".join(["a"] * 600)
        code, out, err = run(capsys, "eval", SPEC, "-e", program, "--stage", "2")
        assert (code, out) == (3, "")
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_a_deep_equation_exits_3(self, capsys, tmp_path):
        # exit 1 would say that equations were dropped
        deep = ";".join(["x"] * 700)
        spec = tmp_path / "deep.layers"
        text = Path(SPEC).read_text(encoding="utf-8")
        spec.write_text(
            text.replace("eq x;skip = x;", f"eq {deep};skip = {deep};"), encoding="utf-8"
        )
        code, out, err = run(capsys, "check", str(spec))
        assert (code, out) == (3, "")
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_too_many_tables_for_brute_force_exit_3(self, capsys, tmp_path):
        # a 5-ary f has 2^32 tables on two elements, over the ceiling
        text = Path(SPEC).read_text(encoding="utf-8")
        outer = text[text.index("layer nondeterminism") : text.index("layer probability")]
        seed = 'layer seed {\n  op "f" : 5;\n  eq f(x, x, y, y, y) = f(y, y, x, x, x);\n}\n'
        spec = tmp_path / "five.layers"
        spec.write_text(f"atoms a b;\n{seed}{outer}", encoding="utf-8")
        code, out, err = run(capsys, "check", str(spec))
        assert (code, out) == (3, "")
        assert err == (
            "error: enumeration of the tables of 'f' on 2 elements would produce "
            "2^32 values (ceiling 200000); tighten the bounds\n"
        )

    def test_a_json_path_in_a_missing_directory_exits_3(self, capsys, tmp_path):
        path = tmp_path / "missing" / "check.json"
        code, out, err = run(capsys, "check", SPEC, "--json", str(path))
        assert (code, out) == (3, "")
        assert err.startswith("error: ") and str(path) in err

    def test_parse_error_is_located(self, capsys, tmp_path):
        bad = tmp_path / "bad.layers"
        bad.write_text("atoms a;\nlayer l {\n  op ;\n}\n")
        code, _, err = run(capsys, "check", str(bad))
        assert code == 3
        assert "3:" in err  # line of the offending token

    def test_a_repeated_atom_exits_3(self, capsys, tmp_path):
        # two equal atoms would pass for two distinct ones and evade the padding
        bad = tmp_path / "bad.layers"
        text = Path(SPEC).read_text(encoding="utf-8")
        bad.write_text(text.replace("atoms a b c;", "atoms a a;"), encoding="utf-8")
        line = text[: text.index("atoms a b c;")].count("\n") + 1
        code, _, err = run(capsys, "check", str(bad))
        assert code == 3
        assert err.strip() == f"error: {line}:9: atom 'a' declared twice"

    def test_a_repeated_operation_exits_3(self, capsys, tmp_path):
        # the signature would refuse it with a traceback, unlocated
        bad = tmp_path / "bad.layers"
        text = Path(SPEC).read_text(encoding="utf-8")
        old = '  op "skip" : 0;\n'
        bad.write_text(text.replace(old, old + old), encoding="utf-8")
        line = text[: text.index(old)].count("\n") + 2
        code, out, err = run(capsys, "check", str(bad))
        assert (code, out) == (3, "")
        assert err.strip() == f"error: {line}:6: operation 'skip' declared twice"

    @pytest.mark.parametrize(
        "command", [["check"], ["eval", "-e", "skip;a"]], ids=["check", "eval"]
    )
    def test_an_atom_naming_an_operation_exits_3(self, capsys, tmp_path, command):
        # a program would read the atom as the operation
        bad = tmp_path / "bad.layers"
        text = Path(SPEC).read_text(encoding="utf-8")
        bad.write_text(text.replace("atoms a b c;", "atoms skip a;"), encoding="utf-8")
        line = text[: text.index("atoms a b c;")].count("\n") + 1
        code, _, err = run(capsys, command[0], str(bad), *command[1:])
        assert code == 3
        assert err.strip() == f"error: {line}:7: atom 'skip' names an operation"

    @pytest.mark.parametrize("word", ["ε", "atoms", "layer", "op", "eq", "normalizer"])
    @pytest.mark.parametrize(
        "command", [["check"], ["eval", "-e", "a"]], ids=["check", "eval"]
    )
    def test_a_reserved_atom_name_exits_3(self, capsys, tmp_path, command, word):
        # a program cannot write a keyword as an atom, and reads ε as the
        # empty word
        bad = tmp_path / "bad.layers"
        text = Path(SPEC).read_text(encoding="utf-8")
        bad.write_text(text.replace("atoms a b c;", f"atoms {word} a;"), encoding="utf-8")
        line = text[: text.index("atoms a b c;")].count("\n") + 1
        code, _, err = run(capsys, command[0], str(bad), *command[1:])
        assert code == 3
        assert err.strip() == f"error: {line}:7: atom {word!r} is a reserved word"

    @pytest.mark.parametrize("digit", ["²", "٣"])
    def test_non_ascii_digit_exits_3(self, capsys, tmp_path, digit):
        bad = tmp_path / "bad.layers"
        bad.write_text(f'atoms a b;\nlayer l {{\n  op ";" : {digit};\n}}\n')
        code, _, err = run(capsys, "check", str(bad))
        assert code == 3
        assert err.strip() == f"error: 3:12: unexpected character {digit!r}"

    def test_infix_operation_of_another_arity_exits_3(self, capsys, tmp_path):
        bad = tmp_path / "bad.layers"
        bad.write_text('atoms a b;\nlayer l {\n  op ";" : 3;\n  eq x;skip = x;\n}\n')
        code, _, err = run(capsys, "check", str(bad))
        assert code == 3
        assert err.strip() == "error: 4:7: ';' expects 3 arguments, got 2"

    def test_zero_denominator_in_a_spec_exits_3(self, capsys, tmp_path):
        text = Path(SPEC).read_text()
        old = "eq x (+)[l] y = y (+)[1 - l] x;"
        bad = tmp_path / "bad.layers"
        bad.write_text(text.replace(old, "eq x (+)[l] y = y (+)[1/0] x;"))
        line = text[: text.index(old)].count("\n") + 1
        code, _, err = run(capsys, "check", str(bad))
        assert code == 3
        assert re.match(rf"error: {line}:\d+: zero denominator$", err.strip())

    def test_bad_bounds_file_exits_3(self, capsys, tmp_path):
        bounds = tmp_path / "bounds.json"
        bounds.write_text('{"prob_grid": ["1/3"]}')
        code, _, err = run(capsys, "check", SPEC, "--bounds", str(bounds))
        assert code == 3 and "error" in err

    @pytest.mark.parametrize(
        "text, message",
        [
            ('{"max_set_sise": 1}', "unknown bound 'max_set_sise'"),
            ('{"max_word_len": 2.5}', "'max_word_len' must be an integer, not 2.5"),
            ('{"max_word_len": true}', "'max_word_len' must be an integer, not true"),
            ("[1, 2]", "bounds file must hold a JSON object"),
            ('{"prob_grid": [true, false]}', "bound 'prob_grid' holds true"),
            ('{"prob_grid": ["1/0"]}', "bound 'prob_grid' holds \"1/0\""),
        ],
        ids=[
            "misspelled-key",
            "non-integer",
            "boolean",
            "list",
            "boolean-grid",
            "zero-denominator",
        ],
    )
    def test_malformed_bounds_file_exits_3(self, capsys, tmp_path, text, message):
        bounds = tmp_path / "bounds.json"
        bounds.write_text(text)
        code, out, err = run(capsys, "check", SPEC, "--bounds", str(bounds))
        assert code == 3 and out == ""
        assert err.startswith("error: ") and message in err

    @pytest.mark.parametrize("command", ["check", "compose"])
    def test_an_empty_grid_exits_3(self, capsys, tmp_path, command):
        # with no weight, a parameterized equation would hold vacuously
        bounds = tmp_path / "bounds.json"
        bounds.write_text('{"prob_grid": []}')
        code, out, err = run(capsys, command, SPEC, "--bounds", str(bounds))
        assert (code, out) == (3, "")
        assert err.strip() == "error: prob_grid must not be empty"

    @pytest.mark.parametrize("ceiling", [0, -5])
    def test_a_ceiling_below_one_exits_3(self, capsys, tmp_path, ceiling):
        # it would refuse every enumeration, as though the bounds were too wide
        bounds = tmp_path / "bounds.json"
        bounds.write_text('{"ceiling": %d}' % ceiling)
        code, out, err = run(capsys, "check", SPEC, "--bounds", str(bounds))
        assert (code, out) == (3, "")
        assert err.strip() == "error: ceiling must be >= 1"

    def test_decimal_grid_is_read_exactly(self, capsys, tmp_path):
        outputs = []
        for grid in ('[0, 0.1, 0.9, 1]', '["0", "1/10", "9/10", "1"]'):
            bounds = tmp_path / "bounds.json"
            bounds.write_text('{"prob_grid": %s}' % grid)
            report = tmp_path / "check.json"
            code, out, err = run(
                capsys, "check", SPEC, "--bounds", str(bounds), "--json", str(report)
            )
            assert code == 1 and err == ""
            outputs.append((out, report.read_bytes()))
        assert outputs[0] == outputs[1]

    def test_bounds_override(self, capsys, tmp_path):
        bounds = tmp_path / "bounds.json"
        bounds.write_text(
            '{"max_word_len": 1, "max_set_size": 2, "prob_grid": ["0", "1/2", "1"]}'
        )
        code, out, _ = run(
            capsys, "eval", SPEC, "-e", "a + b", "--stage", "1",
            "--bounds", str(bounds),
        )
        assert code == 0 and out.strip() == "{a, b}"

    @pytest.mark.parametrize(
        "text", ['{"prob_grid": [0, "1/2", 1]}', '{"max_set_size": 3}', "{}"]
    )
    def test_a_file_of_defaults_gives_the_default_bound(self, tmp_path, text):
        bounds = tmp_path / "bounds.json"
        bounds.write_text(text)
        assert _load_bounds(str(bounds)) == _load_bounds(None)


_NONDET = """
layer nondeterminism {
  op "+" : 2;
  op "abort" : 0;
  eq abort + x = x;
  eq x + abort = x;
  eq x + x = x;
  eq x + y = y + x;
  eq x + (y + z) = (x + y) + z;
  normalizer semilattice;
}
"""


# no canonical normal form: the seed falls back to bounded congruence
# closure, whose values are representative terms
_GENERIC_SEED = (
    "atoms a b;\nlayer seed {\n"
    '  op "m" : 2;\n  op "⊕" : 2 param;\n'
    "  eq m(x, m(y, z)) = m(m(x, y), z);\n}\n" + _NONDET
)

# a plain and a parameterized binary operation beside an equation that is
# no named law
_MIXED_SEED = (
    "atoms a b;\nlayer seed {\n"
    '  op "m" : 2;\n  op "⊕" : 2 param;\n'
    "  eq m(x, y) = x;\n}\n" + _NONDET
)


# the monoid laws alone, for a test to put an outer layer above
_MONOID_SEED = (
    "atoms a b;\nlayer seed {\n"
    '  op ";" : 2;\n  op "skip" : 0;\n'
    "  eq x;skip = x;\n  eq skip;x = x;\n  eq x;(y;z) = (x;y);z;\n}\n"
)


class TestErrorPaths:
    def test_inconclusive_normalization_exits_3(self, capsys, tmp_path):
        # the closure's universe has no coin of weight 1/3
        spec = tmp_path / "generic.layers"
        spec.write_text(_GENERIC_SEED, encoding="utf-8")
        code, _, err = run(
            capsys, "eval", str(spec), "-e", "a (+)[1/3] b", "--stage", "0"
        )
        assert code == 3
        assert err.startswith("error: term outside the bounded universe")

    def test_unnamed_equation_beside_a_parameterized_operation(
        self, capsys, tmp_path
    ):
        spec = tmp_path / "mixed.layers"
        spec.write_text(_MIXED_SEED, encoding="utf-8")
        code, _, err = run(capsys, "check", str(spec))
        assert code == 1 and err == ""

    @pytest.mark.parametrize("program", ["a", "m(a, b)"])
    def test_generic_values_render_as_programs(self, capsys, tmp_path, program):
        spec = tmp_path / "generic.layers"
        spec.write_text(_GENERIC_SEED, encoding="utf-8")
        code, out, _ = run(capsys, "eval", str(spec), "-e", program, "--stage", "0")
        assert code == 0
        assert out.strip() == program

    def test_depth_three_generic_term_evaluates(self, capsys, tmp_path):
        # its closure spans every term of depth <= 3 over a, b: 1,298 terms
        spec = tmp_path / "generic.layers"
        spec.write_text(_GENERIC_SEED, encoding="utf-8")
        code, out, _ = run(
            capsys, "eval", str(spec), "-e", "a (+)[1/2] m(a, b)", "--stage", "0"
        )
        assert code == 0
        assert out.strip() == "a ⊕[1/2] m(a, b)"

    @pytest.mark.parametrize("weight", ["1/3", "1/4"])
    def test_off_grid_parameter_is_named(self, capsys, tmp_path, weight):
        # the closure reads the default grid, so the term's depth is no cause
        spec = tmp_path / "generic.layers"
        spec.write_text(_GENERIC_SEED, encoding="utf-8")
        code, _, err = run(
            capsys, "eval", str(spec), "-e", f"a (+)[{weight}] b", "--stage", "0"
        )
        assert code == 3
        assert err.strip() == (
            "error: term outside the bounded universe: "
            f"parameter {weight} is not on the grid {{0, 1/2, 1}}"
        )
        assert "max_term_depth" not in err

    def test_generic_operations_read_the_bounds_grid(self, capsys, tmp_path):
        # the enumeration and the operations both close over the file's grid;
        # a set size of 2 keeps the law checks short
        spec = tmp_path / "generic.layers"
        spec.write_text(_GENERIC_SEED, encoding="utf-8")
        bounds = tmp_path / "bounds.json"
        bounds.write_text('{"prob_grid": [0, "1/4", "3/4", 1], "max_set_size": 2}')
        code, out, err = run(capsys, "compose", str(spec), "--bounds", str(bounds))
        assert (code, err) == (0, "")
        assert out.endswith("exit_code: 0\n")
        program = "a (+)[1/4] m(a, b)"
        argv = ["eval", str(spec), "-e", program, "--stage", "0", "--bounds", str(bounds)]
        code, out, err = run(capsys, *argv)
        assert (code, out, err) == (0, "a ⊕[1/4] m(a, b)\n", "")

    def test_an_operation_without_a_step_exits_3(self, capsys, tmp_path):
        # one parameterized binary operation makes the seed CONVEX, whatever
        # else it declares, and the convex normal forms have no constant
        spec = tmp_path / "coin.layers"
        spec.write_text(
            'atoms a b;\nlayer coin {\n  op "⊕" : 2 param;\n  op "c" : 0;\n}\n'
            + _NONDET,
            encoding="utf-8",
        )
        code, out, err = run(capsys, "eval", str(spec), "-e", "c", "--stage", "0")
        assert (code, out) == (3, "")
        assert err.strip() == "error: convex normal forms do not interpret 'c'"

    @pytest.mark.parametrize(
        "layer, name",
        [
            ('layer choice {\n  op "+" : 2;\n  eq x + y = y + x;\n}\n', "choice"),
            ("layer empty { }\n", "empty"),
        ],
        ids=["commutative", "empty"],
    )
    def test_an_outer_layer_without_a_lifting_kernel_exits_3(
        self, capsys, tmp_path, layer, name
    ):
        # a GENERIC monad has no ψ, whether or not its operations commute
        spec = tmp_path / "generic.layers"
        spec.write_text(_MONOID_SEED + layer, encoding="utf-8")
        code, out, err = run(capsys, "check", str(spec))
        assert (code, out) == (3, "")
        assert err == (
            f"error: monad 'generic({name})' has no lifting kernel (ψ),"
            " so it can only be an inner layer\n"
        )

    @pytest.mark.parametrize("command", ["compose", "verify-laws"])
    def test_refused_law_exits_2(self, capsys, tmp_path, command):
        spec = tmp_path / "skew.layers"
        spec.write_text(
            "atoms a b;\nlayer coin {\n"
            '  op "⊕" : 2 param;\n'
            "  eq x (+)[l] x = x;\n"
            "  eq x (+)[l] y = y (+)[1 - l] x;\n}\n" + _NONDET,
            encoding="utf-8",
        )
        code, _, err = run(capsys, command, str(spec))
        assert code == 2
        assert err.startswith("error: well-definedness check failed")


# nondeterminism on operations named apart from a seed's + and abort
_CHOICE = """
layer choice {
  op "u" : 2;
  op "zero" : 0;
  eq u(zero, x) = x;
  eq u(x, zero) = x;
  eq u(x, x) = x;
  eq u(x, y) = u(y, x);
  eq u(x, u(y, z)) = u(u(x, y), z);
  normalizer semilattice;
}
"""

# a unit idempotent monoid: a semilattice without commutativity
_IDEM_MONOID_SEED = (
    "atoms a b;\nlayer seed {\n"
    '  op "+" : 2;\n  op "abort" : 0;\n'
    "  eq x + (y + z) = (x + y) + z;\n"
    "  eq abort + x = x;\n  eq x + abort = x;\n  eq x + x = x;\n}\n" + _CHOICE
)

# the monoid laws beside a constant that plays no monoid role
_EXTRA_CONSTANT_SEED = (
    "atoms a b;\nlayer seed {\n"
    '  op ";" : 2;\n  op "skip" : 0;\n  op "k" : 0;\n'
    "  eq x;skip = x;\n  eq skip;x = x;\n  eq x;(y;z) = (x;y);z;\n}\n" + _NONDET
)


class TestRecognition:
    """A seed gets a kind's normal forms only when its laws are that kind's."""

    def test_a_unit_idempotent_monoid_keeps_its_idempotence(self, capsys, tmp_path):
        spec = tmp_path / "idem.layers"
        spec.write_text(_IDEM_MONOID_SEED, encoding="utf-8")
        code, out, err = run(capsys, "eval", str(spec), "-e", "a + a", "--stage", "0")
        assert (code, out, err) == (0, "a\n", "")

    def test_a_constant_without_a_role_is_generic(self, capsys, tmp_path):
        spec = tmp_path / "extra.layers"
        spec.write_text(_EXTRA_CONSTANT_SEED, encoding="utf-8")
        code, out, err = run(capsys, "eval", str(spec), "-e", "k;a", "--stage", "0")
        assert (code, out, err) == (0, "k;a\n", "")
        code, out, err = run(capsys, "compose", str(spec))
        assert (code, err) == (0, "")

    @pytest.mark.parametrize(
        "seed, last_law",
        [
            (_IDEM_MONOID_SEED, "  eq x + x = x;\n"),
            (_EXTRA_CONSTANT_SEED, "  eq x;(y;z) = (x;y);z;\n"),
        ],
        ids=["idempotent", "extra-constant"],
    )
    def test_a_normalizer_of_another_kind_exits_3(
        self, capsys, tmp_path, seed, last_law
    ):
        spec = tmp_path / "monoid.layers"
        text = seed.replace(last_law, last_law + "  normalizer monoid;\n", 1)
        assert text != seed
        spec.write_text(text, encoding="utf-8")
        code, _, err = run(capsys, "check", str(spec))
        assert code == 3
        assert err.strip() == (
            "error: theory 'seed' was recognized as GENERIC, not MONOID"
        )


# a parameterized operation whose idempotence the powerset lifting breaks at
# every weight strictly between 0 and 1
_SKEW = (
    "atoms a b;\nlayer coin {\n"
    '  op "⊕" : 2 param;\n'
    "  eq x (+)[l] x = x;\n"
    "  eq x (+)[l] y = y (+)[1 - l] x;\n}\n" + _NONDET
)


class TestPreservationGrid:
    """Preservation searches the parameter grid of the bound it is given."""

    def idem_verdict(self, capsys, tmp_path, *options):
        spec = tmp_path / "skew.layers"
        spec.write_text(_SKEW, encoding="utf-8")
        report = tmp_path / "check.json"
        code, _, err = run(capsys, "check", str(spec), "--json", str(report), *options)
        assert code == 1 and err == ""
        (stage,) = json.loads(report.read_text(encoding="utf-8"))["stages"]
        (idem,) = [v for v in stage["verdicts"] if v["equation"].startswith("idem(⊕)")]
        return idem

    def test_default_grid_names_the_falsifying_weight(self, capsys, tmp_path):
        idem = self.idem_verdict(capsys, tmp_path)
        assert idem["status"] == "FALSIFIED"
        assert idem["counterexample"]["params"] == {"l": "1/2"}

    def test_a_grid_of_endpoints_leaves_idempotence_unknown(self, capsys, tmp_path):
        bounds = tmp_path / "bounds.json"
        bounds.write_text('{"prob_grid": [0, 1]}')
        idem = self.idem_verdict(capsys, tmp_path, "--bounds", str(bounds))
        assert idem["status"] == "UNKNOWN"
