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
        doc = ReportDocument.from_json(text)
        assert doc.to_json() + "\n" == text


class TestInputErrors:
    def test_missing_file_exits_3(self, capsys):
        code, _, err = run(capsys, "check", "/nonexistent.layers")
        assert code == 3 and "error" in err

    def test_parse_error_is_located(self, capsys, tmp_path):
        bad = tmp_path / "bad.layers"
        bad.write_text("atoms a;\nlayer l {\n  op ;\n}\n")
        code, _, err = run(capsys, "check", str(bad))
        assert code == 3
        assert "3:" in err  # line of the offending token

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
        # its closure spans every term of depth <= 3 over a, b: 4,058 terms
        spec = tmp_path / "generic.layers"
        spec.write_text(_GENERIC_SEED, encoding="utf-8")
        code, out, _ = run(
            capsys, "eval", str(spec), "-e", "a (+)[1/2] m(a, b)", "--stage", "0"
        )
        assert code == 0
        assert out.strip() == "a ⊕[1/2] m(a, b)"

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
