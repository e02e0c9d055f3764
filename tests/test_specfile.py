from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from effectlayers import theories
from effectlayers.cli import _load_bounds
from effectlayers.monads import Bound
from effectlayers.pipeline import INNER_SEED, OUTER, compose_stack
from effectlayers.render import render_term
from effectlayers.specfile import (
    SpecParseError,
    parse_program,
    parse_spec,
)
from effectlayers.terms import App, Const, PBin, PVar
from effectlayers.theories import recognize_theory

SPEC_PATH = Path(__file__).resolve().parent.parent / "specs" / "probnetkat.layers"

MINI = """
atoms a b;

layer traces {
  op ";" : 2;
  op "skip" : 0;
  eq x;skip = x;
  eq skip;x = x;
  eq x;(y;z) = (x;y);z;
  normalizer monoid;
}

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

# a plain binary and a parameterized operation beside an equation that is
# no named law: naming it must not build the parameterized one without a weight
MIXED = (
    'atoms a b;\nlayer seed {\n  op "m" : 2;\n  op %s;\n  eq m(x, y) = x;\n}\n'
    + MINI[MINI.index("layer nondeterminism") :]
)


@pytest.fixture(scope="module")
def shipped():
    return parse_spec(SPEC_PATH.read_text())


class TestShippedSpec:
    def test_structure(self, shipped):
        assert shipped.atoms == ("a", "b", "c")
        assert [l.name for l in shipped.layers] == [
            "traces",
            "nondeterminism",
            "probability",
        ]
        assert shipped.layers[0].role == INNER_SEED
        assert all(l.role == OUTER for l in shipped.layers[1:])
        assert [l.normalizer for l in shipped.layers] == [
            "MONOID",
            "SEMILATTICE",
            "CONVEX",
        ]

    def test_each_layer_is_recognized(self, shipped):
        kinds = [recognize_theory(l.theory)[0] for l in shipped.layers]
        assert kinds == ["MONOID", "SEMILATTICE", "CONVEX"]

    def test_signature_grows_per_stage(self, shipped):
        at = shipped.signature_at
        assert [o.name for o in at(0).ops] == [";", "skip"]
        assert [o.name for o in at(1).ops] == [";", "skip", "+", "abort"]
        assert [o.name for o in at(2).ops] == [";", "skip", "+", "abort", "⊕"]
        assert at(2)["⊕"].param

    def test_skew_commutativity_parameter(self, shipped):
        eqs = shipped.layers[2].theory.equations
        skew_comm = eqs[1]
        assert skew_comm.lhs.param == PVar("l")
        assert skew_comm.rhs.param == PBin("-", PConst_one(), PVar("l"))


def PConst_one():
    from effectlayers.terms import PConst

    return PConst(F(1))


@pytest.fixture(scope="module")
def sig(shipped):
    return shipped.signature_at(2)


class TestPrograms:
    def test_precedence_seq_binds_tighter_than_plus(self, sig):
        t = parse_program("a;b + c", sig, ("a", "b", "c"))
        assert t.op.name == "+"
        assert t.args[0].op.name == ";"

    def test_oplus_binds_loosest(self, sig):
        t = parse_program("a + b ⊕[1/2] c", sig, ("a", "b", "c"))
        assert t.op.name == "⊕" and t.param == F(1, 2)
        assert t.args[0].op.name == "+"

    def test_ascii_alias_for_oplus(self, sig):
        assert parse_program("a (+)[1/2] b", sig, ("a", "b")) == parse_program(
            "a ⊕[1/2] b", sig, ("a", "b")
        )

    def test_parentheses_override(self, sig):
        t = parse_program("a;(b + c)", sig, ("a", "b", "c"))
        assert t.op.name == ";"
        assert t.args[1].op.name == "+"

    def test_constants_and_prefix_calls(self, sig):
        assert parse_program("skip", sig, ("a",)) == App(sig["skip"], ())
        assert parse_program("skip;a", sig, ("a",)).args == (
            App(sig["skip"], ()),
            Const("a"),
        )

    def test_unbound_atom_is_located(self, sig):
        with pytest.raises(SpecParseError) as exc:
            parse_program("a;\nz", sig, ("a", "b"))
        assert exc.value.line == 2 and "unbound atom 'z'" in str(exc.value)

    def test_trailing_input_rejected(self, sig):
        with pytest.raises(SpecParseError, match="trailing input"):
            parse_program("a b", sig, ("a", "b"))


class TestParseErrors:
    def test_missing_atoms_declaration(self):
        with pytest.raises(SpecParseError):
            parse_spec("layer l { }")

    def test_unknown_normalizer_is_located(self):
        bad = MINI.replace("normalizer monoid;", "normalizer ring;")
        with pytest.raises(SpecParseError) as exc:
            parse_spec(bad)
        assert "unknown normalizer 'ring'" in str(exc.value)
        assert exc.value.line > 1

    def test_undeclared_operation(self):
        bad = "atoms a;\nlayer l {\n  eq x * y = y * x;\n}\n"
        with pytest.raises(SpecParseError):
            parse_spec(bad)

    def test_decimal_probability_is_rejected(self, shipped):
        sig = shipped.signature_at(2)
        with pytest.raises(SpecParseError, match="p/q"):
            parse_program("a ⊕[5] b", sig, ("a", "b"))

    def test_zero_denominator_in_a_program(self, shipped):
        sig = shipped.signature_at(2)
        with pytest.raises(SpecParseError, match="zero denominator") as exc:
            parse_program("a ⊕[1/0] b", sig, ("a", "b"))
        assert (exc.value.line, exc.value.col) == (1, 7)

    def test_zero_denominator_in_a_spec(self):
        text = SPEC_PATH.read_text()
        old = "eq x (+)[l] y = y (+)[1 - l] x;"
        assert old in text
        with pytest.raises(SpecParseError, match="zero denominator") as exc:
            parse_spec(text.replace(old, "eq x (+)[l] y = y (+)[1/0] x;"))
        assert exc.value.line == text[: text.index(old)].count("\n") + 1

    def test_error_message_carries_position(self):
        try:
            parse_spec("atoms a;\nlayer l {\n  op ;\n}")
        except SpecParseError as exc:
            assert str(exc).startswith(f"{exc.line}:{exc.col}:")
        else:
            pytest.fail("expected a parse error")


class TestMiniRoundTrip:
    def test_equations_match_builtin_theories(self):
        spec = parse_spec(MINI)
        k0, _ = recognize_theory(spec.layers[0].theory)
        k1, _ = recognize_theory(spec.layers[1].theory)
        assert (k0, k1) == ("MONOID", "SEMILATTICE")

    @pytest.mark.parametrize("op", ['"⊕" : 2 param', '"c" : 0 param'])
    def test_unnamed_equation_beside_a_parameterized_operation(self, op):
        spec = parse_spec(MIXED % op)
        (e,) = spec.layers[0].theory.equations
        assert e.describe() == "m(x, y) = x"

    def test_param_expression_arithmetic(self, shipped):
        skew_assoc = shipped.layers[2].theory.equations[2]
        from effectlayers.terms import eval_param

        # at l = t = 1/2 the reassociated left weight is (1/2)/(3/4) = 2/3
        inner = skew_assoc.rhs.args[0]
        assert eval_param(inner.param, {"l": F(1, 2), "t": F(1, 2)}) == F(2, 3)


BUILDERS = [
    theories.monoid_theory,
    theories.semilattice_theory,
    theories.comm_monoid_theory,
    theories.convex_theory,
    theories.idem_semiring_theory,
    theories.semiring_theory,
    theories.two_monoids_absorption_theory,
]


class TestPrintedEquationsReadBack:
    """Every equation `render_term` prints is an `eq` line `parse_spec` reads."""

    @staticmethod
    def assert_reads_back(theory):
        def printed(e):
            return f"{render_term(e.lhs)} = {render_term(e.rhs)}"

        decls = "".join(
            f'  op "{o.name}" : {o.arity}{" param" if o.param else ""};\n'
            for o in theory.signature.ops
        )
        lines = [printed(e) for e in theory.equations]
        text = "atoms a;\nlayer t {\n" + decls + "".join(f"  eq {l};\n" for l in lines) + "}\n"
        (layer,) = parse_spec(text).layers
        assert [printed(e) for e in layer.theory.equations] == lines

    @pytest.mark.parametrize("build", BUILDERS, ids=lambda b: b.__name__)
    def test_builder_theories(self, build):
        self.assert_reads_back(build())

    def test_combined_theories_of_the_shipped_spec(self, shipped):
        report = compose_stack(
            shipped.layers, atoms=shipped.atoms, bound=_load_bounds(None), build_laws=False
        )
        assert len(report.stages) == 2
        for stage in report.stages:
            self.assert_reads_back(stage.combined)


def closed_terms(sig, atoms, grid):
    """Random closed terms over `sig`: atoms at the leaves, every operation
    inside, and a parameterized operation's parameter drawn from `grid`."""
    leaves = st.sampled_from([Const(a) for a in atoms] + [
        App(o, ()) for o in sig.ops if o.arity == 0 and not o.param
    ])

    def apps(children):
        return st.one_of([
            st.builds(
                App,
                st.just(o),
                st.tuples(*[children] * o.arity),
                st.sampled_from(grid) if o.param else st.none(),
            )
            for o in sig.ops
            if o.arity
        ])

    return st.recursive(leaves, apps, max_leaves=12)


class TestRenderedTermsReadBack:
    """`render_term` prints every closed program so `parse_program` reads it."""

    @pytest.mark.parametrize("stage", [0, 1, 2])
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_random_terms(self, shipped, stage, data):
        sig = shipped.signature_at(stage)
        t = data.draw(closed_terms(sig, shipped.atoms, Bound().prob_grid))
        assert parse_program(render_term(t), sig, shipped.atoms) == t
