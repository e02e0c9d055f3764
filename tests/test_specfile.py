from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from effectlayers import theories
from effectlayers.cli import _load_bounds
from effectlayers.pipeline import INNER_SEED, OUTER, compose_stack
from effectlayers.render import render_term
from effectlayers.specfile import (
    INFIX_PREC,
    KEYWORDS,
    SpecParseError,
    _can_start_term,
    _parse_op_param,
    _parse_param_expr,
    _Stream,
    _tokenize,
    parse_program,
    parse_spec,
)
from effectlayers.terms import (
    ARITH,
    App,
    Const,
    OpSymbol,
    Signature,
    Theory,
    Var,
    equation,
    render_param,
)
from effectlayers.theories import recognize_theory
from test_acceptance import STAGE1_PROGRAMS, STAGE2_PROGRAMS
from test_terms import param_terms

GRID5 = (F(0), F(1, 4), F(1, 2), F(3, 4), F(1))
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
        assert skew_comm.lhs.param == Var("l")
        assert skew_comm.rhs.param == App(ARITH["-"], (Const(F(1)), Var("l")))


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

    def test_repeated_atom_is_located(self):
        with pytest.raises(SpecParseError, match="atom 'b' declared twice") as exc:
            parse_spec(MINI.replace("atoms a b;", "atoms a b b;"))
        assert (exc.value.line, exc.value.col) == (2, 11)

    def test_repeated_operation_is_located(self):
        text = SPEC_PATH.read_text()
        old = '  op "skip" : 0;\n'
        assert text.count(old) == 1
        with pytest.raises(SpecParseError, match="operation 'skip' declared twice") as exc:
            parse_spec(text.replace(old, old + old))
        line = text[: text.index(old)].count("\n") + 2
        assert (exc.value.line, exc.value.col) == (line, 6)

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

    def test_position_after_a_multi_line_string(self):
        text = 'atoms a b;\nlayer l {\n  op "x\ny" : 2;\n\n  $\n}\n'
        with pytest.raises(SpecParseError, match="unexpected character '\\$'") as exc:
            parse_spec(text)
        assert (exc.value.line, exc.value.col) == (6, 3)


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


def hand_built_convex_theory(oplus=theories.OPLUS):
    """The convex-algebra laws written out by hand: the law table's reference."""
    x, y, z = Var("x"), Var("y"), Var("z")
    lam, tau = Var("l"), Var("t")
    inv = App(ARITH["-"], (Const(F(1)), lam))
    outer = App(ARITH["+"], (lam, App(ARITH["*"], (inv, tau))))  # l + (1-l)*t
    ratio = App(ARITH["/"], (lam, outer))
    return Theory(
        Signature((oplus,)),
        (
            equation(App(oplus, (x, x), lam), x, name=f"idem({oplus.name})"),
            equation(
                App(oplus, (x, y), lam),
                App(oplus, (y, x), inv),
                name=f"skew-comm({oplus.name})",
            ),
            equation(
                App(oplus, (x, App(oplus, (y, z), tau)), lam),
                App(oplus, (App(oplus, (x, y), ratio), z), outer),
                name=f"skew-assoc({oplus.name})",
            ),
        ),
        name="convex algebra",
    )


class TestConvexLaws:
    """The law table builds and names the convex-algebra laws of ⊕."""

    @pytest.mark.parametrize("oplus", [theories.OPLUS, OpSymbol("o", 2, param=True)])
    def test_the_table_builds_the_hand_built_laws(self, oplus):
        assert theories.convex_theory(oplus) == hand_built_convex_theory(oplus)

    @staticmethod
    def names(*eqs):
        text = 'atoms a;\nlayer p {\n  op "⊕" : 2 param;\n'
        text += "".join(f"  eq {e};\n" for e in eqs) + "}\n"
        (layer,) = parse_spec(text).layers
        return [e.name for e in layer.theory.equations]

    def test_renamed_variables_and_swapped_sides_are_named(self):
        assert self.names(
            "u (+)[p] u = u",
            "v (+)[1 - q] u = u (+)[q] v",
            "(a1 (+)[p / (p + (1 - p) * s)] a2) (+)[p + (1 - p) * s] a3"
            " = a1 (+)[p] (a2 (+)[s] a3)",
        ) == ["idem(⊕)", "skew-comm(⊕)", "skew-assoc(⊕)"]

    def test_names_are_alpha_equivalence(self):
        # the other orientation of idempotence is the same law; instances of
        # skew-associativity with equal variables are not its alpha variants
        assert self.names(
            "x = x (+)[l] x",
            "x (+)[l] (x (+)[t] x) = (x (+)[l] x) (+)[t] x",
            "x (+)[l] (y (+)[t] y) = (x (+)[l] y) (+)[t] y",
        ) == ["idem(⊕)", "", ""]


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
        t = data.draw(closed_terms(sig, shipped.atoms, GRID5))
        assert parse_program(render_term(t), sig, shipped.atoms) == t


# ---------------------------------------------------------------------------
# differential test: `_tokenize` against the character loop it replaced, kept
# here as a reference (it reads every Unicode digit as a number and does not
# count the newlines inside a string)

_OLD_PUNCT = (";", ":", "{", "}", "(", ")", "[", "]", "=", "+", "-", "*", "/", ",", "⊕")


def reference_tokenize(text):
    """(kind, text, line, col) of every token, the end token last."""
    toks = []
    line, col, i = 1, 1, 0
    n = len(text)
    while i < n:
        c = text[i]
        if c == "\n":
            i, line, col = i + 1, line + 1, 1
            continue
        if c in " \t\r":
            i, col = i + 1, col + 1
            continue
        if c == "#":
            while i < n and text[i] != "\n":
                i += 1
            continue
        if text.startswith("(+)", i):
            toks.append(("punct", "⊕", line, col))
            i, col = i + 3, col + 3
            continue
        if c == '"':
            j = text.find('"', i + 1)
            if j < 0:
                raise SpecParseError("unterminated string", line, col)
            toks.append(("string", text[i + 1 : j], line, col))
            col += j + 1 - i
            i = j + 1
            continue
        if c.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            toks.append(("number", text[i:j], line, col))
            col += j - i
            i = j
            continue
        if c.isalpha() or c == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] in "_'"):
                j += 1
            toks.append(("ident", text[i:j], line, col))
            col += j - i
            i = j
            continue
        if c in _OLD_PUNCT:
            toks.append(("punct", c, line, col))
            i, col = i + 1, col + 1
            continue
        raise SpecParseError(f"unexpected character {c!r}", line, col)
    toks.append(("end", "", line, col))
    return toks


def token_tuples(text):
    return [(t.kind, t.text, t.line, t.col) for t in _tokenize(text)]


def outcome(tokenize, text):
    """The token list, or the parse error's message."""
    try:
        return tokenize(text)
    except SpecParseError as exc:
        return str(exc)


_PIECES = list("abxyZ_'0123456789;:{}()[]=+-*/,⊕#\" \t\r$.") + ["(+)", "op", "12"]


def _close_strings(lines):
    """Join the lines, closing every string before its line ends: the
    reference gives wrong columns after a string that spans lines."""
    closed = [l + '"' if l.count('"') % 2 else l for l in lines[:-1]]
    return "\n".join(closed + lines[-1:])


spec_texts = st.lists(
    st.lists(st.sampled_from(_PIECES), max_size=16).map("".join), max_size=6
).map(_close_strings)


class TestTokenizer:
    @settings(max_examples=400, deadline=None)
    @given(spec_texts)
    def test_agrees_with_the_reference(self, text):
        assert outcome(token_tuples, text) == outcome(reference_tokenize, text)

    @pytest.mark.parametrize(
        "text",
        ["", "a # c", "a\n# c", '"x"#"', "a\t(+)b", "x'1 _y", '"a#b" c', '"open', "a $"],
    )
    def test_edge_cases(self, text):
        assert outcome(token_tuples, text) == outcome(reference_tokenize, text)

    def test_shipped_spec_and_acceptance_programs(self):
        for text in [SPEC_PATH.read_text(), *STAGE1_PROGRAMS, *STAGE2_PROGRAMS]:
            assert token_tuples(text) == reference_tokenize(text)


# ---------------------------------------------------------------------------
# differential test: `_parse_term` against the token-stream parser it
# replaced, kept here as a reference (it reads through `peek`, `accept` and
# `next`, one call per token)

def reference_parse_term(ts, sig, leaf, prec=0):
    left = reference_parse_term_atom(ts, sig, leaf)
    while True:
        t = ts.peek()
        if t.kind != "punct" or t.text not in INFIX_PREC:
            return left
        op_prec = INFIX_PREC[t.text]
        if op_prec <= prec:
            return left
        # ';' also terminates statements: only an operator before a term
        if t.text == ";" and not _can_start_term(ts.peek(1)):
            return left
        if t.text not in sig:
            raise SpecParseError(f"operation {t.text!r} not declared", t.line, t.col)
        op = sig[t.text]
        if op.arity != 2:
            raise SpecParseError(
                f"{op.name!r} expects {op.arity} arguments, got 2", t.line, t.col
            )
        ts.next()
        param = _parse_op_param(ts, op)
        right = reference_parse_term(ts, sig, leaf, op_prec)
        left = App(op, (left, right), param)


def reference_parse_term_atom(ts, sig, leaf):
    t = ts.peek()
    if ts.accept("("):
        inner = reference_parse_term(ts, sig, leaf)
        ts.expect("punct", ")")
        return inner
    if t.kind == "ident" and t.text not in KEYWORDS:
        ts.next()
        if t.text in sig:
            op = sig[t.text]
            param = _parse_op_param(ts, op)
            if op.arity == 0:
                return App(op, (), param)
            ts.expect("punct", "(")
            args = [reference_parse_term(ts, sig, leaf)]
            while ts.accept(","):
                args.append(reference_parse_term(ts, sig, leaf))
            ts.expect("punct", ")")
            if len(args) != op.arity:
                raise SpecParseError(
                    f"{op.name!r} expects {op.arity} arguments, got {len(args)}",
                    t.line,
                    t.col,
                )
            return App(op, tuple(args), param)
        return leaf(t)
    raise SpecParseError(f"expected a term, found {t.text or t.kind!r}", t.line, t.col)


def reference_parse_program(text, sig, atoms):
    def leaf(tok):
        if tok.text not in atoms:
            raise SpecParseError(f"unbound atom {tok.text!r}", tok.line, tok.col)
        return Const(tok.text)

    ts = _Stream(_tokenize(text))
    t = reference_parse_term(ts, sig, leaf)
    end = ts.peek()
    if end.kind != "end":
        raise SpecParseError(f"trailing input {end.text!r}", end.line, end.col)
    return t


# prefix calls of three arities, plain and parameterized, beside the shipped
# operations, and the same names with other arities
PREFIX_OPS = Signature(
    (OpSymbol("n", 1), OpSymbol("m", 2), OpSymbol("k", 3), OpSymbol("ch", 2, True))
)
SHIFTED_OPS = Signature(
    (OpSymbol("n", 2), OpSymbol("m", 3), OpSymbol("k", 1), OpSymbol("ch", 1, True))
)


def mutated(tokens, data):
    """`tokens` with up to three tokens dropped, doubled or swapped."""
    tokens = list(tokens)
    for _ in range(data.draw(st.integers(0, 3))):
        if not tokens:
            break
        how = data.draw(st.sampled_from(["drop", "double", "swap"]))
        i = data.draw(st.integers(0, len(tokens) - 1))
        if how == "drop":
            del tokens[i]
        elif how == "double":
            tokens.insert(i, tokens[i])
        else:
            j = data.draw(st.integers(0, len(tokens) - 1))
            tokens[i], tokens[j] = tokens[j], tokens[i]
    return tokens


def signatures(shipped):
    """The shipped spec's signature at stages 0, 1 and 2, then with each set
    of prefix calls."""
    sigs = [shipped.signature_at(stage) for stage in (0, 1, 2)]
    return sigs + [sigs[-1].merge(PREFIX_OPS), sigs[-1].merge(SHIFTED_OPS)]


class TestTermParser:
    """A program is rendered from a term over one signature and read with
    another, so that undeclared operations, unbound atoms and calls with
    the wrong number of arguments show too."""

    @pytest.mark.parametrize("stage", [0, 1, 2, 3, 4])
    @settings(max_examples=80, deadline=None)
    @given(data=st.data())
    def test_agrees_with_the_reference(self, shipped, stage, data):
        sigs = signatures(shipped)
        sig = sigs[stage]
        t = data.draw(closed_terms(data.draw(st.sampled_from(sigs)), shipped.atoms, GRID5))
        tokens = [tok.text for tok in _tokenize(render_term(t))[:-1]]
        text = " ".join(mutated(tokens, data))
        assert outcome(lambda s: parse_program(s, sig, shipped.atoms), text) == outcome(
            lambda s: reference_parse_program(s, sig, shipped.atoms), text
        )


# ---------------------------------------------------------------------------
# differential test: the weight reader against the token-stream reader it
# replaced, kept here as a reference (it reads through `peek`, `accept` and
# `next`, and builds a new `Fraction` for every literal)

def reference_parse_param_expr(ts, prec=0):
    left = reference_parse_param_atom(ts)
    while True:
        t = ts.peek()
        if t.kind != "punct" or t.text not in ARITH:
            return left
        op_prec = 1 if t.text in "+-" else 2
        if op_prec <= prec:
            return left
        ts.next()
        right = reference_parse_param_expr(ts, op_prec)
        left = App(ARITH[t.text], (left, right))


def reference_parse_param_atom(ts):
    t = ts.peek()
    if ts.accept("("):
        inner = reference_parse_param_expr(ts)
        ts.expect("punct", ")")
        return inner
    if t.kind == "number":
        ts.next()
        num = int(t.text)
        if (num > 1 or ts.peek(1).kind == "number") and ts.accept("/"):
            den = ts.expect("number")
            if int(den.text) == 0:
                raise SpecParseError("zero denominator", den.line, den.col)
            return Const(F(num, int(den.text)))
        if num not in (0, 1):
            raise SpecParseError(
                "rationals need an explicit denominator (write p/q)", t.line, t.col
            )
        return Const(F(num))
    if t.kind == "ident":
        ts.next()
        return Var(t.text)
    raise SpecParseError(f"expected a parameter expression, found {t.text!r}", t.line, t.col)


def weight_outcome(parse, text):
    """The weight read from the start of `text` and the index of the token
    after it, or the parse error's message with its line:col."""
    ts = _Stream(_tokenize(text))
    try:
        return parse(ts), ts.i
    except SpecParseError as exc:
        return str(exc)


WEIGHTS = [
    "1 / l",
    "1/l",
    "(1/3)",
    "((1/3))",
    "1 / (1 + 1)",
    "1/2 / (1 - 1/2)",
    "l / (t / (1 - t)) * 2/3",
    "1/2 + 1/3 + 2/3 + 2/4 + 1/2",
    "007/14 - 0/5",
    "1 / 1/2",
    "1/0",
    "0/0",
    "2 / 0",
    "1/\n  0",
    "(1/3",
    "1/",
    "1/]",
    "2",
    "\n  3/ l",
    "",
    "]",
    "1 - 1/2 / (1 - 1)",
    "l t",
    "(l))",
]
_WEIGHT_PIECES = ["0", "1", "2", "3", "12", "007", "/", "+", "-", "*", "(", ")", "l", "t", "]", ","]


def weight_text(data):
    """Token soup, or a rendered weight with tokens dropped, doubled or
    swapped, on one line or several and after blank lines."""
    if data.draw(st.booleans()):
        tokens = data.draw(st.lists(st.sampled_from(_WEIGHT_PIECES), max_size=10))
    else:
        rendered = render_param(data.draw(param_terms))
        tokens = mutated([t.text for t in _tokenize(rendered)[:-1]], data)
    n = len(tokens)
    seps = data.draw(st.lists(st.sampled_from([" ", "", "\n", "\n  "]), min_size=n, max_size=n))
    prefix = data.draw(st.sampled_from(["", "\n", " \n\t "]))
    return prefix + "".join(s + t for s, t in zip(seps, tokens))


class TestWeightReader:
    @pytest.mark.parametrize("text", WEIGHTS)
    def test_reads_the_weights_as_the_reference(self, text):
        got = weight_outcome(_parse_param_expr, text)
        assert got == weight_outcome(reference_parse_param_expr, text)
        assert got == weight_outcome(_parse_param_expr, text)  # again, from the literal cache

    @settings(max_examples=400, deadline=None)
    @given(data=st.data())
    def test_agrees_with_the_reference(self, data):
        text = weight_text(data)
        assert weight_outcome(_parse_param_expr, text) == weight_outcome(
            reference_parse_param_expr, text
        )
