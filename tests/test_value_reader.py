"""`specfile.parse_value` against the character-level value reader it replaced.

`reference_parse_value` is that reader, kept here only as a reference: it
scans the literal character by character, where `parse_value` reads the
tokens of `specfile._tokenize`.  On every rendered value the two must give
the same value, and on malformed text both must refuse with
`ValueParseError`, apart from the differences `TestIntendedDifferences`
pins.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from effectlayers.cli import main
from effectlayers.render import render_value
from effectlayers.specfile import SpecParseError, ValueParseError, parse_spec, parse_value
from effectlayers.values import Dist, MultiSet, SumAtom, ValueError_
from test_values import readable_values

# ---------------------------------------------------------------------------
# the reference reader


class _Scanner:
    def __init__(self, text):
        self.text = text
        self.pos = 0

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos] in " \t\n":
            self.pos += 1

    def peek(self, n=1):
        return self.text[self.pos : self.pos + n]

    def eat(self, token):
        self.skip_ws()
        if not self.text.startswith(token, self.pos):
            raise ValueParseError(f"expected {token!r} at position {self.pos} in {self.text!r}")
        self.pos += len(token)

    def at_end(self):
        self.skip_ws()
        return self.pos >= len(self.text)


def reference_parse_value(text):
    sc = _Scanner(text)
    value = _ref_simple(sc)
    sc.skip_ws()
    if sc.peek() == ":":
        value = _ref_entries(sc, value)
    if not sc.at_end():
        raise ValueParseError(f"trailing input at position {sc.pos} in {text!r}")
    return value


def _ref_entries(sc, first):
    entries = {}
    v = first
    while True:
        sc.eat(":")
        entries[v] = entries.get(v, 0) + _ref_fraction(sc)
        sc.skip_ws()
        if sc.peek() != ",":
            return Dist(entries)
        sc.eat(",")
        v = _ref_simple(sc)


def _ref_simple(sc):
    sc.skip_ws()
    c = sc.peek()
    if c == "[":
        sc.eat("[")
        dist = _ref_entries(sc, _ref_simple(sc))
        sc.eat("]")
        return dist
    if c == "{":
        sc.eat("{")
        return frozenset(_ref_elements(sc, "}"))
    if sc.peek(2) == "⟨⟨":
        sc.eat("⟨⟨")
        return MultiSet(_ref_elements(sc, "⟩⟩"))
    return _ref_word(sc)


def _ref_elements(sc, close):
    elems = []
    sc.skip_ws()
    if sc.peek(len(close)) != close:
        elems.append(_ref_simple(sc))
        sc.skip_ws()
        while sc.peek() == ",":
            sc.eat(",")
            elems.append(_ref_simple(sc))
            sc.skip_ws()
    sc.eat(close)
    return elems


def _ref_word(sc):
    sc.skip_ws()
    if sc.peek() == "ε":
        sc.eat("ε")
        return ()
    atoms = []
    run = ""
    dotted = False
    while True:
        c = sc.peek()
        if c == "(":
            atoms.extend(_ref_split_run(run, dotted))
            run, dotted = "", False
            atoms.append(_ref_sum(sc))
        elif c == "·":
            sc.eat("·")
            dotted = True
            run += "·"
        elif c and (c.isalnum() or c in "_'"):
            sc.eat(c)
            run += c
        else:
            break
    atoms.extend(_ref_split_run(run, dotted))
    if not atoms:
        raise ValueParseError(f"expected a word at position {sc.pos} in {sc.text!r}")
    return tuple(atoms)


def _ref_split_run(run, dotted):
    run = run.strip("·")
    if not run:
        return []
    return run.split("·") if dotted else list(run)


def _ref_sum(sc):
    sc.eat("(")
    words = [_ref_word(sc)]
    sc.skip_ws()
    while sc.peek() == "+":
        sc.eat("+")
        words.append(_ref_word(sc))
        sc.skip_ws()
    sc.eat(")")
    return SumAtom(MultiSet(words))


def _ref_fraction(sc):
    sc.skip_ws()
    start = sc.pos
    while sc.pos < len(sc.text) and (sc.text[sc.pos].isdigit() or sc.text[sc.pos] == "/"):
        sc.pos += 1
    if sc.pos == start:
        raise ValueParseError(f"expected a rational at position {start} in {sc.text!r}")
    literal = sc.text[start : sc.pos]
    try:
        return Fraction(literal)
    except (ValueError, ZeroDivisionError):
        raise ValueParseError(f"bad rational {literal!r} at position {start} in {sc.text!r}")


# ---------------------------------------------------------------------------


def outcome(read, text):
    """The value read, or the error's message."""
    try:
        return read(text)
    except ValueParseError as exc:
        return ("refused", str(exc))


@settings(max_examples=300)
@given(readable_values)
def test_rendered_values_read_alike(v):
    text = render_value(v)
    assert parse_value(text) == reference_parse_value(text) == v


MALFORMED = [
    "",
    "   ",
    "{a, b",
    "{a,, b}",
    "{a b}",
    "⟨⟨a⟩",
    "⟨a⟩",
    "[a: 1",
    "[a: 1/2, b: 1/2",
    "a:",
    "a: x",
    "a: 1/0",
    "a: 1/2/3",
    "a: /2",
    "a: 1/",
    "a: 1//2",
    "h: 1: 1/2, s: 1: 1/2",
    "{[a: 1/2, b: 1/2}",
    "(a + b",
    "()",
    "(a +)",
    "(+ a)",
    "a·(b",
    "$",
    "a$",
    "a, b",
    "{a} b",
    "a: 1/2, b",
    '"a"',
    ":",
    "a;b",
    "ε·a",
    "ε ε",
    "⟩⟩",
    "{a: 1}",
    "a: 1, ",
]


@pytest.mark.parametrize("text", MALFORMED)
def test_malformed_text_is_refused_by_both(text):
    with pytest.raises(ValueParseError):
        reference_parse_value(text)
    with pytest.raises(ValueParseError):
        parse_value(text)


# weights that do not sum to 1: both readers refuse them, the reference only
# with the bare `ValueError_` of `Dist`, which names no position
MALFORMED_WEIGHTS = [
    ("a: 1/3", "weights sum to 1/3, expected 1 at position 0 in 'a: 1/3'"),
    (
        "a: 1/2, b: 1/3",
        "weights sum to 5/6, expected 1 at position 0 in 'a: 1/2, b: 1/3'",
    ),
    ("{[a: 1/3]}", "weights sum to 1/3, expected 1 at position 2 in '{[a: 1/3]}'"),
]


@pytest.mark.parametrize("text, message", MALFORMED_WEIGHTS)
def test_bad_weight_sum_is_refused_at_the_first_entry(text, message):
    with pytest.raises(ValueError_) as ref:
        reference_parse_value(text)
    assert not isinstance(ref.value, ValueParseError)
    with pytest.raises(ValueParseError) as exc:
        parse_value(text)
    assert str(exc.value) == message


@pytest.mark.parametrize(
    "text, message",
    [
        ("a$", "unexpected character '$' at position 1 in 'a$'"),
        ("{a, ⟨b}", "unexpected character '⟨' at position 4 in '{a, ⟨b}'"),
        ('a: "1', "unterminated string at position 3 in 'a: \"1'"),
        ("a: 1/2, b", "expected ':' at position 9 in 'a: 1/2, b'"),
        ("(a +)", "expected a word at position 4 in '(a +)'"),
        ("a: x", "expected a rational at position 3 in 'a: x'"),
    ],
)
def test_refusals_carry_the_offset(text, message):
    """A character the tokenizer refuses is a ValueParseError too, never
    the spec reader's SpecParseError."""
    with pytest.raises(ValueParseError) as exc:
        parse_value(text)
    assert str(exc.value) == message
    assert not isinstance(exc.value, SpecParseError)


_PIECES = ["a", "b", "ab", "ε", "·", "(", ")", "+", "{", "}", "⟨⟨", "⟩⟩", "⟨", "[", "]"]
_PIECES += [":", ",", "0", "1", "2", "/", " ", "$", '"', ": 1", ": 1/2"]


@settings(max_examples=300)
@given(st.lists(st.sampled_from(_PIECES), max_size=12).map("".join))
def test_random_text(text):
    """Every text is read or refused with the package's value error, and
    where both readers read it they agree."""
    try:
        new = parse_value(text)
    except ValueError_:
        return
    try:
        old = reference_parse_value(text)
    except ValueError_:
        return
    assert new == old


class TestIntendedDifferences:
    def test_trailing_dot_is_refused(self):
        assert reference_parse_value("a·") == ("a",)
        assert outcome(parse_value, "a·") == (
            "refused", "expected a word at position 2 in 'a·'"
        )

    @pytest.mark.parametrize(
        "text, pos, dotted", [("a(b + c)", 1, "a·(b + c)"), ("(b + c)a", 7, "(b + c)·a")]
    )
    def test_sum_needs_a_dot(self, text, pos, dotted):
        assert reference_parse_value(text) == reference_parse_value(dotted)
        assert outcome(parse_value, text) == (
            "refused", f"trailing input at position {pos} in {text!r}"
        )
        assert parse_value(dotted) == reference_parse_value(dotted)
        assert SumAtom(MultiSet([("b",), ("c",)])) in parse_value(dotted)

    @pytest.mark.parametrize(
        "text, value",
        [
            ("a · b", ("a", "b")),
            ("( a + b ) · c", (SumAtom(MultiSet([("a",), ("b",)])), "c")),
            ("a: 1 / 2, b: 1/2", Dist({("a",): Fraction(1, 2), ("b",): Fraction(1, 2)})),
        ],
    )
    def test_blanks_between_tokens_are_skipped(self, text, value):
        assert outcome(reference_parse_value, text)[0] == "refused"
        assert parse_value(text) == value

    def test_comment_runs_to_the_end_of_the_line(self):
        assert outcome(reference_parse_value, "a # b")[0] == "refused"
        assert parse_value("a # b") == ("a",)

    def test_identifier_starting_with_the_empty_word_is_a_word_of_letters(self):
        assert outcome(reference_parse_value, "εa")[0] == "refused"
        assert parse_value("εa") == ("ε", "a")
        assert parse_value("ε") == reference_parse_value("ε") == ()

    @pytest.mark.parametrize("text", ["1a", "a: ٣/٣"])
    def test_words_and_rationals_take_ascii_digits_only(self, text):
        reference_parse_value(text)
        with pytest.raises(ValueParseError):
            parse_value(text)

    def test_dot_in_a_spec_is_a_token(self, capsys, tmp_path):
        text = 'atoms a b;\nlayer l {\n  op ";" : 2;\n  eq x·y = y;\n}\n'
        with pytest.raises(SpecParseError, match="expected '=', found '·'"):
            parse_spec(text)
        bad = tmp_path / "bad.layers"
        bad.write_text(text, encoding="utf-8")
        assert main(["check", str(bad)]) == 3
        assert capsys.readouterr().err == "error: 4:7: expected '=', found '·'\n"
