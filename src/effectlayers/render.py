"""Canonical rendering and reparsing of effect values, and the one term printer.

One fixed textual form per value: words concatenate their atoms ("ac",
empty word "ε"), sets use braces, multisets use ⟨⟨…⟩⟩ with elements
repeated by multiplicity, nested sums are parenthesized "+"-joined words,
and distributions are comma-joined "value: p/q" entries, bracketed
("{[h: 1/2, s: 1/2]}") inside a set, a multiset or another distribution.
`parse_value` inverts `render_value` on every value the composed stacks
produce.

`render_term` prints terms in the syntax `specfile.parse_program` reads,
by the parser's own precedence table `specfile.INFIX_PREC`.  An infix
operand of equal precedence is bracketed on either side: "(a;b);c".
"""

from __future__ import annotations

from fractions import Fraction

from .specfile import INFIX_PREC
from .terms import Const, Term, Var, render_param
from .values import Dist, MultiSet, SumAtom, ValueError_, sort_values

EMPTY_WORD = "ε"


def render_value(v) -> str:
    if isinstance(v, Dist):
        return ", ".join(f"{_render_element(e)}: {render_param(w)}" for e, w in v.items())
    return _render_element(v)


def _render_element(v) -> str:
    """`v` as it prints inside another value: a distribution in brackets."""
    if isinstance(v, str):
        return v
    if isinstance(v, tuple):
        return _render_word(v)
    if isinstance(v, frozenset):
        return "{" + ", ".join(_render_element(e) for e in sort_values(v)) + "}"
    if isinstance(v, MultiSet):
        parts = []
        for e, n in v.items():
            parts.extend([_render_element(e)] * n)
        return "⟨⟨" + ", ".join(parts) + "⟩⟩"
    if isinstance(v, Dist):
        return f"[{render_value(v)}]"
    if isinstance(v, SumAtom):
        parts = []
        for w, n in v.summands.items():
            parts.extend([_render_word(w)] * n)
        return "(" + " + ".join(parts) + ")"
    if isinstance(v, Fraction):
        return render_param(v)
    if isinstance(v, Term):
        return render_term(v)
    raise TypeError(f"no canonical rendering for {type(v).__name__}")


def render_term(t: Term, prec: int = 0) -> str:
    """`t` in program syntax, bracketed if it is infix below `prec`."""
    if isinstance(t, Const):
        return _render_element(t.value)
    if isinstance(t, Var):
        return t.name
    name = t.op.name
    shown = f"{name}[{render_param(t.param)}]" if t.op.param else name
    if t.op.arity == 0:
        return shown
    my = INFIX_PREC.get(name)
    if my is None or t.op.arity != 2:
        return f"{shown}(" + ", ".join(render_term(a) for a in t.args) + ")"
    left = render_term(t.args[0], my + 1)
    right = render_term(t.args[1], my + 1)
    body = f"{left}{shown}{right}" if name == ";" else f"{left} {shown} {right}"
    return f"({body})" if my < prec else body


def _render_word(w: tuple) -> str:
    if not w:
        return EMPTY_WORD
    rendered = [_render_element(a) for a in w]
    if all(len(r) == 1 for r in rendered):
        return "".join(rendered)
    return "·".join(rendered)


# ---------------------------------------------------------------------------
# reparser

class ValueParseError(ValueError_):
    pass


class _Scanner:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos] in " \t\n":
            self.pos += 1

    def peek(self, n: int = 1) -> str:
        return self.text[self.pos : self.pos + n]

    def eat(self, token: str):
        self.skip_ws()
        if not self.text.startswith(token, self.pos):
            raise ValueParseError(
                f"expected {token!r} at position {self.pos} in {self.text!r}"
            )
        self.pos += len(token)

    def at_end(self) -> bool:
        self.skip_ws()
        return self.pos >= len(self.text)


def parse_value(text: str):
    """Parse a canonical value literal back into the value it renders."""
    sc = _Scanner(text)
    value = _parse_simple(sc)
    sc.skip_ws()
    if sc.peek() == ":":  # a distribution: entry list at top level
        value = _parse_entries(sc, value)
    if not sc.at_end():
        raise ValueParseError(f"trailing input at position {sc.pos} in {text!r}")
    return value


def _parse_entries(sc: _Scanner, first) -> Dist:
    """The entries "v: p, ..." of a distribution, its first value read."""
    entries = {}
    v = first
    while True:
        sc.eat(":")
        entries[v] = entries.get(v, 0) + _parse_fraction(sc)
        sc.skip_ws()
        if sc.peek() != ",":
            return Dist(entries)
        sc.eat(",")
        v = _parse_simple(sc)


def _parse_simple(sc: _Scanner):
    sc.skip_ws()
    c = sc.peek()
    if c == "[":
        sc.eat("[")
        dist = _parse_entries(sc, _parse_simple(sc))
        sc.eat("]")
        return dist
    if c == "{":
        sc.eat("{")
        return frozenset(_parse_elements(sc, "}"))
    if sc.peek(2) == "⟨⟨":
        sc.eat("⟨⟨")
        return MultiSet(_parse_elements(sc, "⟩⟩"))
    return _parse_word(sc)


def _parse_elements(sc: _Scanner, close: str) -> list:
    """The comma-separated elements of a set or multiset, up to `close`."""
    elems = []
    sc.skip_ws()
    if sc.peek(len(close)) != close:
        elems.append(_parse_simple(sc))
        sc.skip_ws()
        while sc.peek() == ",":
            sc.eat(",")
            elems.append(_parse_simple(sc))
            sc.skip_ws()
    sc.eat(close)
    return elems


def _parse_word(sc: _Scanner):
    sc.skip_ws()
    if sc.peek() == EMPTY_WORD:
        sc.eat(EMPTY_WORD)
        return ()
    atoms = []
    run = ""
    dotted = False
    while True:
        c = sc.peek()
        if c == "(":
            atoms.extend(_split_run(run, dotted))
            run, dotted = "", False
            atoms.append(_parse_sum(sc))
        elif c == "·":
            sc.eat("·")
            dotted = True
            run += "·"
        elif c and (c.isalnum() or c in "_'"):
            sc.eat(c)
            run += c
        else:
            break
    atoms.extend(_split_run(run, dotted))
    if not atoms:
        raise ValueParseError(f"expected a word at position {sc.pos} in {sc.text!r}")
    return tuple(atoms)


def _split_run(run: str, dotted: bool):
    run = run.strip("·")
    if not run:
        return []
    return run.split("·") if dotted else list(run)


def _parse_sum(sc: _Scanner) -> SumAtom:
    sc.eat("(")
    words = [_parse_word(sc)]
    sc.skip_ws()
    while sc.peek() == "+":
        sc.eat("+")
        words.append(_parse_word(sc))
        sc.skip_ws()
    sc.eat(")")
    return SumAtom(MultiSet(words))


def _parse_fraction(sc: _Scanner) -> Fraction:
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
