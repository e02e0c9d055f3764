"""Textual layer-stack format, program syntax and value literals: the one reader.

Grammar (statements end with ";"):

    atoms a b c;
    layer traces {
      op ";" : 2;
      op "skip" : 0;
      eq x;(y;z) = (x;y);z;
      eq skip;x = x;
      normalizer monoid;
    }

Terms use infix syntax for the three canonical operators — ";" binds
tighter than "+", which binds tighter than "⊕[λ]" — plus prefix call
syntax f(t1, ..., tn) for anything else, f[λ](t1, ..., tn) when f takes a
parameter.  "(+)[λ]" is an ASCII alias for "⊕[λ]".  Parameters are
rational literals with an explicit denominator ("1/2"; bare "0" and "1"
allowed) or parameter expressions over variables ("1 / l" divides: "/"
after a bare literal starts a literal only before a number).
Numbers are ASCII digits.  Parse errors carry line and column, counted in
characters.

`parse_value` reads the same tokens: it inverts `render.render_value` on
every value the composed stacks produce, and its errors carry the
character offset into the literal.
"""

from __future__ import annotations

import functools
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple, Optional

from .pipeline import INNER_SEED, OUTER, LayerSpec
from .terms import (
    ARITH,
    App,
    Const,
    OpSymbol,
    Signature,
    Term,
    Theory,
    Var,
    equation,
)
from .theories import describe_equation
from .values import Dist, MultiSet, SumAtom, ValueError_

NORMALIZER_NAMES = {
    "monoid": "MONOID",
    "semilattice": "SEMILATTICE",
    "comm-monoid": "COMM_MONOID",
    "convex": "CONVEX",
    "idem-semiring": "IDEM_SEMIRING",
    "semiring": "SEMIRING",
    "two-monoids": "TWO_MONOIDS_ABSORB",
    "generic": "GENERIC",
}

KEYWORDS = {"atoms", "layer", "op", "eq", "normalizer"}

INFIX_PREC = {";": 30, "+": 20, "⊕": 10}

EMPTY_WORD = "ε"


class SpecParseError(Exception):
    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"{line}:{col}: {message}")
        self.line = line
        self.col = col


@dataclass(frozen=True)
class SpecFile:
    atoms: tuple
    layers: tuple  # LayerSpec, seed first

    def signature_at(self, stage: int) -> Signature:
        """The combined signature visible at `stage`."""
        sig = self.layers[0].theory.signature
        for layer in self.layers[1 : stage + 1]:
            sig = sig.merge(layer.theory.signature)
        return sig


# ---------------------------------------------------------------------------
# tokens

class _Tok(NamedTuple):
    kind: str  # ident | string | number | punct | end
    text: str
    pos: int  # offset into src
    src: str

    @property
    def line(self) -> int:
        return self.src.count("\n", 0, self.pos) + 1

    @property
    def col(self) -> int:
        return self.pos - self.src.rfind("\n", 0, self.pos)


# Each match is the blanks before a token, then the token: `findall`
# gives one (blanks, token) pair of strings per token, with no match
# objects, and the kinds are looked up.  `.` matches any character, so the
# matches tile the text; the empty token at `\Z` ends it.  `[^\W\d]` also
# admits non-letters such as "²"; `_tokenize` refuses those, so an
# identifier starts with a letter or "_".
_TOKEN = re.compile(
    r"""([ \t\r\n]*)
      ( \(\+\) | ⟨⟨ | ⟩⟩ | [;:{}()\[\]=+\-*/,⊕·]
      | "[^"]*" | [0-9]+ | [^\W\d][\w']* | \#[^\n]* | . | \Z )""",
    re.VERBOSE | re.DOTALL,
)

# punctuation by its text, "(+)" read as "⊕"
_PUNCT = {p: p for p in ";:{}()[]=+-*/,⊕·"} | {"⟨⟨": "⟨⟨", "⟩⟩": "⟩⟩", "(+)": "⊕"}
# every other token's kind by its first character
_LEAD = {**dict.fromkeys("0123456789", "number"), '"': "string", "#": "comment", "": "end"}


def _tokenize(text: str):
    toks = []
    append = toks.append
    pos = 0
    end = len(text)  # an error at the end of the input points before a trailing comment
    for blank, s in _TOKEN.findall(text):
        at = pos + len(blank)
        pos = at + len(s)
        p = _PUNCT.get(s)
        if p is not None:
            # tuple.__new__ skips the Python-level __new__ NamedTuple generates
            append(tuple.__new__(_Tok, ("punct", p, at, text)))
            continue
        kind = _LEAD.get(s[:1], "ident")
        if kind == "ident":
            if not (s[0].isalpha() or s[0] == "_"):
                raise _RefusedCharacter(f"unexpected character {s[0]!r}", _Tok(kind, s, at, text))
        elif kind == "string":
            if len(s) == 1:
                raise _RefusedCharacter("unterminated string", _Tok(kind, s, at, text))
            s = s[1:-1]
        elif kind == "comment":
            if pos == end:
                end = at
            continue
        elif kind == "end":
            break
        append(tuple.__new__(_Tok, (kind, s, at, text)))
    append(_Tok("end", "", end, text))
    return toks


class _RefusedCharacter(SpecParseError):
    """A character that starts no token, at offset `pos`."""

    def __init__(self, message: str, tok: _Tok):
        super().__init__(message, tok.line, tok.col)
        self.message, self.pos = message, tok.pos


class _Stream:
    """The tokens, with one more end token, so that `peek(1)` at the end
    reads an end token and neither `peek` nor `next` clamps the index."""

    def __init__(self, toks):
        self.toks = [*toks, toks[-1]]
        self.i = 0

    def peek(self, ahead: int = 0) -> _Tok:
        return self.toks[self.i + ahead]

    def accept(self, text: str) -> bool:
        """Take the next token if it is the punctuation `text`."""
        t = self.toks[self.i]
        if t.kind != "punct" or t.text != text:
            return False
        self.i += 1
        return True

    def next(self) -> _Tok:
        t = self.toks[self.i]
        self.i += 1
        return t

    def expect(self, kind: str, text: Optional[str] = None) -> _Tok:
        t = self.toks[self.i]
        if t[0] != kind or (text is not None and t[1] != text):
            want = text if text is not None else kind
            raise SpecParseError(f"expected {want!r}, found {t.text or t.kind!r}", t.line, t.col)
        self.i += 1
        return t


# ---------------------------------------------------------------------------
# term parsing

def _can_start_term(t: _Tok) -> bool:
    if t.kind == "ident":
        return t.text not in KEYWORDS
    return t.kind == "punct" and t.text == "("


def _parse_param_expr(ts: _Stream, prec: int = 0):
    """A weight, a term over `ARITH`; reads `ts.toks` by index, as
    `_parse_term` does."""
    left = _parse_param_atom(ts)
    toks = ts.toks
    while True:
        t = toks[ts.i]
        op = ARITH.get(t[1]) if t[0] == "punct" else None
        if op is None:
            return left
        op_prec = 1 if t[1] in "+-" else 2
        if op_prec <= prec:
            return left
        ts.i += 1
        right = _parse_param_expr(ts, op_prec)
        left = App(op, (left, right))


@functools.lru_cache(maxsize=256)
def _rational(num: int, den: int) -> Fraction:
    """The literal num/den: weights come from a grid of a few literals."""
    return Fraction(num, den)


def _parse_param_atom(ts: _Stream):
    toks, i = ts.toks, ts.i
    t = toks[i]
    kind = t[0]
    if kind == "number":
        num = int(t[1])
        # after a bare 0 or 1, "/" starts a literal only before a number:
        # "1 / l" divides
        slash = toks[i + 1]
        if slash[0] == "punct" and slash[1] == "/" and (num > 1 or toks[i + 2][0] == "number"):
            ts.i = i + 2
            den = ts.expect("number")
            d = int(den[1])
            if d == 0:
                raise SpecParseError("zero denominator", den.line, den.col)
            return Const(_rational(num, d))
        if num not in (0, 1):
            raise SpecParseError(
                "rationals need an explicit denominator (write p/q)", t.line, t.col
            )
        ts.i = i + 1
        return Const(_rational(num, 1))
    if kind == "ident":
        ts.i = i + 1
        return Var(t[1])
    if kind == "punct" and t[1] == "(":
        ts.i = i + 1
        inner = _parse_param_expr(ts)
        ts.expect("punct", ")")
        return inner
    raise SpecParseError(f"expected a parameter expression, found {t.text!r}", t.line, t.col)


def _parse_op_param(ts: _Stream, op: OpSymbol):
    """The bracketed parameter after a parameterized operation's name."""
    if not op.param:
        return None
    ts.expect("punct", "[")
    param = _parse_param_expr(ts)
    ts.expect("punct", "]")
    return param.value if isinstance(param, Const) else param  # a literal: its rational


def _parse_term(ts: _Stream, sig: Signature, leaf, prec: int = 0) -> Term:
    # reads `ts.toks` by index: one step per token on the path of every program
    left = _parse_term_atom(ts, sig, leaf)
    toks = ts.toks
    while True:
        t = toks[ts.i]
        op_prec = INFIX_PREC.get(t[1])
        if op_prec is None or op_prec <= prec or t[0] != "punct":
            return left
        # ';' also terminates statements: only an operator before a term
        if t[1] == ";" and not _can_start_term(toks[ts.i + 1]):
            return left
        op = sig._by_name.get(t[1])
        if op is None:
            raise SpecParseError(f"operation {t[1]!r} not declared", t.line, t.col)
        if op.arity != 2:
            raise SpecParseError(
                f"{op.name!r} expects {op.arity} arguments, got 2", t.line, t.col
            )
        ts.i += 1
        param = _parse_op_param(ts, op) if op.param else None
        right = _parse_term(ts, sig, leaf, op_prec)
        left = App(op, (left, right), param)


def _parse_term_atom(ts: _Stream, sig: Signature, leaf) -> Term:
    t = ts.toks[ts.i]
    kind, text = t[0], t[1]
    if kind == "ident" and text not in KEYWORDS:
        ts.i += 1
        op = sig._by_name.get(text)
        if op is None:
            return leaf(t)
        param = _parse_op_param(ts, op) if op.param else None
        if op.arity == 0:
            return App(op, (), param)
        ts.expect("punct", "(")
        args = [_parse_term(ts, sig, leaf)]
        while ts.accept(","):
            args.append(_parse_term(ts, sig, leaf))
        ts.expect("punct", ")")
        if len(args) != op.arity:
            raise SpecParseError(
                f"{op.name!r} expects {op.arity} arguments, got {len(args)}",
                t.line,
                t.col,
            )
        return App(op, tuple(args), param)
    if kind == "punct" and text == "(":
        ts.i += 1
        inner = _parse_term(ts, sig, leaf)
        ts.expect("punct", ")")
        return inner
    raise SpecParseError(f"expected a term, found {text or kind!r}", t.line, t.col)


# ---------------------------------------------------------------------------
# spec files

def parse_spec(text: str) -> SpecFile:
    ts = _Stream(_tokenize(text))
    tok = ts.expect("ident", "atoms")
    atoms = {}
    while ts.peek().kind == "ident":
        t = ts.next()
        if t.text in atoms:
            raise SpecParseError(f"atom {t.text!r} declared twice", t.line, t.col)
        atoms[t.text] = t
    ts.expect("punct", ";")
    if not atoms:
        raise SpecParseError("at least one atom is required", tok.line, tok.col)

    layers = []
    while ts.peek().kind != "end":
        layers.append(_parse_layer(ts, role=INNER_SEED if not layers else OUTER))
    if not layers:
        t = ts.peek()
        raise SpecParseError("at least one inner seed layer is required", t.line, t.col)
    # a program would read such an atom as the operation
    ops = {o.name for layer in layers for o in layer.theory.signature.ops}
    for t in atoms.values():
        if t.text in ops:
            raise SpecParseError(f"atom {t.text!r} names an operation", t.line, t.col)
    return SpecFile(tuple(atoms), tuple(layers))


def _parse_layer(ts: _Stream, role: str) -> LayerSpec:
    ts.expect("ident", "layer")
    name = ts.expect("ident").text
    ts.expect("punct", "{")
    ops = []
    normalizer = None
    # ops must precede the equations that use them, so a single pass with an
    # incrementally grown signature suffices
    equations = []
    while True:
        t = ts.peek()
        if ts.accept("}"):
            break
        if t.kind == "ident" and t.text == "op":
            ts.next()
            op = ts.expect("string")
            if any(o.name == op.text for o in ops):
                raise SpecParseError(f"operation {op.text!r} declared twice", op.line, op.col)
            ts.expect("punct", ":")
            arity = int(ts.expect("number").text)
            param = False
            if ts.peek().kind == "ident" and ts.peek().text == "param":
                ts.next()
                param = True
            ts.expect("punct", ";")
            ops.append(OpSymbol(op.text, arity, param))
            continue
        if t.kind == "ident" and t.text == "eq":
            ts.next()
            sig = Signature(tuple(ops))
            lhs = _parse_term(ts, sig, _var_leaf)
            ts.expect("punct", "=")
            rhs = _parse_term(ts, sig, _var_leaf)
            ts.expect("punct", ";")
            try:
                e = equation(lhs, rhs)
                pattern = describe_equation(e, sig)
                if pattern != e.describe():
                    e = equation(lhs, rhs, name=pattern)
                equations.append(e)
            except SpecParseError:
                raise
            except Exception as exc:
                raise SpecParseError(str(exc), t.line, t.col)
            continue
        if t.kind == "ident" and t.text == "normalizer":
            ts.next()
            norm = ts.expect("ident")
            while ts.accept("-"):
                norm = norm._replace(text=norm.text + "-" + ts.expect("ident").text)
            ts.expect("punct", ";")
            if norm.text not in NORMALIZER_NAMES:
                raise SpecParseError(
                    f"unknown normalizer {norm.text!r} (expected one of {sorted(NORMALIZER_NAMES)})",
                    norm.line,
                    norm.col,
                )
            normalizer = NORMALIZER_NAMES[norm.text]
            continue
        raise SpecParseError(
            f"expected 'op', 'eq', 'normalizer' or '}}', found {t.text or t.kind!r}",
            t.line,
            t.col,
        )

    theory = Theory(Signature(tuple(ops)), tuple(equations), name=name)
    return LayerSpec(name, theory, normalizer, role)


def _var_leaf(tok: _Tok) -> Term:
    return Var(tok.text)


def parse_program(text: str, sig: Signature, atoms) -> Term:
    """A closed program: bare identifiers are atoms, not variables."""
    atom_set = set(atoms)

    def leaf(tok: _Tok) -> Term:
        if tok[1] not in atom_set:
            raise SpecParseError(f"unbound atom {tok.text!r}", tok.line, tok.col)
        return Const(tok[1])

    ts = _Stream(_tokenize(text))
    t = _parse_term(ts, sig, leaf)
    end = ts.peek()
    if end.kind != "end":
        raise SpecParseError(f"trailing input {end.text!r}", end.line, end.col)
    return t


# ---------------------------------------------------------------------------
# value literals

class ValueParseError(ValueError_):
    pass


def _value_error(what: str, t: _Tok) -> ValueParseError:
    return ValueParseError(f"{what} at position {t.pos} in {t.src!r}")


def parse_value(text: str):
    """Parse a canonical value literal back into the value it renders."""
    try:
        ts = _Stream(_tokenize(text))
    except _RefusedCharacter as exc:
        raise ValueParseError(f"{exc.message} at position {exc.pos} in {text!r}") from None
    start = ts.peek()
    value = _parse_simple(ts)
    if ts.accept(":"):  # a distribution: entry list at top level
        value = _parse_entries(ts, value, start)
    if ts.peek().kind != "end":
        raise _value_error("trailing input", ts.peek())
    return value


def _eat(ts: _Stream, text: str) -> None:
    if not ts.accept(text):
        raise _value_error(f"expected {text!r}", ts.peek())


def _parse_entries(ts: _Stream, v, start: _Tok) -> Dist:
    """The entries "v: p, ..." of a distribution, read up to its first ":";
    `start` is the first entry's token, where a bad weight sum is reported."""
    entries = {}
    while True:
        entries[v] = entries.get(v, 0) + _parse_fraction(ts)
        if not ts.accept(","):
            try:
                return Dist(entries)
            except ValueError_ as exc:
                raise _value_error(str(exc), start) from None
        v = _parse_simple(ts)
        _eat(ts, ":")


def _parse_simple(ts: _Stream):
    if ts.accept("["):
        start = ts.peek()
        first = _parse_simple(ts)
        _eat(ts, ":")
        dist = _parse_entries(ts, first, start)
        _eat(ts, "]")
        return dist
    if ts.accept("{"):
        return frozenset(_parse_elements(ts, "}"))
    if ts.accept("⟨⟨"):
        return MultiSet(_parse_elements(ts, "⟩⟩"))
    return _parse_word(ts)


def _parse_elements(ts: _Stream, close: str) -> list:
    """The comma-separated elements of a set or multiset, up to `close`."""
    elems = []
    if not ts.accept(close):
        elems.append(_parse_simple(ts))
        while ts.accept(","):
            elems.append(_parse_simple(ts))
        _eat(ts, close)
    return elems


def _parse_word(ts: _Stream) -> tuple:
    """ε, one identifier read as one-letter atoms, or atoms joined by "·"
    (with a leading "·" for a word of one atom: "·ab" is the word ab)."""
    first = ts.peek()
    if first.kind == "ident" and first.text == EMPTY_WORD:
        ts.next()
        return ()
    ts.accept("·")
    atoms = [_parse_atom(ts)]
    while ts.accept("·"):
        atoms.append(_parse_atom(ts))
    if len(atoms) == 1 and first.kind == "ident":
        return tuple(first.text)
    return tuple(atoms)


def _parse_atom(ts: _Stream):
    """An identifier, or a bracketed sum of words."""
    t = ts.peek()
    if t.kind == "ident":
        return ts.next().text
    if not ts.accept("("):
        raise _value_error("expected a word", t)
    words = [_parse_word(ts)]
    while ts.accept("+"):
        words.append(_parse_word(ts))
    _eat(ts, ")")
    return SumAtom(MultiSet(words))


def _parse_fraction(ts: _Stream) -> Fraction:
    """Number tokens joined by "/"."""
    start = ts.peek()
    if start.kind != "number":
        raise _value_error("expected a rational", start)
    literal = ts.next().text
    while ts.accept("/"):
        literal += "/"
        if ts.peek().kind == "number":
            literal += ts.next().text
    try:
        return Fraction(literal)
    except (ValueError, ZeroDivisionError):
        raise _value_error(f"bad rational {literal!r}", start) from None
