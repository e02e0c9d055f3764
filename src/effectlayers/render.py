"""Canonical rendering of effect values, and the one term printer.

One fixed textual form per value: words concatenate their atoms ("ac",
empty word "ε") or, once an atom has a longer name, join them with "·"
("ab·c", and "·ab" for the word of the one atom "ab"), sets use braces,
multisets use ⟨⟨…⟩⟩ with elements repeated by multiplicity, nested sums
are parenthesized "+"-joined words, and distributions are comma-joined
"value: p/q" entries, bracketed ("{[h: 1/2, s: 1/2]}") inside a set, a
multiset or another distribution.
`specfile.parse_value` reads them back.

`render_term` prints terms in the syntax `specfile.parse_program` reads,
by the parser's own precedence table `specfile.INFIX_PREC`.  An infix
operand of equal precedence is bracketed on either side: "(a;b);c".
"""

from __future__ import annotations

from fractions import Fraction

from .specfile import EMPTY_WORD, INFIX_PREC
from .terms import Const, Term, Var, render_param
from .values import Dist, MultiSet, SumAtom, sort_values


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
    if isinstance(v, int) and not isinstance(v, bool):
        return str(v)
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
    if len(w) == 1 and isinstance(w[0], str):
        # a lone multi-letter atom: without the "·", "ab" reads back as a·b
        return "·" + rendered[0]
    return "·".join(rendered)
