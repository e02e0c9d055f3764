"""Structured report documents: one tree, two serializations.

A ReportDocument wraps a JSON-compatible tree (dicts, lists, strings,
ints, bools, None).  All effect values, terms, and fractions are rendered
to their canonical literal strings on the way in, so JSON -> memory ->
JSON is the identity and reports are byte-stable across runs.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction

from .render import render_term, render_value
from .terms import Equation, Term
from .values import Dist, MultiSet, SumAtom


@dataclass(frozen=True)
class ReportDocument:
    data: dict

    def to_json(self) -> str:
        return json.dumps(self.data, indent=2, ensure_ascii=False)

    def to_text(self) -> str:
        return "\n".join(_text_lines(self.data, 0))


def _text_lines(node, depth: int):
    pad = "  " * depth
    if isinstance(node, dict):
        for k, v in node.items():
            if isinstance(v, (dict, list)):
                yield f"{pad}{k}:"
                yield from _text_lines(v, depth + 1)
            else:
                yield f"{pad}{k}: {v}"
    elif isinstance(node, list):
        for v in node:
            if isinstance(v, (dict, list)):
                yield from _text_lines(v, depth)
            else:
                yield f"{pad}- {v}"
    else:
        yield f"{pad}{node}"


# ---------------------------------------------------------------------------
# canonical literal encoding of arbitrary evidence values

def encode_value(v):
    if v is None or isinstance(v, (bool, int, str)):
        return v
    if isinstance(v, (tuple, frozenset, MultiSet, Dist, SumAtom, Fraction, Term)):
        return render_value(v)
    if isinstance(v, Equation):
        return describe_eq(v)
    if isinstance(v, dict):
        return {str(k): encode_value(x) for k, x in v.items()}
    if isinstance(v, list):
        return [encode_value(x) for x in v]
    return repr(v)


def describe_eq(e: Equation) -> str:
    body = f"{render_term(e.lhs)} = {render_term(e.rhs)}"
    return f"{e.name}: {body}" if e.name else body


# ---------------------------------------------------------------------------
# builders

def _probe_dict(p):
    """A probe's `LawReport`, PASS printed as HOLDS_ON_FRAGMENT and FAIL as FAILS."""
    out = {"status": "HOLDS_ON_FRAGMENT" if p.ok else "FAILS", "fragment": p.fragment}
    if p.counterexample is not None:
        out["counterexample"] = encode_value(p.counterexample)
    return out


def _verdict_dict(v):
    out = {
        "equation": describe_eq(v.equation),
        "status": v.status,
    }
    if v.theorem:
        out["theorem"] = v.theorem
    if v.fragment:
        out["fragment"] = v.fragment
    if v.counterexample is not None:
        out["counterexample"] = encode_value(v.counterexample)
    if v.evidence:
        out["evidence"] = [_probe_dict(p) for p in v.evidence]
    return out


def _law_dict(r):
    out = {"axiom": r.axiom, "status": r.status, "fragment": r.fragment}
    if r.counterexample is not None:
        out["counterexample"] = encode_value(r.counterexample)
    return out


# a stage's three lists of law reports, in the order the reports print them
_LAW_LISTS = ("law_reports", "monad_reports", "axiom_reports")


def _law_lists(s) -> dict:
    return {k: [_law_dict(r) for r in getattr(s, k)] for k in _LAW_LISTS}


def _stage_dict(s) -> dict:
    return {
        "stage": s.index,
        "outer_layer": s.outer_name,
        "status": s.status,
        "monad_profile": {
            "symmetric": _probe_dict(s.profile.symmetric),
            "relevant": _probe_dict(s.profile.relevant),
            "affine": _probe_dict(s.profile.affine),
        },
        "verdicts": [_verdict_dict(v) for v in s.verdicts],
        "dropped": [describe_eq(e) for e, _ in s.weakened.dropped],
        "unweakened_refusal": s.unweakened_refusal,
        "generated_axioms": [describe_eq(e) for e in s.weakened.generated],
        **_law_lists(s),
        "combined_theory": {
            "name": s.combined.name,
            "operations": [
                {"name": o.name, "arity": o.arity, "param": o.param}
                for o in s.combined.signature.ops
            ],
            "equations": [describe_eq(e) for e in s.combined.equations],
        },
    }


def composition_document(report) -> ReportDocument:
    return ReportDocument(
        {
            "kind": "composition",
            "layers": [l.name for l in report.layers],
            "stages": [_stage_dict(s) for s in report.stages],
            "final_theory": {
                "name": report.final_theory.name,
                "equations": [describe_eq(e) for e in report.final_theory.equations],
            },
            "exit_code": report.exit_code,
        }
    )


def check_document(report) -> ReportDocument:
    stages = []
    for s in report.stages:
        d = _stage_dict(s)
        for k in _LAW_LISTS:
            d.pop(k)
        stages.append(d)
    code = 1 if report.dropped_any else 0
    return ReportDocument(
        {
            "kind": "check",
            "layers": [l.name for l in report.layers],
            "stages": stages,
            "exit_code": code,
        }
    )


def laws_document(report) -> ReportDocument:
    stages = []
    ok = True
    for s in report.stages:
        reports = s.law_reports + s.monad_reports + s.axiom_reports
        ok = ok and bool(reports) and all(r.ok for r in reports)
        stages.append({"stage": s.index, "outer_layer": s.outer_name, **_law_lists(s)})
    return ReportDocument(
        {
            "kind": "verify-laws",
            "stages": stages,
            "exit_code": 0 if ok else 2,
        }
    )
