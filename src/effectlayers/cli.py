"""Command-line entry points.

    effectlayers check SPEC        preservation verdicts per stage
    effectlayers compose SPEC      full pipeline: weaken, laws, final theory
    effectlayers verify-laws SPEC  DL.1-4, naturality, monad and axiom checks
    effectlayers eval SPEC -e PROG [--stage N]

Exit codes:
    check        0 = nothing dropped, 1 = equations dropped
    compose      0 = all verified and nothing dropped, 1 = equations
                 dropped but composite verified, 2 = unverified composite
                 or failed law
    verify-laws  0 = every law report passed, 2 = a law report failed or
                 is missing (drops do not count)
    eval         0
    all          2 = the distributive law was refused (compose and
                 verify-laws), 3 = input error or inconclusive
                 normalization
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from decimal import Decimal
from fractions import Fraction

from .distlaw import LawRefusedError
from .monads import Bound, BoundExplosionError, InnerOnlyMonadError
from .normal_forms import InconclusiveNormalization
from .pipeline import compose_stack, eval_term
from .render import render_value
from .reports import (
    ReportDocument,
    check_document,
    composition_document,
    laws_document,
)
from .specfile import SpecParseError, parse_program, parse_spec
from .terms import ParamDivisionByZero, TermError
from .values import ValueError_

def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="effectlayers",
        description="compose algebraic effect layers and audit the resulting theory",
    )
    sub = p.add_subparsers(dest="command", required=True)
    for name, help_ in (
        ("check", "run preservation checks for every stage"),
        ("compose", "run the full composition pipeline"),
        ("verify-laws", "verify distributive-law and monad axioms"),
        ("eval", "evaluate a closed program at a stage"),
    ):
        sp = sub.add_parser(name, help=help_)
        sp.add_argument("spec", help="path to a .layers file")
        sp.add_argument("--bounds", help="JSON file overriding enumeration bounds")
        sp.add_argument("--json", dest="json_path", help="write the machine report here")
        if name == "eval":
            sp.add_argument("-e", "--program", required=True, help="program text")
            sp.add_argument("--stage", type=int, default=None,
                            help="stage index (default: outermost)")
    return p


_INT_BOUNDS = tuple(f.name for f in dataclasses.fields(Bound) if f.name != "prob_grid")


def _load_bounds(path) -> Bound:
    """`Bound()`, with the keys a bounds file names overriding its defaults."""
    if path is None:
        return Bound()
    with open(path, "r", encoding="utf-8") as fh:
        # a decimal such as 0.1 is read exactly, never as a binary float
        raw = json.load(fh, parse_float=Decimal)
    if not isinstance(raw, dict):
        raise ValueError("bounds file must hold a JSON object of named bounds")
    kwargs = {}
    for key, value in raw.items():
        if key in _INT_BOUNDS:
            if type(value) is not int:  # a bool is an int too
                raise ValueError(
                    f"bound {key!r} must be an integer, not {_json_text(value)}"
                )
            kwargs[key] = value
        elif key == "prob_grid":
            if not isinstance(value, list):
                raise ValueError(
                    f"bound 'prob_grid' must be a list, not {_json_text(value)}"
                )
            kwargs[key] = tuple(_probability(g) for g in value)
        else:
            known = ", ".join(_INT_BOUNDS + ("prob_grid",))
            raise ValueError(f"unknown bound {key!r} (known: {known})")
    return Bound(**kwargs)


def _probability(g) -> Fraction:
    """A grid entry: a JSON integer, decimal or fraction string."""
    if type(g) in (int, Decimal, str):
        try:
            return Fraction(g)
        except (ValueError, ZeroDivisionError):
            pass
    raise ValueError(f"bound 'prob_grid' holds {_json_text(g)}, which is not a number")


def _json_text(value) -> str:
    return str(value) if isinstance(value, Decimal) else json.dumps(value)


def _emit(doc: ReportDocument, json_path, stream) -> None:
    if json_path:
        with open(json_path, "w", encoding="utf-8") as fh:
            fh.write(doc.to_json() + "\n")
    print(doc.to_text(), file=stream)


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        with open(args.spec, "r", encoding="utf-8") as fh:
            spec = parse_spec(fh.read())
        bound = _load_bounds(args.bounds)
    except (OSError, SpecParseError, json.JSONDecodeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3

    try:
        report = compose_stack(
            spec.layers,
            atoms=spec.atoms,
            bound=bound,
            build_laws=args.command in ("compose", "verify-laws"),
        )
        if args.command == "check":
            doc = check_document(report)
            _emit(doc, args.json_path, sys.stdout)
            return doc.data["exit_code"]

        if args.command == "compose":
            doc = composition_document(report)
            _emit(doc, args.json_path, sys.stdout)
            return report.exit_code

        if args.command == "verify-laws":
            doc = laws_document(report)
            _emit(doc, args.json_path, sys.stdout)
            return doc.data["exit_code"]

        # eval
        stage = args.stage if args.stage is not None else len(report.stages)
        program = parse_program(args.program, spec.signature_at(stage), spec.atoms)
        value = eval_term(report, program, stage, spec.atoms)
        print(render_value(value))
        if args.json_path:
            doc = ReportDocument(
                {
                    "kind": "eval",
                    "program": args.program,
                    "stage": stage,
                    "value": render_value(value),
                }
            )
            with open(args.json_path, "w", encoding="utf-8") as fh:
                fh.write(doc.to_json() + "\n")
        return 0
    except LawRefusedError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (
        SpecParseError,
        TermError,
        ParamDivisionByZero,
        ValueError_,
        BoundExplosionError,
        InnerOnlyMonadError,
        InconclusiveNormalization,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
