"""Workbench for composing algebraic effect layers via monoidal monads.

Build equational layers (sequencing, nondeterminism, probability, ...),
lift inner operations through outer commutative monads, decide which
equations survive the lifting, construct the induced distributive laws
and composite monads and verify them on bounded finite fragments
(exhaustively at the first level; on stride samples where inputs nest
and for the composite carrier of the generated axioms),
and emit the weakened "best approximate" combined theory.
"""

from .monads import (
    Bound,
    BoundExplosionError,
    InnerOnlyMonadError,
    MonadInstance,
    fin_distribution,
    fin_powerset,
    free_monoid,
    free_term_monad,
    multiset,
)
from .normal_forms import CANONICAL_KINDS, QuotientMonad, quotient_monad
from .pipeline import (
    CompositionReport,
    LayerSpec,
    StageResult,
    WeakenedTheory,
    compose_stack,
    eval_term,
    generate_distributivity,
    monoid_layer,
    nondet_layer,
    prob_layer,
    probnetkat_stack,
    verify_generated_axioms,
)
from .preservation import (
    FALSIFIED,
    PRESERVED_SYNTACTIC,
    UNKNOWN,
    MonadProfile,
    Verdict,
    check_preservation,
    profile_monad,
)
from .distlaw import (
    CompositeMonad,
    LawRefusedError,
    LawReport,
    QuotientLaw,
    build_quotient_law,
    compose,
    verify_distlaw,
    verify_monad,
    verify_monoidal,
)
from .render import render_value
from .reports import ReportDocument, check_document, composition_document, laws_document
from .specfile import SpecFile, SpecParseError, parse_program, parse_spec, parse_value
from .terms import (
    App,
    Const,
    Equation,
    FiniteAlgebra,
    OpSymbol,
    Signature,
    Term,
    TermError,
    Theory,
    Var,
    app,
    equation,
)
from .theories import (
    comm_monoid_theory,
    convex_theory,
    idem_semiring_theory,
    monoid_theory,
    recognize_theory,
    semilattice_theory,
    semiring_theory,
    two_monoids_absorption_theory,
)
from .values import Dist, MultiSet, SumAtom

__all__ = [name for name in dir() if not name.startswith("_")]
