"""Construction and bounded verification of distributive laws.

The pipeline: the law lambda: S T -> T S between the free-algebra monad S
and the outer monad T, taken on canonical representatives, and the
composite monad.  The paper builds lambda as T(q) o rho, where rho
interprets a free term in the free term algebra lifted through T (one psi
per operation) and q normalizes each resulting term.  Since q is a
homomorphism of S-algebras and psi is natural, T(q) o rho is the fold of the
representative in the lifted algebra on T(S X), whose operations are
T(op_S) o psi^(k) and whose leaves are T(eta_S): fold fusion.  `apply` runs
that fold; T(q) o rho is kept as its independent check, run against it in
the well-definedness check.  Every axiom is checked on a bounded finite
fragment by `terms.run_check`: well-definedness, DL.1-2 and the monad
unit laws over every value within the bound (or the flatter fallback
bound `_enum` drops to), DL.3-4, naturality, MM.2 and monad associativity
over evenly spaced samples of their nested inputs.
"""

from __future__ import annotations

import weakref
from functools import cache, partial
from itertools import product
from dataclasses import dataclass, field
from typing import Optional

from dataclasses import replace as _replace

from .monads import (
    Bound,
    BoundExplosionError,
    MonadInstance,
    composite,
    free_term_monad,
    lift_interp,
)
from .normal_forms import QuotientMonad
from .reports import encode_value
from .terms import (  # LawReport, PASS and FAIL are re-exported
    FAIL,
    PASS,
    App,
    Const,
    FiniteAlgebra,
    LawReport,
    Term,
    TermError,
    interpret,
    run_check,
)


# ---------------------------------------------------------------------------
# quotient law between the free-algebra monad S and the outer monad T

@dataclass(frozen=True)
class QuotientLaw:
    inner: QuotientMonad  # S, with q and representatives
    outer: MonadInstance  # T

    def __post_init__(self):
        # lambda's fold, the canonical algebra of S lifted through T, and
        # rho's, the free term algebra lifted through T; a copy made with
        # dataclasses.replace lifts both through its own outer
        fused = lift_interp(self.outer, self.inner.algebra())
        object.__setattr__(self, "_fused", FiniteAlgebra((), fused).op)
        # lambda of each S-value; a copy starts empty, and compose_stack
        # empties it once the stage's law and monad checks are done.  It
        # reads the law through a weak reference: in a reference cycle, a
        # law would outlive its report until the cyclic collector ran
        law = weakref.ref(self)
        object.__setattr__(self, "fold", cache(lambda sv: law()._fold(sv)))
        ops = {o.name: partial(App, o) for o in self.inner.theory.signature.ops}
        lifted = lift_interp(self.outer, FiniteAlgebra((), ops))
        object.__setattr__(self, "_rho_ops", FiniteAlgebra((), lifted).op)

    def _term_leaf(self, u: Term):
        return self.outer.map(Const, _ground(u))

    def _unit_leaf(self, u: Term):
        return self.outer.map(self.inner.monad.unit, _ground(u))

    def rho(self, t: Term):
        """Term over T-value leaves -> T-value of terms over element leaves,
        lifting each operation by the iterated Fubini transformation."""
        return interpret(t, self._rho_ops, self._term_leaf)

    def apply(self, sv):
        """lambda: S(T X) -> T(S X), the fold of the canonical representative
        of `sv` in the lifted algebra T(op_S) o psi^(k) with leaves T(eta_S);
        it equals T(q) o rho, against which the well-definedness check
        tests it."""
        return self.fold(sv)

    def _fold(self, sv):
        rep = self.inner.representative(sv)  # term over Const(T-value)
        return interpret(rep, self._fused, self._unit_leaf)


def _ground(u: Term):
    if isinstance(u, Const):
        return u.value
    raise TermError("distributive laws apply to ground terms only")


class LawRefusedError(Exception):
    """The preconditions for quotienting the law were not met."""

    def __init__(self, message, verdicts=()):
        super().__init__(message)
        self.verdicts = tuple(verdicts)


def unpreserved_refusal(verdicts) -> Optional[LawRefusedError]:
    """The refusal that the non-preserved equations among `verdicts` force
    on the law, or None when every equation is preserved."""
    bad = [v for v in verdicts if not v.preserved]
    if not bad:
        return None
    names = ", ".join(v.equation.describe() for v in bad)
    return LawRefusedError(f"cannot quotient the law: non-preserved equations [{names}]", bad)


def build_quotient_law(
    S: QuotientMonad,
    T: MonadInstance,
    X,
    b: Bound,
    verdicts=None,
):
    """Quotient rho into a law S T -> T S, verifying representative independence.

    `verdicts` are preservation verdicts for S's equations; any non-preserved
    equation refuses the construction.  Returns (QuotientLaw, LawReport).
    """
    T.require_outer()
    refusal = unpreserved_refusal(verdicts or ())
    if refusal is not None:
        raise refusal
    law = QuotientLaw(S, T)
    report = _well_defined_report(law, X, b)
    if not report.ok:
        # should be impossible when the preconditions hold; internal alarm
        raise LawRefusedError(
            "well-definedness check failed despite preserved equations "
            f"(witness: {encode_value(report.counterexample)})"
        )
    return law, report


def _well_defined_report(law: QuotientLaw, X, b: Bound) -> LawReport:
    """Lemma-6 square: T(q) o rho agrees on all representatives of each SX value.

    Once it does, the fused lambda of each value met must equal that
    common output; a difference is a fault of the fusion, not of the
    theory, and raises LawRefusedError.
    """
    S, T = law.inner, law.outer
    term_monad = free_term_monad(S.theory.signature)
    tvalues = T.enumerate(tuple(X), b)
    terms = term_monad.enumerate(tuple(tvalues), b)
    groups: dict = {}  # S-value -> its first term and that term's T(q)∘ρ

    def clash(t):
        sv = S.normalize(t)
        out = T.map(S.normalize, law.rho(t))
        if sv not in groups:
            groups[sv] = (t, out)
            return None
        rep1, out1 = groups[sv]
        if out1 != out:
            return {"value": sv, "rep1": rep1, "out1": out1, "rep2": t, "out2": out}
        return None

    report = run_check(
        "WELL_DEFINED", product(terms), clash, f"{len(terms)} bounded terms"
    )
    if not report.ok:
        return report
    for sv, (t, out) in groups.items():
        fused = law.apply(sv)
        if fused != out:
            witness = {"value": sv, "rep": t, "fused": fused, "T(q)∘ρ": out}
            raise LawRefusedError(
                f"fused λ disagrees with T(q)∘ρ (witness: {encode_value(witness)})"
            )
    return report


# ---------------------------------------------------------------------------
# DL axioms and naturality

def _enum(en, carrier, b: Bound, cap: Optional[int] = None):
    """Enumerate with graceful degradation: flatter bounds when the space
    explodes, then an evenly spaced sample when a cap is requested."""
    for cb in (b, *b.fallbacks):
        try:
            vs = en(tuple(carrier), cb)
        except BoundExplosionError as exc:
            refused = exc
            continue
        return _sample(vs, cap)
    raise BoundExplosionError(
        "law-verification fragment", refused.count, b.ceiling
    ) from refused


def _sample(vs, cap: Optional[int]):
    if cap is None or len(vs) <= cap:
        return vs
    stride = len(vs) // cap
    # vs[::stride][:cap], building only the values kept
    return vs[: stride * cap : stride]


def _sides(lhs, rhs):
    """Witness that the two sides of an equation agree on one input."""

    def witness(v):
        l, r = lhs(v), rhs(v)
        return {"input": v, "lhs": l, "rhs": r} if l != r else None

    return witness


def verify_distlaw(law: QuotientLaw, X, b: Bound, cap: int) -> list:
    """DL.1-4 + naturality reports on the fragment of carrier `X` within `b`.

    Level-1 inputs are exhaustive; doubly nested inputs are evenly sampled
    down to `cap` values per check.
    """
    S, T = law.inner.monad, law.outer
    lam, mu_S = law.apply, law.inner.mult
    # DL.1: lambda o S(eta_T) = eta_T at SX
    dl1 = _sides(lambda s: lam(S.map(T.unit, s)), T.unit)
    # DL.2: lambda o eta_S at TX = T(eta_S)
    dl2 = _sides(lambda t: lam(S.unit(t)), lambda t: T.map(S.unit, t))
    # DL.3: lambda o S(mu_T) = mu_T o T(lambda) o lambda at S(TT X)
    dl3 = _sides(
        lambda s: lam(S.map(T.mult, s)), lambda s: T.mult(T.map(lam, lam(s)))
    )
    # DL.4: lambda o mu_S at TX = T(mu_S) o lambda o S(lambda) at SS(T X)
    dl4 = _sides(
        lambda s: lam(mu_S(s)), lambda s: T.map(mu_S, lam(S.map(lam, s)))
    )

    # naturality: lambda o S(T f) = T(S f) o lambda for all f: X -> Y
    def natural(f, s):
        fn = lambda x: f[x]
        l = lam(S.map(lambda t: T.map(fn, t), s))
        r = T.map(lambda v: S.map(fn, v), lam(s))
        return {"f": f, "input": s, "lhs": l, "rhs": r} if l != r else None

    X = tuple(X)
    nb = b.shrink()
    frag = f"|X|={len(X)}, {b.max_word_len}/{b.max_set_size} bounds"
    sx = _enum(S.enumerate, X, b)
    tx = T.enumerate(X, b)
    ttx = _enum(T.enumerate, tx, nb, cap=8)
    sttx = _enum(S.enumerate, ttx, nb, cap=cap)
    stx = _enum(S.enumerate, tx, nb, cap=16)
    sstx = _enum(S.enumerate, stx, nb, cap=cap)
    small = X[: min(len(X), 2)]
    stx_small = _enum(S.enumerate, T.enumerate(small, nb), nb, cap=40)
    fs = [f for Y in (small[:1], small) for f in _functions(small, Y)]
    return [
        run_check("DL1", product(sx), dl1, frag),
        run_check("DL2", product(tx), dl2, frag),
        run_check("DL3", product(sttx), dl3, frag + " (shrunk for TT nesting)"),
        run_check("DL4", product(sstx), dl4, frag + " (shrunk for SS nesting)"),
        run_check(
            "NATURALITY",
            product(fs, stx_small),
            natural,
            f"functions on carriers <= {len(small)}",
        ),
    ]


def _functions(domain, codomain):
    domain, codomain = tuple(domain), tuple(codomain)
    for images in product(codomain, repeat=len(domain)):
        yield dict(zip(domain, images))


# ---------------------------------------------------------------------------
# composite monad

@dataclass(frozen=True)
class CompositeMonad:
    outer: MonadInstance  # T
    inner: QuotientMonad  # S
    law: QuotientLaw
    monad: MonadInstance = field(init=False)

    def __post_init__(self):
        # S's mu through the inner quotient's table
        T, S = self.outer, _replace(self.inner.monad, mult=self.inner.mult)
        monad = composite(T, S, self.law.apply, f"{T.name}({S.name})")
        object.__setattr__(self, "monad", monad)


def compose(T: MonadInstance, S: QuotientMonad, law: QuotientLaw) -> CompositeMonad:
    return CompositeMonad(T, S, law)


def verify_monoidal(T: MonadInstance, X, b: Bound) -> list:
    """Coherence of the Fubini transformation: MF.1-3, MM.1-2, SYM.

    MF.1 naturality in both components, MF.2 associativity up to the tuple
    re-association iso, MF.3 unit coherence, MM.1 unit square, MM.2
    multiplication square, SYM symmetry with the twist map.
    """
    T.require_outer()
    unit1 = T.unit(())

    def mf1(f, g, u, v):
        ff, gg = (lambda x: f[x]), (lambda x: g[x])
        lhs = T.fubini(T.map(ff, u), T.map(gg, v))
        rhs = T.map(lambda p: (ff(p[0]), gg(p[1])), T.fubini(u, v))
        return {"f": f, "g": g, "u": u, "v": v} if lhs != rhs else None

    def mf2(u, v, w):
        lhs = T.map(
            lambda p: (p[0][0], (p[0][1], p[1])), T.fubini(T.fubini(u, v), w)
        )
        rhs = T.fubini(u, T.fubini(v, w))
        if lhs != rhs:
            return {"u": u, "v": v, "w": w, "lhs": lhs, "rhs": rhs}
        return None

    def mf3(v):
        left = T.map(lambda p: p[1], T.fubini(unit1, v))
        right = T.map(lambda p: p[0], T.fubini(v, unit1))
        if left != v or right != v:
            return {"value": v, "left-unit": left, "right-unit": right}
        return None

    def mm1(x, y):
        if T.fubini(T.unit(x), T.unit(y)) != T.unit((x, y)):
            return {"x": x, "y": y}
        return None

    def mm2(uu, vv):
        lhs = T.fubini(T.mult(uu), T.mult(vv))
        rhs = T.mult(T.map(lambda p: T.fubini(p[0], p[1]), T.fubini(uu, vv)))
        return {"uu": uu, "vv": vv, "lhs": lhs, "rhs": rhs} if lhs != rhs else None

    def sym(u, v):
        if T.map(lambda p: (p[1], p[0]), T.fubini(u, v)) != T.fubini(v, u):
            return {"u": u, "v": v}
        return None

    X = tuple(X)
    nb = b.shrink()
    frag = f"|X|={len(X)}"
    tx = T.enumerate(X, b)
    small = X[: min(len(X), 2)]
    tsmall = T.enumerate(small, nb)
    fs = list(_functions(small, small))
    ttsmall = _enum(T.enumerate, tsmall, nb, cap=8)
    return [
        run_check("MF1", product(fs, fs, tsmall, tsmall), mf1, frag),
        run_check("MF2", product(tsmall, repeat=3), mf2, frag),
        run_check("MF3", product(tx), mf3, frag),
        run_check("MM1", product(X, repeat=2), mm1, frag),
        run_check("MM2", product(ttsmall, repeat=2), mm2, frag + " (nested, sampled)"),
        run_check("SYM", product(tx, repeat=2), sym, frag),
    ]


def verify_monad(M: MonadInstance, X, b: Bound) -> list:
    """Unit and associativity laws of a monad on the fragment of carrier `X`
    within `b`: exhaustive at level 1, sampled when nested."""

    def unit_laws(v):
        if M.mult(M.unit(v)) != v:
            return {"axiom": "mult o unit_M = id", "input": v}
        if M.mult(M.map(M.unit, v)) != v:
            return {"axiom": "mult o M(unit) = id", "input": v}
        return None

    def assoc(v):
        if M.mult(M.mult(v)) != M.mult(M.map(M.mult, v)):
            return {"axiom": "mult o mult_M = mult o M(mult)", "input": v}
        return None

    X = tuple(X)
    frag = f"|X|={len(X)}"
    mx = _enum(M.enumerate, X, b)
    # triple nesting explodes combinatorially: the number of values and
    # the size of each value.  Keep level-1 exhaustive; build the deeper
    # levels with flat bounds so individual values stay small.
    mmx = _enum(M.enumerate, _sample(mx, 8), b.flat_nested, cap=120)
    mmmx = _enum(M.enumerate, _sample(mmx, 8), b.flat_nested, cap=120)
    return [
        run_check("MONAD_UNIT", product(mx), unit_laws, frag),
        run_check("MONAD_ASSOC", product(mmmx), assoc, frag + " (shrunk nesting)"),
    ]
