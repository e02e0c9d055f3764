"""Layer tracing from outside the program.

The benchmark never edits the workbench's source.  Instead it replaces,
for the duration of a pass, the module attributes that `pipeline.py`
looks up when it calls into another layer (`pipeline.verify_distlaw`,
`pipeline._enum`, ...), plus the enumeration helper `distlaw._enum` used
by every law check and the well-definedness check's helpers, with
wrappers that record spans and counts.  The originals are put back
afterwards, so untraced passes run the workbench's own code.

Two levels exist:

* `CaseCounter` is installed on every pass, traced or not.  It counts
  the values enumerators hand to the law checks and the generated-axiom
  instances visited, which the end-to-end metric `cases_checked` needs.
  It adds one cheap wrapper call per enumeration and two per axiom
  instance.
* `Tracer` adds spans (name, start, end, parent) at each layer boundary
  and counters on hot value constructors; its per-layer metrics come
  from a separate traced pass.
"""

from __future__ import annotations

import itertools
import weakref
from collections import defaultdict
from dataclasses import replace
from time import perf_counter

# monads whose enumeration time is reported on its own; anything else is
# folded into the totals only
ENUM_MONADS = (
    "word",
    "powerset",
    "multiset",
    "distribution",
    "two-monoids",
    "generic",
    "composite",
)


class _Patches:
    """Attribute replacements that can be undone in reverse order."""

    def __init__(self):
        self._undo = []

    def set(self, obj, name, value):
        self._undo.append((obj, name, getattr(obj, name)))
        setattr(obj, name, value)

    def undo(self):
        while self._undo:
            obj, name, value = self._undo.pop()
            setattr(obj, name, value)


def _counting(en, add):
    """`en` that adds the number of values it returns; `__wrapped__` is `en`."""

    def counted(*args, **kwargs):
        vs = en(*args, **kwargs)
        add(len(vs))
        return vs

    counted.__wrapped__ = en
    return counted


class CaseCounter:
    """Counts what the law checks were handed: `cases` per installed pass.

    * every value an enumerator returns to a law check: through
      `distlaw._enum`, or called directly on the outer monad by the
      well-definedness check and `verify_distlaw`, plus the free terms the
      well-definedness check enumerates;
    * every generated-axiom instance `find_violation` visits, counted as
      its left-hand side is interpreted.
    """

    def __init__(self, el):
        self.el = el
        self.cases = 0
        self.axiom_instances = 0
        self.enum_hook = None  # set by Tracer to time single attempts
        self._patches = _Patches()

    def _add(self, n):
        self.cases += n

    def install(self):
        el, P = self.el, self._patches
        dl, terms = el.distlaw, el.terms
        self.cases = self.axiom_instances = 0
        orig_enum = dl._enum

        def _enum(en, *args, **kwargs):
            # a directly counted enumerator is counted here instead
            en = getattr(en, "__wrapped__", en)
            if self.enum_hook is not None:
                en = self.enum_hook(en)
            vs = orig_enum(en, *args, **kwargs)
            self._add(len(vs))
            return vs

        P.set(dl, "_enum", _enum)
        P.set(el.pipeline, "_enum", _enum)

        def counted_outer(check):
            def run(law, *args, **kwargs):
                outer = replace(law.outer, enumerate=_counting(law.outer.enumerate, self._add))
                return check(replace(law, outer=outer), *args, **kwargs)

            return run

        P.set(dl, "_well_defined_report", counted_outer(dl._well_defined_report))
        P.set(el.pipeline, "verify_distlaw", counted_outer(el.pipeline.verify_distlaw))
        orig_free = dl.free_term_monad

        def free_term_monad(sig):
            m = orig_free(sig)
            return replace(m, enumerate=_counting(m.enumerate, self._add))

        P.set(dl, "free_term_monad", free_term_monad)

        orig_find, orig_interp = el.pipeline.find_violation, terms.interpret_in_context

        def find_violation(algebra, e, *rest):
            def interpret_in_context(t, *args, **kwargs):
                if t is e.lhs:
                    self.cases += 1
                    self.axiom_instances += 1
                return orig_interp(t, *args, **kwargs)

            terms.interpret_in_context = interpret_in_context
            try:
                return orig_find(algebra, e, *rest)
            finally:
                terms.interpret_in_context = orig_interp

        P.set(el.pipeline, "find_violation", find_violation)

    def uninstall(self):
        self._patches.undo()


class Tracer:
    """Spans at layer boundaries plus counters, for one traced pass."""

    def __init__(self, el, counter: CaseCounter):
        self.el = el
        self.counter = counter
        self._patches = _Patches()
        self._enum_keys = weakref.WeakKeyDictionary()
        self.reset()

    # -- recording ---------------------------------------------------------

    def reset(self):
        self.spans = []  # [name, start, end, parent index or None]
        self._open = []
        self.counts = defaultdict(int)
        self.seconds = defaultdict(float)

    def wrap(self, name, fn, classify=None):
        """`fn` with a span; `classify(args, kwargs)` may rename the span."""
        spans, stack = self.spans, self._open

        def traced(*args, **kwargs):
            span = [
                classify(args, kwargs) if classify else name,
                perf_counter(),
                None,
                stack[-1] if stack else None,
            ]
            spans.append(span)
            stack.append(len(spans) - 1)
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()

        return traced

    def call(self, name, fn, *args, **kwargs):
        return self.wrap(name, fn)(*args, **kwargs)

    # -- installation ------------------------------------------------------

    def install(self):
        el, P = self.el, self._patches
        pl = el.pipeline

        def keyed_quotient(orig):
            def quotient_monad(*args, **kwargs):
                qm = orig(*args, **kwargs)
                key = "generic" if qm.kind == "GENERIC" else qm.monad.name
                self._enum_keys[qm.monad.enumerate] = key
                return qm

            return quotient_monad

        def keyed_compose(orig):
            def compose(*args, **kwargs):
                cm = orig(*args, **kwargs)
                self._enum_keys[cm.monad.enumerate] = "composite"
                return cm

            return compose

        def quotient_law_kind(args, kwargs):
            verdicts = kwargs.get("verdicts", args[4] if len(args) > 4 else None)
            if verdicts is not None and any(not v.preserved for v in verdicts):
                return "distlaw.refusal"
            return "distlaw.well_defined"

        P.set(pl, "quotient_monad",
              self.wrap("normal_forms.quotient_monad", keyed_quotient(pl.quotient_monad)))
        P.set(pl, "compose", self.wrap("distlaw.compose", keyed_compose(pl.compose)))
        P.set(pl, "profile_monad", self.wrap("preservation.profile", pl.profile_monad))
        P.set(pl, "check_preservation",
              self.wrap("preservation.cascade", self._count_verdicts(pl.check_preservation)))
        P.set(pl, "build_quotient_law",
              self.wrap("distlaw", pl.build_quotient_law, quotient_law_kind))
        P.set(pl, "verify_distlaw", self.wrap("distlaw.dl", pl.verify_distlaw))
        P.set(pl, "verify_monad", self.wrap("distlaw.monad_laws", pl.verify_monad))
        P.set(pl, "verify_generated_axioms", self.wrap("terms.axioms", pl.verify_generated_axioms))
        # installed over the case counter's _enum, so the carrier span
        # encloses the attempts it causes
        P.set(pl, "_enum", self.wrap("pipeline.carrier", pl._enum))
        P.set(el.normal_forms, "CongruenceClosure",
              self.wrap("normal_forms.closure", el.normal_forms.CongruenceClosure))
        self.counter.enum_hook = self._attempts

        counts = self.counts

        def counting(orig, key):
            def counted(*args, **kwargs):
                counts[key] += 1
                return orig(*args, **kwargs)

            return counted

        values = el.values
        ck = counting(values.canon_key, "values.canon_key_calls")
        P.set(values, "canon_key", ck)
        P.set(el.preservation, "canon_key", ck)
        P.set(values.MultiSet, "__init__",
              counting(values.MultiSet.__init__, "values.constructed"))
        P.set(values.Dist, "__init__", counting(values.Dist.__init__, "values.constructed"))
        P.set(el.distlaw.QuotientLaw, "apply",
              counting(el.distlaw.QuotientLaw.apply, "distlaw.lambda_calls"))

    def uninstall(self):
        self.counter.enum_hook = None
        self._patches.undo()

    def _count_verdicts(self, orig):
        falsified = self.el.preservation.FALSIFIED

        def check_preservation(*args, **kwargs):
            v = orig(*args, **kwargs)
            self.counts["preservation.verdicts"] += 1
            if v.status == falsified:
                self.counts["preservation.falsified"] += 1
            return v

        return check_preservation

    def _attempts(self, en):
        """Time each enumeration attempt `_enum` makes, refused or not."""
        key = self._enum_keys.get(en, "other")
        explosion = self.el.monads.BoundExplosionError
        counts, seconds = self.counts, self.seconds

        def attempt(carrier, bound):
            counts["enum.attempts"] += 1
            t0 = perf_counter()
            try:
                vs = en(carrier, bound)
            except explosion:
                dt = perf_counter() - t0
                counts["enum.refused"] += 1
                seconds["enum.refused_s"] += dt
                seconds[f"enum.{key}.refused_s"] += dt
                raise
            dt = perf_counter() - t0
            counts["enum.values"] += len(vs)
            seconds["enum.ok_s"] += dt
            seconds[f"enum.{key}.ok_s"] += dt
            return vs

        return attempt

    # -- per-pass metrics --------------------------------------------------

    def metrics(self) -> dict:
        """Per-layer totals of the spans and counts recorded since reset()."""
        out = defaultdict(float)
        child_s = defaultdict(float)
        for name, start, end, parent in self.spans:
            out[name + "_s"] += end - start
            if parent is not None:
                child_s[parent] += end - start
        for i, (name, start, end, _) in enumerate(self.spans):
            if name == "pipeline.compose_stack":
                out["pipeline.self_s"] += end - start - child_s[i]
                self._stage_times(i, start, end, out)
        out["normal_forms.closures_built"] = sum(
            1 for span in self.spans if span[0] == "normal_forms.closure"
        )
        out["terms.axiom_instances"] = self.counter.axiom_instances
        for name, n in self.counts.items():
            out[name] = n
        out.update(self.seconds)
        attempts = self.counts.get("enum.attempts", 0)
        refused = self.counts.get("enum.refused", 0)
        out["enum.useful_ratio"] = (attempts - refused) / attempts if attempts else 1.0
        return out

    def _stage_times(self, compose_index, start, end, out):
        """Stage k runs from the k-th profile_monad call to the next one."""
        starts = [
            s for name, s, _, parent in self.spans
            if name == "preservation.profile" and parent == compose_index
        ]
        bounds = [start] + starts[1:] + [end]
        for k, (a, b) in enumerate(itertools.pairwise(bounds), start=1):
            out[f"pipeline.stage{k}_s"] += b - a
