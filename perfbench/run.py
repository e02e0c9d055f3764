"""Benchmark of the effectlayers workbench, end to end and layer by layer.

    python3 perfbench/run.py --workload {flagship,pairs,eval} --seed N \
        --seconds S --trace {0,1}

Run from the root of a checkout; the workbench is imported from `src/`.
One process without threads.  The run

1. repeats passes over the workload's fixed, seeded operations until
   `--seconds` have passed, checking every result against its known
   answer;
2. times SETUP_REPS set-ups, one before the first pass and one after each
   pass after that, each in a child process it waits for
   (setup_child.py): import `effectlayers`,
   parse `specs/probnetkat.layers` and build its check-only report
   (`effectlayers check`), which is checked against the paper's verdicts;
3. normalizes the end-to-end operation times for the machine's speed,
   sampled while the passes run (speed.py);
4. prints human-readable lines, then, as the last line, one JSON object
   with `correct`, `attempted`, `failed` and `metrics`: the end-to-end
   metrics with `--trace 0`, the per-layer metrics with `--trace 1`.

A traced run alternates untraced and traced passes, so it also measures
the tracing overhead.  See README.md for what each metric means.
"""

from __future__ import annotations

import argparse
from array import array
import gc
import json
import resource
import statistics
import subprocess
import sys
from collections import defaultdict
from pathlib import Path
from time import perf_counter

from speed import Speedometer
from tracer import ENUM_MONADS, CaseCounter, Tracer
from workloads import CHECK_BOUND, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SPEC = ROOT / "specs" / "probnetkat.layers"
SETUP_REPS = 7

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "latency_p50_ms": "ms",
    "latency_p99_ms": "ms",
    "peak_rss_mb": "MB",
    "cases_checked": "count",
}

PER_LAYER = {
    "enum.attempts": "count",
    "enum.refused": "count",
    "enum.refused_s": "s",
    "enum.ok_s": "s",
    "enum.values": "count",
    "enum.useful_ratio": "ratio",
    **{f"enum.{m}.{k}": "s" for m in ENUM_MONADS for k in ("refused_s", "ok_s")},
    "distlaw.refusal_s": "s",
    "distlaw.well_defined_s": "s",
    "distlaw.dl_s": "s",
    "distlaw.monad_laws_s": "s",
    "distlaw.lambda_calls": "count",
    "terms.axioms_s": "s",
    "terms.axiom_instances": "count",
    "normal_forms.closures_built": "count",
    "normal_forms.closure_s": "s",
    "values.constructed": "count",
    "values.canon_key_calls": "count",
    "preservation.profile_s": "s",
    "preservation.cascade_s": "s",
    "preservation.verdicts": "count",
    "preservation.falsified": "count",
    "pipeline.stage1_s": "s",
    "pipeline.stage2_s": "s",
    "pipeline.carrier_s": "s",
    "pipeline.eval_s": "s",
    "pipeline.self_s": "s",
    "pipeline.stacks_refused": "count",
    "specfile.parse_s": "s",
    "render.render_s": "s",
    "render.chars": "count",
    "reports.document_s": "s",
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
}


def setup_once():
    """Time one set-up in a fresh interpreter (see setup_child.py).

    Returns the child's seconds, the (start, end) of the child's life in
    this process's clock, and the child's problem or None.
    """
    t0 = perf_counter()
    out = subprocess.run(
        [sys.executable, str(HERE / "setup_child.py")],
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    result = json.loads(out.stdout.splitlines()[-1])
    return result["seconds"], (t0, perf_counter()), result["problem"]


def load_workbench():
    """Setup for the measured passes: the same import, spec and check-only report."""
    sys.path.insert(0, str(SRC))
    import effectlayers as el

    if not Path(el.__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"effectlayers was imported from {el.__file__}, not {SRC}")
    spec = el.parse_spec(SPEC.read_text(encoding="utf-8"))
    report = el.compose_stack(
        spec.layers, atoms=spec.atoms, bound=el.Bound(**CHECK_BOUND), build_laws=False
    )
    return el, (spec, report)


class Untraced:
    """The tracer interface, doing nothing."""

    def __init__(self):
        self.counts = defaultdict(int)

    def call(self, name, fn, *args, **kwargs):
        return fn(*args, **kwargs)


def run_pass(ops, counter, tracer=None):
    """One pass over `ops`: start and end of each operation (flat, in an
    array, so that many passes barely add to the peak RSS), case count,
    failures, per-layer metrics.

    A failure is (label, message, wrong) where `wrong` marks a wrong answer
    as opposed to an exception.
    """
    tr = tracer or Untraced()
    # every pass starts without the previous passes' garbage
    gc.collect()
    counter.install()
    if tracer:
        tracer.reset()
        tracer.install()
    spans, failures, checked = array("d"), [], 0
    try:
        for op in ops:
            t0 = perf_counter()
            try:
                result = op.run(tr)
            except Exception as exc:  # a failed operation is counted, not fatal
                spans.extend((t0, perf_counter()))
                failures.append((op.label, f"{type(exc).__name__}: {exc}", False))
                continue
            spans.extend((t0, perf_counter()))
            checked += 1
            problem = op.check(result)
            if problem:
                failures.append((op.label, f"wrong answer: {problem}", True))
    finally:
        if tracer:
            tracer.uninstall()
        counter.uninstall()
    layers = tracer.metrics() if tracer else None
    return spans, counter.cases + checked, failures, layers


def spans_of(flat):
    return zip(flat[::2], flat[1::2])


def percentile(values, q):
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # exception texts hold symbols such as ⊕; never fail on printing them
    sys.stdout.reconfigure(errors="backslashreplace")

    if args.workload not in WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")

    el, setup = load_workbench()
    ops, probes = WORKLOADS[args.workload](el, setup, args.seed)
    counter = CaseCounter(el)
    tracer = Tracer(el, counter) if args.trace else None

    # untraced passes only, or untraced and traced passes alternating
    passes = {False: [], True: []}
    with Speedometer() as speed:
        # set-ups are spread over the run, one after each pass, so that
        # their median is not taken in a single burst of a noisy machine
        setups = [setup_once()]
        start = perf_counter()
        while True:
            traced = bool(tracer) and len(passes[True]) < len(passes[False])
            passes[traced].append(run_pass(ops, counter, tracer if traced else None))
            if len(setups) < SETUP_REPS:
                setups.append(setup_once())
            done = perf_counter() - start >= args.seconds
            if done and (not tracer or passes[True]):
                break
        # before the probes, which are not measured operations
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        while len(setups) < SETUP_REPS:
            setups.append(setup_once())
    setup_s = statistics.median(s * speed.factor(*span) for s, span, _ in setups)
    # wrong answers outside the measured operations: set-up, probes, counts
    problems = [f"set-up: {p}" for *_, p in setups if p]

    refused = 0
    for probe in probes:
        for label, message, _ in run_pass([probe], counter)[2]:
            if message.startswith("LawRefusedError"):
                refused += 1
                print(f"probe {label}: {message}")
            else:
                problems.append(f"probe {label}: {message}")

    failures = [f for p in passes[False] + passes[True] for f in p[2]]
    attempted = sum(len(p[0]) // 2 for p in passes[False] + passes[True])
    walls = [sum(speed.raw(*span) for span in spans_of(p[0])) for p in passes[False]]
    # end-to-end times are corrected for the machine's speed (speed.py)
    latencies = [[speed.normalized(*span) for span in spans_of(p[0])] for p in passes[False]]
    cases = {p[1] for p in passes[False] + passes[True]}
    if len(cases) != 1:
        problems.append(f"case counts differ between passes: {sorted(cases)}")

    print(f"workload {args.workload}, seed {args.seed}: {len(ops)} operations per pass, "
          f"{len(passes[False])} untraced and {len(passes[True])} traced passes")
    print("untraced pass seconds: " + ", ".join(f"{w:.4g}" for w in walls))
    print("the same, normalized: " + ", ".join(f"{sum(x):.4g}" for x in latencies))
    for label, message, _ in failures[:10]:
        print(f"FAILED {label}: {message}")
    for p in problems:
        print(f"WRONG {p}")
    print(f"failed_share: {len(failures) / attempted:.6g} ({len(failures)} of {attempted})")

    if tracer:
        layer_runs = [p[3] for p in passes[True]]
        metrics = {}
        for name, unit in PER_LAYER.items():
            if unit == "s":
                value = statistics.median(m.get(name, 0.0) for m in layer_runs)
            else:
                value = layer_runs[0].get(name, 0)
            metrics[name] = value
        metrics["pipeline.stacks_refused"] = refused
        metrics["trace.wall_s"] = statistics.median(
            sum(speed.normalized(*span) for span in spans_of(p[0])) for p in passes[True]
        )
        untraced = statistics.median(sum(x) for x in latencies)
        metrics["trace.overhead_s"] = metrics["trace.wall_s"] - untraced
        units = PER_LAYER
        for name, unit in PER_LAYER.items():
            if unit != "s" and len({m.get(name, 0) for m in layer_runs}) != 1:
                print(f"note: {name} differs between traced passes")
    else:
        metrics = {
            "setup_s": setup_s,
            "wall_s": statistics.median(sum(x) for x in latencies),
            "latency_p50_ms": 1000 * statistics.median(x for p in latencies for x in p),
            "latency_p99_ms": 1000 * percentile([x for p in latencies for x in p], 99),
            "peak_rss_mb": peak_rss_mb,
            "cases_checked": min(cases),
        }
        units = END_TO_END
    for name, value in metrics.items():
        print(f"{name}: {value:.6g} {units[name]}")

    result = {
        "correct": not problems and not any(is_wrong for *_, is_wrong in failures),
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {n: {"value": v, "unit": units[n]} for n, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
