"""Self-test of the benchmark itself.

    python3 perfbench/selftest.py

1. The stage-0/1 oracle gives hand-computed meanings.
2. For every workload, two untraced and two traced one-second runs with
   seed SEED are correct, and every count metric (cases_checked and
   the per-layer counts) is identical between the two runs.

Exits 0 when everything holds.  Takes a few minutes.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

from workloads import WORKLOADS, oracle

HERE = Path(__file__).resolve().parent
COUNT_UNITS = ("count", "ratio")
SEED = 1

ORACLE_CASES = (
    (0, "((a ; skip) ; b)", ("a", "b")),
    (0, "skip", ()),
    (1, "((a + b) ; (c + abort))", frozenset({("a", "c"), ("b", "c")})),
    (1, "(skip + (a ; abort))", frozenset({()})),
    (1, "((a + skip) ; (a + skip))", frozenset({(), ("a",), ("a", "a")})),
)


def run(workload, seed, trace):
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace)],
        capture_output=True, text=True, timeout=600, check=True, cwd=HERE.parent,
    )
    return json.loads(out.stdout.splitlines()[-1])


def counts(result):
    return {
        name: m["value"]
        for name, m in result["metrics"].items()
        if m["unit"] in COUNT_UNITS
    }


def main():
    problems = []
    for stage, text, expected in ORACLE_CASES:
        got = oracle(text, stage, ("a", "b", "c"))
        if got != expected:
            problems.append(f"oracle({text!r}) = {got!r}, expected {expected!r}")

    for workload in WORKLOADS:
        for trace in (0, 1):
            first, second = (run(workload, SEED, trace) for _ in range(2))
            for r in (first, second):
                if not r["correct"]:
                    problems.append(f"{workload} --trace {trace}: not correct")
            a, b = counts(first), counts(second)
            differing = sorted(n for n in a if a[n] != b.get(n))
            print(f"{workload} --trace {trace}: {len(a)} count metrics, "
                  f"{len(differing)} differ")
            problems += [f"{workload}: {n} = {a[n]} then {b.get(n)}" for n in differing]

    for p in problems:
        print(f"FAIL {p}")
    print("self-test " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
