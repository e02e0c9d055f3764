"""One set-up of the workbench in a fresh interpreter, as a user pays it.

    python3 perfbench/setup_child.py

Times importing `effectlayers` from `src/`, parsing
`specs/probnetkat.layers` and building and rendering its check-only
report (what `effectlayers check` does), then checks the report against
the paper's verdicts.  Prints one JSON object: {"seconds": ..., "problem": ...}.
"""

import json
import sys
from pathlib import Path
from time import perf_counter

from workloads import CHECK_BOUND, check_stage_drops

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

t0 = perf_counter()
import effectlayers as el  # noqa: E402

spec = el.parse_spec((ROOT / "specs" / "probnetkat.layers").read_text(encoding="utf-8"))
report = el.compose_stack(
    spec.layers, atoms=spec.atoms, bound=el.Bound(**CHECK_BOUND), build_laws=False
)
document = el.check_document(report)
document.to_text()
seconds = perf_counter() - t0

problem = check_stage_drops(report)
if not Path(el.__file__).resolve().is_relative_to(ROOT / "src"):
    problem = f"effectlayers was imported from {el.__file__}"
elif problem is None and document.data["exit_code"] != 1:
    problem = f"check exit code {document.data['exit_code']}, expected 1"
print(json.dumps({"seconds": seconds, "problem": problem}))
