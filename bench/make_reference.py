"""Regenerate bench/reference.json, the stored values the gates compare to.

    python3 bench/make_reference.py

Run it only when a change is meant to alter the package's numbers, and
say so with the change: the gates exist to catch unintended changes.
The size-study reference is a large independent run (40,000 replicates
per n, about half a minute), so the run-time gate can allow for the
sampling error of both sides.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))

import workloads  # noqa: E402
from gradcorr import simulate  # noqa: E402

REFERENCE_REPLICATES = 40_000


def _dump(value, indent="") -> str:
    """JSON with one line per innermost list or record."""
    inner = indent + " "
    if isinstance(value, dict) and any(isinstance(v, (dict, list))
                                       and len(json.dumps(v)) > 60
                                       for v in value.values()):
        items = [f"{inner}{json.dumps(k)}: {_dump(v, inner)}"
                 for k, v in value.items()]
        return "{\n" + ",\n".join(items) + "\n" + indent + "}"
    if isinstance(value, list) and value and isinstance(value[0],
                                                        (dict, list)):
        items = [inner + _dump(v, inner) for v in value]
        return "[\n" + ",\n".join(items) + "\n" + indent + "]"
    return json.dumps(value)


def main() -> int:
    seed = workloads.REFERENCE_SEED
    with tempfile.TemporaryDirectory(prefix=".bench-",
                                     dir=BENCH.parent) as tmp:
        tmp = Path(tmp)
        size = simulate.run_size_study(
            workloads.McSize.study_config(seed, REFERENCE_REPLICATES))
        reference = {
            "mc-bs-size": {
                "seed": seed, "replicates": REFERENCE_REPLICATES,
                "rows": [[r.n, r.alpha, r.procedure, r.rejections,
                          r.replicates] for r in size.rows]},
            "single-test": workloads.SingleTest(seed, tmp).reference_values(),
            "coeff-general":
                workloads.CoeffGeneral(seed, tmp).reference_values(),
        }
    workloads.REFERENCE_PATH.write_text(_dump(reference) + "\n")
    print(f"wrote {workloads.REFERENCE_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
