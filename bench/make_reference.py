"""Regenerate bench/reference.json: the upper bound of every sweep query the
seed grids can produce, as the program computes it.

    python3 bench/make_reference.py

Run it only when a change is meant to alter the bounds; the benchmark's
checks compare every sweep output with these values.
"""

import json
import sys
import tempfile
import time
from pathlib import Path

import run  # pins the BLAS threads before numpy loads

sys.path.insert(0, str(run.SRC))
import workloads  # noqa: E402


def main() -> int:
    upper = {}
    run.OUT_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.OUT_DIR) as tmp:
        out = Path(tmp) / "query.out"
        t0 = time.perf_counter()
        for query in workloads.reference_queries():
            if workloads.run_query(query, out) != 0:
                print(f"error: {query.key} failed", file=sys.stderr)
                return 1
            row = workloads.csv_rows(out.read_text())[0]
            if row["status"] != "optimal":
                print(f"error: {query.key} ended {row['status']}", file=sys.stderr)
                return 1
            upper[query.key] = float(row["upper"])
    payload = {
        "note": "upper bounds of the seed-grid sweep queries; see make_reference.py",
        "environment": run.environment("reference", 0, {}),
        "upper": upper,
    }
    workloads.REFERENCE_PATH.write_text(json.dumps(payload, indent=1) + "\n")
    print(f"{len(upper)} values in {time.perf_counter() - t0:.1f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
