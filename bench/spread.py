"""Run-to-run spread of the end-to-end metrics, one seed per run.

    python3 bench/spread.py [--workloads ppt_fidelity,certify] [--runs 10]
                            [--first-seed 1] [--out bench/baseline.json]

For each workload, runs ``bench/run.py`` once per seed and reports each
end-to-end metric's median, quartiles (``statistics.quantiles(n=4)``) and
spread, (Q3 - Q1) / median, against a third of the metric's bound in
BENCHMARK.json.  With ``--out`` it also makes one traced run per workload
and writes everything, with every run's raw values, as JSON.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
RUN_TIMEOUT_S = 180


def run_once(workload: str, seed: int, trace: int) -> dict:
    t0 = time.perf_counter()
    proc = subprocess.run(
        BENCHMARK["command"] + ["--workload", workload, "--seed", str(seed),
                                "--seconds", str(BENCHMARK["run_seconds"]),
                                "--trace", str(trace)],
        capture_output=True, text=True, timeout=RUN_TIMEOUT_S, cwd=ROOT,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    env = next(json.loads(line[len("environment "):]) for line in lines
               if line.startswith("environment "))
    return {"seed": seed, "wall_s": time.perf_counter() - t0, "result": result,
            "environment": env}


def summarize(values: list, bound: float) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    spread = (q3 - q1) / med
    return {"median": med, "q1": q1, "q3": q3, "spread": spread,
            "bound": bound, "steady": spread < bound / 3}


def main() -> int:
    names = [w["name"] for w in BENCHMARK["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", default=",".join(names))
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--out", default=None)
    args = parser.parse_args()

    report = {"run_seconds": BENCHMARK["run_seconds"], "workloads": {}}
    all_steady = True
    for workload in args.workloads.split(","):
        runs = [run_once(workload, seed, 0)
                for seed in range(args.first_seed, args.first_seed + args.runs)]
        if not all(r["result"]["correct"] for r in runs):
            print(f"{workload}: incorrect output in some run", file=sys.stderr)
            all_steady = False
        entry = {"runs": runs, "metrics": {}}
        print(f"{workload:13s} {len(runs)} runs took "
              f"{[round(r['wall_s'], 1) for r in runs]} s", flush=True)
        for metric in BENCHMARK["end_to_end"]:
            name = metric["name"]
            values = [r["result"]["metrics"][name]["value"] for r in runs]
            stats = summarize(values, metric["bound"])
            entry["metrics"][name] = stats
            if name != "setup_s":
                all_steady &= stats["steady"]
            print(f"{workload:13s} {name:12s} median {stats['median']:10.4g} "
                  f"{metric['unit']:4s} spread {stats['spread']:6.3f} "
                  f"(bound/3 {metric['bound'] / 3:.3f}) {'ok' if stats['steady'] else 'WIDE'} "
                  f"{[round(v, 4) for v in values]}",
                  flush=True)
        if args.out:
            entry["traced"] = run_once(workload, args.first_seed, 1)
        report["workloads"][workload] = entry
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
    return 0 if all_steady else 1


if __name__ == "__main__":
    sys.exit(main())
