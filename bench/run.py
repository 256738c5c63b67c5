"""dpskit benchmark harness.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload as a closed loop (one client, one process, one query at a
time) from the root of a source checkout: it imports ``dpskit`` from
``src/``, builds the seeded query list, and repeats full passes over it for
about ``--seconds`` seconds.  Every query's output file is checked; the last
line of standard output is the JSON result.  ``--trace 0`` reports the
end-to-end metrics of BENCHMARK.json; ``--trace 1`` alternates untraced and
traced passes and reports the per-layer metrics, writing the spans to
``bench/out/``.
"""

import os

# One BLAS thread, set before numpy loads; every result records why.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
BLAS_PIN_REASON = (
    "OpenBLAS default threading (2 threads, 2 cores) made one pass take 2.1-3.3 s "
    "against 0.82-1.09 s with 1 thread (~5% spread within a process); BB84 PPT N=3 "
    "went from 1.56 s to 0.80 s"
)
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

import tracing  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
OUT_DIR = Path(__file__).resolve().parent / "out"
WORKLOADS = ("ppt_fidelity", "sym_sweep", "certify", "bounds_table")
SETUP_SAMPLES = 3
PROBE_TIMEOUT_S = 120

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
UNITS = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]}


class HarnessError(Exception):
    """The benchmark cannot run here (no program to measure)."""


def set_up(workload: str, seed: int, work: Path):
    """Import dpskit, build the seeded inputs, run the warm-up query.

    Returns (seconds, workloads module, queries, parameters).
    """
    t0 = time.perf_counter()
    if not (SRC / "dpskit" / "__init__.py").is_file():
        raise HarnessError(f"no dpskit sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import dpskit

    if not Path(dpskit.__file__).resolve().is_relative_to(SRC):
        raise HarnessError(f"dpskit imported from {dpskit.__file__}, not {SRC}")
    import workloads

    queries, params = workloads.build(workload, seed, work)
    code = workloads.run_query(queries[0], work / "warmup.out")
    if code != 0:
        raise HarnessError(f"warm-up query {queries[0].key} exited with {code}")
    return time.perf_counter() - t0, workloads, queries, params


def probe_setup(workload: str, seed: int) -> list:
    """Set-up time of fresh interpreters, each importing dpskit from scratch."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
             "--seed", str(seed), "--probe-setup"],
            capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, cwd=ROOT,
        )
        if proc.returncode != 0:
            raise HarnessError(f"set-up probe failed: {proc.stderr.strip()}")
        samples.append(float(proc.stdout.strip().splitlines()[-1]))
    return samples


@dataclass
class Pass:
    wall: float
    query_s: list  # seconds per query, in query-list order
    tracer: tracing.Tracer | None


def run_pass(workloads, queries, reference, work: Path, tracer=None):
    """One pass over the query list; returns (Pass, failure reasons)."""
    checker = workloads.Checker(reference)
    query_s, failures = [], []
    out = work / "query.out"
    t0 = time.perf_counter()
    for i, query in enumerate(queries):
        if tracer is not None:
            tracer.query = i
        q0 = time.perf_counter()
        try:
            code = workloads.run_query(query, out)
            query_s.append(time.perf_counter() - q0)
            reason = f"exit code {code}" if code != 0 else checker.check(query, out.read_text())
        except Exception as exc:  # a failed query is counted, not fatal
            query_s.append(time.perf_counter() - q0)
            reason = f"{type(exc).__name__}: {exc}"
        if reason is not None:
            failures.append(f"{query.key}: {reason}")
    return Pass(time.perf_counter() - t0, query_s, tracer), failures


def measure(workloads, queries, seconds: float, traced: bool, work: Path):
    """Repeat passes until about ``seconds`` have gone.

    A new pass starts only if, at the median pass time so far, it would end
    less than half a pass after the deadline.  With tracing, untraced and
    traced passes alternate and both kinds run at least once.
    """
    reference = workloads.load_reference()
    passes, failures = [], []
    start = time.perf_counter()
    while True:
        tracer = None
        if traced and len(passes) % 2 == 1:
            tracer = tracing.Tracer()
            tracer.install()
        try:
            record, fails = run_pass(workloads, queries, reference, work, tracer)
        finally:
            if tracer is not None:
                tracer.remove()
        passes.append(record)
        failures += fails
        median_pass = statistics.median(p.wall for p in passes)
        enough = len(passes) >= (2 if traced else 1)
        if enough and time.perf_counter() - start + median_pass / 2 >= seconds:
            break
    return passes, len(passes) * len(queries), failures


def typical(passes) -> list:
    """Each query's median time over the passes.

    The measuring host is shared, and contention slows it for seconds to
    minutes at a time.  With the 5-7 repeats a query gets in one run, the
    fastest repeat is an extreme value and wanders with the contention.
    Over 40 sym_sweep passes (2 cores) cut into ten 25-s windows, the
    quartile spread across windows was 0.238 for the sum of per-query
    minima and 0.183 for their median, against 0.087 and 0.080 for the sum
    and median of per-query medians.
    """
    return [statistics.median(ts) for ts in zip(*(p.query_s for p in passes))]


def per_layer(passes) -> dict:
    """Medians over traced passes; counts must repeat exactly between them."""
    traced = [p for p in passes if p.tracer is not None]
    plain = [p for p in passes if p.tracer is None]
    per_pass = [tracing.layer_metrics(p.tracer) for p in traced]
    out = {name: statistics.median(m[name] for m in per_pass) for name in per_pass[0]}
    unsteady = [n for n in out
                if UNITS[n] == "count" and len({m[n] for m in per_pass}) > 1]
    if unsteady:
        print(f"warning: counts differ between traced passes: {unsteady}", file=sys.stderr)
    out["trace.overhead_frac"] = sum(typical(traced)) / sum(typical(plain)) - 1.0
    return out


def environment(workload: str, seed: int, params: dict) -> dict:
    import numpy
    import scipy

    blas = numpy.__config__.CONFIG["Build Dependencies"]["blas"]
    return {
        "workload": workload,
        "seed": seed,
        "params": params,
        "blas_threads": {v: os.environ[v] for v in BLAS_THREAD_VARS},
        "blas_pin_reason": BLAS_PIN_REASON,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "commit": _commit(),
    }


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _commit() -> str:
    """HEAD of the checkout when it is a git work tree, read without git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown (not a git checkout)"


def write_trace(workload: str, seed: int, env: dict, passes, queries):
    path = OUT_DIR / f"trace-{workload}-seed{seed}.json"
    payload = {
        "environment": env,
        "queries": [q.key for q in queries],
        "span_fields": ["id", "parent", "query", "layer", "name", "start", "end"],
        "passes": [{
            "wall_s": p.wall,
            "spans": [[s.id, s.parent, s.query, s.layer, s.name, s.start, s.end]
                      for s in p.tracer.spans],
            "query_m": tracing.query_sizes(p.tracer),
        } for p in passes if p.tracer is not None],
    }
    path.write_text(json.dumps(payload))
    return path


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    OUT_DIR.mkdir(exist_ok=True)
    try:
        with tempfile.TemporaryDirectory(dir=OUT_DIR) as tmp:
            work = Path(tmp)
            if args.probe_setup:
                print(repr(set_up(args.workload, args.seed, work)[0]))
                return 0
            setup_samples = [] if args.trace else probe_setup(args.workload, args.seed)
            _, workloads, queries, params = set_up(args.workload, args.seed, work)
            passes, attempted, failures = measure(
                workloads, queries, args.seconds, bool(args.trace), work)
    except HarnessError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    env = environment(args.workload, args.seed, params)
    print("environment " + json.dumps(env))
    if args.trace:
        metrics = per_layer(passes)
        kind = "per_layer"
        path = write_trace(args.workload, args.seed, env, passes, queries)
        sizes = tracing.query_sizes(passes[1].tracer)
        print(f"trace {path.relative_to(ROOT)}")
        print("equality rows m per query: "
              + ", ".join(f"{queries[q].key}: {m}" for q, m in sorted(sizes.items())))
    else:
        per_query = typical(passes)
        metrics = {
            "setup_s": statistics.median(setup_samples),
            "pass_s": sum(per_query),
            "query_s.p50": statistics.median(per_query),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        kind = "end_to_end"
        print(f"{len(passes)} passes of {len(queries)} queries, wall s "
              f"{[round(p.wall, 3) for p in passes]}; pass_s and query_s.p50 from each "
              f"query's median of {len(passes)}; setup_s median of "
              f"{[round(t, 3) for t in setup_samples]}")
    # exactly the metrics BENCHMARK.json lists, in its order
    metrics = {m["name"]: metrics[m["name"]] for m in BENCHMARK[kind]}
    for name, value in metrics.items():
        print(f"{name:30s} {value:14.6g} {UNITS[name]}")
    print(f"{'fail_frac':30s} {len(failures) / attempted:14.6g} frac "
          f"({len(failures)} of {attempted} queries)")
    for reason in failures[:20]:
        print(f"failed: {reason}", file=sys.stderr)
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": UNITS[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
