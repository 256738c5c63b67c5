"""Command-line front end: JSON problem ingestion, CSV/JSON emission.

Commands: membership, bounds, fidelity, purity, geometric, certify,
complexity.  Exit codes: 0 success, 2 input error, 3 resource/budget
(an SDP whose predicted peak exceeds ``extensions.PEAK_BYTES``, or running
out of memory while compiling or solving),
4 solver breakdown or linear-algebra failure.  All outputs are
deterministic given the inputs and tolerances, apart from the wall_time_s
column.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from . import applications as apps
from .bounds import MAX_REQUIRED_N, bound_report, complexity_estimate
from .certify import certify
from .extensions import BudgetExceeded, ExtensionQuery, check_membership
from .operators import (
    HermitianOperator,
    complex_from_json,
    operator_from_dict,
    operator_from_json,
    pure_state,
)
from .solver import SolverBreakdown

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_BUDGET = 3
EXIT_SOLVER = 4

# exact pure states carry zero eigenvalues; rounding leaves them near -1e-16
STATE_PSD_TOL = 1e-9


class _InputError(Exception):
    pass


def _check_args(args):
    """Validate the parsed options that a command shares with others, in
    place: ``args.N`` becomes its list of values."""
    if getattr(args, "N", None) is not None:
        args.N = _parse_range(args.N)
    tol = getattr(args, "tol", None)
    if tol is not None and not tol > 0.0:
        raise _InputError(f"--tol must be positive, got {tol}")
    if args.jobs < 1:
        raise _InputError(f"--jobs must be >= 1, got {args.jobs}")
    max_iter = getattr(args, "max_iter", None)
    if max_iter is not None and max_iter < 1:
        raise _InputError(f"--max-iter must be >= 1, got {max_iter}")
    delta = getattr(args, "delta", None)
    if delta is not None and not 0.0 < delta < 2.0:
        raise _InputError(f"delta {delta} outside (0, 2)")


def _parse_range(text: str) -> list[int]:
    """"2..4" -> [2, 3, 4]; "3" -> [3]; "1,4,6" -> [1, 4, 6]; every N in
    1..MAX_REQUIRED_N, checked before a range's list is built."""
    text = text.strip()
    try:
        if ".." in text:
            lo, hi = (int(t) for t in text.split(".."))
            values = None
        else:
            values = [int(t) for t in text.split(",")]
            lo, hi = min(values), max(values)
    except ValueError as exc:
        raise _InputError(f"cannot parse N range {text!r}") from exc
    if not 1 <= lo <= hi <= MAX_REQUIRED_N:
        raise _InputError(f"N range {text!r} must be nonempty, with every N in 1..{MAX_REQUIRED_N}")
    return list(range(lo, hi + 1)) if values is None else values


def _read_json(path: str, parse, what: str = ""):
    """parse(file text), with read and format errors as input errors."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return parse(fh.read())
    except OSError as exc:
        raise _InputError(f"cannot read {path}: {exc}") from exc
    except (KeyError, TypeError, ValueError) as exc:
        raise _InputError(f"{path}: {what}{exc}") from exc


def _read_operator(path: str) -> HermitianOperator:
    return _read_json(path, operator_from_json)


def _read_state(path: str, command: str) -> HermitianOperator:
    """A density operator on two or more factors, each after A of dimension
    at least 2: unit trace and positive semidefinite."""
    rho = _read_operator(path)
    if rho.nfactors < 2:
        raise _InputError(f"{command} input needs at least two factors (A, B, ...)")
    if min(rho.factor_dims[1:]) < 2:
        raise _InputError(
            f"{command} input factors after A need dimension >= 2, "
            f"got {list(rho.factor_dims)}"
        )
    if abs(rho.trace() - 1.0) > 1e-8:
        raise _InputError(f"{command} input must be a unit-trace state")
    lam = float(np.linalg.eigvalsh(rho.entries)[0])
    if lam < -STATE_PSD_TOL:
        raise _InputError(
            f"{command} input must be positive semidefinite "
            f"(min eigenvalue {lam:.3g})"
        )
    return rho


def _generate(make, *params):
    """Call an input generator, check or estimate, its ValueError on the
    parameters as an input error."""
    try:
        return make(*params)
    except ValueError as exc:
        raise _InputError(str(exc)) from exc


def _check_dims(args):
    if args.dA < 1 or args.dB < 2:
        raise _InputError(f"need dA >= 1 and dB >= 2, got dA={args.dA}, dB={args.dB}")


def _read_state_vector(path: str) -> HermitianOperator:
    def parse(text):
        dims, vec = complex_from_json(json.loads(text))
        return pure_state(vec.ravel(), dims)

    return _read_json(path, parse, "malformed state vector: ")


def _read_ensemble(path: str) -> apps.EstimationProblem:
    """The ensemble file's problem: a file that does not parse is malformed,
    one whose entries break a rule of ``EstimationProblem`` is invalid."""
    def parse(text):
        return tuple(
            (float(item["p"]), operator_from_dict(item["encoded"]),
             operator_from_dict(item["source"]))
            for item in json.loads(text)["ensemble"]
        )

    entries = _read_json(path, parse, "malformed ensemble: ")
    try:
        return apps.EstimationProblem(entries)
    except ValueError as exc:
        raise _InputError(f"{path}: invalid ensemble: {exc}") from exc


def _emit(text: str, out_path: str | None):
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _fmt(x: float) -> str:
    return f"{x:.10g}"


def _sweep_rows(points, worker, jobs: int):
    """Run bound computations (possibly in parallel), keep input order."""
    if jobs <= 1:
        return [worker(pt) for pt in points]
    with ThreadPoolExecutor(max_workers=jobs) as pool:
        return list(pool.map(worker, points))


def _bound_sweep_command(args, bounds, subject):
    """One CSV row per (N, PPT) point: bounds(subject, N, ppt) at the
    command's tolerance and iteration cap."""
    ppt_values = [False, True] if args.ppt == "both" else [args.ppt == "true"]
    points = [(n, ppt) for n in args.N for ppt in ppt_values]

    def worker(point):
        n, ppt = point
        t0 = time.perf_counter()
        try:
            pair = bounds(subject, n, ppt, tol=args.tol, max_iter=args.max_iter)
            wall = time.perf_counter() - t0
            return (n, ppt, _fmt(pair.upper), _fmt(pair.lower), pair.status, wall)
        except BudgetExceeded as exc:
            print(f"error: {exc}", file=sys.stderr)
            return (n, ppt, "", "", "budget_exceeded", time.perf_counter() - t0)

    rows = _sweep_rows(points, worker, args.jobs)
    lines = ["N,ppt,upper,lower,status,wall_time_s"]
    for n, ppt, upper, lower, status, wall in rows:
        lines.append(f"{n},{str(ppt).lower()},{upper},{lower},{status},{wall:.3f}")
    _emit("\n".join(lines) + "\n", args.out)
    return EXIT_BUDGET if any(row[4] == "budget_exceeded" for row in rows) else EXIT_OK


def cmd_membership(args) -> int:
    rho = _read_state(args.input, "membership")
    verdicts = {}
    for n in args.N:
        try:
            res = check_membership(
                ExtensionQuery(rho=rho, N=n, ppt=args.ppt),
                tol=args.tol,
                max_iter=args.max_iter,
            )
            verdicts[str(n)] = res.verdict
        except BudgetExceeded as exc:
            print(f"error: {exc}", file=sys.stderr)
            verdicts[str(n)] = "budget_exceeded"
    _emit(json.dumps(verdicts, sort_keys=True) + "\n", args.out)
    return EXIT_BUDGET if "budget_exceeded" in verdicts.values() else EXIT_OK


def cmd_bounds(args) -> int:
    _check_dims(args)
    header = "dA,dB,N,gN,pc_sym,pc_ppt,R_sym,R_ppt,dtr_sym,dtr_ppt"
    delta_cols = args.delta is not None
    if delta_cols:
        header += (
            ",reqN_sym,reqN_ppt,log10_ops_sym,log10_ops_ppt"
            ",log10_simpl_sym,log10_simpl_ppt"
        )
        n_sym, n_ppt, *ops = _generate(complexity_estimate, args.dA, args.dB, args.delta)
        delta_tail = ",".join([str(n_sym), str(n_ppt)] + [_fmt(v) for v in ops])
    lines = [header]
    for n in args.N:
        r = _generate(bound_report, args.dA, args.dB, n)
        values = (r.g_N, r.p_c_sym, r.p_c_ppt, r.robustness_sym, r.robustness_ppt,
                  r.dist_trace_sym, r.dist_trace_ppt)
        row = ",".join([str(args.dA), str(args.dB), str(n)] + [_fmt(v) for v in values])
        if delta_cols:
            row += "," + delta_tail
        lines.append(row)
    _emit("\n".join(lines) + "\n", args.out)
    return EXIT_OK


def cmd_fidelity(args) -> int:
    if args.bb84 is not None:
        problem = _generate(apps.bb84_two_copy_problem, args.bb84)
    elif args.qutrit_grid is not None:
        problem = _generate(apps.qutrit_grid_problem, args.qutrit_grid)
    else:
        problem = _read_ensemble(args.input)
    return _bound_sweep_command(args, apps.fidelity_bounds, problem)


def cmd_purity(args) -> int:
    if args.channel == "identity-qubit":
        choi = apps.identity_choi(2)
    elif args.channel == "depolarizing-qubit":
        choi = _generate(apps.depolarizing_choi, 2, 0.0 if args.p is None else args.p)
    else:
        choi = _generate(apps.check_choi, _read_operator(args.choi))
    return _bound_sweep_command(args, apps.output_purity_bounds, choi)


def cmd_geometric(args) -> int:
    if args.state == "ghz":
        psi = apps.ghz_state()
    elif args.state == "w":
        psi = apps.w_state()
    else:
        psi = _generate(apps.check_tripartite_pure, _read_state_vector(args.input))
    return _bound_sweep_command(args, apps.geometric_entanglement_bounds, psi)


def cmd_certify(args) -> int:
    if args.maxN < 2:
        raise _InputError(f"--maxN must be >= 2, got {args.maxN}")
    rho = _read_state(args.input, "certify")
    if rho.nfactors != 2:
        raise _InputError(f"certify input needs exactly two factors, got {rho.nfactors}")
    result = certify(rho, maxN=args.maxN)
    _emit(result.to_json() + "\n", args.out)
    return EXIT_OK


def cmd_complexity(args) -> int:
    if args.delta is None:
        raise _InputError("complexity requires --delta")
    _check_dims(args)
    n_sym, n_ppt, sym_ops, ppt_ops, sym_s, ppt_s = _generate(
        complexity_estimate, args.dA, args.dB, args.delta
    )
    payload = {
        "dA": args.dA, "dB": args.dB, "delta": args.delta,
        "required_N_sym": n_sym, "required_N_ppt": n_ppt,
        "log10_ops_sym": sym_ops, "log10_ops_ppt": ppt_ops,
        "log10_simplified_sym": sym_s, "log10_simplified_ppt": ppt_s,
    }
    _emit(json.dumps(payload, sort_keys=True) + "\n", args.out)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dpskit",
        description="Symmetric-extension hierarchy tests, bounds, and sweeps",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, needs_n=True, solves=False):
        # --out and --jobs on every command, even where --jobs has no sweep to
        # spread: bench/workloads.py passes "--jobs 1 --out FILE" to every query
        p.add_argument("--out", default=None, help="output path (default stdout)")
        p.add_argument("--jobs", type=int, default=1)
        if solves:
            p.add_argument("--tol", type=float, default=1e-8)
            p.add_argument("--max-iter", dest="max_iter", type=int, default=200)
        if needs_n:
            p.add_argument("--N", default="2", help="a value, range 2..4, or list 2,3")

    p = sub.add_parser("membership", help="(PPT) Bose symmetric extension tests")
    common(p, solves=True)
    p.add_argument("--input", required=True, help="operator JSON file")
    p.add_argument("--ppt", action="store_true")
    p.set_defaults(func=cmd_membership)

    p = sub.add_parser("bounds", help="closed-form bound table")
    common(p)
    p.add_argument("--dA", type=int, default=2)
    p.add_argument("--dB", type=int, default=2)
    p.add_argument("--delta", type=float, default=None)
    p.set_defaults(func=cmd_bounds)

    for name, fn in (("fidelity", cmd_fidelity), ("purity", cmd_purity),
                     ("geometric", cmd_geometric)):
        p = sub.add_parser(name, help=f"{name} bound sweep")
        common(p, solves=True)
        p.add_argument("--ppt", choices=["both", "true", "false"], default="both")
        source = p.add_mutually_exclusive_group(required=True)
        if name == "fidelity":
            source.add_argument("--bb84", type=float,
                                help="two-copy BB84 generator with this epsilon")
            source.add_argument("--qutrit-grid", dest="qutrit_grid", type=float,
                                help="36-state qutrit generator")
            source.add_argument("--input", help="ensemble JSON file")
        elif name == "purity":
            source.add_argument("--channel", choices=["identity-qubit", "depolarizing-qubit"])
            source.add_argument("--choi", help="Choi operator JSON file")
            p.add_argument("--p", type=float, default=None,
                           help="depolarizing probability (default 0), with "
                           "--channel depolarizing-qubit only")
        else:
            source.add_argument("--state", choices=["ghz", "w"])
            source.add_argument("--input", help="pure-state JSON file")
        p.set_defaults(func=fn)

    p = sub.add_parser("certify", help="separability certification: witness, "
                       "disentangling preimage or rank loop")
    common(p, needs_n=False)
    p.add_argument("--input", required=True)
    p.add_argument("--maxN", type=int, default=4)
    p.set_defaults(func=cmd_certify)

    p = sub.add_parser("complexity", help="required N and operation-count estimates")
    common(p, needs_n=False)
    p.add_argument("--dA", type=int, default=2)
    p.add_argument("--dB", type=int, default=2)
    p.add_argument("--delta", type=float, required=True)
    p.set_defaults(func=cmd_complexity)

    return parser


# built by the first ``main`` call; parse_args leaves it unchanged
_parser = None


def main(argv=None) -> int:
    global _parser
    if _parser is None:
        _parser = build_parser()
    args = _parser.parse_args(argv)
    if getattr(args, "p", None) is not None and args.channel != "depolarizing-qubit":
        _parser.error("argument --p: only --channel depolarizing-qubit reads it")
    try:
        _check_args(args)
        return args.func(args)
    except _InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except BudgetExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except (SolverBreakdown, np.linalg.LinAlgError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SOLVER


if __name__ == "__main__":
    sys.exit(main())
