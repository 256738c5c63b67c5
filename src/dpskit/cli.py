"""Command-line front end: JSON problem ingestion, CSV/JSON emission.

Commands: membership, bounds, fidelity, purity, geometric, certify,
complexity.  Exit codes: 0 success, 2 input error, 3 resource/budget,
4 solver breakdown.  All outputs are deterministic given the inputs and
tolerances, apart from the wall_time_s column.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import applications as apps
from .bounds import bound_report, complexity_estimate, required_N
from .certify import certify
from .extensions import BudgetExceeded, ExtensionQuery, budget_dim, check_membership
from .operators import (
    HermitianOperator,
    complex_from_json,
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


@dataclass(frozen=True)
class RunConfig:
    """Everything a command run depends on, resolved from the parsed args."""

    command: str
    input_path: str | None
    n_values: tuple[int, ...]
    ppt: str | bool
    delta: float | None
    tol: float
    max_iter: int
    out: str | None
    seed: int
    jobs: int

    @classmethod
    def from_args(cls, args) -> "RunConfig":
        n_raw = getattr(args, "N", None)
        n_values = tuple(_parse_range(n_raw)) if n_raw is not None else ()
        if not args.tol > 0.0:
            raise _InputError(f"--tol must be positive, got {args.tol}")
        if args.max_iter < 1:
            raise _InputError(f"--max-iter must be >= 1, got {args.max_iter}")
        delta = getattr(args, "delta", None)
        if delta is not None and not 0.0 < delta < 2.0:
            raise _InputError(f"delta {delta} outside (0, 2)")
        try:
            budget_dim()
        except ValueError as exc:
            raise _InputError(str(exc)) from exc
        return cls(
            command=args.command,
            input_path=getattr(args, "input", None),
            n_values=n_values,
            ppt=getattr(args, "ppt", False),
            delta=delta,
            tol=args.tol,
            max_iter=args.max_iter,
            out=args.out,
            seed=args.seed,
            jobs=args.jobs,
        )


def _parse_range(text: str) -> list[int]:
    """"2..4" -> [2, 3, 4]; "3" -> [3]; "1,4,6" -> [1, 4, 6]; all N >= 1."""
    text = text.strip()
    try:
        if ".." in text:
            lo, hi = (int(t) for t in text.split(".."))
            values = list(range(lo, hi + 1))
        else:
            values = [int(t) for t in text.split(",")]
    except ValueError as exc:
        raise _InputError(f"cannot parse N range {text!r}") from exc
    if not values or min(values) < 1:
        raise _InputError(f"N range {text!r} must be nonempty, with every N >= 1")
    return values


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
    """A density operator on two or more factors: unit trace and positive
    semidefinite."""
    rho = _read_operator(path)
    if rho.nfactors < 2:
        raise _InputError(f"{command} input needs at least two factors (A, B, ...)")
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
    """Call an input generator, its parameter-range ValueError as an input error."""
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
    def parse(text):
        entries = []
        for item in json.loads(text)["ensemble"]:
            enc = operator_from_json(json.dumps(item["encoded"]))
            src = operator_from_json(json.dumps(item["source"]))
            entries.append((float(item["p"]), enc, src))
        return apps.EstimationProblem(tuple(entries))

    return _read_json(path, parse, "malformed ensemble: ")


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


def _bound_sweep_command(config, make_pair):
    ppt_values = [False, True] if config.ppt == "both" else [config.ppt == "true"]
    points = [(n, ppt) for n in config.n_values for ppt in ppt_values]

    budget_hit = False

    def worker(point):
        n, ppt = point
        t0 = time.perf_counter()
        try:
            pair = make_pair(n, ppt)
            wall = time.perf_counter() - t0
            return (n, ppt, _fmt(pair.upper), _fmt(pair.lower), pair.status, wall)
        except BudgetExceeded:
            return (n, ppt, "", "", "budget_exceeded", time.perf_counter() - t0)

    rows = _sweep_rows(points, worker, config.jobs)
    lines = ["N,ppt,upper,lower,status,wall_time_s"]
    for n, ppt, upper, lower, status, wall in rows:
        if status == "budget_exceeded":
            budget_hit = True
        lines.append(f"{n},{str(ppt).lower()},{upper},{lower},{status},{wall:.3f}")
    _emit("\n".join(lines) + "\n", config.out)
    return EXIT_BUDGET if budget_hit else EXIT_OK


def cmd_membership(config, args) -> int:
    rho = _read_state(config.input_path, "membership")
    verdicts = {}
    budget_hit = False
    for n in config.n_values:
        try:
            res = check_membership(
                ExtensionQuery(rho=rho, N=n, ppt=bool(config.ppt)),
                tol=config.tol,
                max_iter=config.max_iter,
            )
            verdicts[str(n)] = res.verdict
        except BudgetExceeded:
            verdicts[str(n)] = "budget_exceeded"
            budget_hit = True
    _emit(json.dumps(verdicts, sort_keys=True) + "\n", config.out)
    return EXIT_BUDGET if budget_hit else EXIT_OK


def cmd_bounds(config, args) -> int:
    _check_dims(args)
    header = "dA,dB,N,gN,pc_sym,pc_ppt,R_sym,R_ppt,dtr_sym,dtr_ppt"
    delta_cols = config.delta is not None
    if delta_cols:
        header += (
            ",reqN_sym,reqN_ppt,log10_ops_sym,log10_ops_ppt"
            ",log10_simpl_sym,log10_simpl_ppt"
        )
    if delta_cols:
        delta_tail = ",".join(
            [str(required_N(config.delta, args.dB, ppt=False)),
             str(required_N(config.delta, args.dB, ppt=True))]
            + [_fmt(v) for v in complexity_estimate(args.dA, args.dB, config.delta)]
        )
    lines = [header]
    for n in config.n_values:
        r = bound_report(args.dA, args.dB, n)
        row = ",".join(
            [str(args.dA), str(args.dB), str(n)]
            + [
                _fmt(v)
                for v in (
                    r.g_N,
                    r.p_c_sym,
                    r.p_c_ppt,
                    r.robustness_sym,
                    r.robustness_ppt,
                    r.dist_trace_sym,
                    r.dist_trace_ppt,
                )
            ]
        )
        if delta_cols:
            row += "," + delta_tail
        lines.append(row)
    _emit("\n".join(lines) + "\n", config.out)
    return EXIT_OK


def cmd_fidelity(config, args) -> int:
    if args.bb84 is not None:
        problem = _generate(apps.bb84_two_copy_problem, args.bb84)
    elif args.qutrit_grid is not None:
        problem = _generate(apps.qutrit_grid_problem, args.qutrit_grid)
    elif config.input_path:
        problem = _read_ensemble(config.input_path)
    else:
        raise _InputError("fidelity needs --bb84, --qutrit-grid, or --input")
    return _bound_sweep_command(
        config,
        lambda n, ppt: apps.fidelity_bounds(
            problem, n, ppt, tol=config.tol, max_iter=config.max_iter
        ),
    )


def cmd_purity(config, args) -> int:
    if args.channel == "identity-qubit":
        choi = apps.identity_choi(2)
    elif args.channel == "depolarizing-qubit":
        choi = _generate(apps.depolarizing_choi, 2, args.p)
    elif args.choi:
        choi = _read_operator(args.choi)
    else:
        raise _InputError("purity needs --channel or --choi")
    return _bound_sweep_command(
        config,
        lambda n, ppt: apps.output_purity_bounds(
            choi, n, ppt, tol=config.tol, max_iter=config.max_iter
        ),
    )


def cmd_geometric(config, args) -> int:
    if args.state == "ghz":
        psi = apps.ghz_state()
    elif args.state == "w":
        psi = apps.w_state()
    elif config.input_path:
        psi = _read_state_vector(config.input_path)
    else:
        raise _InputError("geometric needs --state ghz|w or --input")
    return _bound_sweep_command(
        config,
        lambda n, ppt: apps.geometric_entanglement_bounds(
            psi, n, ppt, tol=config.tol, max_iter=config.max_iter
        ),
    )


def cmd_certify(config, args) -> int:
    if args.maxN < 2:
        raise _InputError(f"--maxN must be >= 2, got {args.maxN}")
    rho = _read_state(config.input_path, "certify")
    if rho.nfactors != 2:
        raise _InputError(f"certify input needs exactly two factors, got {rho.nfactors}")
    result = certify(rho, maxN=args.maxN, delta=config.delta or 1e-7, seed=config.seed)
    _emit(result.to_json() + "\n", config.out)
    return EXIT_OK


def cmd_complexity(config, args) -> int:
    if config.delta is None:
        raise _InputError("complexity requires --delta")
    _check_dims(args)
    sym_ops, ppt_ops, sym_s, ppt_s = complexity_estimate(args.dA, args.dB, config.delta)
    payload = {
        "dA": args.dA,
        "dB": args.dB,
        "delta": config.delta,
        "required_N_sym": required_N(config.delta, args.dB, ppt=False),
        "required_N_ppt": required_N(config.delta, args.dB, ppt=True),
        "log10_ops_sym": sym_ops,
        "log10_ops_ppt": ppt_ops,
        "log10_simplified_sym": sym_s,
        "log10_simplified_ppt": ppt_s,
    }
    _emit(json.dumps(payload, sort_keys=True) + "\n", config.out)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dpskit",
        description="Symmetric-extension hierarchy tests, bounds, and sweeps",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, needs_n=True):
        p.add_argument("--out", default=None, help="output path (default stdout)")
        p.add_argument("--tol", type=float, default=1e-8)
        p.add_argument("--max-iter", dest="max_iter", type=int, default=200)
        p.add_argument("--jobs", type=int, default=1)
        p.add_argument("--seed", type=int, default=0)
        if needs_n:
            p.add_argument("--N", default="2", help="a value, range 2..4, or list 2,3")

    p = sub.add_parser("membership", help="(PPT) Bose symmetric extension tests")
    common(p)
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
        common(p)
        p.add_argument("--ppt", choices=["both", "true", "false"], default="both")
        if name == "fidelity":
            p.add_argument("--bb84", type=float, default=None,
                           help="two-copy BB84 generator with this epsilon")
            p.add_argument("--qutrit-grid", dest="qutrit_grid", type=float,
                           default=None, help="36-state qutrit generator")
            p.add_argument("--input", default=None, help="ensemble JSON file")
        elif name == "purity":
            p.add_argument("--channel",
                           choices=["identity-qubit", "depolarizing-qubit"],
                           default=None)
            p.add_argument("--p", type=float, default=0.0,
                           help="depolarizing probability")
            p.add_argument("--choi", default=None, help="Choi operator JSON file")
        else:
            p.add_argument("--state", choices=["ghz", "w"], default=None)
            p.add_argument("--input", default=None, help="pure-state JSON file")
        p.set_defaults(func=fn)

    p = sub.add_parser("certify", help="rank-loop separability certification")
    common(p, needs_n=False)
    p.add_argument("--input", required=True)
    p.add_argument("--maxN", type=int, default=4)
    p.add_argument("--delta", type=float, default=None)
    p.set_defaults(func=cmd_certify)

    p = sub.add_parser("complexity", help="required N and operation-count estimates")
    common(p, needs_n=False)
    p.add_argument("--dA", type=int, default=2)
    p.add_argument("--dB", type=int, default=2)
    p.add_argument("--delta", type=float, required=True)
    p.set_defaults(func=cmd_complexity)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = RunConfig.from_args(args)
        return args.func(config, args)
    except _InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except BudgetExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except SolverBreakdown as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SOLVER


if __name__ == "__main__":
    sys.exit(main())
