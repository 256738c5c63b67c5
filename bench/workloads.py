"""The four benchmark workloads: seeded query lists and their output checks.

A query is one in-process ``dpskit.cli.main`` call that writes an ``--out``
file; the harness parses and checks that file.  Each workload's ``--seed``
draws its parameters from fixed grids, so the same seed gives the same
queries.  The grids keep each query's cost class fixed, so that a pass
costs the same work whichever seed is drawn.

No query runs longer than about 2 s.  The measuring host is shared, and
contention slows it for seconds to minutes at a time.  The harness reports
each query's median repeat, which is steady only when a query is short
enough to be repeated several times in one run.  BB84 PPT N=4 (m = 1312,
6-7 s) and separable two-qubit certify inputs at --maxN 3 (2-3 s each) are
therefore left out: with them, five 25-s runs spread by 0.40 (ppt_fidelity)
and 0.49 (certify) of their median pass time.
"""

from __future__ import annotations

import json
import math
import random
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import dpskit.cli  # noqa: F401  (run_query reaches it through sys.modules)
from dpskit.operators import (
    HermitianOperator,
    identity,
    operator_to_json,
    partial_transpose,
    pure_state,
    random_state,
)

REFERENCE_PATH = Path(__file__).with_name("reference.json")

# Within these grids the PPT solves take the same iteration counts (BB84
# N=2, 3: 9 and 9; qutrit N=2: 10; purity PPT N=2..4: 31-32 in total).
NOISE_GRID = (0.05, 0.1, 0.15, 0.2)  # BB84 / qutrit-grid depolarizing epsilon
CHANNEL_GRID = (0.05, 0.1, 0.15)  # depolarizing-qubit channel p
ISO_PPT_GRID = (0.1, 0.2, 0.3)  # isotropic weight below 1/3: separable
ISO_NPT_GRID = (0.45, 0.6, 0.8)  # above 1/3: entangled
RANDOM_PPT_SEEDS = tuple(range(10))  # rank-2 random states, 3/4 white noise
# --delta recomputes required_N on every table row, and its cost grows as
# delta falls (2.8 s against 2.1 s a pass at 0.02 and 0.1), so the tables use
# one delta and the seed draws only the complexity calls' delta.
TABLE_DELTA = 0.05
DELTA_GRID = (0.02, 0.05, 0.1)
PPT_BB84_N = (2, 3)  # m = 272, 592; the qutrit grid at N=2 has m = 738
CERTIFY_MAX_N = 2

# Bounds are printed with 10 significant digits; the solver stops at a
# relative gap of 1e-8.
ORDER_TOL = 1e-7
# Upper bounds must reproduce the committed reference values.
REFERENCE_TOL = 1e-6
# Product states sit on the PPT boundary: their partial transpose has exact
# zero eigenvalues, which round to either sign.
PT_TOL = 1e-9


def channel_known(p: float) -> float:
    """Largest output eigenvalue of the depolarizing qubit channel.

    The purity functional tr(Omega . sigma (x) rho) maximizes the output's
    top eigenvalue, not its 2-norm purity (1 + (1-p)^2) / 2;
    tests/test_applications.py and acceptance criterion 9 pin 1 - p/2.
    """
    return 1.0 - p / 2.0


@dataclass
class Query:
    argv: tuple
    kind: str  # sweep | certify | bounds | complexity
    family: str = ""  # sweep series: the argv without --N and --ppt
    known: float | None = None
    rho: np.ndarray | None = None  # certify input
    npt: bool | None = None  # certify ground truth (Peres-Horodecki)

    @property
    def key(self) -> str:
        return " ".join(self.argv)


def _fmt(x: float) -> str:
    return f"{x:g}"


def _sweep(family: tuple, n_values, ppt: bool, known=None) -> list:
    return [
        Query(family + ("--N", str(n), "--ppt", "true" if ppt else "false"),
              "sweep", " ".join(family), known)
        for n in n_values
    ]


def _bb84(eps):
    return ("fidelity", "--bb84", _fmt(eps))


def _qutrit(eps):
    return ("fidelity", "--qutrit-grid", _fmt(eps))


def _channel(p):
    return ("purity", "--channel", "depolarizing-qubit", "--p", _fmt(p))


def _geometric(state):
    return ("geometric", "--state", state)


def ppt_fidelity(rng: random.Random, work: Path):
    eps_b, eps_q = rng.choice(NOISE_GRID), rng.choice(NOISE_GRID)
    queries = _sweep(_bb84(eps_b), PPT_BB84_N, True) + _sweep(_qutrit(eps_q), (2,), True)
    return queries, {"bb84_eps": eps_b, "qutrit_eps": eps_q}


def sym_sweep(rng: random.Random, work: Path):
    eps_b, eps_q = rng.choice(NOISE_GRID), rng.choice(NOISE_GRID)
    p = rng.choice(CHANNEL_GRID)
    queries = _sweep(_bb84(eps_b), range(2, 13), False)
    queries += _sweep(_qutrit(eps_q), range(2, 8), False)
    for family, known in ((_channel(p), channel_known(p)),
                          (_geometric("ghz"), 0.5),
                          (_geometric("w"), 4.0 / 9.0)):
        queries += _sweep(family, range(2, 13), False, known)
        queries += _sweep(family, range(2, 5), True, known)
    return queries, {"bb84_eps": eps_b, "qutrit_eps": eps_q, "channel_p": p}


def _mixed(sigma: HermitianOperator, noise: float) -> HermitianOperator:
    d = sigma.dim
    return HermitianOperator(sigma.factor_dims,
                             (1 - noise) * sigma.entries + noise * np.eye(d) / d)


def _rotated(nrng: np.random.Generator, rho: HermitianOperator) -> HermitianOperator:
    """rho under a seeded random local unitary U_A (x) U_B.

    Entanglement, and with it the verdict and the solver's work on an
    entangled input, does not change along the orbit.
    """
    u = np.eye(1)
    for d in rho.factor_dims:
        q, r = np.linalg.qr(nrng.standard_normal((d, d)) + 1j * nrng.standard_normal((d, d)))
        u = np.kron(u, q * (np.diag(r) / np.abs(np.diag(r))))
    return HermitianOperator(rho.factor_dims, u @ rho.entries @ u.conj().T)


def pt_min_eig(rho: HermitianOperator) -> float:
    return float(np.linalg.eigvalsh(partial_transpose(rho, [1]).entries)[0])


def certify_states(rng: random.Random):
    """Two-qubit and qubit-qutrit inputs, (name, state) pairs.

    The entangled random inputs are fixed random draws mixed with white noise
    (partial-transpose minimum eigenvalue -0.25, -0.088 and -0.063), moved
    along a seeded local-unitary orbit: drawing fresh states made the
    qubit-qutrit certify time, and with it query_s.p50, depend on the seed.
    """
    nrng = np.random.default_rng(rng.randrange(2**31))
    bell = pure_state([1, 0, 0, 1], (2, 2))
    a = nrng.standard_normal(2) + 1j * nrng.standard_normal(2)
    b = nrng.standard_normal(2) + 1j * nrng.standard_normal(2)
    p_sep, p_ent = rng.choice(ISO_PPT_GRID), rng.choice(ISO_NPT_GRID)
    random_seed = rng.choice(RANDOM_PPT_SEEDS)
    states = [
        ("isotropic", _mixed(bell, 1 - p_sep)),
        ("isotropic", _mixed(bell, 1 - p_ent)),
        ("random+noise", _mixed(random_state((2, 2), 2, random_seed), 0.75)),
        ("random+noise", _rotated(nrng, _mixed(random_state((2, 2), 1, 0), 0.1))),
        ("product", pure_state(np.kron(a, b), (2, 2))),
        ("bell", _rotated(nrng, bell)),
        ("maximally-mixed", identity((2, 2)) * 0.25),
    ]
    for template in (1, 3):
        states.append(("random+noise",
                       _rotated(nrng, _mixed(random_state((2, 3), 3, template), 0.3))))
    params = {"isotropic_p": [p_sep, p_ent], "random_ppt_seed": random_seed}
    return states, params


def certify(rng: random.Random, work: Path):
    states, params = certify_states(rng)
    queries = []
    for i, (name, rho) in enumerate(states):
        path = work / f"state{i}.json"
        path.write_text(operator_to_json(rho))
        queries.append(Query(("certify", "--input", str(path), "--maxN", str(CERTIFY_MAX_N)),
                             "certify", name, rho=rho.entries, npt=pt_min_eig(rho) < -PT_TOL))
    # the cheapest query first: it is the warm-up
    queries.sort(key=lambda q: q.family != "bell")
    return queries, params


BOUND_TABLES = ((2, 2, 150), (3, 3, 120), (2, 4, 100))


def bounds_table(rng: random.Random, work: Path):
    delta = rng.choice(DELTA_GRID)
    queries = [Query(("complexity", "--dA", str(a), "--dB", str(b), "--delta", _fmt(delta)),
                     "complexity") for a, b in ((2, 2), (2, 3), (3, 3))]
    for d_a, d_b, n_max in BOUND_TABLES:
        base = ("bounds", "--dA", str(d_a), "--dB", str(d_b), "--N", f"1..{n_max}")
        queries.append(Query(base, "bounds"))
        queries.append(Query(base + ("--delta", _fmt(TABLE_DELTA)), "bounds"))
    return queries, {"complexity_delta": delta}


WORKLOADS = {
    "ppt_fidelity": ppt_fidelity,
    "sym_sweep": sym_sweep,
    "certify": certify,
    "bounds_table": bounds_table,
}


def build(workload: str, seed: int, work: Path):
    """(queries, drawn parameters); queries[0] is the warm-up query."""
    return WORKLOADS[workload](random.Random(seed), work)


def reference_queries() -> list:
    """Every sweep query the seed grids can produce."""
    out = []
    for eps in NOISE_GRID:
        for family, n_max in ((_bb84(eps), 12), (_qutrit(eps), 7)):
            out += _sweep(family, range(2, n_max + 1), False)
        out += _sweep(_bb84(eps), PPT_BB84_N, True) + _sweep(_qutrit(eps), (2,), True)
    for family in [_channel(p) for p in CHANNEL_GRID] + [_geometric("ghz"), _geometric("w")]:
        out += _sweep(family, range(2, 13), False) + _sweep(family, range(2, 5), True)
    return out


def load_reference() -> dict:
    return json.loads(REFERENCE_PATH.read_text())["upper"]


# -- running and checking ------------------------------------------------------


def run_query(query: Query, out: Path) -> int:
    """One CLI call; the module attribute is looked up so tracing sees it."""
    return sys.modules["dpskit.cli"].main(list(query.argv) + ["--jobs", "1", "--out", str(out)])


def csv_rows(text: str) -> list[dict]:
    lines = text.strip().splitlines()
    header = lines[0].split(",")
    return [dict(zip(header, line.split(","))) for line in lines[1:]]


class Checker:
    """Checks each query's output, alone and against the pass's earlier rows.

    ``check`` returns None for a correct output, else the reason it failed.
    """

    def __init__(self, reference: dict):
        self.reference = reference
        self.rows = {}  # (family, ppt) -> {N: (upper, lower)}

    def check(self, query: Query, text: str):
        if query.kind == "sweep":
            return self._sweep(query, text)
        if query.kind == "certify":
            return check_certify(query, json.loads(text))
        if query.kind == "bounds":
            return check_bounds_table(csv_rows(text))
        return check_complexity(json.loads(text))

    def _sweep(self, query: Query, text: str):
        rows = csv_rows(text)
        if len(rows) != 1:
            return f"expected one row, got {len(rows)}"
        row = rows[0]
        if row["status"] != "optimal":
            return f"status {row['status']}"
        n, ppt = int(row["N"]), row["ppt"] == "true"
        upper, lower = float(row["upper"]), float(row["lower"])
        series = self.rows.setdefault((query.family, ppt), {})
        reason = check_sweep_point(
            n, upper, lower, series, query.known, self.reference.get(query.key),
            ppt, self._non_ppt_upper(query, n) if ppt else None,
        )
        series[n] = (upper, lower)
        return reason

    def _non_ppt_upper(self, query: Query, n: int):
        same_pass = self.rows.get((query.family, False), {})
        if n in same_pass:
            return same_pass[n][0]
        return self.reference.get(f"{query.family} --N {n} --ppt false")


def check_sweep_point(n, upper, lower, series, known, reference, ppt, non_ppt_upper):
    """One (N, upper, lower) point against its series and its references.

    ``series`` maps earlier N of the same family and PPT flag to their
    (upper, lower); a PPT point is compared with the non-PPT upper bound at
    the same N.
    """
    if not (math.isfinite(upper) and math.isfinite(lower)):
        return "non-finite bound"
    if lower > upper + ORDER_TOL:
        return f"lower {lower} > upper {upper}"
    for n_prev, (u_prev, l_prev) in series.items():
        if n_prev < n and upper > u_prev + ORDER_TOL:
            return f"upper rises from N={n_prev} ({u_prev}) to N={n} ({upper})"
        if l_prev > upper + ORDER_TOL or lower > u_prev + ORDER_TOL:
            return f"lower and upper bounds cross between N={n_prev} and N={n}"
    if reference is None:
        return "no reference value"
    if abs(upper - reference) > REFERENCE_TOL:
        return f"upper {upper} differs from reference {reference}"
    if ppt:
        if non_ppt_upper is None:
            return "no non-PPT upper bound to compare with"
        if upper > non_ppt_upper + ORDER_TOL:
            return f"PPT upper {upper} exceeds non-PPT upper {non_ppt_upper}"
    if known is not None and not lower - ORDER_TOL <= known <= upper + ORDER_TOL:
        return f"known value {known} outside [{lower}, {upper}]"
    return None


def check_certify(query: Query, payload: dict):
    verdict = payload["verdict"]
    if query.npt and verdict != "entangled":
        return f"NPT input got {verdict}"
    if not query.npt and verdict == "entangled":
        return "PPT input got entangled"
    if verdict == "entangled":
        w = payload.get("witness")
        if w is None:
            return "entangled verdict without a witness"
        entries = np.array(w["re"]) + 1j * np.array(w["im"])
        value = float(np.real(np.sum(entries.T * query.rho)))
        if not value < 0.0:
            return f"witness gives tr(W rho) = {value} >= 0"
    return None


def check_bounds_table(rows: list):
    g_prev = math.inf
    for row in rows:
        values = [float(v) for v in row.values()]
        if not all(math.isfinite(v) for v in values):
            return f"non-finite entry at N={row['N']}"
        g = float(row["gN"])
        if not g < g_prev:
            return f"g_N does not decrease at N={row['N']}"
        g_prev = g
    return None


def check_complexity(payload: dict):
    if not all(math.isfinite(float(v)) for v in payload.values()):
        return "non-finite complexity entry"
    return None
