"""Rank-loop separability certification.

A PPT Bose-symmetric extension whose rank does not exceed the larger of its
two marginal ranks across the transposed cut certifies separability of the
reduced state outright.  Generic solver output is max-rank, so a log-det
reweighting heuristic searches the feasible region for low-rank extensions;
the heuristic carries no guarantee of finding a loop, and ``certify``
reports "undecided" honestly when none shows up.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .extensions import (
    ExtensionQuery,
    PptMap,
    _compile,
    _verify_feasible,
    check_membership,
    reduce_extension,
)
from .operators import HermitianOperator, operator_to_json
from .solver import SolverBreakdown, solve
from .symmetric import SymmetricBasis, build_basis

__all__ = [
    "RankProfile",
    "numerical_rank",
    "rank_loop_check",
    "rank_min_heuristic",
    "certify",
    "CertifyResult",
]


@dataclass(frozen=True)
class RankProfile:
    rank_full: int
    rank_left: int  # rank of Lambda_{AB^K}
    rank_right: int  # rank of Lambda_{B^{N-K}}
    K: int
    tol: float


def numerical_rank(x, tol: float = 1e-7) -> int:
    """Eigenvalues above tol * max(lambda_max, 1) count toward the rank."""
    m = x.entries if isinstance(x, HermitianOperator) else np.asarray(x)
    w = np.linalg.eigvalsh(m)
    thresh = tol * max(float(w[-1]), 1.0)
    return int(np.sum(w > thresh))


def _reduce_to_level(x: np.ndarray, dA: int, d: int, N: int, target: int) -> np.ndarray:
    out = x
    for level in range(N, target, -1):
        out = reduce_extension(out, dA, d, level)
    return out


def rank_loop_check(
    extension: np.ndarray,
    dA: int,
    basis: SymmetricBasis,
    K: int,
    tol: float = 1e-7,
) -> tuple[bool, RankProfile]:
    """Evaluate the loop inequality rank(full) <= max(rank(AB^K), rank(B^{N-K})).

    The caller is responsible for the premise that the extension is PPT
    across the A B^K | B^{N-K} cut.
    """
    d, N = basis.d, basis.N
    if not 1 <= K <= N:
        raise ValueError(f"K = {K} out of range for N = {N}")
    side = dA * basis.size
    if extension.shape != (side, side):
        raise ValueError("extension side does not match dA * sym_dim")
    rank_full = numerical_rank(extension, tol)
    left = _reduce_to_level(extension, dA, d, N, K)
    rank_left = numerical_rank(left, tol)
    # tracing A off the level-(N-K) reduction gives Lambda_{B^{N-K}} directly
    if K != N:
        right_level = _reduce_to_level(extension, dA, d, N, N - K)
        s_r = right_level.shape[0] // dA
        r4 = right_level.reshape(dA, s_r, dA, s_r)
        right = np.einsum("asat->st", r4)
    else:
        right = np.array([[np.trace(extension)]])
    rank_right = numerical_rank(right, tol)
    loop = rank_full <= max(rank_left, rank_right)
    return loop, RankProfile(rank_full, rank_left, rank_right, K, tol)


def rank_min_heuristic(
    q: ExtensionQuery,
    objective_floor: float | None = None,
    rounds: int = 10,
    tol: float = 1e-8,
    eps: float = 1e-4,
    restarts: int = 2,
    seed: int = 0,
) -> np.ndarray:
    """Search the feasible set for a low-rank extension by log-det reweighting.

    Round k minimizes <W_k, X> over the same feasible set with
    W_{k+1} = (X_k + eps I)^{-1}; the lowest-rank feasible iterate wins.
    The first pass starts from the plain feasibility solve; further passes
    reseed with random positive weights, which breaks the symmetry that can
    trap the reweighting at the analytic center (highly symmetric inputs
    like the maximally mixed state need this).  ``objective_floor`` (when
    given, with the query's ``objective``) pins tr(Lambda . objective) >=
    floor through a slack block.
    """
    # the objective stays on the query so that a complex one keeps the
    # floor row in complex arithmetic
    base = ExtensionQuery(
        rho=q.rho, N=q.N, ppt=q.ppt, mode="membership",
        objective=q.objective, reduced_constraint="trace_match", ppt_cuts=q.ppt_cuts,
    )
    problem, codec = _compile(base)
    if objective_floor is not None:
        if q.objective is None:
            raise ValueError("objective_floor needs an objective in the query")
        # a 1x1 slack block s >= 0 with <objective, Lambda> - s = floor
        problem.block_sizes.append(1)
        problem.objective.append(None)
        problem.constraints = np.pad(problem.constraints, ((0, 1), (0, 1)))
        problem.rhs = np.append(problem.rhs, codec.weight * float(objective_floor))
        floor_row = problem.blocks(problem.constraints[-1:])
        codec.embed_rows(floor_row[0], codec.tmap.adjoint(q.objective.entries)[None])
        floor_row[-1][...] = -1.0

    nx = codec.tmap.dA * codec.tmap.size_in
    rng = np.random.default_rng(seed)
    best_x = None
    best_rank = None
    infeasible_status = None

    def run_pass(weight):
        nonlocal best_x, best_rank, infeasible_status
        for _ in range(max(rounds, 1)):
            if weight is None:
                problem.sense = "feasibility"
            else:
                problem.sense = "minimize"
                problem.objective[0] = codec.embed(weight)
            try:
                sol = solve(problem, tol=tol)
            except SolverBreakdown:
                return
            if sol.status not in ("optimal", "max_iter"):
                infeasible_status = sol.status
                return
            x = codec.unembed(sol.primal_blocks[0])
            if not _verify_feasible(x, codec)[0]:
                return
            r = numerical_rank(x)
            if best_rank is None or r < best_rank:
                best_x, best_rank = x, r
            scale = max(float(np.linalg.eigvalsh(x)[-1]), 1.0)
            w, v = np.linalg.eigh(x)
            w = np.maximum(w, 0.0) + eps * scale
            weight = (v / w) @ v.conj().T
            weight = 0.5 * (weight + weight.conj().T)
            if best_rank == 1:
                return

    run_pass(None)
    if best_x is None and infeasible_status is not None:
        raise ValueError(f"query is not feasible ({infeasible_status})")
    for _ in range(max(restarts, 0)):
        if best_rank == 1:
            break
        g = rng.standard_normal((nx, nx))
        if not codec.real:
            g = g + 1j * rng.standard_normal((nx, nx))
        w0 = g @ g.conj().T
        run_pass(w0 / np.trace(w0).real)
    if best_x is None:
        raise ValueError("rank minimization produced no feasible iterate")
    return best_x


@dataclass
class CertifyResult:
    verdict: str  # entangled | separable | undecided
    N: int | None = None
    witness: HermitianOperator | None = None
    profile: RankProfile | None = None
    extension: np.ndarray | None = None
    detail: str = ""

    def to_json(self) -> str:
        payload = {"verdict": self.verdict, "N": self.N, "detail": self.detail}
        if self.profile is not None:
            payload["ranks"] = [
                self.profile.rank_full,
                self.profile.rank_left,
                self.profile.rank_right,
            ]
            payload["K"] = self.profile.K
        if self.witness is not None:
            payload["witness"] = json.loads(operator_to_json(self.witness))
        return json.dumps(payload)


def certify(
    rho: HermitianOperator, maxN: int = 4, delta: float = 1e-7,
    rounds: int = 8, seed: int = 0,
) -> CertifyResult:
    """PPT-hierarchy sweep with rank-loop detection, N = 2..maxN.

    "entangled" comes with a dual witness, "separable" with an explicit
    (extension, K, rank profile) evidence object; ``delta`` sets the rank
    tolerance used for loop detection.
    """
    tol_rank = max(delta, 1e-9)
    dA, dB = rho.factor_dims
    for n in range(2, maxN + 1):
        q = ExtensionQuery(rho=rho, N=n, ppt=True)
        res = check_membership(q, refine_witness=True)
        if res.verdict == "infeasible":
            return CertifyResult(
                verdict="entangled", N=n, witness=res.witness,
                detail="no PPT Bose-symmetric extension",
            )
        if res.verdict != "feasible":
            return CertifyResult(verdict="undecided", N=n, detail=res.detail)
        try:
            x = rank_min_heuristic(q, rounds=rounds, seed=seed)
        except (ValueError, SolverBreakdown):
            x = res.extension
        basis = build_basis(dB, n)
        k_default = (n + 1) // 2
        loop, profile = rank_loop_check(x, dA, basis, k_default, tol_rank)
        if loop:
            return CertifyResult(
                verdict="separable", N=n, profile=profile, extension=x,
                detail=f"rank loop at K={k_default}",
            )
        # opportunistic checks at other cuts; requires verifying PPT first
        for k_alt in range(1, n):
            if k_alt == k_default:
                continue
            pmap = PptMap(dA, basis, n - k_alt)
            lam = float(np.linalg.eigvalsh(pmap.apply(x))[0])
            if lam < -1e-7:
                continue
            loop, profile = rank_loop_check(x, dA, basis, k_alt, tol_rank)
            if loop:
                return CertifyResult(
                    verdict="separable", N=n, profile=profile, extension=x,
                    detail=f"rank loop at K={k_alt}",
                )
    return CertifyResult(
        verdict="undecided", N=maxN, detail=f"no verdict up to N={maxN}"
    )
