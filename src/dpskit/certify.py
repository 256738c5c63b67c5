"""Separability certification: disentangling preimages and rank loops.

Two kinds of evidence certify a PPT state rho as separable:

* The disentangling theorems: depolarizing B with probability
  :func:`dpskit.bounds.critical_p` sends every sigma in S^N or S_p^N into
  the separable set.  The map is affine and keeps sigma_A, so its explicit
  preimage sigma of rho (:func:`dpskit.bounds.disentangle_preimage`) being a
  state with a re-verified (PPT) N-extension proves rho separable.  This
  decides interior states with one membership solve.
* The rank loop: a PPT Bose-symmetric extension whose rank does not exceed
  the larger of its two marginal ranks across the transposed cut certifies
  separability of the reduced state outright; eigenvalues above
  ``RANK_TOL`` times max(lambda_max, 1) count toward a rank.  Generic
  solver output is max-rank, so a log-det reweighting heuristic searches
  the feasible region for low-rank extensions, starting from the extension
  that :func:`check_membership` found and re-verified.  Boundary states,
  whose preimage is never PSD (a pure product state is one), need this
  route.

Neither route carries a guarantee of deciding a given separable state, and
``certify`` reports "undecided" honestly, with each route's outcome, when
none does.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .bounds import disentangle_preimage
from .extensions import (
    FEAS_PSD_TOL,
    ExtensionQuery,
    PptMap,
    TraceMap,
    _compile,
    _verify_feasible,
    check_membership,
    transposed_copies,
)
from .operators import HermitianOperator, operator_to_dict
from .solver import SolverBreakdown, solve
from .symmetric import sym_dim

__all__ = [
    "RANK_TOL",
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


# the rank rule: eigenvalues above RANK_TOL * max(lambda_max, 1) count
RANK_TOL = 1e-7


def _rank(w: np.ndarray) -> int:
    """The rank rule on an ascending spectrum."""
    return int(np.sum(w > RANK_TOL * max(float(w[-1]), 1.0)))


def numerical_rank(x) -> int:
    """Eigenvalues above RANK_TOL * max(lambda_max, 1) count toward the rank."""
    m = x.entries if isinstance(x, HermitianOperator) else np.asarray(x)
    return _rank(np.linalg.eigvalsh(m))


def rank_loop_check(
    extension: np.ndarray,
    dA: int,
    d: int,
    N: int,
    K: int,
) -> tuple[bool, RankProfile]:
    """Evaluate the loop inequality rank(full) <= max(rank(AB^K), rank(B^{N-K})).

    ``extension`` is compressed, on H_A (x) Sym^N(C^d).  The caller is
    responsible for the premise that it is PPT across the A B^K | B^{N-K} cut.
    """
    if not 1 <= K <= N:
        raise ValueError(f"K = {K} out of range for N = {N}")
    side = dA * sym_dim(d, N)
    if extension.shape != (side, side):
        raise ValueError("extension side does not match dA * sym_dim")
    rank_full = numerical_rank(extension)
    rank_left = numerical_rank(TraceMap(dA, (d,), N, K).apply(extension))
    # Lambda_{B^{N-K}}: trace A off, then all but N - K copies
    sym = np.einsum("asat->st", extension.reshape(dA, side // dA, dA, side // dA))
    rank_right = numerical_rank(TraceMap(1, (d,), N, N - K).apply(sym))
    loop = rank_full <= max(rank_left, rank_right)
    return loop, RankProfile(rank_full, rank_left, rank_right, K)


# the log-det search: rounds per pass, solver tolerance of each round, the
# weight's regularization eps, and the number of random restarts after the
# first pass
RANK_MIN_ROUNDS = 8
RANK_MIN_SOLVE_TOL = 1e-8
RANK_MIN_EPS = 1e-4
RANK_MIN_RESTARTS = 2


def _rank_and_weight(x: np.ndarray) -> tuple[int, np.ndarray]:
    """The rank of an iterate and its next log-det weight, from one ``eigh``."""
    w, v = np.linalg.eigh(x)
    shifted = np.maximum(w, 0.0) + RANK_MIN_EPS * max(float(w[-1]), 1.0)
    weight = (v / shifted) @ v.conj().T
    return _rank(w), 0.5 * (weight + weight.conj().T)


def rank_min_heuristic(
    q: ExtensionQuery, extension: np.ndarray, rounds: int = RANK_MIN_ROUNDS,
    seed: int = 0,
) -> np.ndarray:
    """Search the feasible set for a low-rank extension by log-det reweighting.

    Round k minimizes <W_k, X> over the feasible set of the membership query
    ``q`` with W_{k+1} = (X_k + eps max(lambda_max, 1) I)^{-1}; the
    lowest-rank feasible iterate wins.  One ``eigh`` of each iterate gives
    both its rank and the next weight.  The first pass starts from
    ``extension``, a feasible extension of ``q`` (the one
    :func:`check_membership` returns), which is re-verified here (ValueError
    if it fails) and is round 1's iterate.  ``RANK_MIN_RESTARTS`` further
    passes reseed with random positive weights, which breaks the symmetry
    that can trap the reweighting at the analytic center (highly symmetric
    inputs like the maximally mixed state need this).  A pass ends early
    when a round fails to give a re-verified iterate.
    """
    if q.reduced_constraint != "trace_match":
        raise ValueError("rank_min_heuristic requires a trace_match query")
    problem, codec = _compile(q)
    ok, detail = _verify_feasible(extension, codec)
    if not ok:
        raise ValueError(f"extension is not feasible: {detail}")
    rng = np.random.default_rng(seed)
    rounds = max(rounds, 1)
    best_rank, weight = _rank_and_weight(extension)
    best_x = extension
    for start in range(RANK_MIN_RESTARTS + 1):
        if best_rank == 1:
            break
        if start:
            g = rng.standard_normal((codec.nx, codec.nx))
            if not codec.real:
                g = g + 1j * rng.standard_normal((codec.nx, codec.nx))
            weight = g @ g.conj().T
            weight = weight / np.trace(weight).real
        # the first pass's round 1 is the extension itself
        for _ in range(rounds - (start == 0)):
            codec.set_objective(problem, weight, "minimize")
            try:
                sol = solve(problem, tol=RANK_MIN_SOLVE_TOL)
            except SolverBreakdown:
                break
            if sol.status not in ("optimal", "max_iter"):
                break
            x = codec.extension(sol)
            if not _verify_feasible(x, codec)[0]:
                break
            r, weight = _rank_and_weight(x)
            if r < best_rank:
                best_x, best_rank = x, r
            if best_rank == 1:
                break
    return best_x


@dataclass
class CertifyResult:
    """A certification verdict and its evidence.

    "entangled" carries ``witness``.  "separable" carries ``extension``: from
    the rank loop, an extension of rho with its rank ``profile``; from a
    disentangling route (``profile`` None), an extension of the preimage
    ``disentangle_preimage(rho, N, ppt)``, with ``ppt`` true for the S_p^N
    route that ``detail`` names.
    """

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
            payload["witness"] = operator_to_dict(self.witness)
        return json.dumps(payload)


# the disentangling routes in the order certify tries them: the S^N solve
# has no PPT block, so it is the cheaper one
ROUTES = ((False, "S^N"), (True, "S_p^N"))


def certify(
    rho: HermitianOperator, maxN: int = 4, rounds: int = RANK_MIN_ROUNDS,
    seed: int = 0,
) -> CertifyResult:
    """PPT-hierarchy sweep, N = 2..maxN, with separability evidence.

    First, at each N, one PPT membership solve decides "entangled" (with a
    dual witness) or finds an extension.  For a feasible level, the two
    disentangling routes (S^N, then S_p^N) each test rho's preimage: one
    ``eigvalsh`` rejects a preimage that is not PSD, and one membership
    solve tests the rest.  Only when no level's routes decide does the
    log-det rank search look for a rank loop, at each feasible level from
    the lowest N up: first at the S_p^N cut, then at every other cut where
    the extension is PPT.  An "undecided" verdict names each route's
    outcome at the last level searched.
    """
    dA, dB = rho.factor_dims
    levels, stop, outcomes = [], None, []
    for n in range(2, maxN + 1):
        q = ExtensionQuery(rho=rho, N=n, ppt=True)
        res = check_membership(q)
        if res.verdict == "infeasible":
            return CertifyResult(
                verdict="entangled", N=n, witness=res.witness,
                detail="no PPT Bose-symmetric extension",
            )
        if res.verdict != "feasible":
            stop = CertifyResult(verdict="undecided", N=n, detail=res.detail)
            break
        outcomes = []
        for ppt, name in ROUTES:
            sigma = disentangle_preimage(rho, n, ppt)
            lam = float(np.linalg.eigvalsh(sigma.entries)[0])
            if lam < -FEAS_PSD_TOL:
                outcomes.append(f"{name} preimage not PSD (lambda_min {lam:.2e})")
                continue
            pre = check_membership(ExtensionQuery(rho=sigma, N=n, ppt=ppt))
            if pre.verdict == "feasible":
                return CertifyResult(
                    verdict="separable", N=n, extension=pre.extension,
                    detail=f"disentangling theorem ({name}) at N={n}: "
                    "preimage extension re-verified to 1e-7",
                )
            outcomes.append(
                f"{name} preimage not {n}-extendable ({pre.verdict}: {pre.detail})"
            )
        levels.append((q, res.extension, outcomes))
    for q, extension, outcomes in levels:
        n = q.N
        x = rank_min_heuristic(q, extension, rounds=rounds, seed=seed)
        k_sp = n - transposed_copies(n)
        for k in [k_sp] + [k for k in range(1, n) if k != k_sp]:
            # x was re-verified PPT at the S_p^N cut; other cuts need the check
            if k != k_sp:
                lam = float(np.linalg.eigvalsh(PptMap(dA, (dB,), n, n - k).apply(x))[0])
                if lam < -FEAS_PSD_TOL:
                    continue
            loop, profile = rank_loop_check(x, dA, dB, n, k)
            if loop:
                return CertifyResult(
                    verdict="separable", N=n, profile=profile, extension=x,
                    detail=f"rank loop at K={k}",
                )
            if k == k_sp:
                sp_profile = profile
        outcomes.append(
            f"no rank loop (lowest-rank extension: ranks {sp_profile.rank_full}, "
            f"{sp_profile.rank_left}, {sp_profile.rank_right} at K={k_sp})"
        )
    if stop is not None:
        return stop
    return CertifyResult(
        verdict="undecided", N=maxN, detail=f"at N={maxN}: " + "; ".join(outcomes)
    )
