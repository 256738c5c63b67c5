"""Compile (PPT) Bose-symmetric-extension queries into block SDPs.

The query state lives on H_A (x) H_1 (x) ... (x) H_k, k >= 1.  Factor 0 is
A; every further factor is extended N times within its own symmetric
subspace, so the decision variable is always the *compressed* extension X
on H_A (x) Sym^N(H_1) (x) ... (x) Sym^N(H_k).  k = 1 is the bipartite
hierarchy, k >= 2 its locally symmetric multipartite variant.

Every map that connects X to physics is a :class:`LocalMap` I_A (x) L, with
L a real sparse matrix on vec of the symmetric part:

* ``trace_map`` : X -> trace over N-1 copies of every party,
* ``ppt_map``   : X -> partial transpose over the last N2 copies of every
                  party, compressed onto Sym^{N-N2} (x) Sym^{N2} per party,
* ``reduce_extension`` : Sym^N -> Sym^{N-1}, one copy traced off.

A multiparty L is the Kronecker product of the per-party matrices.  All
coefficients are exact occupation-number combinatorics; the naive
lift/operate/compress pipeline is kept in the test suite as an oracle only.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from functools import lru_cache
from math import comb, prod, sqrt

import numpy as np
import scipy.sparse as sp

from .operators import HermitianOperator
from .solver import (
    SdpProblem,
    SdpSolution,
    SolverBreakdown,
    embed_complex,
    hermitian_basis,
    solve,
    unembed_real,
)
from .symmetric import SymmetricBasis, occupations, sym_dim

__all__ = [
    "BudgetExceeded",
    "ExtensionQuery",
    "MembershipResult",
    "LocalMap",
    "TraceMap",
    "PptMap",
    "budget_dim",
    "compressed_maps",
    "build_bse_sdp",
    "check_membership",
    "optimize_over_cone",
    "ConeOptimum",
    "verify_witness",
    "reduce_extension",
]

BUDGET_ENV = "DPSKIT_BUDGET_DIM"
DEFAULT_BUDGET_DIM = 192


class BudgetExceeded(RuntimeError):
    """The compressed SDP would exceed the configured dimension budget."""


def budget_dim() -> int:
    """The compressed-side cap from DPSKIT_BUDGET_DIM (ValueError if invalid)."""
    raw = os.environ.get(BUDGET_ENV, "")
    if not raw:
        return DEFAULT_BUDGET_DIM
    try:
        value = int(raw)
    except ValueError:
        value = 0
    if value < 1:
        raise ValueError(f"{BUDGET_ENV} must be a positive integer, got {raw!r}")
    return value


@dataclass(frozen=True)
class ExtensionQuery:
    """A membership or cone-optimization request against S^N or S_p^N.

    ``rho`` has factors (A, B_1, ..., B_k); each B_i is extended N times.
    ``reduced_constraint`` picks the linear condition on the reduced
    operator: "trace_match" (membership), "identity_marginal" (Lambda_A = I,
    the state-estimation normalization) or "unit_trace" (optimization over
    normalized cone members).  ``ppt_cuts`` is "half" for the single
    ceil(N/2) | floor(N/2) bipartition that defines S_p^N, or "all" for
    every nontrivial cut (an optional strengthening, not the default).
    """

    rho: HermitianOperator
    N: int
    ppt: bool = False
    mode: str = "membership"
    objective: HermitianOperator | None = None
    reduced_constraint: str = "trace_match"
    ppt_cuts: str = "half"

    def __post_init__(self):
        if self.rho.nfactors < 2:
            raise ValueError("query state needs at least two factors (A, B, ...)")
        if self.N < 1:
            raise ValueError("extension size N must be >= 1")
        if self.mode not in ("membership", "cone_optimize"):
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.mode == "membership" and self.reduced_constraint != "trace_match":
            raise ValueError("membership queries use the trace_match constraint")
        if self.mode == "cone_optimize":
            if self.objective is None:
                raise ValueError("cone_optimize requires an objective operator")
            if self.reduced_constraint not in ("identity_marginal", "unit_trace"):
                raise ValueError(
                    "cone_optimize uses identity_marginal or unit_trace"
                )
        if self.ppt_cuts not in ("half", "all"):
            raise ValueError(f"unknown ppt_cuts {self.ppt_cuts!r}")


@dataclass
class MembershipResult:
    verdict: str  # feasible | infeasible | undecided
    extension: np.ndarray | None = None  # compressed, on H_A (x) Sym^N
    witness: HermitianOperator | None = None
    detail: str = ""


# ---------------------------------------------------------------------------
# sparse local maps
# ---------------------------------------------------------------------------


def _binom_weight(a, b) -> int:
    """prod_i C(a_i + b_i, a_i): ways to interleave occupations a and b."""
    return prod(comb(x + y, x) for x, y in zip(a, b))


def _add(a, b) -> tuple:
    return tuple(x + y for x, y in zip(a, b))


def _local_matrix(entries, s_in: int, s_out: int):
    """(L, s_in, s_out) from (out_row, out_col, in_row, in_col, coef) entries.

    The builders below are cached, so every map shares its L: never modify it.
    """
    oi, oj, ki, kj, coef = (np.array(c) for c in zip(*entries))
    L = sp.csr_matrix(
        (coef, (oi * s_out + oj, ki * s_in + kj)), shape=(s_out**2, s_in**2)
    )
    return L, s_in, s_out


@lru_cache(maxsize=None)
def _trace_local(d: int, N: int, M: int):
    """Trace N - M copies off Sym^N(C^d), leaving Sym^M(C^d)."""
    index = {occ: i for i, occ in enumerate(occupations(d, N))}
    kept = occupations(d, M)
    scale = comb(N, M)
    entries = [
        (mi, mpi, index[_add(m, r)], index[_add(mp, r)],
         sqrt(_binom_weight(m, r) * _binom_weight(mp, r)) / scale)
        for mi, m in enumerate(kept)
        for mpi, mp in enumerate(kept)
        for r in occupations(d, N - M)
    ]
    return _local_matrix(entries, len(index), len(kept))


@lru_cache(maxsize=None)
def _ppt_local(d: int, N: int, n2: int):
    """Sym^N(C^d) -> partial transpose of the last n2 copies, compressed
    onto Sym^{N-n2} (x) Sym^{n2}."""
    index = {occ: i for i, occ in enumerate(occupations(d, N))}
    pairs = [(u, v) for u in occupations(d, N - n2) for v in occupations(d, n2)]
    split_norm = comb(N, n2)

    def c(u, v):
        return sqrt(_binom_weight(u, v) / split_norm)

    entries = [
        (oi, oj, index[_add(u, vp)], index[_add(up, v)], c(u, vp) * c(up, v))
        for oi, (u, v) in enumerate(pairs)
        for oj, (up, vp) in enumerate(pairs)
    ]
    return _local_matrix(entries, len(index), len(pairs))


def _vec_order(sides) -> np.ndarray:
    """Positions in kron(L_1, ..., L_k) order of the row-major vec of an
    operator on the product of spaces with the given sides."""
    k = len(sides)
    pos = np.arange(prod(s * s for s in sides)).reshape([s for s in sides for _ in "ij"])
    return pos.transpose(list(range(0, 2 * k, 2)) + list(range(1, 2 * k, 2))).ravel()


class LocalMap:
    """I_A (x) L between operators on H_A (x) K_in and H_A (x) K_out.

    ``factors`` holds one (L_i, s_in_i, s_out_i) per party; L is their
    Kronecker product, a real sparse (s_out^2, s_in^2) matrix acting on the
    row-major vec of the K-part.  ``apply`` and ``adjoint`` accept leading
    batch axes.
    """

    def __init__(self, dA: int, factors):
        mats, sides_in, sides_out = zip(*factors)
        L = mats[0]
        for m in mats[1:]:
            L = sp.kron(L, m, format="csr")
        if len(mats) > 1:
            L = L[_vec_order(sides_out)][:, _vec_order(sides_in)]
        self.dA = dA
        self.L = L.tocsr()
        self.size_in, self.size_out = prod(sides_in), prod(sides_out)

    def apply(self, x: np.ndarray) -> np.ndarray:
        return self._act(self.L, x, self.size_in, self.size_out)

    def adjoint(self, y: np.ndarray) -> np.ndarray:
        return self._act(self.L.T, y, self.size_out, self.size_in)

    def _act(self, mat, x, s_in: int, s_out: int) -> np.ndarray:
        dA = self.dA
        x = np.asarray(x, dtype=complex)
        lead = x.shape[:-2]
        # (..., a, k, a', k') -> columns vec(k, k'), one per (..., a, a')
        xk = x.reshape(lead + (dA, s_in, dA, s_in)).swapaxes(-3, -2)
        yk = (mat @ xk.reshape(-1, s_in * s_in).T).T
        y = yk.reshape(lead + (dA, dA, s_out, s_out)).swapaxes(-3, -2)
        return y.reshape(lead + (dA * s_out, dA * s_out))


class TraceMap(LocalMap):
    """X on H_A (x) Sym^N  ->  tr_{B^{N-1}} of the lifted operator."""

    def __init__(self, dA: int, basis: SymmetricBasis):
        super().__init__(dA, [_trace_local(basis.d, basis.N, 1)])


class PptMap(LocalMap):
    """X -> compressed partial transpose across A B^{N-K} | B^K (K factors)."""

    def __init__(self, dA: int, basis: SymmetricBasis, transposed: int):
        if not 0 <= transposed <= basis.N:
            raise ValueError("transposed copy count out of range")
        self.n2 = transposed
        super().__init__(dA, [_ppt_local(basis.d, basis.N, transposed)])


def compressed_maps(dA: int, basis: SymmetricBasis, ppt: bool):
    """The (trace_map, ppt_map) pair for the standard ceil/floor cut."""
    tmap = TraceMap(dA, basis)
    pmap = PptMap(dA, basis, basis.N // 2) if ppt else None
    return tmap, pmap


def reduce_extension(x: np.ndarray, dA: int, d: int, N: int) -> np.ndarray:
    """Trace one B copy off a compressed extension: Sym^N -> Sym^{N-1}."""
    if N < 2:
        raise ValueError("need N >= 2 to reduce")
    return LocalMap(dA, [_trace_local(d, N, N - 1)]).apply(x)


# ---------------------------------------------------------------------------
# SDP compilation
# ---------------------------------------------------------------------------


@dataclass
class _Codec:
    """How one compiled query's Hermitian data meets the real solver.

    Complex data enters through ``embed_complex``, which doubles every block
    side and every inner product (``weight`` = 2), and its rows run over the
    full Hermitian basis.  When rho (and, for a cone query, the objective) is
    real, the SDP is posed over real symmetric X instead: every map L is
    real and the cone is invariant under conjugation, so (X + conj X)/2 is
    feasible whenever X is and has the same value.  The rows then run over
    the real symmetric members of the basis, and ``weight`` is 1.
    """

    query: ExtensionQuery
    tmap: LocalMap
    pmaps: list
    real: bool

    @property
    def weight(self) -> int:
        """Factor on block sides and on inner products under ``embed``."""
        return 1 if self.real else 2

    def embed(self, h: np.ndarray) -> np.ndarray:
        return np.real(h) if self.real else embed_complex(h)

    def unembed(self, r: np.ndarray) -> np.ndarray:
        return r.astype(complex) if self.real else unembed_real(r)

    def basis(self, n: int) -> np.ndarray:
        full = np.array(hermitian_basis(n))
        return full[~np.imag(full).any(axis=(1, 2))] if self.real else full

    def embed_rows(self, rows: np.ndarray, h: np.ndarray):
        """Write the embeddings of a Hermitian stack into (k, n, n) views of
        constraint rows, made exactly symmetric there."""
        rows[...] = self.embed(h)
        rows += rows.swapaxes(1, 2)
        rows *= 0.5


def _compile(q: ExtensionQuery) -> tuple[SdpProblem, _Codec]:
    dA, *dBs = q.rho.factor_dims
    nx = dA * prod(sym_dim(d, q.N) for d in dBs)
    if nx > budget_dim():
        raise BudgetExceeded(
            f"d_A*prod_i sym_dim(d_i,N) = {nx} exceeds "
            f"{BUDGET_ENV} = {budget_dim()}"
        )
    tmap = LocalMap(dA, [_trace_local(d, q.N, 1) for d in dBs])
    cuts = []
    if q.ppt:
        cuts = [q.N // 2] if q.ppt_cuts == "half" else range(1, q.N // 2 + 1)
    # N=1 has an empty transposed side; the PPT block is then X itself
    pmaps = [LocalMap(dA, [_ppt_local(d, q.N, t) for d in dBs]) for t in cuts if t > 0]
    data = [q.rho] if q.objective is None else [q.rho, q.objective]
    codec = _Codec(q, tmap, pmaps, not any(np.imag(op.entries).any() for op in data))
    weight = codec.weight

    if q.reduced_constraint == "trace_match":
        herm_ab = codec.basis(q.rho.dim)
        state = tmap.adjoint(herm_ab)
        state_rhs = weight * np.real(np.sum(herm_ab.conj() * q.rho.entries, axis=(1, 2)))
    elif q.reduced_constraint == "identity_marginal":
        # <F (x) I_B, Lambda> = tr F  for an orthonormal Hermitian basis of A
        f = codec.basis(dA)
        state = tmap.adjoint(np.kron(f, np.eye(q.rho.dim // dA)))
        state_rhs = weight * np.real(np.trace(f, axis1=1, axis2=2))
    else:  # unit_trace
        state = np.eye(nx, dtype=complex)[None]
        state_rhs = weight

    # rows: the state constraints, then per PPT block Y one row
    # <adj(G), X> - <G, Y> = 0 for each G of a Hermitian basis of Y's space
    links = [codec.basis(dA * p.size_out) for p in pmaps]
    block_sizes = [weight * nx] + [weight * g.shape[1] for g in links]
    m = len(state) + sum(len(g) for g in links)
    sense = "maximize" if q.mode == "cone_optimize" else "feasibility"
    problem = SdpProblem(
        block_sizes, [None] * len(block_sizes),
        np.zeros((m, sum(n * n for n in block_sizes))), np.zeros(m), sense,
    )
    x_rows, *y_rows = problem.blocks(problem.constraints)
    start = len(state)
    codec.embed_rows(x_rows[:start], state)
    problem.rhs[:start] = state_rhs
    for pmap, g, y_block in zip(pmaps, links, y_rows):
        rows = slice(start, start + len(g))
        codec.embed_rows(x_rows[rows], pmap.adjoint(g))
        codec.embed_rows(y_block[rows], -g)
        start += len(g)
    if q.mode == "cone_optimize":
        problem.objective[0] = codec.embed(tmap.adjoint(q.objective.entries))
    return problem, codec


def build_bse_sdp(q: ExtensionQuery) -> SdpProblem:
    problem, _ = _compile(q)
    return problem


FEAS_EQUALITY_TOL = 1e-7
FEAS_PSD_SLACK = 1e-9


def _verify_feasible(x: np.ndarray, codec: _Codec) -> tuple[bool, str]:
    q = codec.query
    eq = float(np.max(np.abs(codec.tmap.apply(x) - q.rho.entries)))
    if eq > FEAS_EQUALITY_TOL:
        return False, f"reduced-state residual {eq:.2e}"
    lam = float(np.linalg.eigvalsh(x)[0])
    if lam < -FEAS_PSD_SLACK * 100:
        return False, f"extension min eigenvalue {lam:.2e}"
    for pmap in codec.pmaps:
        lam_p = float(np.linalg.eigvalsh(pmap.apply(x))[0])
        if lam_p < -FEAS_PSD_SLACK * 100:
            return False, f"PPT block min eigenvalue {lam_p:.2e}"
    return True, f"residual {eq:.2e}"


def _decode_witness(sol: SdpSolution, codec: _Codec) -> HermitianOperator | None:
    q = codec.query
    if q.reduced_constraint != "trace_match":
        return None
    herm_ab = codec.basis(q.rho.dim)  # the basis of the state rows
    y = sol.dual_multipliers[: len(herm_ab)]
    w = np.tensordot(y, herm_ab, axes=1)
    w = -0.5 * (w + w.conj().T)
    scale = float(np.linalg.norm(w))
    if scale == 0.0:
        return None
    return HermitianOperator(q.rho.factor_dims, w / scale)


def check_membership(
    q: ExtensionQuery, tol: float = 1e-8, max_iter: int = 200,
    refine_witness: bool = False,
) -> MembershipResult:
    """Does rho admit an N (PPT) Bose-symmetric extension?

    Feasible verdicts always ship an explicit compressed extension that has
    been re-verified against the defining conditions; infeasible verdicts
    ship the dual entanglement witness.  States sitting numerically on the
    cone boundary may come back "undecided".
    """
    if q.mode != "membership":
        raise ValueError("check_membership requires a membership-mode query")
    problem, codec = _compile(q)
    try:
        sol = solve(problem, tol=tol, max_iter=max_iter)
    except SolverBreakdown as exc:
        return MembershipResult("undecided", detail=f"solver breakdown: {exc}")
    if sol.status in ("optimal", "max_iter"):
        x = codec.unembed(sol.primal_blocks[0])
        ok, detail = _verify_feasible(x, codec)
        if ok:
            return MembershipResult("feasible", extension=x, detail=detail)
        if sol.status == "max_iter":
            return MembershipResult("undecided", detail=f"max_iter; {detail}")
        return MembershipResult("undecided", detail=detail)
    if sol.status == "primal_infeasible":
        w = _decode_witness(sol, codec)
        if w is None:
            return MembershipResult("undecided", detail="certificate decode failed")
        if refine_witness:
            w = _refine_witness(q, w)
        return MembershipResult("infeasible", witness=w, detail="dual certificate")
    return MembershipResult("undecided", detail=f"solver status {sol.status}")


def _refine_witness(q: ExtensionQuery, w: HermitianOperator) -> HermitianOperator:
    """Shift the witness by c*I when the cone-side sign condition is slightly
    violated by solver roundoff; the margin on tr(W rho) < 0 dwarfs c."""
    floor = verify_witness(q, w)
    if floor >= 0.0:
        return w
    margin = abs(float(np.vdot(w.entries, q.rho.entries).real))
    shift = min(-floor * 1.5, 0.25 * margin)
    return w.replace_entries(w.entries + shift * np.eye(w.dim))


def verify_witness(q: ExtensionQuery, w: HermitianOperator) -> float:
    """min tr(W sigma) over unit-trace members of the tested cone (aux SDP)."""
    aux = ExtensionQuery(
        rho=q.rho,
        N=q.N,
        ppt=q.ppt,
        mode="cone_optimize",
        objective=HermitianOperator(w.factor_dims, -w.entries),
        reduced_constraint="unit_trace",
        ppt_cuts=q.ppt_cuts,
    )
    return -optimize_over_cone(aux).value


@dataclass
class ConeOptimum:
    value: float
    optimizer: HermitianOperator
    status: str
    iterations: int
    extension: np.ndarray


def optimize_over_cone(
    q: ExtensionQuery, tol: float = 1e-8, max_iter: int = 200
) -> ConeOptimum:
    """max tr(objective . Lambda) over the compressed cone at level N.

    ``value`` is the optimum and ``optimizer`` the reduced optimizer Lambda
    (the partial trace of the optimal extension ``extension``).
    """
    if q.mode != "cone_optimize":
        raise ValueError("optimize_over_cone requires a cone_optimize query")
    problem, codec = _compile(q)
    sol = solve(problem, tol=tol, max_iter=max_iter)
    if sol.status == "dual_infeasible":
        raise SolverBreakdown("cone optimization is unbounded; check constraints")
    if sol.status == "primal_infeasible":
        raise SolverBreakdown("cone constraints are infeasible")
    x = codec.unembed(sol.primal_blocks[0])
    lam = codec.tmap.apply(x)
    return ConeOptimum(
        value=sol.objective_value / codec.weight,
        optimizer=HermitianOperator(q.rho.factor_dims, lam, hermitian_tol=1e-6),
        status=sol.status,
        iterations=sol.iterations,
        extension=x,
    )
