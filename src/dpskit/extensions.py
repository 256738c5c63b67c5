"""Compile (PPT) Bose-symmetric-extension queries into block SDPs.

The query state lives on H_A (x) H_1 (x) ... (x) H_k, k >= 1.  Factor 0 is
A; every further factor is extended N times within its own symmetric
subspace, so the decision variable is always the *compressed* extension X
on H_A (x) Sym^N(H_1) (x) ... (x) Sym^N(H_k).  k = 1 is the bipartite
hierarchy, k >= 2 its locally symmetric multipartite variant.

Every map that connects X to physics is a :class:`LocalMap` I_A (x) L, one
real sparse matrix on the vec of X:

* :class:`TraceMap` : X -> trace over all but M copies of every party
  (M = 1 in the compiled constraints, any M for the rank loop),
* :class:`PptMap`   : X -> partial transpose over the last N2 copies of
  every party, compressed onto Sym^{N-N2} (x) Sym^{N2} per party.

Both map classes take (d_A, the extended factor dims, N, ...), so nothing
downstream needs the d^N isometry of :mod:`dpskit.symmetric`.

The matrix is the Kronecker product of the per-party matrices, A's the
identity, and ``apply``, ``adjoint`` and the free form's Gamma(F_k) all
multiply by it.  All coefficients are exact occupation-number
combinatorics; the naive lift/operate/compress pipeline is kept in the
test suite as an oracle only.

A unit_trace query without a PPT block needs no SDP: its optimum is the
top eigenvalue of L^dag(objective) (``optimize_over_cone``), and neither
does membership of an NPT state with one, which the Peres test decides
exactly (``_peres``: S_p^N lies inside the PPT set).  Any other query
compiles to one of two SDP forms (``_compile``):

* without a PPT block (the rows form), X is the solver's primal variable,
  tied to the data by its few state rows (trace_match: Lambda = rho;
  identity_marginal: Lambda_A = I; unit_trace: tr X = 1);
* with a PPT block (the free form), X = X0 + sum_k y_k F_k runs over the
  solutions of the state rows (F_k a sparse orthonormal kernel basis, one
  occupation-difference sector at a time), and X(y) >= 0, Gamma(X(y)) >= 0
  are LMIs in the solver's dual form (Lofberg, "Dualize it", Optim. Methods
  Softw. 24, 2009).  Gamma is the one ``PptMap`` of S_p^N, across
  A B^{ceil(N/2)} | B^{floor(N/2)}.  The rows are X's free parameters, and
  the PPT block costs no row.

A cone query that compiles to an SDP is graded by the local sign flips that
fix its data (``_grading``): X is zero off the flips' classes.  The free
form keeps only X's parameters inside one class: BB84 PPT N=7 has 266 rows,
against 518 ungraded and 3250 with a primal PPT block and its link rows.
The rows form solves X as one primal block per class: the qutrit grid at
N=7 has blocks of sides 26, 26, 30 and 26 in place of one of side 108.

Neither form's constraint matrix A depends on the data beyond its grading:
it is built once per structure, keyed by (factor dims, N, PPT block,
reduced_constraint, real path, grading), as read-only sparse rows that every
query with that key shares, and the solver checks A and prepares its Schur
data once.  A query fills only its own right-hand side b, cost C and (free
form) x0 (``_structure``, ``_compile``).

``_Codec`` reads either form back: the extension, the witness with its
certified cone floor, the objective.  Before it builds any map, ``sdp_size``
predicts the SDP's m, block sides and peak bytes from the query alone, and a
query over ``PEAK_BYTES`` raises ``BudgetExceeded``.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, replace
from functools import lru_cache
from math import comb, prod, sqrt

import numpy as np
import scipy.sparse as sp

from .operators import HermitianOperator, partial_transpose
from .solver import (
    SdpProblem,
    SdpSolution,
    SolverBreakdown,
    SparseRows,
    _cholesky,
    hermitian_basis,
    hermitian_vecs,
    solve,
    sparse_rows,
    workspace_bytes,
)
from .symmetric import occupations, sym_dim

__all__ = [
    "BudgetExceeded",
    "ExtensionQuery",
    "MembershipResult",
    "LocalMap",
    "TraceMap",
    "PptMap",
    "check_membership",
    "optimize_over_cone",
    "ConeOptimum",
    "sdp_size",
    "verify_witness",
]


class BudgetExceeded(RuntimeError):
    """The query's SDP would need more than ``PEAK_BYTES`` (``sdp_size``), or
    it ran out of memory while compiling or solving; the message names the
    query, m, the block sides and the predicted peak."""


@dataclass(frozen=True)
class ExtensionQuery:
    """A membership or cone-optimization request against S^N or S_p^N.

    ``rho`` has factors (A, B_1, ..., B_k); each B_i is extended N times.
    ``reduced_constraint`` picks the linear condition on the reduced
    operator: "trace_match" (Lambda = rho: a membership query, which takes
    no objective), "identity_marginal" (Lambda_A = I, the state-estimation
    normalization) or "unit_trace" (optimization over normalized cone
    members); the last two maximize tr(objective . Lambda).  ``ppt`` asks
    for S_p^N: extensions that are also PPT across the single cut
    A B^{ceil(N/2)} | B^{floor(N/2)}, the last floor(N/2) copies transposed
    (no cut at N = 1).
    """

    rho: HermitianOperator
    N: int
    ppt: bool = False
    objective: HermitianOperator | None = None
    reduced_constraint: str = "trace_match"

    def __post_init__(self):
        if self.rho.nfactors < 2:
            raise ValueError("query state needs at least two factors (A, B, ...)")
        if min(self.rho.factor_dims[1:]) < 2:
            raise ValueError(
                f"every factor after A needs dimension >= 2, got {self.rho.factor_dims}"
            )
        if self.N < 1:
            raise ValueError("extension size N must be >= 1")
        kind = self.reduced_constraint
        if kind not in ("trace_match", "identity_marginal", "unit_trace"):
            raise ValueError(f"unknown reduced_constraint {kind!r}")
        if kind == "trace_match" and self.objective is not None:
            raise ValueError("a trace_match (membership) query takes no objective")
        if kind != "trace_match" and self.objective is None:
            raise ValueError(f"{kind} requires an objective operator")
        if self.objective is not None and self.objective.dim != self.rho.dim:
            raise ValueError(f"objective side {self.objective.dim} != rho side {self.rho.dim}")


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

    ``factors`` holds one (L_i, s_in_i, s_out_i) per party.  ``matrix`` is
    the Kronecker product of I_{d_A^2}, A's local map, and the L_i, reordered
    to act on the row-major vec of the whole operator: a real sparse
    ((d_A s_out)^2, (d_A s_in)^2) matrix.  ``apply`` and ``adjoint`` accept
    leading batch axes and return C-contiguous arrays.
    """

    def __init__(self, dA: int, factors):
        mats, sides_in, sides_out = zip(*factors)
        mat = sp.identity(dA * dA, format="csr")
        for m in mats:
            mat = sp.kron(mat, m, format="csr")
        self.dA = dA
        self.size_in, self.size_out = prod(sides_in), prod(sides_out)
        self.matrix = mat[_vec_order((dA,) + sides_out)][:, _vec_order((dA,) + sides_in)]

    def apply(self, x: np.ndarray) -> np.ndarray:
        return self._times(self.matrix, x, self.dA * self.size_out)

    def adjoint(self, y: np.ndarray) -> np.ndarray:
        return self._times(self.matrix.T, y, self.dA * self.size_in)

    @staticmethod
    def _times(mat, x, side: int) -> np.ndarray:
        x = np.asarray(x, dtype=complex)
        y = mat @ x.reshape(-1, x.shape[-1] ** 2).T
        return np.ascontiguousarray(y.T).reshape(x.shape[:-2] + (side, side))


class TraceMap(LocalMap):
    """X on H_A (x) (x)_i Sym^N(C^{d_i})  ->  the reduced operator on
    H_A (x) (x)_i Sym^kept(C^{d_i}): N - kept copies of every party traced off."""

    def __init__(self, dA: int, dims, N: int, kept: int = 1):
        if not 0 <= kept <= N:
            raise ValueError("kept copy count out of range")
        super().__init__(dA, [_trace_local(d, N, kept) for d in dims])


class PptMap(LocalMap):
    """X -> compressed partial transpose across A B^{N-K} | B^K (K factors)."""

    def __init__(self, dA: int, dims, N: int, transposed: int):
        if not 0 <= transposed <= N:
            raise ValueError("transposed copy count out of range")
        super().__init__(dA, [_ppt_local(d, N, transposed) for d in dims])


# ---------------------------------------------------------------------------
# SDP compilation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _Codec:
    """How one compiled query's Hermitian data meets the solver.

    Complex data is posed over complex Hermitian X, as it is, and its rows
    run over the full Hermitian basis.  When rho (and, for a cone query, the
    objective) is real, the SDP is posed over real symmetric X instead:
    every map L is real and the cone is invariant under conjugation, so
    (X + conj X)/2 is feasible whenever X is and has the same value.  The
    rows then run over the real symmetric members of the basis, and the
    solver runs in float64 (``real``).

    A query with a PPT block is compiled to the free form, and then ``state``
    holds its state rows <R_i, X> = r_i and ``gram`` their Gram matrix, and
    ``x0`` and ``kernel`` parameterize X = x0 + sum_k y_k F_k (row k of
    ``kernel`` is vec F_k); otherwise all four are None and X is the
    solver's primal variable.  ``state``, ``gram`` and ``kernel`` belong to
    the query's shared ``_Structure``.
    A graded cone query (``grading``: the class of each index of X, see
    ``_grading``) keeps only the state rows of X zero off its classes.  In
    the free form its F_k are zero off the classes too; in the rows form
    each class is one primal block (``blocks``), ``set_objective`` cuts the
    cost into them and ``extension`` puts them back, zero in between.
    """

    query: ExtensionQuery
    tmap: LocalMap
    pmap: PptMap | None  # Gamma, the PPT block's map; None without one
    real: bool
    grading: tuple | None = None
    state: np.ndarray | None = None
    gram: np.ndarray | None = None
    x0: np.ndarray | None = None
    kernel: sp.csr_matrix | None = None

    @property
    def nx(self) -> int:
        """The side of the compressed extension X."""
        return self.tmap.dA * self.tmap.size_in

    @property
    def blocks(self) -> list:
        """The indices of X in each primal block of the rows form
        (``_class_blocks``)."""
        return _class_blocks(self.grading, self.nx)

    @property
    def infeasible(self) -> str:
        """The solver status that proves the query's own constraints infeasible."""
        return "primal_infeasible" if self.kernel is None else "dual_infeasible"

    def cast(self, h: np.ndarray) -> np.ndarray:
        """Hermitian h as the solver's data: its real part on the real path."""
        return np.real(h) if self.real else h

    def rhs(self) -> np.ndarray:
        """r, the right-hand sides of the query's state rows <R_i, X> = r_i
        (R from ``_state_rows``)."""
        q = self.query
        if q.reduced_constraint == "trace_match":
            h = _basis(q.rho.dim, self.real)
            return np.real(np.sum(h.conj() * q.rho.entries, axis=(1, 2)))
        if q.reduced_constraint == "identity_marginal":
            f = _marginal_basis(self.tmap.dA, self.real, self.grading)
            return np.real(np.trace(f, axis1=1, axis2=2))
        return np.ones(1)  # unit_trace

    def set_objective(self, problem: SdpProblem, w: np.ndarray, sense: str):
        """Make ``problem`` minimize or maximize <w, X> over the query's set.

        The solver minimizes, so to maximize <w, X> it minimizes <-w, X>.
        In the rows form that is X's cost.  In the free form
        <w, X(y)> = <w, x0> + sum_k y_k <w, F_k>, and the solver maximizes
        b.y over its dual, so b_k = -<w, F_k>.
        """
        if sense == "maximize":
            w = -w
        if self.kernel is None:
            w = self.cast(w)
            problem.objective[:] = [w[np.ix_(i, i)] for i in self.blocks]
        else:
            problem.rhs[:] = -np.real(self.kernel.conj() @ np.ravel(w))

    def extension(self, sol: SdpSolution) -> np.ndarray:
        """The compressed extension X that a solution encodes."""
        if self.kernel is None:
            x = np.zeros((self.nx, self.nx), complex)
            for i, block in zip(self.blocks, sol.primal_blocks):
                x[np.ix_(i, i)] = block
            return x
        x = self.x0 + (self.kernel.T @ sol.dual_multipliers).reshape(self.x0.shape)
        return 0.5 * (x + x.conj().T)

    def witness(self, sol: SdpSolution) -> tuple[HermitianOperator, float] | None:
        """The unit-norm witness W of a trace_match query from the
        certificate of a ``self.infeasible`` solution, and its certified
        cone floor: a lower bound on min tr(W Lambda) over unit-trace
        members Lambda of the tested cone.  W separates rho when the floor
        is >= 0 and tr(W rho) < 0.

        In the rows form W = -sum_i y_i h_i over the state rows' basis.  In
        the free form the certificate is a ray (W_X, W_Y) of the two LMIs
        with <W_X, F_k> + <W_Y, Gamma(F_k)> = 0, so
        W_X + Gamma^dag(W_Y) = L^dag(W) lies in the span of the state rows
        L^dag(h_i), and W's coefficients solve for it.

        The floor needs no second SDP (after Jansson, Chaykin & Keil,
        "Rigorous error bounds for the optimal value in semidefinite
        programming", SIAM J. Numer. Anal. 46, 2007).  For a cone member
        Lambda = L(X) with tr X = 1 and any What >= 0,
        tr(W Lambda) = <L^dag(W) - Gamma^dag(What), X> + <What, Gamma(X)>
        >= lambda_min(L^dag(W) - Gamma^dag(What)).  What is the PSD part of
        W_Y, scaled like W, so the bound holds whatever the ray's residual.
        Without a PPT block it is lambda_min(L^dag(W)), the exact minimum.
        """
        q = self.query
        if q.reduced_constraint != "trace_match":
            return None
        if self.kernel is None:
            coef = -sol.dual_multipliers
        else:
            wx, wy = (block.astype(complex) for block in sol.certificate)
            g = wx + self.pmap.adjoint(wy)
            rows = self.state.reshape(len(self.state), -1)
            coef = np.linalg.solve(self.gram, np.real(rows.conj() @ g.ravel()))
        w = np.tensordot(coef, _basis(q.rho.dim, self.real), axes=1)
        w = 0.5 * (w + w.conj().T)
        scale = float(np.linalg.norm(w))
        if scale == 0.0:
            return None
        w /= scale
        floor_map = self.tmap.adjoint(w)
        if self.kernel is not None:
            lam, vec = np.linalg.eigh(wy)
            floor_map -= self.pmap.adjoint((vec * (np.maximum(lam, 0.0) / scale)) @ vec.conj().T)
        floor = float(np.linalg.eigvalsh(0.5 * (floor_map + floor_map.conj().T))[0])
        return HermitianOperator(q.rho.factor_dims, w), floor


def transposed_copies(N: int) -> int:
    """The copies of B that the PPT block transposes: N//2, the S_p^N cut
    A B^ceil(N/2) | B^floor(N/2)."""
    return N // 2


def _has_ppt_block(q: ExtensionQuery) -> bool:
    """Whether the query compiles to a PPT block.  N=1 has an empty
    transposed side; its PPT block would be X itself, so it has none."""
    return q.ppt and q.N > 1


@lru_cache(maxsize=None)
def _shared_map(cls: type, dA: int, dims: tuple, N: int, count: int) -> LocalMap:
    """``cls(dA, dims, N, count)``, a ``TraceMap`` or ``PptMap``, built once
    per key and shared: never modify it."""
    return cls(dA, dims, N, count)


def _maps(dims: tuple, N: int, ppt: bool) -> tuple[TraceMap, PptMap | None]:
    """The trace map of level N on factors ``dims`` and, with a PPT block,
    Gamma (``_shared_map``s)."""
    dA, *dBs = dims
    pmap = _shared_map(PptMap, dA, tuple(dBs), N, transposed_copies(N)) if ppt else None
    return _shared_map(TraceMap, dA, tuple(dBs), N, 1), pmap


@lru_cache(maxsize=None)
def _basis(n: int, real: bool) -> np.ndarray:
    """``hermitian_basis(n, real)``, built once per key and read-only."""
    basis = hermitian_basis(n, real)
    basis.flags.writeable = False
    return basis


# An entry of rho or of the objective counts as nonzero for the grading above
# GRADING_RTOL times the operator's largest entry: the qutrit grid's
# cancelling sums leave residues of 1.5e-17 where its pattern has zeros.
GRADING_RTOL = 1e-14


@lru_cache(maxsize=None)
def _occupation_bits(d: int, N: int, first: int) -> np.ndarray:
    """The parity vector of each basis vector of Sym^N(C^d), occupations(d, N)
    mod 2, as an int64 bit mask on bits first, ..., first + d - 1."""
    occ = np.array(occupations(d, N), dtype=np.int64)
    bits = (occ % 2) @ (np.int64(1) << np.arange(first, first + d, dtype=np.int64))
    bits.flags.writeable = False
    return bits


def _product_bits(masks) -> np.ndarray:
    """The bit masks of a product basis in row-major order, the XOR of one
    mask of every factor's ``masks``."""
    out = masks[0]
    for m in masks[1:]:
        out = np.bitwise_xor.outer(out, m).ravel()
    return out


def _grading(q: ExtensionQuery) -> tuple | None:
    """The classes of X's indices under the local sign flips that fix rho
    and the objective: a label per index of X, or None for a single class
    or for factors with more than 63 basis vectors between them.

    Every basis vector of every factor gets one bit.  A flip g, a 0/1 vector
    over the bits acting as diag((-1)^g) on each factor, fixes the entry
    rho_(i),(j) when g . v_ij = 0 over GF(2), with v_ij = sum_f
    (e_{f,i_f} + e_{f,j_f}).  So the flips that fix rho and the objective
    annihilate the row space R of the v_ij of their nonzero entries (above
    GRADING_RTOL).  On the symmetric basis a flip multiplies index
    (a, occ_1, ..., occ_k) of X by (-1)^(g . c), c = e_a + (occ_f mod 2)_f,
    so an entry of X is fixed when its two indices' c agree modulo R: c
    reduced modulo R is the class.

    The maps and the cone commute with every flip, so averaging a feasible
    X over the group gives a feasible X, zero off its classes, of the same
    value: the optimum is reached there (the diagonal case of Gatermann &
    Parrilo, J. Pure Appl. Algebra 192, 2004).  A state row that lies off
    the classes vanishes on every such X and has right-hand side 0, so both
    SDP forms drop it and keep only X's class blocks: the free form X's
    parameters inside one class, the rows form one primal block per class.

    ``_size`` grades the cone queries that compile to an SDP:
    identity_marginal ones, and unit_trace ones with a PPT block.  A
    unit_trace query without one takes the eigh route
    (``optimize_over_cone``) and computes no grading.  Membership
    (trace_match) stays ungraded because ``certify``'s rank search explores
    the compiled feasible set, and a sign-symmetric extension can have
    higher rank than the lowest one.
    """
    dims = q.rho.factor_dims
    if sum(dims) > 63:
        return None  # past 63 bits the masks leave int64: ungraded
    first = np.cumsum((0,) + dims)
    units = [np.int64(1) << np.arange(first[f], first[f + 1], dtype=np.int64)
             for f in range(len(dims))]
    c = _product_bits(units)
    rows = [np.zeros(1, np.int64)]  # the trivial equation: never a pivot, never empty
    for op in (q.rho, q.objective):
        mag = np.abs(op.entries)
        i, j = np.nonzero(mag > GRADING_RTOL * mag.max())
        rows.append(c[i] ^ c[j])
    eqs = sum(map(len, rows))
    rows.append(_product_bits(units[:1] + [_occupation_bits(d, q.N, first[f + 1])
                                            for f, d in enumerate(dims[1:])]))
    v = np.concatenate(rows)
    # Gaussian elimination over GF(2) with pivots among the equations only:
    # each pivot clears its bit from every other row, X's rows included, so
    # they end reduced modulo R, with every pivot bit 0
    for b in range(first[-1]):
        hit = (v >> b) & 1 == 1
        pivot = np.argmax(hit[:eqs])
        if hit[pivot]:
            v[hit] ^= v[pivot]
    _, label = np.unique(v[eqs:], return_inverse=True)
    return tuple(label.tolist()) if label.max() > 0 else None


def _inside(classes: np.ndarray, real: bool) -> np.ndarray:
    """Which members of ``hermitian_vecs(len(classes), real)`` lie inside one
    class: those whose entries (i, j) have classes[i] == classes[j]."""
    n = len(classes)
    iu, ju = np.triu_indices(n, 1)
    return np.concatenate([np.ones(n, bool), np.repeat(classes[iu] == classes[ju], 1 if real else 2)])


def _class_blocks(grading: tuple | None, n: int) -> list:
    """The indices of X (side n) in each class of ``grading``, in label order:
    the rows form's primal blocks.  Without a grading, all of X."""
    labels = np.zeros(n, int) if grading is None else np.asarray(grading)
    return [np.flatnonzero(labels == c) for c in range(labels.max() + 1)]


def _a_classes(grading: tuple, dA: int) -> np.ndarray:
    """The classes of A's indices: those of X's indices (a, first occupation)."""
    return np.asarray(grading)[:: len(grading) // dA]


def _marginal_basis(dA: int, real: bool, grading: tuple | None) -> np.ndarray:
    """The Hermitian basis members of A whose Lambda_A entries an
    identity_marginal query pins: all, or with a grading those inside A's
    classes.  Every other member's row vanishes on X zero off its classes,
    with right-hand side tr F = 0."""
    f = _basis(dA, real)
    return f if grading is None else f[_inside(_a_classes(grading, dA), real)]


# ``sdp_size``'s predicted peak counts, besides the Schur workspace and the
# state rows, SOLVE_COPIES vec-space arrays (sum_b n_b^2 entries of A's
# dtype: the iterate, its directions, residuals and HKM images, the inverse
# Cholesky factors and Z^{-1}), FREE_FORM_COPIES more for the free form's
# structure (A, its two Schur copies, the kernel basis), and the RSS that a
# first solve adds whatever its size (LAPACK's pages, allocator arenas).
SOLVE_COPIES, FREE_FORM_COPIES, FIRST_SOLVE_BYTES = 30, 34, 6 << 20
# A query whose predicted peak exceeds PEAK_BYTES raises BudgetExceeded.
# Measured (peak RSS less RSS after import, fresh process, 2-core Xeon)
# against predicted MiB:
#   qubit PPT membership, N = 8, 13, 17, 22: real 12/14, 33/33, 52/52, 95/94;
#     complex 27/28, 61/57, 106/101, 227/214
#   qutrit fidelity PPT, N = 2, 3, 4, 5, one class: 7.2/9.2, 29/30, 58/57, 142/137;
#     graded (4 classes): 6.8/7.1, 13/14, 29/31, 43/47
#   qutrit fidelity without PPT, N = 10, 14, graded (class sides 51, 45, 51, 51
#     and 92, 84, 92, 92): 4.9/10, 13/20; one block (sides 198, 360): 16/22, 45/59
PEAK_BYTES = 1 << 30


def sdp_size(
    dims: tuple, N: int, ppt: bool, kind: str, real: bool, grading: tuple | None = None
) -> tuple[int, tuple, int]:
    """(m, block sides, predicted peak bytes) of the SDP of a ``kind`` query
    on factors ``dims`` at level N, with a PPT block or not, on the real path
    or not, graded or not (the ``_structure`` key), in closed form: no map is
    built.  A grading keeps, per class of size c, c(c+1)/2 (real) or c^2
    parameters of X in the free form and a primal block of side c in the
    rows form, and the state rows of A's classes (``_marginal_basis``).

    The peak is sized as SDPA sizes its workspace (Yamashita, Fujisawa &
    Kojima, Optim. Methods Softw. 18, 2003): the solver's
    ``workspace_bytes``, a fixed count of vec-space arrays, the compile's
    dense state rows (s n_X^2 complex entries) and FIRST_SOLVE_BYTES.
    """
    dA, *dBs = dims
    nx = dA * prod(sym_dim(d, N) for d in dBs)
    x_classes, a_classes = [nx], [dA]
    if grading is not None:
        x_classes, a_classes = np.bincount(grading), np.bincount(_a_classes(grading, dA))

    def count(classes) -> int:
        return sum(int(c) * (int(c) + 1) // 2 if real else int(c) ** 2 for c in classes)

    s = {"trace_match": count([prod(dims)]), "identity_marginal": count(a_classes)}.get(kind, 1)
    sides, m, copies = tuple(int(c) for c in x_classes), s, SOLVE_COPIES
    if ppt:
        k = transposed_copies(N)
        sides = (nx, dA * prod(sym_dim(d, N - k) * sym_dim(d, k) for d in dBs))
        m, copies = count(x_classes) - s, SOLVE_COPIES + FREE_FORM_COPIES
    item = 8 if real else 16
    vecs = copies * item * sum(n * n for n in sides)
    return m, sides, workspace_bytes(m, sides, item) + vecs + 16 * s * nx * nx + FIRST_SOLVE_BYTES


def _size(q: ExtensionQuery) -> tuple[bool, tuple | None, int, str]:
    """Whether the query takes the real path, its grading (``_grading``),
    its predicted peak bytes, and the query with its SDP's size in words."""
    data = [q.rho] if q.objective is None else [q.rho, q.objective]
    real = not any(np.imag(op.entries).any() for op in data)
    kind = q.reduced_constraint
    graded = kind == "identity_marginal" or (kind == "unit_trace" and _has_ppt_block(q))
    grading = _grading(q) if graded else None
    m, sides, peak = sdp_size(q.rho.factor_dims, q.N, _has_ppt_block(q), q.reduced_constraint,
                              real, grading)
    return real, grading, peak, (
        f"the N={q.N}{' PPT' if q.ppt else ''} {q.reduced_constraint} query on factors "
        f"{q.rho.factor_dims} (m = {m} equality rows, block sides {list(sides)}, "
        f"predicted peak {peak / 2**20:.1f} MiB)"
    )


def _codec(q: ExtensionQuery) -> _Codec:
    """The maps and arithmetic of a query whose predicted peak is at most
    PEAK_BYTES (BudgetExceeded otherwise, before any map is built)."""
    real, grading, peak, size = _size(q)
    if peak > PEAK_BYTES:
        raise BudgetExceeded(f"{size} exceeds the {PEAK_BYTES / 2**20:.0f} MiB limit")
    return _Codec(q, *_maps(q.rho.factor_dims, q.N, _has_ppt_block(q)), real, grading)


def _state_rows(
    tmap: LocalMap, dim: int, kind: str, real: bool, grading: tuple | None
) -> np.ndarray:
    """R, the Hermitian state rows <R_i, X> = r_i of a ``kind`` query on a
    state of side ``dim`` (``_Codec.rhs`` gives r): L^dag of the basis
    members of the part of Lambda that ``kind`` pins."""
    if kind == "trace_match":
        return tmap.adjoint(_basis(dim, real))
    if kind == "identity_marginal":
        # <F (x) I_B, Lambda> = tr F  for an orthonormal Hermitian basis of A
        f = _marginal_basis(tmap.dA, real, grading)
        return tmap.adjoint(np.kron(f, np.eye(dim // tmap.dA)))
    return np.eye(tmap.dA * tmap.size_in, dtype=complex)[None]  # unit_trace


def _kernel(rows: np.ndarray) -> sp.csc_matrix:
    """An orthonormal basis of the null space of a real matrix of full row
    rank, as the columns of a sparse matrix.

    Rows that share no column, directly or through other rows, decouple.
    Each group of linked rows is reduced on the columns it touches, so every
    null vector lives on one group's columns (for the trace map, one sector
    of equal occupation difference), and an untouched column is a null
    vector by itself.
    """
    # imported on use: it loads scipy.sparse.linalg, about 2 MiB
    from scipy.sparse.csgraph import connected_components

    m, n = rows.shape
    row, col = np.nonzero(rows)
    # components of the bipartite graph: row i is node i, column j node m + j
    graph = sp.csr_matrix((np.ones(len(row)), (row, m + col)), shape=(m + n, m + n))
    _, label = connected_components(graph, directed=False)
    row_label, col_label = label[:m], label[m:]
    free = np.flatnonzero(~np.isin(col_label, row_label))  # in no row's component
    entries = [(free, np.arange(len(free)), np.ones(len(free)))]
    count = len(free)
    for g in dict.fromkeys(row_label.tolist()):  # in order of first row
        r, c = np.flatnonzero(row_label == g), np.flatnonzero(col_label == g)
        null = np.linalg.svd(rows[np.ix_(r, c)])[2][len(r):]
        entries.append((np.tile(c, len(null)), np.repeat(count + np.arange(len(null)), len(c)),
                        null.ravel()))
        count += len(null)
    i, j, v = (np.concatenate(e) for e in zip(*entries))
    return sp.csc_matrix((v, (i, j)), shape=(n, count))


def _hermitize(v: sp.csr_matrix, n: int) -> sp.csr_matrix:
    """Rows of vecs of side-n matrices, each made exactly Hermitian."""
    return 0.5 * (v + v[:, np.arange(n * n).reshape(n, n).T.ravel()].conj())


def _solver_rows(v: sp.spmatrix, real: bool) -> sp.coo_array:
    """The rows of v (``real``: their real part) with no explicit zeros."""
    v = v.tocoo()
    val = v.data.real if real else v.data
    keep = val != 0
    return sp.coo_array((val[keep], (v.row[keep], v.col[keep])), shape=v.shape)


@dataclass(frozen=True)
class _Structure:
    """The part of a compiled query that its data does not enter, shared by
    every query with one ``_structure`` key.  Every array in it is read-only.

    ``constraints`` is A, with its block sides.  In the free form
    ``state`` holds the state rows R_i, ``gram`` their Gram matrix
    Re <R_i, R_j> and ``kernel`` the F_k; in the rows form row i of A is R_i
    cut into its blocks on X's classes, and the three are None.
    """

    constraints: SparseRows
    state: np.ndarray | None = None
    gram: np.ndarray | None = None
    kernel: sp.csr_matrix | None = None


@lru_cache(maxsize=None)
def _structure(
    dims: tuple, N: int, ppt: bool, kind: str, real: bool, grading: tuple | None
) -> _Structure:
    """The structure of every ``kind`` query on factors ``dims`` at level N,
    with a PPT block or not, on the real path or not, with its grading or
    none.  Built on the first such query and kept, A checked and with its
    Schur data, so later queries fill only their b, C and x0."""
    tmap, pmap = _maps(dims, N, ppt)
    state = _state_rows(tmap, prod(dims), kind, real, grading)
    n = tmap.dA * tmap.size_in
    if pmap is None:
        blocks = _class_blocks(grading, n)
        cols = np.concatenate([(i[:, None] * n + i).ravel() for i in blocks])
        rows = _hermitize(sp.csr_matrix(state.reshape(len(state), -1)), n)[:, cols]
        return _Structure(sparse_rows(_solver_rows(rows, real), [len(i) for i in blocks]))
    return _free_form(tmap, pmap, state, real, grading)


def _free_form(
    tmap: TraceMap, pmap: PptMap, state: np.ndarray, real: bool, grading: tuple | None
) -> _Structure:
    """The LMIs X(y) >= 0 and Gamma(X(y)) >= 0 over X(y) = x0 + sum_k y_k F_k,
    as the dual slack C - sum_k y_k A_k of the solver's standard form:
    C = (x0, Gamma(x0)) and A_k = -(F_k, Gamma(F_k)).  Only C depends on the
    data, and ``_compile`` fills it.

    x0 is the least-norm solution of the state rows and the F_k an
    orthonormal, sparse basis of their kernel, so X(y) meets the state rows
    for every y and no PPT block costs an equality row (Lofberg, "Dualize
    it", Optim. Methods Softw. 24, 2009).  With a grading the F_k run over
    the Hermitian basis members inside one class only, so every X(y) is zero
    off its classes, and ``state`` holds only the rows that such X meet
    (``_marginal_basis``).
    """
    n = tmap.dA * tmap.size_in
    basis = hermitian_vecs(n, real)
    if grading is not None:
        basis = basis[_inside(np.asarray(grading), real)]
    flat = state.reshape(len(state), -1)
    kernel = (_kernel(np.real(basis.conj() @ flat.T).T).T @ basis).tocsr()
    sides = [n, tmap.dA * pmap.size_out]
    vecs = [kernel, _hermitize(kernel @ pmap.matrix.T, sides[1])]
    a = sp.hstack([_solver_rows(v, real) for v in vecs])
    gram = np.real(flat.conj() @ flat.T)
    for arr in (state, gram, kernel.data, kernel.indices, kernel.indptr):
        arr.flags.writeable = False
    return _Structure(sparse_rows(-a, sides), state, gram, kernel)


def _compile(q: ExtensionQuery) -> tuple[SdpProblem, _Codec]:
    """The query's block SDP and the codec that reads its solutions.

    A query with a PPT block compiles to the free form (``_free_form``),
    whose rows are X's free parameters; any other keeps X as the primal
    variable, one block per class, with one equality row per state row, far
    fewer than X's parameters.  Everything but b, C and x0 comes from
    ``_structure``, and every query with its key shares that A.
    """
    codec = _codec(q)
    s = _structure(q.rho.factor_dims, q.N, codec.pmap is not None,
                   q.reduced_constraint, codec.real, codec.grading)
    rhs = codec.rhs()
    if s.kernel is None:
        problem = SdpProblem(list(s.constraints.sizes), [None] * len(s.constraints.sizes),
                             s.constraints, rhs)
    else:
        # the least-norm solution lies in the span of the rows
        x0 = np.tensordot(np.linalg.solve(s.gram, rhs), s.state, axes=1)
        codec = replace(codec, state=s.state, gram=s.gram, kernel=s.kernel,
                        x0=0.5 * (x0 + x0.conj().T))
        offsets = [codec.x0, codec.pmap.apply(codec.x0)]
        # b = 0 makes the solve a feasibility test; set_objective fills b
        problem = SdpProblem(
            list(s.constraints.sizes),
            [codec.cast(0.5 * (c + c.conj().T)) for c in offsets],
            s.constraints,
            np.zeros(len(s.constraints)),
        )
    if q.objective is not None:
        codec.set_objective(problem, codec.tmap.adjoint(q.objective.entries), "maximize")
    return problem, codec


@contextmanager
def _memory_budget(q: ExtensionQuery):
    """Report running out of memory as BudgetExceeded, naming the query and
    its size."""
    try:
        yield
    except MemoryError as exc:
        raise BudgetExceeded(f"out of memory on {_size(q)[3]}") from exc


FEAS_EQUALITY_TOL = 1e-7
# an eigenvalue above -FEAS_PSD_TOL counts as PSD when a verdict is re-verified
FEAS_PSD_TOL = 1e-7


def _verify_feasible(x: np.ndarray, codec: _Codec) -> tuple[bool, str]:
    """Whether x meets the query's state rows within FEAS_EQUALITY_TOL and
    x and its PPT block have lambda_min >= -FEAS_PSD_TOL, with the detail.

    A block passes when block + FEAS_PSD_TOL*I has a Cholesky factor; the
    smallest eigenvalue is computed only to word a failure."""
    q = codec.query
    eq = float(np.max(np.abs(codec.tmap.apply(x) - q.rho.entries)))
    if not eq <= FEAS_EQUALITY_TOL:  # a NaN residual fails too
        return False, f"reduced-state residual {eq:.2e}"
    blocks = [("extension", x)]
    if codec.pmap is not None:
        blocks.append(("PPT block", codec.pmap.apply(x)))
    for name, block in blocks:
        try:
            _cholesky(block + FEAS_PSD_TOL * np.eye(len(block)))
        except np.linalg.LinAlgError:
            lam = float(np.linalg.eigvalsh(block)[0])
            return False, f"{name} min eigenvalue {lam:.2e}"
    return True, f"residual {eq:.2e}"


def _peres(rho: HermitianOperator) -> MembershipResult | None:
    """The Peres test's verdict on rho against S_p^N, N >= 2, or None when
    it cannot decide (lambda_min(rho^{T_B}) >= -FEAS_PSD_TOL) and the query
    takes its SDP.

    Tracing the PPT cut down to one transposed copy of each B keeps
    X^{T_{B^K}} >= 0, and Bose symmetry makes that copy's marginal rho's, so
    every member Lambda of S_p^N has Lambda^{T_B} >= 0 (T_B: every factor
    after A).  For v the eigenvector of lambda_min(rho^{T_B}), the unit-norm
    W = (|v><v|)^{T_B} then has cone floor exactly 0, as
    tr(W Lambda) = <v| Lambda^{T_B} |v> >= 0, and tr(W rho) = lambda_min.
    ``_refine_witness`` recomputes tr(W rho) from W and checks it.
    """
    b = list(range(1, rho.nfactors))
    pt = partial_transpose(rho, b).entries
    lam, vec = np.linalg.eigh(pt if np.imag(pt).any() else pt.real)
    if lam[0] >= -FEAS_PSD_TOL:
        return None
    v = vec[:, 0]
    w = partial_transpose(HermitianOperator(rho.factor_dims, np.outer(v, v.conj())), b)
    return _refine_witness(rho, w, 0.0, "partial transpose (Peres)")


def check_membership(
    q: ExtensionQuery, tol: float = 1e-8, max_iter: int = 200
) -> MembershipResult:
    """Does rho admit an N (PPT) Bose-symmetric extension?

    A query with a PPT block first takes the Peres test (``_peres``): an
    NPT rho is "infeasible" with the witness (|v><v|)^{T_B}, whose cone
    floor is 0, and no SDP is compiled.  Every other query is solved.
    Feasible verdicts always ship an explicit compressed extension that has
    been re-verified against the defining conditions.  Infeasible verdicts
    ship the dual entanglement witness W, checked against the solver's own
    certificate: tr(W rho) < 0, and the certified cone floor (a lower bound
    on tr(W Lambda) over the tested cone, see ``_Codec.witness``) is >= 0,
    after at most a small c*I shift (``_refine_witness``).  No second SDP
    runs.  States sitting numerically on the cone boundary may come back
    "undecided".
    """
    if q.reduced_constraint != "trace_match":
        raise ValueError("check_membership requires a trace_match query")
    peres = _peres(q.rho) if _has_ppt_block(q) else None
    if peres is not None:
        return peres
    with _memory_budget(q):
        problem, codec = _compile(q)
        try:
            sol = solve(problem, tol=tol, max_iter=max_iter)
        except SolverBreakdown as exc:
            return MembershipResult("undecided", detail=f"solver breakdown: {exc}")
    if sol.status in ("optimal", "max_iter"):
        x = codec.extension(sol)
        ok, detail = _verify_feasible(x, codec)
        if ok:
            return MembershipResult("feasible", extension=x, detail=detail)
        if sol.status == "max_iter":
            return MembershipResult("undecided", detail=f"max_iter; {detail}")
        return MembershipResult("undecided", detail=detail)
    if sol.status == codec.infeasible:
        certified = codec.witness(sol)
        if certified is None:
            return MembershipResult("undecided", detail="certificate decode failed")
        return _refine_witness(q.rho, *certified)
    return MembershipResult("undecided", detail=f"solver status {sol.status}")


def _refine_witness(
    rho: HermitianOperator, w: HermitianOperator, floor: float,
    route: str = "dual certificate",
) -> MembershipResult:
    """The verdict on witness W with certified cone floor ``floor``.

    A floor slightly below 0 (solver roundoff) is lifted by shifting W to
    W + c*I, c = 1.5 |floor|, which raises the floor by c; the shift is
    capped at a quarter of the margin |tr(W rho)| so that tr(W rho) stays
    negative.  A witness that the capped shift cannot certify, or that does
    not separate rho, leaves the verdict "undecided".
    """
    value = float(np.vdot(w.entries, rho.entries).real)
    if value >= 0.0:
        return MembershipResult("undecided", detail=f"witness value tr(W rho) {value:.2e} >= 0")
    shift = min(-1.5 * floor, -0.25 * value) if floor < 0.0 else 0.0
    if floor + shift < 0.0:
        return MembershipResult(
            "undecided",
            detail=f"witness cone floor {floor:.2e} below -{shift:.2e}, the largest "
            f"shift that keeps tr(W rho) {value:.2e} negative",
        )
    if shift:
        w = w.replace_entries(w.entries + shift * np.eye(w.dim))
    return MembershipResult(
        "infeasible", witness=w,
        detail=f"{route}; certified cone floor {floor + shift:.2e}",
    )


def verify_witness(q: ExtensionQuery, w: HermitianOperator) -> float:
    """min tr(W sigma) over unit-trace members of the tested cone, by an
    auxiliary cone optimization (one more SDP, also without a PPT block).

    ``check_membership`` reads a certified lower bound on this number off
    the solver's certificate instead; this is the independent oracle for it.
    """
    aux = ExtensionQuery(
        rho=q.rho,
        N=q.N,
        ppt=q.ppt,
        objective=HermitianOperator(w.factor_dims, -w.entries),
        reduced_constraint="unit_trace",
    )
    return -_solve_over_cone(aux).value


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

    A unit_trace query without a PPT block optimizes over the image L(X) of
    the density operators X on H_A (x) Sym^N, so its optimum is exactly
    lambda_max(L^dag(objective)), whatever ``max_iter`` says: one ``eigh``,
    no SDP.  Its extension is P/k, the projector onto the eigenspaces within
    tol*max(1, |lambda_max|) of lambda_max over their dimension k, the
    analytic centre of the optimal face, where the interior-point path ends;
    its status is "optimal" after 0 iterations.  Every other query is
    compiled and solved.
    """
    if q.reduced_constraint == "trace_match":
        raise ValueError("optimize_over_cone needs an identity_marginal or unit_trace query")
    if q.reduced_constraint != "unit_trace" or _has_ppt_block(q):
        return _solve_over_cone(q, tol, max_iter)
    with _memory_budget(q):
        codec = _codec(q)
        c = codec.tmap.adjoint(q.objective.entries)
        c = 0.5 * (c + c.conj().T)
        lam, vec = np.linalg.eigh(np.real(c) if codec.real else c)
        top = vec[:, lam >= lam[-1] - tol * max(1.0, abs(lam[-1]))]
        x = (top @ top.conj().T / top.shape[1]).astype(complex)
    return _cone_optimum(q, codec.tmap, x, "optimal", 0)


def _solve_over_cone(
    q: ExtensionQuery, tol: float = 1e-8, max_iter: int = 200
) -> ConeOptimum:
    """``optimize_over_cone`` by compiling the query and solving its SDP."""
    with _memory_budget(q):
        problem, codec = _compile(q)
        sol = solve(problem, tol=tol, max_iter=max_iter)
    if sol.status == codec.infeasible:
        raise SolverBreakdown("cone constraints are infeasible")
    if sol.status not in ("optimal", "max_iter"):
        raise SolverBreakdown("cone optimization is unbounded; check constraints")
    return _cone_optimum(q, codec.tmap, codec.extension(sol), sol.status, sol.iterations)


def _cone_optimum(
    q: ExtensionQuery, tmap: LocalMap, x: np.ndarray, status: str, iterations: int
) -> ConeOptimum:
    lam = tmap.apply(x)  # Hermitian only to the solver's accuracy
    return ConeOptimum(
        value=float(np.real(np.vdot(q.objective.entries, lam))),
        optimizer=HermitianOperator(q.rho.factor_dims, 0.5 * (lam + lam.conj().T)),
        status=status,
        iterations=iterations,
        extension=x,
    )
