"""Primal-dual interior-point solver for block-PSD programs with sparse data.

Standard form, over Hermitian blocks X = (X_1, ..., X_B):

    minimize    sum_b <C_b, X_b>
    subject to  sum_b <A_ib, X_b> = b_i   (i = 1..m),   X_b >= 0.

The data is held in the SeDuMi-style (A, b) vec form: a point is the vector
x = (vec X_1, ..., vec X_B) of row-major vecs, of length sum_b n_b^2, and
row i of the (m, sum_b n_b^2) matrix A is (vec A_i1, ..., vec A_iB).  The
constraints then read Re(A conj x) = b, as <A_i, X> = Re tr(A_i^H X), and
their adjoint is y -> y A for real y.  The iterates X, Z and the cost live
in this vec space; only the nonlinear steps (Z^{-1}, the Schur complement,
step lengths) work on per-block (n, n) views.

The data type follows the data: a problem whose A or cost is complex runs
over complex Hermitian X, Z and C, taken as they are, as SDPT3 (Toh, Todd &
Tutuncu, Optim. Methods Softw. 11, 1999) and SeDuMi (Sturm, same journal,
11-12, 1999) take them; any other runs over real symmetric ones in float64,
where every conjugate is a no-op.  The multipliers y, the right-hand side b
and the Schur complement M_ij = Re <A_i, Z^{-1} A_j X> are real either way.

The iteration runs on the homogeneous self-dual embedding with the HKM
search direction and a Mehrotra predictor-corrector, so infeasible problems
terminate with an explicit Farkas certificate instead of a diverging
iterate.  That includes contradictory equalities, so no row is ever pruned;
consistent dependent rows only make the Schur complement singular, which
its jittered Cholesky absorbs.  Each solve runs every product with A on one
CSR matrix, including the Schur complement, which is formed the sparse way
of Fujisawa, Kojima & Nakata (Math. Program. 79, 1997) and factored
densely.  Those products call the CSR kernels of ``scipy.sparse`` directly,
without its dispatch, in float64 or complex128; A^T y is the CSC kernel on
A's own arrays.  That module, ``scipy.sparse._sparsetools``, is private,
and the solver's tests pin the signatures used.  A is a ``SparseRows``,
checked Hermitian and cut into its Schur data when ``sparse_rows`` builds
it, and read-only from then on, so many problems and threads share one.
Each solve keeps one workspace, sized by m and the largest chunk of the
Schur formation: every iteration fills the Schur complement and its
Cholesky factor in place, as SDPA does (Yamashita, Fujisawa & Kojima,
Optim. Methods Softw. 18, 2003), and no thread shares it.  The step
back-off tests definiteness by Cholesky factoring each new block (a
non-finite block fails); the step lengths and Z^{-1} reuse the factors it
accepted.  A non-finite direction or iterate ends the solve in
``SolverBreakdown``.  Every dense kernel of an iteration calls LAPACK
directly, skipping the checks of the ``scipy.linalg`` wrappers: ``dpotrf``
factors the Schur complement and ``dpotrs`` solves with its factor; a
block's kernels follow its dtype: ``dpotrf``/``zpotrf`` factor it,
``dtrtri``/``ztrtri`` invert its factor, and a step length takes only the
smallest eigenvalue of L^{-1} dX L^{-H} from ``dsyevr``/``zheevr``, not the
full spectrum (as SDPT3 does).

The dual, max b.y subject to Z = C - sum_i y_i A_i >= 0, is an LMI in the
free variables y.  ``dpskit.extensions`` poses its PPT queries that way,
with b = 0 for a feasibility test: ``dual_multipliers`` and
``dual_slacks`` then carry the solution, and an infeasible LMI ends
"dual_infeasible" with the primal ray as its certificate.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
from scipy.linalg import lapack
from scipy.sparse import _sparsetools

__all__ = [
    "SdpProblem",
    "SdpSolution",
    "SolverBreakdown",
    "SparseRows",
    "hermitian_basis",
    "hermitian_vecs",
    "solve",
    "workspace_bytes",
]


class SolverBreakdown(RuntimeError):
    """Numerical failure distinct from plain iteration-limit exhaustion."""


class SparseRows(sp.csr_array):
    """A constraint matrix A as canonical, read-only CSR, shared by every
    problem compiled from one structure; ``len`` is its row count m, as for a
    dense A.

    ``sparse_rows`` builds it complete, with ``sizes``, the block sides it
    was checked Hermitian on, and ``parts``, their ``_schur_parts``; nothing
    is set on it afterwards.
    """

    sizes = None  # on a slice or cast, which sparse_rows did not build

    def __len__(self) -> int:
        return self.shape[0]

    def __setitem__(self, key, value):
        # an insertion would replace the arrays that read-only flags guard
        raise ValueError("a shared constraint matrix is read-only")


# the Hermiticity tolerance of each block of A's rows and of C, relative to
# max(1, its largest entry)
SYM_TOL = 1e-12


def _asymmetric(rows: sp.csr_matrix, sizes, sym_tol: float) -> list:
    """Per block, the indices of the rows of a canonical CSR (k, sum n_b^2)
    matrix of vecs whose n_b x n_b matrix A is not Hermitian:
    max |A - A^H| > sym_tol * max(1, max |A|).

    Each stored entry is paired with its transpose by a search over the
    sorted (row, column) keys, and compared with that entry's conjugate, so
    the cost is O(nnz log nnz).
    """
    starts = np.cumsum([0] + [n * n for n in sizes])
    col_block = np.repeat(np.arange(len(sizes)), np.diff(starts))
    col_t = np.concatenate(
        [start + np.arange(n * n).reshape(n, n).T.ravel() for start, n in zip(starts, sizes)]
    )
    row = np.repeat(np.arange(rows.shape[0]), np.diff(rows.indptr))
    key = row * starts[-1] + rows.indices
    key_t = row * starts[-1] + col_t[rows.indices]
    pos = np.searchsorted(key, key_t)
    # a sentinel for pos = nnz, a transpose key past every stored key
    key, data = np.append(key, -1), np.append(rows.data, 0.0)
    skew = np.abs(rows.data - np.where(key[pos] == key_t, data[pos], 0.0).conj())
    # (row, block) groups are contiguous in CSR order
    group = row * len(sizes) + col_block[rows.indices]
    first = np.flatnonzero(np.diff(group, prepend=-1))
    scale = np.maximum(1.0, np.maximum.reduceat(np.abs(rows.data), first))
    bad = group[first[np.maximum.reduceat(skew, first) > sym_tol * scale]]
    return [bad[bad % len(sizes) == b] // len(sizes) for b in range(len(sizes))]


def sparse_rows(a, sizes) -> SparseRows:
    """A as a canonical, read-only ``SparseRows`` on blocks of sides
    ``sizes``, checked Hermitian and with its Schur data (a: any sparse or
    dense (m, sum_b n_b^2) matrix, m >= 1)."""
    sizes = tuple(sizes)
    width = sum(n * n for n in sizes)
    if a.ndim != 2 or a.shape[1] != width:
        raise ValueError(f"constraints shape {a.shape} != (m, {width})")
    if a.shape[0] == 0:
        raise ValueError("constraints: m = 0 rows; a problem needs at least one")
    rows = SparseRows(a, dtype=np.result_type(a.dtype, float), copy=True)
    rows.sum_duplicates()
    kind = "Hermitian" if rows.dtype.kind == "c" else "symmetric"
    for b, bad in enumerate(_asymmetric(rows, sizes, SYM_TOL)):
        if len(bad):
            raise ValueError(f"constraint {bad[0]}: block {b} not {kind}")
    for arr in (rows.data, rows.indices, rows.indptr):
        arr.flags.writeable = False
    rows.sizes, rows.parts = sizes, _schur_parts(rows, sizes)
    return rows


@dataclass
class SdpProblem:
    """Block-diagonal standard-form SDP in (A, b) vec form.

    ``constraints`` is the (m, sum_b n_b^2) matrix A, dense, sparse or a
    ``SparseRows`` from ``sparse_rows``: row i is the concatenation of the
    row-major vecs of the Hermitian coefficient matrices (A_i1, ..., A_iB),
    so the constraints read Re(A conj vec(X)) = rhs with ``rhs`` the real
    (m,) vector b.  ``objective[b]`` is the Hermitian cost matrix for block b
    (None = zero, so a problem with no cost is a feasibility test).
    ``sense`` is "minimize" or "maximize".
    """

    block_sizes: list[int]
    objective: list
    constraints: np.ndarray
    rhs: np.ndarray
    sense: str = "minimize"

    def blocks(self, flat: np.ndarray) -> list:
        """Per-block (..., n, n) views of the last axis of a vec-space array."""
        views, start = [], 0
        for n in self.block_sizes:
            views.append(flat[..., start:start + n * n].reshape(flat.shape[:-1] + (n, n)))
            start += n * n
        return views

    def validate(self) -> SparseRows:
        """Check shapes and Hermiticity; return the constraint matrix as a
        ``SparseRows``, complex128 if A or a cost block is complex, else
        float64.

        A ``SparseRows`` built on these block sides in that dtype is returned
        as it is.  Any other A, dense or sparse, goes through ``sparse_rows``,
        cast first when it is real under a complex cost, which meets complex
        iterates.
        """
        if self.sense not in ("minimize", "maximize"):
            raise ValueError(f"unknown sense {self.sense!r}")
        if len(self.objective) != len(self.block_sizes):
            raise ValueError("objective must supply one matrix (or None) per block")
        a = self.constraints
        data = [a, *(c for c in self.objective if c is not None)]
        dtype = np.dtype(complex if any(np.iscomplexobj(d) for d in data) else float)
        sizes = tuple(self.block_sizes)
        if not (isinstance(a, SparseRows) and a.sizes == sizes and a.dtype == dtype):
            a = a if sp.issparse(a) else np.asarray(a)
            a = sparse_rows(a.astype(dtype, copy=False), sizes)
        if np.shape(self.rhs) != (a.shape[0],):
            raise ValueError(f"rhs shape {np.shape(self.rhs)} != ({a.shape[0]},)")
        kind = "Hermitian" if dtype.kind == "c" else "symmetric"
        for b, (n, c) in enumerate(zip(self.block_sizes, self.objective)):
            if c is None:
                continue
            if c.shape != (n, n):
                raise ValueError(f"objective: block {b} shape {c.shape} != {(n, n)}")
            if np.max(np.abs(c - c.conj().T)) > SYM_TOL * max(1.0, np.max(np.abs(c))):
                raise ValueError(f"objective: block {b} not {kind}")
        return a


@dataclass
class SdpSolution:
    status: str  # optimal | primal_infeasible | dual_infeasible | max_iter
    primal_blocks: list
    dual_multipliers: np.ndarray
    objective_value: float
    residuals: tuple  # (primal, dual, gap)
    certificate: list | None = None
    iterations: int = 0
    dual_slacks: list = field(default_factory=list)


def hermitian_vecs(n: int, real: bool = False) -> sp.csr_matrix:
    """Orthonormal Hermitian basis of C^{n x n}, one row-major vec per row of
    a sparse complex (k, n^2) matrix.

    The order is the n diagonal units, then for each pair i < j in row-major
    order (E_ij + E_ji)/sqrt2 followed by i(E_ji - E_ij)/sqrt2.  ``real``
    keeps only the n(n+1)/2 real symmetric members.
    """
    s = 1.0 / np.sqrt(2.0)
    iu, ju = np.triu_indices(n, 1)
    kinds = 1 if real else 2
    rows = np.concatenate([np.arange(n), np.repeat(iu, kinds)])
    cols = np.concatenate([np.arange(n), np.repeat(ju, kinds)])
    vals = np.concatenate([np.ones(n), np.tile([s, -1j * s][:kinds], len(iu))]).astype(complex)
    k = np.arange(len(vals))
    return sp.csr_matrix(
        (np.concatenate([vals, vals[n:].conj()]),
         (np.concatenate([k, k[n:]]), np.concatenate([rows * n + cols, cols[n:] * n + rows[n:]]))),
        shape=(len(vals), n * n),
    )


def hermitian_basis(n: int, real: bool = False) -> np.ndarray:
    """``hermitian_vecs`` as a dense (k, n, n) stack."""
    return hermitian_vecs(n, real).toarray().reshape(-1, n, n)


# Bytes of each of the workspace's two chunk buffers, whatever A's dtype: a
# chunk of Schur formation holds the most whole constraints whose (k, n, n)
# stack fits.  Complex qubit PPT membership at N = 13 (m = 768, sides 28 and
# 112) peaks at 124 MiB with 8 MiB and at 140 MiB with 16 MiB, in the same
# time; a quarter of 8 MiB cost 10 % more time, as the contraction passes
# over all of A once per chunk.
SCHUR_CHUNK = 8 << 20


def _flat(mats) -> np.ndarray:
    """The vec-space vector of a sequence of per-block matrices."""
    return np.concatenate([np.ravel(mat) for mat in mats])


def _matvec(a, x: np.ndarray) -> np.ndarray:
    """Re(A conj x), the real vector of <A_i, X>, for a CSR A of x's dtype,
    by the kernel that ``a @ x`` reaches, without its dispatch."""
    out = np.zeros(a.shape[0], a.data.dtype)
    _sparsetools.csr_matvec(a.shape[0], a.shape[1], a.indptr, a.indices, a.data,
                            x.conj(), out)
    return out.real


def _rmatvec(a, y: np.ndarray) -> np.ndarray:
    """A^T y = sum_i y_i vec A_i for a CSR A and real y: A's arrays are the
    CSC form of A^T."""
    out = np.zeros(a.shape[1], a.data.dtype)
    _sparsetools.csc_matvec(a.shape[1], a.shape[0], a.indptr, a.indices, a.data,
                            y.astype(a.data.dtype, copy=False), out)
    return out


def _schur_parts(rows, sizes):
    """Per block of side n: the (m, n^2) CSR ``flat`` of its columns'
    conjugates, and those columns reshaped to the (m*n, n) CSR ``stacked``,
    row (i, p) holding row p of A_ib."""
    m, parts, start = rows.shape[0], [], 0
    for n in sizes:
        flat = rows[:, start:start + n * n]
        parts.append((flat.conj(copy=False), flat.reshape(m * n, n).tocsr()))
        start += n * n
    return parts


def _chunks(m: int, sizes, itemsize: int) -> tuple[list[int], int]:
    """Constraints per chunk of Schur formation, block by block, and the
    entries of the largest chunk's stack."""
    steps = [min(m, max(1, SCHUR_CHUNK // itemsize // (n * n))) for n in sizes]
    return steps, max(k * n * n for k, n in zip(steps, sizes))


def workspace_bytes(m: int, sizes, itemsize: int) -> int:
    """The bytes of the ``_Workspace`` of m rows on blocks of sides ``sizes``
    with A's entries of ``itemsize`` bytes."""
    steps, size = _chunks(m, sizes, itemsize)
    return itemsize * (2 * size + m * max(steps)) + 8 * 3 * m * m


class _Workspace:
    """The Schur complement's buffers for one solve, filled in place in every
    iteration, as SDPA keeps them (Yamashita, Fujisawa & Kojima, Optim.
    Methods Softw. 18, 2003).

    One set serves every block and chunk: ``chunk`` holds a chunk's A_j X
    and then its Zinv A_j X transposed, ``half`` Zinv A_j X, and ``out``
    the chunk's columns of M, all of A's dtype; ``raw`` gathers M, ``M`` is
    its symmetrized copy and ``factor`` its Cholesky factor, all real.
    """

    def __init__(self, rows: SparseRows):
        self.parts, sizes, m, dtype = rows.parts, rows.sizes, len(rows), rows.dtype
        self.steps, size = _chunks(m, sizes, dtype.itemsize)
        self.chunk, self.half = np.empty(size, dtype), np.empty(size, dtype)
        self.out = np.empty(m * max(self.steps), dtype)
        self.raw, self.M, self.factor = (np.empty((m, m)) for _ in range(3))
        self.diag = self.factor.reshape(-1)[::m + 1]

    def schur(self, zinv, xb) -> np.ndarray:
        """HKM Schur complement M_ij = Re <A_i, Zinv A_j X>, symmetrized.

        Sparse formation after Fujisawa, Kojima & Nakata (Math. Program. 79,
        1997): A_j X costs nnz(A) n, the batched Zinv (A_j X) m n^3, and the
        contraction with every A_i nnz(A) m, against 2 m^2 sum_b n_b^2 dense.
        The contraction takes Re(conj(A) vec H) for H = Zinv A_j X, as
        ``flat`` holds conj(A).  The CSR kernels add into their output,
        which therefore starts at 0.
        """
        m = len(self.M)
        self.raw.fill(0.0)
        for (flat, stacked), step, zinv_b, x_b in zip(self.parts, self.steps, zinv, xb):
            n = len(x_b)
            for lo in range(0, m, step):
                k = min(step, m - lo)
                ax = self.chunk[:k * n * n]
                ax.fill(0.0)
                _sparsetools.csr_matvecs(
                    k * n, n, n, stacked.indptr[lo * n:(lo + k) * n + 1],
                    stacked.indices, stacked.data, x_b, ax,
                )
                half = self.half[:k * n * n].reshape(k, n, n)
                np.matmul(zinv_b, ax.reshape(k, n, n), out=half)
                # the contraction reads Zinv A_j X as the row-major (n^2, k) matrix
                np.copyto(ax.reshape(n * n, k), half.reshape(k, n * n).T)
                out = self.out[:m * k]
                out.fill(0.0)
                _sparsetools.csr_matvecs(
                    m, n * n, k, flat.indptr, flat.indices, flat.data, ax, out
                )
                self.raw[:, lo:lo + k] += out.reshape(m, k).real
        np.add(self.raw, self.raw.T, out=self.M)
        self.M *= 0.5
        return self.M

    def cholesky(self, jitter: float) -> np.ndarray:
        """Lower Cholesky factor of M + jitter I, in place in ``factor``
        (LinAlgError if it is not numerically PD).

        M is symmetric, so ``factor``'s transpose is M too, and in Fortran
        order: ``dpotrf`` factors it with no copy.
        """
        np.copyto(self.factor, self.M)
        self.diag += jitter
        return _cholesky(self.factor.T, overwrite_a=True)


def _cholesky(a: np.ndarray, overwrite_a: bool = False) -> np.ndarray:
    """Lower Cholesky factor L of a = L L^H by LAPACK ``dpotrf`` (complex a:
    ``zpotrf``), upper triangle zeroed (LinAlgError if a is not numerically
    PD); with ``overwrite_a``, a Fortran-ordered a holds L.

    dpotrf reports no error on a NaN (it factors eye(3) with one NaN on the
    diagonal), so non-finite input raises here: it is not PD.
    """
    if not np.isfinite(a).all():
        raise np.linalg.LinAlgError("non-finite matrix")
    potrf = lapack.zpotrf if a.dtype.kind == "c" else lapack.dpotrf
    ell, info = potrf(a, lower=True, clean=True, overwrite_a=overwrite_a)
    if info:
        raise np.linalg.LinAlgError(f"Cholesky: leading minor {info} not positive")
    return ell


def _inverse_cholesky(x: np.ndarray) -> np.ndarray:
    """L^{-1} for x = L L^H, by ``_cholesky`` then ``dtrtri``/``ztrtri`` in
    place (LinAlgError if x is not numerically PD)."""
    trtri = lapack.ztrtri if x.dtype.kind == "c" else lapack.dtrtri
    return trtri(_cholesky(x), lower=True, overwrite_c=True)[0]


def _lambda_min(a: np.ndarray) -> float:
    """Smallest eigenvalue of Hermitian a, alone, by LAPACK ``dsyevr``
    (complex a: ``zheevr``).

    dsyevr reports no error on a NaN (it returns 1.0 for eye(3) with one NaN
    on the diagonal), so non-finite input raises LinAlgError here, as a full
    ``eigvalsh`` would.
    """
    if not np.isfinite(a).all():
        raise np.linalg.LinAlgError("non-finite matrix")
    evr = lapack.zheevr if a.dtype.kind == "c" else lapack.dsyevr
    w, _, _, _, info = evr(a, compute_v=0, range="I", il=1, iu=1)
    if info:
        raise np.linalg.LinAlgError(f"smallest eigenvalue: LAPACK info {info}")
    return float(w[0])


def _max_step(r: np.ndarray, dx: np.ndarray) -> float:
    """Largest alpha with x + alpha*dx >= 0, for r = _inverse_cholesky(x)
    (inf if unconstrained)."""
    mid = r @ dx @ r.conj().T
    lam = _lambda_min(0.5 * (mid + mid.conj().T))
    if lam >= 0.0:
        return np.inf
    return -1.0 / lam


def solve(
    problem: SdpProblem,
    tol: float = 1e-8,
    max_iter: int = 200,
    log_csv=None,
) -> SdpSolution:
    """Solve a block SDP; see the module docstring for the algorithm.

    ``log_csv`` may be a writable text stream; each iteration appends an
    ``iter,mu,primal_res,dual_res,gap`` row.
    """
    A = problem.validate()
    dtype = A.dtype
    sizes = problem.block_sizes
    split = problem.blocks
    sign = -1.0 if problem.sense == "maximize" else 1.0
    cost = _flat(
        np.zeros((n, n), dtype) if c is None else sign * 0.5 * (c + c.conj().T)
        for n, c in zip(sizes, problem.objective)
    )
    # a contiguous copy: a strided b would take another loop in b.y
    bvec = np.array(problem.rhs, dtype=float)
    m = len(bvec)
    work = _Workspace(A)
    bnorm = 1.0 + np.linalg.norm(bvec)
    cnorm = 1.0 + np.linalg.norm(cost)
    deg = sum(sizes) + 1

    X = _flat(np.eye(n, dtype=dtype) for n in sizes)
    Z = X.copy()
    # inverse Cholesky factors of the blocks of X and Z; those of I are I
    Rx = Rz = [np.eye(n, dtype=dtype) for n in sizes]
    y = np.zeros(m)
    tau, kappa = 1.0, 1.0

    step_frac = 0.98
    status = "max_iter"
    it = 0
    pres = dres = gap = np.inf
    best = None

    for it in range(1, max_iter + 1):
        mu = (np.vdot(X, Z).real + tau * kappa) / deg
        AX = _matvec(A, X)
        ATy = _rmatvec(A, y)
        by, cx = float(bvec @ y), float(np.vdot(cost, X).real)
        rp = bvec * tau - AX
        rd = cost * tau - ATy - Z
        rg = by - cx - kappa

        pres = np.linalg.norm(AX / tau - bvec) / bnorm
        dres = np.linalg.norm(ATy / tau + Z / tau - cost) / cnorm
        pobj, dobj = cx / tau, by / tau
        gap = abs(pobj - dobj) / (1.0 + abs(pobj) + abs(dobj))

        if log_csv is not None:
            log_csv.write(f"{it},{mu:.6e},{pres:.6e},{dres:.6e},{gap:.6e}\n")

        if max(pres, dres, gap) <= tol:
            status = "optimal"
            break

        # infeasibility certificates straight off the homogeneous iterate
        if by > tol:
            yn = y / by
            viol = max(-_lambda_min(-cb) for cb in split(_rmatvec(A, yn)))
            if viol <= tol * (1.0 + np.linalg.norm(yn)):
                status = "primal_infeasible"
                break
        if cx < -tol:
            xn = X / (-cx)
            if np.linalg.norm(_matvec(A, xn)) <= tol * (
                1.0 + max(np.linalg.norm(xb) for xb in split(xn))
            ):
                status = "dual_infeasible"
                break

        best = (X, y, Z, tau, pres, dres, gap)

        Xb = split(X)
        Zinv = [r.conj().T @ r for r in Rz]

        M = work.schur(Zinv, Xb)
        factor = None
        jitter = 0.0
        for attempt in range(4):
            try:
                factor = work.cholesky(jitter)
                break
            except np.linalg.LinAlgError:
                jitter = max(jitter * 100.0, 1e-13 * max(np.trace(M) / m, 1.0))
        if factor is None:
            raise SolverBreakdown("Schur complement factorization failed")

        def schur_solve(rhs):
            sol = lapack.dpotrs(factor, rhs, lower=True)[0]
            resid = rhs - M @ sol  # one refinement step recovers ~2 digits
            return sol + lapack.dpotrs(factor, resid, lower=True)[0]

        def hkm(u):
            """Zinv U X, block by block."""
            return _flat(zinv_b @ ub @ xb for zinv_b, ub, xb in zip(Zinv, split(u), Xb))

        r2 = bvec + _matvec(A, hkm(cost))
        dy2 = schur_solve(r2)
        ATdy2 = _rmatvec(A, dy2)
        dZ2 = cost - ATdy2
        dX2 = hkm(ATdy2 - cost)
        zinv = _flat(Zinv)
        # the predictor and the corrector share these terms
        hkm_rd = hkm(rd)
        denom = float(bvec @ dy2) - np.vdot(cost, dX2).real + kappa / tau
        if abs(denom) < 1e-300:
            raise SolverBreakdown("degenerate tau equation")

        def build(sigma_mu, corr, corr_tk):
            base = sigma_mu * zinv - X - hkm_rd - corr
            r1 = rp - _matvec(A, base)
            dy1 = schur_solve(r1)
            ATdy1 = _rmatvec(A, dy1)
            dX1 = base + hkm(ATdy1)
            dZ1 = rd - ATdy1
            target = (sigma_mu - tau * kappa - corr_tk) / tau
            dtau = (target - rg - float(bvec @ dy1) + np.vdot(cost, dX1).real) / denom
            dX = _flat(0.5 * (d + d.conj().T) for d in split(dX1 + dtau * dX2))
            dZ = dZ1 + dtau * dZ2
            dkappa = target - (kappa / tau) * dtau
            return dX, dy1 + dtau * dy2, dZ, dtau, dkappa

        def max_alpha(dX, dZ, dtau, dkappa):
            alpha = np.inf
            try:
                for rx, dxb, rz, dzb in zip(Rx, split(dX), Rz, split(dZ)):
                    alpha = min(alpha, _max_step(rx, dxb), _max_step(rz, dzb))
            except np.linalg.LinAlgError as exc:  # a non-finite direction
                raise SolverBreakdown(f"step length: {exc}") from exc
            if dtau < 0:
                alpha = min(alpha, -tau / dtau)
            if dkappa < 0:
                alpha = min(alpha, -kappa / dkappa)
            return alpha

        dXa, dya, dZa, dtaua, dkappaa = build(0.0, 0.0, 0.0)
        alpha_a = min(1.0, max_alpha(dXa, dZa, dtaua, dkappaa))
        mu_aff = (
            np.vdot(X + alpha_a * dXa, Z + alpha_a * dZa).real
            + (tau + alpha_a * dtaua) * (kappa + alpha_a * dkappaa)
        ) / deg
        sigma = min(max((max(mu_aff, 0.0) / mu) ** 3, 1e-8), 1.0 - 1e-8)

        corr = _flat(
            zinv_b @ (dzb @ dxb)
            for zinv_b, dzb, dxb in zip(Zinv, split(dZa), split(dXa))
        )
        dX, dy, dZ, dtau, dkappa = build(sigma * mu, corr, dtaua * dkappaa)
        alpha = min(1.0, step_frac * max_alpha(dX, dZ, dtau, dkappa))
        if not np.isfinite(alpha) or alpha <= 1e-12:
            break

        # back off until every block of the new X and Z has a Cholesky factor
        # (rounding in the max-step estimate can overshoot the cone); the
        # factors accepted serve the next iteration's step lengths and Z^{-1}
        for _ in range(40):
            if tau + alpha * dtau > 0.0 and kappa + alpha * dkappa > 0.0:
                X_new, Z_new = X + alpha * dX, Z + alpha * dZ
                try:
                    Rx, Rz = (
                        [_inverse_cholesky(xb) for xb in split(X_new)],
                        [_inverse_cholesky(zb) for zb in split(Z_new)],
                    )
                    break
                except np.linalg.LinAlgError:
                    pass
            alpha *= 0.8
        else:
            raise SolverBreakdown("step back-off found no positive definite iterate")
        X, Z = X_new, Z_new
        y = y + alpha * dy
        tau += alpha * dtau
        kappa += alpha * dkappa
        if not np.isfinite(tau):  # the back-off kept tau and kappa positive
            raise SolverBreakdown("homogeneous variables left the cone")

    if status == "primal_infeasible":
        return SdpSolution(
            status="primal_infeasible",
            primal_blocks=[np.zeros((n, n), dtype) for n in sizes],
            dual_multipliers=y / by,
            objective_value=np.nan,
            residuals=(pres, dres, gap),
            certificate=split(Z / by),
            iterations=it,
        )
    if status == "dual_infeasible":
        ray = split(X / (-cx))
        return SdpSolution(
            status="dual_infeasible",
            primal_blocks=ray,
            dual_multipliers=y,
            objective_value=-np.inf if sign > 0 else np.inf,
            residuals=(pres, dres, gap),
            certificate=ray,
            iterations=it,
        )
    if status == "max_iter":
        if best is None:
            raise SolverBreakdown("no usable iterate produced")
        X, y, Z, tau, pres, dres, gap = best
    return SdpSolution(
        status=status,
        primal_blocks=[0.5 * (xb + xb.conj().T) / tau for xb in split(X)],
        dual_multipliers=y / tau,
        objective_value=sign * np.vdot(cost, X).real / tau,
        residuals=(pres, dres, gap),
        iterations=it,
        dual_slacks=[zb / tau for zb in split(Z)],
    )
