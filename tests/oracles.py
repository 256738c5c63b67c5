"""Independent reference routes for the library's closed-form quantities,
and the small compile helpers that only tests call.

No command, application or certify path reaches these; the tests compare
the library against them.

:class:`SymmetricBasis` holds the dense d^N x sym_dim isometry onto
Sym^N(C^d) that :func:`build_basis` builds one computational-basis string at
a time; :func:`lift` and :func:`compress` carry a compressed operator on
H_A (x) Sym^N to the full tensor space and back, the naive route the
compressed maps are checked against, and :func:`dicke_overlap_state` is the
2K-qubit state whose two-qubit reduction is the hierarchy's tightness
family.

:func:`build_bse_sdp` is a query's compiled SDP alone, and
:func:`reduce_extension` traces one copy off a compressed extension, the
one-step map that ``TraceMap`` with any kept-copy count is checked against.

:func:`schur_reference` forms the solver's Schur complement from the parts
that :func:`schur_parts_reference` cuts, the way the solver did before it
kept one workspace per solve.

:func:`embed_complex` and :func:`unembed_real` map Hermitian data to the
real symmetric embedding ``[[Re H, -Im H], [Im H, Re H]]`` and back, the
route by which the solver once took complex data; the solver's native
complex blocks are checked against it.

g_N, one minus the largest root of a designated Jacobi polynomial, has two
routes here besides the library's tridiagonal eigenvalue:

* bisection root-refinement of the polynomial recurrence
  (:func:`g_N_via_root`: a sign scan that evaluates the recurrence over a
  chunk of grid points at once, then Brent's method on the bracket it finds),
* the smallest generalized eigenvalue of the moment-matrix pencil (A, B)
  (:func:`g_N_via_pencil`).

The pencil's B matrix is Hilbert-conditioned, so that route reduces the
pencil with an exact rational LDL^T factorization before the (then well
conditioned) floating-point eigensolve; entries are built as exact products
``1/((n+m+1)...(n+m+d))``, which also removes any factorial overflow.

:func:`required_N_bisect` finds the PPT ``required_N`` by bisection on the
library's g_N, with no use of the asymptotic estimate beyond an upper end.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import cos, factorial, pi, prod, sqrt

import numpy as np

import dpskit.solver
from dpskit.bounds import (
    JacobiRecurrence,
    _gn_params,
    _jacobi_terms,
    bessel_zero_first,
    g_N,
    jacobi_recurrence,
)
from dpskit.extensions import (
    ExtensionQuery,
    TraceMap,
    _codec,
    _compile,
    _hermitize,
    _kernel,
    _state_rows,
)
from dpskit.operators import HermitianOperator, pure_state
from dpskit.solver import SdpProblem, hermitian_vecs
from dpskit.symmetric import occupations


def reduce_extension(x: np.ndarray, dA: int, d: int, N: int) -> np.ndarray:
    """Trace one B copy off a compressed extension: Sym^N -> Sym^{N-1}."""
    if N < 2:
        raise ValueError("need N >= 2 to reduce")
    return TraceMap(dA, (d,), N, N - 1).apply(x)


def build_bse_sdp(q: ExtensionQuery) -> SdpProblem:
    problem, _ = _compile(q)
    return problem


# the largest d^N whose dense isometry build_basis builds
SPACE_CAP = 4096


@dataclass(frozen=True)
class SymmetricBasis:
    """Sym^N(C^d) with its isometry into the full N-fold tensor space."""

    d: int
    N: int
    multi_indices: tuple[tuple[int, ...], ...]
    isometry: np.ndarray  # d^N x sym_dim, orthonormal columns

    @property
    def size(self) -> int:
        return len(self.multi_indices)

    @property
    def full_dim(self) -> int:
        return self.isometry.shape[0]

    def index(self, occ) -> int:
        return self._lookup[tuple(occ)]

    def __post_init__(self):
        object.__setattr__(
            self, "_lookup", {occ: i for i, occ in enumerate(self.multi_indices)}
        )
        self.isometry.flags.writeable = False

    def projector(self) -> np.ndarray:
        return self.isometry @ self.isometry.conj().T


def build_basis(d: int, N: int) -> SymmetricBasis:
    if d**N > SPACE_CAP:
        raise MemoryError(f"d^N = {d}**{N} exceeds the space cap {SPACE_CAP}")
    occs = occupations(d, N)
    cols = {occ: j for j, occ in enumerate(occs)}
    iso = np.zeros((d**N, len(occs)), dtype=float)
    # one pass over all strings; weight per column is 1/sqrt(#strings)
    weight = {
        occ: 1.0 / sqrt(factorial(N) / prod(factorial(n) for n in occ))
        for occ in occs
    }
    for s in range(d**N):
        counts = [0] * d
        rem = s
        for _ in range(N):
            rem, digit = divmod(rem, d)
            counts[digit] += 1
        occ = tuple(counts)
        iso[s, cols[occ]] = weight[occ]
    return SymmetricBasis(d, N, tuple(occs), iso)


def lift(x, basis: SymmetricBasis, dA: int) -> HermitianOperator:
    """(I_A (x) V) x (I_A (x) V)^dag for a compressed x on H_A (x) Sym^N."""
    x = np.asarray(x, dtype=complex)
    side = dA * basis.size
    if x.shape != (side, side):
        raise ValueError(f"compressed operator side {x.shape} != {side}")
    v = np.kron(np.eye(dA), basis.isometry)
    full = v @ x @ v.conj().T
    return HermitianOperator((dA,) + (basis.d,) * basis.N, full)


def compress(full: HermitianOperator, basis: SymmetricBasis, dA: int) -> np.ndarray:
    """Adjoint of :func:`lift`; exact inverse on Bose-symmetric operators."""
    v = np.kron(np.eye(dA), basis.isometry)
    return v.conj().T @ full.entries @ v


def dicke_overlap_state(K: int) -> HermitianOperator:
    """Projector onto the K-excitation permutation state of 2K qubits.

    Its reduction onto two qubits is the hierarchy's tightness family; the
    remaining 2K-1 qubits form the Bose-symmetric extension of that pair.
    """
    if K < 1:
        raise ValueError("K must be >= 1")
    if K > 6:
        raise MemoryError("K > 6 exceeds the 2K-qubit memory cap")
    basis = build_basis(2, 2 * K)
    vec = basis.isometry[:, basis.index((K, K))]
    return pure_state(vec, (2,) * (2 * K))


def embed_complex(h) -> np.ndarray:
    """Real symmetric embedding of a Hermitian matrix.

    Spectrum is preserved with doubled multiplicities, so PSD-ness carries
    over both ways.  <E(A), E(B)> = 2 <A, B> for Hermitian A, B.
    """
    m = h.entries if isinstance(h, HermitianOperator) else np.asarray(h)
    re, im = np.real(m), np.imag(m)
    return np.block([[re, -im], [im, re]])


def unembed_real(r: np.ndarray) -> np.ndarray:
    """Map a real 2n x 2n block back to an n x n Hermitian matrix."""
    n = r.shape[0] // 2
    re = 0.5 * (r[:n, :n] + r[n:, n:])
    im = 0.5 * (r[n:, :n] - r[:n, n:])
    h = re + 1j * im
    return 0.5 * (h + h.conj().T)


def dense_constraints(q: ExtensionQuery) -> np.ndarray:
    """A of the compiled query, written into a dense zero matrix entry by
    entry: the rows form writes each state row (its real part on the real
    path) and makes it Hermitian in place, the free form writes
    (F_k, Gamma(F_k)) and negates them.  The compiler builds A sparse; it
    must give this matrix bit for bit."""
    codec = _codec(q)
    real, n = codec.real, codec.nx
    dtype = float if real else complex
    state = _state_rows(codec.tmap, q.rho.dim, q.reduced_constraint, real)
    if codec.pmap is None:
        rows = np.zeros((len(state), n, n), dtype)
        rows[...] = codec.cast(state)
        rows += rows.conj().swapaxes(1, 2)
        rows *= 0.5
        return rows.reshape(len(state), -1)
    basis = hermitian_vecs(n, real)
    flat = state.reshape(len(state), -1)
    kernel = (_kernel(np.real(basis.conj() @ flat.T).T).T @ basis).tocsr()
    side = codec.tmap.dA * codec.pmap.size_out
    dest = np.zeros((kernel.shape[0], n * n + side * side), dtype)
    start = 0
    for v in (kernel, _hermitize(kernel @ codec.pmap.matrix().T, side)):
        v = v.tocoo()
        dest[v.row, start + v.col] = v.data.real if real else v.data
        start += v.shape[1]
    np.negative(dest, out=dest)
    return dest


def schur_parts_reference(rows, sizes):
    """Per block of side n: the (m, n^2) CSR ``flat`` of its columns, and
    that matrix reshaped to (m*n, n), row (i, p) holding row p of A_ib, cut
    into chunks of whole constraints of about ``SCHUR_CHUNK`` bytes."""
    m, parts, start = rows.shape[0], [], 0
    entries = dpskit.solver.SCHUR_CHUNK // rows.dtype.itemsize
    for n in sizes:
        flat = rows[:, start:start + n * n]
        stacked = flat.reshape(m * n, n).tocsr()
        k = max(1, entries // (n * n))
        chunks = [(lo, stacked[lo * n:(lo + k) * n]) for lo in range(0, m, k)]
        parts.append((flat, chunks))
        start += n * n
    return parts


def schur_reference(parts, zinv, xb, m: int) -> np.ndarray:
    """HKM Schur complement M_ij = Re <A_i, Zinv A_j X>, symmetrized.

    Sparse formation after Fujisawa, Kojima & Nakata (Math. Program. 79,
    1997): A_j X costs nnz(A) n, the batched Zinv (A_j X) m n^3, and the
    contraction with every A_i nnz(A) m, against 2 m^2 sum_b n_b^2 dense.
    For Hermitian A_i, <A_i, H> = Re sum_pq conj((A_i)_pq) H_pq.

    This is the solver's formation before it kept one workspace per solve:
    every temporary is allocated anew, and each product with A goes through
    ``scipy.sparse``.  The workspace must give this matrix bit for bit.
    """
    M = np.zeros((m, m))
    for (flat, chunks), zinv_b, x_b in zip(parts, zinv, xb):
        n = len(x_b)
        for lo, stacked in chunks:
            k = stacked.shape[0] // n
            half = np.matmul(zinv_b, (stacked @ x_b).reshape(k, n, n))
            M[:, lo:lo + k] += (flat.conj() @ half.reshape(k, n * n).T).real
    return 0.5 * (M + M.T)


def _jacobi_run(x, n: int, alpha: float, beta: float, terms: tuple):
    """P_n^{(alpha,beta)}(x) from ``terms = _jacobi_terms(n, alpha, beta)``,
    elementwise for an array x."""
    if n == 0:
        return np.ones(np.shape(x)) if np.ndim(x) else 1.0
    p_prev, p = 1.0, (alpha + 1.0) + (alpha + beta + 2.0) * (x - 1.0) / 2.0
    for a1, a2, a3, a4 in zip(*(t.tolist() for t in terms)):
        p, p_prev = ((a2 + a3 * x) * p - a4 * p_prev) / a1, p
    return p


def jacobi_eval(n: int, alpha: float, beta: float, x):
    """P_n^{(alpha,beta)}(x) by the standard three-term recurrence, for a
    float or an array x."""
    return _jacobi_run(x, n, alpha, beta, _jacobi_terms(n, alpha, beta))


def recurrence_matrix(rec: JacobiRecurrence) -> np.ndarray:
    """The dense symmetric tridiagonal matrix of the recurrence ``rec``."""
    c = np.diag(rec.diag)
    if len(rec.off):
        c += np.diag(rec.off, 1) + np.diag(rec.off, -1)
    return c


def tridiagonal_C(d: int, N: int) -> np.ndarray:
    """The tridiagonal matrix whose spectrum is {1 - x : P(x) = 0} for the
    designated Jacobi polynomial; its smallest eigenvalue is g_N."""
    alpha, beta, deg = _gn_params(d, N)
    return recurrence_matrix(jacobi_recurrence(alpha, beta, deg))


# Grid points per sign-scan chunk.  For N <= 300 the first sign change lies
# at grid index 37 at most for d = 2 and 96 at most for d = 6, so the first
# chunk holds it.
SCAN_CHUNK = 128


def _largest_root_bisect(alpha: int, beta: int, deg: int) -> float:
    """Largest root of P_deg^{(alpha,beta)} by sign scan in theta = arccos x.

    The scan walks the grid theta_i = pi i / (40 deg + 40) from x = 1 to the
    first i with P(x_{i-1}) > 0 >= P(x_i), and Brent refines that bracket.
    It costs one vectorized recurrence per chunk of grid points up to the
    bracket, plus one scalar recurrence per Brent step.
    """
    from scipy.optimize import brentq

    rec = (deg, alpha, beta, _jacobi_terms(deg, alpha, beta))
    # P(1) = C(deg+alpha, deg) > 0; roots are ~uniform in theta
    steps = 40 * deg + 40
    x_prev, f_prev = 1.0, _jacobi_run(1.0, *rec)
    for start in range(1, steps + 1, SCAN_CHUNK):
        stop = min(start + SCAN_CHUNK, steps + 1)
        x = np.array([x_prev] + [cos(pi * i / steps) for i in range(start, stop)])
        fx = np.concatenate(([f_prev], _jacobi_run(x[1:], *rec)))
        hits = np.flatnonzero((fx[:-1] > 0.0) & (fx[1:] <= 0.0))
        if hits.size:
            i = hits[0]
            # the terms go in through args: brentq holds the function it is
            # given in a reference cycle, and a closure over the terms would
            # keep them alive until the cyclic collector runs
            return brentq(_jacobi_run, x[i + 1], x[i], args=rec, xtol=1e-14, rtol=1e-15)
        x_prev, f_prev = x[-1], fx[-1]
    raise ArithmeticError(f"no sign change found for P_{deg}^{({alpha},{beta})}")


def g_N_via_root(d: int, N: int) -> float:
    """g_N by bisection root-refinement of the raw Jacobi recurrence."""
    alpha, beta, deg = _gn_params(d, N)
    return 1.0 - _largest_root_bisect(alpha, beta, deg)


def _pencil_matrices(d: int, N: int):
    """Exact rational moment matrices (A, B) of the minimization pencil."""
    if N % 2 == 0:
        size, shift = N // 2 + 1, 0
    else:
        size, shift = (N + 1) // 2, 1

    def entry(s: int, nfac: int) -> Fraction:
        prod = 1
        for k in range(1, nfac + 1):
            prod *= s + k
        return Fraction(1, prod)

    amat = [[entry(n + m + shift, d) for m in range(size)] for n in range(size)]
    bmat = [[entry(n + m + shift, d - 1) for m in range(size)] for n in range(size)]
    return amat, bmat


def g_N_via_pencil(d: int, N: int) -> float:
    """2(d-1) times the smallest generalized eigenvalue of the (A, B) pencil.

    Exact rational LDL^T of B reduces the pencil before the floating-point
    eigensolve; see the module docstring.  Restricted to N <= 60 (the
    rational arithmetic grows quickly past desk scale).
    """
    if N > 60:
        raise ValueError("pencil route limited to N <= 60")
    amat, bmat = _pencil_matrices(d, N)
    n = len(amat)
    low = [[Fraction(0)] * n for _ in range(n)]
    dg = [Fraction(0)] * n
    for j in range(n):
        s = bmat[j][j] - sum(low[j][k] * low[j][k] * dg[k] for k in range(j))
        if s <= 0:
            raise ArithmeticError(f"pencil B matrix numerically singular at {j}")
        dg[j] = s
        low[j][j] = Fraction(1)
        for i in range(j + 1, n):
            low[i][j] = (
                bmat[i][j] - sum(low[i][k] * low[j][k] * dg[k] for k in range(j))
            ) / s
    # forward-substitute L^{-1} A L^{-T} exactly, then scale by D^{-1/2}
    work = [row[:] for row in amat]
    for i in range(n):
        for k in range(i):
            lik = low[i][k]
            if lik:
                for j in range(n):
                    work[i][j] -= lik * work[k][j]
    for j in range(n):
        for k in range(j):
            ljk = low[j][k]
            if ljk:
                for i in range(n):
                    work[i][j] -= ljk * work[i][k]
    scale = np.array([1.0 / sqrt(float(x)) for x in dg])
    core = np.array([[float(work[i][j]) for j in range(n)] for i in range(n)])
    core = scale[:, None] * core * scale[None, :]
    lam = float(np.linalg.eigvalsh(0.5 * (core + core.T))[0])
    return 2.0 * (d - 1) * lam


def required_N_bisect(delta: float, d_B: int) -> int:
    """Smallest N >= 2 with g_N(d_B, N) <= delta, by bisection over [1, hi]
    from the uncorrected estimate hi = ceil(sqrt(2) j / sqrt(delta)), which
    overshoots (raised until it is enough)."""
    hi = max(int(np.ceil(sqrt(2.0) * bessel_zero_first(d_B - 2) / sqrt(delta))), 2)
    while g_N(d_B, hi) > delta:
        hi += 1
    lo = 1  # invariant: every N <= lo is too small (or below 2), hi is enough
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if g_N(d_B, mid) <= delta:
            hi = mid
        else:
            lo = mid
    return hi
