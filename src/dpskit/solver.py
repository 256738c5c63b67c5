"""Primal-dual interior-point solver for small dense block-PSD programs.

Standard form, over symmetric blocks X = (X_1, ..., X_B):

    minimize    sum_b <C_b, X_b>
    subject to  sum_b <A_ib, X_b> = b_i   (i = 1..m),   X_b >= 0.

The data is held in the SeDuMi-style (A, b) vec form: a point is the vector
x = (vec X_1, ..., vec X_B) of row-major vecs, of length sum_b n_b^2, and
row i of the real (m, sum_b n_b^2) matrix A is (vec A_i1, ..., vec A_iB).
The constraints then read A x = b and their adjoint is y -> y A.  The
iterates X, Z and the cost live in this vec space; only the nonlinear steps
(Z^{-1}, the Schur complement, step lengths) work on per-block (n, n) views.

The iteration runs on the homogeneous self-dual embedding with the HKM
search direction and a Mehrotra predictor-corrector, so infeasible problems
terminate with an explicit Farkas certificate instead of a diverging
iterate.  The Schur complement is formed and factored densely; constraint
sparsity is deliberately not exploited (desk-scale problems only).

Complex Hermitian data enters through the real embedding
``[[Re H, -Im H], [Im H, Re H]]``; note Hilbert-Schmidt inner products
double under the embedding, so right-hand sides and objective values carry
a factor of 2 that callers must account for (see :func:`embed_complex`).
Real data skips the embedding: a problem whose data has no imaginary part
is posed over real symmetric blocks of the original side directly, with
half the block sides, about half the rows and no factor of 2
(``dpskit.extensions`` decides this per query from its data).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg as sla

from .operators import HermitianOperator

__all__ = [
    "SdpProblem",
    "SdpSolution",
    "SolverBreakdown",
    "embed_complex",
    "unembed_real",
    "hermitian_basis",
    "solve",
]


class SolverBreakdown(RuntimeError):
    """Numerical failure distinct from plain iteration-limit exhaustion."""


def _asymmetric(stack: np.ndarray, sym_tol: float) -> np.ndarray:
    """Indices of the matrices in a (k, n, n) stack that are not symmetric."""
    scale = np.maximum(1.0, np.max(np.abs(stack), axis=(1, 2)))
    skew = np.max(np.abs(stack - stack.swapaxes(1, 2)), axis=(1, 2))
    return np.flatnonzero(skew > sym_tol * scale)


@dataclass
class SdpProblem:
    """Block-diagonal standard-form SDP in (A, b) vec form.

    ``constraints`` is the real (m, sum_b n_b^2) matrix A: row i is the
    concatenation of the row-major vecs of the symmetric coefficient
    matrices (A_i1, ..., A_iB), so the constraints read A vec(X) = rhs with
    ``rhs`` the (m,) vector b.  ``objective[b]`` is the symmetric cost matrix
    for block b (None = zero).  ``sense`` is one of "minimize", "maximize",
    "feasibility".
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

    def validate(self, sym_tol: float = 1e-12):
        if self.sense not in ("minimize", "maximize", "feasibility"):
            raise ValueError(f"unknown sense {self.sense!r}")
        if len(self.objective) != len(self.block_sizes):
            raise ValueError("objective must supply one matrix (or None) per block")
        a = np.asarray(self.constraints)
        width = sum(n * n for n in self.block_sizes)
        if a.ndim != 2 or a.shape[1] != width:
            raise ValueError(f"constraints shape {a.shape} != (m, {width})")
        if np.shape(self.rhs) != (len(a),):
            raise ValueError(f"rhs shape {np.shape(self.rhs)} != ({len(a)},)")
        for b, (n, c, rows) in enumerate(
            zip(self.block_sizes, self.objective, self.blocks(a))
        ):
            if c is not None:
                if c.shape != (n, n):
                    raise ValueError(f"objective: block {b} shape {c.shape} != {(n, n)}")
                if _asymmetric(c[None], sym_tol).size:
                    raise ValueError(f"objective: block {b} not symmetric")
            bad = _asymmetric(rows, sym_tol)
            if bad.size:
                raise ValueError(f"constraint {bad[0]}: block {b} not symmetric")


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


def hermitian_basis(n: int):
    """Orthonormal Hermitian basis of C^{n x n} (n^2 elements)."""
    basis = []
    s = 1.0 / np.sqrt(2.0)
    for i in range(n):
        e = np.zeros((n, n), dtype=complex)
        e[i, i] = 1.0
        basis.append(e)
    for i in range(n):
        for j in range(i + 1, n):
            e = np.zeros((n, n), dtype=complex)
            e[i, j] = s
            e[j, i] = s
            basis.append(e)
            f = np.zeros((n, n), dtype=complex)
            f[i, j] = -1j * s
            f[j, i] = 1j * s
            basis.append(f)
    return basis


def _flat(mats) -> np.ndarray:
    """The vec-space vector of a sequence of per-block matrices."""
    return np.concatenate([np.ravel(mat) for mat in mats])


def _prune_constraints(a: np.ndarray, rhs: np.ndarray, rel_tol: float = 1e-12):
    """Drop linearly dependent constraint rows via the constraint Gram matrix.

    Returns ``(kept_indices, farkas_y)``; ``farkas_y`` is a certificate for a
    dependent row whose right-hand side is inconsistent (None otherwise).
    The Gram route squares conditioning, so the effective detection floor is
    machine precision on the singular values; exactly-duplicated or
    near-machine-dependent rows are what occurs in practice here.
    """
    m = len(rhs)
    if m == 0:
        return [], None
    gram = a @ a.T
    w, v = np.linalg.eigh(gram)
    wmax = max(float(w[-1]), 1e-300)
    null_mask = w < rel_tol * wmax
    rhs_scale = 1.0 + float(np.max(np.abs(rhs), initial=0.0))
    for k in np.nonzero(null_mask)[0]:
        u = v[:, k]
        viol = float(u @ rhs)
        if abs(viol) > 1e-9 * rhs_scale:
            return None, u / viol
    if not null_mask.any():
        return list(range(m)), None
    # greedy pivoted Cholesky on the Gram picks an independent subset
    kept = []
    resid = gram.copy()
    thresh = rel_tol * wmax
    for _ in range(m):
        diag = np.diag(resid).copy()
        if kept:
            diag[kept] = -np.inf
        j = int(np.argmax(diag))
        if diag[j] <= thresh:
            break
        kept.append(j)
        col = resid[:, j] / resid[j, j]
        resid = resid - np.outer(col, resid[j, :])
    kept.sort()
    return kept, None


def _max_step(x: np.ndarray, dx: np.ndarray) -> float:
    """Largest alpha with x + alpha*dx >= 0 for PD x (inf if unconstrained)."""
    try:
        ell = np.linalg.cholesky(x)
        half = sla.solve_triangular(ell, dx, lower=True, check_finite=False)
        mid = sla.solve_triangular(ell, half.T, lower=True, check_finite=False)
    except np.linalg.LinAlgError:
        w, v = np.linalg.eigh(x)
        w = np.maximum(w, 1e-14 * max(float(w[-1]), 1.0))
        root_inv = v / np.sqrt(w)
        mid = root_inv.T @ dx @ root_inv
    mid = 0.5 * (mid + mid.T)
    lam = float(np.linalg.eigvalsh(mid)[0])
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
    problem.validate()
    sizes = problem.block_sizes
    split = problem.blocks
    sign = -1.0 if problem.sense == "maximize" else 1.0
    cost = _flat(
        np.zeros((n, n))
        if problem.sense == "feasibility" or c is None
        else sign * 0.5 * (c + c.T)
        for n, c in zip(sizes, problem.objective)
    )
    A = np.asarray(problem.constraints, dtype=float)
    bvec = np.asarray(problem.rhs, dtype=float)
    m_all = len(bvec)

    def infeasible(y_full, certificate, residuals, iterations):
        return SdpSolution(
            status="primal_infeasible",
            primal_blocks=[np.zeros((n, n)) for n in sizes],
            dual_multipliers=y_full,
            objective_value=np.nan,
            residuals=residuals,
            certificate=certificate,
            iterations=iterations,
        )

    kept, farkas = _prune_constraints(A, bvec)
    if farkas is not None:
        return infeasible(farkas, [-mb for mb in split(farkas @ A)], (np.inf,) * 3, 0)
    if len(kept) < m_all:
        A, bvec = A[kept], bvec[kept]

    m = len(bvec)
    bnorm = 1.0 + np.linalg.norm(bvec)
    cnorm = 1.0 + np.linalg.norm(cost)
    deg = sum(sizes) + 1

    def expand_y(yk):
        full = np.zeros(m_all)
        full[kept] = yk
        return full

    X = _flat(np.eye(n) for n in sizes)
    Z = X.copy()
    y = np.zeros(m)
    tau, kappa = 1.0, 1.0

    step_frac = 0.98
    status = "max_iter"
    it = 0
    pres = dres = gap = np.inf
    best = None

    for it in range(1, max_iter + 1):
        mu = (X @ Z + tau * kappa) / deg
        AX = A @ X
        ATy = y @ A
        by, cx = float(bvec @ y), float(cost @ X)
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
            viol = max(float(np.linalg.eigvalsh(cb)[-1]) for cb in split(yn @ A))
            if viol <= tol * (1.0 + np.linalg.norm(yn)):
                status = "primal_infeasible"
                break
        if cx < -tol:
            xn = X / (-cx)
            if np.linalg.norm(A @ xn) <= tol * (
                1.0 + max(np.linalg.norm(xb) for xb in split(xn))
            ):
                status = "dual_infeasible"
                break

        best = (X, y, Z, tau, pres, dres, gap)

        Xb = split(X)
        Zinv = []
        for zb in split(Z):
            try:
                ell = np.linalg.cholesky(zb)
            except np.linalg.LinAlgError as exc:
                raise SolverBreakdown(f"Z block lost definiteness: {exc}") from exc
            inv_ell = sla.solve_triangular(
                ell, np.eye(zb.shape[0]), lower=True, check_finite=False
            )
            Zinv.append(inv_ell.T @ inv_ell)

        # HKM Schur complement M_ij = <A_i, Zinv A_j X>, then symmetrized
        M = np.zeros((m, m))
        for zinv_b, xb, rows in zip(Zinv, Xb, split(A)):
            half = np.matmul(zinv_b, np.matmul(rows, xb))
            M += rows.reshape(m, -1) @ half.reshape(m, -1).T
        M = 0.5 * (M + M.T)
        factor = None
        jitter = 0.0
        for attempt in range(4):
            try:
                factor = sla.cho_factor(
                    M + jitter * np.eye(m), lower=True, check_finite=False
                )
                break
            except np.linalg.LinAlgError:
                jitter = max(jitter * 100.0, 1e-13 * max(np.trace(M) / max(m, 1), 1.0))
        if factor is None:
            raise SolverBreakdown("Schur complement factorization failed")

        def schur_solve(rhs):
            sol = sla.cho_solve(factor, rhs, check_finite=False)
            resid = rhs - M @ sol  # one refinement step recovers ~2 digits
            return sol + sla.cho_solve(factor, resid, check_finite=False)

        def hkm(u):
            """Zinv U X, block by block."""
            return _flat(zinv_b @ ub @ xb for zinv_b, ub, xb in zip(Zinv, split(u), Xb))

        r2 = bvec + A @ hkm(cost)
        dy2 = schur_solve(r2)
        ATdy2 = dy2 @ A
        dZ2 = cost - ATdy2
        dX2 = hkm(ATdy2 - cost)
        zinv = _flat(Zinv)

        def build(sigma_mu, corr, corr_tk):
            base = sigma_mu * zinv - X - hkm(rd) - corr
            r1 = rp - A @ base
            dy1 = schur_solve(r1)
            ATdy1 = dy1 @ A
            dX1 = base + hkm(ATdy1)
            dZ1 = rd - ATdy1
            denom = float(bvec @ dy2) - cost @ dX2 + kappa / tau
            if abs(denom) < 1e-300:
                raise SolverBreakdown("degenerate tau equation")
            target = (sigma_mu - tau * kappa - corr_tk) / tau
            dtau = (target - rg - float(bvec @ dy1) + cost @ dX1) / denom
            dX = _flat(0.5 * (d + d.T) for d in split(dX1 + dtau * dX2))
            dZ = dZ1 + dtau * dZ2
            dkappa = target - (kappa / tau) * dtau
            return dX, dy1 + dtau * dy2, dZ, dtau, dkappa

        def max_alpha(dX, dZ, dtau, dkappa):
            alpha = np.inf
            for xb, dxb, zb, dzb in zip(Xb, split(dX), split(Z), split(dZ)):
                alpha = min(alpha, _max_step(xb, dxb))
                alpha = min(alpha, _max_step(zb, dzb))
            if dtau < 0:
                alpha = min(alpha, -tau / dtau)
            if dkappa < 0:
                alpha = min(alpha, -kappa / dkappa)
            return alpha

        dXa, dya, dZa, dtaua, dkappaa = build(0.0, 0.0, 0.0)
        alpha_a = min(1.0, max_alpha(dXa, dZa, dtaua, dkappaa))
        mu_aff = (
            (X + alpha_a * dXa) @ (Z + alpha_a * dZa)
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

        # back off if rounding in the max-step estimate overshot the cone
        for _ in range(40):
            ok = all(
                np.linalg.eigvalsh(xb)[0] > 0.0 and np.linalg.eigvalsh(zb)[0] > 0.0
                for xb, zb in zip(split(X + alpha * dX), split(Z + alpha * dZ))
            )
            if ok and tau + alpha * dtau > 0.0 and kappa + alpha * dkappa > 0.0:
                break
            alpha *= 0.8
        X = X + alpha * dX
        Z = Z + alpha * dZ
        y = y + alpha * dy
        tau += alpha * dtau
        kappa += alpha * dkappa
        if not np.isfinite(tau) or tau <= 0.0 or kappa < 0.0:
            raise SolverBreakdown("homogeneous variables left the cone")

    if status == "primal_infeasible":
        return infeasible(expand_y(y / by), split(Z / by), (pres, dres, gap), it)
    if status == "dual_infeasible":
        ray = split(X / (-cx))
        return SdpSolution(
            status="dual_infeasible",
            primal_blocks=ray,
            dual_multipliers=expand_y(y),
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
        primal_blocks=[0.5 * (xb + xb.T) / tau for xb in split(X)],
        dual_multipliers=expand_y(y / tau),
        objective_value=sign * (cost @ X) / tau,
        residuals=(pres, dres, gap),
        iterations=it,
        dual_slacks=[zb / tau for zb in split(Z)],
    )
