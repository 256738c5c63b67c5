"""Closed-form quantities of the hierarchy: the Jacobi-root noise level g_N,
disentangling maps, robustness and distance bounds, required extension sizes,
complexity estimates, the PPT-only bounds, and the tightness example family.

g_N is one minus the largest root of a designated Jacobi polynomial.  One
route computes it: the smallest eigenvalue of the tridiagonal recurrence
matrix (Golub & Welsch; numerically stable; O(deg) memory), by a direct
call of LAPACK's ``dstebz`` on the recurrence's diagonals.  Every call
checks that value against the raw three-term polynomial recurrence, an
independent computation: by the Sturm property of orthogonal polynomials,
the sign changes along P_0(x), ..., P_n(x) count the zeros of P_n above x,
so two counts bracket the largest root.  Both routes read slices of one
cached coefficient set per parity and power-of-two capacity, so the rows of
a table share a few sets instead of building one each; the two Sturm counts
still run on every call.  The test suite keeps two further routes as
oracles (``tests/oracles.py``): bisection root-refinement of the recurrence
and the moment-matrix pencil.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import e, lgamma, log10, sqrt

import numpy as np
from scipy.linalg.lapack import dstebz
from scipy.special import jv

from .operators import HermitianOperator, depolarize, is_ppt, partial_trace

__all__ = [
    "JacobiRecurrence",
    "BoundReport",
    "jacobi_recurrence",
    "g_N",
    "bessel_zero_first",
    "critical_p",
    "disentangle_sym",
    "disentangle_ppt",
    "disentangle_preimage",
    "bound_report",
    "frobenius_distance_exact",
    "required_N",
    "complexity_estimate",
    "ppt_alone",
    "multipartite_probs",
    "example_state",
]


def _jacobi_terms(n: int, alpha: float, beta: float) -> tuple:
    """Coefficients (a1, a2, a3, a4) of the three-term recurrence
    a1 P_k = (a2 + a3 x) P_{k-1} - a4 P_{k-2} of P^{(alpha,beta)}, k = 2..n:
    four arrays, the k-th entries in place k - 2.  Each entry depends on k
    alone, so the terms up to n are a prefix of those up to any larger n."""
    if n < 0:
        raise ValueError("degree must be >= 0")
    k = np.arange(2, n + 1, dtype=float)
    c = 2.0 * k + alpha + beta
    a1 = 2.0 * k * (k + alpha + beta) * (c - 2.0)
    a2 = (c - 1.0) * (alpha * alpha - beta * beta)
    a3 = (c - 1.0) * c * (c - 2.0)
    a4 = 2.0 * (k + alpha - 1.0) * (k + beta - 1.0) * c
    return a1, a2, a3, a4


@dataclass(frozen=True)
class JacobiRecurrence:
    """Coefficients of (1-y) p_n = alpha_n p_n + beta_n p_{n+1} + gamma_n p_{n-1}
    for the orthonormal Jacobi polynomials of weight (1-y)^a (1+y)^b."""

    alpha: float
    beta: float
    diag: np.ndarray  # alpha_n
    off: np.ndarray  # beta_n ( = gamma_{n+1} )


def jacobi_recurrence(alpha: float, beta: float, n: int) -> JacobiRecurrence:
    """First n rows of the (1-y)-recurrence for weight (1-y)^alpha (1+y)^beta.

    Standard orthonormal-Jacobi tridiagonal coefficients (Gautschi):
      y p_k = c_k p_{k+1} + a_k p_k + c_{k-1} p_{k-1},
      a_0 = (b-a)/(a+b+2),
      a_k = (b^2-a^2) / ((2k+a+b)(2k+a+b+2)),
      c_{k-1}^2 = 4k(k+a)(k+b)(k+a+b) / ((2k+a+b)^2 ((2k+a+b)^2 - 1)),
    so alpha_k = 1 - a_k and beta_k = -c_k.
    """
    a, b = float(alpha), float(beta)
    k = np.arange(1, max(n, 1), dtype=float)
    t = 2.0 * k + a + b
    ak = (b * b - a * a) / (t * (t + 2.0))
    diag = 1.0 - np.concatenate(([(b - a) / (a + b + 2.0)], ak))[:n]
    off2 = 4.0 * k * (k + a) * (k + b) * (k + a + b) / (t * t * (t * t - 1.0))
    return JacobiRecurrence(a, b, diag, -np.sqrt(off2))


def _gn_params(d: int, N: int) -> tuple[int, int, int]:
    """(alpha, beta, polynomial degree) designated for g_N."""
    if d < 2 or N < 1:
        raise ValueError(f"need d >= 2 and N >= 1, got ({d}, {N})")
    if N % 2 == 0:
        return d - 2, 0, N // 2 + 1
    return d - 2, 1, (N + 1) // 2


# Terms converted to Python floats at a time by the Sturm count: whole
# lists at deg = 170046 (required_N at delta = 1e-10) would add 22 MiB.
STURM_CHUNK = 4096


def _roots_above(x: float, deg: int, alpha: float, beta: float, terms: tuple) -> int:
    """Number of zeros of P_deg^{(alpha,beta)} above x, from
    ``terms = _jacobi_terms(n, alpha, beta)`` for any n >= deg.

    Sturm property of orthogonal polynomials (Szego): it is the number of
    sign changes along P_0(x), ..., P_deg(x), where a zero term is skipped.
    One scalar pass of the recurrence in Python floats: the four terms'
    first deg - 1 entries become lists ``STURM_CHUNK`` entries at a time,
    zipped lazily, so the pass holds no list of tuples and no full lists.
    """
    if deg == 0:
        return 0
    p_prev, p = 1.0, (alpha + 1.0) + (alpha + beta + 2.0) * (x - 1.0) / 2.0
    negative = p < 0.0  # sign of the last nonzero term; P_0 = 1
    count = int(negative)
    for lo in range(0, deg - 1, STURM_CHUNK):
        hi = min(lo + STURM_CHUNK, deg - 1)
        for a1, a2, a3, a4 in zip(*(t[lo:hi].tolist() for t in terms)):
            p, p_prev = ((a2 + a3 * x) * p - a4 * p_prev) / a1, p
            if p != 0.0 and (p < 0.0) != negative:
                negative = not negative
                count += 1
    return count


@lru_cache(maxsize=16)
def _coefficients(alpha: int, beta: int, capacity: int) -> tuple:
    """(diag, off, terms) of P^{(alpha,beta)} up to degree ``capacity``:
    ``jacobi_recurrence``'s diagonals, read-only, and ``_jacobi_terms``.

    Every entry is elementwise in its index, so the slices to a degree
    below ``capacity`` equal a fresh build at that degree bit for bit.
    g_N asks for power-of-two capacities, and a table's rows of one parity
    share about log2(deg) sets.
    """
    rec = jacobi_recurrence(alpha, beta, capacity)
    terms = _jacobi_terms(capacity, alpha, beta)
    for a in (rec.diag, rec.off, *terms):
        a.flags.writeable = False
    return rec.diag, rec.off, terms


# The eigenvalue route and the recurrence's largest root (refined by
# bisection) differ by at most 3e-15 for d in {2, 3, 4, 6} and N <= 340091.
# The tolerance scales with g_N, which is below 1e-7 from d = 2, N = 10750 on.
GN_CHECK_RTOL = 1e-7
GN_CHECK_ATOL = 1e-13


def g_N(d: int, N: int) -> float:
    """One minus the largest root of the designated Jacobi polynomial.

    Computed as the smallest eigenvalue of the tridiagonal recurrence matrix,
    by LAPACK's bisection ``dstebz``, called directly, on its diagonals alone
    (O(deg) memory; the dense matrix at N = 34007, which a delta of 1e-8
    needs, would take 2.2 GiB).  The diagonals and the raw recurrence's
    terms are slices of a cached set per parity and power-of-two capacity
    (``_coefficients``), which a table's rows share.
    Every call still checks the value on the raw recurrence: with
    w = GN_CHECK_RTOL * g_N + GN_CHECK_ATOL, no zero may lie above
    1 - g_N + w and one must lie above 1 - g_N - w (two Sturm counts, no
    grid), else the call raises (it indicates a recurrence bug, not noise).

    Asymptotically g_N = 2 j^2 / (N + d + 1)^2 (1 + O(N^-2)), with j the first
    zero of J_{d-2}.  The familiar 2 j^2 / N^2 is only the leading term: its
    relative error is about 2(d+1)/N, i.e. 3-5% at N = 200 for d = 2..4.
    """
    alpha, beta, deg = _gn_params(d, N)
    diag, off, terms = _coefficients(alpha, beta, 1 << (deg - 1).bit_length())
    # eigvalsh_tridiagonal(select="i", select_range=(0, 0)) returns diag[0]
    # for one row (dstebz takes no empty off-diagonal) and otherwise passes
    # index range 1..1, absolute tolerance 0 and ascending order
    if deg == 1:
        val = float(diag[0])
    else:
        _, eig, _, _, info = dstebz(diag[:deg], off[:deg - 1], 2, 0.0, 1.0, 1, 1, 0.0, "E")
        if info:
            raise ArithmeticError(f"dstebz failed at (d={d}, N={N}) with info={info}")
        val = float(eig[0])
    w = GN_CHECK_RTOL * val + GN_CHECK_ATOL
    poly = (deg, alpha, beta, terms)
    if _roots_above(1.0 - val + w, *poly) or not _roots_above(1.0 - val - w, *poly):
        raise ArithmeticError(
            f"g_N routes disagree at (d={d}, N={N}): the recurrence's largest "
            f"root is not within {w:.3g} of 1 - {val!r}"
        )
    return val


def bessel_zero_first(nu: float) -> float:
    """First positive zero of J_nu: a bracketing scan, then bisection on jv
    down to a bracket 1e-12 wide."""
    if nu < 0 or nu > 50:
        raise ValueError("order must lie in [0, 50]")
    x = max(float(nu), 1e-6)
    step = 0.1 * max(1.0, (nu + 1.0) ** (1.0 / 3.0))
    f_lo = jv(nu, x)
    while f_lo <= 0.0:  # guard: start inside the positive lobe
        x *= 0.5
        f_lo = jv(nu, x)
        if x < 1e-12:
            raise ArithmeticError("failed to bracket the first Bessel zero")
    while True:
        x2 = x + step
        f_hi = jv(nu, x2)
        if f_lo > 0.0 and f_hi < 0.0:
            break
        x, f_lo = x2, f_hi
    while x2 - x > 1e-12:  # invariant: jv(nu, x) > 0 >= jv(nu, x2)
        mid = 0.5 * (x + x2)
        if jv(nu, mid) > 0.0:
            x = mid
        else:
            x2 = mid
    return 0.5 * (x + x2)


# ---------------------------------------------------------------------------
# disentangling maps and bound evaluations
# ---------------------------------------------------------------------------


def _critical_p_ppt(d: int, g: float) -> float:
    """The S_p^N probability of :func:`critical_p` from g = g_N(d, N)."""
    return d * g / (2.0 * (d - 1))


def critical_p(d: int, N: int, ppt: bool) -> float:
    """The depolarizing probability on B, d = dim H_B, that sends every member
    of S^N (d/(N+d)) or, with ``ppt``, of S_p^N (d g_N/(2(d-1))) into the
    separable set."""
    return _critical_p_ppt(d, g_N(d, N)) if ppt else d / (N + d)


def disentangle_sym(rho: HermitianOperator, N: int) -> HermitianOperator:
    """Depolarize B with probability ``critical_p(d_B, N, False)``: separable
    for any rho in S^N."""
    return depolarize(rho, critical_p(rho.factor_dims[1], N, False), 1)


def disentangle_ppt(rho: HermitianOperator, N: int) -> HermitianOperator:
    """Depolarize B with probability ``critical_p(d_B, N, True)``: separable
    for any rho in S_p^N."""
    return depolarize(rho, critical_p(rho.factor_dims[1], N, True), 1)


def disentangle_preimage(rho: HermitianOperator, N: int, ppt: bool) -> HermitianOperator:
    """The sigma that ``disentangle_ppt`` (``ppt``) or ``disentangle_sym``
    maps to rho: (rho - p rho_A (x) I_B/d) / (1 - p), with sigma_A = rho_A.

    Both maps send their cone into the separable set, so rho is separable
    whenever sigma is a state in S^N (S_p^N).  For S^N this is
    ((N+d) rho - rho_A (x) I_B) / N.
    """
    p = critical_p(rho.factor_dims[1], N, ppt)
    return (1.0 / (1.0 - p)) * (rho - p * depolarize(rho, 1.0, 1))


@dataclass(frozen=True)
class BoundReport:
    """Every closed-form bound for a given (d_A, d_B, N).

    ``g_N_asymptotic`` is 2 j^2 / N^2 with j = ``bessel_zero_first(d_B - 2)``:
    only the leading term of g_N, which it exceeds by a relative
    ~2(d_B + 1)/N (3-5% at N = 200 for d_B = 2..4); see ``g_N``.
    """

    d_A: int
    d_B: int
    N: int
    g_N: float
    p_c_sym: float
    p_c_ppt: float
    robustness_sym: float
    robustness_ppt: float
    dist_trace_sym: float
    dist_op_sym: float
    dist_trace_ppt: float
    dist_op_ppt: float
    g_N_asymptotic: float
    bessel_zero: float
    ppt_distances_valid: bool  # the PPT distance guarantees need N >= 2


def bound_report(
    d_A: int, d_B: int, N: int, bessel_zero: float | None = None
) -> BoundReport:
    """Every closed-form bound at (d_A, d_B, N).

    ``bessel_zero`` is ``bessel_zero_first(d_B - 2)``, found here when not
    given; a table over many N finds it once and passes it to every row.
    """
    d = d_B
    g = g_N(d, N)
    j = bessel_zero_first(d - 2) if bessel_zero is None else bessel_zero
    return BoundReport(
        d_A=d_A,
        d_B=d_B,
        N=N,
        g_N=g,
        p_c_sym=critical_p(d, N, False),
        p_c_ppt=_critical_p_ppt(d, g),
        robustness_sym=(d - 1) / N,
        robustness_ppt=g / (2.0 - d * g / (d - 1)),
        dist_trace_sym=2.0 * (d - 1) / (N + d - 1),
        dist_op_sym=(d - 1) / (N + d - 1),
        dist_trace_ppt=g,
        dist_op_ppt=g / 2.0,
        g_N_asymptotic=2.0 * (j / N) ** 2,
        bessel_zero=j,
        ppt_distances_valid=N >= 2,
    )


def frobenius_distance_exact(rho: HermitianOperator, N: int, ppt: bool) -> float:
    """Exact Frobenius distance between rho and its disentangled image."""
    dA, d = rho.factor_dims
    rho_a = partial_trace(rho, [1])
    excess = float(
        np.trace(rho.entries @ rho.entries).real
        - np.trace(rho_a.entries @ rho_a.entries).real / d
    )
    return critical_p(d, N, ppt) * sqrt(max(excess, 0.0))


# The largest N whose g_N ``required_N`` evaluates.  Each g_N costs O(N)
# time and memory (the eigenvalue route, then the check's two recurrence
# passes), and required_N takes two of them, one per parity, when its
# estimate is exact: delta = 1e-10 (N = 340091 at d_B = 2) takes ~0.5 s
# after import and a ~97 MiB peak (fresh process) on one core of a 2-core
# Xeon.
MAX_REQUIRED_N = 500_000


def required_N(delta: float, d_B: int, ppt: bool) -> int:
    """Smallest guaranteed extension size for trace-distance accuracy delta.

    With ``ppt`` this is the smallest N >= 2 with g_N(d_B, N) <= delta.
    g_N falls strictly in N, and g_N = 2 j^2 / (N + d_B + 1)^2 (1 + O(N^-2))
    (see :func:`g_N`) gives the estimate ceil(sqrt(2) j / sqrt(delta) - d_B
    - 1).  It is the answer on every grid point tested, so checking it and
    its left neighbour takes two g_N; a miss walks one N at a time.  A
    delta whose estimate exceeds ``MAX_REQUIRED_N`` raises ValueError, as
    does one whose non-PPT answer overflows a float.
    """
    if not 0.0 < delta < 2.0:
        raise ValueError("delta must lie in (0, 2)")
    if d_B < 2:
        raise ValueError("d_B must be >= 2")
    if not ppt:
        n = np.ceil((2.0 - delta) * (d_B - 1) / delta)
        if not np.isfinite(n):
            raise ValueError(f"delta {delta} is too small: the required N overflows")
        return int(n)
    estimate = np.ceil(sqrt(2.0) * bessel_zero_first(d_B - 2) / sqrt(delta) - d_B - 1)
    if estimate > MAX_REQUIRED_N:
        raise ValueError(
            f"delta {delta} is too small: its PPT estimate N = {estimate:.3g} "
            f"exceeds the N = {MAX_REQUIRED_N} up to which g_N is evaluated"
        )
    n = max(int(estimate), 2)
    while g_N(d_B, n) > delta:
        n += 1
    while n > 2 and g_N(d_B, n - 1) <= delta:
        n -= 1
    return n


def complexity_estimate(d_A: int, d_B: int, delta: float):
    """log10 of the dominant SDP operation counts at accuracy delta.

    Returns (n_sym, n_ppt, sym_ops, ppt_ops, sym_simplified, ppt_simplified):
    the two :func:`required_N` the counts rest on, then the counts as base-10
    logarithms (the raw counts overflow quickly).
    """
    n_sym = required_N(delta, d_B, ppt=False)
    n_ppt = required_N(delta, d_B, ppt=True)
    log_dim_sym = lgamma(n_sym + d_B) - lgamma(n_sym + 1) - lgamma(d_B)
    log_dim_ppt = lgamma(n_ppt + d_B) - lgamma(n_ppt + 1) - lgamma(d_B)
    n_half = (n_ppt + 1) // 2
    log_dim_half = lgamma(n_half + d_B) - lgamma(n_half + 1) - lgamma(d_B)
    ln10 = np.log(10.0)
    sym_ops = (6.0 * np.log(d_A) + 6.0 * log_dim_sym) / ln10
    ppt_ops = (6.0 * np.log(d_A) + 4.0 * log_dim_ppt + 4.0 * log_dim_half) / ln10
    sym_simplified = 6.0 * log10(d_A) + 6.0 * d_B * log10(2.0 * e / delta)
    ppt_simplified = 6.0 * log10(d_A) + 4.0 * d_B * log10(e * e / delta)
    return n_sym, n_ppt, sym_ops, ppt_ops, sym_simplified, ppt_simplified


def ppt_alone(rho: HermitianOperator, tol: float = 1e-9):
    """Local depolarizing that renders any PPT state separable, plus bounds.

    Returns (p_A, p_B, tilde, rg_bound, trace_bound).  Requires d_A >= 3,
    d_B >= 2 and a PPT input.
    """
    if rho.nfactors != 2:
        raise ValueError("ppt_alone expects a bipartite state")
    d_A, d_B = rho.factor_dims
    if d_A < 3 or d_B < 2:
        raise ValueError("requires d_A >= 3 and d_B >= 2")
    if not is_ppt(rho, [1], tol):
        raise ValueError("input state is not PPT")
    p_a = d_A * (d_A - 3) / (d_A**2 - 1)
    p_b = d_B * (d_B - 2) / (d_B**2 - 1)
    tilde = depolarize(depolarize(rho, p_a, 0), p_b, 1)
    rg_bound = (d_A + 1) * (d_B + 1) / 12.0 - 1.0
    trace_bound = 2.0 - 24.0 / ((d_A + 1) * (d_B + 1))
    return p_a, p_b, tilde, rg_bound, trace_bound


def multipartite_probs(dims, N: int, ppt: bool) -> list[float]:
    """Per-party depolarizing probabilities for local Bose-symmetric extensions."""
    if any(d < 2 for d in dims):
        raise ValueError("all local dimensions must be >= 2")
    return [critical_p(d, N, ppt) for d in dims]


def example_state(K: int) -> HermitianOperator:
    """The two-qubit reduction of the 2K-qubit overlap state; robustness 1/(2K-1)."""
    if K < 1:
        raise ValueError("K must be >= 1")
    n = 2 * K - 1
    a = (K - 1) / (2.0 * n)
    b = K / (2.0 * n)
    m = np.zeros((4, 4), dtype=complex)
    m[0, 0] = a
    m[3, 3] = a
    sym = np.zeros(4, dtype=complex)
    sym[1] = 1.0
    sym[2] = 1.0
    m += b * np.outer(sym, sym)
    return HermitianOperator((2, 2), m)
