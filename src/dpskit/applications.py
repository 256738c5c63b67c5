"""Linear optimizations over the extendable cones, with matched lower bounds.

Three applications share one engine: maximum average fidelity of pure-state
estimation (normalization Lambda_A = I), maximal channel output purity and
geometric entanglement of tripartite pure states (both over unit-trace cone
members).  Upper bounds are the ``value`` of the ConeOptimum that
:func:`dpskit.extensions.optimize_over_cone` returns, with its solver status;
the lower bounds are the affine images of the upper bounds under the
disentangling maps, using d = dim H_B of the optimization bipartition.

A purity or geometric point without PPT (or with PPT at N = 1) runs no
solve: its cone is the partial-trace image L(X) of the density operators X
on H_A (x) Sym^N, so its upper bound is exactly lambda_max(L^dag(objective)),
status "optimal" whatever ``max_iter`` says; ``tol`` sets the threshold of
the top eigenspace whose normalized projector is the optimal extension.

Choi convention: Omega_AB = sum_ij |i><j|_A (x) omega(|i><j|)_B, so that a
trace-preserving channel has tr_B(Omega) = I_A and the purity functional is
tr(Omega . sigma (x) rho).  (The source formula tr_A(Omega . I (x) rho)
leaves a transpose ambiguity; this convention is pinned by the identity
channel giving purity exactly 1.)
"""

from __future__ import annotations

from dataclasses import dataclass
from math import cos, pi, sin

import numpy as np

from .bounds import critical_p
from .extensions import ExtensionQuery, optimize_over_cone
from .operators import (
    HermitianOperator,
    depolarize,
    kron,
    partial_trace,
    pure_state,
)

__all__ = [
    "EstimationProblem",
    "BoundPair",
    "estimation_operator",
    "fidelity_bounds",
    "bb84_two_copy_problem",
    "qutrit_grid_problem",
    "output_purity_bounds",
    "geometric_entanglement_bounds",
    "identity_choi",
    "depolarizing_choi",
    "check_choi",
    "check_tripartite_pure",
    "ghz_state",
    "w_state",
]


@dataclass(frozen=True)
class EstimationProblem:
    """Ensemble of (probability, encoded state on H_A, pure source on H_B)."""

    ensemble: tuple

    def __post_init__(self):
        for p, _, _ in self.ensemble:
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"probability {p} outside [0, 1]")
        total = sum(p for p, _, _ in self.ensemble)
        if abs(total - 1.0) > 1e-10:
            raise ValueError(f"probabilities sum to {total}, not 1")
        for _, _, src in self.ensemble:
            purity = float(np.trace(src.entries @ src.entries).real)
            if abs(purity - 1.0) > 1e-10:
                raise ValueError("source states must be pure")
        if len({(enc.dim, src.dim) for _, enc, src in self.ensemble}) > 1:
            raise ValueError("every entry needs the same encoded and source dimensions")


@dataclass(frozen=True)
class BoundPair:
    upper: float
    lower: float
    N: int
    ppt: bool
    status: str = "optimal"

    def __post_init__(self):
        if self.lower > self.upper + 1e-7:
            raise ValueError(
                f"lower bound {self.lower} exceeds upper bound {self.upper}"
            )


def _bound_pair(
    rho: HermitianOperator, objective: HermitianOperator, reduced_constraint: str,
    N: int, ppt: bool, tail: float, tol: float, max_iter: int,
) -> BoundPair:
    """The cone optimum of ``objective`` as the upper bound, and its image
    under the disentangling map, with d = dim H_B of ``rho``, as the lower
    bound: (1 - p) upper + (p/d) tail with p = ``critical_p(d, N, ppt)``;
    ``tail`` is the coefficient of the noise term (1 for fidelity/purity,
    lambda_A for E)."""
    query = ExtensionQuery(
        rho=rho, N=N, ppt=ppt, objective=objective,
        reduced_constraint=reduced_constraint,
    )
    opt = optimize_over_cone(query, tol=tol, max_iter=max_iter)
    d = rho.factor_dims[1]
    p = critical_p(d, N, ppt)
    lower = (1.0 - p) * opt.value + (p / d) * tail
    return BoundPair(upper=opt.value, lower=lower, N=N, ppt=ppt, status=opt.status)


def estimation_operator(problem: EstimationProblem) -> HermitianOperator:
    """rho_AB = sum_i p_i encoded_i (x) source_i, flattened to two factors."""
    first = problem.ensemble[0]
    d_a = first[1].dim
    d_b = first[2].dim
    acc = np.zeros((d_a * d_b, d_a * d_b), dtype=complex)
    for p, enc, src in problem.ensemble:
        acc += p * np.kron(enc.entries, src.entries)
    return HermitianOperator((d_a, d_b), acc)


def fidelity_bounds(
    problem: EstimationProblem, N: int, ppt: bool, tol: float = 1e-8,
    max_iter: int = 200,
) -> BoundPair:
    """F^N (or F_p^N) and its matching measure-and-prepare lower bound."""
    rho = estimation_operator(problem)
    return _bound_pair(rho, rho, "identity_marginal", N, ppt, 1.0, tol, max_iter)


_BB84_VECTORS = (
    (1.0, 0.0),
    (0.0, 1.0),
    (1.0 / np.sqrt(2.0), 1.0 / np.sqrt(2.0)),
    (1.0 / np.sqrt(2.0), -1.0 / np.sqrt(2.0)),
)


def bb84_two_copy_problem(epsilon: float) -> EstimationProblem:
    """Two depolarized copies of a uniformly random BB84 state."""
    if not 0.0 <= epsilon <= 1.0:
        raise ValueError("epsilon must lie in [0, 1]")
    entries = []
    for vec in _BB84_VECTORS:
        src = pure_state(vec, (2,))
        noisy = depolarize(src, epsilon, 0)
        enc = kron(noisy, noisy).regroup((4,))
        entries.append((0.25, enc, src))
    return EstimationProblem(tuple(entries))


def qutrit_grid_problem(epsilon: float) -> EstimationProblem:
    """The 36-state qutrit grid, one depolarized copy each."""
    if not 0.0 <= epsilon <= 1.0:
        raise ValueError("epsilon must lie in [0, 1]")
    entries = []
    for i in range(6):
        for j in range(6):
            tj = j * pi / 6.0
            ti = i * pi / 6.0
            vec = (cos(tj), sin(tj) * cos(ti), sin(tj) * sin(ti))
            src = pure_state(vec, (3,))
            enc = depolarize(src, epsilon, 0)
            entries.append((1.0 / 36.0, enc, src))
    return EstimationProblem(tuple(entries))


def identity_choi(d: int) -> HermitianOperator:
    m = np.zeros((d * d, d * d), dtype=complex)
    for i in range(d):
        for j in range(d):
            m[i * d + i, j * d + j] = 1.0
    return HermitianOperator((d, d), m)


def depolarizing_choi(d: int, p: float) -> HermitianOperator:
    """Choi operator of the depolarizing channel on C^d."""
    return depolarize(identity_choi(d), p, 1)


def check_choi(choi: HermitianOperator) -> HermitianOperator:
    """``choi`` if it has two factors, tr_B = I_A and is PSD (the map is
    completely positive), else ValueError."""
    if choi.nfactors != 2:
        raise ValueError(f"Choi operator needs two factors (A, B), got {choi.nfactors}")
    marg = partial_trace(choi, [1]).entries
    if np.max(np.abs(marg - np.eye(choi.factor_dims[0]))) > 1e-8:
        raise ValueError("Choi operator must have identity A-marginal")
    lam = float(np.linalg.eigvalsh(choi.entries)[0])
    if lam < -1e-8:
        raise ValueError("Choi operator must be PSD (a completely positive map), "
                         f"smallest eigenvalue {lam:.3g}")
    return choi


def output_purity_bounds(
    choi: HermitianOperator, N: int, ppt: bool, tol: float = 1e-8,
    max_iter: int = 200,
) -> BoundPair:
    """nu^N and its lower bound for a channel given by its Choi operator."""
    check_choi(choi)
    return _bound_pair(
        choi * (1.0 / choi.trace()), choi, "unit_trace", N, ppt, 1.0, tol, max_iter
    )


def ghz_state() -> HermitianOperator:
    v = np.zeros(8)
    v[0] = v[7] = 1.0
    return pure_state(v, (2, 2, 2))


def w_state() -> HermitianOperator:
    v = np.zeros(8)
    v[1] = v[2] = v[4] = 1.0
    return pure_state(v, (2, 2, 2))


def check_tripartite_pure(psi: HermitianOperator) -> HermitianOperator:
    """``psi`` if it is a pure state on three factors, else ValueError."""
    if psi.nfactors != 3:
        raise ValueError(f"expected a tripartite state, got {psi.nfactors} factors")
    purity = float(np.trace(psi.entries @ psi.entries).real)
    if abs(purity - 1.0) > 1e-8:
        raise ValueError("geometric entanglement bounds need a pure state")
    return psi


def geometric_entanglement_bounds(
    psi: HermitianOperator, N: int, ppt: bool, tol: float = 1e-8,
    max_iter: int = 200,
) -> BoundPair:
    """E^N and its lower bound for a pure tripartite state (density form)."""
    check_tripartite_pure(psi)
    rho_ab = partial_trace(psi, [2])
    lam_a = float(np.linalg.eigvalsh(partial_trace(psi, [1, 2]).entries)[0])
    return _bound_pair(rho_ab, rho_ab, "unit_trace", N, ppt, lam_a, tol, max_iter)
