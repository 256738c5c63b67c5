"""dpskit: symmetric-extension hierarchy SDPs and analytic disentangling bounds.

A library plus CLI for the DPS separability hierarchy: membership tests and
cone optimizations over the (PPT) N-extendable sets, the closed-form noise,
robustness and distance bounds that govern their convergence, the three
linear-optimization applications (state-estimation fidelity, channel output
purity, geometric entanglement), and rank-loop separability certification.
"""

from .applications import (
    BoundPair,
    EstimationProblem,
    bb84_two_copy_problem,
    depolarizing_choi,
    estimation_operator,
    fidelity_bounds,
    geometric_entanglement_bounds,
    ghz_state,
    identity_choi,
    output_purity_bounds,
    qutrit_grid_problem,
    w_state,
)
from .bounds import (
    BoundReport,
    bessel_zero_first,
    bound_report,
    complexity_estimate,
    critical_p,
    disentangle_ppt,
    disentangle_preimage,
    disentangle_sym,
    example_state,
    frobenius_distance_exact,
    g_N,
    multipartite_probs,
    ppt_alone,
    required_N,
)
from .certify import (
    CertifyResult,
    RankProfile,
    certify,
    rank_loop_check,
    rank_min_heuristic,
)
from .extensions import (
    BudgetExceeded,
    ConeOptimum,
    ExtensionQuery,
    MembershipResult,
    check_membership,
    optimize_over_cone,
    verify_witness,
)
from .operators import (
    HermitianOperator,
    depolarize,
    identity,
    is_ppt,
    kron,
    negativity,
    norm,
    operator_from_json,
    operator_to_json,
    partial_trace,
    partial_transpose,
    pure_state,
    random_state,
)
from .solver import (
    SdpProblem,
    SdpSolution,
    SolverBreakdown,
    solve,
)
from .symmetric import sym_dim

__version__ = "0.1.0"
