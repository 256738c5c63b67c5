import numpy as np
import pytest
from numpy.testing import assert_allclose

from dpskit.extensions import (
    BudgetExceeded,
    ExtensionQuery,
    PptMap,
    TraceMap,
    _compile,
    build_bse_sdp,
    check_membership,
    compressed_maps,
    optimize_over_cone,
    reduce_extension,
    verify_witness,
)
from dpskit.operators import (
    HermitianOperator,
    identity,
    kron,
    partial_trace,
    partial_transpose,
    pure_state,
    random_state,
)
from dpskit.symmetric import build_basis, compress, dicke_overlap_state, lift, sym_dim

BELL = pure_state([1, 0, 0, 1], (2, 2))


def rho_family(k):
    """Two-qubit reduction of the 2k-qubit overlap state (K = k)."""
    state = dicke_overlap_state(k)
    return partial_trace(state, list(range(2, 2 * k))).regroup((2, 2))


def rand_psd(n, seed, rank=None):
    rng = np.random.default_rng(seed)
    r = rank or n
    g = rng.standard_normal((n, r)) + 1j * rng.standard_normal((n, r))
    return g @ g.conj().T


# ---------------------------------------------------------------------------
# compressed maps against the naive lift/operate/compress pipeline
# ---------------------------------------------------------------------------


def naive_trace(x, dA, basis):
    full = lift(x, basis, dA)
    return partial_trace(full, list(range(2, full.nfactors))).entries


def naive_ppt(x, dA, basis, n2):
    full = lift(x, basis, dA)
    n = basis.N
    pt = partial_transpose(full, list(range(1 + n - n2, 1 + n)))
    b1 = build_basis(basis.d, n - n2)
    b2 = build_basis(basis.d, n2)
    v = np.kron(np.eye(dA), np.kron(b1.isometry, b2.isometry))
    return v.conj().T @ pt.entries @ v


@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("N", [1, 2, 3])
@pytest.mark.parametrize("dA", [2, 3])
def test_maps_match_naive_pipeline(d, N, dA):
    basis = build_basis(d, N)
    x = rand_psd(dA * basis.size, seed=d * 100 + N * 10 + dA)
    tmap, pmap = compressed_maps(dA, basis, ppt=True)
    assert np.max(np.abs(tmap.apply(x) - naive_trace(x, dA, basis))) < 1e-10
    if pmap is not None and pmap.n2 > 0:
        assert np.max(np.abs(pmap.apply(x) - naive_ppt(x, dA, basis, pmap.n2))) < 1e-10


def test_trace_map_of_compressed_identity():
    # pinned by the naive oracle: tr_{B^{N-1}}(I_A (x) P_sym)
    for d, N in [(2, 2), (2, 3), (3, 2)]:
        basis = build_basis(d, N)
        tmap = TraceMap(2, basis)
        got = tmap.apply(np.eye(2 * basis.size, dtype=complex))
        want = naive_trace(np.eye(2 * basis.size, dtype=complex), 2, basis)
        assert_allclose(got, want, atol=1e-12)


def test_adjoint_identity():
    rng = np.random.default_rng(3)
    basis = build_basis(2, 3)
    dA = 2
    tmap, pmap = compressed_maps(dA, basis, ppt=True)
    nx = dA * basis.size
    x = rand_psd(nx, 5)
    e = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    e = 0.5 * (e + e.conj().T)
    lhs = np.vdot(e, tmap.apply(x))
    rhs = np.vdot(tmap.adjoint(e), x)
    assert lhs == pytest.approx(rhs, abs=1e-10)
    ny = dA * pmap.size_out
    g = rng.standard_normal((ny, ny)) + 1j * rng.standard_normal((ny, ny))
    g = 0.5 * (g + g.conj().T)
    lhs = np.vdot(g, pmap.apply(x))
    rhs = np.vdot(pmap.adjoint(g), x)
    assert lhs == pytest.approx(rhs, abs=1e-10)


def test_batched_adjoint_matches_per_element():
    basis = build_basis(3, 2)
    dA = 2
    tmap, pmap = compressed_maps(dA, basis, ppt=True)
    rng = np.random.default_rng(8)
    for m in (tmap, pmap):
        side = dA * m.size_out
        g = rng.standard_normal((5, side, side)) + 1j * rng.standard_normal((5, side, side))
        batched = m.adjoint(g)
        assert batched.shape == (5, dA * basis.size, dA * basis.size)
        for gi, bi in zip(g, batched):
            assert np.array_equal(bi, m.adjoint(gi))


def naive_reduce(x, dA, d, N):
    # lift to the full space, trace the last copy, compress onto Sym^{N-1}
    full = lift(x, build_basis(d, N), dA)
    red = partial_trace(full, [N])
    return compress(red, build_basis(d, N - 1), dA)


@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("N", [2, 3])
@pytest.mark.parametrize("dA", [1, 2])
def test_reduce_extension_matches_naive_pipeline(d, N, dA):
    x = rand_psd(dA * sym_dim(d, N), seed=d * 100 + N * 10 + dA)
    got = reduce_extension(x, dA=dA, d=d, N=N)
    assert got.shape == (dA * sym_dim(d, N - 1),) * 2
    assert np.max(np.abs(got - naive_reduce(x, dA, d, N))) < 1e-10


def test_ppt_map_block_side_n2_d2():
    basis = build_basis(2, 2)
    pmap = PptMap(1, basis, 1)
    assert pmap.size_out == 4  # Sym^1 (x) Sym^1 = 2 * 2


# ---------------------------------------------------------------------------
# SDP structure
# ---------------------------------------------------------------------------


def test_n1_problem_is_positivity_check():
    rho = random_state([2, 2], 4, 0)
    prob = build_bse_sdp(ExtensionQuery(rho=rho, N=1, ppt=False))
    assert prob.block_sizes == [2 * 4]
    assert len(prob.constraints) == 16  # (d_A d_B)^2 real equalities
    # at N=1 the trace map is the identity, so constraints pin X = rho
    res = check_membership(ExtensionQuery(rho=rho, N=1, ppt=False))
    assert res.verdict == "feasible"
    assert_allclose(res.extension, rho.entries, atol=1e-6)


def test_block_sides_dB2_N2():
    rho = random_state([3, 2], 6, 1)
    prob = build_bse_sdp(ExtensionQuery(rho=rho, N=2, ppt=True))
    # X block side d_A * sym_dim(2, 2) = 9, PPT block side d_A * 2 * 2 = 12
    assert prob.block_sizes == [2 * 3 * 3, 2 * 3 * 4]


def test_budget_cap(monkeypatch):
    monkeypatch.setenv("DPSKIT_BUDGET_DIM", "4")
    rho = random_state([2, 2], 4, 2)
    with pytest.raises(BudgetExceeded):
        build_bse_sdp(ExtensionQuery(rho=rho, N=2, ppt=False))


def test_query_validation():
    # three or more factors are the locally symmetric variant; one is too few
    with pytest.raises(ValueError, match="two factors"):
        ExtensionQuery(rho=random_state([4], 4, 3), N=2)
    with pytest.raises(ValueError, match="objective"):
        ExtensionQuery(rho=BELL, N=2, mode="cone_optimize",
                       reduced_constraint="identity_marginal")


# ---------------------------------------------------------------------------
# membership verdicts
# ---------------------------------------------------------------------------


def test_maximally_mixed_feasible_with_explicit_extension():
    mix = identity((2, 2)) * 0.25
    res = check_membership(ExtensionQuery(rho=mix, N=4, ppt=True))
    assert res.verdict == "feasible"
    basis = build_basis(2, 4)
    tmap, pmap = compressed_maps(2, basis, ppt=True)
    assert np.max(np.abs(tmap.apply(res.extension) - mix.entries)) < 1e-7
    assert np.linalg.eigvalsh(res.extension)[0] > -1e-7
    assert np.linalg.eigvalsh(pmap.apply(res.extension))[0] > -1e-7


def test_bell_n2_infeasible_with_witness():
    res = check_membership(ExtensionQuery(rho=BELL, N=2, ppt=False))
    assert res.verdict == "infeasible"
    w = res.witness
    assert float(np.vdot(w.entries, BELL.entries).real) < -1e-7
    # explicit check on a grid of product states
    rng = np.random.default_rng(11)
    for _ in range(500):
        a = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        b = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        v = np.kron(a / np.linalg.norm(a), b / np.linalg.norm(b))
        assert float(np.real(v.conj() @ w.entries @ v)) >= -1e-7


def test_witness_cone_floor_via_aux_sdp():
    q = ExtensionQuery(rho=BELL, N=2, ppt=False)
    res = check_membership(q)
    floor = verify_witness(q, res.witness)
    assert floor >= -1e-7


@pytest.mark.parametrize(
    "N,ppt,expected",
    [(3, False, "feasible"), (4, False, "infeasible"), (2, True, "infeasible")],
)
def test_overlap_family_k2_verdicts(N, ppt, expected):
    rho = rho_family(2)
    res = check_membership(ExtensionQuery(rho=rho, N=N, ppt=ppt))
    assert res.verdict == expected


def test_feasible_extension_satisfies_all_conditions():
    rho = rho_family(2)
    res = check_membership(ExtensionQuery(rho=rho, N=3, ppt=False))
    basis = build_basis(2, 3)
    lifted = lift(res.extension, basis, 2)
    # condition 1: PSD; condition 2: reduction; condition 3: Bose symmetry
    assert np.linalg.eigvalsh(lifted.entries)[0] > -1e-7
    red = partial_trace(lifted, [2, 3])
    assert np.max(np.abs(red.entries - rho.entries)) < 1e-7
    proj = np.kron(np.eye(2), basis.projector())
    assert np.max(np.abs(lifted.entries @ proj - lifted.entries)) < 1e-7


def test_nesting_by_reduction():
    # trace a found N=3 extension down to N=2 and recheck the conditions
    rho = rho_family(2)
    res = check_membership(ExtensionQuery(rho=rho, N=3, ppt=False))
    x2 = reduce_extension(res.extension, dA=2, d=2, N=3)
    basis2 = build_basis(2, 2)
    tmap2 = TraceMap(2, basis2)
    assert np.max(np.abs(tmap2.apply(x2) - rho.entries)) < 1e-7
    assert np.linalg.eigvalsh(x2)[0] > -1e-8


def test_all_cuts_variant():
    # first level where the option differs from the default: N=4 has cuts t=1,2
    mix = identity((2, 2)) * 0.25
    q_all = ExtensionQuery(rho=mix, N=4, ppt=True, ppt_cuts="all")
    prob = build_bse_sdp(q_all)
    assert len(prob.block_sizes) == 3  # X plus one PPT block per cut
    res = check_membership(q_all)
    assert res.verdict == "feasible"


def test_ppt_dominance():
    rho = 0.6 * BELL + 0.4 * (identity((2, 2)) * 0.25)
    for n in (2, 3):
        ppt_res = check_membership(ExtensionQuery(rho=rho, N=n, ppt=True))
        if ppt_res.verdict == "feasible":
            plain = check_membership(ExtensionQuery(rho=rho, N=n, ppt=False))
            assert plain.verdict == "feasible"


def test_werner_threshold_decided_at_n2_ppt():
    # v Bell + (1-v) I/4 is separable iff v <= 1/3 (exact 2x2 threshold)
    mix = identity((2, 2)) * 0.25
    for v, expected in ((1.0 / 3.0 - 0.05, "feasible"), (1.0 / 3.0 + 0.05, "infeasible")):
        rho = v * BELL + (1.0 - v) * mix
        res = check_membership(ExtensionQuery(rho=rho, N=2, ppt=True))
        assert res.verdict == expected


def test_isotropic_qutrit_threshold():
    # qutrit isotropic states are separable iff the Bell fraction is <= 1/3,
    # i.e. v <= 1/4; entangled ones are NPT, so PPT level 2 decides both sides
    phi = pure_state([1, 0, 0, 0, 1, 0, 0, 0, 1], (3, 3))
    mix = identity((3, 3)) * (1.0 / 9.0)
    for v, expected in ((0.20, "feasible"), (0.30, "infeasible")):
        rho = v * phi + (1.0 - v) * mix
        res = check_membership(ExtensionQuery(rho=rho, N=2, ppt=True))
        assert res.verdict == expected


# ---------------------------------------------------------------------------
# cone optimization
# ---------------------------------------------------------------------------


def test_identity_objective_pinned_constant():
    # Lambda_A = I forces tr Lambda = d_A, so the value is d_A/(d_A d_B) = 1/2
    obj = identity((2, 2)) * 0.25
    q = ExtensionQuery(rho=obj, N=2, ppt=False, mode="cone_optimize",
                       objective=obj, reduced_constraint="identity_marginal")
    opt = optimize_over_cone(q)
    assert opt.value == pytest.approx(0.5, abs=1e-6)
    marg = partial_trace(opt.optimizer, [1])
    assert_allclose(marg.entries, np.eye(2), atol=1e-6)


@pytest.mark.parametrize("N", [1, 2, 3])
def test_pure_product_objective_is_one(N):
    psi = pure_state([0.6, 0.8], (2,))
    phi = pure_state([1, 0], (2,))
    obj = kron(psi, phi)
    q = ExtensionQuery(rho=obj, N=N, ppt=False, mode="cone_optimize",
                       objective=obj, reduced_constraint="identity_marginal")
    assert optimize_over_cone(q).value == pytest.approx(1.0, abs=1e-6)


def test_monotone_in_N_random_objectives():
    for seed in range(3):
        obj = random_state([2, 2], 4, seed)
        values = []
        for n in (1, 2, 3):
            q = ExtensionQuery(rho=obj, N=n, ppt=False, mode="cone_optimize",
                               objective=obj, reduced_constraint="identity_marginal")
            values.append(optimize_over_cone(q).value)
        assert values[0] >= values[1] - 1e-7
        assert values[1] >= values[2] - 1e-7


def test_unit_trace_constraint():
    obj = BELL
    q = ExtensionQuery(rho=obj, N=2, ppt=True, mode="cone_optimize",
                       objective=obj, reduced_constraint="unit_trace")
    opt = optimize_over_cone(q)
    assert opt.optimizer.trace() == pytest.approx(1.0, abs=1e-6)
    # max overlap of a two-qubit PPT state with a Bell state is 1/2
    assert opt.value == pytest.approx(0.5, abs=1e-6)


# ---------------------------------------------------------------------------
# tripartite: a 3-factor query extends factors 1 and 2 within their own Sym^N
# ---------------------------------------------------------------------------

GHZ = pure_state([1, 0, 0, 0, 0, 0, 0, 1], (2, 2, 2))
SEP3 = HermitianOperator(
    (2, 2, 2), np.diag([0.4, 0.1, 0.1, 0.05, 0.05, 0.1, 0.1, 0.1]).astype(complex)
)


def test_tripartite_n1_positivity():
    rho = random_state([2, 2, 2], 8, 9)
    res = check_membership(ExtensionQuery(rho=rho, N=1, ppt=False))
    assert res.verdict == "feasible"


def test_tripartite_separable_diagonal_feasible():
    res = check_membership(ExtensionQuery(rho=SEP3, N=2, ppt=False))
    assert res.verdict == "feasible"


def test_tripartite_ghz_infeasible():
    res = check_membership(ExtensionQuery(rho=GHZ, N=2, ppt=False))
    assert res.verdict == "infeasible"
    # the 3-factor verdict now ships the decoded witness
    assert res.witness.factor_dims == (2, 2, 2)
    assert float(np.vdot(res.witness.entries, GHZ.entries).real) < -1e-7


def test_tripartite_ppt_variant_verdicts():
    assert check_membership(ExtensionQuery(rho=SEP3, N=2, ppt=True)).verdict == "feasible"
    assert check_membership(ExtensionQuery(rho=GHZ, N=2, ppt=True)).verdict == "infeasible"


def test_tripartite_maps_match_naive_pipeline():
    # oracle: lift with I (x) V2 (x) V3, operate on the full space, compress
    from dpskit.solver import hermitian_basis, unembed_real

    d1 = d2 = d3 = 2
    n = 2
    rng = np.random.default_rng(42)
    b2, b3 = build_basis(d2, n), build_basis(d3, n)
    nx = d1 * b2.size * b3.size
    g = rng.standard_normal((nx, nx)) + 1j * rng.standard_normal((nx, nx))
    x = g @ g.conj().T
    x /= np.trace(x).real
    viso = np.kron(np.eye(d1), np.kron(b2.isometry, b3.isometry))
    full = HermitianOperator(
        (d1,) + (d2,) * n + (d3,) * n, viso @ x @ viso.conj().T
    )
    # reduced state: keep factor 0 plus the first copy of each party
    traced = list(range(2, n + 1)) + list(range(n + 2, 2 * n + 1))
    want = partial_trace(full, traced).entries
    rho_probe = HermitianOperator((d1, d2, d3), want)
    problem, codec = _compile(ExtensionQuery(rho=rho_probe, N=n, ppt=True))
    got = codec.tmap.apply(x)
    assert np.max(np.abs(got - want)) < 1e-10
    res = check_membership(ExtensionQuery(rho=rho_probe, N=n, ppt=False))
    assert res.verdict == "feasible"

    # validate the PPT adjoint against the naive forward pipeline:
    # <G, P_naive(x)> must equal <P_adj(G), x> for random Hermitian G
    n1, n2 = n - n // 2, n // 2
    pt_factors = list(range(1 + n1, 1 + n)) + list(range(1 + n + n1, 1 + 2 * n))
    pt_full = partial_transpose(full, pt_factors)
    b2a, b2b = build_basis(d2, n1), build_basis(d2, n2)
    b3a, b3b = build_basis(d3, n1), build_basis(d3, n2)
    wiso = np.kron(
        np.eye(d1),
        np.kron(np.kron(b2a.isometry, b2b.isometry),
                np.kron(b3a.isometry, b3b.isometry)),
    )
    p_naive = wiso.conj().T @ pt_full.entries @ wiso
    ny = p_naive.shape[0]
    # reach the compiled adjoint through the problem's PPT-link constraints:
    # the state rows come first, then constraint j couples <adj(G_j), X>
    # with -<G_j, Y>
    gs = hermitian_basis(ny)
    n_state = (d1 * d2 * d3) ** 2
    assert len(problem.constraints) == n_state + ny * ny
    x_cols, y_cols = problem.blocks(problem.constraints)
    assert not y_cols[:n_state].any()

    for j in (0, 5, ny * ny - 1):
        adj_g = unembed_real(x_cols[n_state + j])
        lhs = complex(np.vdot(gs[j], p_naive))
        rhs_val = complex(np.vdot(adj_g, x))
        assert abs(lhs - rhs_val) < 1e-9


# ---------------------------------------------------------------------------
# real and complex arithmetic: real data compiles over real symmetric X
# ---------------------------------------------------------------------------


def _phase_rotation(op):
    """U op U^dag for the local diagonal phase unitary U = U_A (x) U_B (x) ...,
    U_A = diag(1, i, -1, ...), each further factor diag(exp(i pi k / 3)).

    The extendable (PPT) cones and the Lambda_A = I constraint are invariant
    under local unitaries, so a rotated query has the same optimum, but its
    data is complex."""
    u = np.diag(1j ** np.arange(op.factor_dims[0]))
    for d in op.factor_dims[1:]:
        u = np.kron(u, np.diag(np.exp(1j * np.pi * np.arange(d) / 3.0)))
    return op.replace_entries(u @ op.entries @ u.conj().T)


def _rotated(q):
    obj = None if q.objective is None else _phase_rotation(q.objective)
    return ExtensionQuery(
        rho=_phase_rotation(q.rho), N=q.N, ppt=q.ppt, mode=q.mode, objective=obj,
        reduced_constraint=q.reduced_constraint, ppt_cuts=q.ppt_cuts,
    )


def _fidelity_query(problem, N):
    from dpskit.applications import estimation_operator

    rho = estimation_operator(problem)
    return ExtensionQuery(rho=rho, N=N, ppt=True, mode="cone_optimize",
                          objective=rho, reduced_constraint="identity_marginal")


def _unit_trace_query(rho, objective, N):
    return ExtensionQuery(rho=rho, N=N, ppt=True, mode="cone_optimize",
                          objective=objective, reduced_constraint="unit_trace")


def _bb84(N):
    from dpskit.applications import bb84_two_copy_problem

    return _fidelity_query(bb84_two_copy_problem(0.1), N)


def _qutrit(N):
    from dpskit.applications import qutrit_grid_problem

    return _fidelity_query(qutrit_grid_problem(0.1), N)


def _depolarizing_purity(N):
    from dpskit.applications import depolarizing_choi

    choi = depolarizing_choi(2, 0.2)
    return _unit_trace_query(choi * (1.0 / choi.trace()), choi, N)


def _w_geometric(N):
    from dpskit.applications import w_state

    rho_ab = partial_trace(w_state(), [2])
    return _unit_trace_query(rho_ab, rho_ab, N)


@pytest.mark.parametrize(
    "make, N, m, sides",
    [
        (_bb84, 2, 146, [12, 16]),
        (_bb84, 3, 310, [16, 24]),
        (_bb84, 4, 676, [20, 36]),
        (_qutrit, 2, 384, [18, 27]),
    ],
    ids=["bb84-N2", "bb84-N3", "bb84-N4", "qutrit-N2"],
)
def test_real_data_compiles_to_real_sizes(make, N, m, sides):
    q = make(N)
    problem, codec = _compile(q)
    assert codec.real
    assert (len(problem.rhs), problem.block_sizes) == (m, sides)
    # m = n(n+1)/2 state rows for Lambda_A = I, plus n_y(n_y+1)/2 PPT links
    d_a = q.rho.factor_dims[0]
    n_y = sides[1]
    assert m == d_a * (d_a + 1) // 2 + n_y * (n_y + 1) // 2


def test_complex_data_keeps_doubled_sides():
    problem, codec = _compile(_rotated(_bb84(2)))
    assert not codec.real
    assert (len(problem.rhs), problem.block_sizes) == (272, [24, 32])


def test_complex_objective_alone_selects_complex_path():
    q = _bb84(2)
    complex_obj = ExtensionQuery(
        rho=q.rho, N=2, ppt=True, mode="cone_optimize",
        objective=_phase_rotation(q.objective), reduced_constraint="identity_marginal",
    )
    assert _compile(q)[1].real
    assert not _compile(complex_obj)[1].real


@pytest.mark.parametrize(
    "make, N",
    [(_bb84, 2), (_qutrit, 2), (_depolarizing_purity, 3), (_w_geometric, 3)],
    ids=["bb84-N2", "qutrit-N2", "purity-N3", "w-N3"],
)
def test_real_and_complex_paths_agree(make, N):
    q = make(N)
    q_rot = _rotated(q)
    assert _compile(q)[1].real and not _compile(q_rot)[1].real
    real, cplx = optimize_over_cone(q), optimize_over_cone(q_rot)
    assert real.status == cplx.status == "optimal"
    assert abs(real.value - cplx.value) < 1e-7
    assert np.iscomplexobj(real.extension)
    assert real.extension.shape == cplx.extension.shape


def test_real_witness_stays_valid_on_complex_path():
    q = ExtensionQuery(rho=BELL, N=2, ppt=True)
    res = check_membership(q)
    assert res.verdict == "infeasible"
    w = res.witness
    assert not np.imag(w.entries).any()
    q_rot = _rotated(q)
    assert not _compile(q_rot)[1].real
    w_rot = _phase_rotation(w)
    assert float(np.vdot(w_rot.entries, q_rot.rho.entries).real) < -1e-7
    aux = ExtensionQuery(rho=q_rot.rho, N=2, ppt=True, mode="cone_optimize",
                         objective=w_rot * -1.0, reduced_constraint="unit_trace")
    assert not _compile(aux)[1].real
    assert verify_witness(q_rot, w_rot) >= -1e-7


@pytest.mark.parametrize(
    "v, expected", [(0.25, "feasible"), (0.6, "infeasible")],
    ids=["separable", "entangled"],
)
def test_membership_verdict_same_on_both_paths(v, expected):
    rho = v * BELL + (1.0 - v) * (identity((2, 2)) * 0.25)
    q = ExtensionQuery(rho=rho, N=2, ppt=True)
    q_rot = _rotated(q)
    assert _compile(q)[1].real and not _compile(q_rot)[1].real
    res, res_rot = check_membership(q), check_membership(q_rot)
    assert res.verdict == res_rot.verdict == expected
    if expected == "feasible":
        assert np.iscomplexobj(res.extension)
        assert res.extension.shape == res_rot.extension.shape
