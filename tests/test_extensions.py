import tracemalloc
from dataclasses import replace
from math import prod

import numpy as np
import pytest
from numpy.testing import assert_allclose

import dpskit.solver
from dpskit.extensions import (
    FIRST_SOLVE_BYTES,
    BudgetExceeded,
    ExtensionQuery,
    PptMap,
    TraceMap,
    _compile,
    _kernel,
    _maps,
    _ppt_local,
    _refine_witness,
    _solve_over_cone,
    _structure,
    _trace_local,
    check_membership,
    optimize_over_cone,
    sdp_size,
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
from dpskit.solver import SolverBreakdown, hermitian_vecs, solve, sparse_rows, workspace_bytes
from dpskit.symmetric import sym_dim
from oracles import (
    build_basis,
    build_bse_sdp,
    compress,
    dense_constraints,
    dicke_overlap_state,
    lift,
    reduce_extension,
    schur_parts_reference,
    schur_reference,
)

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
    tmap = TraceMap(dA, (d,), N)
    assert np.max(np.abs(tmap.apply(x) - naive_trace(x, dA, basis))) < 1e-10
    n2 = N // 2
    if n2 > 0:
        pmap = PptMap(dA, (d,), N, n2)
        assert np.max(np.abs(pmap.apply(x) - naive_ppt(x, dA, basis, n2))) < 1e-10


def test_trace_map_of_compressed_identity():
    # pinned by the naive oracle: tr_{B^{N-1}}(I_A (x) P_sym)
    for d, N in [(2, 2), (2, 3), (3, 2)]:
        basis = build_basis(d, N)
        tmap = TraceMap(2, (d,), N)
        got = tmap.apply(np.eye(2 * basis.size, dtype=complex))
        want = naive_trace(np.eye(2 * basis.size, dtype=complex), 2, basis)
        assert_allclose(got, want, atol=1e-12)


def test_adjoint_identity():
    rng = np.random.default_rng(3)
    basis = build_basis(2, 3)
    dA = 2
    tmap, pmap = TraceMap(dA, (2,), 3), PptMap(dA, (2,), 3, 1)
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
    tmap, pmap = TraceMap(dA, (3,), 2), PptMap(dA, (3,), 2, 1)
    rng = np.random.default_rng(8)
    for m in (tmap, pmap):
        side = dA * m.size_out
        g = rng.standard_normal((5, side, side)) + 1j * rng.standard_normal((5, side, side))
        batched = m.adjoint(g)
        assert batched.shape == (5, dA * basis.size, dA * basis.size)
        for gi, bi in zip(g, batched):
            assert np.array_equal(bi, m.adjoint(gi))


@pytest.mark.parametrize("dims, N", [((2, 2), 3), ((2, 3), 2), ((2, 2, 3), 2)],
                         ids=["qubit", "qubit-qutrit", "3-factor"])
@pytest.mark.parametrize("lead", [(), (3,), (2, 2)], ids=["single", "batch", "batch2"])
@pytest.mark.parametrize("dtype", [float, complex])
def test_maps_return_contiguous_adjoint_pairs(dims, N, lead, dtype):
    # C-contiguous outputs keep later tensordots on the same summation order
    dA, *dBs = dims
    rng = np.random.default_rng(13)

    def draw(side):
        g = rng.standard_normal(lead + (side, side))
        if dtype is complex:
            g = g + 1j * rng.standard_normal(g.shape)
        return g

    for m in (TraceMap(dA, dBs, N, 1), PptMap(dA, dBs, N, N // 2)):
        x, y = draw(dA * m.size_in), draw(dA * m.size_out)
        lx, ly = m.apply(x), m.adjoint(y)
        for out, side in ((lx, dA * m.size_out), (ly, dA * m.size_in)):
            assert out.flags.c_contiguous
            assert out.shape == lead + (side, side)
        lhs = np.sum(lx.conj() * y, axis=(-2, -1))
        rhs = np.sum(x.conj() * ly, axis=(-2, -1))
        assert_allclose(lhs, rhs, rtol=0, atol=1e-10)


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


@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("N", [2, 3, 5])
@pytest.mark.parametrize("dA", [1, 2])
def test_trace_map_keeping_k_copies_matches_chain(d, N, dA):
    # one map for any number of kept copies, against one copy at a time
    x = rand_psd(dA * sym_dim(d, N), seed=d * 100 + N * 10 + dA)
    chain = x
    for level in range(N, -1, -1):
        got = TraceMap(dA, (d,), N, level).apply(x)
        assert np.max(np.abs(got - chain)) <= 1e-14 * np.max(np.abs(x))
        if level > 1:
            chain = reduce_extension(chain, dA, d, level)
        elif level == 1:  # Sym^0 is one-dimensional: the trace over B
            s = chain.shape[0] // dA
            chain = np.einsum("asbs->ab", chain.reshape(dA, s, dA, s))


def test_ppt_map_block_side_n2_d2():
    pmap = PptMap(1, (2,), 2, 1)
    assert pmap.size_out == 4  # Sym^1 (x) Sym^1 = 2 * 2


# ---------------------------------------------------------------------------
# SDP structure
# ---------------------------------------------------------------------------


def test_n1_problem_is_positivity_check():
    rho = random_state([2, 2], 4, 0)
    prob = build_bse_sdp(ExtensionQuery(rho=rho, N=1, ppt=False))
    assert prob.block_sizes == [4]  # complex Hermitian, as rho is
    assert len(prob.constraints) == 16  # (d_A d_B)^2 real equalities
    # at N=1 the trace map is the identity, so constraints pin X = rho
    res = check_membership(ExtensionQuery(rho=rho, N=1, ppt=False))
    assert res.verdict == "feasible"
    assert_allclose(res.extension, rho.entries, atol=1e-6)


def test_block_sides_dB2_N2():
    rho = random_state([3, 2], 6, 1)
    prob = build_bse_sdp(ExtensionQuery(rho=rho, N=2, ppt=True))
    # X block side d_A * sym_dim(2, 2) = 9, PPT block side d_A * 2 * 2 = 12
    assert prob.block_sizes == [3 * 3, 3 * 4]


def test_budget_cap(monkeypatch):
    # one byte below the query's own predicted peak
    peak = sdp_size((2, 2), 2, False, "trace_match", False)[2]
    monkeypatch.setattr("dpskit.extensions.PEAK_BYTES", peak - 1)
    rho = random_state([2, 2], 4, 2)
    with pytest.raises(BudgetExceeded):
        build_bse_sdp(ExtensionQuery(rho=rho, N=2, ppt=False))


def test_query_validation():
    # three or more factors are the locally symmetric variant; one is too few
    with pytest.raises(ValueError, match="two factors"):
        ExtensionQuery(rho=random_state([4], 4, 3), N=2)
    with pytest.raises(ValueError, match="objective"):
        ExtensionQuery(rho=BELL, N=2, reduced_constraint="identity_marginal")
    # a membership query has no objective; the cone optimizations need one
    with pytest.raises(ValueError, match="trace_match"):
        ExtensionQuery(rho=BELL, N=2, objective=BELL)
    with pytest.raises(ValueError, match="unit_trace requires an objective"):
        ExtensionQuery(rho=BELL, N=2, reduced_constraint="unit_trace")
    with pytest.raises(ValueError, match="unknown reduced_constraint"):
        ExtensionQuery(rho=BELL, N=2, objective=BELL, reduced_constraint="trace")
    # an objective must act on rho's space
    with pytest.raises(ValueError, match=r"^objective side 8 != rho side 4$"):
        ExtensionQuery(rho=BELL, N=2, objective=identity((2, 2, 2)),
                       reduced_constraint="unit_trace")


# ---------------------------------------------------------------------------
# membership verdicts
# ---------------------------------------------------------------------------


def test_maximally_mixed_feasible_with_explicit_extension():
    mix = identity((2, 2)) * 0.25
    res = check_membership(ExtensionQuery(rho=mix, N=4, ppt=True))
    assert res.verdict == "feasible"
    tmap, pmap = TraceMap(2, (2,), 4), PptMap(2, (2,), 4, 2)
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
    # the verdict's floor, read off the certificate, is the aux optimum here
    assert res.detail == f"dual certificate; certified cone floor {floor:.2e}"


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
    tmap2 = TraceMap(2, (2,), 2)
    assert np.max(np.abs(tmap2.apply(x2) - rho.entries)) < 1e-7
    assert np.linalg.eigvalsh(x2)[0] > -1e-8


def test_ppt_query_has_one_ppt_block():
    # S_p^N has one cut: a PPT query compiles to the blocks X and Gamma(X),
    # Gamma transposing the last N//2 copies, and at N = 1 to X alone
    for rho, n_max in ((_WERNER, 4), (_ghz_mixed(), 3)):
        dA, *dBs = rho.factor_dims
        for N in range(1, n_max + 1):
            for kind in ("trace_match", "identity_marginal", "unit_trace"):
                obj = None if kind == "trace_match" else rho
                q = ExtensionQuery(rho=rho, N=N, ppt=True, objective=obj,
                                   reduced_constraint=kind)
                sides = [dA * prod(sym_dim(d, N) for d in dBs)]
                if N > 1:
                    sides.append(dA * prod(sym_dim(d, N - N // 2) * sym_dim(d, N // 2)
                                           for d in dBs))
                assert build_bse_sdp(q).block_sizes == sides, (N, kind)


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
    q = ExtensionQuery(rho=obj, N=2, ppt=False,
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
    q = ExtensionQuery(rho=obj, N=N, ppt=False,
                       objective=obj, reduced_constraint="identity_marginal")
    assert optimize_over_cone(q).value == pytest.approx(1.0, abs=1e-6)


def test_monotone_in_N_random_objectives():
    for seed in range(3):
        obj = random_state([2, 2], 4, seed)
        values = []
        for n in (1, 2, 3):
            q = ExtensionQuery(rho=obj, N=n, ppt=False,
                               objective=obj, reduced_constraint="identity_marginal")
            values.append(optimize_over_cone(q).value)
        assert values[0] >= values[1] - 1e-7
        assert values[1] >= values[2] - 1e-7


def test_unit_trace_constraint():
    obj = BELL
    q = ExtensionQuery(rho=obj, N=2, ppt=True,
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

    # validate the compiled PPT map against the naive forward pipeline: row k
    # of the free form is -(F_k, Gamma(F_k)), F_k a kernel member of the
    # state rows, so Gamma can be read off every row
    n1, n2 = n - n // 2, n // 2
    pt_factors = list(range(1 + n1, 1 + n)) + list(range(1 + n + n1, 1 + 2 * n))
    b2a, b2b = build_basis(d2, n1), build_basis(d2, n2)
    b3a, b3b = build_basis(d3, n1), build_basis(d3, n2)
    wiso = np.kron(
        np.eye(d1),
        np.kron(np.kron(b2a.isometry, b2b.isometry),
                np.kron(b3a.isometry, b3b.isometry)),
    )
    assert not codec.real
    assert len(problem.constraints) == nx * nx - (d1 * d2 * d3) ** 2
    x_cols, y_cols = problem.blocks(problem.constraints)
    for k in (0, 5, len(problem.constraints) - 1):
        f = -x_cols[k].toarray()
        lifted = HermitianOperator(full.factor_dims, viso @ f @ viso.conj().T)
        pt_full = partial_transpose(lifted, pt_factors)
        p_naive = wiso.conj().T @ pt_full.entries @ wiso
        assert np.max(np.abs(-y_cols[k].toarray() - p_naive)) < 1e-10


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
        rho=_phase_rotation(q.rho), N=q.N, ppt=q.ppt, objective=obj,
        reduced_constraint=q.reduced_constraint,
    )


def _fidelity_query(problem, N):
    from dpskit.applications import estimation_operator

    rho = estimation_operator(problem)
    return ExtensionQuery(rho=rho, N=N, ppt=True,
                          objective=rho, reduced_constraint="identity_marginal")


def _unit_trace_query(rho, objective, N):
    return ExtensionQuery(rho=rho, N=N, ppt=True,
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
        (_bb84, 2, 68, [12, 16]),
        (_bb84, 3, 126, [16, 24]),
        (_bb84, 4, 200, [20, 36]),
        (_qutrit, 2, 165, [18, 27]),
    ],
    ids=["bb84-N2", "bb84-N3", "bb84-N4", "qutrit-N2"],
)
def test_real_data_compiles_to_real_sizes(make, N, m, sides):
    q = make(N)
    problem, codec = _compile(q)
    assert codec.real
    assert (len(problem.rhs), problem.block_sizes) == (m, sides)
    # m = n_x(n_x+1)/2 parameters of X less d_A(d_A+1)/2 state rows for
    # Lambda_A = I; the PPT block costs no row
    d_a = q.rho.factor_dims[0]
    n_x = sides[0]
    assert m == n_x * (n_x + 1) // 2 - d_a * (d_a + 1) // 2


def test_complex_data_keeps_native_sides():
    problem, codec = _compile(_rotated(_bb84(2)))
    assert not codec.real
    assert problem.constraints.dtype == complex
    assert (len(problem.rhs), problem.block_sizes) == (128, [12, 16])


def test_complex_objective_alone_selects_complex_path():
    q = _bb84(2)
    complex_obj = ExtensionQuery(
        rho=q.rho, N=2, ppt=True,
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
    aux = ExtensionQuery(rho=q_rot.rho, N=2, ppt=True,
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


# ---------------------------------------------------------------------------
# compiled constraint matrices: independent rows, bounded compile memory
# ---------------------------------------------------------------------------


def _ghz_mixed():
    from dpskit.applications import ghz_state

    return ghz_state() * 0.5 + identity((2, 2, 2)) * (0.5 / 8)


_WERNER = BELL * 0.3 + identity((2, 2)) * (0.7 / 4)


@pytest.fixture
def cold_cache():
    """Compile from scratch: no structure is cached when the test starts."""
    _structure.cache_clear()


_ROW_CASES = [
    pytest.param(make, path, id=f"{name}-{path}")
    for make, name in [
        (lambda: _bb84(2), "bb84_ppt_N2"),
        (lambda: _bb84(3), "bb84_ppt_N3"),
        (lambda: _bb84(4), "bb84_ppt_N4"),
        (lambda: _qutrit(2), "qutrit_ppt_N2"),
        (lambda: _depolarizing_purity(3), "purity_unit_trace_N3_ppt"),
        (lambda: ExtensionQuery(rho=_WERNER, N=3, ppt=True), "trace_match_N3_ppt"),
        (lambda: ExtensionQuery(rho=_WERNER, N=4, ppt=True), "trace_match_N4_ppt"),
        (lambda: ExtensionQuery(rho=_ghz_mixed(), N=2), "tri_N2"),
        (lambda: ExtensionQuery(rho=_ghz_mixed(), N=2, ppt=True), "tri_N2_ppt"),
    ]
    for path in ("real", "complex")
]


@pytest.mark.parametrize("make, path", _ROW_CASES)
def test_compiled_rows_full_rank(make, path):
    """The solver prunes no rows, so the compiler must emit independent ones.
    They are: product states span Herm(AB), so L^T is injective on the state
    rows, and with a PPT block row k carries -F_k on X, the F_k an
    orthonormal basis of the state rows' kernel."""
    q = make() if path == "real" else _rotated(make())
    problem, codec = _compile(q)
    assert codec.real == (path == "real")
    s = np.linalg.svd(problem.constraints.toarray(), compute_uv=False)
    assert len(s) == len(problem.rhs)
    assert s[-1] > 1e-10 * s[0]


@pytest.mark.parametrize("make, path", _ROW_CASES)
def test_sparse_rows_equal_dense_writer(make, path, cold_cache):
    """A is built sparse, yet it is the matrix the dense writer gives, bit for
    bit, stored with no explicit zero and no duplicate entry."""
    q = make() if path == "real" else _rotated(make())
    a = _compile(q)[0].constraints
    dense = dense_constraints(q)
    assert np.array_equal(a.toarray(), dense)
    assert a.has_canonical_format and a.nnz == np.count_nonzero(dense)


def _snapshot(problem, codec):
    """Copies of everything a compile fills in, A as a dense array."""
    objective = [None if c is None else c.copy() for c in problem.objective]
    kernel = None if codec.kernel is None else codec.kernel.toarray()
    x0 = None if codec.x0 is None else codec.x0.copy()
    return (problem.constraints.toarray(), problem.rhs.copy(), objective,
            problem.sense, list(problem.block_sizes), x0, kernel)


def _assert_same(got, want):
    for g, w in zip(got, want):
        if isinstance(w, list):
            assert len(g) == len(w)
            for gi, wi in zip(g, w):
                assert (gi is None and wi is None) or np.array_equal(gi, wi)
        elif isinstance(w, np.ndarray):
            assert g.dtype == w.dtype and np.array_equal(g, w)
        else:
            assert g == w


@pytest.mark.parametrize("make, path", _ROW_CASES)
def test_warm_compile_equals_cold(make, path, cold_cache):
    q = make() if path == "real" else _rotated(make())
    cold, codec = _compile(q)
    want = _snapshot(cold, codec)
    solve(cold, max_iter=3)  # a solve leaves the shared A as it was
    warm, warm_codec = _compile(q)
    assert warm.constraints is cold.constraints
    assert warm.constraints.sizes == tuple(warm.block_sizes)
    _assert_same(_snapshot(warm, warm_codec), want)


@pytest.mark.parametrize(
    "q",
    [ExtensionQuery(rho=_WERNER, N=2, ppt=True), ExtensionQuery(rho=_WERNER, N=2)],
    ids=["free_form", "rows_form"],
)
def test_log_det_rounds_leave_next_compile_alone(q):
    """rank_min_heuristic sets each round's objective on its problem in
    place; the next compile of the same structure must not see it."""
    from dpskit.certify import rank_min_heuristic

    want = _snapshot(*_compile(q))
    x = rank_min_heuristic(q, check_membership(q).extension, rounds=2)
    assert x is not None
    problem, codec = _compile(q)
    codec.set_objective(problem, np.eye(codec.nx), "minimize")
    _assert_same(_snapshot(*_compile(q)), want)


def test_threads_share_structures_from_cold_cache(cold_cache):
    """Four threads (more than the cores) compile and solve the same queries
    at once from a cold cache, switching often: every solution equals the
    serial one bit for bit, so no thread saw a half-built structure."""
    import sys
    from concurrent.futures import ThreadPoolExecutor

    queries = [_bb84(2), ExtensionQuery(rho=_WERNER, N=2, ppt=True),
               ExtensionQuery(rho=_WERNER, N=2)]

    def run(q):
        sol = solve(_compile(q)[0])
        return sol.status, sol.iterations, sol.dual_multipliers.tobytes()

    want = [run(q) for q in queries]
    _structure.cache_clear()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            futures = [pool.submit(run, q) for _ in range(4) for q in queries]
            got = [f.result(timeout=60) for f in futures]
    finally:
        sys.setswitchinterval(interval)
    assert got == want * 4


def test_cached_structure_is_read_only():
    problem, codec = _compile(_bb84(2))
    a = problem.constraints
    for arr in (a.data, a.indices, a.indptr, codec.state, codec.kernel.data):
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = arr[0]
    with pytest.raises(ValueError, match="read-only"):
        a[0, 0] = 1.0
    rows_form, _ = _compile(ExtensionQuery(rho=_WERNER, N=2))
    with pytest.raises(ValueError, match="read-only"):
        rows_form.constraints.data *= 2.0


def _closure_kernel(rows):
    """``_kernel`` with its row groups found by a dense transitive closure of
    the rows' column overlaps, kept as the reference for the graph search."""
    touch = (rows != 0).astype(float)
    link = (touch @ touch.T > 0).astype(float)
    while True:
        wider = (link @ link > 0).astype(float)
        if np.array_equal(wider, link):
            break
        link = wider
    group = link.argmax(axis=1)  # the first row of each row's group
    touched = touch.any(axis=0)
    col_group = np.where(touched, group[touch.argmax(axis=0)], -1)
    free = np.flatnonzero(~touched)
    blocks = [np.eye(rows.shape[1])[:, free]]
    for g in np.unique(group):
        r, c = np.flatnonzero(group == g), np.flatnonzero(col_group == g)
        null = np.linalg.svd(rows[np.ix_(r, c)])[2][len(r):]
        block = np.zeros((rows.shape[1], len(null)))
        block[c] = null.T
        blocks.append(block)
    return np.hstack(blocks)


@pytest.mark.parametrize("path", ["real", "complex"])
@pytest.mark.parametrize(
    "make",
    [lambda: _bb84(3), lambda: _qutrit(2), lambda: _depolarizing_purity(3),
     lambda: ExtensionQuery(rho=_WERNER, N=4, ppt=True),
     lambda: ExtensionQuery(rho=_ghz_mixed(), N=2, ppt=True)],
    ids=["bb84_ppt_N3", "qutrit_ppt_N2", "purity_unit_trace_N3_ppt",
         "trace_match_N4_ppt", "tri_N2_ppt"],
)
def test_kernel_matches_dense_closure(make, path, monkeypatch, cold_cache):
    seen = []

    def recording(rows):
        seen.append(rows)
        return _kernel(rows)

    monkeypatch.setattr("dpskit.extensions._kernel", recording)
    _compile(make() if path == "real" else _rotated(make()))
    (rows,) = seen
    assert np.array_equal(_kernel(rows).toarray(), _closure_kernel(rows))


def _dense_nbytes(problem):
    """The bytes of A as a dense float64 (m, sum_b n_b^2) matrix."""
    return 8 * len(problem.rhs) * sum(n * n for n in problem.block_sizes)


def test_compile_memory_bounded_by_constraint_matrix(cold_cache):
    """BB84 PPT N=5 (real path, m = 290): the kernel basis, its PPT images
    and A are built sparse; the bound is 3 times A as a dense matrix."""
    q = _bb84(5)
    tracemalloc.start()
    try:
        problem, codec = _compile(q)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert codec.real and len(problem.rhs) == 290
    assert peak <= 3 * _dense_nbytes(problem)


def test_validate_memory_bounded_by_constraint_matrix(cold_cache):
    """BB84 PPT N=6 (m = 396, sides 28 and 64): the symmetry check runs on
    the sparse rows, not on dense (m, n, n) stacks of A; the bound is half
    of A as a dense matrix.  A copy of the compiled A is not one that
    ``sparse_rows`` built, so ``validate`` checks and prepares it anew."""
    problem, _ = _compile(_bb84(6))
    assert len(problem.rhs) == 396
    problem.constraints = problem.constraints.copy()
    tracemalloc.start()
    try:
        problem.validate()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 0.5 * _dense_nbytes(problem)


@pytest.mark.parametrize("row", [0, 57, 67])
def test_validate_names_asymmetric_row_in_second_block(row, cold_cache):
    problem, _ = _compile(_bb84(2))
    n0, n1 = problem.block_sizes
    assert len(problem.rhs) == 68
    a = problem.constraints.toarray()  # the compiled A is shared and read-only
    a[row, n0 * n0 + 2 * n1 + 5] += 1e-6  # entry (2, 5) of block 1
    problem.constraints = a
    with pytest.raises(ValueError, match=rf"^constraint {row}: block 1 not symmetric$"):
        problem.validate()


def test_constraint_matrix_built_complete(cold_cache):
    """``sparse_rows`` checks A as it builds it, and a solve sets nothing on
    the shared A it reads."""
    problem, _ = _compile(_bb84(2))
    a = problem.constraints
    before = dict(vars(a))
    solve(problem, max_iter=3)
    assert vars(a).keys() == before.keys()
    assert all(vars(a)[key] is value for key, value in before.items())
    n0, n1 = problem.block_sizes
    dense = a.toarray()
    dense[67, n0 * n0 + 2 * n1 + 5] += 1e-6  # entry (2, 5) of block 1
    with pytest.raises(ValueError, match=r"^constraint 67: block 1 not symmetric$"):
        sparse_rows(dense, problem.block_sizes)


# ---------------------------------------------------------------------------
# the solver's per-solve Schur workspace on compiled problems
# ---------------------------------------------------------------------------


def _solve_checking_schur(problem, monkeypatch, max_iter=4):
    """Solve, checking each iteration's workspace M against
    ``schur_reference`` bit for bit; the number of iterations checked."""
    rows = problem.validate()
    schur = dpskit.solver._Workspace.schur
    checked = []

    def compare(work, zinv, xb):
        got = schur(work, zinv, xb)
        parts = schur_parts_reference(rows, problem.block_sizes)
        want = schur_reference(parts, zinv, xb, len(problem.rhs))
        assert got.tobytes() == want.tobytes()
        checked.append(1)
        return got

    monkeypatch.setattr(dpskit.solver._Workspace, "schur", compare)
    solve(problem, max_iter=max_iter)
    return len(checked)


@pytest.mark.parametrize("make, path", _ROW_CASES)
def test_workspace_schur_equals_reference(make, path, monkeypatch):
    q = make() if path == "real" else _rotated(make())
    # the tripartite PPT cases stop on their infeasibility certificate at
    # iteration 3, before its Schur complement
    assert _solve_checking_schur(_compile(q)[0], monkeypatch) >= 2


def _three_chunks_per_block(problem, monkeypatch):
    """Set ``SCHUR_CHUNK`` (bytes) so that each block's Schur formation runs
    in at least three chunks; the constraints per chunk, block by block."""
    m, sizes = len(problem.rhs), problem.block_sizes
    chunk = 40 * min(sizes) ** 2  # entries of A's dtype
    monkeypatch.setattr(dpskit.solver, "SCHUR_CHUNK", chunk * problem.constraints.dtype.itemsize)
    steps = [min(m, chunk // (n * n)) for n in sizes]
    assert len(sizes) == 2 and all(-(-m // k) >= 3 for k in steps)
    return steps


@pytest.mark.parametrize("dense", [False, True], ids=["shared_a", "dense_a"])
def test_workspace_schur_equals_reference_in_chunks(dense, monkeypatch):
    """BB84 PPT N=2 on the complex path (m = 128, sides 12 and 16), in 4 and
    6 chunks; with A also given dense, which ``validate`` turns into a
    ``csr_matrix`` on every solve."""
    q = _rotated(_bb84(2))
    problem = _compile(q)[0]
    if dense:
        problem = replace(problem, constraints=dense_constraints(q))
    _three_chunks_per_block(problem, monkeypatch)
    assert _solve_checking_schur(problem, monkeypatch) == 4


def test_solve_keeps_one_schur_buffer_set(monkeypatch):
    """With three or more chunks in each of two blocks, a solve's traced peak
    stays within one set of Schur buffers (two of the largest chunk and that
    chunk's columns of M, complex here, and three real m x m matrices) plus
    8 (m^2 + sum n_b^2) doubles for everything else: buffers kept per chunk
    would exceed it."""
    problem = _compile(_rotated(_bb84(2)))[0]
    m, sizes = len(problem.rhs), problem.block_sizes
    steps = _three_chunks_per_block(problem, monkeypatch)
    solve(problem, max_iter=3)  # warm up: the traced solve counts only its own
    tracemalloc.start()
    try:
        solve(problem, max_iter=3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    biggest = max(k * n * n for k, n in zip(steps, sizes))
    one_set = 16 * (2 * biggest + m * max(steps)) + 8 * 3 * m * m
    assert peak <= one_set + 8 * 8 * (m * m + sum(n * n for n in sizes))


@pytest.mark.parametrize("chunk", [None, 4096], ids=["default-chunk", "small-chunk"])
@pytest.mark.parametrize("path", ["real", "complex"])
def test_workspace_bytes_count_the_buffers(path, chunk, monkeypatch):
    """``workspace_bytes`` is what a solve's ``_Workspace`` allocates, also
    when a block's Schur formation takes several chunks."""
    problem, _ = _compile(_bb84(3) if path == "real" else _rotated(_bb84(3)))
    if chunk:
        monkeypatch.setattr(dpskit.solver, "SCHUR_CHUNK", chunk)
    a = problem.constraints
    work = dpskit.solver._Workspace(a)
    assert chunk is None or max(work.steps) < len(a)
    buffers = (work.chunk, work.half, work.out, work.raw, work.M, work.factor)
    assert sum(b.nbytes for b in buffers) == workspace_bytes(len(a), a.sizes, a.dtype.itemsize)


def test_threads_solve_different_problems_on_one_a():
    """Four threads (more than the cores) solve two BB84 queries, noise 0.1
    and 0.3, at once: one A, other b, C and x0.  Each solution equals its
    serial one bit for bit, so no two solves share a Schur buffer."""
    import sys
    import threading
    from concurrent.futures import ThreadPoolExecutor

    from dpskit.applications import bb84_two_copy_problem

    problems = [_compile(_fidelity_query(bb84_two_copy_problem(eps), 3))[0]
                for eps in (0.1, 0.3)]
    assert problems[0].constraints is problems[1].constraints
    start = threading.Barrier(4)

    def run(problem, wait=False):
        if wait:
            start.wait(timeout=60)
        sol = solve(problem)
        return (sol.status, sol.iterations, sol.dual_multipliers.tobytes(),
                [x.tobytes() for x in sol.primal_blocks])

    want = [run(p) for p in problems]
    assert want[0][2] != want[1][2]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            futures = [pool.submit(run, p, True) for p in problems * 2]
            got = [f.result(timeout=60) for f in futures]
    finally:
        sys.setswitchinterval(interval)
    assert got == want * 2


# ---------------------------------------------------------------------------
# the free (LMI) form: a PPT block costs no equality row
# ---------------------------------------------------------------------------


def _qubit_membership(N):
    rho = random_state((2, 2), 2, 0) * 0.5 + identity((2, 2)) * (0.5 / 4)
    return ExtensionQuery(rho=rho, N=N, ppt=True)


@pytest.mark.parametrize(
    "make, N, real, m",
    [(_bb84, 4, True, 200), (_bb84, 7, True, 518), (_qutrit, 2, True, 165),
     (_qubit_membership, 11, False, 560)],
    ids=["bb84-N4", "bb84-N7", "qutrit-N2", "qubit-membership-N11"],
)
def test_free_form_sizes(make, N, real, m):
    # m = the free parameters of X: 676, 3250, 384 and 7072 rows with a
    # primal PPT block and its link rows
    q = make(N)
    problem, codec = _compile(q)
    assert codec.real == real
    size = sdp_size(q.rho.factor_dims, N, True, q.reduced_constraint, real)
    assert len(problem.rhs) == size[0] == m


@pytest.mark.parametrize("path", ["real", "complex"])
@pytest.mark.parametrize(
    "make",
    [
        lambda: ExtensionQuery(rho=_WERNER, N=3, ppt=True),
        lambda: _bb84(3),
        lambda: _depolarizing_purity(3),
        lambda: ExtensionQuery(rho=_ghz_mixed(), N=2, ppt=True),
    ],
    ids=["trace_match", "identity_marginal", "unit_trace", "tripartite"],
)
def test_kernel_spans_state_row_kernel(make, path):
    q = make() if path == "real" else _rotated(make())
    problem, codec = _compile(q)
    assert codec.real == (path == "real")
    rows, rhs = codec.state, codec.rhs()
    kernel = codec.kernel.toarray()
    # every F_k meets the state rows with zero, x0 meets them exactly
    flat = rows.reshape(len(rows), -1).conj()
    assert np.max(np.abs(np.real(flat @ kernel.T))) < 1e-12
    assert np.max(np.abs(np.real(flat @ codec.x0.ravel()) - rhs)) < 1e-12
    # and the F_k span the whole kernel: rank = parameters - state rows
    as_real = np.hstack([kernel.real, kernel.imag])
    assert np.linalg.matrix_rank(as_real) == len(kernel)
    assert len(kernel) == hermitian_vecs(codec.nx, codec.real).shape[0] - len(rows)
    # F_k is Hermitian (real symmetric on the real path)
    f = kernel.reshape(len(kernel), codec.nx, codec.nx)
    assert np.array_equal(f, f.conj().swapaxes(1, 2))


def test_extension_decoded_from_free_parameters():
    q = ExtensionQuery(rho=_WERNER, N=3, ppt=True)
    problem, codec = _compile(q)
    sol = solve(problem)
    assert sol.status == "optimal"
    x = codec.extension(sol)
    # X(y) meets the state rows to rounding; the dual slack is X(y) itself
    assert np.max(np.abs(codec.tmap.apply(x) - _WERNER.entries)) < 1e-13
    assert np.max(np.abs(sol.dual_slacks[0] - x.real)) < 1e-7


def test_infeasible_free_form_ends_dual_infeasible_with_witness():
    rho = BELL * 0.6 + identity((2, 2)) * (0.4 / 4)
    q = ExtensionQuery(rho=rho, N=2, ppt=True)
    problem, codec = _compile(q)
    sol = solve(problem)
    assert sol.status == codec.infeasible == "dual_infeasible"
    w, floor = codec.witness(sol)
    assert float(np.vdot(w.entries, rho.entries).real) < -1e-3
    assert 0.0 <= floor <= verify_witness(q, w) + 1e-7


# ---------------------------------------------------------------------------
# the witness's cone floor, read off the certificate, against the aux SDP
# ---------------------------------------------------------------------------

_NPT_2X3 = 0.7 * random_state((2, 3), 3, 1) + 0.3 * (identity((2, 3)) * (1 / 6))


def _certified_witness(q):
    problem, codec = _compile(q)
    sol = solve(problem)
    assert sol.status == codec.infeasible
    return codec.witness(sol)


_FLOOR_CASES = [
    # the ids name the PPT block's cut, the half cut of S_p^N
    pytest.param(state, N, path, id=f"{state}-{N}-half-{path}")
    for state in ("2x2", "2x3", "2x2x2")
    for N in (2, 3)
    for path in ("real", "complex")
    # the complex tripartite N=3 aux SDP alone takes about 6 s
    if (state, N, path) != ("2x2x2", 3, "complex")
]


@pytest.mark.parametrize("state, N, path", _FLOOR_CASES)
def test_certified_floor_bounds_aux_sdp_floor(state, N, path):
    # a valid lower bound on the aux SDP's optimum, whatever the ray's residual
    rho = {
        "2x2": BELL * 0.6 + identity((2, 2)) * (0.4 / 4),
        "2x3": _NPT_2X3,
        "2x2x2": _ghz_mixed(),
    }[state]
    q = ExtensionQuery(rho=rho, N=N, ppt=True)
    if path == "complex":
        q = _rotated(q)
    w, floor = _certified_witness(q)
    assert floor <= verify_witness(q, w) + 1e-7
    assert floor > 0.0
    assert float(np.vdot(w.entries, q.rho.entries).real) < 0.0


@pytest.mark.parametrize("path", ["real", "complex"])
@pytest.mark.parametrize(
    "rho, N", [(BELL, 2), (rho_family(2), 4), (random_state((2, 3), 1, 0), 2)],
    ids=["bell", "overlap-k2", "2x3-pure"],
)
def test_certified_floor_exact_without_ppt(rho, N, path):
    # without a PPT block the floor is lambda_min(L^dag(W)), the aux optimum
    q = ExtensionQuery(rho=rho, N=N, ppt=False)
    if path == "complex":
        q = _rotated(q)
    w, floor = _certified_witness(q)
    assert floor == pytest.approx(verify_witness(q, w), abs=1e-7)


def test_refine_witness_shift_certifies_a_negative_floor():
    q = ExtensionQuery(rho=BELL, N=2, ppt=True)
    w, _ = _certified_witness(q)
    # lower W until its true cone floor is -1e-3, and report exactly that
    bad = w.replace_entries(w.entries - (verify_witness(q, w) + 1e-3) * np.eye(w.dim))
    res = _refine_witness(BELL, bad, -1e-3)
    assert res.verdict == "infeasible"
    assert res.detail == "dual certificate; certified cone floor 5.00e-04"
    assert float(np.vdot(res.witness.entries, BELL.entries).real) < 0.0
    assert verify_witness(q, res.witness) >= -1e-9


def test_refine_witness_undecided_when_cap_binds():
    w, floor = _certified_witness(ExtensionQuery(rho=BELL, N=2, ppt=True))
    value = float(np.vdot(w.entries, BELL.entries).real)
    res = _refine_witness(BELL, w, -1.0)
    assert res.verdict == "undecided" and res.witness is None
    cap = -0.25 * value
    assert res.detail == (
        f"witness cone floor -1.00e+00 below -{cap:.2e}, the largest shift "
        f"that keeps tr(W rho) {value:.2e} negative"
    )
    # a witness that does not separate rho is no verdict either
    flipped = _refine_witness(BELL, w * -1.0, floor)
    assert flipped.verdict == "undecided"
    assert flipped.detail.startswith("witness value tr(W rho) ")


def test_membership_undecided_when_floor_cannot_be_certified(monkeypatch):
    from dpskit.extensions import _Codec

    witness = _Codec.witness

    def sunk(self, sol):
        w, floor = witness(self, sol)
        return w, floor - 10.0

    monkeypatch.setattr(_Codec, "witness", sunk)
    res = check_membership(ExtensionQuery(rho=BELL, N=2, ppt=True))
    assert res.verdict == "undecided"
    assert res.detail.startswith("witness cone floor ")


def test_memory_error_reported_as_budget(monkeypatch):
    def exhausted(q):
        raise MemoryError("Unable to allocate")

    monkeypatch.setattr("dpskit.extensions._compile", exhausted)
    with pytest.raises(BudgetExceeded, match=r"N=7 PPT identity_marginal .*m = 518 "):
        optimize_over_cone(_bb84(7))
    with pytest.raises(BudgetExceeded, match=r"N=11 PPT trace_match .*m = 560 "):
        check_membership(_qubit_membership(11))


def test_refused_query_builds_no_map():
    """PPT membership at N = 100 is refused from its predicted peak alone,
    before any map is built; the message names N, m, the sides and the MiB."""
    misses = [f.cache_info().misses for f in (_trace_local, _ppt_local)]
    with pytest.raises(BudgetExceeded, match=r"^the N=100 PPT trace_match query on factors "
                       r"\(2, 2\) \(m = 20493 equality rows, block sides \[202, 5202\], "
                       r"predicted peak \d+\.\d MiB\) exceeds the 1024 MiB limit$"):
        check_membership(ExtensionQuery(rho=_WERNER, N=100, ppt=True))
    assert [f.cache_info().misses for f in (_trace_local, _ppt_local)] == misses


def _random_query(dims, N, ppt, kind, real):
    rho = random_state(dims, prod(dims), 1)
    if real:
        rho = rho.replace_entries(rho.entries.real)
    objective = None if kind == "trace_match" else rho
    return ExtensionQuery(rho=rho, N=N, ppt=ppt, objective=objective, reduced_constraint=kind)


@pytest.mark.parametrize("real", [True, False], ids=["real", "complex"])
@pytest.mark.parametrize("kind", ["trace_match", "identity_marginal", "unit_trace"])
@pytest.mark.parametrize("dims", [(2, 2), (3, 3), (2, 2, 2)],
                         ids=["qubit", "qutrit", "tripartite"])
def test_sdp_size_matches_compiled_constraints(dims, kind, real, monkeypatch):
    """``sdp_size`` gives the m and block sides of the compiled A exactly,
    at every N, with and without a PPT block (none at N = 1)."""
    monkeypatch.setattr("dpskit.extensions.PEAK_BYTES", np.inf)  # compiled, never solved
    for N in range(1, 7 if len(dims) == 2 else 4):
        for ppt in (False, True):
            problem, codec = _compile(_random_query(dims, N, ppt, kind, real))
            assert codec.real == real
            m, sides, _ = sdp_size(dims, N, codec.pmap is not None, kind, real)
            assert (m, sides) == (len(problem.constraints), problem.constraints.sizes)
            _structure.cache_clear()  # the larger structures are not kept


@pytest.mark.parametrize(
    "make",
    [lambda: _bb84(3), lambda: _qubit_membership(6), lambda: replace(_bb84(6), ppt=False),
     lambda: _rotated(replace(_bb84(6), ppt=False)), lambda: _qutrit(3)],
    ids=["free-real-bb84-N3", "free-complex-qubit-N6", "rows-real-bb84-N6",
         "rows-complex-bb84-N6", "free-real-qutrit-N3"],
)
def test_predicted_peak_bounds_traced_peak(make):
    """What compile plus solve allocate, from cold caches, as tracemalloc
    sees it, stays within the predicted peak less FIRST_SOLVE_BYTES, the
    part of it that no Python allocation makes."""
    q = make()
    for cache in (_structure, _maps, _trace_local, _ppt_local):
        cache.cache_clear()
    tracemalloc.start()
    try:
        problem, codec = _compile(q)
        solve(problem)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    predicted = sdp_size(q.rho.factor_dims, q.N, codec.pmap is not None,
                         q.reduced_constraint, codec.real)[2]
    assert peak <= predicted - FIRST_SOLVE_BYTES


# ---------------------------------------------------------------------------
# unit_trace queries without a PPT block: the top eigenspace of L^dag(objective)
# ---------------------------------------------------------------------------


def _ghz_geometric(N):
    rho_ab = partial_trace(GHZ, [2])
    return _unit_trace_query(rho_ab, rho_ab, N)


def _eigen_route_cases():
    makes = {"purity": _depolarizing_purity, "ghz": _ghz_geometric, "w": _w_geometric}
    cases = [
        pytest.param(replace(make(N), ppt=False), id=f"{name}-N{N}")
        for name, make in makes.items()
        for N in (1, 2, 3, 6, 12)
    ]
    cases += [
        pytest.param(_rotated(replace(_depolarizing_purity(3), ppt=False)), id="purity-rotated-N3"),
        pytest.param(_rotated(replace(_w_geometric(2), ppt=False)), id="w-rotated-N2"),
        pytest.param(replace(_unit_trace_query(GHZ, GHZ, 2), ppt=False), id="3-factor-ghz-N2"),
        pytest.param(
            ExtensionQuery(rho=SEP3, N=2, objective=random_state([2, 2, 2], 3, 4),
                           reduced_constraint="unit_trace"),
            id="3-factor-complex-N2",
        ),
        pytest.param(_w_geometric(1), id="w-ppt-N1"),
    ]
    return cases


@pytest.mark.parametrize("q", _eigen_route_cases())
def test_unit_trace_without_ppt_block_is_top_eigenspace(q, monkeypatch):
    sdp = _solve_over_cone(q)
    assert sdp.status == "optimal"

    def no_sdp(*args, **kwargs):
        raise AssertionError("the top-eigenspace route compiled or solved an SDP")

    monkeypatch.setattr("dpskit.extensions._compile", no_sdp)
    monkeypatch.setattr("dpskit.extensions.solve", no_sdp)
    opt = optimize_over_cone(q)
    assert (opt.status, opt.iterations) == ("optimal", 0)
    assert abs(opt.value - sdp.value) <= 1e-7
    assert np.max(np.abs(opt.extension - sdp.extension)) <= 1e-6
    assert opt.optimizer.trace() == pytest.approx(1.0, abs=1e-12)
    dA, *dBs = q.rho.factor_dims
    c = TraceMap(dA, dBs, q.N).adjoint(q.objective.entries)
    assert opt.value == pytest.approx(np.linalg.eigvalsh(c)[-1], abs=1e-12)


@pytest.mark.parametrize("tol, rank", [(1e-8, 2), (1e-10, 1)])
def test_top_eigenspace_threshold_is_tol(tol, rank):
    # at N = 1 the trace map is the identity, so L^dag(objective) = objective
    gap = 1e-9
    obj = HermitianOperator((2, 2), np.diag([1.0, 1.0 - gap, 0.5, 0.0]).astype(complex))
    q = ExtensionQuery(rho=obj, N=1, objective=obj, reduced_constraint="unit_trace")
    opt = optimize_over_cone(q, tol=tol)
    assert np.linalg.matrix_rank(opt.extension, 1e-6) == rank
    assert_allclose(np.diag(opt.extension).real[:rank], 1.0 / rank, atol=1e-15)
    assert opt.value == pytest.approx(1.0 - gap * (rank - 1) / rank, abs=1e-15)


def _count_solves(monkeypatch) -> list:
    """A list that gains one entry per ``solve`` call in dpskit.extensions."""
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return solve(*args, **kwargs)

    monkeypatch.setattr("dpskit.extensions.solve", counted)
    return calls


@pytest.mark.parametrize(
    "q",
    [_w_geometric(2), replace(_w_geometric(2), ppt=False, reduced_constraint="identity_marginal")],
    ids=["ppt-N2", "identity-marginal"],
)
def test_other_cone_queries_are_solved(q, monkeypatch):
    calls = _count_solves(monkeypatch)
    optimize_over_cone(q)
    assert len(calls) == 1


def test_witness_oracle_solves_without_ppt_block(monkeypatch):
    calls = _count_solves(monkeypatch)
    q = ExtensionQuery(rho=BELL, N=2, ppt=False)
    res = check_membership(q)
    assert res.verdict == "infeasible" and len(calls) == 1
    assert verify_witness(q, res.witness) >= -1e-7
    assert len(calls) == 2
