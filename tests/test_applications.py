import numpy as np
import pytest
from numpy.testing import assert_allclose

from dpskit.applications import (
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
from dpskit.operators import (
    HermitianOperator,
    identity,
    kron,
    partial_trace,
    pure_state,
)


def product_search_maximum(rho_ab, dims, seed=0, restarts=60, iters=80):
    """Brute-force oracle for max <ab|rho|ab>: random starts plus alternating
    eigenvector ascent (each local update is the exact one-sided optimum)."""
    da, db = dims
    m = rho_ab.reshape(da, db, da, db)
    rng = np.random.default_rng(seed)
    best = 0.0
    for _ in range(restarts):
        a = rng.standard_normal(da) + 1j * rng.standard_normal(da)
        a /= np.linalg.norm(a)
        for _ in range(iters):
            mb = np.einsum("i,ijkl,k->jl", a.conj(), m, a)
            w, v = np.linalg.eigh(mb)
            b = v[:, -1]
            ma = np.einsum("j,ijkl,l->ik", b.conj(), m, b)
            w, v = np.linalg.eigh(ma)
            a_new = v[:, -1]
            if abs(abs(np.vdot(a_new, a)) - 1.0) < 1e-14:
                a = a_new
                break
            a = a_new
        val = float(np.real(np.einsum("i,j,ijkl,k,l->", a.conj(), b.conj(), m, a, b)))
        best = max(best, val)
    return best


class TestEstimationOperator:
    def test_single_pure_pair(self):
        enc = pure_state([1, 0], (2,))
        src = pure_state([0, 1], (2,))
        prob = EstimationProblem(((1.0, enc, src),))
        rho = estimation_operator(prob)
        assert_allclose(rho.entries, np.kron(enc.entries, src.entries), atol=1e-14)

    def test_uniform_orthogonal_identity_encoding(self):
        zero, one = pure_state([1, 0], (2,)), pure_state([0, 1], (2,))
        prob = EstimationProblem(((0.5, zero, zero), (0.5, one, one)))
        rho = estimation_operator(prob)
        want = np.zeros((4, 4))
        want[0, 0] = want[3, 3] = 0.5
        assert_allclose(rho.entries, want, atol=1e-14)

    @pytest.mark.parametrize("make", [bb84_two_copy_problem, qutrit_grid_problem],
                             ids=["bb84", "qutrit"])
    def test_equals_kron_sum_bit_for_bit(self, make):
        for eps in np.linspace(0.0, 1.0, 21):
            prob = make(eps)
            acc = np.zeros((prob.ensemble[0][1].dim * prob.ensemble[0][2].dim,) * 2, complex)
            for p, enc, src in prob.ensemble:
                acc += p * np.kron(enc.entries, src.entries)
            want = HermitianOperator(estimation_operator(prob).factor_dims, acc)
            assert estimation_operator(prob).entries.tobytes() == want.entries.tobytes()

    def test_bb84_trace_and_rank(self):
        rho = estimation_operator(bb84_two_copy_problem(0.3))
        assert rho.trace() == pytest.approx(1.0, abs=1e-12)
        assert rho.factor_dims == (4, 2)
        assert np.linalg.matrix_rank(rho.entries, tol=1e-10) <= 8

    def test_probabilities_must_sum_to_one(self):
        enc = pure_state([1, 0], (2,))
        with pytest.raises(ValueError, match="sum"):
            EstimationProblem(((0.7, enc, enc),))

    @pytest.mark.parametrize("p", [1.5, -0.5])
    def test_probabilities_must_lie_in_unit_interval(self, p):
        zero, one = pure_state([1, 0], (2,)), pure_state([0, 1], (2,))
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            EstimationProblem(((p, zero, zero), (1.0 - p, one, one)))

    def test_sources_must_be_pure(self):
        enc = pure_state([1, 0], (2,))
        mixed = identity((2,)) * 0.5
        with pytest.raises(ValueError, match="pure"):
            EstimationProblem(((1.0, enc, mixed),))


class TestBoundPair:
    def test_rejects_crossed_bounds(self):
        with pytest.raises(ValueError):
            BoundPair(upper=0.3, lower=0.5, N=2, ppt=False)


class TestFidelity:
    def test_single_state_problem(self):
        # exact F = 1 at every level; the sym lower bound maps it to (N+1)/(N+d)
        enc = pure_state([0.8, 0.6], (2,))
        prob = EstimationProblem(((1.0, enc, enc),))
        bp = fidelity_bounds(prob, 2, ppt=False)
        assert bp.upper == pytest.approx(1.0, abs=1e-6)
        assert bp.lower == pytest.approx(3.0 / 4.0, abs=1e-6)

    def test_bb84_fully_depolarized(self):
        prob = bb84_two_copy_problem(1.0)
        for n in (1, 2):
            bp = fidelity_bounds(prob, n, ppt=False)
            assert bp.upper == pytest.approx(0.5, abs=1e-6)

    def test_bb84_clean_single_level_anchor(self):
        # regression anchor, pinned by the SDP (see the annihilator argument:
        # a PSD Lambda with Lambda_A = I killing all four error vectors exists)
        prob = bb84_two_copy_problem(0.0)
        bp = fidelity_bounds(prob, 1, ppt=False)
        assert bp.upper == pytest.approx(1.0, abs=1e-6)

    def test_bb84_monotone_nonppt(self):
        prob = bb84_two_copy_problem(0.3)
        values = [fidelity_bounds(prob, n, ppt=False).upper for n in (1, 2, 3)]
        assert values[0] >= values[1] - 1e-7
        assert values[1] >= values[2] - 1e-7

    def test_bb84_hadamard_relabeling_invariance(self):
        # |0> <-> |+>, |1> <-> |-> is conjugation by H on every tensor slot
        h = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
        prob = bb84_two_copy_problem(0.3)
        relabeled = []
        for p, enc, src in prob.ensemble:
            u4 = np.kron(h, h)
            enc2 = HermitianOperator((4,), u4 @ enc.entries @ u4.conj().T)
            src2 = HermitianOperator((2,), h @ src.entries @ h.conj().T)
            relabeled.append((p, enc2, src2))
        prob2 = EstimationProblem(tuple(relabeled))
        a = fidelity_bounds(prob, 2, ppt=True).upper
        b = fidelity_bounds(prob2, 2, ppt=True).upper
        assert a == pytest.approx(b, abs=1e-6)


class TestGenerators:
    def test_bb84_epsilon_validation(self):
        with pytest.raises(ValueError):
            bb84_two_copy_problem(1.5)

    def test_qutrit_normalization(self):
        prob = qutrit_grid_problem(0.2)
        assert len(prob.ensemble) == 36
        for p, enc, src in prob.ensemble:
            assert p == pytest.approx(1.0 / 36.0)
            assert src.trace() == pytest.approx(1.0, abs=1e-12)

    def test_qutrit_j0_collapses_to_ground(self):
        prob = qutrit_grid_problem(0.0)
        ground = pure_state([1, 0, 0], (3,)).entries
        # entries are ordered i-major: j == 0 occurs at positions 6i
        for i in range(6):
            _, enc, src = prob.ensemble[6 * i]
            assert_allclose(src.entries, ground, atol=1e-12)
            assert_allclose(enc.entries, ground, atol=1e-12)


class TestPurity:
    def test_identity_channel(self):
        bp = output_purity_bounds(identity_choi(2), 2, ppt=True)
        assert bp.upper == pytest.approx(1.0, abs=1e-6)

    @pytest.mark.parametrize("p", [0.2, 0.5])
    def test_depolarizing_value(self, p):
        bp = output_purity_bounds(depolarizing_choi(2, p), 2, ppt=True)
        assert bp.upper == pytest.approx(1.0 - p / 2.0, abs=1e-4)

    def test_lower_bound_formula(self):
        from dpskit.bounds import g_N

        bp = output_purity_bounds(identity_choi(2), 2, ppt=True)
        g = g_N(2, 2)
        assert bp.lower == pytest.approx((1.0 - g) * bp.upper + g / 2.0, abs=1e-9)

    def test_sandwich_on_random_unital_channel(self):
        # random mixture of unitary conjugations: unital and trace-preserving
        rng = np.random.default_rng(5)
        paulis = [
            np.eye(2),
            np.array([[0, 1], [1, 0]]),
            np.array([[0, -1j], [1j, 0]]),
            np.array([[1, 0], [0, -1]]),
        ]
        w = rng.dirichlet(np.ones(4))
        # build the Choi directly: sum_ij |i><j| (x) omega(|i><j|)
        m = np.zeros((4, 4), dtype=complex)
        for i in range(2):
            for j in range(2):
                e = np.zeros((2, 2), dtype=complex)
                e[i, j] = 1.0
                out = sum(w[k] * paulis[k] @ e @ paulis[k].conj().T for k in range(4))
                m += np.kron(e, out)
        choi = HermitianOperator((2, 2), m)
        upper2 = output_purity_bounds(choi, 2, ppt=True)
        lower = upper2.lower
        # exact nu for a Pauli channel: max_rho ||sum w_k U_k rho U_k||
        # achieved on Bloch axis states
        nu_candidates = []
        for axis in range(3):
            vec = np.zeros(3)
            vec[axis] = 1.0
            flips = {0: np.ones(3), 1: [1, -1, -1], 2: [-1, 1, -1], 3: [-1, -1, 1]}
            shrink = sum(w[k] * np.array(flips[k]) for k in range(4))
            nu_candidates.append(0.5 * (1 + abs(shrink[axis])))
        nu = max(nu_candidates)
        assert lower <= nu + 1e-7
        assert upper2.upper >= nu - 1e-7

    def test_upper_nonincreasing_in_N(self):
        values = [
            output_purity_bounds(identity_choi(2), n, ppt=False).upper for n in (1, 2)
        ]
        assert values[0] >= values[1] - 1e-7
        assert values[0] == pytest.approx(2.0, abs=1e-6)  # nu^1 = ||Omega||_op

    def test_rejects_bad_marginal(self):
        bad = identity((2, 2)) * 0.3
        with pytest.raises(ValueError, match="marginal"):
            output_purity_bounds(bad, 2, ppt=False)


class TestGeometric:
    def test_product_state(self):
        psi = pure_state([1, 0, 0, 0, 0, 0, 0, 0], (2, 2, 2))
        bp = geometric_entanglement_bounds(psi, 2, ppt=True)
        assert bp.upper == pytest.approx(1.0, abs=1e-6)

    def test_ghz_against_brute_force(self):
        rho_ab = partial_trace(ghz_state(), [2]).entries
        oracle = product_search_maximum(rho_ab, (2, 2), seed=1)
        assert oracle == pytest.approx(0.5, abs=1e-3)
        bp = geometric_entanglement_bounds(ghz_state(), 2, ppt=True)
        assert bp.upper == pytest.approx(oracle, abs=1e-3)

    def test_w_against_brute_force(self):
        rho_ab = partial_trace(w_state(), [2]).entries
        oracle = product_search_maximum(rho_ab, (2, 2), seed=2)
        assert oracle == pytest.approx(4.0 / 9.0, abs=1e-3)
        bp = geometric_entanglement_bounds(w_state(), 2, ppt=True)
        assert bp.upper == pytest.approx(oracle, abs=1e-3)

    def test_lower_bound_uses_smallest_marginal_eigenvalue(self):
        from dpskit.bounds import g_N

        psi = ghz_state()
        bp = geometric_entanglement_bounds(psi, 2, ppt=False)
        lam_a = 0.5  # GHZ marginal is maximally mixed
        assert bp.lower == pytest.approx(
            (2.0 / 4.0) * bp.upper + lam_a / 4.0, abs=1e-9
        )

    def test_upper_nonincreasing_in_N(self):
        values = [
            geometric_entanglement_bounds(ghz_state(), n, ppt=False).upper
            for n in (1, 2)
        ]
        assert values[0] >= values[1] - 1e-7

    def test_requires_pure_state(self):
        mixed = identity((2, 2, 2)) * 0.125
        with pytest.raises(ValueError, match="pure"):
            geometric_entanglement_bounds(mixed, 2, ppt=False)

    def test_ppt_upper_below_plain_upper(self):
        psi = w_state()
        plain = geometric_entanglement_bounds(psi, 2, ppt=False)
        ppt = geometric_entanglement_bounds(psi, 2, ppt=True)
        assert ppt.upper <= plain.upper + 1e-7
