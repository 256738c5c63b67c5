import numpy as np
import pytest
import scipy.linalg as sla
import scipy.sparse as sp
from numpy.testing import assert_allclose

import dpskit.solver
from dpskit.extensions import ExtensionQuery, check_membership
from dpskit.operators import HermitianOperator, pure_state
from dpskit.solver import (
    SdpProblem,
    SolverBreakdown,
    _asymmetric,
    hermitian_basis,
    solve,
)
from oracles import embed_complex, step_length_oracle, unembed_real


def sym(rng, n):
    g = rng.standard_normal((n, n))
    return 0.5 * (g + g.T)


def vecs(*mats):
    """Constraint matrix of single-block rows, one row-major vec per row."""
    return np.array([m.ravel() for m in mats])


def constructed_optimum(n, m, seed):
    """Random SDP with a known optimum built from a complementary pair."""
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    k = max(n // 2, 1)
    x_eigs = np.concatenate([rng.uniform(0.5, 2.0, k), np.zeros(n - k)])
    z_eigs = np.concatenate([np.zeros(k), rng.uniform(0.5, 2.0, n - k)])
    x_star = (q * x_eigs) @ q.T
    z_star = (q * z_eigs) @ q.T
    y_star = rng.standard_normal(m)
    mats = [sym(rng, n) for _ in range(m)]
    c = sum(y_star[i] * mats[i] for i in range(m)) + z_star
    b = np.array([float(np.sum(mats[i] * x_star)) for i in range(m)])
    problem = SdpProblem([n], [c], vecs(*mats), b)
    return problem, float(np.sum(c * x_star))


def constructed_complex_optimum(n, m, seed):
    """``constructed_optimum`` over complex Hermitian blocks; also the
    optimal X."""
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    k = max(n // 2, 1)
    x_eigs = np.concatenate([rng.uniform(0.5, 2.0, k), np.zeros(n - k)])
    z_eigs = np.concatenate([np.zeros(k), rng.uniform(0.5, 2.0, n - k)])
    x_star = (q * x_eigs) @ q.conj().T
    z_star = (q * z_eigs) @ q.conj().T
    y_star = rng.standard_normal(m)
    mats = []
    for _ in range(m):
        g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        mats.append(0.5 * (g + g.conj().T))
    c = sum(y_star[i] * mats[i] for i in range(m)) + z_star
    b = np.array([np.vdot(mats[i], x_star).real for i in range(m)])
    problem = SdpProblem([n], [c], vecs(*mats), b)
    return problem, np.vdot(c, x_star).real, x_star


def constructed_infeasible(n, m, seed):
    """Farkas-certified infeasible instance: sum y A_i = -S < 0, b.y = 1."""
    rng = np.random.default_rng(seed)
    y = rng.standard_normal(m)
    y[0] = abs(y[0]) + 0.5
    mats = [sym(rng, n) for _ in range(m)]
    s = np.eye(n) * (0.5 + rng.uniform())
    mats[0] = (-s - sum(y[i] * mats[i] for i in range(1, m))) / y[0]
    b = rng.standard_normal(m)
    b[0] = (1.0 - y[1:] @ b[1:]) / y[0]
    return SdpProblem([n], [None], vecs(*mats), b)


class TestEmbedding:
    def test_real_input_block_diagonal(self):
        h = HermitianOperator((2,), np.array([[1.0, 2.0], [2.0, -1.0]]))
        e = embed_complex(h)
        assert_allclose(e[:2, :2], h.entries.real)
        assert_allclose(e[2:, 2:], h.entries.real)
        assert_allclose(e[:2, 2:], 0.0)

    def test_pauli_y_spectrum(self):
        y = HermitianOperator((2,), np.array([[0, -1j], [1j, 0]]))
        w = np.linalg.eigvalsh(embed_complex(y))
        assert_allclose(w, [-1, -1, 1, 1], atol=1e-12)

    def test_spectrum_doubling(self):
        rng = np.random.default_rng(4)
        g = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
        h = 0.5 * (g + g.conj().T)
        w = np.linalg.eigvalsh(h)
        we = np.linalg.eigvalsh(embed_complex(h))
        assert_allclose(we, np.sort(np.repeat(w, 2)), atol=1e-10)

    def test_unembed_roundtrip(self):
        rng = np.random.default_rng(5)
        g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        h = 0.5 * (g + g.conj().T)
        assert_allclose(unembed_real(embed_complex(h)), h, atol=1e-14)

    def test_inner_product_doubles(self):
        rng = np.random.default_rng(6)
        hs = []
        for _ in range(2):
            g = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
            hs.append(0.5 * (g + g.conj().T))
        a, b = hs
        lhs = float(np.sum(embed_complex(a) * embed_complex(b)))
        rhs = 2.0 * float(np.real(np.sum(a.conj() * b)))
        assert lhs == pytest.approx(rhs, abs=1e-12)


@pytest.mark.parametrize("seed", range(3))
def test_complex_solve_equals_embedded_oracle(seed):
    """A complex SDP solved over Hermitian blocks and, through the real
    embedding, over real symmetric blocks of twice the side, whose inner
    products and so right-hand sides and optimum are doubled.  Six rows on
    a rank-2 optimal face of Herm(2) (4 real parameters) make X unique."""
    problem, opt, x_star = constructed_complex_optimum(4, 6, seed)
    (rows,) = problem.blocks(problem.constraints)
    embedded = SdpProblem([8], [embed_complex(problem.objective[0])],
                          vecs(*(embed_complex(a) for a in rows)), 2.0 * problem.rhs)
    native, via_real = solve(problem, tol=1e-10), solve(embedded, tol=1e-10)
    assert native.status == via_real.status == "optimal"
    assert np.iscomplexobj(native.primal_blocks[0])
    assert abs(native.objective_value - opt) <= 1e-8 * (1 + abs(opt))
    assert abs(native.objective_value - 0.5 * via_real.objective_value) <= 1e-8 * (1 + abs(opt))
    # X converges like the square root of the gap
    x = native.primal_blocks[0]
    assert np.max(np.abs(x - unembed_real(via_real.primal_blocks[0]))) < 1e-4
    assert np.max(np.abs(x - x_star)) < 1e-4


def test_hermitian_basis_orthonormal():
    basis = hermitian_basis(3)
    assert len(basis) == 9
    for i, a in enumerate(basis):
        for j, b in enumerate(basis):
            ip = float(np.real(np.sum(a.conj() * b)))
            assert ip == pytest.approx(1.0 if i == j else 0.0, abs=1e-14)


class TestSolve:
    def test_trivial_eigenvalue_problem(self):
        p = SdpProblem([2], [np.diag([1.0, 2.0])], vecs(np.eye(2)), [1.0])
        s = solve(p)
        assert s.status == "optimal"
        assert s.objective_value == pytest.approx(1.0, abs=1e-7)
        assert_allclose(s.primal_blocks[0], np.diag([1.0, 0.0]), atol=1e-6)

    def test_contradictory_equalities(self):
        p = SdpProblem([2], [None], vecs(np.eye(2), np.eye(2)), [1.0, 2.0])
        s = solve(p)
        assert s.status == "primal_infeasible"
        b = np.array([1.0, 2.0])
        aty = s.dual_multipliers[0] * np.eye(2) + s.dual_multipliers[1] * np.eye(2)
        assert float(b @ s.dual_multipliers) > 0
        assert np.linalg.eigvalsh(aty)[-1] <= 1e-9

    @pytest.mark.parametrize("seed", range(8))
    def test_constructed_optimum(self, seed):
        problem, opt = constructed_optimum(8, 6, seed)
        s = solve(problem)
        assert s.status == "optimal"
        assert abs(s.objective_value - opt) <= 1e-6 * (1 + abs(opt))
        # weak duality at the returned pair
        b = problem.rhs
        dual = float(b @ s.dual_multipliers)
        assert s.objective_value >= dual - 1e-6

    def test_multiblock(self):
        rng = np.random.default_rng(77)
        p1, opt1 = constructed_optimum(5, 4, 100)
        # staple a second independent block carrying a known optimum
        p2, opt2 = constructed_optimum(4, 3, 101)
        # block-diagonal rows: p1's rows touch block 0 only, p2's block 1 only
        constraints = sla.block_diag(p1.constraints, p2.constraints)
        rhs = np.concatenate([p1.rhs, p2.rhs])
        prob = SdpProblem([5, 4], [p1.objective[0], p2.objective[0]], constraints, rhs)
        s = solve(prob)
        assert s.status == "optimal"
        assert s.objective_value == pytest.approx(opt1 + opt2, abs=1e-6)

    @pytest.mark.parametrize("seed", range(4))
    def test_constructed_infeasible(self, seed):
        prob = constructed_infeasible(6, 5, seed)
        s = solve(prob)
        assert s.status == "primal_infeasible"
        y = s.dual_multipliers
        b = prob.rhs
        assert float(b @ y) == pytest.approx(1.0, abs=1e-9)
        (aty,) = prob.blocks(y @ prob.constraints)
        assert np.linalg.eigvalsh(aty)[-1] <= 1e-7

    def test_determinism(self):
        problem, _ = constructed_optimum(7, 5, 42)
        a = solve(problem)
        b = solve(problem)
        assert abs(a.objective_value - b.objective_value) <= 1e-9

    def test_feasibility_interior(self):
        p = SdpProblem([3], [None], vecs(np.eye(3)), [1.0])
        s = solve(p)
        assert s.status == "optimal"
        assert np.linalg.eigvalsh(s.primal_blocks[0])[0] >= -1e-8
        assert np.trace(s.primal_blocks[0]) == pytest.approx(1.0, abs=1e-7)

    def test_dual_infeasible_detected(self):
        # min <diag(1,-1), X> s.t. <E00, X> = 1: pushing X_11 up is free descent
        c = np.diag([1.0, -1.0])
        a = np.zeros((2, 2))
        a[0, 0] = 1.0
        p = SdpProblem([2], [c], vecs(a), [1.0])
        s = solve(p)
        assert s.status == "dual_infeasible"
        ray = s.certificate[0]
        assert np.linalg.eigvalsh(ray)[0] >= -1e-9
        assert float(np.sum(c * ray)) < 0

    def test_max_iter_returns_best_iterate(self):
        problem, opt = constructed_optimum(8, 6, 3)
        s = solve(problem, max_iter=4)
        assert s.status == "max_iter"
        assert len(s.residuals) == 3
        assert all(np.isfinite(r) for r in s.residuals)
        # the tau-scaled iterate is still PSD and roughly feasible
        assert np.linalg.eigvalsh(s.primal_blocks[0])[0] >= -1e-9

    def test_one_definiteness_test_per_block_and_step(self, monkeypatch):
        # per block and step: one Cholesky test of X and of Z at the
        # predictor's and at the corrector's step length, and the back-off's
        # two inverse Cholesky factors, which the next iteration reuses; only
        # a block whose test fails takes a smallest eigenvalue.  Every
        # _cholesky call: 6 Schur factors, 12 inverse factors, 24 tests
        counts = dict.fromkeys(("_cholesky", "_lambda_min", "_max_step", "_inverse_cholesky"), 0)
        for name, fn in [(name, getattr(dpskit.solver, name)) for name in counts]:
            def counted(*args, _name=name, _fn=fn, **kwargs):
                counts[_name] += 1
                return _fn(*args, **kwargs)
            monkeypatch.setattr(dpskit.solver, name, counted)
        s = solve(SdpProblem([3], [None], vecs(np.eye(3)), [1.0]))
        assert (s.status, s.iterations) == ("optimal", 7)
        assert counts == {
            "_cholesky": 42, "_lambda_min": 5, "_max_step": 5, "_inverse_cholesky": 12,
        }

    def test_no_full_spectrum_or_wrapped_factorization(self, monkeypatch):
        # every dense kernel of the loop is a direct LAPACK call
        def banned(*args, **kwargs):
            raise AssertionError("called inside solve")

        for name in ("eigvalsh", "eigh", "cholesky"):
            monkeypatch.setattr(np.linalg, name, banned)
        for name in ("cho_factor", "cho_solve", "solve_triangular"):
            monkeypatch.setattr(sla, name, banned)
        problem, opt = constructed_optimum(6, 4, 0)
        s = solve(problem)
        assert s.status == "optimal"
        assert abs(s.objective_value - opt) <= 1e-6 * (1 + abs(opt))

    def test_nan_direction_raises(self, monkeypatch):
        # a NaN direction ends the solve in SolverBreakdown (its step length
        # raises, as the full-spectrum eigvalsh did), and never reads as an
        # unconstrained step
        max_step = dpskit.solver._max_step

        def poisoned(r, dx):
            return max_step(r, np.full_like(dx, np.nan))

        monkeypatch.setattr(dpskit.solver, "_max_step", poisoned)
        problem, _ = constructed_optimum(4, 3, 0)
        with pytest.raises(SolverBreakdown):
            solve(problem)
        # with a PPT block, the Peres test would decide Bell with no solve
        bell = pure_state([1, 0, 0, 1], (2, 2))
        res = check_membership(ExtensionQuery(rho=bell, N=2, ppt=False))
        assert res.verdict == "undecided"
        assert res.detail.startswith("solver breakdown: step length: ")

    def test_back_off_rejects_nan_block(self, monkeypatch):
        # the step length is finite, but the direction it was taken along
        # then gains a NaN: no new iterate with a NaN block is accepted
        step_length = dpskit.solver._step_length
        calls = []

        def poison_after(blocks, scalars, cap, first=0):
            step = step_length(blocks, scalars, cap, first)
            calls.append(1)
            if len(calls) == 2:  # the first corrector: dZ, through its block view
                blocks[-1][2][1, 1] = np.nan
            return step

        monkeypatch.setattr(dpskit.solver, "_step_length", poison_after)
        problem, _ = constructed_optimum(4, 3, 0)
        with pytest.raises(SolverBreakdown, match="back-off"):
            solve(problem)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_inverse_cholesky_rejects_non_finite(self, bad):
        x = np.eye(3)
        x[1, 1] = bad
        with pytest.raises(np.linalg.LinAlgError):
            dpskit.solver._inverse_cholesky(x)

    @pytest.mark.parametrize("seed", range(3))
    def test_back_off_on_failed_factor(self, seed, monkeypatch):
        # min <C, X> over unit-trace X: the smallest eigenvalue of C
        c = sym(np.random.default_rng(seed), 4)
        problem = SdpProblem([4], [c], vecs(np.eye(4)), [1.0])
        plain = solve(problem)
        factor = dpskit.solver._inverse_cholesky
        calls = []

        def fails_once(x):
            calls.append(1)
            if len(calls) == 3:
                raise np.linalg.LinAlgError("injected")
            return factor(x)

        monkeypatch.setattr(dpskit.solver, "_inverse_cholesky", fails_once)
        s = solve(problem)
        assert len(calls) > 3
        assert s.status == "optimal"
        assert abs(s.objective_value - plain.objective_value) <= 1e-8
        assert abs(s.objective_value - np.linalg.eigvalsh(c)[0]) <= 1e-8

    def test_exhausted_back_off_breaks_down(self, monkeypatch):
        def never(x):
            raise np.linalg.LinAlgError("injected")

        monkeypatch.setattr(dpskit.solver, "_inverse_cholesky", never)
        problem, _ = constructed_optimum(4, 3, 0)
        with pytest.raises(SolverBreakdown, match="back-off"):
            solve(problem)
        bell = pure_state([1, 0, 0, 1], (2, 2))
        res = check_membership(ExtensionQuery(rho=bell, N=2, ppt=False))
        assert res.verdict == "undecided"
        assert res.detail == (
            "solver breakdown: step back-off found no positive definite iterate"
        )

    def test_schur_formation_independent_of_chunk_size(self, monkeypatch):
        problem, _ = constructed_optimum(8, 6, 5)
        whole = solve(problem)
        # two constraints per chunk of the (k, 8, 8) float64 temporaries
        monkeypatch.setattr("dpskit.solver.SCHUR_CHUNK", 2 * 64 * 8)
        chunked = solve(problem)
        assert chunked.iterations == whole.iterations
        assert np.array_equal(chunked.dual_multipliers, whole.dual_multipliers)

    BAD = np.array([[0.0, 1.0], [0.0, 0.0]])

    @pytest.mark.parametrize(
        "objective, constraints, rhs, message",
        [
            (BAD, vecs(np.eye(2)), [1.0], "objective: block 0 not symmetric"),
            (None, vecs(np.eye(2), BAD), [1.0, 0.0], "constraint 1: block 0 not symmetric"),
            (None, np.ones((1, 3)), [1.0], r"constraints shape \(1, 3\) != \(m, 4\)"),
            (None, vecs(np.eye(2)), [1.0, 2.0], r"rhs shape \(2,\) != \(1,\)"),
            (np.diag([1.0, 2.0]), np.zeros((0, 4)), np.zeros(0), "constraints: m = 0 rows"),
        ],
        ids=["objective", "constraint_row", "width", "rhs_length", "no_rows"],
    )
    def test_validate_rejects_asymmetric(self, objective, constraints, rhs, message):
        p = SdpProblem([2], [objective], constraints, rhs)
        with pytest.raises(ValueError, match=message):
            solve(p)

    # i(E01 + E10) is symmetric, not Hermitian; i(E01 - E10) is Hermitian
    SYMMETRIC_IMAG = np.array([[0.0, 1j], [1j, 0.0]])
    HERMITIAN_IMAG = np.array([[0.0, 1j], [-1j, 0.0]])

    @pytest.mark.parametrize(
        "objective, rows, message",
        [
            (SYMMETRIC_IMAG, [np.eye(2)], "objective: block 0 not Hermitian"),
            (None, [np.eye(2), SYMMETRIC_IMAG], "constraint 1: block 0 not Hermitian"),
        ],
        ids=["objective", "constraint_row"],
    )
    def test_validate_rejects_symmetric_non_hermitian(self, objective, rows, message):
        p = SdpProblem([2], [objective], vecs(*rows), np.zeros(len(rows)))
        with pytest.raises(ValueError, match=f"^{message}$"):
            p.validate()

    def test_validate_accepts_hermitian(self):
        # min <C, X> over unit-trace X: the smallest eigenvalue of C, -1
        c = self.HERMITIAN_IMAG
        p = SdpProblem([2], [c], vecs(np.eye(2), c), [1.0, -1.0])
        assert p.validate().dtype == complex
        s = solve(p)
        assert s.status == "optimal"
        assert s.objective_value == pytest.approx(-1.0, abs=1e-7)
        v = np.array([1.0, 1j]) / np.sqrt(2.0)  # C v = -v
        assert_allclose(s.primal_blocks[0], np.outer(v, v.conj()), atol=1e-6)

    @pytest.mark.parametrize("seed", range(3))
    def test_sparse_symmetry_check_matches_dense(self, seed):
        rng = np.random.default_rng(seed)
        sizes, m = [1, 3, 5, 2], 40
        blocks = []
        for n in sizes:
            mats = rng.standard_normal((m, n, n)) * (rng.random((m, n, n)) < 0.3)
            mats = mats + mats.swapaxes(1, 2)
            mats[rng.random(m) < 0.2] *= 1e6  # rows whose scale is not 1
            # skews just above and below the threshold, and zeros on one side
            idx = tuple(rng.integers(k, size=12) for k in (m, n, n))
            scale = np.maximum(1.0, np.abs(mats[idx[0]]).max(axis=(1, 2)))
            mats[idx] += rng.choice([0.5, 2.0], 12) * 1e-12 * scale
            mats[tuple(rng.integers(k, size=3) for k in (m, n, n))] = 0.0
            blocks.append(mats)
        a = np.hstack([mats.reshape(m, -1) for mats in blocks])
        got = _asymmetric(sp.csr_matrix(a), sizes, 1e-12)
        for mats, bad in zip(blocks, got):
            scale = np.maximum(1.0, np.abs(mats).max(axis=(1, 2)))
            skew = np.abs(mats - mats.swapaxes(1, 2)).max(axis=(1, 2))
            assert np.array_equal(bad, np.flatnonzero(skew > 1e-12 * scale))
        assert sum(bad.size for bad in got) > 0

    def test_validate_scales_tolerance_per_matrix(self):
        # skew 1e-7 is within 1e-12 of row 0's largest entry, 1e6, but not
        # of row 1's, 1
        big, small = np.diag([1e6, 1.0]), np.eye(2)
        big[0, 1] = small[0, 1] = 1e-7
        SdpProblem([2], [None], vecs(big, np.eye(2)), [1.0, 1.0]).validate()
        p = SdpProblem([2], [None], vecs(big, small), [1.0, 1.0])
        with pytest.raises(ValueError, match="constraint 1: block 0 not symmetric"):
            p.validate()


class TestSparseKernels:
    """Every product with A calls a CSR kernel of ``scipy.sparse._sparsetools``
    directly.  That module is private: these tests pin its signatures."""

    @pytest.mark.parametrize("index", [np.int32, np.int64])
    def test_matvecs_equal_scipy(self, index):
        rng = np.random.default_rng(3)
        dense = rng.standard_normal((9, 30)) * (rng.random((9, 30)) < 0.3)
        dense[[0, 4, 8]] = 0.0  # empty rows: the first, a middle and the last
        dense[:, [0, 29]] = 0.0  # empty columns, the empty rows of A^T
        a = sp.csr_array(dense)
        a.indptr, a.indices = a.indptr.astype(index), a.indices.astype(index)
        x, y = rng.standard_normal(30), rng.standard_normal(9)
        assert a.indices.dtype == index
        assert dpskit.solver._matvec(a, x).tobytes() == (a @ x).tobytes()
        assert dpskit.solver._rmatvec(a, y).tobytes() == (a.T @ y).tobytes()

    @pytest.mark.parametrize("case", ["optimal", "shared_a", "primal_infeasible",
                                      "dual_infeasible"])
    def test_solve_reaches_no_sparse_dispatch(self, case, monkeypatch):
        # each A x, A^T y and Schur chunk product once went through it
        if case == "primal_infeasible":
            problem = constructed_infeasible(6, 5, 0)
        elif case == "dual_infeasible":
            e00 = np.diag([1.0, 0.0])
            problem = SdpProblem([2], [np.diag([1.0, -1.0])], vecs(e00), [1.0])
        else:
            problem = constructed_optimum(8, 6, 0)[0]
        if case == "shared_a":
            problem.constraints = dpskit.solver.sparse_rows(problem.constraints,
                                                             problem.block_sizes)

        def banned(self, other):
            raise AssertionError("scipy.sparse matmul dispatch inside solve")

        monkeypatch.setattr(sp._base._spbase, "_matmul_dispatch", banned)
        s = solve(problem)
        assert s.status == case.replace("shared_a", "optimal")


class TestKernels:
    """The LAPACK kernels against full-spectrum and numpy references."""

    @pytest.mark.parametrize("n", [1, 2, 12, 52, 108])
    @pytest.mark.parametrize("seed", range(3))
    def test_max_step_matches_full_spectrum(self, n, seed):
        rng = np.random.default_rng(100 * n + seed)
        g = rng.standard_normal((n, n))
        r = dpskit.solver._inverse_cholesky(g @ g.T + n * np.eye(n))
        for dx in (sym(rng, n), sym(rng, n) + 3.0 * np.sqrt(n) * np.eye(n)):
            mid = r @ dx @ r.T
            lam = np.linalg.eigvalsh(0.5 * (mid + mid.T))[0]
            step = dpskit.solver._max_step(r, dx)
            if lam >= 0.0:
                assert step == np.inf
            else:
                assert step == pytest.approx(-1.0 / lam, rel=1e-12)

    @pytest.mark.parametrize("n", [1, 3, 40])
    def test_inverse_cholesky_matches_numpy(self, n):
        g = np.random.default_rng(n).standard_normal((n, n))
        x = g @ g.T + n * np.eye(n)
        r = dpskit.solver._inverse_cholesky(x)
        assert_allclose(r, np.linalg.inv(np.linalg.cholesky(x)), rtol=0, atol=1e-12)
        assert np.all(np.triu(r, 1) == 0.0)

    @pytest.mark.parametrize(
        "x",
        [np.diag([1.0, -1e-3, 2.0]), np.array([[1.0, 2.0], [2.0, 1.0]]),
         np.diag([1.0, 0.0, 2.0]), np.ones((3, 3))],
        ids=["indefinite-diag", "indefinite", "singular-diag", "singular-rank1"],
    )
    def test_inverse_cholesky_rejects_non_pd(self, x):
        with pytest.raises(np.linalg.LinAlgError):
            dpskit.solver._inverse_cholesky(x)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_lambda_min_rejects_non_finite(self, bad):
        a = np.eye(3)
        a[1, 1] = bad
        with pytest.raises(np.linalg.LinAlgError):
            dpskit.solver._lambda_min(a)


class TestStepLength:
    """The solver's step rule, which takes an eigenvalue only for a block
    that fails its Cholesky test, against every block's eigenvalue."""

    @staticmethod
    def _case(seed, blocks, complex_):
        rng = np.random.default_rng(seed)
        out = []
        for _ in range(blocks):
            n = int(rng.integers(1, 7))

            def square():
                g = rng.standard_normal((n, n))
                return g + 1j * rng.standard_normal((n, n)) if complex_ else g

            g, h = square(), square()
            x = g @ g.conj().T + n * np.eye(n)
            # directions from far inside the cone to far past its boundary
            d = (h + h.conj().T) * rng.choice([0.01, 0.1, 1.0, 10.0])
            out.append((x, dpskit.solver._inverse_cholesky(x), d))
        scalars = [(float(rng.uniform(0.5, 2)), float(rng.uniform(-2, 2))) for _ in range(2)]
        return out, scalars

    @pytest.mark.parametrize("cap", [1.0, 1.0 / 0.98])
    @pytest.mark.parametrize("blocks", [1, 2, 3])
    @pytest.mark.parametrize("complex_", [False, True], ids=["real", "complex"])
    def test_matches_every_block_eigenvalue_rule(self, complex_, blocks, cap):
        bound = set()
        for seed in range(40):
            case, scalars = self._case(seed, blocks, complex_)
            for first in range(blocks):
                alpha, binder = dpskit.solver._step_length(case, scalars, cap, first)
                assert alpha == step_length_oracle(case, scalars, cap)
                assert 0 <= binder < blocks
                bound.add(alpha < cap)
        assert bound == {True, False}  # some cases bind below the cap, some do not

    @pytest.mark.parametrize("complex_", [False, True], ids=["real", "complex"])
    def test_nan_direction_raises(self, complex_):
        case, scalars = self._case(0, 3, complex_)
        x, r, d = case[2]
        d = d.copy()
        d[0, 0] = np.nan
        case[2] = (x, r, d)
        with pytest.raises(SolverBreakdown, match="step length"):
            dpskit.solver._step_length(case, scalars, 1.0)


class TestDependentRows:
    """No pass prunes dependent rows: the homogeneous embedding solves
    consistent ones and certifies contradictory ones by itself."""

    @pytest.mark.parametrize("seed", range(4))
    def test_consistent_duplicate_and_multiple_rows(self, seed):
        problem, opt = constructed_optimum(8, 6, seed)
        # row 0 once more, and 2.5 times row 1, with consistent right-hand sides
        a = np.vstack([problem.constraints, problem.constraints[0],
                       2.5 * problem.constraints[1]])
        b = np.concatenate([problem.rhs, [problem.rhs[0], 2.5 * problem.rhs[1]]])
        s = solve(SdpProblem([8], problem.objective, a, b))
        assert s.status == "optimal"
        assert len(s.dual_multipliers) == 8
        dedup = solve(problem).objective_value
        assert abs(s.objective_value - dedup) <= 1e-6 * (1 + abs(opt))

    @pytest.mark.parametrize("delta", [1e-6, 1e-9, 1e-12])
    def test_near_duplicate_contradictory_pair(self, delta):
        # tr X = 1 and tr X + 2 delta X_01 = 2 need |X_01| = 1/(2 delta) > 1/2
        e = np.zeros((3, 3))
        e[0, 1] = e[1, 0] = 1.0
        p = SdpProblem([3], [None], vecs(np.eye(3), np.eye(3) + delta * e),
                       np.array([1.0, 2.0]))
        s = solve(p)
        assert s.status == "primal_infeasible"
        y = s.dual_multipliers
        assert float(p.rhs @ y) > 0
        (aty,) = p.blocks(y @ p.constraints)
        assert np.linalg.eigvalsh(aty)[-1] <= 1e-9
