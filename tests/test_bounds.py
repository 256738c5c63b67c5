import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose

from dpskit import bounds
from dpskit.bounds import (
    _gn_params,
    _jacobi_terms,
    _roots_above,
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
    jacobi_recurrence,
    multipartite_probs,
    ppt_alone,
    required_N,
)
from dpskit.extensions import TraceMap
from dpskit.operators import (
    HermitianOperator,
    depolarize,
    identity,
    is_ppt,
    kron,
    norm,
    partial_trace,
    partial_transpose,
    pure_state,
    random_state,
)

import oracles
from oracles import (
    build_basis,
    g_N_via_pencil,
    g_N_via_root,
    jacobi_eval,
    recurrence_matrix,
    tridiagonal_C,
)

BELL = pure_state([1, 0, 0, 1], (2, 2))


# Scalar loops that the vectorized recurrences replaced, kept as references:
# the arithmetic is unchanged, so results must be equal, not close.


def loop_jacobi_eval(n, alpha, beta, x):
    p_prev = 1.0
    if n == 0:
        return p_prev
    p = (alpha + 1.0) + (alpha + beta + 2.0) * (x - 1.0) / 2.0
    for k in range(2, n + 1):
        a1 = 2.0 * k * (k + alpha + beta) * (2.0 * k + alpha + beta - 2.0)
        a2 = (2.0 * k + alpha + beta - 1.0) * (alpha * alpha - beta * beta)
        a3 = (2.0 * k + alpha + beta - 1.0) * (2.0 * k + alpha + beta) * (
            2.0 * k + alpha + beta - 2.0)
        a4 = 2.0 * (k + alpha - 1.0) * (k + beta - 1.0) * (2.0 * k + alpha + beta)
        p, p_prev = ((a2 + a3 * x) * p - a4 * p_prev) / a1, p
    return p


def loop_largest_root(alpha, beta, deg):
    from math import cos, pi

    from scipy.optimize import brentq

    f = lambda x: loop_jacobi_eval(deg, alpha, beta, x)
    steps = 40 * deg + 40
    prev_t, prev_f = 0.0, f(1.0)
    for i in range(1, steps + 1):
        t = pi * i / steps
        val = f(cos(t))
        if prev_f > 0.0 and val <= 0.0:
            return brentq(f, cos(t), cos(prev_t), xtol=1e-14, rtol=1e-15)
        prev_t, prev_f = t, val
    raise ArithmeticError


def loop_recurrence(a, b, n):
    diag, off2 = np.zeros(n), np.zeros(max(n - 1, 0))
    for k in range(n):
        if k == 0:
            ak = (b - a) / (a + b + 2.0)
        else:
            ak = (b * b - a * a) / ((2.0 * k + a + b) * (2.0 * k + a + b + 2.0))
        diag[k] = 1.0 - ak
    for k in range(1, n):
        t = 2.0 * k + a + b
        off2[k - 1] = 4.0 * k * (k + a) * (k + b) * (k + a + b) / (t * t * (t * t - 1.0))
    return diag, -np.sqrt(off2)


class TestJacobi:
    def test_degree_zero(self):
        for a, b in [(0, 0), (1, 2), (3.5, 0.5)]:
            assert jacobi_eval(0, a, b, 0.3) == 1.0

    def test_degree_one_root(self):
        # P_1^{(0,1)}(x) = (3x - 1)/2
        assert jacobi_eval(1, 0, 1, 1.0 / 3.0) == pytest.approx(0.0, abs=1e-15)

    def test_legendre_degree_two_root(self):
        assert jacobi_eval(2, 0, 0, 1.0 / np.sqrt(3.0)) == pytest.approx(0.0, abs=1e-14)

    def test_against_scipy(self):
        from scipy.special import eval_jacobi

        rng = np.random.default_rng(0)
        for _ in range(50):
            n = rng.integers(0, 12)
            a = rng.integers(0, 5)
            b = rng.integers(0, 3)
            x = rng.uniform(-1, 1)
            assert jacobi_eval(int(n), int(a), int(b), x) == pytest.approx(
                float(eval_jacobi(int(n), int(a), int(b), x)), rel=1e-10, abs=1e-10
            )

    def test_equals_loop_reference_on_floats_and_arrays(self):
        x = np.linspace(-1.0, 1.0, 9)
        for n, a, b in [(0, 1, 0), (1, 0, 1), (7, 2, 1), (40, 3.5, 0.5), (23, 0.3, 1.9),
                        (151, 4, 1)]:
            want = [loop_jacobi_eval(n, a, b, float(xi)) for xi in x]
            assert [jacobi_eval(n, a, b, float(xi)) for xi in x] == want
            assert np.array_equal(jacobi_eval(n, a, b, x), want)

    def test_recurrence_equals_loop_reference(self):
        for a, b in [(0, 0), (0, 1), (4, 1), (3.5, 0.5), (0.3, 2.7)]:
            for n in range(0, 160, 7):
                diag, off = loop_recurrence(float(a), float(b), n)
                rec = jacobi_recurrence(a, b, n)
                assert np.array_equal(rec.diag, diag) and np.array_equal(rec.off, off)

    def test_recurrence_symmetry_invariant(self):
        rec = jacobi_recurrence(2, 1, 6)
        c = recurrence_matrix(rec)
        assert_allclose(c, c.T)
        # gamma_0 = 0 is implicit (no sub-diagonal entry feeding row 0)
        assert c.shape == (6, 6)


class TestGn:
    def test_pinned_values(self):
        assert g_N(2, 1) == pytest.approx(2.0 / 3.0, abs=1e-10)
        assert g_N(2, 2) == pytest.approx(1.0 - 1.0 / np.sqrt(3.0), abs=1e-10)

    def test_tridiagonal_eigenvalues_are_shifted_roots(self):
        # oracle: eigenvalues of C equal 1 - (roots of the designated poly)
        from numpy.polynomial.legendre import leggauss

        for n_copies in (2, 4, 6):
            c = tridiagonal_C(2, n_copies)
            eigs = np.sort(np.linalg.eigvalsh(c))
            deg = n_copies // 2 + 1
            roots, _ = leggauss(deg)  # Legendre == Jacobi(0,0)
            assert_allclose(eigs, np.sort(1.0 - roots), atol=1e-10)

    def test_eigenvector_ansatz(self):
        # entries of the minimal eigenvector are proportional to p_n(y0)
        d, n_copies = 3, 6
        c = tridiagonal_C(d, n_copies)
        w, v = np.linalg.eigh(c)
        y0 = 1.0 - w[0]
        vec = v[:, 0]
        rec = jacobi_recurrence(d - 2, 0, c.shape[0])
        # rebuild p_n(y0) through the recurrence (orthonormal normalization
        # cancels after renormalizing)
        p = [1.0]
        for k in range(c.shape[0] - 1):
            prev = rec.off[k - 1] * p[k - 1] if k else 0.0
            p.append((((1.0 - y0) - rec.diag[k]) * p[k] - prev) / rec.off[k])
        p = np.array(p)
        p /= np.linalg.norm(p)
        vec = vec / np.linalg.norm(vec) * np.sign(vec[0] * p[0])
        assert_allclose(np.abs(vec), np.abs(p), atol=1e-8)

    def test_three_routes_agree_sample(self):
        for d in (2, 3, 5):
            for n in (1, 2, 7, 16):
                a = g_N(d, n)
                b = g_N_via_root(d, n)
                c = g_N_via_pencil(d, n)
                assert abs(a - b) < 1e-10
                assert abs(a - c) < 1e-9

    def test_monotone_in_N_and_d(self):
        for d in (2, 3, 4):
            vals = [g_N(d, n) for n in range(1, 15)]
            assert all(x > y for x, y in zip(vals, vals[1:]))
        for n in (1, 2, 5, 10):
            vals = [g_N(d, n) for d in range(2, 7)]
            assert all(x < y for x, y in zip(vals, vals[1:]))

    def test_positive_spectrum(self):
        for d in (2, 4, 6):
            for n in (1, 10, 40):
                assert np.linalg.eigvalsh(tridiagonal_C(d, n))[0] > 0

    @pytest.mark.parametrize("d", range(2, 7))
    def test_sign_scan_equals_loop_reference(self, d):
        for n in [*range(1, 41), 99, 200, 301]:
            alpha, beta, deg = _gn_params(d, n)
            assert g_N_via_root(d, n) == 1.0 - loop_largest_root(alpha, beta, deg)

    @pytest.mark.parametrize("d", range(2, 7))
    def test_sign_scan_root_against_scipy_roots(self, d):
        from scipy.special import roots_jacobi

        for n in [*range(1, 61), 100, 150, 200, 300]:
            alpha, beta, deg = _gn_params(d, n)
            want = 1.0 - max(roots_jacobi(deg, alpha, beta)[0])
            assert abs(g_N_via_root(d, n) - want) <= 1e-12

    @pytest.fixture
    def shift_eigenvalue_route(self, monkeypatch):
        # a diagonal shift moves the eigenvalue route by the shift and
        # leaves the root route alone.  The coefficient cache is cleared
        # before the patch, so the shift reaches the next g_N, and at
        # teardown, so no shifted set outlives the test.
        def shift(value):
            recurrence = bounds.jacobi_recurrence

            def shifted(alpha, beta, n):
                rec = recurrence(alpha, beta, n)
                return bounds.JacobiRecurrence(alpha, beta, rec.diag + value, rec.off)

            bounds._coefficients.cache_clear()
            monkeypatch.setattr(bounds, "jacobi_recurrence", shifted)

        yield shift
        bounds._coefficients.cache_clear()

    def test_routes_disagreeing_raise(self, shift_eigenvalue_route):
        # g_N(3, 10) is about 0.1, so a 1e-6 shift is 1e-5 relative
        shift_eigenvalue_route(1e-6)
        with pytest.raises(ArithmeticError, match=r"routes disagree at \(d=3, N=10\)"):
            g_N(3, 10)

    def test_routes_disagreeing_raise_below_1e7(self, shift_eigenvalue_route):
        # g_N(2, 10750) is 1.0003e-7: a 1e-10 shift (0.1 %) lies far inside
        # any absolute tolerance of 1e-7, but not inside one that scales
        assert 1e-7 < g_N(2, 10750) < 1.001e-7
        shift_eigenvalue_route(1e-10)
        with pytest.raises(ArithmeticError, match=r"routes disagree at \(d=2, N=10750\)"):
            g_N(2, 10750)

    def test_eigenvalue_route_too_low_raises(self, shift_eigenvalue_route):
        # a negative shift puts 1 - g_N above the largest root
        shift_eigenvalue_route(-1e-6)
        with pytest.raises(ArithmeticError, match=r"routes disagree at \(d=3, N=10\)"):
            g_N(3, 10)

    @pytest.mark.parametrize("d, n", [(2, 3), (3, 10), (6, 41), (2, 10750)])
    def test_second_root_raises(self, d, n, monkeypatch):
        # the second-smallest eigenvalue is one minus a true root of the
        # polynomial, but not of its largest
        dstebz = bounds.dstebz

        def second(diag, off, select, vl, vu, il, iu, tol, order):
            return dstebz(diag, off, select, vl, vu, il + 1, iu + 1, tol, order)

        monkeypatch.setattr(bounds, "dstebz", second)
        with pytest.raises(ArithmeticError, match=rf"routes disagree at \(d={d}, N={n}\)"):
            g_N(d, n)

    @pytest.mark.parametrize("d", range(2, 7))
    def test_shared_coefficients_change_no_value(self, d):
        # the rows slice shared coefficient sets: ascending, descending and
        # a fresh set before each call all give eigvalsh_tridiagonal on a
        # fresh jacobi_recurrence, bit for bit
        from scipy.linalg import eigvalsh_tridiagonal

        ns = [*range(1, 401), 10750, 34006, 34007]
        want = []
        for n in ns:
            alpha, beta, deg = _gn_params(d, n)
            rec = jacobi_recurrence(alpha, beta, deg)
            want.append(float(eigvalsh_tridiagonal(rec.diag, rec.off, select="i",
                                                   select_range=(0, 0))[0]))
        fresh = []
        for n in ns:
            bounds._coefficients.cache_clear()
            fresh.append(g_N(d, n))
        assert fresh == want
        assert [g_N(d, n) for n in ns] == want
        assert [g_N(d, n) for n in reversed(ns)] == want[::-1]

    @pytest.mark.parametrize("d", [2, 3, 4, 6])
    def test_matches_dense_tridiagonal_eigensolve(self, d):
        for n in [*range(1, 41), 99, 200, 300]:
            dense = float(np.linalg.eigvalsh(tridiagonal_C(d, n))[0])
            assert abs(g_N(d, n) - dense) <= 1e-11 * dense

    def test_large_N_in_linear_memory(self):
        # the dense (deg x deg) matrix at N = 34007 would take 2.2 GiB
        g = g_N(2, 34007)
        assert 0.0 < g <= 1e-8 < g_N(2, 34006)

    @pytest.mark.parametrize("chunk", [1, 7])
    def test_sign_scan_independent_of_chunk_size(self, chunk, monkeypatch):
        cases = [(d, n) for d in (2, 4, 6) for n in (1, 2, 9, 40, 151)]
        whole = [g_N_via_root(d, n) for d, n in cases]
        monkeypatch.setattr(oracles, "SCAN_CHUNK", chunk)
        assert [g_N_via_root(d, n) for d, n in cases] == whole

    def test_pencil_one_by_one(self):
        # N=1, d=2: A = [1/6], B = [1/2]; 2 * (1/6)/(1/2) = 2/3
        assert g_N_via_pencil(2, 1) == pytest.approx(2.0 / 3.0, abs=1e-12)


class TestRootsAbove:
    """The Sturm count against scipy's Jacobi roots."""

    @pytest.mark.parametrize("d", range(2, 7))
    def test_counts_scipy_roots(self, d):
        from scipy.special import roots_jacobi

        rng = np.random.default_rng(d)
        for n in range(1, 61):
            alpha, beta, deg = _gn_params(d, n)
            poly = (deg, alpha, beta, _jacobi_terms(deg, alpha, beta))
            roots = roots_jacobi(deg, alpha, beta)[0]
            points = [*(roots - 1e-9), *(roots + 1e-9), *rng.uniform(-1.0, 1.0, 20)]
            for x in points:
                assert _roots_above(float(x), *poly) == int(np.sum(roots > x)), (n, x)

    @pytest.mark.parametrize("chunk", [1, 7])
    def test_independent_of_chunk_size(self, chunk, monkeypatch):
        # terms of a larger capacity: the count reads only the first deg - 1
        terms = _jacobi_terms(64, 3, 1)
        points = np.linspace(-1.0, 1.0, 41)
        whole = [_roots_above(float(x), deg, 3, 1, terms) for deg in (1, 2, 9, 40)
                 for x in points]
        monkeypatch.setattr(bounds, "STURM_CHUNK", chunk)
        assert [_roots_above(float(x), deg, 3, 1, terms) for deg in (1, 2, 9, 40)
                for x in points] == whole


class TestBesselZero:
    def test_reference_values(self):
        mp = pytest.importorskip("mpmath")
        for nu in (0, 1, 2.5, 7, 30):
            want = float(mp.besseljzero(nu, 1))
            assert bessel_zero_first(nu) == pytest.approx(want, abs=1e-8)

    def test_large_order_asymptotic(self):
        nu = 30.0
        j = bessel_zero_first(nu)
        approx = nu + 1.856 * nu ** (1.0 / 3.0)
        assert abs(j - approx) / approx < 0.05


class TestCriticalP:
    """Every reader of the disentangling probability agrees with critical_p."""

    @pytest.mark.parametrize("ppt", [False, True])
    @pytest.mark.parametrize("d", [2, 3])
    def test_readers_agree(self, d, ppt):
        rho = random_state([2, d], 3, d)
        forward = disentangle_ppt if ppt else disentangle_sym
        for n in range(1, 7):
            p = critical_p(d, n, ppt)
            assert_allclose(
                forward(rho, n).entries, depolarize(rho, p, 1).entries, rtol=0, atol=1e-12
            )
            report = bound_report(2, d, n)
            assert (report.p_c_ppt if ppt else report.p_c_sym) == pytest.approx(p, abs=1e-12)
            assert multipartite_probs([d, d], n, ppt) == pytest.approx([p, p], abs=1e-12)
            spread = norm(rho - depolarize(rho, 1.0, 1), "frobenius")
            assert frobenius_distance_exact(rho, n, ppt) == pytest.approx(p * spread, abs=1e-12)

    def test_fidelity_lower_bound(self):
        from dpskit.applications import bb84_two_copy_problem, fidelity_bounds

        pair = fidelity_bounds(bb84_two_copy_problem(0.1), 3, ppt=True)
        p = critical_p(2, 3, True)
        assert pair.lower == pytest.approx((1 - p) * pair.upper + p / 2, abs=1e-12)


class TestDisentangle:
    def test_bell_sym_n1(self):
        out = disentangle_sym(BELL, 1)
        expect = (1.0 / 3.0) * BELL.entries + (1.0 / 6.0) * np.eye(4)
        assert_allclose(out.entries, expect, atol=1e-12)
        assert is_ppt(out, [1], tol=1e-10)

    def test_bell_ppt_n1(self):
        # d=2, N=1: mixing weight p = g_1 = 2/3
        out = disentangle_ppt(BELL, 1)
        expect = (1.0 / 3.0) * BELL.entries + (1.0 / 3.0) * np.kron(np.eye(2) / 2, np.eye(2))
        assert_allclose(out.entries, expect, atol=1e-12)
        assert is_ppt(out, [1], tol=1e-10)

    def test_product_input_stays_separable(self):
        rho = kron(random_state([2], 2, 0), random_state([2], 2, 1))
        out = disentangle_sym(rho, 2)
        assert is_ppt(out, [1], tol=1e-10)
        assert_allclose(
            partial_trace(out, [1]).entries, partial_trace(rho, [1]).entries, atol=1e-12
        )

    def test_trace_preserved(self):
        rho = random_state([2, 3], 5, 2)
        assert disentangle_sym(rho, 3).trace() == pytest.approx(rho.trace(), abs=1e-12)
        assert disentangle_ppt(rho, 3).trace() == pytest.approx(rho.trace(), abs=1e-12)

    def test_identity_fixed_point(self):
        rho = identity((2, 2)) * 0.25
        out = disentangle_ppt(rho, 2)
        assert_allclose(out.entries, rho.entries, atol=1e-12)

    @pytest.mark.parametrize("dims", [(2, 2), (2, 3)])
    @pytest.mark.parametrize("ppt", [False, True])
    def test_preimage_inverts_the_map(self, dims, ppt):
        forward = disentangle_ppt if ppt else disentangle_sym
        for seed in range(3):
            rho = random_state(list(dims), 3, seed)
            for n in range(2, 7):
                sigma = disentangle_preimage(rho, n, ppt)
                assert_allclose(forward(sigma, n).entries, rho.entries, atol=1e-12)
                assert_allclose(
                    partial_trace(sigma, [1]).entries,
                    partial_trace(rho, [1]).entries, atol=1e-12,
                )

    def test_preimage_sym_closed_form(self):
        # ((N+d) rho - rho_A (x) I_B) / N
        rho = random_state([2, 3], 4, 5)
        noise = np.kron(partial_trace(rho, [1]).entries, np.eye(3))
        expect = ((4 + 3) * rho.entries - noise) / 4
        assert_allclose(disentangle_preimage(rho, 4, False).entries, expect, atol=1e-12)

    def test_ppt_weight_below_sym_weight(self):
        for d in (2, 3, 4, 6):
            for n in range(d, 41):
                p_ppt = d * g_N(d, n) / (2.0 * (d - 1))
                p_sym = d / (n + d)
                assert p_ppt <= p_sym + 1e-12


class TestBoundReport:
    def test_tightness_family_values(self):
        r = bound_report(2, 2, 1)
        assert r.robustness_sym == pytest.approx(1.0)
        r = bound_report(2, 2, 3)
        assert r.robustness_sym == pytest.approx(1.0 / 3.0)

    def test_ppt_trace_distance_is_g(self):
        r = bound_report(2, 2, 2)
        assert r.dist_trace_ppt == pytest.approx(1.0 - 1.0 / np.sqrt(3.0), abs=1e-10)
        assert r.dist_op_ppt == pytest.approx(r.dist_trace_ppt / 2.0)

    def test_field_ranges(self):
        for d in (2, 3, 4):
            for n in (1, 2, 5, 12):
                r = bound_report(2, d, n)
                assert 0.0 < r.g_N < 2.0
                assert 0.0 < r.p_c_sym < 1.0
                assert 0.0 < r.p_c_ppt < 1.0
                assert r.ppt_distances_valid == (n >= 2)

    def test_given_bessel_zero_gives_same_report(self):
        for d in (2, 3, 5):
            j = bessel_zero_first(d - 2)
            for n in (1, 4, 31):
                assert bound_report(2, d, n, j) == bound_report(2, d, n)

    def test_ppt_robustness_beats_sym_eventually(self):
        for d in (2, 3, 4):
            for n in range(max(2, d), 30):
                r = bound_report(2, d, n)
                assert r.robustness_ppt <= r.robustness_sym + 1e-12


class TestFrobeniusDistance:
    def test_maximally_mixed_vanishes(self):
        rho = identity((2, 2)) * 0.25
        assert frobenius_distance_exact(rho, 3, False) == pytest.approx(0.0, abs=1e-12)

    def test_bell_value(self):
        got = frobenius_distance_exact(BELL, 1, False)
        assert got == pytest.approx(1.0 / np.sqrt(3.0), abs=1e-12)

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_direct_norm(self, seed):
        rho = random_state([2, 2], 4, seed)
        for n in (1, 2, 3):
            direct = norm(rho - disentangle_sym(rho, n), "frobenius")
            assert frobenius_distance_exact(rho, n, False) == pytest.approx(
                direct, abs=1e-9
            )
            direct_p = norm(rho - disentangle_ppt(rho, n), "frobenius")
            assert frobenius_distance_exact(rho, n, True) == pytest.approx(
                direct_p, abs=1e-9
            )


class TestRequiredN:
    def test_sym_example(self):
        assert required_N(0.1, 2, ppt=False) == 19

    def test_ppt_example_verified(self):
        # the smallest N, below the asymptotic start ceil(sqrt(2) j_0 / sqrt(0.1)) = 11
        n = required_N(0.1, 2, ppt=True)
        assert n == 8
        assert g_N(2, 8) <= 0.1 < g_N(2, 7)

    @pytest.mark.parametrize(
        "d,delta,expected",
        [(2, 0.05, 13), (3, 0.1, 14), (3, 0.05, 21), (4, 0.1, 18), (4, 0.02, 47)],
    )
    def test_ppt_is_minimal(self, d, delta, expected):
        n = required_N(delta, d, ppt=True)
        assert n == expected
        assert g_N(d, n) <= delta < g_N(d, n - 1)

    @pytest.mark.parametrize("d", [2, 3, 4])
    @pytest.mark.parametrize("delta", [0.1, 0.05, 0.02, 1e-3, 1e-4, 1e-6, 1e-8])
    def test_ppt_matches_bisection_with_two_g_N(self, d, delta, monkeypatch):
        # the corrected estimate is exact here, so only it and N - 1 are checked
        expected = oracles.required_N_bisect(delta, d)
        calls = []

        def counted(d_, n):
            calls.append(n)
            return g_N(d_, n)

        monkeypatch.setattr(bounds, "g_N", counted)
        assert required_N(delta, d, ppt=True) == expected
        assert calls == [expected, expected - 1]

    @pytest.mark.parametrize("shift", [-3, 2])
    def test_ppt_walks_to_answer_when_estimate_misses(self, shift, monkeypatch):
        # an estimate off by a few N still ends at the minimal N
        j = bounds.bessel_zero_first(0)
        # sqrt(2) j' / sqrt(delta) moves by `shift` when j' = j + shift sqrt(delta/2)
        delta = 1e-4
        monkeypatch.setattr(
            bounds, "bessel_zero_first", lambda nu: j + shift * np.sqrt(delta / 2.0)
        )
        assert required_N(delta, 2, ppt=True) == oracles.required_N_bisect(delta, 2)

    def test_ppt_large_delta_starts_at_two(self):
        assert required_N(1.9, 2, ppt=True) == 2
        assert required_N(1.9, 4, ppt=True) == oracles.required_N_bisect(1.9, 4)

    def test_degenerate_delta(self):
        assert required_N(1.999, 2, ppt=False) in (0, 1)

    def test_rejects_bad_delta(self):
        with pytest.raises(ValueError):
            required_N(2.5, 2, ppt=False)

    @pytest.mark.parametrize(
        "delta, ppt, match",
        [(1e-300, True, r"PPT estimate N = 3\.4e\+150 exceeds"),
         (1e-12, True, r"PPT estimate N = 3\.4e\+06 exceeds"),
         (5e-324, False, "required N overflows")],
        ids=["ppt-1e-300", "ppt-1e-12", "sym-subnormal"],
    )
    def test_rejects_delta_beyond_evaluable_N(self, delta, ppt, match):
        with pytest.raises(ValueError, match=match):
            required_N(delta, 2, ppt=ppt)


class TestComplexity:
    def test_pinned_sym_value(self):
        _, _, sym_ops, _, _, _ = complexity_estimate(2, 2, 0.1)
        assert sym_ops == pytest.approx(np.log10(64.0 * 20.0**6), abs=1e-9)

    def test_ppt_below_sym_small_delta(self):
        _, _, sym_ops, ppt_ops, _, _ = complexity_estimate(2, 3, 0.01)
        assert ppt_ops < sym_ops

    def test_simplified_monotone_in_inverse_delta(self):
        prev = None
        for delta in (0.5, 0.2, 0.1, 0.05):
            _, _, _, _, s, p = complexity_estimate(2, 2, delta)
            if prev is not None:
                assert s > prev[0] and p > prev[1]
            prev = (s, p)


class TestPptAlone:
    def test_3x2_is_identity_map(self):
        rho = random_state([3, 2], 2, 0)
        if not is_ppt(rho, [1]):
            rho = identity((3, 2)) * (1.0 / 6.0)
        p_a, p_b, tilde, _, _ = ppt_alone(rho)
        assert p_a == 0.0 and p_b == 0.0
        assert np.array_equal(tilde.entries, rho.entries)

    def test_3x3_bound_third(self):
        rho = identity((3, 3)) * (1.0 / 9.0)
        _, _, _, rg, tb = ppt_alone(rho)
        assert rg == pytest.approx(1.0 / 3.0, abs=1e-14)
        assert tb == pytest.approx(2.0 - 24.0 / 16.0, abs=1e-14)

    def test_trivial_first_at_d10(self):
        for d in range(3, 10):
            rg = (d + 1) ** 2 / 12.0 - 1.0
            assert rg <= d - 1
        assert (11.0**2 / 12.0 - 1.0) > 9.0

    def test_output_stays_ppt(self):
        rho = identity((4, 3)) * (1.0 / 12.0)
        mixer = random_state([4, 3], 12, 7)
        rho = 0.7 * rho + 0.3 * mixer
        if is_ppt(rho, [1]):
            _, _, tilde, _, _ = ppt_alone(rho)
            assert is_ppt(tilde, [1], tol=1e-9)

    def test_rejects_npt_and_small_dims(self):
        with pytest.raises(ValueError, match="d_A"):
            ppt_alone(identity((2, 2)) * 0.25)
        with pytest.raises(ValueError, match="not PPT"):
            ppt_alone(
                HermitianOperator(
                    (3, 2), np.kron(np.diag([1.0, 0, 0]), BELL.entries[:2, :2]) * 0
                    + _npt_3x2()
                )
            )


def _npt_3x2():
    bell = pure_state([1, 0, 0, 1], (2, 2)).entries
    out = np.zeros((6, 6), dtype=complex)
    out[:4, :4] = bell  # embedded two-qubit Bell state inside 3 x 2
    return out


class TestMultipartiteProbs:
    def test_bipartite_reduction(self):
        assert multipartite_probs([2], 3, ppt=False) == [pytest.approx(0.4)]

    def test_sym_pair(self):
        assert multipartite_probs([2, 2], 3, ppt=False) == [
            pytest.approx(0.4),
            pytest.approx(0.4),
        ]

    def test_ppt_pair(self):
        got = multipartite_probs([2, 3], 2, ppt=True)
        assert got[0] == pytest.approx(g_N(2, 2), abs=1e-12)
        assert got[1] == pytest.approx(0.75 * g_N(3, 2), abs=1e-12)


class TestExampleState:
    def test_k1_pure_triplet(self):
        got = example_state(1)
        expect = pure_state([0, 1, 1, 0], (2, 2))
        assert_allclose(got.entries, expect.entries, atol=1e-14)

    def test_k2_negative_eigenvector(self):
        rho = example_state(2)
        pt = partial_transpose(rho, [1])
        w, v = np.linalg.eigh(pt.entries)
        assert w[0] == pytest.approx(-1.0 / 6.0, abs=1e-12)
        vec = v[:, 0]
        expect = np.zeros(4)
        expect[0], expect[3] = 1 / np.sqrt(2), -1 / np.sqrt(2)
        overlap = abs(np.vdot(vec, expect))
        assert overlap == pytest.approx(1.0, abs=1e-10)

    @pytest.mark.parametrize("k", [1, 2, 3, 5])
    def test_negativity_rate(self, k):
        from dpskit.operators import negativity

        rho = example_state(k)
        assert negativity(rho, [1]) == pytest.approx(1.0 / (2 * (2 * k - 1)), abs=1e-12)


class TestMembersOfSN:
    """Random members of the level-N sets, built by tracing random extensions."""

    @pytest.mark.parametrize("n", [2, 3])
    def test_disentangled_members_are_ppt(self, n):
        rng = np.random.default_rng(n)
        basis = build_basis(2, n)
        tmap = TraceMap(2, (2,), n)
        size = 2 * basis.size
        for _ in range(20):
            g = rng.standard_normal((size, size)) + 1j * rng.standard_normal((size, size))
            x = g @ g.conj().T
            x /= np.trace(x).real
            rho = HermitianOperator((2, 2), tmap.apply(x))
            tilde = disentangle_sym(rho, n)
            assert is_ppt(tilde, [1], tol=1e-9)
            report = bound_report(2, 2, n)
            assert norm(rho - tilde, "trace") <= report.dist_trace_sym + 1e-9
            assert norm(rho - tilde, "operator") <= report.dist_op_sym + 1e-9


def test_cli_import_leaves_scipy_optimize_out():
    # scipy.optimize costs about 0.2 s and 13 MiB; no library path imports it
    src = str(Path(bounds.__file__).resolve().parents[1])
    code = "import sys, dpskit.cli; print('scipy.optimize' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert out.stdout.strip() == "False"


def test_bounds_commands_leave_scipy_optimize_out():
    # g_N, the Bessel zero and required_N find their roots without it
    src = str(Path(bounds.__file__).resolve().parents[1])
    code = (
        "import sys, dpskit.cli as c\n"
        "for argv in (['bounds', '--dB', '3', '--N', '1..10', '--delta', '0.05'],\n"
        "             ['complexity', '--dA', '2', '--dB', '2', '--delta', '0.05'],\n"
        "             ['fidelity', '--bb84', '0.1', '--N', '2', '--ppt', 'true']):\n"
        "    assert c.main(argv) == 0, argv\n"
        "print('scipy.optimize' in sys.modules)"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert out.stdout.strip().splitlines()[-1] == "False"
