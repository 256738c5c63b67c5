"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see every line.  Each
criterion is asserted at its stated tolerance; measured values are printed
before asserting so a failing criterion documents itself.
"""

import time

import numpy as np
import pytest

from dpskit.applications import (
    bb84_two_copy_problem,
    depolarizing_choi,
    fidelity_bounds,
    geometric_entanglement_bounds,
    ghz_state,
    output_purity_bounds,
    qutrit_grid_problem,
    w_state,
)
from dpskit.bounds import (
    bessel_zero_first,
    bound_report,
    example_state,
    frobenius_distance_exact,
    g_N,
    ppt_alone,
)
from dpskit.certify import certify
from dpskit.extensions import (
    BudgetExceeded,
    ExtensionQuery,
    TraceMap,
    check_membership,
)
from dpskit.operators import (
    HermitianOperator,
    identity,
    is_ppt,
    norm,
    partial_trace,
    partial_transpose,
    pure_state,
)
from dpskit.solver import SdpProblem, hermitian_basis, solve

from oracles import build_basis, embed_complex, g_N_via_pencil, g_N_via_root, lift, tridiagonal_C

BELL = pure_state([1, 0, 0, 1], (2, 2))
PRODUCT = pure_state([1, 0, 0, 0], (2, 2))


def report(idx, ok, detail):
    print(f"ACCEPTANCE {idx}: {'PASS' if ok else 'FAIL'} - {detail}")
    return ok


def test_criterion_01_gn_triple_agreement():
    t0 = time.perf_counter()
    worst = 0.0
    for d in range(2, 7):
        for n in range(1, 31):
            tri = float(np.linalg.eigvalsh(tridiagonal_C(d, n))[0])
            root = g_N_via_root(d, n)
            pencil = g_N_via_pencil(d, n)
            worst = max(
                worst, abs(tri - root), abs(tri - pencil), abs(root - pencil)
            )
    spot1 = abs(g_N(2, 1) - 2.0 / 3.0)
    spot2 = abs(g_N(2, 2) - (1.0 - 1.0 / np.sqrt(3.0)))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-8 and spot1 <= 1e-10 and spot2 <= 1e-10 and elapsed < 5.0
    report(
        1,
        ok,
        f"pairwise worst {worst:.2e} (<=1e-8), spots {spot1:.1e}/{spot2:.1e} "
        f"(<=1e-10), runtime {elapsed:.2f}s (<5s)",
    )
    assert worst <= 1e-8
    assert spot1 <= 1e-10 and spot2 <= 1e-10
    assert elapsed < 5.0


def test_criterion_02_bessel_asymptotic_law():
    """lim N^2 g_N / 2 = j_{d-2}^2, checked on the extrapolated limit.

    The largest-Jacobi-zero expansion (Szego, Orthogonal Polynomials, 8.1 and
    8.9) gives g_N = 2 j^2 / (N + d + 1)^2 (1 + O(N^-2)), so f(N) = N^2 g_N / 2
    sits a relative -2(d+1)/N below j^2: 3-5% at N = 200 for d = 2..4, past
    the tolerance for any correct g_N.  Richardson extrapolation
    L = 2 f(2N) - f(N) cancels that O(1/N) term and leaves ~1.5 (d+1)^2/N^2.
    """
    t0 = time.perf_counter()
    n = 200
    raw, rels = {}, {}
    for d in (2, 3, 4):
        j2 = bessel_zero_first(d - 2) ** 2
        f_n = g_N(d, n) * n**2 / 2.0
        f_2n = g_N(d, 2 * n) * (2 * n) ** 2 / 2.0
        raw[d] = abs(f_n - j2) / j2
        rels[d] = abs((2.0 * f_2n - f_n) - j2) / j2
    elapsed = time.perf_counter() - t0
    ok = all(r <= 0.02 for r in rels.values()) and elapsed < 5.0
    detail = ", ".join(f"d={d}: {r:.4%}" for d, r in rels.items())
    raw_detail = ", ".join(f"d={d}: {r:.2%}" for d, r in raw.items())
    report(
        2,
        ok,
        f"|L - j^2|/j^2 with L = 2f({2 * n}) - f({n}), f = g_N N^2/2: {detail} "
        f"(<=2%); raw at N={n}: {raw_detail}; {elapsed:.2f}s",
    )
    assert elapsed < 5.0
    for d, r in rels.items():
        assert r <= 0.02, f"relative deviation {r:.4%} at d={d} exceeds 2%"


def test_criterion_03_hierarchy_sharpness_on_family():
    rho = example_state(2)
    outcomes = {}
    times = {}
    for n, ppt, expected in ((3, False, "feasible"), (4, False, "infeasible"),
                             (2, True, "infeasible")):
        t0 = time.perf_counter()
        res = check_membership(ExtensionQuery(rho=rho, N=n, ppt=ppt))
        times[(n, ppt)] = time.perf_counter() - t0
        outcomes[(n, ppt)] = res
        if expected == "feasible":
            # certificate: explicit extension satisfying the conditions
            basis = build_basis(2, n)
            lifted = lift(res.extension, basis, 2)
            red = partial_trace(lifted, list(range(2, n + 1)))
            assert np.max(np.abs(red.entries - rho.entries)) < 1e-7
            assert np.linalg.eigvalsh(lifted.entries)[0] > -1e-7
        else:
            w = res.witness
            assert w is not None
            assert float(np.vdot(w.entries, rho.entries).real) < 0
    ok = (
        outcomes[(3, False)].verdict == "feasible"
        and outcomes[(4, False)].verdict == "infeasible"
        and outcomes[(2, True)].verdict == "infeasible"
        and all(t < 30.0 for t in times.values())
    )
    report(
        3,
        ok,
        f"K=2 family: N=3 {outcomes[(3, False)].verdict}, "
        f"N=4 {outcomes[(4, False)].verdict}, N=2 PPT {outcomes[(2, True)].verdict}; "
        f"max solve {max(times.values()):.2f}s (<30s)",
    )
    assert ok


def _pt_entries(mat):
    return partial_transpose(HermitianOperator((2, 2), mat), [1]).entries


def robustness_ppt_exact(rho, tol=1e-9):
    """min{tr(sigma') : sigma' >= 0, sigma'^PT >= 0, (rho + sigma')^PT >= 0}.

    In 2x2, PPT noise equals separable noise, so this is the robustness of
    entanglement; independent of the extension machinery.
    """
    basis = hermitian_basis(4)
    zero = np.zeros(64)
    rows, rhs = [], []
    rho_pt = _pt_entries(rho.entries)
    for e in basis:
        e_pt = _pt_entries(e)
        # one row-major vec per block (sigma', sigma'^PT, (rho + sigma')^PT)
        rows.append([embed_complex(e_pt).ravel(), -embed_complex(e).ravel(), zero])
        rhs.append(0.0)
        rows.append([zero, -embed_complex(e).ravel(), embed_complex(e).ravel()])
        rhs.append(2.0 * float(np.real(np.vdot(e, rho_pt))))
    constraints = np.array([np.concatenate(r) for r in rows])
    objective = [embed_complex(np.eye(4, dtype=complex)), None, None]
    problem = SdpProblem([8, 8, 8], objective, constraints, np.array(rhs), "minimize")
    sol = solve(problem, tol=tol)
    assert sol.status == "optimal", sol.status
    return 0.5 * sol.objective_value


def test_criterion_04_robustness_tightness():
    errs = {}
    for k in (1, 2, 3):
        n = 2 * k - 1
        rho = example_state(k)
        exact = robustness_ppt_exact(rho)
        bound = bound_report(2, 2, n).robustness_sym  # (d-1)/N with d = 2
        errs[k] = abs(exact - bound)
    ok = all(e <= 1e-6 for e in errs.values())
    detail = ", ".join(f"K={k}: |R - 1/{2 * k - 1}| = {e:.2e}" for k, e in errs.items())
    report(4, ok, f"{detail} (<=1e-6)")
    assert ok


def test_criterion_05_disentangling_property_suite():
    rng = np.random.default_rng(2026)
    checked = 0
    worst_frob = 0.0
    for n in (2, 3):
        basis = build_basis(2, n)
        tmap = TraceMap(2, (2,), n)
        size = 2 * basis.size
        for _ in range(50):
            g = rng.standard_normal((size, size)) + 1j * rng.standard_normal(
                (size, size)
            )
            x = g @ g.conj().T
            x /= np.trace(x).real
            rho = HermitianOperator((2, 2), tmap.apply(x))
            tilde = (n / (n + 2.0)) * rho + (1.0 / (n + 2.0)) * _marginal_noise(rho)
            assert is_ppt(tilde, [1], tol=1e-9), "disentangled member not PPT"
            rep = bound_report(2, 2, n)
            assert norm(rho - tilde, "trace") <= rep.dist_trace_sym + 1e-9
            assert norm(rho - tilde, "operator") <= rep.dist_op_sym + 1e-9
            direct = norm(rho - tilde, "frobenius")
            formula = frobenius_distance_exact(rho, n, ppt=False)
            worst_frob = max(worst_frob, abs(direct - formula))
            checked += 1
    ok = checked == 100 and worst_frob <= 1e-9
    report(5, ok, f"{checked}/100 members PPT within bounds; "
                  f"Frobenius equality worst {worst_frob:.2e} (<=1e-9)")
    assert ok


def _marginal_noise(rho):
    from dpskit.operators import kron

    return kron(partial_trace(rho, [1]), identity([2]))


def test_criterion_06_bb84_figure():
    t0 = time.perf_counter()
    prob = bb84_two_copy_problem(0.3)
    ppt_pairs = {n: fidelity_bounds(prob, n, ppt=True) for n in (2, 3, 4)}
    plain_pairs = {n: fidelity_bounds(prob, n, ppt=False) for n in (2, 3, 4)}
    elapsed = time.perf_counter() - t0

    const_dev = abs(ppt_pairs[2].upper - ppt_pairs[3].upper)
    best_lower = max(p.lower for p in ppt_pairs.values())
    gap = ppt_pairs[2].upper - best_lower
    uppers_ppt = [ppt_pairs[n].upper for n in (2, 3, 4)]
    uppers_plain = [plain_pairs[n].upper for n in (2, 3, 4)]
    lowers_ppt = [ppt_pairs[n].lower for n in (2, 3, 4)]
    lowers_plain = [plain_pairs[n].lower for n in (2, 3, 4)]
    monotone = (
        all(a >= b - 1e-6 for a, b in zip(uppers_ppt, uppers_ppt[1:]))
        and all(a >= b - 1e-6 for a, b in zip(uppers_plain, uppers_plain[1:]))
        and all(a <= b + 1e-6 for a, b in zip(lowers_ppt, lowers_ppt[1:]))
        and all(a <= b + 1e-6 for a, b in zip(lowers_plain, lowers_plain[1:]))
    )
    ok = const_dev <= 1e-3 and gap <= 3e-2 and monotone and elapsed < 600.0
    report(
        6,
        ok,
        f"F*_ppt(2)={ppt_pairs[2].upper:.6f}, |F(2)-F(3)|={const_dev:.1e} (<=1e-3), "
        f"gap to best ppt lower (N<=4) = {gap:.4f} (<=0.03), monotone={monotone}, "
        f"{elapsed:.0f}s (<600s)",
    )
    assert const_dev <= 1e-3
    assert monotone
    assert elapsed < 600.0
    assert gap <= 3e-2, f"PPT upper/lower gap {gap:.4f} exceeds 3e-2"


def test_criterion_07_qutrit_figure():
    t0 = time.perf_counter()
    prob = qutrit_grid_problem(0.2)
    upper_ppt2 = fidelity_bounds(prob, 2, ppt=True).upper
    lowers = [fidelity_bounds(prob, 2, ppt=False).lower]
    fallback = False
    try:
        lowers.append(fidelity_bounds(prob, 3, ppt=False).lower)
    except BudgetExceeded:
        fallback = True
    gap = upper_ppt2 - max(lowers)
    elapsed = time.perf_counter() - t0
    lo, hi = (0.0, 0.06) if fallback else (0.01, 0.05)
    ok = lo <= gap <= hi and elapsed < 1800.0
    report(
        7,
        ok,
        f"PPT N=2 upper {upper_ppt2:.6f}, best non-PPT lower (N<={2 if fallback else 3}) "
        f"{max(lowers):.6f}, gap {gap:.4f} (target 0.03 +/- {0.03 if fallback else 0.02}), "
        f"{elapsed:.0f}s (<1800s)",
    )
    assert elapsed < 1800.0
    assert lo <= gap <= hi, f"gap {gap:.4f} outside [{lo}, {hi}]"


def test_criterion_08_ppt_alone_spot_checks():
    rho32 = identity((3, 2)) * (1.0 / 6.0)
    p_a, p_b, tilde, _, _ = ppt_alone(rho32)
    bit_exact = np.array_equal(tilde.entries, rho32.entries)
    rho33 = identity((3, 3)) * (1.0 / 9.0)
    _, _, _, rg33, _ = ppt_alone(rho33)
    third = abs(rg33 - 1.0 / 3.0) < 1e-15
    first_trivial = None
    for d in range(3, 15):
        if (d + 1.0) ** 2 / 12.0 - 1.0 > d - 1.0:
            first_trivial = d
            break
    ok = p_a == 0.0 and p_b == 0.0 and bit_exact and third and first_trivial == 10
    report(
        8,
        ok,
        f"(3,2): p_A={p_a}, p_B={p_b}, tilde==rho {bit_exact}; (3,3) R_G bound "
        f"{rg33:.15f}; bound first exceeds d-1 at d={first_trivial}",
    )
    assert ok


def test_criterion_09_applications_oracles():
    geo = {}
    for name, psi, target in (("GHZ", ghz_state(), 0.5), ("W", w_state(), 4.0 / 9.0)):
        bp = geometric_entanglement_bounds(psi, 2, ppt=True)
        geo[name] = (bp.upper, target)
    pur = {}
    for p in (0.2, 0.5):
        bp = output_purity_bounds(depolarizing_choi(2, p), 2, ppt=True)
        pur[p] = (bp.upper, 1.0 - p / 2.0)
    ok = all(abs(u - t) <= 1e-3 for u, t in geo.values()) and all(
        abs(u - t) <= 1e-4 for u, t in pur.values()
    )
    detail = ", ".join(
        [f"{k}: {u:.6f} vs {t:.6f}" for k, (u, t) in geo.items()]
        + [f"purity p={p}: {u:.6f} vs {t}" for p, (u, t) in pur.items()]
    )
    report(9, ok, detail)
    for u, t in geo.values():
        assert abs(u - t) <= 1e-3
    for u, t in pur.values():
        assert abs(u - t) <= 1e-4


def _sym(rng, n):
    g = rng.standard_normal((n, n))
    return 0.5 * (g + g.T)


def test_criterion_10_solver_integrity():
    rng = np.random.default_rng(11)
    worst_obj = 0.0
    statuses = []
    for trial in range(50):
        n = int(rng.integers(4, 31))
        m = int(rng.integers(3, min(2 * n, 18)))
        q, _ = np.linalg.qr(rng.standard_normal((n, n)))
        k = max(n // 2, 1)
        x_eigs = np.concatenate([rng.uniform(0.5, 2.0, k), np.zeros(n - k)])
        z_eigs = np.concatenate([np.zeros(k), rng.uniform(0.5, 2.0, n - k)])
        x_star = (q * x_eigs) @ q.T
        z_star = (q * z_eigs) @ q.T
        y_star = rng.standard_normal(m)
        mats = [_sym(rng, n) for _ in range(m)]
        c = sum(y_star[i] * mats[i] for i in range(m)) + z_star
        b = np.array([float(np.sum(mats[i] * x_star)) for i in range(m)])
        prob = SdpProblem([n], [c], np.array([a.ravel() for a in mats]), b, "minimize")
        sol = solve(prob)
        statuses.append(sol.status)
        opt = float(np.sum(c * x_star))
        worst_obj = max(worst_obj, abs(sol.objective_value - opt) / (1.0 + abs(opt)))
    farkas_worst = 0.0
    for trial in range(10):
        n, m = 6, 5
        y = rng.standard_normal(m)
        y[0] = abs(y[0]) + 0.5
        mats = [_sym(rng, n) for _ in range(m)]
        s = np.eye(n) * (0.5 + float(rng.uniform()))
        mats[0] = (-s - sum(y[i] * mats[i] for i in range(1, m))) / y[0]
        b = rng.standard_normal(m)
        b[0] = (1.0 - y[1:] @ b[1:]) / y[0]
        prob = SdpProblem([n], [None], np.array([a.ravel() for a in mats]), b)
        sol = solve(prob)
        assert sol.status == "primal_infeasible"
        yc = sol.dual_multipliers
        assert float(b @ yc) == pytest.approx(1.0, abs=1e-9)
        aty = sum(yc[i] * mats[i] for i in range(m))
        farkas_worst = max(farkas_worst, float(np.linalg.eigvalsh(aty)[-1]))
    ok = worst_obj <= 1e-6 and farkas_worst <= 1e-7 and all(
        s == "optimal" for s in statuses
    )
    report(
        10,
        ok,
        f"50 constructed optima: worst rel-obj err {worst_obj:.2e} (<=1e-6); "
        f"10 infeasible: worst Farkas violation {farkas_worst:.2e} (<=1e-7)",
    )
    assert ok


def test_criterion_11_certification():
    res_sep = certify(PRODUCT, maxN=2)
    sep_ok = (
        res_sep.verdict == "separable"
        and res_sep.N == 2
        and res_sep.profile.rank_full
        <= max(res_sep.profile.rank_left, res_sep.profile.rank_right)
    )
    res_ent = certify(BELL, maxN=2)
    w = res_ent.witness
    val_rho = float(np.vdot(w.entries, BELL.entries).real)
    rng = np.random.default_rng(17)
    floor = np.inf
    for _ in range(10**4):
        a = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        b = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        v = np.kron(a / np.linalg.norm(a), b / np.linalg.norm(b))
        floor = min(floor, float(np.real(v.conj() @ w.entries @ v)))
    ent_ok = res_ent.verdict == "entangled" and val_rho < -1e-6 and floor >= -1e-7
    ok = sep_ok and ent_ok
    report(
        11,
        ok,
        f"product: {res_sep.verdict} ranks "
        f"{(res_sep.profile.rank_full, res_sep.profile.rank_left, res_sep.profile.rank_right)}; "
        f"Bell: {res_ent.verdict}, tr(W rho) = {val_rho:.4f} (<-1e-6), "
        f"product-state floor {floor:.2e} (>=-1e-7)",
    )
    assert ok
