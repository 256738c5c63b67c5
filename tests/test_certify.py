import json
import re
import sys

import numpy as np
import pytest

from dpskit.bounds import disentangle_preimage
from dpskit.certify import (
    certify,
    numerical_rank,
    rank_loop_check,
    rank_min_heuristic,
)
from dpskit.extensions import (
    ExtensionQuery,
    PptMap,
    TraceMap,
    _compile,
    _verify_feasible,
    check_membership,
)
from dpskit.operators import (
    HermitianOperator,
    identity,
    is_ppt,
    pure_state,
    random_state,
)

from oracles import build_basis

BELL = pure_state([1, 0, 0, 1], (2, 2))
PRODUCT = pure_state([1, 0, 0, 0], (2, 2))
MIXED = identity((2, 2)) * 0.25
# at N = 2 the S^N preimage is not PSD; the S_p^N one has a PPT 2-extension
SP_ONLY = 0.4 * random_state((2, 2), 2, 0) + 0.6 * MIXED
# partial-transpose minimum eigenvalue about -0.09
QUBIT_QUTRIT_NPT = 0.7 * random_state((2, 3), 3, 1) + 0.3 * (identity((2, 3)) * (1 / 6))


class TestNumericalRank:
    def test_pure_state(self):
        assert numerical_rank(random_state([2, 2], 1, 0)) == 1

    def test_identity(self):
        assert numerical_rank(identity((3,))) == 3

    def test_noise_below_threshold(self):
        rho = random_state([2, 2], 2, 1)
        noisy = rho.entries + 1e-12 * np.eye(4)
        assert numerical_rank(HermitianOperator((2, 2), noisy)) == 2


class TestRankLoop:
    def test_pure_product_extension(self):
        # |0><0|_A (x) |00><00| compressed: occupation (2,0) is column 0
        x = np.zeros((6, 6), dtype=complex)
        x[0, 0] = 1.0
        loop, profile = rank_loop_check(x, 2, 2, 2, K=1)
        assert loop
        assert (profile.rank_full, profile.rank_left, profile.rank_right) == (1, 1, 1)

    def test_pure_product_beyond_isometry_cap(self):
        # d^N = 2^13 exceeds build_basis's space cap; the maps never need it
        x = np.zeros((2 * 14, 2 * 14), dtype=complex)
        x[0, 0] = 1.0
        loop, profile = rank_loop_check(x, 2, 2, 13, K=7)
        assert loop
        assert (profile.rank_full, profile.rank_left, profile.rank_right) == (1, 1, 1)

    def test_orthogonal_mixture_limit_rank(self):
        # sum_i p_i rho_i (x) |psi_i><psi_i|^(x)N with orthogonal psi_i:
        # rank of the extension equals the sum of the rho_i ranks
        basis = build_basis(2, 3)
        s = basis.size
        x = np.zeros((2 * s, 2 * s), dtype=complex)
        i000 = basis.index((3, 0))
        i111 = basis.index((0, 3))
        x[0 * s + i000, 0 * s + i000] = 0.5  # |0><0| (x) |000><000|
        x[1 * s + i111, 1 * s + i111] = 0.5  # |1><1| (x) |111><111|
        loop, profile = rank_loop_check(x, 2, 2, 3, K=2)
        assert profile.rank_full == 2
        assert loop

    def test_generic_full_rank_no_loop(self):
        x = random_state([2, 3], 6, 3).entries  # full-rank compressed operator
        loop, profile = rank_loop_check(x, 2, 2, 2, K=1)
        assert profile.rank_full == 6
        assert not loop

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            rank_loop_check(np.eye(5, dtype=complex), 2, 2, 2, K=1)


class TestRankMinHeuristic:
    def test_pure_product_reaches_rank_one(self):
        q = ExtensionQuery(rho=PRODUCT, N=2, ppt=True)
        x = rank_min_heuristic(q, check_membership(q).extension, rounds=3)
        assert numerical_rank(x) == 1

    def test_feasibility_always_maintained(self):
        rho = 0.5 * PRODUCT + 0.5 * pure_state([0, 0, 0, 1], (2, 2))
        q = ExtensionQuery(rho=rho, N=2, ppt=True)
        x = rank_min_heuristic(q, check_membership(q).extension, rounds=4)
        tmap = TraceMap(2, (2,), 2)
        assert np.max(np.abs(tmap.apply(x) - rho.entries)) < 1e-7
        assert np.linalg.eigvalsh(x)[0] > -1e-7
        # the query's PPT block at the ceil/floor cut
        pmap = PptMap(2, (2,), 2, 1)
        assert np.linalg.eigvalsh(pmap.apply(x))[0] > -1e-7

    def test_infeasible_extension_raises(self):
        q = ExtensionQuery(rho=PRODUCT, N=2, ppt=True)
        bad = check_membership(q).extension.copy()
        # |0><0|_A (x) |00><00| maps onto |00><00| with coefficient 1, so the
        # reduced state is off by 1e-3 there
        bad[0, 0] += 1e-3
        with pytest.raises(ValueError, match="not feasible"):
            rank_min_heuristic(q, bad, rounds=2)
        cone = ExtensionQuery(rho=PRODUCT, N=2, ppt=True, objective=PRODUCT,
                              reduced_constraint="unit_trace")
        with pytest.raises(ValueError, match="trace_match"):
            rank_min_heuristic(cone, bad, rounds=2)

    def test_one_eigh_per_round(self, monkeypatch):
        # the rank and the next weight of each accepted iterate (and of the
        # starting extension) come from one eigh; eigvalsh runs only inside
        # the solver and the feasibility check
        rho = 0.5 * PRODUCT + 0.5 * pure_state([0, 0, 0, 1], (2, 2))
        q = ExtensionQuery(rho=rho, N=2, ppt=True)
        extension = check_membership(q).extension
        module = sys.modules["dpskit.certify"]
        counts = {"eigh": 0, "eigvalsh": 0, "accepted": 0}
        inside = []
        for name in ("eigh", "eigvalsh"):
            def counted(*args, _name=name, _fn=getattr(np.linalg, name), **kwargs):
                if not inside:
                    counts[_name] += 1
                return _fn(*args, **kwargs)
            monkeypatch.setattr(np.linalg, name, counted)

        def shielded(fn):
            def wrapper(*args, **kwargs):
                inside.append(1)
                try:
                    return fn(*args, **kwargs)
                finally:
                    inside.pop()
            return wrapper

        verify = module._verify_feasible

        def counting_verify(*args):
            ok, detail = shielded(verify)(*args)
            counts["accepted"] += ok
            return ok, detail

        monkeypatch.setattr(module, "solve", shielded(module.solve))
        monkeypatch.setattr(module, "_verify_feasible", counting_verify)
        rank_min_heuristic(q, extension, rounds=4)
        assert counts["accepted"] > 1
        assert counts["eigh"] == counts["accepted"]
        assert counts["eigvalsh"] == 0


class TestCertify:
    def test_product_separable_via_rank_loop(self):
        res = certify(PRODUCT, maxN=2)
        assert res.verdict == "separable"
        assert res.N == 2
        assert (res.profile.rank_full, res.profile.rank_left, res.profile.rank_right) == (1, 1, 1)
        # a separable verdict always carries its evidence object
        assert res.extension is not None
        assert is_ppt(PRODUCT, [1])  # 2x2 cross-validation of the verdict

    def test_bell_entangled_with_witness(self):
        res = certify(BELL, maxN=2)
        assert res.verdict == "entangled"
        w = res.witness
        assert float(np.vdot(w.entries, BELL.entries).real) < -1e-6
        rng = np.random.default_rng(8)
        for _ in range(1000):
            a = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            b = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            v = np.kron(a / np.linalg.norm(a), b / np.linalg.norm(b))
            assert float(np.real(v.conj() @ w.entries @ v)) >= -1e-7

    def test_near_threshold_werner_entangled(self):
        v = 1.0 / 3.0 + 1e-3
        werner = v * BELL + (1.0 - v) * (identity((2, 2)) * 0.25)
        res = certify(werner, maxN=2)
        assert res.verdict == "entangled"

    def test_maximally_mixed_rank_loop(self):
        # the symmetric analytic-center iterate has no loop; the randomized
        # reweighting restarts find the rank-4 orthogonal-product extension.
        # certify decides I/4 by the disentangling theorem before the rank
        # search runs, so the search is driven directly here
        q = ExtensionQuery(rho=MIXED, N=2, ppt=True)
        x = rank_min_heuristic(q, check_membership(q).extension, rounds=8)
        loop, profile = rank_loop_check(x, 2, 2, 2, K=1)
        assert loop
        assert profile.rank_full <= max(profile.rank_left, profile.rank_right)

    def test_maximally_mixed_disentangling(self):
        # the S^N preimage of I/4 at N = 2 is I/4 itself
        res = certify(MIXED, maxN=2)
        assert res.verdict == "separable"
        assert res.N == 2
        assert res.profile is None
        assert res.detail == (
            "disentangling theorem (S^N) at N=2: preimage extension re-verified to 1e-7"
        )
        assert "ranks" not in json.loads(res.to_json())

    def test_ppt_route_decides_what_the_sym_route_cannot(self):
        sigma = disentangle_preimage(SP_ONLY, 2, False)
        assert np.linalg.eigvalsh(sigma.entries)[0] < -1e-3
        res = certify(SP_ONLY, maxN=2)
        assert res.verdict == "separable"
        assert res.detail.startswith("disentangling theorem (S_p^N) at N=2")

    @pytest.mark.parametrize(
        "rho",
        [MIXED, SP_ONLY, 0.3 * BELL + 0.7 * MIXED,
         0.25 * random_state((2, 2), 2, 3) + 0.75 * MIXED,
         0.3 * random_state((2, 3), 6, 1) + 0.7 * identity((2, 3)) * (1 / 6)],
        ids=["maximally-mixed", "sp-only", "isotropic-0.3", "random-2x2", "random-2x3"],
    )
    def test_route_extension_reverifies_against_preimage(self, rho):
        res = certify(rho, maxN=3)
        assert res.verdict == "separable"
        assert res.detail.startswith("disentangling theorem")
        ppt = "(S_p^N)" in res.detail
        sigma = disentangle_preimage(rho, res.N, ppt)
        _, codec = _compile(ExtensionQuery(rho=sigma, N=res.N, ppt=ppt))
        ok, detail = _verify_feasible(res.extension, codec)
        assert ok, detail

    def test_random_separable_never_entangled(self):
        # interior 2x2 PPT states are separable; the disentangling routes
        # decide every one of these
        found = 0
        for seed in range(4):
            raw = random_state([2, 2], 4, seed)
            rho = 0.45 * raw + 0.55 * (identity((2, 2)) * 0.25)
            if not is_ppt(rho, [1]):
                continue
            found += 1
            res = certify(rho, maxN=2, rounds=3)
            assert res.verdict == "separable"
        assert found >= 2

    def test_feasible_level_solved_once(self, monkeypatch):
        # the log-det search starts from check_membership's extension; a
        # rank-1 start needs no further solve
        calls = []

        def counting(solve):
            def wrapper(*args, **kwargs):
                calls.append(1)
                return solve(*args, **kwargs)
            return wrapper

        # the package re-exports the function certify under the module's name
        for module in (sys.modules["dpskit.certify"], sys.modules["dpskit.extensions"]):
            monkeypatch.setattr(module, "solve", counting(module.solve))
        res = certify(PRODUCT, maxN=2)
        assert res.verdict == "separable"
        assert len(calls) == 1

    @pytest.mark.parametrize(
        "rho, compiles", [(PRODUCT, 3), (MIXED, 2)], ids=["product", "mixed"]
    )
    def test_each_structure_built_once(self, rho, compiles, monkeypatch):
        # a level's membership query and its log-det rounds share one
        # structure: a second compile of a key is a cache hit
        import dpskit.extensions as ext

        keys = []
        compile_ = ext._compile

        def recording(q):
            problem, codec = compile_(q)
            keys.append((q.rho.factor_dims, q.N, codec.pmap is not None,
                         q.reduced_constraint, codec.real))
            return problem, codec

        monkeypatch.setattr(ext, "_compile", recording)
        monkeypatch.setattr(sys.modules["dpskit.certify"], "_compile", recording)
        ext._structure.cache_clear()
        certify(rho, maxN=3)
        info = ext._structure.cache_info()
        assert len(keys) == compiles
        assert info.misses == info.currsize == len(set(keys))
        assert info.hits == len(keys) - len(set(keys))

    @pytest.mark.parametrize(
        "rho, verdict, solves",
        [
            # membership only: the witness is checked against its certificate
            (BELL, "entangled", 1),
            (QUBIT_QUTRIT_NPT, "entangled", 1),
            # membership, then the S^N preimage's membership
            (MIXED, "separable", 2),
        ],
        ids=["bell", "qubit-qutrit", "maximally-mixed"],
    )
    def test_solve_count(self, rho, verdict, solves, monkeypatch):
        # the product state's single solve is test_feasible_level_solved_once
        calls = []

        def counting(solve):
            def wrapper(*args, **kwargs):
                calls.append(1)
                return solve(*args, **kwargs)
            return wrapper

        def forbidden(*args, **kwargs):
            raise AssertionError("certify ran an auxiliary cone optimization")

        for module in (sys.modules["dpskit.certify"], sys.modules["dpskit.extensions"]):
            monkeypatch.setattr(module, "solve", counting(module.solve))
        for name in ("optimize_over_cone", "verify_witness"):
            monkeypatch.setattr(sys.modules["dpskit.extensions"], name, forbidden)
        assert certify(rho, maxN=2).verdict == verdict
        assert len(calls) == solves

    @pytest.mark.parametrize("seed", [9, 13, 21])
    def test_cheap_routes_of_every_level_before_rank_search(self, seed, monkeypatch):
        # the S^N route decides these at N=3; a rank search at N=2 first
        # cost 23 more solves
        rho = 0.5 * random_state((2, 2), 2, seed) + 0.5 * MIXED
        calls = []

        def counting(solve):
            def wrapper(*args, **kwargs):
                calls.append(1)
                return solve(*args, **kwargs)
            return wrapper

        for module in (sys.modules["dpskit.certify"], sys.modules["dpskit.extensions"]):
            monkeypatch.setattr(module, "solve", counting(module.solve))
        res = certify(rho, maxN=3)
        assert (res.verdict, res.N) == ("separable", 3)
        assert res.detail.startswith("disentangling theorem (S^N) at N=3")
        assert len(calls) <= 5

    def test_non_psd_preimages_cost_no_solve(self, monkeypatch):
        for ppt in (False, True):
            sigma = disentangle_preimage(PRODUCT, 2, ppt)
            assert np.linalg.eigvalsh(sigma.entries)[0] < -0.1
        module = sys.modules["dpskit.certify"]
        queried = []

        def recording(q, *args, **kwargs):
            queried.append(q.rho)
            return check_membership(q, *args, **kwargs)

        monkeypatch.setattr(module, "check_membership", recording)
        assert certify(PRODUCT, maxN=2).verdict == "separable"
        assert queried == [PRODUCT]

    @pytest.mark.parametrize(
        "case, routes",
        [
            # neither preimage is PSD
            ("products", r"S\^N preimage not PSD \(lambda_min -\S+\); "
                         r"S_p\^N preimage not PSD \(lambda_min -\S+\)"),
            # both preimages are PSD and have no (PPT) 2-extension
            ("rank-2+noise", r"S\^N preimage not 2-extendable \(infeasible: dual certificate\); "
                             r"S_p\^N preimage not 2-extendable \(infeasible: dual certificate\)"),
        ],
    )
    def test_undecided_names_each_route(self, case, routes):
        # 2x2 PPT states near the boundary, where the rank search finds no
        # loop at N = 2
        if case == "products":
            # an even mixture of five random product states
            rng = np.random.default_rng(1)
            mix = np.zeros((4, 4), dtype=complex)
            for _ in range(5):
                a = rng.standard_normal(2) + 1j * rng.standard_normal(2)
                b = rng.standard_normal(2) + 1j * rng.standard_normal(2)
                v = np.kron(a / np.linalg.norm(a), b / np.linalg.norm(b))
                mix += np.outer(v, v.conj()) / 5
            rho = HermitianOperator((2, 2), mix)
        else:
            rho = 0.5 * random_state((2, 2), 2, 9) + 0.5 * MIXED
        assert is_ppt(rho, [1])
        res = certify(rho, maxN=2)
        assert res.verdict == "undecided"
        # an infeasible preimage's detail ends with its witness's cone floor
        routes = routes.replace(r"dual certificate\)", r"dual certificate; certified cone floor \S+\)")
        assert re.fullmatch(
            r"at N=2: " + routes + r"; "
            r"no rank loop \(lowest-rank extension: ranks \d+, \d+, \d+ at K=1\)",
            res.detail,
        ), res.detail
        assert set(json.loads(res.to_json())) == {"verdict", "N", "detail"}

    def test_rank_loop_at_a_cut_other_than_sp(self, monkeypatch):
        # with no loop at the S_p^N cut (K = 1 at N = 2, K = 2 at N = 3),
        # the product state's extension shows one at N = 3's other cut
        module = sys.modules["dpskit.certify"]
        checked = []

        def no_loop_at_sp(x, dA, d, N, K):
            loop, profile = rank_loop_check(x, dA, d, N, K)
            checked.append((N, K))
            return (loop and K != N - N // 2), profile

        monkeypatch.setattr(module, "rank_loop_check", no_loop_at_sp)
        res = certify(PRODUCT, maxN=3)
        assert (res.verdict, res.N, res.detail) == ("separable", 3, "rank loop at K=1")
        assert res.profile.K == 1
        assert checked == [(2, 1), (3, 2), (3, 1)]

    def test_json_payload(self):
        res = certify(PRODUCT, maxN=2)
        payload = json.loads(res.to_json())
        assert payload["verdict"] == "separable"
        assert payload["ranks"] == [1, 1, 1]
        res = certify(BELL, maxN=2)
        payload = json.loads(res.to_json())
        assert payload["verdict"] == "entangled"
        assert "witness" in payload
