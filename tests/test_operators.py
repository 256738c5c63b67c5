import json

import numpy as np
import pytest
from numpy.testing import assert_allclose

from dpskit.operators import (
    HermitianOperator,
    depolarize,
    identity,
    is_ppt,
    kron,
    negativity,
    norm,
    operator_from_dict,
    operator_from_json,
    operator_to_dict,
    operator_to_json,
    partial_trace,
    partial_transpose,
    permute_factors,
    pure_state,
    random_state,
)

from oracles import eig_hermitian

BELL = pure_state([1, 0, 0, 1], (2, 2))


def rand_herm(dims, seed):
    rng = np.random.default_rng(seed)
    n = int(np.prod(dims))
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return HermitianOperator(tuple(dims), 0.5 * (g + g.conj().T))


class TestConstruction:
    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError, match="Hermitian"):
            HermitianOperator((2,), np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ValueError, match="shape"):
            HermitianOperator((2, 2), np.eye(3))

    def test_symmetrizes_within_tolerance(self):
        m = np.array([[1.0, 1e-12j], [0.0, 2.0]])
        op = HermitianOperator((2,), m)
        assert_allclose(op.entries, op.entries.conj().T)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, np.nan)])
    def test_rejects_non_finite(self, bad):
        m = np.eye(2, dtype=complex)
        m[0, 0] = bad
        with pytest.raises(ValueError, match="finite"):
            HermitianOperator((2,), m)

    def test_entries_immutable(self):
        op = identity((2,))
        with pytest.raises(ValueError):
            op.entries[0, 0] = 5.0


class TestKron:
    def test_identity(self):
        assert_allclose(kron(identity((2,)), identity((2,))).entries, np.eye(4))

    def test_diagonal(self):
        a = HermitianOperator((2,), np.diag([1.0, 0.0]))
        b = HermitianOperator((2,), np.diag([0.0, 1.0]))
        assert_allclose(kron(a, b).entries, np.diag([0.0, 1.0, 0.0, 0.0]))

    def test_index_formula(self):
        a, b = rand_herm([2], 0), rand_herm([2], 1)
        k = kron(a, b)
        for i in range(2):
            for j in range(2):
                for p in range(2):
                    for q in range(2):
                        assert k.entries[i * 2 + p, j * 2 + q] == pytest.approx(
                            a.entries[i, j] * b.entries[p, q]
                        )
        assert k.factor_dims == (2, 2)


class TestPartialTrace:
    def test_product_case(self):
        rho_a = random_state([2], 2, 0)
        rho_b = random_state([3], 3, 1)
        out = partial_trace(kron(rho_a, rho_b), [1])
        assert_allclose(out.entries, rho_b.trace() * rho_a.entries, atol=1e-12)

    def test_bell_reduction(self):
        assert_allclose(partial_trace(BELL, [1]).entries, np.eye(2) / 2, atol=1e-12)

    def test_composition(self):
        x = rand_herm([2, 3, 2], 2)
        a = partial_trace(partial_trace(x, [2]), [1])
        b = partial_trace(x, [1, 2])
        assert_allclose(a.entries, b.entries, atol=1e-12)
        assert a.factor_dims == (2,)

    def test_trace_preserved(self):
        x = rand_herm([2, 2, 3], 3)
        assert partial_trace(x, [0, 2]).trace() == pytest.approx(x.trace())

    def test_index_out_of_range(self):
        with pytest.raises(IndexError):
            partial_trace(BELL, [2])


class TestPartialTranspose:
    def test_product_case(self):
        rho_a, rho_b = rand_herm([2], 4), rand_herm([2], 5)
        out = partial_transpose(kron(rho_a, rho_b), [1])
        assert_allclose(out.entries, np.kron(rho_a.entries, rho_b.entries.T), atol=1e-12)

    def test_bell_gives_swap(self):
        swap = np.zeros((4, 4))
        for i in range(2):
            for j in range(2):
                swap[i * 2 + j, j * 2 + i] = 1.0
        pt = partial_transpose(BELL, [1])
        assert_allclose(pt.entries, swap / 2, atol=1e-12)
        assert np.linalg.eigvalsh(pt.entries)[0] == pytest.approx(-0.5)

    def test_involution_and_norms(self):
        x = rand_herm([2, 3], 6)
        pt = partial_transpose(x, [1])
        assert_allclose(partial_transpose(pt, [1]).entries, x.entries, atol=1e-14)
        assert pt.trace() == pytest.approx(x.trace())
        assert norm(pt, "frobenius") == pytest.approx(norm(x, "frobenius"))


class TestEig:
    def test_diagonal(self):
        w, _ = eig_hermitian(HermitianOperator((3,), np.diag([3.0, 1.0, 2.0])))
        assert_allclose(w, [3.0, 2.0, 1.0])

    def test_pauli_x(self):
        w, _ = eig_hermitian(HermitianOperator((2,), np.array([[0, 1], [1, 0]], dtype=complex)))
        assert_allclose(w, [1.0, -1.0], atol=1e-14)

    def test_trace_identity_and_reconstruction(self):
        x = rand_herm([8], 7)
        w, v = eig_hermitian(x)
        assert np.sum(w) == pytest.approx(x.trace(), abs=1e-10)
        recon = (v * w) @ v.conj().T
        scale = 1.0 + np.max(np.abs(x.entries))
        assert np.max(np.abs(recon - x.entries)) <= 1e-9 * scale
        assert np.max(np.abs(v.conj().T @ v - np.eye(8))) <= 1e-9


class TestNorms:
    def test_pinned_values(self):
        x = HermitianOperator((2,), np.diag([1.0, -1.0]))
        assert norm(x, "trace") == pytest.approx(2.0)
        assert norm(x, "operator") == pytest.approx(1.0)
        assert norm(x, "frobenius") == pytest.approx(np.sqrt(2.0))

    def test_state_trace_norm(self):
        assert norm(random_state([2, 2], 4, 11), "trace") == pytest.approx(1.0)

    def test_frobenius_squared_is_purity(self):
        x = rand_herm([2, 2], 12)
        assert norm(x, "frobenius") ** 2 == pytest.approx(
            float(np.trace(x.entries @ x.entries).real), abs=1e-10
        )

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            norm(BELL, "nuclear")


class TestNegativity:
    def test_separable_zero(self):
        rho = kron(random_state([2], 2, 0), random_state([2], 2, 1))
        assert negativity(rho, [1]) == pytest.approx(0.0, abs=1e-12)

    def test_tensor_power_formula(self):
        # negativity of rho^(x)M against ((1+1/N)^M - 1)/2, N = 2K-1
        from dpskit.bounds import example_state

        for k in (2, 3):
            n = 2 * k - 1
            rho = example_state(k)
            power = rho
            for m in range(2, 4):
                power = kron(power, rho)
                cut = [2 * i + 1 for i in range(m)]
                expected = ((1.0 + 1.0 / n) ** m - 1.0) / 2.0
                assert negativity(power, cut) == pytest.approx(expected, abs=1e-10)


class TestDepolarize:
    def test_p_zero_identity(self):
        rho = random_state([2, 3], 4, 3)
        assert_allclose(depolarize(rho, 0.0, 1).entries, rho.entries)

    def test_p_one_single_factor(self):
        rho = random_state([3], 3, 4)
        assert_allclose(depolarize(rho, 1.0, 0).entries, np.eye(3) / 3, atol=1e-12)

    def test_qubit_point_three(self):
        rho = pure_state([1, 0], (2,))
        assert_allclose(depolarize(rho, 0.3, 0).entries, np.diag([0.85, 0.15]), atol=1e-14)

    def test_definition_entrywise(self):
        rho = random_state([2, 3], 6, 5)
        p = 0.37
        got = depolarize(rho, p, 1)
        reduced = partial_trace(rho, [1])
        expected = (1 - p) * rho.entries + p * np.kron(reduced.entries, np.eye(3) / 3)
        assert np.max(np.abs(got.entries - expected)) <= 1e-12

    def test_rejects_bad_probability(self):
        with pytest.raises(ValueError):
            depolarize(BELL, 1.5, 0)

    @pytest.mark.parametrize("p", [0.0, 0.37, 1.0])
    @pytest.mark.parametrize("factor", [0, 1, 2])
    def test_every_factor_of_three_matches_definition(self, factor, p):
        # tr_f(rho) (x) I/d, the fresh factor permuted back to position f
        rho = random_state([2, 3, 2], 5, 11)
        d = rho.factor_dims[factor]
        perm = [0, 1]
        perm.insert(factor, 2)
        noisy = permute_factors(kron(partial_trace(rho, [factor]), identity([d]) * (1.0 / d)), perm)
        want = rho.replace_entries((1.0 - p) * rho.entries + p * noisy.entries)
        assert depolarize(rho, p, factor).entries.tobytes() == want.entries.tobytes()


class TestPpt:
    def test_maximally_mixed(self):
        assert is_ppt(identity((2, 2)) * 0.25, [1])

    def test_bell_is_npt(self):
        assert not is_ppt(BELL, [1])

    def test_example_family_npt(self):
        from dpskit.bounds import example_state

        assert not is_ppt(example_state(2), [1])


class TestRandomState:
    def test_full_rank(self):
        rho = random_state([2, 2], 4, 9)
        assert np.linalg.eigvalsh(rho.entries)[0] > 0
        assert rho.trace() == pytest.approx(1.0)

    def test_pure(self):
        rho = random_state([3], 1, 10)
        assert float(np.trace(rho.entries @ rho.entries).real) == pytest.approx(1.0, abs=1e-10)

    def test_deterministic(self):
        a = random_state([2, 2], 3, 123)
        b = random_state([2, 2], 3, 123)
        assert np.array_equal(a.entries, b.entries)


def test_permute_factors_roundtrip():
    x = rand_herm([2, 3, 2], 20)
    perm = [2, 0, 1]
    y = permute_factors(x, perm)
    assert y.factor_dims == (2, 2, 3)
    inverse = [perm.index(i) for i in range(3)]
    assert_allclose(permute_factors(y, inverse).entries, x.entries, atol=1e-14)


def test_json_roundtrip():
    x = rand_herm([2, 2], 21)
    y = operator_from_json(operator_to_json(x))
    assert y.factor_dims == x.factor_dims
    assert_allclose(y.entries, x.entries, atol=1e-15)


def test_json_malformed():
    with pytest.raises(ValueError):
        operator_from_json(json.dumps({"re": [[1.0]]}))


def test_dict_form_is_the_parsed_json():
    x = rand_herm([2, 2], 21)
    assert operator_to_dict(x) == json.loads(operator_to_json(x))
    y = operator_from_dict(operator_to_dict(x))
    assert y.factor_dims == x.factor_dims
    assert np.array_equal(y.entries, x.entries)
    with pytest.raises(ValueError, match="malformed operator JSON"):
        operator_from_dict({"re": [[1.0]]})
