from itertools import permutations
from math import comb

import numpy as np
import pytest
from numpy.testing import assert_allclose

from dpskit.operators import partial_trace, pure_state
from dpskit.symmetric import occupations, sym_dim

from oracles import build_basis, compress, dicke_overlap_state, lift


@pytest.mark.parametrize(
    "d,N,expected", [(2, 1, 2), (2, 6, 7), (3, 4, 15), (2, 0, 1), (4, 3, 20)]
)
def test_sym_dim(d, N, expected):
    assert sym_dim(d, N) == expected
    assert sym_dim(d, N) == comb(N + d - 1, d - 1)


def test_occupations_reverse_lex():
    occs = occupations(2, 2)
    assert occs == [(2, 0), (1, 1), (0, 2)]
    occs3 = occupations(3, 2)
    assert occs3[0] == (2, 0, 0)
    assert occs3[-1] == (0, 0, 2)
    assert occs3 == sorted(occs3, reverse=True)


def test_basis_2_2_columns():
    basis = build_basis(2, 2)
    v = basis.isometry
    assert_allclose(v[:, basis.index((2, 0))], [1, 0, 0, 0])
    s = 1 / np.sqrt(2)
    assert_allclose(v[:, basis.index((1, 1))], [0, s, s, 0])
    assert_allclose(v[:, basis.index((0, 2))], [0, 0, 0, 1])


def test_basis_orthonormal():
    basis = build_basis(2, 3)
    gram = basis.isometry.T @ basis.isometry
    assert np.max(np.abs(gram - np.eye(4))) < 1e-12


def test_projector_rank():
    basis = build_basis(3, 2)
    proj = basis.projector()
    assert np.linalg.matrix_rank(proj, tol=1e-10) == sym_dim(3, 2) == 6


def permutation_matrix(perm, d):
    n = len(perm)
    size = d**n
    mat = np.zeros((size, size))
    for s in range(size):
        digits = []
        rem = s
        for _ in range(n):
            rem, r = divmod(rem, d)
            digits.append(r)
        digits = digits[::-1]  # most significant digit = first factor
        permuted = [digits[perm[i]] for i in range(n)]
        t = 0
        for dg in permuted:
            t = t * d + dg
        mat[t, s] = 1.0
    return mat


@pytest.mark.parametrize("d,N", [(2, 2), (2, 3), (2, 4), (3, 2), (3, 3)])
def test_projector_is_permutation_average(d, N):
    from math import factorial

    basis = build_basis(d, N)
    avg = sum(permutation_matrix(p, d) for p in permutations(range(N))) / factorial(N)
    assert np.max(np.abs(basis.projector() - avg)) < 1e-12


def test_lift_of_identity_is_projector():
    basis = build_basis(2, 2)
    x = np.eye(2 * basis.size)
    lifted = lift(x, basis, 2)
    assert_allclose(lifted.entries, np.kron(np.eye(2), basis.projector()), atol=1e-12)


def test_lift_preserves_rank_and_psd():
    rng = np.random.default_rng(0)
    basis = build_basis(2, 3)
    n = 2 * basis.size
    g = rng.standard_normal((n, 3)) + 1j * rng.standard_normal((n, 3))
    x = g @ g.conj().T
    lifted = lift(x, basis, 2)
    assert np.linalg.matrix_rank(lifted.entries, tol=1e-9) == 3
    assert np.linalg.eigvalsh(lifted.entries)[0] > -1e-12


def test_lift_compress_roundtrip():
    rng = np.random.default_rng(1)
    basis = build_basis(3, 2)
    n = 2 * basis.size
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    x = g + g.conj().T
    back = compress(lift(x, basis, 2), basis, 2)
    assert np.max(np.abs(back - x)) < 1e-12


def test_space_cap():
    with pytest.raises(MemoryError):
        build_basis(2, 13)


class TestDickeOverlap:
    def test_k1_is_triplet_projector(self):
        got = dicke_overlap_state(1)
        expect = pure_state([0, 1, 1, 0], (2, 2))
        assert_allclose(got.entries, expect.entries, atol=1e-14)

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_reduction_matches_coefficients(self, k):
        state = dicke_overlap_state(k)
        red = partial_trace(state, list(range(2, 2 * k))).entries
        n = 2 * k - 1
        a = (k - 1) / (2.0 * n)
        b = k / (2.0 * n)
        assert red[0, 0] == pytest.approx(a, abs=1e-12)
        assert red[3, 3] == pytest.approx(a, abs=1e-12)
        assert red[1, 1] == pytest.approx(b, abs=1e-12)
        assert red[1, 2] == pytest.approx(b, abs=1e-12)

    def test_permutation_symmetric(self):
        state = dicke_overlap_state(2)
        from dpskit.operators import permute_factors

        shuffled = permute_factors(state, [2, 0, 3, 1])
        assert np.max(np.abs(shuffled.entries - state.entries)) < 1e-12

    def test_memory_cap(self):
        with pytest.raises(MemoryError):
            dicke_overlap_state(7)
