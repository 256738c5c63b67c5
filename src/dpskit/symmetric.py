"""Occupation-number basis of the symmetric subspace Sym^N(C^d).

The isometry columns are built combinatorially, one computational-basis
string at a time, so no d^N x d^N projector is ever formed.  Multi-indices
are kept in reverse-lexicographic order (descending occupation of the lowest
levels first), which fixes every downstream constraint matrix bit-exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb, factorial, prod, sqrt

import numpy as np

from .operators import HermitianOperator, pure_state

__all__ = [
    "sym_dim",
    "occupations",
    "SymmetricBasis",
    "build_basis",
    "lift",
    "compress",
    "dicke_overlap_state",
]

# the largest d^N whose dense isometry build_basis builds
SPACE_CAP = 4096


def sym_dim(d: int, N: int) -> int:
    """dim Sym^N(C^d) = C(N + d - 1, d - 1)."""
    if d < 1 or N < 0:
        raise ValueError(f"invalid (d, N) = ({d}, {N})")
    return comb(N + d - 1, d - 1)


def occupations(d: int, N: int) -> list[tuple[int, ...]]:
    """All (n_1, ..., n_d) with sum N, in reverse-lexicographic order."""

    def gen(slots, total):
        if slots == 1:
            yield (total,)
            return
        for head in range(total, -1, -1):
            for tail in gen(slots - 1, total - head):
                yield (head,) + tail

    return list(gen(d, N))


@dataclass(frozen=True)
class SymmetricBasis:
    """Sym^N(C^d) with its isometry into the full N-fold tensor space."""

    d: int
    N: int
    multi_indices: tuple[tuple[int, ...], ...]
    isometry: np.ndarray  # d^N x sym_dim, orthonormal columns

    @property
    def size(self) -> int:
        return len(self.multi_indices)

    @property
    def full_dim(self) -> int:
        return self.isometry.shape[0]

    def index(self, occ) -> int:
        return self._lookup[tuple(occ)]

    def __post_init__(self):
        object.__setattr__(
            self, "_lookup", {occ: i for i, occ in enumerate(self.multi_indices)}
        )
        self.isometry.flags.writeable = False

    def projector(self) -> np.ndarray:
        return self.isometry @ self.isometry.conj().T


def build_basis(d: int, N: int) -> SymmetricBasis:
    if d**N > SPACE_CAP:
        raise MemoryError(f"d^N = {d}**{N} exceeds the space cap {SPACE_CAP}")
    occs = occupations(d, N)
    cols = {occ: j for j, occ in enumerate(occs)}
    iso = np.zeros((d**N, len(occs)), dtype=float)
    # one pass over all strings; weight per column is 1/sqrt(#strings)
    weight = {
        occ: 1.0 / sqrt(factorial(N) / prod(factorial(n) for n in occ))
        for occ in occs
    }
    for s in range(d**N):
        counts = [0] * d
        rem = s
        for _ in range(N):
            rem, digit = divmod(rem, d)
            counts[digit] += 1
        occ = tuple(counts)
        iso[s, cols[occ]] = weight[occ]
    return SymmetricBasis(d, N, tuple(occs), iso)


def lift(x, basis: SymmetricBasis, dA: int) -> HermitianOperator:
    """(I_A (x) V) x (I_A (x) V)^dag for a compressed x on H_A (x) Sym^N."""
    x = np.asarray(x, dtype=complex)
    side = dA * basis.size
    if x.shape != (side, side):
        raise ValueError(f"compressed operator side {x.shape} != {side}")
    v = np.kron(np.eye(dA), basis.isometry)
    full = v @ x @ v.conj().T
    return HermitianOperator((dA,) + (basis.d,) * basis.N, full)


def compress(full: HermitianOperator, basis: SymmetricBasis, dA: int) -> np.ndarray:
    """Adjoint of :func:`lift`; exact inverse on Bose-symmetric operators."""
    v = np.kron(np.eye(dA), basis.isometry)
    return v.conj().T @ full.entries @ v


def dicke_overlap_state(K: int) -> HermitianOperator:
    """Projector onto the K-excitation permutation state of 2K qubits.

    Its reduction onto two qubits is the hierarchy's tightness family; the
    remaining 2K-1 qubits form the Bose-symmetric extension of that pair.
    """
    if K < 1:
        raise ValueError("K must be >= 1")
    if K > 6:
        raise MemoryError("K > 6 exceeds the 2K-qubit memory cap")
    basis = build_basis(2, 2 * K)
    vec = basis.isometry[:, basis.index((K, K))]
    return pure_state(vec, (2,) * (2 * K))
