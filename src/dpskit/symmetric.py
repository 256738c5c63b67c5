"""Occupation-number labels of the symmetric subspace Sym^N(C^d).

Multi-indices are kept in reverse-lexicographic order (descending occupation
of the lowest levels first), which fixes every downstream constraint matrix
bit-exactly.  The d^N isometry onto Sym^N is built only by the test suite's
oracles.
"""

from __future__ import annotations

from math import comb

__all__ = ["sym_dim", "occupations"]


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
