"""Dense Hermitian operators on tensor products of labeled factors.

Everything downstream (symmetric extensions, SDP compilation, the analytic
bounds) manipulates operators through this module.  Values are immutable
after construction; all operations are pure functions returning new objects.
Subsystems are always addressed by positional factor index.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from math import prod

import numpy as np

__all__ = [
    "HermitianOperator",
    "NORM_KINDS",
    "kron",
    "partial_trace",
    "partial_transpose",
    "eig_hermitian",
    "norm",
    "negativity",
    "depolarize",
    "is_ppt",
    "random_state",
    "permute_factors",
    "identity",
    "pure_state",
    "operator_to_json",
    "operator_from_json",
    "operator_to_dict",
    "operator_from_dict",
    "complex_from_json",
]

NORM_KINDS = ("trace", "operator", "frobenius")

DEFAULT_HERMITIAN_TOL = 1e-10


@dataclass(frozen=True)
class HermitianOperator:
    """A Hermitian matrix over ``H_1 x ... x H_k`` with ``dim H_i = factor_dims[i]``.

    The constructor symmetrizes ``(M + M^dag)/2`` when the anti-Hermitian part
    is within ``hermitian_tol`` (max-entry norm) and rejects the input
    otherwise.  ``entries`` is frozen (read-only ndarray).
    """

    factor_dims: tuple[int, ...]
    entries: np.ndarray
    hermitian_tol: float = field(default=DEFAULT_HERMITIAN_TOL, compare=False)

    def __post_init__(self):
        dims = tuple(int(d) for d in self.factor_dims)
        if not dims or any(d < 1 for d in dims):
            raise ValueError(f"invalid factor dimensions {dims}")
        side = prod(dims)
        m = np.asarray(self.entries, dtype=complex)
        if m.shape != (side, side):
            raise ValueError(
                f"matrix shape {m.shape} does not match factor dims {dims}"
            )
        if not np.all(np.isfinite(m)):
            raise ValueError("matrix has non-finite (NaN or inf) entries")
        defect = np.max(np.abs(m - m.conj().T)) if side else 0.0
        if defect > self.hermitian_tol:
            raise ValueError(
                f"matrix is not Hermitian within tolerance "
                f"({defect:.3e} > {self.hermitian_tol:.3e})"
            )
        m = 0.5 * (m + m.conj().T)
        m.flags.writeable = False
        object.__setattr__(self, "factor_dims", dims)
        object.__setattr__(self, "entries", m)

    @property
    def dim(self) -> int:
        return self.entries.shape[0]

    @property
    def nfactors(self) -> int:
        return len(self.factor_dims)

    def trace(self) -> float:
        return float(np.trace(self.entries).real)

    def replace_entries(self, entries) -> "HermitianOperator":
        return HermitianOperator(self.factor_dims, entries, self.hermitian_tol)

    def regroup(self, factor_dims) -> "HermitianOperator":
        """Reinterpret the same matrix over a different factor split."""
        return HermitianOperator(tuple(factor_dims), self.entries, self.hermitian_tol)

    # small algebra; results keep the factor structure of the left operand
    def __add__(self, other: "HermitianOperator") -> "HermitianOperator":
        return self.replace_entries(self.entries + other.entries)

    def __sub__(self, other: "HermitianOperator") -> "HermitianOperator":
        return self.replace_entries(self.entries - other.entries)

    def __mul__(self, scalar: float) -> "HermitianOperator":
        return self.replace_entries(self.entries * float(scalar))

    __rmul__ = __mul__

    def __repr__(self):  # keep reprs small; matrices can be large
        return f"HermitianOperator(dims={self.factor_dims}, side={self.dim})"


def _as_tensor(x: HermitianOperator) -> np.ndarray:
    dims = x.factor_dims
    return x.entries.reshape(dims + dims)


def identity(factor_dims) -> HermitianOperator:
    side = prod(factor_dims)
    return HermitianOperator(tuple(factor_dims), np.eye(side, dtype=complex))


def pure_state(vector, factor_dims) -> HermitianOperator:
    """Projector onto the (normalized) vector, as a state."""
    v = np.asarray(vector, dtype=complex).ravel()
    if not np.all(np.isfinite(v)):
        raise ValueError("state vector has non-finite (NaN or inf) entries")
    nrm = np.linalg.norm(v)
    if nrm == 0:
        raise ValueError("zero vector")
    v = v / nrm
    return HermitianOperator(tuple(factor_dims), np.outer(v, v.conj()))


def kron(a: HermitianOperator, b: HermitianOperator) -> HermitianOperator:
    return HermitianOperator(
        a.factor_dims + b.factor_dims, np.kron(a.entries, b.entries)
    )


def _check_factors(x: HermitianOperator, factors) -> tuple[int, ...]:
    fs = tuple(sorted(set(int(f) for f in factors)))
    for f in fs:
        if f < 0 or f >= x.nfactors:
            raise IndexError(f"factor index {f} out of range for {x.factor_dims}")
    return fs


def partial_trace(x: HermitianOperator, traced_factors) -> HermitianOperator:
    """Trace out the given factors; kept factors stay in original order."""
    traced = _check_factors(x, traced_factors)
    kept = tuple(f for f in range(x.nfactors) if f not in traced)
    if not kept:
        raise ValueError("cannot trace out every factor")
    t = _as_tensor(x)
    k = x.nfactors
    row_idx = list(range(k))
    col_idx = [k + f if f in kept else f for f in range(k)]
    out_idx = [f for f in kept] + [k + f for f in kept]
    res = np.einsum(t, row_idx + col_idx, out_idx)
    side = prod(x.factor_dims[f] for f in kept)
    return HermitianOperator(
        tuple(x.factor_dims[f] for f in kept),
        res.reshape(side, side),
        x.hermitian_tol,
    )


def partial_transpose(x: HermitianOperator, transposed_factors) -> HermitianOperator:
    """Transpose the given factors; an involution preserving trace and Hermiticity."""
    tr = _check_factors(x, transposed_factors)
    t = _as_tensor(x)
    k = x.nfactors
    perm = list(range(2 * k))
    for f in tr:
        perm[f], perm[k + f] = perm[k + f], perm[f]
    res = np.transpose(t, perm).reshape(x.dim, x.dim)
    return HermitianOperator(x.factor_dims, res, x.hermitian_tol)


def eig_hermitian(x: HermitianOperator):
    """Eigenvalues (descending) and matching orthonormal eigenvector columns."""
    w, v = np.linalg.eigh(x.entries)
    return w[::-1].copy(), v[:, ::-1].copy()


def norm(x: HermitianOperator, kind: str) -> float:
    if kind not in NORM_KINDS:
        raise ValueError(f"unknown norm kind {kind!r}; expected one of {NORM_KINDS}")
    w = np.linalg.eigvalsh(x.entries)
    if kind == "trace":
        return float(np.sum(np.abs(w)))
    if kind == "operator":
        return float(np.max(np.abs(w)))
    return float(np.sqrt(np.sum(w * w)))


def negativity(rho: HermitianOperator, cut_factors) -> float:
    """Minus the sum of negative eigenvalues of the partial transpose."""
    w = np.linalg.eigvalsh(partial_transpose(rho, cut_factors).entries)
    return float(-np.sum(w[w < 0.0]))


def is_ppt(rho: HermitianOperator, cut_factors, tol: float = 1e-9) -> bool:
    w = np.linalg.eigvalsh(partial_transpose(rho, cut_factors).entries)
    return bool(w[0] >= -tol)


def depolarize(rho: HermitianOperator, p: float, factor: int) -> HermitianOperator:
    """Apply the depolarizing channel with probability ``p`` to one factor.

    Returns ``(1-p) rho + p * tr_f(rho) (x) I_d/d`` with the identity inserted
    back at the position of ``factor``.
    """
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"depolarizing probability {p} outside [0, 1]")
    (f,) = _check_factors(rho, [factor])
    d = rho.factor_dims[f]
    if rho.nfactors == 1:
        mixed = np.eye(d, dtype=complex) * (rho.trace() / d)
        return rho.replace_entries((1.0 - p) * rho.entries + p * mixed)
    reduced = partial_trace(rho, [f])
    # kron appends the fresh identity factor last, then we permute it home
    noisy = kron(reduced, identity([d]) * (1.0 / d))
    perm = list(range(rho.nfactors - 1))
    perm.insert(f, rho.nfactors - 1)
    noisy = permute_factors(noisy, perm)
    return rho.replace_entries((1.0 - p) * rho.entries + p * noisy.entries)


def permute_factors(x: HermitianOperator, perm) -> HermitianOperator:
    """Reorder tensor factors so that new factor i is old factor perm[i]."""
    perm = list(perm)
    if sorted(perm) != list(range(x.nfactors)):
        raise ValueError(f"{perm} is not a permutation of {x.nfactors} factors")
    t = _as_tensor(x)
    k = x.nfactors
    axes = perm + [k + f for f in perm]
    dims = tuple(x.factor_dims[f] for f in perm)
    return HermitianOperator(
        dims, np.transpose(t, axes).reshape(x.dim, x.dim), x.hermitian_tol
    )


def random_state(dims, rank: int, seed: int) -> HermitianOperator:
    """Reproducible Ginibre-induced random state of the given rank."""
    dims = tuple(int(d) for d in dims)
    side = prod(dims)
    if not 1 <= rank <= side:
        raise ValueError(f"rank {rank} not in [1, {side}]")
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((side, rank)) + 1j * rng.standard_normal((side, rank))
    m = g @ g.conj().T
    return HermitianOperator(dims, m / np.trace(m).real)


def operator_to_dict(x: HermitianOperator) -> dict:
    """The JSON-ready form {"dims": [...], "re": [[...]], "im": [[...]]}."""
    return {
        "dims": list(x.factor_dims),
        "re": x.entries.real.tolist(),
        "im": x.entries.imag.tolist(),
    }


def operator_to_json(x: HermitianOperator) -> str:
    return json.dumps(operator_to_dict(x))


def complex_from_json(data) -> tuple[tuple[int, ...], np.ndarray]:
    """(dims, re + 1j im) of a parsed {"dims", "re", "im"} payload.

    "im" defaults to zero; KeyError, TypeError and ValueError pass through.
    """
    dims = tuple(int(d) for d in data["dims"])
    re = np.array(data["re"], dtype=float)
    im = np.array(data.get("im", np.zeros_like(re).tolist()), dtype=float)
    return dims, re + 1j * im


def operator_from_dict(data) -> HermitianOperator:
    """The operator of a parsed {"dims", "re", "im"} payload."""
    try:
        dims, m = complex_from_json(data)
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"malformed operator JSON: {exc}") from exc
    return HermitianOperator(dims, m)


def operator_from_json(text: str) -> HermitianOperator:
    return operator_from_dict(json.loads(text))
