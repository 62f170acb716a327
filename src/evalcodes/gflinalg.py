"""Dense linear algebra over a FiniteField on integer-encoded numpy arrays.

Row reduction uses a fixed pivot rule (first nonzero entry in a column-major
scan), and reduced echelon form is unique, so every derived object here --
ranks, kernels, generator matrices -- is byte-reproducible across runs.
"""

from __future__ import annotations

import numpy as np

from .gf import FiniteField


def as_matrix(mat) -> np.ndarray:
    m = np.array(mat, dtype=np.int64)
    if m.ndim != 2:
        raise ValueError(f"expected a 2-d matrix, got shape {m.shape}")
    return m


def rref(field: FiniteField, mat, want_transform: bool = False):
    """Reduced row echelon form.

    Returns (R, pivots) or, with want_transform, (R, pivots, T) where T is an
    invertible square matrix with T @ mat == R over the field.
    """
    m = as_matrix(mat)
    rows, cols = m.shape
    t = np.eye(rows, dtype=np.int64) if want_transform else None
    pivots: list[int] = []
    r = 0
    for c in range(cols):
        if r == rows:
            break
        nz = np.nonzero(m[r:, c])[0]
        if len(nz) == 0:
            continue
        pr = r + int(nz[0])
        if pr != r:
            m[[r, pr]] = m[[pr, r]]
            if t is not None:
                t[[r, pr]] = t[[pr, r]]
        inv = field.inv(int(m[r, c]))
        if inv != 1:
            m[r] = field.mul(m[r], inv)
            if t is not None:
                t[r] = field.mul(t[r], inv)
        fac = m[:, c].copy()
        fac[r] = 0
        hit = np.nonzero(fac)[0]
        if len(hit):
            m[hit] = field.sub(m[hit], field.mul(fac[hit, None], m[r][None, :]))
            if t is not None:
                t[hit] = field.sub(t[hit], field.mul(fac[hit, None], t[r][None, :]))
        pivots.append(c)
        r += 1
    if want_transform:
        return m, pivots, t
    return m, pivots


def rank(field: FiniteField, mat) -> int:
    return len(rref(field, mat)[1])


def nonzero_rows(field: FiniteField, mat) -> np.ndarray:
    """RREF with zero rows dropped: the canonical basis of the row space."""
    r, pivots = rref(field, mat)
    return r[: len(pivots)]


def kernel_basis(field: FiniteField, mat) -> np.ndarray:
    """Basis of the right kernel, one row per free column, ascending."""
    m = as_matrix(mat)
    cols = m.shape[1]
    r, pivots = rref(field, m)
    free = [c for c in range(cols) if c not in set(pivots)]
    basis = np.zeros((len(free), cols), dtype=np.int64)
    for i, f in enumerate(free):
        basis[i, f] = 1
        for j, pc in enumerate(pivots):
            basis[i, pc] = field.neg(int(r[j, f]))
    return basis


def matmul(field: FiniteField, a, b) -> np.ndarray:
    """Exact GF matrix product; meant for small/medium shapes."""
    a, b = as_matrix(a), as_matrix(b)
    if a.shape[1] != b.shape[0]:
        raise ValueError(f"shape mismatch {a.shape} @ {b.shape}")
    if field.n == 1 and (field.p - 1) ** 2 * a.shape[1] < 1 << 53:  # float64 sums stay exact
        return (a.astype(np.float64) @ b.astype(np.float64)).round().astype(np.int64) % field.p
    out = np.zeros((a.shape[0], b.shape[1]), dtype=np.int64)
    for k in range(a.shape[1]):
        out = field.add(out, field.mul(a[:, k, None], b[None, k, :]))
    return out


def vecmat(field: FiniteField, v, m) -> np.ndarray:
    return matmul(field, np.asarray(v, dtype=np.int64)[None, :], m)[0]


def coords_in_rowspace(field: FiniteField, rref_mat: np.ndarray, pivots: list[int], v):
    """Coefficients expressing v over the RREF rows, or None if v is outside.

    Because rref_mat is reduced, the coefficient vector is just v restricted
    to the pivot columns.
    """
    v = np.asarray(v, dtype=np.int64)
    coeffs = v[pivots] if pivots else np.zeros(0, dtype=np.int64)
    recon = vecmat(field, coeffs, rref_mat[: len(pivots)]) if len(pivots) else np.zeros_like(v)
    if np.array_equal(recon, v):
        return coeffs
    return None


def in_rowspace(field: FiniteField, rref_mat: np.ndarray, pivots: list[int], v) -> bool:
    return coords_in_rowspace(field, rref_mat, pivots, v) is not None


def invert(field: FiniteField, mat) -> np.ndarray:
    m = as_matrix(mat)
    if m.shape[0] != m.shape[1]:
        raise ValueError("only square matrices can be inverted")
    r, pivots, t = rref(field, m, want_transform=True)
    if len(pivots) != m.shape[0]:
        raise ValueError("matrix is singular")
    return t


def random_invertible(field: FiniteField, size: int, rng) -> np.ndarray:
    """Uniform-ish invertible matrix from a seeded random.Random."""
    while True:
        m = np.array(
            [[rng.randrange(field.q) for _ in range(size)] for _ in range(size)],
            dtype=np.int64,
        )
        if rank(field, m) == size:
            return m
