"""Dense linear algebra over a FiniteField on integer-encoded numpy arrays.

Row reduction uses a fixed pivot rule (first nonzero entry in a column-major
scan), and reduced echelon form is unique, so every derived object here --
ranks, kernels, generator matrices -- is byte-reproducible across runs.
Inversion is one Gauss-Jordan elimination run on a whole stack of square
matrices at once.  A product is formed a slice of the left factor's rows at
a time, each slice within gf.CHUNK_ELEMS // 4 output entries, and written
into an output array the caller may pass in its own narrow dtype.
"""

from __future__ import annotations

import math

import numpy as np

from . import gf
from .gf import FiniteField, smallest_uint


def as_matrix(mat) -> np.ndarray:
    m = np.array(mat, dtype=np.int64)
    if m.ndim != 2:
        raise ValueError(f"expected a 2-d matrix, got shape {m.shape}")
    return m


def rref(field: FiniteField, mat):
    """Reduced row echelon form: (R, pivots)."""
    m = as_matrix(mat)
    rows, cols = m.shape
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
        inv = field.inv(int(m[r, c]))
        if inv != 1:
            m[r] = field.mul(m[r], inv)
        fac = m[:, c].copy()
        fac[r] = 0
        hit = np.nonzero(fac)[0]
        if len(hit):
            m[hit] = field.sub(m[hit], field.mul(fac[hit, None], m[r][None, :]))
        pivots.append(c)
        r += 1
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
    free = sorted(set(range(cols)) - set(pivots))
    basis = np.zeros((len(free), cols), dtype=np.int64)
    basis[range(len(free)), free] = 1
    basis[:, pivots] = field.neg(r[: len(pivots), free].T)
    return basis


def matmul(field: FiniteField, a, b, out=None) -> np.ndarray:
    """Exact GF matrix product, broadcast over leading stack dimensions,
    written into `out` (int64 when None; any integer array of the product's
    shape that holds q - 1, a strided view too) and returned.

    Over GF(p^m) the product is GF(p)-linear in the base-p digits of `a`:
    row j*m + i of the expanded right factor holds the digits of p^i * b[j]
    (p^i encodes the i-th power basis element), and digit d of an output
    entry is a sum of inner * m GF(p) products, each at most (p-1)^2, so it
    fits a field of `bits` bits.  The m digit sums of an output entry are
    computed packed (Kronecker substitution): the right factor carries
    per = min(m, 53 // bits) of its digits per float word, digit d at bit
    bits * (d % per) of word d // per, so one BLAS product returns every
    packed sum exactly, in float32 where a word fits its 24-bit mantissa.
    Each field is unpacked by shift and mask, reduced mod p in the smallest
    unsigned dtype that holds it, and the digits fold back to encodings by
    Horner's rule; a prime field (m = 1, one digit per word) takes the
    reduction alone.  Where a digit sum needs more than 53 bits, an int64
    loop reduces each product mod p before adding instead (FiniteField
    keeps (p-1)^2 below 2^63, so no product overflows).

    The right factor is expanded and packed once; the product is formed a
    slice of `a`'s rows at a time, each slice at most gf.CHUNK_ELEMS // 4
    output entries (one row at least), so no temporary grows with the rows.
    """
    a, b = np.asarray(a, dtype=np.int64), np.asarray(b, dtype=np.int64)
    if a.ndim < 2 or b.ndim < 2 or a.shape[-1] != b.shape[-2]:
        raise ValueError(f"shape mismatch {a.shape} @ {b.shape}")
    p, m = field.p, field.n
    stack, rows, cols, terms = b.shape[:-2], a.shape[-2], b.shape[-1], a.shape[-1] * m
    shape = np.broadcast_shapes(a.shape[:-2], stack) + (rows, cols)
    if out is None:
        out = np.empty(shape, dtype=np.int64)
    elif out.shape != shape:
        raise ValueError(f"out has shape {out.shape}, the product {shape}")
    if m > 1:
        b = field._digits_of(field.mul(b[..., None, :], field._pow_p[:, None]))
    b = b.reshape(stack + (terms, cols, m))  # [..., j*m + i, column, digit d]
    bits = max(1, ((p - 1) ** 2 * terms).bit_length())
    if bits <= 53:
        per = min(m, 53 // bits)
        dtype = smallest_uint(max(bits, field.q.bit_length()))
        words = -(-m // per)
        packed = np.zeros(stack + (terms, cols, words), dtype=np.int64)
        for d in range(m):
            packed[..., d // per] += b[..., d] << bits * (d % per)
        ftype = np.float32 if per * bits <= 24 else np.float64
        packed = packed.reshape(stack + (terms, cols * words)).astype(ftype)

    def digit(sums, d):
        if bits > 53:
            return sums[..., d]
        word = sums[..., d // per]
        if per > 1:
            word = word >> bits * (d % per) & (1 << bits) - 1
        word = word.astype(dtype)
        word -= word // p * p  # numpy vectorizes floor division by a scalar, not %
        return word

    step = max(1, gf.CHUNK_ELEMS // 4 // max(1, math.prod(shape[:-2]) * cols))
    for lo in range(0, rows, step):
        part = a[..., lo:lo + step, :]
        if m > 1:
            part = field._digits_of(part).reshape(part.shape[:-1] + (terms,))
        if bits > 53:
            sums = 0
            for j in range(terms):
                sums = (sums + part[..., j, None, None] * b[..., None, j, :, :] % p) % p
        else:
            sums = np.matmul(part.astype(ftype), packed)
            sums = sums.reshape(sums.shape[:-1] + (cols, words)).astype(smallest_uint(per * bits))
        value = digit(sums, m - 1)
        for d in range(m - 2, -1, -1):
            value = value * p + digit(sums, d)
        out[..., lo:lo + step, :] = value
    return out


def vecmat(field: FiniteField, v, m) -> np.ndarray:
    return matmul(field, np.asarray(v, dtype=np.int64)[None, :], m)[0]


def in_rowspace(field: FiniteField, rref_mat: np.ndarray, pivots: list[int], v) -> bool:
    """Whether v lies in the row space of the RREF rows.

    Because rref_mat is reduced, the only candidate coefficient vector is v
    restricted to the pivot columns.
    """
    v = np.asarray(v, dtype=np.int64)
    return np.array_equal(vecmat(field, v[pivots], rref_mat[: len(pivots)]), v)


def invert(field: FiniteField, mat) -> np.ndarray:
    """Inverses of a square matrix or of a stack of them (any leading shape):
    one Gauss-Jordan elimination of [B | I], each step run on every matrix of
    the stack.  ValueError if any member is singular."""
    m = np.asarray(mat, dtype=np.int64)
    if m.ndim < 2 or m.shape[-1] != m.shape[-2]:
        raise ValueError(f"only square matrices can be inverted, got shape {m.shape}")
    shape, k = m.shape, m.shape[-1]
    s = math.prod(shape[:-2])
    eye = np.broadcast_to(np.eye(k, dtype=np.int64), (s, k, k))
    m = np.concatenate([m.reshape(s, k, k), eye], axis=2)
    at = np.arange(s)
    for c in range(k):
        nonzero = m[:, c:, c] != 0
        if not nonzero.any(axis=1).all():
            raise ValueError("matrix is singular")
        pr = c + nonzero.argmax(axis=1)
        row = m[at, pr]
        m[at, pr] = m[:, c]
        row = field.mul(row, field.inv(row[:, c])[:, None])
        m = field.sub(m, field.mul(m[:, :, c, None], row[:, None, :]))
        m[:, c] = row
    return m[:, :, k:].reshape(shape)
