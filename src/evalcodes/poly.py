"""Sparse homogeneous multivariate polynomials over a finite field.

Terms map exponent tuples to nonzero coefficient encodings; homogeneity is
enforced at construction.  The canonical term order everywhere (printing,
file output, division, monomial bases) is descending lexicographic on the
exponent tuple, so x0^s comes first in a degree-s basis.

At points, a polynomial is its monomial values times its coefficients, one
gflinalg.matmul per chunk of gf.CHUNK_ELEMS // (4 terms) points.  Whole affine
grids take nested Horner instead, in chart chunks of gf.CHUNK_ELEMS // 16
points: monomial values at the chart coordinates measured 4-10x slower
(11.8 -> 118.8 ms on the fibered GF(7^3) forms, 114 -> 433 ms on a quartic
over GF(11^2)).
"""

from __future__ import annotations

import numpy as np

from .gf import FiniteField, FieldEmbedding, batched
from . import gf, gflinalg


def monomials(nvars: int, degree: int) -> list[tuple[int, ...]]:
    """All exponent tuples of the given total degree, descending lex."""
    if nvars == 1:
        return [(degree,)]
    out = []
    for e0 in range(degree, -1, -1):
        out.extend((e0,) + rest for rest in monomials(nvars - 1, degree - e0))
    return out


class HomogPoly:
    """A homogeneous polynomial; immutable by convention."""

    __slots__ = ("field", "nvars", "degree", "terms")

    def __init__(self, field: FiniteField, nvars: int, degree: int, terms):
        self.field = field
        self.nvars = nvars
        self.degree = degree
        clean: dict[tuple[int, ...], int] = {}
        for exps, coeff in dict(terms).items():
            exps = tuple(int(e) for e in exps)
            coeff = int(coeff)
            if coeff == 0:
                continue
            if not 0 < coeff < field.q:
                raise ValueError(f"coefficient {coeff} is not an encoding of {field}")
            if len(exps) != nvars or any(e < 0 for e in exps):
                raise ValueError(f"bad exponent vector {exps} for {nvars} variables")
            if sum(exps) != degree:
                raise ValueError(f"term {exps} breaks homogeneity of degree {degree}")
            clean[exps] = coeff
        self.terms = clean

    # -- constructors ---------------------------------------------------------

    @classmethod
    def zero(cls, field, nvars, degree) -> "HomogPoly":
        return cls(field, nvars, degree, {})

    @classmethod
    def from_int_terms(cls, field, nvars, degree, int_terms) -> "HomogPoly":
        """Terms with plain-integer coefficients, reduced into the prime field."""
        return cls(
            field, nvars, degree,
            {exps: c % field.p for exps, c in int_terms.items()},
        )

    @classmethod
    def variable(cls, field, nvars, i) -> "HomogPoly":
        exps = tuple(1 if j == i else 0 for j in range(nvars))
        return cls(field, nvars, 1, {exps: 1})

    @classmethod
    def linear(cls, field, coeffs) -> "HomogPoly":
        coeffs = list(coeffs)
        return cls(
            field, len(coeffs), 1,
            {tuple(1 if j == i else 0 for j in range(len(coeffs))): c
             for i, c in enumerate(coeffs)},
        )

    # -- queries ----------------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def pad_vars(self, new_nvars: int) -> "HomogPoly":
        """The same polynomial viewed in a ring with extra trailing variables."""
        if new_nvars < self.nvars:
            raise ValueError("cannot drop variables")
        pad = (0,) * (new_nvars - self.nvars)
        return HomogPoly(self.field, new_nvars, self.degree,
                         {exps + pad: c for exps, c in self.terms.items()})

    def sorted_terms(self) -> list[tuple[tuple[int, ...], int]]:
        return sorted(self.terms.items(), key=lambda t: t[0], reverse=True)

    def coeff_vector(self, basis: list[tuple[int, ...]]) -> np.ndarray:
        return np.array([self.terms.get(exps, 0) for exps in basis], dtype=np.int64)

    @classmethod
    def from_coeff_vector(cls, field, nvars, degree, basis, row) -> "HomogPoly":
        return cls(field, nvars, degree, zip(basis, row))

    def __eq__(self, other):
        return (
            isinstance(other, HomogPoly)
            and self.field is other.field
            and self.nvars == other.nvars
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((id(self.field), self.nvars, tuple(self.sorted_terms())))

    def __repr__(self):
        if not self.terms:
            return "0"
        names = "xyzwvuts" if self.nvars <= 8 else None
        bits = []
        for exps, c in self.sorted_terms():
            mono = "*".join(
                (names[i] if names else f"x{i}") + (f"^{e}" if e > 1 else "")
                for i, e in enumerate(exps) if e
            )
            bits.append(f"{c}" + (f"*{mono}" if mono else ""))
        return " + ".join(bits)

    # -- arithmetic ---------------------------------------------------------------

    def _compat(self, other: "HomogPoly"):
        if self.field is not other.field or self.nvars != other.nvars:
            raise ValueError("polynomials live in different rings")

    def __add__(self, other: "HomogPoly") -> "HomogPoly":
        self._compat(other)
        if self.is_zero():
            return other
        if other.is_zero():
            return self
        if self.degree != other.degree:
            raise ValueError("sum of homogeneous parts of different degrees")
        f = self.field
        terms = dict(self.terms)
        for exps, c in other.terms.items():
            terms[exps] = f.add(terms.get(exps, 0), c)
        return HomogPoly(f, self.nvars, self.degree, terms)

    def __sub__(self, other: "HomogPoly") -> "HomogPoly":
        return self + other.scale(self.field.neg(1))

    def scale(self, c: int) -> "HomogPoly":
        f = self.field
        if c == 0:
            return HomogPoly.zero(f, self.nvars, self.degree)
        return HomogPoly(f, self.nvars, self.degree,
                         {e: f.mul(v, c) for e, v in self.terms.items()})

    def __mul__(self, other: "HomogPoly") -> "HomogPoly":
        self._compat(other)
        f = self.field
        terms: dict[tuple[int, ...], int] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                terms[e] = f.add(terms.get(e, 0), f.mul(c1, c2))
        return HomogPoly(f, self.nvars, self.degree + other.degree, terms)

    def partial_derivative(self, i: int) -> "HomogPoly":
        """Formal derivative; exponents act through the prime field, so p-th
        powers differentiate to zero."""
        if not 0 <= i < self.nvars:
            raise ValueError(f"variable index {i} out of range")
        f = self.field
        terms: dict[tuple[int, ...], int] = {}
        for exps, c in self.terms.items():
            if exps[i] == 0:
                continue
            factor = exps[i] % f.p
            if factor == 0:
                continue
            e = list(exps)
            e[i] -= 1
            terms[tuple(e)] = f.add(terms.get(tuple(e), 0), f.mul(c, factor))
        return HomogPoly(f, self.nvars, max(self.degree - 1, 0), terms)

    def map_coefficients(self, fn, new_field: FiniteField | None = None) -> "HomogPoly":
        fld = new_field or self.field
        return HomogPoly(fld, self.nvars, self.degree,
                         {e: fn(c) for e, c in self.terms.items()})

    def frobenius_coeffs(self, base_power: int = 1) -> "HomogPoly":
        """Apply a ↦ a^(p^base_power) to every coefficient."""
        f = self.field
        return self.map_coefficients(lambda c: f.frobenius(c, base_power))

    def embed_coeffs(self, emb: FieldEmbedding) -> "HomogPoly":
        return self.map_coefficients(emb.embed, emb.target)

    def descend_coeffs(self, emb: FieldEmbedding) -> "HomogPoly":
        """Pull every coefficient back along emb; raises NotInSubfield."""
        return self.map_coefficients(emb.descend, emb.source)

    # -- evaluation -----------------------------------------------------------------

    def eval_at(self, coords) -> int:
        """Value at one coordinate tuple of encodings."""
        return int(self.eval_points(np.array([coords], dtype=np.int64))[0])

    def eval_points(self, points: np.ndarray) -> np.ndarray:
        """Vectorized values at an (N, nvars) array of coordinate encodings."""
        pts = np.asarray(points, dtype=np.int64)
        if pts.ndim != 2 or pts.shape[1] != self.nvars:
            raise ValueError(f"points of {self.nvars} coordinates expected, not {pts.shape}")
        exps = np.array(list(self.terms), dtype=np.int64).reshape(-1, self.nvars)
        coeffs = np.array(list(self.terms.values()), dtype=np.int64)[:, None]
        out = np.empty(len(pts), dtype=np.int64)
        # a point holds about four int64 values per term: log sums, their
        # reduction, the values and the product's float copy
        for lo, hi in batched(len(pts), max(1, gf.CHUNK_ELEMS // (4 * max(1, len(exps))))):
            vals = monomial_values(self.field, pts[lo:hi], exps)
            out[lo:hi] = gflinalg.matmul(self.field, vals, coeffs)[:, 0]
        return out


def monomial_values(fld: FiniteField, points, exps) -> np.ndarray:
    """Values [point, monomial] of the monomials with exponent rows exps at
    an (N, nvars) array of encodings, with 0^0 = 1.  With log tables, one
    product of the logs (exponents e > 0 cut to (e - 1) mod (q - 1) + 1,
    the same x^e) with the exponent rows gives each monomial's log; a 0 has
    log `zero`, above any sum of other logs.  Without, each variable's power
    is computed once per distinct exponent."""
    pts, exps, q = np.asarray(points, dtype=np.int64), np.asarray(exps, dtype=np.int64), fld.q
    if fld._log is not None:
        e = np.where(exps > 0, (exps - 1) % (q - 1) + 1, 0).T
        degree = int(e.sum(axis=0).max(initial=0))
        zero = degree * (q - 2) + 1
        if degree * zero >= 1 << 63:
            raise ValueError("monomial logs would overflow int64")
        sums = np.where(pts == 0, zero, fld._log[pts].astype(np.int64)) @ e
        # floor division vectorizes, % does not
        vals = fld._exp[sums - sums // (q - 1) * (q - 1)].astype(np.int64)
        vals[sums >= zero] = 0
        return vals
    vals = np.ones((len(exps), len(pts)), dtype=np.int64)
    for col, powers in zip(pts.T, exps.T, strict=True):
        for e in np.unique(powers).tolist():
            vals[powers == e] = fld.mul(vals[powers == e], fld.pow(col, e))
    return vals.T


# -- fast evaluation over full affine grids ------------------------------------

def chart_chunk() -> int:
    """Points in one chunk of a chart scan: gf.CHUNK_ELEMS over the 16 int64
    values a point may hold across its forms' Horner temporaries and the
    scan's index arrays."""
    return gf.CHUNK_ELEMS // 16


def dehomogenize(poly: HomogPoly, chart: int) -> np.ndarray:
    """Coefficient tensor of poly with x_chart = 1 and x_j = 0 for j > chart
    (chart >= 1), one axis of length degree+1 per x_0..x_{chart-1}."""
    tensor = np.zeros((poly.degree + 1,) * chart, dtype=np.int64)
    for exps, c in poly.terms.items():
        if not any(exps[chart + 1 :]):
            tensor[exps[:chart]] = c
    return tensor


def _eval_tensor_full(field: FiniteField, tensor: np.ndarray) -> np.ndarray:
    """Evaluate a coefficient tensor on the full grid F^t by nested Horner."""
    if tensor.ndim == 0:
        return tensor
    q = field.q
    sub = [np.asarray(_eval_tensor_full(field, tensor[j])) for j in range(tensor.shape[0])]
    return _horner_outer(field, sub, np.arange(q, dtype=np.int64), tensor.ndim - 1)


def _horner_outer(field: FiniteField, sub: list[np.ndarray], x: np.ndarray, inner_rank: int):
    """Horner over the outermost variable: sum_j sub[j] * x^j, broadcasting
    x along a fresh leading axis of length len(x)."""
    xb = x.reshape((len(x),) + (1,) * inner_rank)
    full = (len(x),) + (field.q,) * inner_rank
    if len(sub) == 1:
        return np.broadcast_to(sub[0], full)
    acc = sub[-1]
    for j in range(len(sub) - 2, -1, -1):
        acc = field.add(field.mul(acc, xb), sub[j])
    return np.broadcast_to(acc, full)


def eval_affine_grid_chunks(field: FiniteField, tensors: list[np.ndarray]):
    """Yield (x0_values, [value_arrays]) evaluating each tensor over F^t.

    All tensors must share a rank t >= 1.  The outermost variable is chunked
    so a chunk holds about chart_chunk() points, and at least one x0 row;
    each chunk's value arrays have shape (len(x0_values),) + (q,)*(t-1) and
    may be read-only views.
    """
    t = tensors[0].ndim
    if any(tt.ndim != t for tt in tensors):
        raise ValueError("tensors must share a rank")
    q = field.q
    block = max(1, chart_chunk() // q ** (t - 1))
    subevals = [
        [np.asarray(_eval_tensor_full(field, tensor[j])) for j in range(tensor.shape[0])]
        for tensor in tensors
    ]
    for start in range(0, q, block):
        x = np.arange(start, min(start + block, q), dtype=np.int64)
        yield x, [_horner_outer(field, subs, x, t - 1) for subs in subevals]
