"""Exact arithmetic in GF(p^n) with table-accelerated vectorized operations.

Elements are encoded as integers in [0, p^n): the element sum(c_i * a^i)
with coefficients c_i in GF(p) is encoded as sum(c_i * p^i), where a is the
class of x modulo the field's irreducible modulus.  All field operations
accept plain ints or numpy integer arrays of encodings and are exact; they
return ints for scalars and int64 arrays otherwise (add, sub, neg, mul, inv,
pow, _digits_of, and FieldEmbedding.embed and descend).

Every field has exp/log/inverse tables plus digit tables, so
``make_field`` refuses q > LOG_TABLE_MAX = 2^17: a surface over a larger
field has over 10^10 points, far past any budget.  Two regimes, chosen by
field size:
  * q <= FULL_TABLE_MAX:  full q x q mul tables, and add tables for odd p,
  * q <= LOG_TABLE_MAX:   products through the log tables, sums digit by
                          digit.
In characteristic 2, a + b = a - b = a ^ b and -a = a in every regime, with
no add or negation table.

Each table is stored in the narrowest unsigned type that holds it
(``smallest_uint``): encodings (exp, inv, neg, add, mul) in uint16 up to
q = 65536, digits in uint8 while p < 256, logs in the narrowest type that
holds q - 2 (log 0 has no value; every reader masks it).  Operations widen
what they gather to int64, and readers of the private tables widen before
any arithmetic that could pass the table's type.  Kept MiB, int64 ->
narrow: GF(7^3) 1.8 -> 0.45, GF(2^9) 4.1 -> 0.51, GF(3^6) 8.2 -> 2.0,
GF(2^10) 16.1 -> 2.0, GF(2^15) 4.8 -> 0.66, GF(47^3) 5.5 -> 1.9,
GF(7^6) 9.0 -> 2.5.

A field is built the same way every time: the modulus is the smallest monic
irreducible of degree n, ``generator`` is the smallest element of order
q - 1, and the exp table is filled by doubling (exp[m:2m] = exp[:m] * g^m,
one GF(p) matrix product per step).  ``_digits_of`` is the one base-p
expansion of encodings, and ``_prime_factors`` the one trial division.
A subfield embedding (``FieldEmbedding``) is an exponent map on the log
tables.

Fields are immutable after construction and cached, so repeated
``make_field(p, n)`` calls share tables.  Elements are plain values; every
operation is pure and safe under any amount of concurrency.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

FULL_TABLE_MAX = 1024
LOG_TABLE_MAX = 1 << 17


class NotInSubfield(ValueError):
    """Raised when descending an element that is not fixed at the target level."""


def _prime_factors(m: int) -> list[int]:
    """Distinct prime factors of m in increasing order, by trial division."""
    out = []
    f = 2
    while f * f <= m:
        if m % f == 0:
            out.append(f)
            while m % f == 0:
                m //= f
        f += 1 if f == 2 else 2
    if m > 1:
        out.append(m)
    return out


def smallest_uint(bits: int):
    """The narrowest unsigned numpy integer type of at least `bits` bits."""
    return (np.uint8, np.uint16, np.uint32, np.uint64)[max(0, (bits - 1).bit_length() - 3)]


def _int64(out):
    """An int for a 0-d result, else the array widened to int64."""
    return int(out) if out.ndim == 0 else out.astype(np.int64, copy=False)


# -- dense univariate polynomials over GF(p), used only at construction time --

def _poly_trim(a: list[int]) -> list[int]:
    while a and a[-1] == 0:
        a.pop()
    return a


def _poly_mulmod(a: list[int], b: list[int], mod: list[int], p: int) -> list[int]:
    prod = [0] * (len(a) + len(b) - 1) if a and b else []
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                prod[i + j] = (prod[i + j] + ai * bj) % p
    return _poly_modred(prod, mod, p)


def _poly_modred(a: list[int], mod: list[int], p: int) -> list[int]:
    a = list(a)
    dm = len(mod) - 1
    inv_lead = pow(mod[-1], p - 2, p)
    for i in range(len(a) - 1, dm - 1, -1):
        c = a[i]
        if c:
            f = c * inv_lead % p
            for j in range(dm + 1):
                a[i - dm + j] = (a[i - dm + j] - f * mod[j]) % p
    return _poly_trim(a[:dm])


def _poly_powmod(a: list[int], e: int, mod: list[int], p: int) -> list[int]:
    result, base = [1], _poly_modred(a, mod, p)
    while e:
        if e & 1:
            result = _poly_mulmod(result, base, mod, p)
        base = _poly_mulmod(base, base, mod, p)
        e >>= 1
    return result


def _poly_gcd(a: list[int], b: list[int], p: int) -> list[int]:
    a, b = _poly_trim(list(a)), _poly_trim(list(b))
    while b:
        inv_lead = pow(b[-1], p - 2, p)
        r = list(a)
        while len(r) >= len(b):
            f = r[-1] * inv_lead % p
            shift = len(r) - len(b)
            for j in range(len(b)):
                r[shift + j] = (r[shift + j] - f * b[j]) % p
            _poly_trim(r)
        a, b = b, r
    return a


def _is_irreducible(mod: list[int], p: int) -> bool:
    """Frobenius-power criterion: x^(p^n) = x mod f and coprimality at n/l."""
    n = len(mod) - 1
    if n < 1:
        return False
    if n == 1:
        return True

    def _frob_power(times: int) -> list[int]:
        g = [0, 1]
        for _ in range(times):
            g = _poly_powmod(g, p, mod, p)
        return g

    def _minus_x(g: list[int]) -> list[int]:
        out = list(g) + [0] * max(0, 2 - len(g))
        out[1] = (out[1] - 1) % p
        return _poly_trim(out)

    if _minus_x(_frob_power(n)) != []:
        return False
    for ell in _prime_factors(n):
        if len(_poly_gcd(_minus_x(_frob_power(n // ell)), mod, p)) > 1:
            return False
    return True


def _canonical_modulus(p: int, n: int) -> tuple[int, ...]:
    """Smallest monic irreducible of degree n, ordering degree-n polynomials
    by the integer whose base-p digits are the non-leading coefficients."""
    if n == 1:
        return (0, 1)
    for t in range(p**n):
        coeffs, e = [], t
        for _ in range(n):
            coeffs.append(e % p)
            e //= p
        mod = coeffs + [1]
        if _is_irreducible(mod, p):
            return tuple(mod)
    raise AssertionError("no irreducible polynomial found (unreachable)")


class FiniteField:
    """GF(p^n) over the prime field, with encoded-integer element arithmetic."""

    def __init__(self, p: int, n: int, modulus: tuple[int, ...] | None = None):
        if n < 1:
            raise ValueError(f"extension degree must be >= 1, got {n}")
        # before the trial division, which a huge p would keep busy for
        # minutes; any p >= 2 passes the cap by its 18th power, so a huge n
        # costs nothing
        if p > 1 and p ** min(n, LOG_TABLE_MAX.bit_length()) > LOG_TABLE_MAX:
            name = f"GF({p}^{n})" if n > 1 else f"GF({p})"
            raise ValueError(f"{name} has more than LOG_TABLE_MAX = {LOG_TABLE_MAX} elements, "
                             "the largest field with log tables")
        if _prime_factors(p) != [p]:
            raise ValueError(f"characteristic {p} is not prime")
        if modulus is None:
            modulus = _canonical_modulus(p, n)
        else:
            modulus = tuple(int(c) % p for c in modulus)
            if len(modulus) != n + 1 or modulus[-1] != 1:
                raise ValueError("modulus must be monic of degree n")
            if not _is_irreducible(list(modulus), p):
                raise ValueError(f"modulus {modulus} is reducible over GF({p})")
        self.p = p
        self.n = n
        self.q = p**n
        self.modulus = modulus
        self._pow_p = np.array([p**i for i in range(n)], dtype=np.int64)
        self._add_table = self._mul_table = self._neg_table = None
        self.generator = self._find_primitive_scalar() if self.q > 2 else 1
        # digit i of encoding a is index n - 1 - i of a in a (p, ..., p) grid
        self._digits = np.ascontiguousarray(
            np.indices((p,) * n, dtype=smallest_uint((p - 1).bit_length())).reshape(n, -1)[::-1].T)
        self._build_log_tables()
        if self.q <= FULL_TABLE_MAX:
            self._build_full_tables()

    # -- construction helpers ------------------------------------------------

    def _digits_of(self, a):
        """Base-p digit rows for encodings."""
        return self._digits[np.asarray(a, dtype=np.int64)].astype(np.int64)

    def _recompose(self, digits: np.ndarray) -> np.ndarray:
        return digits @ self._pow_p

    def _mul_scalar_raw(self, a: int, b: int) -> int:
        da = [(a // self.p**i) % self.p for i in range(self.n)]
        db = [(b // self.p**i) % self.p for i in range(self.n)]
        prod = _poly_mulmod(_poly_trim(da), _poly_trim(db), list(self.modulus), self.p)
        return sum(c * self.p**i for i, c in enumerate(prod))

    def _pow_scalar_raw(self, a: int, e: int) -> int:
        result, base = 1, a
        while e:
            if e & 1:
                result = self._mul_scalar_raw(result, base)
            base = self._mul_scalar_raw(base, base)
            e >>= 1
        return result

    def _find_primitive_scalar(self) -> int:
        targets = [(self.q - 1) // ell for ell in _prime_factors(self.q - 1)]
        for g in range(2, self.q):
            if all(self._pow_scalar_raw(g, t) != 1 for t in targets):
                return g
        raise AssertionError("no primitive element (unreachable)")

    def _build_log_tables(self) -> None:
        q, p = self.q, self.p
        # fill by doubling: exp[m:2m] = exp[:m] * g^m, one GF(p) product per
        # step, in a dtype that holds a digit's sum of n products below p^2
        exp = np.empty(q - 1, dtype=smallest_uint((q - 1).bit_length()))
        exp[0] = 1
        dot = smallest_uint((self.n * (p - 1) ** 2).bit_length())
        m, g_m = 1, self.generator
        while m < q - 1:
            take = min(m, q - 1 - m)
            prod = self._digits[exp[:take]].astype(dot) @ self._mul_by_matrix(g_m).T.astype(dot) % p
            exp[m : m + take] = np.einsum("ij,j", prod, self._pow_p, dtype=exp.dtype, casting="unsafe")
            m, g_m = 2 * m, self._mul_scalar_raw(g_m, g_m)
        self._exp = exp
        log = np.zeros(q, dtype=smallest_uint((q - 2).bit_length()))  # log 0 has no value
        log[exp] = np.arange(q - 1, dtype=log.dtype)
        if np.count_nonzero(log[2:]) != q - 2:
            raise AssertionError("exp table is not a bijection (unreachable)")
        self._log = log
        self._inv = np.zeros(q, dtype=exp.dtype)
        self._inv[exp] = np.roll(exp[::-1], 1)  # (g^i)^-1 = g^-i
        if p > 2:  # -a = g^((q - 1) / 2) a; characteristic 2 negates nothing
            self._neg_table = np.zeros(q, dtype=exp.dtype)
            self._neg_table[exp] = np.roll(exp, -((q - 1) // 2))

    def _mul_by_matrix(self, e: int) -> np.ndarray:
        """n x n GF(p) matrix of multiplication by the element encoded e."""
        cols = [e]
        for _ in range(self.n - 1):
            cols.append(self._mul_scalar_raw(cols[-1], self.p))  # times x
        return self._digits_of(cols).T

    def _build_full_tables(self) -> None:
        q, p, exp = self.q, self.p, self._exp
        # g^s g^t = exp[s + t] in exp written twice: the windows of that are
        # the products in log order, scattered to their encodings
        self._mul_table = np.zeros((q, q), dtype=exp.dtype)
        self._mul_table[np.ix_(exp, exp)] = sliding_window_view(np.concatenate([exp, exp]), q - 1)[:-1]
        if p > 2:  # characteristic 2 adds by XOR
            # digit by digit: a digit sum (below 2p) and its reduced value
            # times p^i (below q) fit uint16
            self._add_table = np.zeros((q, q), dtype=exp.dtype)
            for dig, power in zip(self._digits.T.astype(np.uint16), self._pow_p.tolist()):
                place = np.add.outer(dig, dig)
                place[place >= p] -= p
                place *= power
                self._add_table += place

    # -- arithmetic on encodings (ints or numpy arrays) ----------------------
    # Tables are narrow; every operation widens what it gathers to int64.

    def add(self, a, b):
        if self.p == 2:  # digit sums mod 2, in every regime
            if isinstance(a, (int, np.integer)) and isinstance(b, (int, np.integer)):
                return int(a) ^ int(b)
            return np.bitwise_xor(a, b, dtype=np.int64)
        if self._add_table is not None:
            return _int64(self._add_table[a, b])
        return _int64(self._recompose((self._digits_of(a) + self._digits_of(b)) % self.p))

    def neg(self, a):
        if self.p == 2:
            return _int64(np.array(a))
        return _int64(self._neg_table[a])

    def sub(self, a, b):
        if self.p == 2:  # -b = b: the XOR itself, no copy of b
            return self.add(a, b)
        return self.add(a, self.neg(b))

    def mul(self, a, b):
        if self._mul_table is not None:
            return _int64(self._mul_table[a, b])
        a, b = np.asarray(a, dtype=np.int64), np.asarray(b, dtype=np.int64)
        out = self._exp[np.add(self._log[a], self._log[b], dtype=np.int64) % (self.q - 1)]
        return _int64(np.where((a == 0) | (b == 0), 0, out))

    def inv(self, a):
        if np.any(np.asarray(a) == 0):
            raise ZeroDivisionError("inverse of 0 in GF")
        return _int64(self._inv[a])

    def div(self, a, b):
        return self.mul(a, self.inv(b))

    def pow(self, a, e: int):
        """a**e with 0**0 = 1; e must be a nonnegative integer."""
        if e < 0:
            raise ValueError("negative exponent; use inv() first")
        if isinstance(a, (int, np.integer)):
            if e == 0:
                return 1
            return 0 if a == 0 else int(self._exp[(int(self._log[a]) * e) % (self.q - 1)])
        a = np.asarray(a, dtype=np.int64)
        if e == 0:
            return np.ones_like(a)
        # e > 0 here; reduced first so the int64 product cannot overflow
        out = self._exp[np.multiply(self._log[a], e % (self.q - 1), dtype=np.int64) % (self.q - 1)]
        return np.where(a == 0, 0, out.astype(np.int64))

    def frobenius(self, a, base_power: int = 1):
        """The p^base_power-power map; an automorphism fixing GF(p^base_power)."""
        return self.pow(a, self.p**base_power)

    def __repr__(self):
        return f"GF({self.p}^{self.n})" if self.n > 1 else f"GF({self.p})"

    def __reduce__(self):
        return (make_field, (self.p, self.n, self.modulus))


def _encodings(fld: FiniteField, a):
    """a itself, unless it is not an integer in [0, q) or an integer array of
    them: the digit table would wrap a negative entry and miss a large one."""
    arr = np.asarray(a)
    if not np.issubdtype(arr.dtype, np.integer) or np.any(arr < 0) or np.any(arr >= fld.q):
        raise ValueError(f"{a!r} is not an encoding of {fld} or an array of them")
    return a


class FieldEmbedding:
    """Ring embedding GF(p^a) -> GF(p^b) for a | b, as an exponent map.

    The nonzero source elements land in the index-m subgroup of the target's
    nonzero elements, m = (q_b - 1) / (q_a - 1), so every root of the source
    modulus is 0 or some exp[m*i].  The source's polynomial generator goes to
    the smallest such root (by encoding), so the same pair of fields always
    yields the same embedding; with L the log of the source generator's
    image, g_a^i goes to g_b^(i*L), and descent inverts that map.
    """

    def __init__(self, source: FiniteField, target: FiniteField):
        if source.p != target.p:
            raise ValueError("embeddings require equal characteristic")
        if target.n % source.n != 0:
            raise ValueError(
                f"target degree {target.n} is not a multiple of source degree {source.n}"
            )
        self.source = source
        self.target = target
        self._m = (target.q - 1) // (source.q - 1)
        candidates = np.concatenate([[0], target._exp[:: self._m]])
        vals = np.full(len(candidates), source.modulus[-1], dtype=np.int64)
        for c in reversed(source.modulus[:-1]):
            vals = target.add(target.mul(vals, candidates), c)
        self.gen_image = int(candidates[vals == 0].min())
        image = 0  # Horner on the source generator's digits at gen_image
        for d in reversed(source._digits_of(source.generator).tolist()):
            image = target.add(target.mul(image, self.gen_image), d)
        self._log_image = int(target._log[image])  # L = m*u, u a unit mod q_a - 1
        self._log_unit_inv = pow(self._log_image // self._m, -1, source.q - 1)

    def embed(self, a):
        """Image in the target field of an encoding or an array of them;
        ValueError for anything else."""
        a = np.asarray(_encodings(self.source, a), dtype=np.int64)
        logs = np.multiply(self.source._log[a], self._log_image, dtype=np.int64) % (self.target.q - 1)
        out = np.where(a == 0, 0, self.target._exp[logs])
        return _int64(out)

    def descend(self, a):
        """Unique source preimage, or raise NotInSubfield; ValueError for
        anything that is not an encoding of the target or an array of them."""
        a = np.asarray(_encodings(self.target, a), dtype=np.int64)
        logs = self.target._log[a].astype(np.int64)
        if np.any((a != 0) & (logs % self._m != 0)):
            raise NotInSubfield(f"element {a} of {self.target} has no preimage in {self.source}")
        logs = logs // self._m * self._log_unit_inv % (self.source.q - 1)
        out = np.where(a == 0, 0, self.source._exp[logs])
        return _int64(out)

    def contains(self, a) -> bool:
        try:
            self.descend(a)
            return True
        except NotInSubfield:
            return False

    def __repr__(self):
        return f"FieldEmbedding({self.source} -> {self.target})"


_FIELD_CACHE: dict[tuple, FiniteField] = {}
_EMBED_CACHE: dict[tuple, FieldEmbedding] = {}


def make_field(p: int, n: int = 1, modulus=None) -> FiniteField:
    """Construct (or fetch the cached) GF(p^n); ValueError beyond
    LOG_TABLE_MAX elements.

    Without an explicit modulus the canonical irreducible is used, so two
    calls always produce identical arithmetic tables.
    """
    key = (p, n, tuple(modulus) if modulus is not None else None)
    if key not in _FIELD_CACHE:
        fld = FiniteField(p, n, modulus)
        _FIELD_CACHE[key] = _FIELD_CACHE.setdefault((p, n, fld.modulus), fld)
    return _FIELD_CACHE[key]


def get_embedding(source: FiniteField, target: FiniteField) -> FieldEmbedding:
    key = (id(source), id(target))
    if key not in _EMBED_CACHE:
        _EMBED_CACHE[key] = FieldEmbedding(source, target)
    return _EMBED_CACHE[key]


def parse_field_spec(spec: str) -> FiniteField:
    """Parse "p", "p^n", or "p^n/c0,c1,...,cn" (modulus coefficients, constant
    term first) into a field."""
    spec = spec.strip()
    modulus = None
    if "/" in spec:
        spec, mod_part = spec.split("/", 1)
        modulus = [int(c) for c in mod_part.split(",")]
    if "^" in spec:
        p_s, n_s = spec.split("^", 1)
        p, n = int(p_s), int(n_s)
    else:
        p, n = int(spec), 1
    return make_field(p, n, modulus)


def field_spec_string(field: FiniteField) -> str:
    return f"{field.p}^{field.n}" if field.n > 1 else str(field.p)


# int64 values (2 MiB) held by one chunk of a geometric scan; each site
# divides it by what it holds per item, reading gf.CHUNK_ELEMS at call time
CHUNK_ELEMS = 1 << 18


def batched(total: int, batch: int):
    """Yield (start, stop) covering range(total) in deterministic order."""
    for start in range(0, total, batch):
        yield start, min(start + batch, total)
