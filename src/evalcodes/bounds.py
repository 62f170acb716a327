"""Closed-form bounds and point-count predictions used as oracles and
live diagnostics.

Every bound whose hypotheses cannot be machine-verified ("the hyperplane
class generates the Neron-Severi group", "q sufficiently large") is returned
with its assumption strings attached instead of as a bare number.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import gf
from .gf import _prime_factors, batched, make_field


def floor_2sqrt(q: int) -> int:
    return math.isqrt(4 * q)


def hws_bound(q: int, g: int) -> int:
    """Upper point count 1 + q + g*floor(2*sqrt(q)) for a genus-g curve."""
    if g < 0:
        raise ValueError("genus must be nonnegative")
    return 1 + q + g * floor_2sqrt(q)


def sectional_genus_hypersurface(m: int) -> int:
    """Arithmetic genus (m-1)(m-2)/2 of a plane section of a degree-m
    hypersurface in P^3."""
    if m < 1:
        raise ValueError("degree must be positive")
    return (m - 1) * (m - 2) // 2


@dataclass(frozen=True)
class BoundValue:
    """A numeric bound plus the unverifiable hypotheses it rides on."""

    value: int
    assumptions: tuple[str, ...] = ()

    def to_json(self):
        return {"value": self.value, "assumptions": list(self.assumptions)}


NS_ASSUMPTION = "hyperplane section class generates NS(X) over F_q"
LARGE_Q_ASSUMPTION = "q sufficiently large (threshold surface-dependent, not certified)"


def d1_bound(q: int, pi: int, n: int) -> BoundValue:
    """Lower bound n - (1 + q + pi*floor(2*sqrt(q))) on the minimum distance
    of the degree-1 code, conditional on the NS-generation hypothesis."""
    return BoundValue(n - hws_bound(q, pi), (NS_ASSUMPTION,))


def ds_bound(s: int, n: int, d1: int, d1_is_lower_bound: bool = False) -> BoundValue:
    """n - d_s <= s*(n - d_1), i.e. d_s >= n - s*(n - d1)."""
    assumptions = [NS_ASSUMPTION, LARGE_Q_ASSUMPTION]
    if d1_is_lower_bound:
        assumptions.append("d1 supplied as a lower bound; output weakened accordingly")
    return BoundValue(n - s * (n - d1), tuple(assumptions))


def ns_alarm(observed_n_minus_d1: int, q: int, pi: int) -> bool:
    """True when n - d_1 exceeds the genus bound: some hyperplane section is
    reducible and the hyperplane class cannot generate NS(X)."""
    return observed_n_minus_d1 > hws_bound(q, pi)


# -- cubic surface classes and their point-count predictions --------------------

@dataclass(frozen=True)
class CubicClass:
    """A Picard-rank-one cubic class, encoded by the multiset of cyclotomic
    orders of the six nontrivial reciprocal zeta roots (order, multiplicity)."""

    tag: str
    root_orders: tuple[tuple[int, int], ...]

    def __post_init__(self):
        total = sum(m * _euler_phi(d) for d, m in self.root_orders)
        if total != 6:
            raise ValueError(f"{self.tag}: root orders account for {total} != 6 roots")


def _euler_phi(d: int) -> int:
    out = d
    for f in _prime_factors(d):
        out -= out // f
    return out


def _moebius(d: int) -> int:
    factors = _prime_factors(d)
    return (-1) ** len(factors) if math.prod(factors) == d else 0


def ramanujan_sum(d: int, r: int) -> int:
    """Sum of r-th powers of the primitive d-th roots of unity (exact)."""
    g = math.gcd(d, r)
    k = d // g
    return _moebius(k) * _euler_phi(d) // _euler_phi(k)


CUBIC_CLASSES: dict[str, CubicClass] = {
    "C10": CubicClass("C10", ((2, 2), (3, 1), (6, 1))),
    "C11": CubicClass("C11", ((3, 3),)),
    "C12": CubicClass("C12", ((3, 1), (6, 2))),
    "C13": CubicClass("C13", ((3, 1), (12, 1))),
    "C14": CubicClass("C14", ((9, 1),)),
}


def predicted_Nr(cls: CubicClass | str, q: int, r: int) -> int:
    """Predicted |X(F_{q^r})| for a cubic of the given class:
    1 + q^2r + q^r * (1 + sum of the zeta-root power traces)."""
    if isinstance(cls, str):
        cls = CUBIC_CLASSES[cls]
    trace = sum(m * ramanujan_sum(d, r) for d, m in cls.root_orders)
    return 1 + q ** (2 * r) + q**r * (1 + trace)


def delpezzo6_Nr(q: int, r: int) -> int:
    """Point count of the degree-6 Del Pezzo built on a cubic Frobenius orbit:
    the three exceptional lines only contribute when 3 | r."""
    extra = 4 if r % 3 == 0 else 1
    return 1 + q ** (2 * r) + extra * q**r


# -- optimal genus-1 plane cubics ------------------------------------------------

_OPTIMAL_G1_CACHE: dict[int, int] = {}
OPTIMAL_G1_TABLE_MAX = 16


@dataclass(frozen=True)
class OptimalG1:
    value: int
    certified: bool  # True when produced by the exhaustive oracle


def optimal_g1_count(q: int) -> OptimalG1:
    """Maximum number of F_q-points on an irreducible plane cubic.

    Inside the table range this is computed by exhausting Weierstrass models
    (every smooth plane cubic has the point count of its Jacobian, and
    singular irreducible cubics top out at q + 2, which the oracle checks it
    beats).  Beyond the range it degrades to the genus-1 Hasse-Weil-Serre
    bound, flagged uncertified.
    """
    p, n = _prime_power(q)
    if q > OPTIMAL_G1_TABLE_MAX:
        return OptimalG1(hws_bound(q, 1), certified=False)
    if q not in _OPTIMAL_G1_CACHE:
        best = _max_weierstrass_count(p, n)
        if best < q + 2:
            raise AssertionError(
                f"smooth maximum {best} below singular count {q + 2} at q={q}"
            )
        _OPTIMAL_G1_CACHE[q] = best
    return OptimalG1(_OPTIMAL_G1_CACHE[q], certified=True)


def _prime_power(q: int) -> tuple[int, int]:
    factors = _prime_factors(q)
    if len(factors) != 1:
        raise ValueError(f"{q} is not a prime power")
    p, n = factors[0], 1
    while p**n < q:
        n += 1
    return p, n


def _max_weierstrass_count(p: int, n: int) -> int:
    fld = make_field(p, n)
    q = fld.q
    if p >= 5:
        # short form y^2 = x^3 + ax + b covers every curve
        a = np.repeat(np.arange(q, dtype=np.int64), q)
        b = np.tile(np.arange(q, dtype=np.int64), q)
        disc = fld.add(
            fld.mul(4 % p, fld.pow(a, 3)), fld.mul(27 % p, fld.pow(b, 2))
        )
        keep = disc != 0
        a, b = a[keep], b[keep]
        x = np.arange(q, dtype=np.int64)
        sq_count = np.bincount(fld.pow(x, 2), minlength=q)  # #y with y^2 = v
        rhs = fld.add(fld.add(fld.pow(x, 3)[None, :], fld.mul(a[:, None], x[None, :])), b[:, None])
        counts = sq_count[rhs].sum(axis=1) + 1
        return int(counts.max())
    # char 2/3: full Weierstrass y^2 + a1 xy + a3 y = x^3 + a2 x^2 + a4 x + a6
    best = 0
    x = np.arange(q, dtype=np.int64)[None, :, None]
    y = np.arange(q, dtype=np.int64)[None, None, :]
    for lo, hi in batched(q**5, max(1, gf.CHUNK_ELEMS // (q * q))):  # each tuple holds a q x q grid
        idx = np.arange(lo, hi, dtype=np.int64)
        a1, a2, a3, a4, a6 = [idx // q**i % q for i in range(5)]
        keep = _weierstrass_disc(fld, a1, a2, a3, a4, a6) != 0
        if not keep.any():
            continue
        a1, a2, a3, a4, a6 = a1[keep], a2[keep], a3[keep], a4[keep], a6[keep]
        c = lambda v: v[:, None, None]
        lhs = fld.add(fld.pow(y, 2), fld.add(fld.mul(fld.mul(c(a1), x), y), fld.mul(c(a3), y)))
        rhs = fld.add(
            fld.pow(x, 3),
            fld.add(fld.mul(c(a2), fld.pow(x, 2)), fld.add(fld.mul(c(a4), x), c(a6))),
        )
        counts = (lhs == rhs).sum(axis=(1, 2)) + 1
        best = max(best, int(counts.max()))
    return best


def _weierstrass_disc(fld, a1, a2, a3, a4, a6):
    p = fld.p
    mul, add = fld.mul, fld.add

    def ci(k):  # small integer constant inside the field
        return k % p

    b2 = add(fld.pow(a1, 2), mul(ci(4), a2))
    b4 = add(mul(ci(2), a4), mul(a1, a3))
    b6 = add(fld.pow(a3, 2), mul(ci(4), a6))
    b8 = add(
        add(mul(fld.pow(a1, 2), a6), mul(ci(4), mul(a2, a6))),
        add(
            fld.neg(mul(a1, mul(a3, a4))),
            add(mul(a2, fld.pow(a3, 2)), fld.neg(fld.pow(a4, 2))),
        ),
    )
    return add(
        add(fld.neg(mul(fld.pow(b2, 2), b8)), fld.neg(mul(ci(8), fld.pow(b4, 3)))),
        add(fld.neg(mul(ci(27), fld.pow(b6, 2))), mul(ci(9), mul(b2, mul(b4, b6)))),
    )


# -- per-code bound reports -------------------------------------------------------

@dataclass
class BoundReport:
    """Everything needed to audit a code against the genus/NS bounds."""

    q: int
    sectional_genus: int | None
    n: int
    hws_section_bound: int | None
    d1_bound: BoundValue | None
    ds_bounds: dict[int, BoundValue] = field(default_factory=dict)
    observed: dict[int, int] = field(default_factory=dict)  # s -> observed n - d_s
    verdicts: dict[int, bool] = field(default_factory=dict)
    ns_alarm: bool | None = None

    def to_json(self):
        return {
            "q": self.q,
            "sectional_genus": self.sectional_genus,
            "n": self.n,
            "hws_section_bound": self.hws_section_bound,
            "d1_bound": self.d1_bound.to_json() if self.d1_bound else None,
            "ds_bounds": {str(s): b.to_json() for s, b in self.ds_bounds.items()},
            "observed_n_minus_d": {str(s): v for s, v in self.observed.items()},
            "verdicts": {str(s): v for s, v in self.verdicts.items()},
            "ns_alarm": self.ns_alarm,
        }


def build_bound_report(
    q: int,
    pi: int | None,
    n: int,
    observed_distances: dict[int, tuple[int, bool]],
) -> BoundReport:
    """observed_distances maps s to (d, exact_flag); non-exact entries are
    recorded but never turned into bound-violation verdicts."""
    report = BoundReport(q=q, sectional_genus=pi, n=n,
                         hws_section_bound=hws_bound(q, pi) if pi is not None else None,
                         d1_bound=d1_bound(q, pi, n) if pi is not None else None)
    d1_exact = observed_distances.get(1, (None, False))
    for s, (d, exact) in sorted(observed_distances.items()):
        report.observed[s] = n - d
        if s == 1:
            if pi is not None and exact:
                report.verdicts[1] = n - d <= report.hws_section_bound
                report.ns_alarm = ns_alarm(n - d, q, pi)
        elif d1_exact[0] is not None:
            bv = ds_bound(s, n, d1_exact[0], d1_is_lower_bound=not d1_exact[1])
            report.ds_bounds[s] = bv
            if exact and d1_exact[1]:
                report.verdicts[s] = n - d <= s * (n - d1_exact[0])
    return report
