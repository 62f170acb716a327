"""Acceptance criteria, one test per criterion, exact tolerances.

Each test prints a single PASS line on success (visible with -s or in the
captured output); a failure is an ordinary assertion failure.  Criterion 3's
long certification run is marked slow; the default variant reports the
certified interval, which is the accepted outcome at desk scale.
"""

import cmath
import math
import random

import numpy as np
import pytest

from conftest import random_invertible
from evalcodes import gflinalg
from evalcodes.bounds import (
    CUBIC_CLASSES,
    build_bound_report,
    hws_bound,
    ns_alarm,
    optimal_g1_count,
    predicted_Nr,
    ramanujan_sum,
)
from evalcodes.codes import (
    apply_projective_transform,
    build_code,
    min_distance,
    weight_enumerator,
)
from evalcodes.families import geometric_witness_dp6, van_luijk_surface
from evalcodes.gf import make_field
from evalcodes.poly import HomogPoly, monomials
from evalcodes.projective import (
    count_rational_points,
    level_scan,
    lines_on_surface,
    section_scan,
)


def _ok(criterion: str, detail: str):
    print(f"ACCEPTANCE {criterion} PASS: {detail}")


# -- criterion 1: del Pezzo-4 fixture ---------------------------------------------


def test_criterion_1_dp4(dp4):
    assert int(dp4.count_points(1)) == 57
    code = build_code(dp4, 1)
    dist = min_distance(code, "exhaustive")
    assert dist.exact
    assert (code.n, code.k, dist.d) == (57, 5, 44)
    _ok("criterion-1", "del Pezzo-4 over GF(7): 57 points, code [57,5,44] exact")


# -- criterion 2: del Pezzo-6, s = 1 ------------------------------------------------


def test_criterion_2_dp6_s1(dp6_q7, dp6_q8, dp6_q9):
    expect = {7: (57, 7, 41), 8: (73, 7, 55), 9: (91, 7, 71)}
    for surf, q in ((dp6_q7, 7), (dp6_q8, 8), (dp6_q9, 9)):
        code = build_code(surf, 1)
        dist = min_distance(code, "exhaustive")
        assert dist.exact
        assert (code.n, code.k, dist.d) == expect[q], q
    _ok("criterion-2", "del Pezzo-6 s=1: [57,7,41], [73,7,55], [91,7,71] exact")


# -- criterion 3: del Pezzo-6, s = 2 -------------------------------------------------


def test_criterion_3_dp6_s2(dp6_q7, dp6_q8, dp6_q9):
    for surf, q in ((dp6_q7, 7), (dp6_q8, 8), (dp6_q9, 9)):
        code = build_code(surf, 2)
        assert code.k == 19, q
    for surf, q in ((dp6_q7, 7), (dp6_q9, 9)):
        wit = geometric_witness_dp6(surf)
        assert int((wit != 0).sum()) == q * q - 3 * q - 1
    code7 = build_code(dp6_q7, 2)
    wit7 = geometric_witness_dp6(dp6_q7)
    dist = min_distance(code7, "information-set", budget=3_000_000,
                        upper_hint=wit7)
    assert dist.lower <= 27 <= dist.upper
    assert dist.upper == 27  # the witness pins the upper bound
    _ok("criterion-3",
        f"k=19 at q in 7,8,9; witnesses 27/53; certified interval "
        f"[{dist.lower},{dist.upper}] contains 27")


@pytest.mark.slow
def test_criterion_3_dp6_s2_slow_certification(dp6_q7):
    # 10^10-codeword budget: completes weight-6 rounds on the four
    # information sets (ranks 19, 19, 17, 2) and weight 7 on the first
    # three, but the fourth's weight 7 would bring the total to ~1.03e10,
    # so the accepted outcome is the certified interval [22, 27]
    code = build_code(dp6_q7, 2)
    wit = geometric_witness_dp6(dp6_q7)
    dist = min_distance(code, "information-set", budget=10_000_000_000,
                        upper_hint=wit)
    if dist.exact:
        assert dist.d == 27
    else:
        assert dist.lower <= 27 <= dist.upper
    _ok("criterion-3-slow", f"10^10 budget -> [{dist.lower},{dist.upper}]")


# -- criterion 4: q = 8 regression against the closed formula ------------------------


def test_criterion_4_dp6_q8_s2(dp6_q8):
    code = build_code(dp6_q8, 2)
    wit = geometric_witness_dp6(dp6_q8)
    dist = min_distance(code, "information-set", budget=3_000_000,
                        upper_hint=wit)
    assert dist.lower <= 37 <= dist.upper
    assert not (dist.exact and dist.upper == 39)
    _ok("criterion-4",
        f"q=8 s=2 interval [{dist.lower},{dist.upper}] contains 37, 39 not certified")


# -- criterion 5: the C12 pipeline ---------------------------------------------------


def test_criterion_5_c12_pipeline(c12_sample):
    cls = c12_sample.classification
    assert cls.matched == "C12"
    assert cls.observed == {r: predicted_Nr("C12", 7, r) for r in (1, 2, 3)}
    scan = section_scan(c12_sample.surface)
    assert scan.max_count == 13
    c1 = build_code(c12_sample.surface, 1)
    d1 = min_distance(c1, "exhaustive")
    assert d1.exact and (c1.n, c1.k, d1.d) == (64, 4, 51)
    c2 = build_code(c12_sample.surface, 2)
    d2 = min_distance(c2, "auto", budget=20_000_000)
    assert d2.exact and (c2.n, c2.k, d2.d) == (64, 10, 38)
    _ok("criterion-5",
        "C12 sample: N_r match, section max 13, codes [64,4,51] and [64,10,38]")


# -- criterion 6: Shioda surfaces ---------------------------------------------------


def test_criterion_6_shioda(shioda4_q11, shioda5_q9):
    c4 = build_code(shioda4_q11, 1)
    d4 = min_distance(c4, "exhaustive")
    assert d4.exact and (c4.n, c4.k, d4.d) == (144, 4, 120)
    assert len(lines_on_surface(shioda4_q11)) == 0
    c5 = build_code(shioda5_q9, 1)
    d5 = min_distance(c5, "exhaustive")
    assert d5.exact and (c5.n, c5.k, d5.d) == (91, 4, 71)
    assert len(lines_on_surface(shioda5_q9)) == 0
    _ok("criterion-6", "X4/GF(11) -> [144,4,120], X5/GF(9) -> [91,4,71], no lines")


# -- criterion 7: Weierstrass cubic and the optimal-count oracle ----------------------


def test_criterion_7_weierstrass_and_oracle(f7):
    cub = HomogPoly.from_int_terms(f7, 3, 3, {(0, 2, 1): 1, (3, 0, 0): -1, (0, 0, 3): -3})
    assert count_rational_points([cub]) == 13
    assert optimal_g1_count(7).value == 13
    for q in (2, 3, 4, 5, 7, 8, 9):
        assert optimal_g1_count(q).certified
    _ok("criterion-7", "y^2 z = x^3 + 3z^3 has 13 points; oracle table built for q <= 9")


# -- criterion 8: bound conformance ----------------------------------------------------


def test_criterion_8_bound_conformance(dp4, dp6_q7, c12_sample, shioda4_q11, shioda5_q9):
    checked = []

    def exact_d(surface, s, strategy="exhaustive", budget=20_000_000):
        code = build_code(surface, s)
        dist = min_distance(code, strategy if surface.fld.q**code.k <= 10**8 else "information-set",
                            budget=budget)
        return code, dist

    # Singleton plus the sectional-genus section bound
    for surf, s in ((dp4, 1), (dp6_q7, 1), (c12_sample.surface, 1),
                    (c12_sample.surface, 2), (shioda4_q11, 1), (shioda5_q9, 1)):
        code, dist = exact_d(surf, s)
        assert dist.exact
        assert code.k + dist.d <= code.n + 1, "Singleton"
        checked.append((surf, code, dist))
    # genus bound where the NS-generation hypothesis is plausible (not the
    # Del Pezzo-6, whose rank is 2 and whose alarm must fire)
    for surf, code, dist in checked:
        if surf.family == "del-pezzo-6":
            assert ns_alarm(code.n - dist.d, surf.fld.q, surf.sectional_genus)
            continue
        if code.s == 1:
            assert code.n - dist.d <= hws_bound(surf.fld.q, surf.sectional_genus)
            assert not ns_alarm(code.n - dist.d, surf.fld.q, surf.sectional_genus)
    # degree-2 zero-count relation: C12 equality 26 = 2*13; Del Pezzo-6
    # relation with the best-known d2
    c12_d = {c.s: d.d for s_, c, d in checked if s_ is c12_sample.surface}
    assert 64 - c12_d[2] == 2 * (64 - c12_d[1]) == 26
    dp6_d1 = next(d for s_, _, d in checked if s_ is dp6_q7)
    wit = geometric_witness_dp6(dp6_q7)
    d2_upper = int((wit != 0).sum())
    assert (57 - d2_upper) <= 2 * (57 - dp6_d1.d)
    _ok("criterion-8",
        "Singleton, the genus bound, the degree-2 relation (26 = 26), and "
        "alarm behaviour all conform")


# -- criterion 9: property suites -------------------------------------------------------


def test_criterion_9a_field_axioms():
    for (p, n) in [(2, 2), (7, 1), (2, 3), (3, 2)]:
        fld = make_field(p, n)
        q = fld.q
        v = np.arange(q, dtype=np.int64)
        a = np.repeat(np.repeat(v, q), q)
        b = np.tile(np.repeat(v, q), q)
        c = np.tile(v, q * q)
        assert np.array_equal(fld.mul(a, fld.add(b, c)),
                              fld.add(fld.mul(a, b), fld.mul(a, c)))
        assert np.array_equal(fld.add(fld.add(a, b), c), fld.add(a, fld.add(b, c)))
        assert np.array_equal(fld.mul(fld.mul(a, b), c), fld.mul(a, fld.mul(b, c)))
        nz = v[1:]
        assert np.array_equal(fld.mul(nz, fld.inv(nz)), np.ones(q - 1, dtype=np.int64))
    _ok("criterion-9a", "field axioms exhaustive on GF(4), GF(7), GF(8), GF(9)")


def test_criterion_9b_strategy_agreement():
    rng = random.Random(90210)
    fields = [make_field(2), make_field(3), make_field(2, 2), make_field(5), make_field(7)]
    done = 0
    while done < 50:
        fld = fields[done % len(fields)]
        k = rng.randrange(3, 7)
        while fld.q**k > 1_000_000:
            k -= 1
        n = rng.randrange(k + 3, 24)
        mat = np.array([[rng.randrange(fld.q) for _ in range(n)] for _ in range(k)],
                       dtype=np.int64)
        gen = gflinalg.nonzero_rows(fld, mat)
        if len(gen) < k:
            continue
        from evalcodes.codes import LinearCode

        dummy = np.zeros((n, 1), dtype=np.int64)
        code = LinearCode(fld, n, k, gen, dummy, 1)
        d_ex = min_distance(code, "exhaustive")
        d_is = min_distance(code, "information-set")
        assert d_ex.exact and d_is.exact and d_ex.d == d_is.d, (fld.q, k, n)
        done += 1
    _ok("criterion-9b", "exhaustive and information-set agree on 50 random codes")


def test_criterion_9c_ramanujan_agreement():
    for tag, cls in CUBIC_CLASSES.items():
        roots = []
        for dd, m in cls.root_orders:
            prim = [k for k in range(1, dd + 1) if math.gcd(k, dd) == 1]
            for _ in range(m):
                roots.extend(cmath.exp(2j * cmath.pi * k / dd) for k in prim)
        for r in range(1, 13):
            trace_c = sum(z**r for z in roots)
            trace_i = sum(m * ramanujan_sum(dd, r) for dd, m in cls.root_orders)
            assert abs(trace_c.real - trace_i) < 1e-6 and abs(trace_c.imag) < 1e-9
    _ok("criterion-9c", "Ramanujan sums match complex summation, all classes, r <= 12")


def test_criterion_9d_monomial_invariance(dp4):
    code = build_code(dp4, 1)
    d0 = min_distance(code, "exhaustive").d
    w0 = weight_enumerator(code).counts
    rng = random.Random(424242)
    for _ in range(10):
        a = random_invertible(code.fld, 5, rng)
        moved, wit = apply_projective_transform(code, a)
        assert wit.verify(code.fld, code.matrix, moved.matrix)
        assert min_distance(moved, "exhaustive").d == d0
        assert np.array_equal(weight_enumerator(moved).counts, w0)
    _ok("criterion-9d", "(d, weight enumerator) invariant under 10 random transforms")


# -- criterion 10: desk-scale replacements ----------------------------------------------


def test_criterion_10_desk_scale_replacements(f7, dp6_q9):
    # beyond-budget exact d is out of scope: interval reporting is the contract
    code = build_code(dp6_q9, 2)
    dist = min_distance(code, "information-set", budget=200_000)
    assert not dist.exact
    assert 1 <= dist.lower < dist.upper <= code.n
    # sample-dependent random-search distances are replaced by the invariant
    # that every sample has the right (n, k) and passes the bound suite
    rng = random.Random(101)
    basis = monomials(4, 4)
    for _ in range(5):
        h = HomogPoly(f7, 4, 4, {m: rng.randrange(7) for m in basis})
        surf = van_luijk_surface(h, f7)
        code = build_code(surf, 1)
        assert code.k == 4
        dist = min_distance(code, "exhaustive")
        # Singleton always holds; the genus-bound verdict holds whenever the
        # sample is screened smooth and the alarm is silent
        assert code.k + dist.d <= code.n + 1
        report = build_bound_report(7, 3, code.n, {1: (dist.d, True)})
        smooth = len(level_scan(surf, 1)[1]) == 0
        if smooth and not report.ns_alarm:
            assert report.verdicts[1]
    _ok("criterion-10", "interval reporting and sample-independent properties in place")
