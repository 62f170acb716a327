"""Closed-form bounds and point-count predictions against their oracles."""

import cmath
import math
import time
import tracemalloc

import pytest

from evalcodes.bounds import (
    CUBIC_CLASSES,
    _max_weierstrass_count,
    _prime_power,
    build_bound_report,
    d1_bound,
    delpezzo6_Nr,
    ds_bound,
    hws_bound,
    ns_alarm,
    optimal_g1_count,
    predicted_Nr,
    ramanujan_sum,
    sectional_genus_hypersurface,
)
from evalcodes.gf import make_field

TABLE_N1_Q7 = {"C10": 43, "C11": 36, "C12": 64, "C13": 50, "C14": 57}


def test_hws_bound_values():
    assert hws_bound(7, 1) == 13
    assert hws_bound(7, 4) == 28
    assert hws_bound(5, 0) == 6
    # monotone in the genus
    for q in (4, 7, 9, 11):
        vals = [hws_bound(q, g) for g in range(8)]
        assert vals == sorted(vals)


def test_d1_bound_values():
    assert d1_bound(7, 1, 64).value == 51
    assert d1_bound(7, 1, 57).value == 44
    assert d1_bound(11, 3, 144).value == 114
    assert d1_bound(7, 1, 64).assumptions  # never a bare number


def test_ds_bound():
    b = ds_bound(2, 64, 51)
    assert b.value == 38 and 64 - b.value == 26
    assert ds_bound(1, 64, 51).value == 51  # s=1 reduces to d1
    b2 = ds_bound(2, 57, 41)
    assert 57 - b2.value == 32
    assert any("sufficiently large" in a for a in b2.assumptions)


def test_ns_alarm():
    assert not ns_alarm(13, 7, 1)  # equality allowed
    assert ns_alarm(14, 7, 1)


def test_van_luijk_alarm_threshold():
    # quartics over GF(7) have pi = 3: the flag's own threshold is the
    # section bound 1 + 7 + 3*5 = 23 (reference tables would sharpen it to
    # 20, but the flag is defined through the genus bound)
    assert hws_bound(7, 3) == 23
    assert ns_alarm(24, 7, 3)
    assert not ns_alarm(23, 7, 3)


def _complex_roots(cls):
    out = []
    for d, m in cls.root_orders:
        prim = [k for k in range(1, d + 1) if math.gcd(k, d) == 1]
        for _ in range(m):
            out.extend(cmath.exp(2j * cmath.pi * k / d) for k in prim)
    return out


def test_table_n1_values():
    for tag, n1 in TABLE_N1_Q7.items():
        assert predicted_Nr(tag, 7, 1) == n1
    # the five classes stay distinct at every q used in experiments
    for q in (7, 8, 9, 11):
        vals = [predicted_Nr(tag, q, 1) for tag in CUBIC_CLASSES]
        assert len(set(vals)) == 5


def test_predicted_Nr_against_complex_summation():
    for tag, cls in CUBIC_CLASSES.items():
        roots = _complex_roots(cls)
        assert len(roots) == 6
        for r in range(1, 13):
            trace_c = sum(z**r for z in roots)
            trace_i = sum(m * ramanujan_sum(d, r) for d, m in cls.root_orders)
            assert abs(trace_c.imag) < 1e-9
            assert abs(trace_c.real - trace_i) < 1e-6, (tag, r)
            assert -6 <= trace_i <= 6  # six roots of unity
            for q in (7, 8, 9):
                assert predicted_Nr(cls, q, r) == 1 + q ** (2 * r) + q**r * (1 + trace_i)


def test_predicted_Nr_examples():
    assert predicted_Nr("C12", 7, 1) == 64
    assert predicted_Nr("C14", 7, 1) == 57
    assert predicted_Nr("C12", 7, 2) == 2304
    assert predicted_Nr("C12", 7, 3) == 117307


def test_delpezzo6_Nr():
    assert delpezzo6_Nr(7, 1) == 57
    assert delpezzo6_Nr(7, 3) == 1 + 7**6 + 4 * 7**3 == 119022
    assert delpezzo6_Nr(9, 1) == 91
    # r not divisible by 3: same count as the plane
    for q in (7, 8, 9):
        for r in (1, 2, 4, 5):
            qr = q**r
            assert delpezzo6_Nr(q, r) == qr * qr + qr + 1


def test_sectional_genus():
    assert sectional_genus_hypersurface(3) == 1
    assert sectional_genus_hypersurface(4) == 3
    assert sectional_genus_hypersurface(6) == 10
    with pytest.raises(ValueError):
        sectional_genus_hypersurface(0)


def test_optimal_g1_counts():
    assert optimal_g1_count(7).value == 13
    assert optimal_g1_count(8).value == 14
    assert optimal_g1_count(9).value == 16
    for q in (2, 3, 4, 5, 7, 8, 9, 11, 13, 16):
        res = optimal_g1_count(q)
        assert res.certified
        assert q + 2 <= res.value <= hws_bound(q, 1)
    big = optimal_g1_count(17)
    assert not big.certified and big.value == hws_bound(17, 1)


def test_weierstrass_oracle_holds_a_few_chunk_budgets():
    # chunks of CHUNK_ELEMS // q^2 coefficient tuples; at 2e6 // q^2 the
    # q = 9 oracle peaked at 46 MiB
    make_field(3, 2)
    tracemalloc.start()
    try:
        assert _max_weierstrass_count(3, 2) == 16
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 << 20  # 4 budgets of 2 MiB


def test_prime_power_check_is_fast_beyond_the_table():
    # the prime-power check trial-divides up to sqrt(q), not up to q
    start = time.perf_counter()
    res = optimal_g1_count(2**31 - 1)
    assert time.perf_counter() - start < 5
    assert not res.certified and res.value == hws_bound(2**31 - 1, 1)
    assert _prime_power(3**12) == (3, 12)
    with pytest.raises(ValueError):
        _prime_power(12)


def test_bound_report_assembly():
    rep = build_bound_report(7, 1, 64, {1: (51, True), 2: (38, True)})
    assert rep.hws_section_bound == 13
    assert rep.verdicts[1] is True and rep.verdicts[2] is True
    assert rep.ns_alarm is False
    assert rep.observed == {1: 13, 2: 26}
    j = rep.to_json()
    assert j["d1_bound"]["value"] == 51
    # inexact distances never create verdicts
    rep2 = build_bound_report(7, 1, 57, {2: (27, False), 1: (41, True)})
    assert 2 not in rep2.verdicts
    assert rep2.ds_bounds[2].value == 57 - 32
