"""Field arithmetic: axioms, Frobenius, embeddings, determinism."""

import math
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import random_invertible

from evalcodes import gf, gflinalg
from evalcodes.gf import (
    FULL_TABLE_MAX,
    LOG_TABLE_MAX,
    FiniteField,
    NotInSubfield,
    get_embedding,
    make_field,
    parse_field_spec,
    smallest_uint,
)

AXIOM_FIELDS = [(2, 1), (2, 2), (7, 1), (3, 2)]  # GF(2), GF(4), GF(7), GF(9)


@pytest.mark.parametrize("p,n", AXIOM_FIELDS)
def test_field_axioms_exhaustive(p, n):
    fld = make_field(p, n)
    q = fld.q
    v = np.arange(q, dtype=np.int64)
    a = np.repeat(np.repeat(v, q), q)
    b = np.tile(np.repeat(v, q), q)
    c = np.tile(v, q * q)
    # associativity and commutativity
    assert np.array_equal(fld.add(fld.add(a, b), c), fld.add(a, fld.add(b, c)))
    assert np.array_equal(fld.mul(fld.mul(a, b), c), fld.mul(a, fld.mul(b, c)))
    assert np.array_equal(fld.add(a, b), fld.add(b, a))
    assert np.array_equal(fld.mul(a, b), fld.mul(b, a))
    # distributivity
    assert np.array_equal(fld.mul(a, fld.add(b, c)),
                          fld.add(fld.mul(a, b), fld.mul(a, c)))
    # identities and inverses
    assert np.array_equal(fld.add(v, 0), v)
    assert np.array_equal(fld.mul(v, 1), v)
    assert np.array_equal(fld.add(v, fld.neg(v)), np.zeros(q, dtype=np.int64))
    nz = v[1:]
    assert np.array_equal(fld.mul(nz, fld.inv(nz)), np.ones(q - 1, dtype=np.int64))


@pytest.mark.parametrize("p,n", [(2, 1), (3, 1), (2, 4), (7, 1), (3, 2), (7, 3), (2, 11), (3, 7), (7, 4), (131, 2)])
def test_negation_table_is_digitwise_negation(p, n):
    # built from the log table: -1 = g^((q - 1) / 2) for odd q, so -a = g^((q - 1) / 2) a
    fld = make_field(p, n)
    v = np.arange(fld.q, dtype=np.int64)
    assert np.array_equal(fld.neg(v), fld._recompose((-fld._digits_of(v)) % p))


@pytest.mark.parametrize("p,n", [(2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2), (7, 2), (11, 1), (7, 3), (2, 8), (53, 1)])
def test_power_q_fixes_everything(p, n):
    fld = make_field(p, n)
    if fld.q <= 3000:
        v = np.arange(fld.q, dtype=np.int64)
    else:
        v = np.arange(0, fld.q, 17, dtype=np.int64)
    assert np.all(fld.pow(v, fld.q) == v)


@pytest.mark.parametrize("e", [2**62 + 5, 2**64 + 5])
def test_array_pow_with_huge_exponent_matches_scalar(e):
    # log-table regime: the exponent is reduced mod q - 1 before it meets int64
    fld = make_field(2, 11)
    expected = fld._pow_scalar_raw(3, e % (fld.q - 1))
    assert fld.pow(3, e) == expected
    assert fld.pow(np.array([0, 3]), e).tolist() == [0, expected]


def test_prime_field_basics():
    f7 = make_field(7)
    assert f7.add(3, 5) == 1
    assert f7.mul(3, 5) == 1


def test_gf4_inverse_forced_by_modulus():
    f4 = make_field(2, 2, modulus=[1, 1, 1])
    x = f4.p  # the class of the polynomial variable
    assert f4.mul(x, f4.add(x, 1)) == 1


def test_gf343_group_order():
    f = make_field(7, 3)
    assert f.q == 343
    v = np.arange(1, 343, dtype=np.int64)
    assert np.all(f.pow(v, 342) == 1)


@pytest.mark.parametrize("p,n", [(3, 2), (2, 3)])
def test_frobenius_is_automorphism_exhaustive(p, n):
    fld = make_field(p, n)
    q = fld.q
    v = np.arange(q, dtype=np.int64)
    a = np.repeat(v, q)
    b = np.tile(v, q)
    fa, fb = fld.frobenius(a), fld.frobenius(b)
    assert np.array_equal(fld.frobenius(fld.add(a, b)), fld.add(fa, fb))
    assert np.array_equal(fld.frobenius(fld.mul(a, b)), fld.mul(fa, fb))


def test_frobenius_orders():
    f7 = make_field(7)
    assert all(f7.frobenius(a) == a for a in range(7))
    f4 = make_field(2, 2)
    x = f4.p
    assert f4.frobenius(x) == f4.add(x, 1)  # x^2 = x + 1
    f343 = make_field(7, 3)
    v = np.arange(343, dtype=np.int64)
    w = v
    for _ in range(3):
        w = f343.frobenius(w)
    assert np.array_equal(w, v)


def test_embed_descend_roundtrip_entire_source():
    for (p, a, b) in [(7, 1, 3), (7, 1, 6), (3, 2, 6), (2, 3, 6), (7, 3, 6)]:
        src, tgt = make_field(p, a), make_field(p, b)
        emb = get_embedding(src, tgt)
        v = np.arange(src.q, dtype=np.int64)
        img = emb.embed(v)
        assert np.array_equal(emb.descend(img), v)
        # homomorphism on a sample grid
        s = v[: min(len(v), 40)]
        aa, bb = np.repeat(s, len(s)), np.tile(s, len(s))
        assert np.array_equal(emb.embed(src.add(aa, bb)), tgt.add(emb.embed(aa), emb.embed(bb)))
        assert np.array_equal(emb.embed(src.mul(aa, bb)), tgt.mul(emb.embed(aa), emb.embed(bb)))
        assert emb.embed(0) == 0 and emb.embed(1) == 1


def test_descend_rejects_primitive_element():
    f7, f343 = make_field(7), make_field(7, 3)
    emb = get_embedding(f7, f343)
    with pytest.raises(NotInSubfield):
        emb.descend(f343.p)
    # fixed-field characterization: descend succeeds exactly on a^7 == a
    v = np.arange(343, dtype=np.int64)
    fixed = set(int(t) for t in v[f343.frobenius(v) == v])
    assert len(fixed) == 7
    for t in range(343):
        if t in fixed:
            emb.descend(t)
        else:
            with pytest.raises(NotInSubfield):
                emb.descend(t)


EMBEDDINGS = [((7, 1), (7, 3)), ((3, 2), (3, 6)), ((2, 3), (2, 6)), ((7, 3), (7, 6))]


@st.composite
def embedding_scalars(draw):
    src, tgt = (make_field(*f) for f in draw(st.sampled_from(EMBEDDINGS)))
    return get_embedding(src, tgt), draw(st.integers(0, src.q - 1)), draw(st.integers(0, tgt.q - 1))


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(embedding_scalars())
def test_embed_and_descend_scalars_match_the_array_call(case):
    emb, a, t = case
    img = emb.embed(np.array([a]))[0]
    in_subfield = emb.target.frobenius(t, emb.source.n) == t  # fixed by x -> x^(p^a)
    for scalar in (int, np.int64):
        out = emb.embed(scalar(a))
        assert type(out) is int and out == img
        back = emb.descend(scalar(img))
        assert type(back) is int and back == a
        if in_subfield:
            back = emb.descend(scalar(t))
            assert type(back) is int and back == emb.descend(np.array([t]))[0]
        else:
            with pytest.raises(NotInSubfield):
                emb.descend(scalar(t))


def test_embedding_refuses_what_is_not_an_encoding():
    # a plain ValueError, so contains() does not read it as "not in the subfield"
    emb = get_embedding(make_field(7), make_field(7, 3))
    calls = [(emb.embed, -1), (emb.embed, 7), (emb.embed, np.array([0, 7])), (emb.embed, 1.0),
             (emb.descend, -1), (emb.descend, 343), (emb.descend, np.array([[1], [-1]])),
             (emb.contains, 343), (emb.contains, -1)]
    for call, a in calls:
        with pytest.raises(ValueError) as err:
            call(a)
        assert err.type is ValueError and "not an encoding of" in str(err.value)
    assert emb.embed(6) == 6 and emb.contains(342) is False


def test_embedding_preserves_multiplicative_order():
    f7, f76 = make_field(7), make_field(7, 6)
    emb = get_embedding(f7, f76)
    g = f7.generator
    img = emb.embed(g)
    order, cur = 1, img
    while cur != 1:
        cur = f76.mul(cur, img)
        order += 1
    assert order == 6


# (source, target) pairs for the independent root search
ORACLE_EMBEDDINGS = [((7, 1), (7, 3)), ((7, 1), (7, 6)), ((7, 3), (7, 6)), ((3, 2), (3, 6)),
                     ((2, 3), (2, 6)), ((5, 2), (5, 6)), ((2, 8), (2, 16))]


@pytest.mark.parametrize("src_spec, tgt_spec", ORACLE_EMBEDDINGS)
def test_embedding_matches_a_root_search_over_the_whole_target(src_spec, tgt_spec):
    src, tgt = make_field(*src_spec), make_field(*tgt_spec)
    emb = get_embedding(src, tgt)
    # the smallest root of the source modulus, by Horner over every target element
    x = np.arange(tgt.q, dtype=np.int64)
    vals = np.zeros(tgt.q, dtype=np.int64)
    for c in reversed(src.modulus):
        vals = tgt.add(tgt.mul(vals, x), c)
    assert emb.gen_image == int(np.flatnonzero(vals == 0)[0])
    # every source element maps to its base-p digits evaluated at gen_image
    v = np.arange(src.q, dtype=np.int64)
    digits = src._digits_of(v)
    horner = np.zeros(src.q, dtype=np.int64)
    for i in reversed(range(src.n)):
        horner = tgt.add(tgt.mul(horner, emb.gen_image), digits[:, i])
    assert np.array_equal(emb.embed(v), horner)


@pytest.mark.parametrize("p, n", [(131101, 1), (2, 18), (3, 11), (2**31 - 1, 1), (2**89 - 1, 1)])
def test_make_field_refuses_fields_beyond_the_log_tables(p, n):
    # the smallest prime, power of 2 and power of 3 past LOG_TABLE_MAX, a far
    # one, and a prime whose trial division would run for hours
    with pytest.raises(ValueError, match="131072"):
        make_field(p, n)
    assert not any(key[:2] == (p, n) for key in gf._FIELD_CACHE)
    assert LOG_TABLE_MAX == 131072


def test_make_field_determinism():
    a = FiniteField(3, 2)
    b = FiniteField(3, 2)
    assert a.modulus == b.modulus
    assert np.array_equal(a._add_table, b._add_table)
    assert np.array_equal(a._mul_table, b._mul_table)
    assert make_field(3, 2) is make_field(3, 2)


# every full-table field the benchmark workloads open, and GF(2^10) at FULL_TABLE_MAX
TABLE_FIELDS = [(5, 1), (7, 1), (2, 3), (3, 2), (11, 1), (5, 2), (2, 5), (47, 1), (7, 2), (5, 3),
                (7, 3), (2, 9), (3, 6), (2, 10)]


@pytest.mark.parametrize("p, n", TABLE_FIELDS)
def test_add_table_adds_digit_by_digit(p, n):
    # odd p keeps a uint8 or uint16 table; characteristic 2 adds by XOR, with none
    fld = make_field(p, n)
    assert fld.q <= FULL_TABLE_MAX and (fld.q == FULL_TABLE_MAX) == ((p, n) == (2, 10))
    narrow = None if p == 2 else np.uint8 if fld.q <= 256 else np.uint16
    assert getattr(fld._add_table, "dtype", None) == narrow
    encodings = np.arange(fld.q)
    table = fld.add(encodings[:, None], encodings[None, :])
    assert table.dtype == np.int64 and table.min() >= 0 and table.max() < fld.q
    for i in range(n):  # an entry below q is its n base-p digits
        digit = encodings // p**i % p
        assert np.array_equal(table // p**i % p, (digit[:, None] + digit[None, :]) % p)


def test_canonical_moduli():
    assert make_field(2, 2).modulus == (1, 1, 1)  # x^2+x+1
    assert make_field(3, 2).modulus == (1, 0, 1)  # x^2+1
    assert make_field(2, 3).modulus == (1, 1, 0, 1)  # x^3+x+1
    assert make_field(7, 3).modulus == (2, 0, 0, 1)  # x^3+2


def test_construction_errors():
    with pytest.raises(ValueError):
        make_field(6)  # not prime
    with pytest.raises(ValueError):
        make_field(2, 2, modulus=[1, 0, 1])  # x^2+1 = (x+1)^2 over GF(2)
    with pytest.raises(ValueError):
        make_field(7, 0)


def test_element_coeffs():
    f9 = make_field(3, 2)
    assert f9._digits_of(5).tolist() == [2, 1]  # 5 encodes 2 + x


def test_parse_field_spec():
    assert parse_field_spec("7").q == 7
    assert parse_field_spec("7^3").q == 343
    f = parse_field_spec("2^2/1,1,1")
    assert f.q == 4 and f.modulus == (1, 1, 1)


def test_large_field_digit_arithmetic():
    # beyond the full tables GF(3^10) adds digit by digit; scalar ops must
    # still satisfy field laws
    fld = make_field(3, 10)
    a, b = 12_345, 54_321
    ab = fld.mul(a, b)
    assert fld.mul(ab, fld.inv(b)) == a
    assert fld.add(a, fld.neg(a)) == 0
    assert fld.pow(a, fld.q - 1) == 1


CAP_FIELDS = [(2, 17), (131071, 1), (3, 10)]  # the largest fields with log tables


@st.composite
def cap_edge_elements(draw):
    fld = make_field(*draw(st.sampled_from(CAP_FIELDS)))
    edges = [0, 1, fld.p ** (fld.n - 1), fld.q - 1]  # x^(n-1) is the top basis element
    elems = st.one_of(st.sampled_from(edges), st.integers(0, fld.q - 1))
    a, b, c = (draw(elems) for _ in range(3))
    return fld, a, b, c, draw(st.integers(0, fld.q))


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(cap_edge_elements())
def test_cap_edge_field_axioms(case):
    fld, a, b, c, e = case
    ref = fld._mul_scalar_raw
    mul, add = fld.mul, fld.add
    assert mul(a, b) == ref(a, b) == ref(b, a)
    assert mul(mul(a, b), c) == mul(a, mul(b, c))
    assert mul(a, add(b, c)) == add(mul(a, b), mul(a, c))
    if a:
        assert mul(a, fld.inv(a)) == 1
        assert fld.pow(a, fld.q - 1) == 1
    assert fld.pow(a, 3) == ref(ref(a, a), a)
    assert fld.pow(a, e) == fld._pow_scalar_raw(a, e)
    assert fld.frobenius(add(a, b)) == add(fld.frobenius(a), fld.frobenius(b))
    # the array paths agree with the scalar ones
    v, w = np.array([a, b, c]), np.array([c, a, b])
    assert mul(v, w).tolist() == [ref(x, y) for x, y in zip(v.tolist(), w.tolist())]
    assert add(v, w).tolist() == [add(x, y) for x, y in zip(v.tolist(), w.tolist())]
    assert fld.pow(v, e).tolist() == [fld._pow_scalar_raw(x, e) for x in v.tolist()]
    nonzero = v[v != 0]
    assert fld.inv(nonzero).tolist() == [fld.inv(x) for x in nonzero.tolist()]


TABLE_FIELDS = [(7, 3), (2, 10),  # full add/mul tables
                (2, 11), (3, 7), (5, 6), (7, 6), (131, 2)]  # exp/log tables


@st.composite
def exp_table_indices(draw):
    fld = make_field(*draw(st.sampled_from(TABLE_FIELDS)))
    i = draw(st.one_of(st.sampled_from([0, 1, fld.q - 2]), st.integers(0, fld.q - 2)))
    return fld, i


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(exp_table_indices())
def test_exp_log_tables_follow_the_smallest_generator(case):
    fld, i = case
    q, g = fld.q, fld.generator
    assert fld._exp is not None and (fld._mul_table is not None) == (q <= 1024)
    cofactors = [(q - 1) // ell for ell in range(2, q) if (q - 1) % ell == 0
                 and all(ell % f for f in range(2, int(ell**0.5) + 1))]

    def primitive(h):
        return all(fld._pow_scalar_raw(h, c) != 1 for c in cofactors)

    assert primitive(g) and not any(primitive(h) for h in range(2, g))
    assert fld._exp[i] == fld._pow_scalar_raw(g, i)
    assert fld._log[fld._exp[i]] == i


# the widest inner dimension over GF(131071): 524304 (p - 1)^2 < 2^53 <= 524305 (p - 1)^2
P17, WIDEST_INNER = 131071, 524304
P26 = 67108859  # the largest prime below 2^26: 2 (P26 - 1)^2 < 2^53 < 3 (P26 - 2)^2


def test_matmul_is_exact_up_to_53_bit_digit_sums():
    fld, rng = make_field(P17), np.random.default_rng(17)
    a = rng.integers(0, P17, (2, WIDEST_INNER))
    a[0] = P17 - 1  # the largest digit sum, every product (p - 1)^2
    b = np.full((WIDEST_INNER, 1), P17 - 1, dtype=np.int64)
    b[::3] = rng.integers(0, P17, (len(b[::3]), 1))
    expected = [[sum(x * y for x, y in zip(row, b[:, 0].tolist())) % P17] for row in a.tolist()]
    assert gflinalg.matmul(fld, a, b).tolist() == expected
    assert gflinalg.matmul(fld, a[:1, :], np.full_like(b, P17 - 1)).tolist() == [[WIDEST_INNER % P17]]


def test_products_beyond_float64_stay_exact():
    # a single product (p - 1)^2 needs p > 2^26 to pass float64's 53 bits,
    # far beyond the log tables: such a field is refused, never rounded
    with pytest.raises(ValueError, match="131072"):
        make_field(2**31 - 1)
    fld = make_field(P17)  # the largest prime field: (p - 1)^2 < 2^34
    assert fld.mul(P17 - 1, P17 - 1) == 1
    assert gflinalg.matmul(fld, [[P17 - 1, P17 - 1]], [[P17 - 1], [P17 - 1]]).tolist() == [[2]]


def test_matmul_refuses_wider_digit_sums_before_expanding():
    fld = make_field(P17)
    # zero-copy views: the refusal must come before anything is copied or
    # packed, which would take 16 MiB per factor
    a = np.broadcast_to(np.int64(P17 - 1), (4, WIDEST_INNER + 1))
    b = np.broadcast_to(np.int64(P17 - 1), (WIDEST_INNER + 1, 4))
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="53 bits"):
            gflinalg.matmul(fld, a, b)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 16


@pytest.mark.parametrize("p, m", [(7, 1), (2, 3), (3, 2), (2, 17)])
@pytest.mark.parametrize("a_shape, b_shape", [((0, 2), (2, 3)), ((2, 2), (2, 0)), ((2, 0), (0, 3))])
def test_matmul_with_an_empty_factor_is_the_zero_product(p, m, a_shape, b_shape):
    fld = make_field(p, m)
    out = gflinalg.matmul(fld, np.ones(a_shape, dtype=np.int64), np.ones(b_shape, dtype=np.int64))
    assert np.array_equal(out, np.zeros((a_shape[0], b_shape[1]), dtype=np.int64))


def _reference_matmul(fld, a, b):
    """Schoolbook product on Python ints: polynomial products modulo the
    field modulus, sums digit by digit mod p."""
    def add(x, y):
        out, scale = 0, 1
        for _ in range(fld.n):
            out += (x % fld.p + y % fld.p) % fld.p * scale
            x, y, scale = x // fld.p, y // fld.p, scale * fld.p
        return out

    out = []
    for row in a:
        out.append([])
        for col in zip(*b):
            acc = 0
            for x, y in zip(row, col):
                acc = add(acc, fld._mul_scalar_raw(int(x), int(y)))
            out[-1].append(acc)
    return out


@st.composite
def stacked_products(draw):
    """Factors over GF(7), GF(9), GF(2^5), GF(7^2), GF(3^5), GF(2^10) (full
    tables), GF(2^11), GF(2^17), GF(3^10) or GF(131071) (log tables); one or
    both factors carry a stack axis."""
    fld = make_field(*draw(st.sampled_from([(7, 1), (3, 2), (2, 5), (7, 2), (3, 5), (2, 10), (2, 11),
                                            *CAP_FIELDS])))
    stack, rows, inner, cols = (draw(st.integers(1, 3)) for _ in range(4))
    elems = st.one_of(st.sampled_from([0, 1, fld.q - 1]), st.integers(0, fld.q - 1))

    def factor(shape):
        size = int(np.prod(shape))
        return np.array(draw(st.lists(elems, min_size=size, max_size=size)),
                        dtype=np.int64).reshape(shape)

    a = factor((stack, rows, inner) if draw(st.booleans()) else (rows, inner))
    b = factor((stack, inner, cols) if draw(st.booleans()) or a.ndim == 2 else (inner, cols))
    return fld, a, b


@settings(max_examples=120, deadline=None, derandomize=True, database=None)
@given(stacked_products())
def test_stacked_matmul_matches_python_ints(case):
    fld, a, b = case
    out = gflinalg.matmul(fld, a, b)
    stack = a.shape[0] if a.ndim == 3 else b.shape[0]
    assert out.shape == (stack, a.shape[-2], b.shape[-1])
    for i in range(stack):
        ai = a[i] if a.ndim == 3 else a
        bi = b[i] if b.ndim == 3 else b
        assert out[i].tolist() == _reference_matmul(fld, ai.tolist(), bi.tolist())


def _widest_digit_sum_factor(fld):
    """The element y whose products with every power basis element x^i have
    base-p digit 0 equal to p - 1 (y = -1 over a prime field): against a left
    factor of q - 1, whose digits are all p - 1, digit 0 of the product sums
    inner * m GF(p) products of (p - 1)^2, the most any digit sum holds."""
    products = fld.mul(np.arange(fld.q)[:, None], fld._pow_p[None, :])
    return int(np.flatnonzero((fld._digits_of(products)[..., 0] == fld.p - 1).all(axis=1))[0])


# (p, m, inner, x, y): every entry of the left factor is x and of the right
# factor y, so every product entry is inner * x * y; "widest" is the y of
# _widest_digit_sum_factor.  With per = min(m, 53 // bits) digits to a float
# word, bits the bit length of (p - 1)^2 * inner * m:
MATMUL_EDGES = [
    (7, 1, 1820, "q-1", "q-1"),  # 36 * 1820 < 2^16: uint16 digit sums
    (7, 1, 1821, "q-1", "q-1"),  # 2^16 < 36 * 1821: uint32
    (3, 2, 1, "q-1", "widest"),  # GF(9): two 4-bit digits in a float32 word
    (2, 5, 1, "q-1", "widest"),  # GF(2^5): five 3-bit digits, float32
    (2, 5, 7, "q-1", "widest"),  # the sweep's k = 7: five 6-bit digits, 30 bits, float64
    (7, 2, 56, "q-1", "widest"),  # 72 * 56 < 2^12: two 12-bit digits, 24 bits, float32
    (7, 2, 57, "q-1", "widest"),  # 2^12 < 72 * 57: 26 bits, float64
    (7, 2, 57, "q-1", "q-1"),
    (3, 5, 51, "q-1", "widest"),  # 20 * 51 < 2^10: five 10-bit digits, 50 bits in one word
    (3, 5, 52, "q-1", "widest"),  # 2^10 < 20 * 52: 11 bits, four digits and one to a word
    (2, 10, 3, "q-1", "widest"),  # 30 < 2^5: ten 5-bit digits, 50 bits in one word
    (2, 10, 4, "q-1", "widest"),  # 2^5 < 40: 6 bits, eight digits and two to a word
    (2, 10, 4, "q-1", "q-1"),
    (P26, 1, 3, "q-2", "q-2"),  # 2^53 < (p - 2)^2 * 3, an odd sum that float64 would round: the field is refused
]


@pytest.mark.parametrize("p, m, inner, x, y", MATMUL_EDGES)
def test_matmul_at_the_digit_sum_edges(p, m, inner, x, y):
    if p**m > LOG_TABLE_MAX:  # no field, so no digit sum to round
        with pytest.raises(ValueError, match="131072"):
            make_field(p, m)
        return
    fld = make_field(p, m)
    x, y = (fld.q - 1 if v == "q-1" else _widest_digit_sum_factor(fld) for v in (x, y))
    a = np.full((2, inner), x, dtype=np.int64)
    b = np.full((inner, 3), y, dtype=np.int64)
    expected = fld.mul(fld.mul(x, y), inner % p)  # inner * x * y, inner in the prime field
    assert np.array_equal(gflinalg.matmul(fld, a, b), np.full((2, 3), expected))
    assert np.array_equal(gflinalg.matmul(fld, a[None], b), np.full((1, 2, 3), expected))


@st.composite
def products_into(draw):
    """Factors over GF(7) and GF(131071) (prime fields, float64 words for
    the latter), GF(3^2) and GF(7^2) (packed extension fields), GF(2^5) and
    GF(2^8) (characteristic 2); each factor 2-d, stacked or with a stack
    axis of 1 to broadcast; an `out` of the narrowest unsigned type that
    holds q - 1, or of uint16, or int64, maybe a transposed view; and slices
    of 1 to 3 rows, so that 5 or 7 rows leave a ragged last one."""
    fld = make_field(*draw(st.sampled_from([(7, 1), (3, 2), (7, 2), (2, 5), (2, 8), (P17, 1)])))
    stack, rows, cols = draw(st.integers(1, 3)), draw(st.integers(1, 7)), draw(st.integers(1, 3))
    inner = draw(st.integers(1, 4))
    elems = st.one_of(st.sampled_from([0, 1, fld.q - 1]), st.integers(0, fld.q - 1))

    def factor(shape):
        lead = draw(st.sampled_from([(), (1,), (stack,)]))
        size = math.prod(lead + shape)
        return np.array(draw(st.lists(elems, min_size=size, max_size=size)), dtype=np.int64).reshape(lead + shape)

    a, b = factor((rows, inner)), factor((inner, cols))
    narrow = smallest_uint((fld.q - 1).bit_length())
    dtype = draw(st.sampled_from([narrow, np.int64] + ([np.uint16] if narrow == np.uint8 else [])))
    return fld, a, b, dtype, draw(st.booleans()), draw(st.integers(1, 3))


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(products_into())
def test_matmul_into_out_matches_the_int64_product(case):
    fld, a, b, dtype, transposed, step = case
    expected = gflinalg.matmul(fld, a, b)
    shape = expected.shape
    lead = math.prod(shape[:-2])
    buf = np.empty(shape[:-2] + shape[:-3:-1] if transposed else shape, dtype=dtype)
    out = buf.swapaxes(-1, -2) if transposed else buf
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(gf, "CHUNK_ELEMS", 4 * step * lead * shape[-1])  # `step` rows to a slice
        assert gflinalg.matmul(fld, a, b, out=out) is out
    assert out.dtype == dtype and np.array_equal(out, expected)
    assert expected.dtype == np.int64
    a3, b3 = np.broadcast_to(a, shape[:-2] + a.shape[-2:]), np.broadcast_to(b, shape[:-2] + b.shape[-2:])
    for i in np.ndindex(shape[:-2]):
        assert out[i].tolist() == _reference_matmul(fld, a3[i].tolist(), b3[i].tolist())


def test_matmul_refuses_an_out_of_another_shape():
    fld = make_field(7)
    with pytest.raises(ValueError, match="shape"):
        gflinalg.matmul(fld, np.ones((2, 3), dtype=np.int64), np.ones((3, 4), dtype=np.int64),
                        out=np.empty((4, 2), dtype=np.uint8))


def test_block_product_stays_within_its_slices():
    # one block of information sets of the dp6 s=1 code over GF(47): 33
    # systematic [7, 2257] matrices, written into a narrow stack through its
    # transposed view; slices of CHUNK_ELEMS // 4 entries keep the product's
    # temporaries (float32 sums, uint16 digits) to about 1 MiB, where the
    # whole block's int64 product alone takes 4 MiB
    fld, rng = make_field(47), random.Random(47)
    g = np.array([[rng.randrange(47) for _ in range(2257)] for _ in range(7)], dtype=np.int64)
    inverses = np.array([random_invertible(fld, 7, rng) for _ in range(33)])

    def product():
        out = np.empty((33, 7, 2257), dtype=np.uint8)
        gflinalg.matmul(fld, g.T, inverses.transpose(0, 2, 1), out=out.transpose(0, 2, 1))
        return out

    tracemalloc.start()
    try:
        out = product()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(out, gflinalg.matmul(fld, inverses, g))
    assert peak < out.nbytes + (3 << 19)  # out + 1.5 MiB


@st.composite
def stacked_inverses(draw):
    """A (k, k) matrix or an (s, k, k) stack of invertible matrices over
    GF(7), GF(8), GF(9), GF(49) (full tables), GF(131071), GF(2^17) or
    GF(3^10) (log tables), and the index of a member to make singular."""
    fld = make_field(*draw(st.sampled_from([(7, 1), (2, 3), (3, 2), (7, 2), *CAP_FIELDS])))
    k = draw(st.integers(1, 5))
    shape = draw(st.sampled_from([(), (draw(st.integers(1, 4)),)]))
    rng = random.Random(draw(st.integers(0, 2**32)))
    stack = np.array([random_invertible(fld, k, rng) for _ in range(math.prod(shape))])
    return fld, stack.reshape(shape + (k, k)), draw(st.integers(0, len(stack) - 1))


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(stacked_inverses())
def test_stacked_invert_inverts_every_member_and_refuses_a_singular_one(case):
    fld, b, bad = case
    k = b.shape[-1]
    members = b.reshape(-1, k, k)
    inv = gflinalg.invert(fld, b)
    assert inv.shape == b.shape
    products = gflinalg.matmul(fld, inv.reshape(-1, k, k), members)
    assert all(np.array_equal(prod, np.eye(k, dtype=np.int64)) for prod in products)
    # row 0 of one member becomes a multiple of its last row (the zero row when k = 1)
    singular = members.copy()
    singular[bad, 0] = fld.mul(singular[bad, -1], fld.q - 1) if k > 1 else 0
    with pytest.raises(ValueError, match="singular"):
        gflinalg.invert(fld, singular.reshape(b.shape))


# -- narrow tables: every op widens to int64 -----------------------------------

# GF(2^10) at FULL_TABLE_MAX, GF(2^16) at the top of uint16, GF(2^17) at
# LOG_TABLE_MAX (uint32 logs), GF(3^10) (uint16, odd p), GF(7^6) (uint32)
EDGE_FIELDS = [(2, 10), (2, 16), (2, 17), (3, 10), (7, 6)]


def _digit_add(fld, x, y, sign=1):
    """x + sign * y digit by digit, on Python ints."""
    return sum((x // fld.p**i + sign * (y // fld.p**i)) % fld.p * fld.p**i for i in range(fld.n))


@st.composite
def edge_operands(draw):
    fld = make_field(*draw(st.sampled_from(EDGE_FIELDS)))
    edges = [0, 1, 2, fld.p ** (fld.n - 1), fld.q - 2, fld.q - 1]
    elems = st.one_of(st.sampled_from(edges), st.integers(0, fld.q - 1))
    values = draw(st.lists(elems, min_size=2, max_size=6))
    exponent = draw(st.one_of(st.sampled_from([2**32 + 1, 2**40 + 3, 2**63 + 5, fld.q - 1]),
                              st.integers(2**32, 2**70)))
    return fld, values, exponent


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(edge_operands())
def test_ops_widen_narrow_tables_to_int64(case):
    fld, values, e = case
    v = np.array(values)
    w = np.roll(v, 1)
    pairs = list(zip(v.tolist(), w.tolist()))
    nonzero = v[v != 0]
    results = {
        "mul": (fld.mul(v, w), [fld._mul_scalar_raw(x, y) for x, y in pairs]),
        "add": (fld.add(v, w), [_digit_add(fld, x, y) for x, y in pairs]),
        "sub": (fld.sub(v, w), [_digit_add(fld, x, y, -1) for x, y in pairs]),
        "neg": (fld.neg(v), [_digit_add(fld, 0, x, -1) for x in values]),
        "pow": (fld.pow(v, e), [fld._pow_scalar_raw(x, e % (fld.q - 1)) if x else 0 for x in values]),
        "inv": (fld.mul(fld.inv(nonzero), nonzero), [1] * len(nonzero)),
        "digits": (fld._digits_of(v), [[x // fld.p**i % fld.p for i in range(fld.n)] for x in values]),
    }
    for op, (out, expected) in results.items():
        assert out.dtype == np.int64 and out.tolist() == expected, op
    assert fld.inv(nonzero).dtype == np.int64
    narrow = v.astype(np.uint32)  # narrow operands, as the weight kernel passes them
    for out, expected in ((fld.add(narrow, np.roll(narrow, 1)), results["add"][1]),
                          (fld.neg(narrow), results["neg"][1])):
        assert out.dtype == np.int64 and out.tolist() == expected
    for (x, y), product, total in zip(pairs, results["mul"][1], results["add"][1]):
        assert (fld.mul(x, y), fld.add(np.int64(x), y), fld.pow(x, e)) == \
            (product, total, results["pow"][1][values.index(x)])
        assert all(type(out) is int for out in (fld.mul(x, y), fld.add(x, y), fld.neg(x), fld.pow(x, e)))


@pytest.mark.parametrize("m", [16, 17])  # log tables, up to the cap
def test_sub_in_characteristic_2_is_the_xor(monkeypatch, m):
    fld = make_field(2, m)
    monkeypatch.setattr(type(fld), "neg", lambda self, a: pytest.fail("sub negated its operand"))
    rng = np.random.default_rng(m)
    a, b = rng.integers(0, fld.q, 1000), rng.integers(0, fld.q, 1000)
    for x, y in ((a, b), (a.astype(np.uint32), b.astype(np.uint32)), (a, int(b[0])), (int(a[0]), b)):
        out = fld.sub(x, y)
        assert out.dtype == np.int64 and out.tolist() == np.bitwise_xor(x, y, dtype=np.int64).tolist()
    for x, y in zip(a[:50].tolist(), b[:50].tolist()):
        for out in (fld.sub(x, y), fld.sub(np.int64(x), np.uint32(y))):
            assert type(out) is int and out == x ^ y
        assert fld.sub(fld.add(x, y), y) == x


X16 = (1, 0, 1, 1, 0, 1) + (0,) * 10 + (1,)  # x^16 + x^5 + x^3 + x^2 + 1, not the canonical modulus


@pytest.mark.parametrize("src_spec, tgt_spec", [((2, 8), (2, 16)), ((2, 16), (2, 16, X16))])
def test_embedding_widens_narrow_logs(src_spec, tgt_spec):
    # a uint8 log times the image's log passes uint8; between two moduli of
    # GF(2^16), descent multiplies a uint16 log by the inverse unit 1234
    src, tgt = make_field(*src_spec), make_field(*tgt_spec)
    emb = get_embedding(src, tgt)
    v = np.unique(np.r_[0, 1, src.q - 1, np.linspace(0, src.q - 1, 200).astype(np.int64)])
    img = emb.embed(v)
    assert img.dtype == np.int64 and emb.descend(img).dtype == np.int64
    assert np.array_equal(emb.descend(img), v)
    # the digits of each source element at the image of its variable, on Python ints
    powers = [tgt._pow_scalar_raw(emb.gen_image, i) for i in range(src.n)]
    expected = []
    for digits in src._digits_of(v).tolist():
        total = 0
        for d, x in zip(digits, powers):
            total = _digit_add(tgt, total, tgt._mul_scalar_raw(d, x))
        expected.append(total)
    assert img.tolist() == expected


TABLES = ("_digits", "_exp", "_log", "_inv", "_neg_table", "_add_table", "_mul_table")
# kept table bytes, bounded a little above the narrow build (int64 tables
# kept 8.2, 4.1, 4.8, 5.5 and 9.0 MiB)
KEPT_MIB = {(3, 6): 2.2, (2, 9): 0.6, (2, 15): 0.75, (47, 3): 2.1, (7, 6): 2.7}


@pytest.mark.parametrize("p, n", list(KEPT_MIB))
def test_tables_are_narrow(p, n):
    fld = make_field(p, n)
    tables = {name: getattr(fld, name) for name in TABLES if getattr(fld, name) is not None}
    assert sum(t.nbytes for t in tables.values()) < KEPT_MIB[p, n] * 2**20
    narrowest = {"_digits": smallest_uint((p - 1).bit_length()),
                 "_log": smallest_uint((fld.q - 2).bit_length())}
    for name, table in tables.items():  # encodings in uint16 up to q = 2^16
        assert table.dtype == narrowest.get(name, smallest_uint((fld.q - 1).bit_length())), name
    assert set(tables) >= {"_digits", "_exp", "_log", "_inv"}
    assert ("_neg_table" in tables) == (p > 2)  # characteristic 2 negates nothing
    assert ("_add_table" in tables) == (p > 2 and fld.q <= FULL_TABLE_MAX)  # and adds by XOR


@pytest.mark.parametrize("p, n, mib", [(3, 6, 5), (2, 10, 3)])
def test_table_build_peak(p, n, mib):
    # int64 builds peaked at 21.4 and 42.1 MiB: q x q int64 log pairs and
    # q x n int64 digits
    tracemalloc.start()
    try:
        FiniteField(p, n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < mib * 2**20
