"""Homogeneous polynomial algebra and the grid evaluator."""

import random

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from evalcodes import gf
from evalcodes.gf import make_field
from evalcodes.poly import (
    HomogPoly,
    dehomogenize,
    eval_affine_grid_chunks,
    monomial_values,
    monomials,
)


def test_monomials_order_and_count():
    ms = monomials(3, 2)
    assert ms[0] == (2, 0, 0) and ms[-1] == (0, 0, 2)
    assert ms == sorted(ms, reverse=True)
    assert len(ms) == 6
    assert len(monomials(4, 3)) == 20
    assert len(monomials(7, 2)) == 28


def test_homogeneity_enforced():
    f7 = make_field(7)
    with pytest.raises(ValueError):
        HomogPoly(f7, 3, 2, {(1, 0, 0): 1})
    with pytest.raises(ValueError):
        HomogPoly(f7, 3, 2, {(1, 1): 1})
    # zero coefficients are dropped
    p = HomogPoly(f7, 3, 2, {(2, 0, 0): 0, (0, 2, 0): 3})
    assert p.terms == {(0, 2, 0): 3}


def test_coefficients_must_be_encodings():
    f7, f49 = make_field(7), make_field(7, 2)
    # -1 is not an encoding: numpy would read it as 48, which is -1 - a in GF(49)
    for fld, coeff in [(f49, -1), (f49, 49), (f49, 50), (f7, -1), (f7, 7)]:
        with pytest.raises(ValueError, match="not an encoding"):
            HomogPoly(fld, 3, 1, {(1, 0, 0): coeff, (0, 1, 0): 1})
    x_minus_y = HomogPoly(f49, 3, 1, {(1, 0, 0): f49.neg(1), (0, 1, 0): 1})
    assert x_minus_y.eval_points([[1, 1, 1]]).tolist() == [0]


def test_arithmetic_and_scaling():
    f7 = make_field(7)
    x = HomogPoly.variable(f7, 3, 0)
    y = HomogPoly.variable(f7, 3, 1)
    p = (x + y) * (x + y.scale(6))  # (x+y)(x-y) = x^2 - y^2
    assert p.terms == {(2, 0, 0): 1, (0, 2, 0): 6}
    assert (p - p).is_zero()
    assert (x * x * x).terms == {(3, 0, 0): 1}


def test_partial_derivative_characteristic_rules():
    f7 = make_field(7)
    x3 = HomogPoly(f7, 2, 3, {(3, 0): 1})
    assert x3.partial_derivative(0).terms == {(2, 0): 3}
    x7 = HomogPoly(f7, 2, 7, {(7, 0): 1})
    assert x7.partial_derivative(0).is_zero()
    # product rule case: d/dw (w * m) = m when m is independent of w
    m = HomogPoly(f7, 2, 2, {(2, 0): 5})
    w = HomogPoly.variable(f7, 2, 1)
    assert (w * m).partial_derivative(1).terms == m.terms


def test_eval_examples():
    f7 = make_field(7)
    x0 = HomogPoly.variable(f7, 3, 0)
    assert x0.eval_at((0, 0, 1)) == 0
    p = HomogPoly(f7, 3, 2, {(2, 0, 0): 1, (0, 2, 0): 1})
    assert p.eval_at((2, 1, 0)) == 5  # 4 + 1


def test_eval_points_matches_eval_at():
    rng = random.Random(11)
    for fld in (make_field(7), make_field(3, 2)):
        basis = monomials(4, 3)
        terms = {m: rng.randrange(fld.q) for m in rng.sample(basis, 8)}
        p = HomogPoly(fld, 4, 3, terms)
        pts = np.array([[rng.randrange(fld.q) for _ in range(4)] for _ in range(50)],
                       dtype=np.int64)
        vec = p.eval_points(pts)
        assert [p.eval_at(tuple(pt)) for pt in pts] == [int(v) for v in vec]


# fields with full tables, with log tables alone (GF(7^3) has both) and one
# in the digit regime, which has neither
EVAL_FIELDS = [make_field(2), make_field(7), make_field(2, 3), make_field(3, 2), make_field(7, 3),
               make_field(2, 18)]


def _scalar_value(fld, poly, point):
    """The value term by term, from the scalar reference operations and a
    digit-by-digit sum."""
    total = 0
    for exps, c in poly.terms.items():
        term = c
        for x, e in zip(point, exps):
            term = fld._mul_scalar_raw(term, fld._pow_scalar_raw(int(x), e))
        total = sum((total // fld.p**i + term // fld.p**i) % fld.p * fld.p**i for i in range(fld.n))
    return total


@st.composite
def evaluations(draw):
    fld = draw(st.sampled_from(EVAL_FIELDS))
    nvars = draw(st.integers(1, 4))
    degree = draw(st.integers(0, 3 * fld.q if fld.q < 16 else 4))  # exponents past q - 1 too
    basis = monomials(nvars, degree)
    chosen = draw(st.lists(st.sampled_from(basis), max_size=6, unique=True))  # [] is the zero polynomial
    terms = {mono: draw(st.integers(1, fld.q - 1)) for mono in chosen}
    chunk = draw(st.integers(1, 4))  # points per chunk
    count = draw(st.sampled_from([0, chunk - 1, chunk, chunk + 1, 2 * chunk + 1]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    points = rng.integers(0, fld.q, (count, nvars))
    points[rng.random(points.shape) < 0.3] = 0  # many zero coordinates
    return HomogPoly(fld, nvars, degree, terms), points, chunk


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(evaluations())
@example((HomogPoly(make_field(7), 3, 0, {(0, 0, 0): 5}), np.zeros((3, 3), dtype=np.int64), 2))
@example((HomogPoly.zero(make_field(2, 18), 2, 2), np.array([[0, 5], [7, 0], [1, 1]]), 2))
def test_evaluator_matches_scalar_reference(case):
    poly, points, chunk = case
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(gf, "CHUNK_ELEMS", 4 * chunk * max(1, len(poly.terms)))
        values = poly.eval_points(points)
    assert values.tolist() == [_scalar_value(poly.field, poly, pt) for pt in points.tolist()]
    if len(points):
        assert poly.eval_at(tuple(points[0].tolist())) == values[0]
    exps = list(poly.terms)
    if exps:
        mono = monomial_values(poly.field, points, exps)
        assert mono.shape == (len(points), len(exps))
        assert mono.tolist() == [[_scalar_value(poly.field, HomogPoly(poly.field, poly.nvars, poly.degree, {e: 1}), pt)
                                  for e in exps] for pt in points.tolist()]


def test_eval_points_refuses_points_of_another_length():
    p = HomogPoly(make_field(7), 3, 1, {(1, 0, 0): 1})
    for bad in (np.zeros((4, 2), dtype=np.int64), np.zeros(3, dtype=np.int64)):
        with pytest.raises(ValueError):
            p.eval_points(bad)
    with pytest.raises(ValueError):
        p.eval_at((1, 2))


def test_frobenius_coeffs():
    f9 = make_field(3, 2)
    t = f9.p
    p = HomogPoly(f9, 2, 1, {(1, 0): t, (0, 1): 1})
    fp = p.frobenius_coeffs()
    assert fp.terms[(1, 0)] == f9.frobenius(t)
    assert fp.terms[(0, 1)] == 1


def test_pad_vars():
    f7 = make_field(7)
    p = HomogPoly(f7, 2, 2, {(1, 1): 3})
    q = p.pad_vars(4)
    assert q.nvars == 4 and q.terms == {(1, 1, 0, 0): 3}


@pytest.mark.parametrize("p,n", [(7, 1), (3, 2)])
def test_grid_evaluator_matches_pointwise(p, n):
    fld = make_field(p, n)
    rng = random.Random(3)
    basis = monomials(4, 3)
    poly = HomogPoly(fld, 4, 3, {m: rng.randrange(fld.q) for m in basis})
    # chart 2: x2 = 1, x3 = 0, free (x0, x1)
    tensor = dehomogenize(poly, 2)
    values = {}
    for x0, (vals,) in eval_affine_grid_chunks(fld, [tensor]):
        for i, v0 in enumerate(x0):
            for v1 in range(fld.q):
                values[(int(v0), v1)] = int(vals[i, v1])
    for v0 in range(fld.q):
        for v1 in range(fld.q):
            assert values[(v0, v1)] == poly.eval_at((v0, v1, 1, 0))


@pytest.mark.parametrize("p, n", [(2, 16), (2, 17), (3, 10), (7, 6)])
def test_monomial_values_widen_narrow_logs(p, n):
    # exponents past q - 1 put the log of a zero past 2^16 at q = 2^16 and 3^10
    fld = make_field(p, n)
    q = fld.q
    rng = np.random.default_rng(q)
    points = rng.integers(0, q, (12, 3))
    points[:4] = [[0, 0, 0], [1, q - 1, 0], [q - 1, q - 2, 1], [0, 2, q - 1]]
    exps = [(q, 2 * q - 1, 0), (3, 0, q + 5), (0, 0, 0), (1, 1, 1), (2**40, 1, q - 1)]
    vals = monomial_values(fld, points, exps)
    assert vals.dtype == np.int64

    def power(x, e):  # x^e = x^(e mod (q - 1)) for x != 0, and 0^0 = 1
        return fld._pow_scalar_raw(x, e % (q - 1)) if x else int(e == 0)

    expected = []
    for pt in points.tolist():
        row = []
        for mono in exps:
            value = 1
            for x, e in zip(pt, mono):
                value = fld._mul_scalar_raw(value, power(x, e))
            row.append(value)
        expected.append(row)
    assert vals.tolist() == expected
