"""Homogeneous polynomial algebra and the grid evaluator."""

import random

import numpy as np
import pytest

from evalcodes.gf import make_field
from evalcodes.poly import (
    HomogPoly,
    dehomogenize,
    eval_affine_grid_chunks,
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
