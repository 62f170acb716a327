"""Point enumeration, sections, lines, smoothness.

Frozen expected values for the quadric xw - yz over GF(7) (max section 15,
16 lines) were computed by the independent brute-force oracles kept in this
module, which re-run here against plain modular arithmetic.
"""

import collections
import functools
import itertools
import math
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from evalcodes import gf, gflinalg, projective
from evalcodes.bounds import CUBIC_CLASSES, predicted_Nr
from evalcodes.families import DegenerateInput, classify_cubic, del_pezzo4_fixture, shioda_surface
from evalcodes.gf import get_embedding, make_field
from evalcodes.poly import HomogPoly, monomials
from evalcodes.projective import (
    BudgetExceeded,
    Surface,
    canonical_order,
    count_rational_points,
    enumerate_points,
    iter_zero_point_batches,
    level_scan,
    lines_on_surface,
    normalize_rows,
    projective_space_size,
    rational_points,
    section_scan,
    surface_from_text,
    surface_to_text,
)

F7 = make_field(7)


def quadric_xw_yz():
    gen = HomogPoly.from_int_terms(F7, 4, 2, {(1, 0, 0, 1): 1, (0, 1, 1, 0): -1})
    return Surface(F7, 3, [gen], degree=2, sectional_genus=0)


def weierstrass_cubic():
    return HomogPoly.from_int_terms(F7, 3, 3, {(0, 2, 1): 1, (3, 0, 0): -1, (0, 0, 3): -3})


# -- independent oracles (plain ints, no library machinery) ---------------------


def brute_points_p3(q):
    pts = []
    for vec in itertools.product(range(q), repeat=4):
        nz = [i for i, c in enumerate(vec) if c]
        if nz and vec[max(nz)] == 1:
            pts.append(vec)
    return pts


def brute_quadric_value(pt):
    x, y, z, w = pt
    return (x * w - y * z) % 7


def enumerated_zeros(gens):
    """Oracle for rational_points that shares nothing with the chart loop:
    every point of P^r, each generator's eval_points, a mask, canonical
    order.  The points with x_r = 0 are enumerate_points(P^(r-1)); those
    with x_r = 1 come one x_0 value at a time, so P^4(F_49) is never held
    whole."""
    fld, r = gens[0].field, gens[0].nvars - 1
    q = fld.q
    at_infinity = enumerate_points(fld, r - 1)
    blocks = [np.column_stack([at_infinity, np.zeros(len(at_infinity), dtype=np.int64)])]
    middle = np.indices((q,) * (r - 1)).reshape(r - 1, q ** (r - 1)).T  # x_1 .. x_(r-1)
    ones = np.ones((len(middle), 1), dtype=np.int64)
    blocks += [np.hstack([x0 * ones, middle, ones]) for x0 in range(q)]
    zeros = []
    for pts in blocks:
        for g in gens:
            pts = pts[g.eval_points(pts) == 0]
        zeros.append(pts)
    zeros = np.concatenate(zeros)
    return zeros[np.lexsort(zeros.T[::-1])]


def test_point_counts_match_formula():
    for (p, n) in [(2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2), (11, 1)]:
        fld = make_field(p, n)
        for r in (1, 2, 3):
            assert len(enumerate_points(fld, r)) == projective_space_size(fld.q, r)


def test_point_enumeration_examples():
    assert len(enumerate_points(make_field(2), 2)) == 7
    assert len(enumerate_points(F7, 3)) == 400


def test_normalization():
    assert normalize_rows(F7, [(2, 3, 0)]).tolist() == [[3, 1, 0]]  # scale by 3^{-1} = 5
    with pytest.raises(ValueError):
        normalize_rows(F7, [(0, 0, 0)])


def test_enumeration_is_sorted_and_normalized():
    pts = enumerate_points(F7, 2)
    rows = [tuple(int(v) for v in r) for r in pts]
    assert rows == sorted(rows)
    for row in rows:
        nz = [i for i, c in enumerate(row) if c]
        assert row[max(nz)] == 1


def test_weierstrass_cubic_counts():
    cub = weierstrass_cubic()
    pts = rational_points([cub])
    assert len(pts) == 13
    assert count_rational_points([cub]) == 13
    assert cub.eval_at((0, 1, 0)) == 0
    # every returned point is a zero of the generator
    assert all(cub.eval_at(tuple(p)) == 0 for p in pts)


def test_count_matches_list_mode_over_extensions():
    quad = quadric_xw_yz()
    f49 = make_field(7, 2)
    listed = rational_points(quad.generators, f49)
    counted = count_rational_points(quad.generators, f49)
    assert len(listed) == counted == 2500  # (q^2+1)^2 over GF(q^2)


@st.composite
def cubic_surfaces(draw, min_q=2):
    """A nonzero cubic form over GF(2), GF(3), GF(4), GF(5) or GF(7), and r in {1, 2}."""
    p, n = draw(st.sampled_from([f for f in ((2, 1), (3, 1), (2, 2), (5, 1), (7, 1))
                                 if f[0] ** f[1] >= min_q]))
    fld = make_field(p, n)
    coeffs = draw(st.lists(st.integers(0, fld.q - 1), min_size=20, max_size=20).filter(any))
    cubic = HomogPoly(fld, 4, 3, dict(zip(monomials(4, 3), coeffs)))
    return Surface(fld, 3, [cubic], degree=3), draw(st.sampled_from([1, 2]))


def _over(surface, r):
    ext = make_field(surface.fld.p, surface.fld.n * r)
    return ext, [g.embed_coeffs(get_embedding(surface.fld, ext)) for g in surface.generators]


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(cubic_surfaces())
def test_zero_scan_matches_rational_points(case):
    surface, r = case
    ext, gens = _over(surface, r)
    listed = enumerated_zeros(gens)
    assert count_rational_points(gens) == len(listed)
    batches = [coords for _, coords in iter_zero_point_batches(ext, gens, 3)]
    scanned = np.concatenate(batches) if batches else np.zeros((0, 4), dtype=np.int64)
    assert np.array_equal(scanned[canonical_order(scanned)], listed)
    partials = [gens[0].partial_derivative(i) for i in range(4)]
    singular = listed[np.all([d.eval_points(listed) == 0 for d in partials], axis=0)]
    found = level_scan(surface, r)[1]
    assert np.array_equal(found[canonical_order(found)], singular)


@settings(max_examples=20, deadline=None, derandomize=True, database=None)
@given(cubic_surfaces(min_q=4), st.booleans())
def test_classifier_counts_match_rational_points(case, search):
    surface, r = case
    try:
        result = classify_cubic(surface, r, screen_depth=r if search else 0,
                                classes=tuple(CUBIC_CLASSES) if search else None)
    except DegenerateInput:
        return
    for level, n_r in result.observed.items():
        assert n_r == len(enumerated_zeros(_over(surface, level)[1]))


@functools.lru_cache(maxsize=None)
def _dp4_zeros(n):
    """The oracle's zeros of the del Pezzo-4 fixture over GF(7^n)."""
    return enumerated_zeros(del_pezzo4_fixture(make_field(7, n)).generators)


@st.composite
def zero_sets(draw):
    """(generators, extension field or None, the oracle's zeros): a drawn
    cubic over its field or GF(q^2), or the del Pezzo-4 fixture over GF(7)
    or GF(7^2)."""
    if draw(st.booleans()):
        surface, r = draw(cubic_surfaces())
        ext, gens = _over(surface, r)
        return surface.generators, ext if r > 1 else None, enumerated_zeros(gens)
    n = draw(st.sampled_from([1, 2]))
    return del_pezzo4_fixture(F7).generators, make_field(7, n) if n > 1 else None, _dp4_zeros(n)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(zero_sets(), st.sampled_from([16, 16 * 40, gf.CHUNK_ELEMS]))
def test_rational_points_match_the_enumerated_zeros(case, chunk_elems):
    # chart chunks of one x0 row, of 40 points (several short rows) and the default
    gens, ext, want = case
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(gf, "CHUNK_ELEMS", chunk_elems)
        got = rational_points(gens, ext)
    assert got.dtype == np.int64 and np.array_equal(got, want)


def test_rational_points_never_build_projective_space():
    # the chart loop's chunks and the zeros; P^4(F_49) as one array peaked
    # at 494 MiB
    fld = make_field(7, 2)
    gens = del_pezzo4_fixture(fld).generators
    pts, peak = _traced_peak(lambda: rational_points(gens))
    assert len(pts) == 2353 and peak < 24 << 20


def test_count_points_is_the_count_of_rational_points(dp4):
    # count_points goes through level_scan, which scans a cubic fiber by
    # fiber; count_rational_points counts the chart loop's zeros
    rng = random.Random(11)
    cubics = [Surface(F7, 3, [HomogPoly(F7, 4, 3, {e: rng.randrange(7) for e in monomials(4, 3)
                                                  if e != (0, 0, 0, 3) or lead})], degree=3)
              for lead in (True, False)]
    for surface in (dp4, shioda_surface(4, F7), *cubics):
        for r in (1, 2):
            ext = make_field(7, r)
            assert surface.count_points(r) == count_rational_points(surface.generators, ext)


# Monomials zeroed to force a degenerate shape on a drawn cubic: no w^3 puts
# O = (0:0:0:1) on X (a3 = 0), no w^3 or w^2 makes X singular at O, no w at
# all makes X a cone in w, and no monomial free of x makes F = x*G, so every
# fiber over the line x = 0 of P^2 vanishes identically.
CUBIC_SHAPES = {
    "general": lambda e: False,
    "O on X": lambda e: e[3] == 3,
    "singular at O": lambda e: e[3] >= 2,
    "cone in w": lambda e: e[3] >= 1,
    "zero fibers": lambda e: e[0] == 0,
}


@st.composite
def shaped_cubics(draw, fld):
    """A nonzero cubic over fld of a uniform CUBIC_SHAPES shape, its kept
    coefficients uniform."""
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    dropped = CUBIC_SHAPES[rng.choice(sorted(CUBIC_SHAPES))]
    basis = [e for e in monomials(4, 3) if not dropped(e)]
    coeffs = [rng.randrange(fld.q) for _ in basis]
    assume(any(coeffs))
    return Surface(fld, 3, [HomogPoly(fld, 4, 3, dict(zip(basis, coeffs)))], degree=3)


def _grid_level_scan(surface, r):
    """N_r and the singular zeros of a hypersurface in the grid's order, from
    iter_zero_point_batches and the Jacobian."""
    ext, gens = _over(surface, r)
    partials = [gens[0].partial_derivative(i) for i in range(4)]
    count, bad = 0, []
    for _, coords in iter_zero_point_batches(ext, gens, 3):
        count += len(coords)
        bad.append(coords[np.all([d.eval_points(coords) == 0 for d in partials], axis=0)])
    return count, np.concatenate(bad) if bad else np.zeros((0, 4), dtype=np.int64)


@pytest.mark.parametrize("r", [1, 2])
@pytest.mark.parametrize("field", [(2, 2), (5, 1), (7, 1), (2, 3), (11, 1)], ids=lambda f: f"q{f[0] ** f[1]}")
@settings(max_examples=20, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_fibered_scan_matches_the_grid(field, r, data):
    surface = data.draw(shaped_cubics(make_field(*field)))
    count, singular = level_scan(surface, r)
    want_count, want_singular = _grid_level_scan(surface, r)
    assert count == want_count
    assert singular.dtype == want_singular.dtype
    assert np.array_equal(singular, want_singular)  # element for element, in order
    assert level_scan(surface, r, singular=False)[0] == count


@pytest.mark.parametrize("shape", sorted(CUBIC_SHAPES))
def test_fibered_scan_in_small_chunks_equals_one_chunk(monkeypatch, shape):
    fld = make_field(11)
    rng = random.Random(shape)
    basis = [e for e in monomials(4, 3) if not CUBIC_SHAPES[shape](e)]
    surface = Surface(fld, 3, [HomogPoly(fld, 4, 3, {e: rng.randrange(1, 11) for e in basis})], degree=3)
    results = []
    for chunk in (10**9, 1, 500):  # chart chunk points: one chunk per chart; one row of P^2; rows of 4
        monkeypatch.setattr(gf, "CHUNK_ELEMS", 16 * chunk)
        results.append([level_scan(surface, r) for r in (1, 2)])
    for got in results[1:]:
        for (count, singular), (want_count, want_singular) in zip(got, results[0]):
            assert count == want_count
            assert np.array_equal(singular, want_singular)


def test_fibered_scan_peak_does_not_depend_on_a3():
    # GF(7^3) fibers, as in a depth-3 search over GF(7); unchunked, the scan
    # peaked at 7.5 MB with a3 = 0 and 4.5 MB otherwise
    fld = make_field(7)
    rng = random.Random(3)
    coeffs = {e: rng.randrange(1, 7) for e in monomials(4, 3)}
    peaks = []
    for a3 in (0, 1):
        surface = Surface(fld, 3, [HomogPoly(fld, 4, 3, {**coeffs, (0, 0, 0, 3): a3})], degree=3)
        level_scan(surface, 3)  # builds and caches GF(7^3)
        tracemalloc.start()
        try:
            level_scan(surface, 3)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert max(peaks) < 3 << 20


def test_level_scan_checks_its_budget_before_building_the_extension():
    # P^3 over GF(53^3) has about 3.3 * 10^15 points, past the default
    # budget, and GF(53^3) lies beyond the field cap: building the field
    # first would turn the budget note of a classification into a ValueError
    fld = make_field(53)
    fermat = HomogPoly.from_int_terms(fld, 4, 3, {e: 1 for e in monomials(4, 3) if max(e) == 3})
    surface = Surface(fld, 3, [fermat], degree=3)
    for scan in (lambda: level_scan(surface, 3), lambda: surface.count_points(3)):
        with pytest.raises(BudgetExceeded):
            scan()
    assert not any(key[:2] == (53, 3) for key in gf._FIELD_CACHE)


def _traced_peak(fn):
    """(fn(), its tracemalloc peak in bytes)."""
    tracemalloc.start()
    try:
        out = fn()
        return out, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_grid_scans_hold_a_few_chunk_budgets(f11, shioda4_q11):
    # chart chunks of CHUNK_ELEMS // 16 points (one x0 row at least); at
    # 4e6 points a chunk these peaked at 127 MiB and 41 MiB
    budget = 2 << 20  # CHUNK_ELEMS int64 values
    shioda = shioda_surface(4, F7)
    ext = make_field(7, 3)
    get_embedding(F7, ext)
    count, peak = _traced_peak(lambda: count_rational_points(shioda.generators, ext))
    assert count == 118_336 and peak < 8 * budget
    get_embedding(f11, make_field(11, 2))
    (count, singular), peak = _traced_peak(lambda: level_scan(shioda4_q11, 2))
    assert count == 15_126 and len(singular) == 0 and peak < 2 * budget


def test_fibered_scan_finds_the_forced_singular_points():
    f5 = make_field(5)
    # a cone in w over the nodal cubic y^2 z = x^3 + x^2 z: the vertex O and
    # the line through O and the node (0:0:1) are singular
    cone = HomogPoly.from_int_terms(f5, 4, 3, {(0, 2, 1, 0): 1, (3, 0, 0, 0): -1, (2, 0, 1, 0): -1})
    surface = Surface(f5, 3, [cone], degree=3)
    count, singular = level_scan(surface, 1)
    assert count == _grid_level_scan(surface, 1)[0]
    assert singular.tolist() == [[0, 0, 1, 0], [0, 0, 0, 1], [0, 0, 1, 1],
                                 [0, 0, 2, 1], [0, 0, 3, 1], [0, 0, 4, 1]]


# A cubic over GF(3) and GF(9), and a cone over a plane cubic; counts and
# singular rows were written by the grid scan before fibered counting existed.
CHAR3_TERMS = {(2, 1, 0, 0): 1, (0, 2, 1, 0): 1, (0, 0, 2, 1): 1, (1, 0, 0, 2): 1, (1, 1, 1, 0): 1}
CHAR3_CONE = {(3, 0, 0, 0): 1, (0, 2, 1, 0): 1, (1, 1, 1, 0): -1}
CHAR3_COUNTS = {  # (q, r) -> (N_r of CHAR3_TERMS, N_r of CHAR3_CONE, its singular rows)
    (3, 1): (16, 10, 4), (3, 2): (118, 82, 10), (9, 1): (118, 82, 10), (9, 2): (6886, 6562, 82),
}


def test_characteristic_three_keeps_the_grid(monkeypatch):
    def refuse(*args):
        raise AssertionError("a characteristic-3 cubic reached the fibered scan")

    monkeypatch.setattr(projective, "_fibered_cubic_scan", refuse)
    for (q, r), (n_smooth, n_cone, n_singular) in CHAR3_COUNTS.items():
        fld = make_field(3, 1 if q == 3 else 2)
        smooth = Surface(fld, 3, [HomogPoly.from_int_terms(fld, 4, 3, CHAR3_TERMS)], degree=3)
        cone = Surface(fld, 3, [HomogPoly.from_int_terms(fld, 4, 3, CHAR3_CONE)], degree=3)
        count, singular = level_scan(smooth, r)
        assert (count, len(singular)) == (n_smooth, 0)
        count, singular = level_scan(cone, r)
        assert (count, len(singular)) == (n_cone, n_singular)
        assert singular[:2].tolist() == [[0, 0, 1, 0], [0, 0, 0, 1]]


@pytest.mark.parametrize("budget", [16, 16 * 40])  # chart chunks of one x0 row, of 40 points
def test_grid_scan_in_small_chunks_equals_one_chunk(monkeypatch, dp4, budget):
    # the Jacobian takes the zeros of several grid chunks at once
    fld = make_field(3, 2)
    cone = Surface(fld, 3, [HomogPoly.from_int_terms(fld, 4, 3, CHAR3_CONE)], degree=3)
    cases = [(cone, 1), (cone, 2), (dp4, 1), (dp4, 2)]
    monkeypatch.setattr(gf, "CHUNK_ELEMS", 10**9)
    whole = [level_scan(surface, r) for surface, r in cases]
    monkeypatch.setattr(gf, "CHUNK_ELEMS", budget)
    for (surface, r), (count, singular) in zip(cases, whole):
        got_count, got_singular = level_scan(surface, r)
        assert got_count == count and got_singular.tolist() == singular.tolist()
    assert [len(singular) for _, singular in whole] == [10, 82, 0, 0]


def test_fibered_scan_checks_the_budget_first(monkeypatch, c12_sample):
    def refuse(*args):
        raise AssertionError("root tables built past the budget")

    monkeypatch.setattr(projective, "_root_tables", refuse)
    with pytest.raises(BudgetExceeded):
        level_scan(c12_sample.surface, 3, max_enum=projective_space_size(343, 3) - 1)


def test_classifier_budget_note_is_unchanged(c12_sample):
    # the note and the depth it names, as the grid scan gave them
    surface = c12_sample.surface
    for max_enum, depth in ((399, 0), (400, 1), (120_099, 1), (120_100, 2), (40_471_599, 2)):
        for screen in (0, 3):
            result = classify_cubic(surface, 3, screen_depth=screen, max_enum=max_enum)
            assert result.note == f"extension counting stopped at r={depth} (budget)"
            assert result.observed == {r: predicted_Nr("C12", 7, r) for r in range(1, depth + 1)}
            assert result.screened_depth == (depth if screen else 0)


def test_c12_sample_counts_are_the_class_counts(c12_sample):
    # c12_sample is sample_cayley_salmon(GF(7), 1)
    surface = c12_sample.surface
    for r in (1, 2, 3):
        count, singular = level_scan(surface, r)
        assert count == predicted_Nr("C12", 7, r) and len(singular) == 0
    assert count_rational_points(surface.generators) == predicted_Nr("C12", 7, 1)


def test_frobenius_stability_of_point_sets():
    quad = quadric_xw_yz()
    f49 = make_field(7, 2)
    pts = rational_points(quad.generators, f49)
    conj = f49.frobenius(pts)
    # renormalize conjugated rows and compare as sets
    conj = normalize_rows(f49, conj)
    a = {tuple(int(v) for v in r) for r in pts}
    b = {tuple(int(v) for v in r) for r in conj}
    assert a == b


def test_section_scan_quadric_oracle():
    quad = quadric_xw_yz()
    scan = section_scan(quad)
    assert scan.total_hyperplanes == 400
    assert sum(scan.histogram.values()) == 400
    assert scan.max_count == 15  # two crossing lines: 2(q+1) - 1
    # independent oracle: plain loops over normalized hyperplanes and points
    pts = [p for p in brute_points_p3(7) if brute_quadric_value(p) == 0]
    best = 0
    for h in brute_points_p3(7):
        inc = sum(1 for p in pts if sum(a * b for a, b in zip(h, p)) % 7 == 0)
        best = max(best, inc)
    assert best == 15


def test_section_scan_matches_direct_section_counts():
    cub = Surface(F7, 3, [HomogPoly.from_int_terms(
        F7, 4, 3, {(1, 1, 1, 0): 1, (0, 0, 0, 3): -1})], degree=3)
    scan = section_scan(cub)
    hyps = enumerate_points(F7, 3)
    rng = random.Random(2)
    picks = rng.sample(range(len(hyps)), 20)
    # the section X ∩ H counted as the zeros of the cubic and H together
    counts = {i: len(rational_points([cub.generators[0], HomogPoly.linear(F7, hyps[i])]))
              for i in picks}
    assert max(counts.values()) <= scan.max_count
    # scan counts per hyperplane: recompute incidence directly
    pts = cub.points()
    for i, expect in counts.items():
        h = hyps[i]
        vals = [sum(int(a) * int(b) for a, b in zip(h, p)) % 7 for p in pts]
        assert vals.count(0) == expect


def test_section_scan_takes_incidence_blocks(monkeypatch, dp6_q7):
    # blocks of CHUNK_ELEMS // n hyperplanes, generated chart by chart; the
    # whole 137,257 x 57 incidence matrix at once peaked at 82 MiB, and the
    # whole sorted dual space (7.7 MB) at 15.7 MiB
    scan, peak = _traced_peak(lambda: section_scan(dp6_q7))
    assert peak < 8 << 20
    # oracle: the whole dual space in canonical order, counted block by block
    hyps, pts = enumerate_points(F7, 6), dp6_q7.points()
    counts = np.concatenate([(gflinalg.matmul(F7, hyps[lo:lo + 4096], pts.T) == 0).sum(axis=1)
                             for lo in range(0, len(hyps), 4096)])
    assert scan.histogram == dict(collections.Counter(counts.tolist()))
    assert (scan.max_count, scan.total_hyperplanes) == (counts.max(), len(hyps))
    best = hyps[counts == counts.max()]
    assert scan.witnesses.tolist() == best[:16].tolist()
    # one block, then blocks in every chart, keeping 3 witnesses or all
    for budget, keep in ((1 << 40, 16), (57 * 1000, 16), (57 * 97, 3), (57 * 97, len(hyps))):
        monkeypatch.setattr(gf, "CHUNK_ELEMS", budget)
        other = section_scan(dp6_q7, max_witnesses=keep)
        assert (other.histogram, other.max_count) == (scan.histogram, scan.max_count)
        assert other.witnesses.tolist() == best[:keep].tolist()


def test_lines_on_quadric_oracle():
    quad = quadric_xw_yz()
    lines = lines_on_surface(quad)
    assert len(lines) == 16
    # oracle: all lines of P^3(F_7) as point-pair spans, deduplicated
    pts = brute_points_p3(7)
    on_quadric = set()
    seen = set()
    for i in range(len(pts)):
        for j in range(i + 1, len(pts)):
            span = set()
            for a in range(7):
                vec = tuple((a * u + v) % 7 for u, v in zip(pts[i], pts[j]))
                nz = [t for t, c in enumerate(vec) if c]
                inv = pow(vec[max(nz)], 5, 7)
                span.add(tuple(c * inv % 7 for c in vec))
            vec = pts[i]
            span.add(vec)
            key = frozenset(span)
            if key in seen:
                continue
            seen.add(key)
            if all(brute_quadric_value(p) == 0 for p in span):
                on_quadric.add(key)
    assert len(seen) == 2850  # (q^2+1)(q^2+q+1)
    assert len(on_quadric) == 16


def test_lines_on_two_generators():
    # xw - yz and x cut the line pair x=y=0, x=z=0; candidates that fail the
    # quadric's samples are never tested against x
    x = HomogPoly.from_int_terms(F7, 4, 1, {(1, 0, 0, 0): 1})
    surface = Surface(F7, 3, [quadric_xw_yz().generators[0], x], degree=2, sectional_genus=0)
    lines = lines_on_surface(surface)
    assert lines.tolist() == [[[0, 1, 0, 0], [0, 0, 0, 1]], [[0, 0, 1, 0], [0, 0, 0, 1]]]


def _brute_lines(surface):
    """The lines of P^3(F_p), p prime, on all of whose p + 1 points every
    generator vanishes, in plain ints and in the search's order."""
    p = surface.fld.p

    def value(g, pt):
        return sum(c * math.prod(x**e for x, e in zip(pt, exps)) for exps, c in g.terms.items()) % p

    out = []
    for u, v in _reference_lines(p, 3):
        points = [v] + [[(a + c * b) % p for a, b in zip(u, v)] for c in range(p)]
        if all(value(g, pt) == 0 for g in surface.generators for pt in points):
            out.append([u, v])
    return out


def test_line_search_over_gf3_matches_every_point_of_every_line():
    # a cubic's deg + 1 = 4 samples per line need q >= 3, not q >= 4
    f3 = make_field(3)
    rng = random.Random(3)
    basis = monomials(4, 3)
    five = HomogPoly.from_int_terms(f3, 4, 3, {(1, 0, 2, 0): 1, (0, 1, 0, 2): 1, (1, 1, 1, 0): 2})  # xz^2 + yw^2 + 2xyz
    cubics = [five] + [HomogPoly(f3, 4, 3, {e: rng.randrange(1, 3) for e in rng.sample(basis, 6)}) for _ in range(8)]
    cubics += [HomogPoly(f3, 4, 1, {e: rng.randrange(1, 3) for e in rng.sample(monomials(4, 1), 2)})
               * HomogPoly(f3, 4, 2, {e: rng.randrange(1, 3) for e in rng.sample(monomials(4, 2), 4)})
               for _ in range(4)]  # a plane and a quadric: many lines
    found = []
    for cubic in cubics:
        surface = Surface(f3, 3, [cubic], degree=3)
        found.append(lines_on_surface(surface).tolist())
        assert found[-1] == _brute_lines(surface)
    assert len(found[0]) == 5 and min(len(lines) for lines in found[-4:]) >= 13
    f2 = make_field(2)
    with pytest.raises(ValueError, match="need q >= deg = 3"):
        lines_on_surface(Surface(f2, 3, [HomogPoly.from_int_terms(f2, 4, 3, {(1, 0, 2, 0): 1, (0, 1, 0, 2): 1})]))


def _reference_lines(q, r):
    """The lines of P^r(F_q) block by block, in plain ints: pivot columns
    (c1, c2) ascending, then the free entries as base-q digits of the index
    in the block, those of the first row fastest."""
    out = []
    for c1, c2 in itertools.combinations(range(r + 1), 2):
        cells = [(0, j) for j in range(c1 + 1, r + 1) if j != c2] + [(1, j) for j in range(c2 + 1, r + 1)]
        for index in range(q ** len(cells)):
            line = [[int(j == c1) for j in range(r + 1)], [int(j == c2) for j in range(r + 1)]]
            for row, j in cells:
                index, line[row][j] = divmod(index, q)
            out.append(line)
    return out


@pytest.mark.parametrize("q, r", [(2, 4), (3, 3), (5, 2)])
def test_line_chunks_run_across_pivot_blocks(q, r):
    reference = _reference_lines(q, r)
    for size in (1, 7, 31, len(reference), 10**6):
        chunks = list(projective._line_chunks(q, r, size))
        assert [len(c) for c in chunks[:-1]] == [size] * (len(chunks) - 1)
        assert 0 < len(chunks[-1]) <= size
        assert np.concatenate(chunks).tolist() == reference


def test_chunked_line_search_equals_one_chunk(monkeypatch, dp4):
    # 1009 lines a chunk cut the pivot blocks of P^4 over GF(7) (7^k lines
    # each) at many places; the quadric cone xw - yz in P^4 has lines in 8
    # of the 10 blocks, the dp4 fixture has none
    cone = Surface(F7, 4, [quadric_xw_yz().generators[0].pad_vars(5)])
    found = []
    for surface in (cone, dp4):
        terms = max(len(g.terms) for g in surface.generators)
        monkeypatch.setattr(gf, "CHUNK_ELEMS", 10**9)
        whole = lines_on_surface(surface)
        monkeypatch.setattr(gf, "CHUNK_ELEMS", 1009 * terms)
        chunked = lines_on_surface(surface)
        assert chunked.shape == whole.shape and chunked.tolist() == whole.tolist()
        found.append(chunked)
    pivot_pairs = {tuple(np.argmax(line != 0, axis=1)) for line in found[0]}
    assert len(pivot_pairs) == 8 and len(found[1]) == 0


def test_line_search_holds_a_few_chunk_budgets(dp4):
    # the 140,050 candidate lines of P^4 over GF(7) in chunks of
    # CHUNK_ELEMS // terms lines
    lines, peak = _traced_peak(lambda: lines_on_surface(dp4))
    assert len(lines) == 0 and peak < 12 << 20  # 6 budgets of 2 MiB


def test_line_budget_is_checked_before_any_line_is_built():
    cubic = Surface(F7, 3, [HomogPoly.from_int_terms(F7, 4, 3, {(3, 0, 0, 0): 1, (0, 0, 0, 3): 1})], degree=3)
    tracemalloc.start()
    try:
        with pytest.raises(BudgetExceeded, match="2850 candidate lines"):
            lines_on_surface(cubic, max_lines=2849)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16_000
    # x^3 + w^3 = 0 is three planes over GF(7), all through the line x = w = 0
    assert len(lines_on_surface(cubic, max_lines=2850)) == 3 * 57 - 2


def _rank_below_rows(fld, mats):
    """Oracle: per (c, m) matrix of the stack, whether gflinalg.rank < c."""
    return np.array([gflinalg.rank(fld, m) < len(m) for m in mats])


def _jacobians(gens, pts):
    """The (npts, c, r+1) stack of the generators' Jacobians at pts."""
    return np.array([[d.eval_points(pts) for d in map(g.partial_derivative, range(g.nvars))]
                     for g in gens]).transpose(2, 0, 1)


def _minors_vanish_on(fld, mats):
    return projective._minors_vanish(fld, [list(row) for row in mats.transpose(1, 2, 0)])


@pytest.mark.parametrize("n", [1, 2])
def test_vanishing_minors_match_the_rank_on_dp4(n):
    # every point of P^4(F_7), and over GF(49) the 2353 zeros and 3000 random points
    fld = make_field(7, n)
    gens = del_pezzo4_fixture(fld).generators
    rng = np.random.default_rng(n)
    pts = enumerate_points(fld, 4) if n == 1 else np.vstack([_dp4_zeros(2), rng.integers(0, fld.q, (3000, 5))])
    mats = _jacobians(gens, pts)
    assert np.array_equal(_minors_vanish_on(fld, mats), _rank_below_rows(fld, mats))


@settings(max_examples=15, deadline=None, derandomize=True, database=None)
@given(cubic_surfaces())
def test_vanishing_minors_match_the_rank_on_cubics(case):
    surface, _ = case
    fld = surface.fld
    mats = _jacobians(surface.generators, enumerate_points(fld, 3))
    assert np.array_equal(_minors_vanish_on(fld, mats), _rank_below_rows(fld, mats))


@pytest.mark.parametrize("spec", [(7, 1), (3, 2), (2, 3)], ids=["q7", "q9", "q8"])
@pytest.mark.parametrize("c, m", [(1, 4), (2, 2), (2, 5), (3, 3), (3, 5)])
def test_vanishing_minors_match_the_rank_on_chosen_matrices(spec, c, m):
    # 0/1 matrices with a single nonzero c x c minor (each column set once)
    # catch a dropped minor; matrices of rank < c whose terms do not cancel
    # in pairs of equal sign catch a flipped sign (outside characteristic 2)
    fld = make_field(*spec)
    rng = np.random.default_rng(c * 10 + m)
    units = np.zeros((math.comb(m, c), c, m), dtype=np.int64)
    for k, cols in enumerate(itertools.combinations(range(m), c)):
        units[k, range(c), cols] = 1
    full = rng.integers(0, fld.q, (300, c, m))
    low = full.copy()
    low[:, -1] = gflinalg.matmul(fld, rng.integers(0, fld.q, (300, 1, c - 1)), full[:, :-1]).reshape(300, m) \
        if c > 1 else 0
    mats = np.concatenate([units, full, low])
    want = _rank_below_rows(fld, mats)
    assert not want[:len(units)].any() and want[-300:].all()
    assert np.array_equal(_minors_vanish_on(fld, mats), want)


def test_singular_points_examples(dp4):
    quad = quadric_xw_yz()
    assert all(len(level_scan(quad, r)[1]) == 0 for r in (1, 2))
    mono3 = Surface(F7, 3, [HomogPoly.from_int_terms(
        F7, 4, 3, {(1, 1, 1, 0): 1, (0, 0, 0, 3): -1})], degree=3)
    got = {tuple(int(v) for v in row) for row in level_scan(mono3, 1)[1]}
    assert got == {(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0)}
    # del Pezzo-4 fixture is smooth at screening level 2
    assert all(len(level_scan(dp4, r)[1]) == 0 for r in (1, 2))


def test_budget_errors():
    with pytest.raises(BudgetExceeded):
        enumerate_points(F7, 3, max_points=10)
    with pytest.raises(BudgetExceeded, match=r"P\^3\(F_49\) has 120100 points, budget is 120099"):
        rational_points([quadric_xw_yz().generators[0]], make_field(7, 2), max_points=120_099)
    with pytest.raises(BudgetExceeded):
        count_rational_points([weierstrass_cubic()], make_field(7, 6), max_enum=1000)


def test_surface_text_roundtrip(dp4):
    for surf in (quadric_xw_yz(), dp4):
        text = surface_to_text(surf)
        back = surface_from_text(text)
        assert back.ambient == surf.ambient
        assert [g.terms for g in back.generators] == [g.terms for g in surf.generators]
        assert surface_to_text(back) == text
    # extension-field coefficients round-trip digit-wise
    f9 = make_field(3, 2)
    gen = HomogPoly(f9, 3, 2, {(2, 0, 0): 5, (0, 1, 1): 1})
    s9 = Surface(f9, 2, [gen], degree=2)
    back = surface_from_text(surface_to_text(s9))
    assert back.generators[0].terms == gen.terms
    assert back.fld is f9
