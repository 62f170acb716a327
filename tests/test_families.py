"""Surface families: fixtures, samplers, classifier, Del Pezzo machinery."""

import dataclasses
import random

import numpy as np
import pytest

from evalcodes import families, gflinalg
from evalcodes.bounds import delpezzo6_Nr, predicted_Nr
from evalcodes.codes import build_code, min_distance
from evalcodes.families import (
    DegenerateInput,
    classify_cubic,
    del_pezzo6,
    frobenius_orbit,
    geometric_witness_dp6,
    random_cubic_search,
    sample_cayley_salmon,
    shioda_surface,
    van_luijk_surface,
)
from evalcodes.gf import get_embedding, make_field
from evalcodes.poly import HomogPoly, monomials
from evalcodes.projective import (
    Surface,
    canonical_order,
    count_rational_points,
    level_scan,
    lines_on_surface,
    normalize_rows,
)

F7 = make_field(7)


# -- fixed fixtures -----------------------------------------------------------


def test_dp4_fixture(dp4):
    assert dp4.count_points(1) == 57
    assert len(lines_on_surface(dp4)) == 0
    assert dp4.sectional_genus == 1


def test_shioda_surfaces(shioda4_q11, shioda5_q9):
    assert shioda4_q11.count_points(1) == 144
    assert shioda4_q11.sectional_genus == 3
    assert len(lines_on_surface(shioda4_q11)) == 0
    assert shioda5_q9.count_points(1) == 91
    assert shioda5_q9.sectional_genus == 6
    assert len(lines_on_surface(shioda5_q9)) == 0
    with pytest.raises(ValueError):
        shioda_surface(3, F7)


def test_shioda_codes(shioda4_q11, shioda5_q9):
    c4 = build_code(shioda4_q11, 1)
    d4 = min_distance(c4, "exhaustive")
    assert (c4.n, c4.k, d4.d) == (144, 4, 120)
    c5 = build_code(shioda5_q9, 1)
    d5 = min_distance(c5, "exhaustive")
    assert (c5.n, c5.k, d5.d) == (91, 4, 71)


def test_van_luijk_construction():
    surf = van_luijk_surface({}, F7)
    assert surf.degree == 4 and surf.sectional_genus == 3
    code = build_code(surf, 1)
    assert code.k == 4
    with pytest.raises(ValueError):
        van_luijk_surface({}, make_field(2, 1))
    with pytest.raises(ValueError):
        van_luijk_surface({}, make_field(3, 1))


def test_van_luijk_random_samples_mostly_smooth_level1():
    # statistical: most sampled quartics pass the cheap screening level
    rng = random.Random(77)
    basis = monomials(4, 4)
    passed = 0
    total = 20
    for _ in range(total):
        h = HomogPoly(F7, 4, 4, {m: rng.randrange(7) for m in basis})
        surf = van_luijk_surface(h, F7)
        passed += len(level_scan(surf, 1)[1]) == 0
        code = build_code(surf, 1)
        assert code.k == 4  # sample-independent
    assert passed > total // 2


def test_van_luijk_sample_smooth_level2():
    rng = random.Random(78)
    basis = monomials(4, 4)
    h = HomogPoly(F7, 4, 4, {m: rng.randrange(7) for m in basis})
    surf = van_luijk_surface(h, F7)
    # this particular seed passes the level-2 screen
    assert all(len(level_scan(surf, r)[1]) == 0 for r in (1, 2))


# -- cubic classifier -----------------------------------------------------------


def test_classifier_rejects_cubic_with_rational_line():
    # x*q1 + y*q2 contains the line x = y = 0
    rng = random.Random(3)
    basis2 = monomials(4, 2)
    q1 = HomogPoly(F7, 4, 2, {m: rng.randrange(7) for m in basis2})
    q2 = HomogPoly(F7, 4, 2, {m: rng.randrange(7) for m in basis2})
    x = HomogPoly.variable(F7, 4, 0)
    y = HomogPoly.variable(F7, 4, 1)
    cubic = x * q1 + y * q2
    surf = Surface(F7, 3, [cubic], degree=3, sectional_genus=1)
    result = classify_cubic(surf, 1)
    assert result.matched == "not-rho-one-consistent"
    assert result.line_count >= 1


def test_classifier_on_c12_sample(c12_sample):
    cls = c12_sample.classification
    assert cls.matched == "C12"
    assert cls.observed == {r: predicted_Nr("C12", 7, r) for r in (1, 2, 3)}
    assert cls.line_count == 0
    # standalone classifier agrees with the sampler's fused path
    standalone = classify_cubic(c12_sample.surface, 2)
    assert standalone.matched == "C12"
    assert standalone.observed == {1: 64, 2: 2304}


def test_classifier_search_stops_when_no_searched_class_fits(c12_sample):
    # a search for C14 stops after N_1, yet the label ranges over all classes
    cls = classify_cubic(c12_sample.surface, 3, screen_depth=3, classes=("C14",))
    assert cls.observed == {1: 64}
    assert cls.checked_depth == 1
    assert cls.matched == "C12"


def test_classifier_requires_cubic(dp4):
    with pytest.raises(ValueError):
        classify_cubic(dp4)


def test_classifier_identifies_c10():
    # a fixed conjugate-plane form draw that lands in the 43-point class:
    # no lines, counts matching q^2 - q + 1 and its r = 2 continuation
    surface = families._cayley_salmon_surface(F7, [269, 47, 143], [3, 0, 38, 30])
    cls = classify_cubic(surface, 2, screen_depth=1, max_enum=families._SEARCH_MAX_ENUM)
    assert cls.matched == "C10"
    assert cls.observed == {1: 43, 2: 2451} == {r: predicted_Nr("C10", 7, r) for r in (1, 2)}
    assert cls.line_count == 0


# -- Cayley-Salmon ----------------------------------------------------------------


def test_cayley_salmon_degenerate_inputs():
    f3 = make_field(7, 3)
    f2 = make_field(7, 2)
    with pytest.raises(DegenerateInput):
        families._cayley_salmon_surface(F7, [1, 2, 3], [0, 1, 2, 3])  # L rational over GF(7)
    with pytest.raises(DegenerateInput):
        families._cayley_salmon_surface(F7, [f3.p, 1, 0], [1, 2, 3, 4])  # M rational
    with pytest.raises(DegenerateInput):
        families._cayley_salmon_surface(F7, [0, 0, 0], [1, 2, 3, 4])


def _cayley_salmon_over_gf_q6(fld, l_coeffs, m_coeffs):
    """The conjugate-plane cubic L L^s L^s^2 - w M M^s formed in GF(q^6) and
    descended from there: an independent construction to compare against."""
    n0 = fld.n
    f3, f2, f6 = make_field(fld.p, 3 * n0), make_field(fld.p, 2 * n0), make_field(fld.p, 6 * n0)
    l_coeffs, m_coeffs = np.asarray(l_coeffs), np.asarray(m_coeffs)
    if not l_coeffs.any() or not m_coeffs.any():
        raise DegenerateInput("zero linear form")
    for coeffs, ext, name in ((l_coeffs, f3, "L"), (m_coeffs, f2, "M")):
        if get_embedding(fld, ext).contains(normalize_rows(ext, coeffs[None, :])[0]):
            raise DegenerateInput(f"{name} is proportional to a GF(q) form")
    l6 = HomogPoly.linear(f6, get_embedding(f3, f6).embed(l_coeffs)).pad_vars(4)
    m6 = HomogPoly.linear(f6, get_embedding(f2, f6).embed(m_coeffs))
    lhs = l6 * l6.frobenius_coeffs(n0) * l6.frobenius_coeffs(2 * n0)
    rhs = HomogPoly.variable(f6, 4, 3) * m6 * m6.frobenius_coeffs(n0)
    return (lhs - rhs).descend_coeffs(get_embedding(fld, f6))


def _outcome(build, fld, l_coeffs, m_coeffs):
    try:
        return build(fld, l_coeffs, m_coeffs)
    except DegenerateInput as exc:
        return str(exc)


@pytest.mark.parametrize("spec", [(2, 1), (3, 1), (2, 2), (5, 1), (7, 1)])
def test_cayley_salmon_matches_the_gf_q6_construction(spec):
    # the same cubic, or the same DegenerateInput message, on every seeded
    # draw: 200 drawn as the sampler draws, then 100 from small coordinate
    # ranges, so that proportional and zero forms turn up at every q
    fld = make_field(*spec)
    q = fld.q
    rng = random.Random(2024 + q)
    degenerate = 0
    for draw in range(300):
        top = (q**3, q**2) if draw < 200 else (q, q)
        l_coeffs = [rng.randrange(top[0]) for _ in range(3)]
        m_coeffs = [rng.randrange(top[1]) for _ in range(4)]
        want = _outcome(_cayley_salmon_over_gf_q6, fld, l_coeffs, m_coeffs)
        got = _outcome(families._cayley_salmon_surface, fld, l_coeffs, m_coeffs)
        if isinstance(want, str):
            degenerate += 1
            assert got == want, (l_coeffs, m_coeffs)
        else:
            assert got.generators[0] == want, (l_coeffs, m_coeffs)
    assert 0 < degenerate < 300


def test_cayley_salmon_builds_no_field_beyond_gf_q3(monkeypatch):
    made, embedded = [], []

    def record_field(p, n=1, modulus=None):
        made.append(p**n)
        return make_field(p, n, modulus)

    def record_embedding(source, target):
        embedded.append((source.q, target.q))
        return get_embedding(source, target)

    monkeypatch.setattr(families, "make_field", record_field)
    monkeypatch.setattr(families, "get_embedding", record_embedding)
    for fld in (F7, make_field(2, 3)):
        q = fld.q
        surface = families._cayley_salmon_surface(fld, [q + 2, 1, q * q], [q, 1, 0, 1])
        assert surface.fld is fld
        assert max(made) == q**3
        assert set(embedded) == {(q, q**3), (q, q**2)}
        made.clear()
        embedded.clear()


def test_cayley_salmon_c12_over_gf8(f8):
    # forming the cubic in GF(q^6) would need GF(2^18), which has no log tables
    sample = sample_cayley_salmon(f8, seed=1)
    assert sample.classification.matched == "C12"
    assert sample.classification.observed == {r: predicted_Nr("C12", 8, r) for r in (1, 2, 3)}


def test_cayley_salmon_coefficients_descend(c12_sample):
    # Frobenius-invariance by construction: the surface generator exists over
    # GF(7) at all (descent already asserted inside); spot-check that the
    # section by w = 0, the ternary form of the w-free terms, splits into
    # three conjugate lines over GF(7^3) and has no GF(7) part.  Over
    # GF(343) an absolutely irreducible cubic has at most 343 + 1 + 37 = 381
    # points and a conic plus a line at most 2 * 344 = 688, so 1029 = 3 * 343
    # points force three non-concurrent lines; with no GF(7) point, none of
    # them is defined over GF(7)
    cubic = c12_sample.surface.generators[0]
    sec = HomogPoly(F7, 3, 3, {e[:3]: c for e, c in cubic.terms.items() if e[3] == 0})
    assert count_rational_points([sec]) == 0
    assert count_rational_points([sec], make_field(7, 3)) == 1029


def test_cayley_salmon_determinism():
    a = sample_cayley_salmon(F7, seed=3, classify_depth=1, screen_depth=1)
    b = sample_cayley_salmon(F7, seed=3, classify_depth=1, screen_depth=1)
    assert a.surface.generators[0].terms == b.surface.generators[0].terms


def test_c12_codes(c12_sample):
    c1 = build_code(c12_sample.surface, 1)
    assert (c1.n, c1.k) == (64, 4)
    d1 = min_distance(c1, "exhaustive")
    assert d1.d == 51


# -- random search -----------------------------------------------------------------


def test_random_search_determinism_and_filtering():
    hits_a = random_cubic_search(F7, "C12", seed=1, budget=6,
                                 classify_depth=1, screen_depth=1)
    hits_b = random_cubic_search(F7, "C12", seed=1, budget=6,
                                 classify_depth=1, screen_depth=1)
    assert len(hits_a) == len(hits_b)
    for x, y in zip(hits_a, hits_b):
        assert x.surface.generators[0].terms == y.surface.generators[0].terms
        assert x.index == y.index
        assert x.classification.matched == "C12"


def test_random_search_c14_hits_have_57_points():
    hits = random_cubic_search(F7, "C14", seed=2, budget=40,
                               classify_depth=1, screen_depth=1)
    for hit in hits:
        assert hit.classification.observed[1] == 57


@pytest.mark.parametrize("tag", ["C10", "C11", "C13", "C14"])
def test_targeted_search_equals_filtered_untargeted_search(tag):
    # narrowing the classifier to the target never changes a hit
    f5 = make_field(5)

    def key(hit):
        return hit.index, hit.surface.generators[0].terms, hit.classification.observed

    for seed in (1, 2):
        kw = dict(seed=seed, budget=30, classify_depth=2, screen_depth=2)
        every = [key(h) for h in random_cubic_search(f5, None, **kw) if h.classification.matched == tag]
        assert [key(h) for h in random_cubic_search(f5, tag, **kw)] == every


def test_random_search_substreams_differ():
    a = random_cubic_search(F7, None, seed=5, budget=5, classify_depth=1, screen_depth=1)
    b = random_cubic_search(F7, None, seed=5, budget=5, substream=1,
                            classify_depth=1, screen_depth=1)
    sig_a = [h.surface.generators[0].terms for h in a]
    sig_b = [h.surface.generators[0].terms for h in b]
    assert sig_a != sig_b or (not sig_a and not sig_b)


# -- Frobenius orbits and the degree-6 Del Pezzo --------------------------------------


def test_frobenius_orbit_properties(f9):
    for fld in (F7, f9):
        orbit = frobenius_orbit(fld, seed=4)
        ext = orbit.ext
        rows = {tuple(int(v) for v in r) for r in orbit.conjugates}
        assert len(rows) == 3
        assert not orbit.collinear
        # stability: applying F maps the set to itself
        from evalcodes.projective import normalize_rows

        conj = normalize_rows(ext, ext.frobenius(orbit.conjugates, fld.n))
        assert {tuple(int(v) for v in r) for r in conj} == rows


def test_frobenius_orbit_rejects_rational_point():
    with pytest.raises(DegenerateInput):
        frobenius_orbit(F7, point=(1, 2, 3))


def test_del_pezzo6_rejects_collinear_orbit():
    # a non-rational point on the rational line y = 0: orbit stays on it
    f343 = make_field(7, 3)
    pt = (f343.p, 0, 1)
    orbit = frobenius_orbit(F7, point=pt)
    assert orbit.collinear
    with pytest.raises(DegenerateInput):
        del_pezzo6(orbit)


def test_dp6_cubic_system_dimension(dp6_q7, dp6_q8, dp6_q9):
    for dp6 in (dp6_q7, dp6_q8, dp6_q9):
        param = dp6.parametrization
        assert len(param.cubics) == 7
        # all seven cubics vanish on the orbit
        ext = param.orbit.ext
        emb = get_embedding(dp6.fld, ext)
        for cub in param.cubics:
            lifted = cub.embed_coeffs(emb)
            for pt in param.orbit.conjugates:
                assert lifted.eval_at(tuple(pt)) == 0
        # evaluation matrix of the 7 cubics has full rank 7
        image = param.image()
        assert gflinalg.rank(dp6.fld, image.T) == 7


def test_dp6_point_counts(dp6_q7):
    q = 7
    assert dp6_q7.count_points(1) == q * q + q + 1
    assert dp6_q7.count_points(3) == delpezzo6_Nr(q, 3)
    assert len(dp6_q7.points()) == 57


def test_dp6_columns_are_the_image_in_parameter_order(dp6_q7, dp6_q8):
    # the normalized images of P^2(F_q) in its canonical order, not sorted
    for dp6 in (dp6_q7, dp6_q8):
        want = normalize_rows(dp6.fld, dp6.parametrization.image())
        assert not np.array_equal(want, want[canonical_order(want)])
        assert np.array_equal(dp6.points(), want)
        assert np.array_equal(build_code(dp6, 2).columns, want)


def test_parametrized_points_are_checked_injective(dp6_q7):
    # x^3 and the twisted cubic in (y, z) over GF(7): x^3 = 1 at x = 1, 2, 4,
    # so (1:0:1), (2:0:1) and (4:0:1) share an image, and no two of them are
    # neighbours in parameter order
    x, y, z = (HomogPoly.variable(F7, 3, i) for i in range(3))
    cubics = [x * x * x, y * y * y, y * y * z, y * z * z, z * z * z, x * x * x, x * x * x]
    param = dataclasses.replace(dp6_q7.parametrization, cubics=cubics)
    surface = dataclasses.replace(dp6_q7, parametrization=param)
    with pytest.raises(AssertionError, match="collisions"):
        build_code(surface, 1)


def test_dp6_codes_and_rank19(dp6_q7, dp6_q8, dp6_q9):
    for dp6, q in ((dp6_q7, 7), (dp6_q8, 8), (dp6_q9, 9)):
        c2 = build_code(dp6, 2)
        assert c2.n == q * q + q + 1
        assert c2.k == 19
        assert c2.function_space_dim == 28


def test_geometric_witness_weights(dp6_q7, dp6_q8, dp6_q9):
    for dp6, q in ((dp6_q7, 7), (dp6_q8, 8), (dp6_q9, 9)):
        wit = geometric_witness_dp6(dp6)
        assert int((wit == 0).sum()) == 4 * q + 2
        assert int((wit != 0).sum()) == q * q - 3 * q - 1
        code = build_code(dp6, 2)
        assert code.contains_word(wit)


def test_geometric_witness_needs_q_above_5():
    f5 = make_field(5)
    dp6 = del_pezzo6(frobenius_orbit(f5, seed=1))
    with pytest.raises(ValueError):
        geometric_witness_dp6(dp6)
