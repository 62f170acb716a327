"""Surface families: fixtures, samplers, classifier, Del Pezzo machinery."""

import random

import pytest

from evalcodes import gflinalg
from evalcodes.bounds import delpezzo6_Nr, predicted_Nr
from evalcodes.codes import build_code, min_distance
from evalcodes.families import (
    DegenerateInput,
    cayley_salmon_c12,
    classify_cubic,
    del_pezzo6,
    dp6_quadric_ideal,
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
    hyperplane_section,
    component_search,
    lines_on_surface,
    singular_points,
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
        sing = singular_points(surf, 1)
        passed += all(len(v) == 0 for v in sing.values())
        code = build_code(surf, 1)
        assert code.k == 4  # sample-independent
    assert passed > total // 2


def test_van_luijk_sample_smooth_level2():
    rng = random.Random(78)
    basis = monomials(4, 4)
    h = HomogPoly(F7, 4, 4, {m: rng.randrange(7) for m in basis})
    surf = van_luijk_surface(h, F7)
    sing = singular_points(surf, 2)
    # this particular seed passes the level-2 screen
    assert all(len(v) == 0 for v in sing.values())


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
    sample = cayley_salmon_c12(F7, [269, 47, 143], [3, 0, 38, 30],
                               classify_depth=2, screen_depth=1)
    cls = sample.classification
    assert cls.matched == "C10"
    assert cls.observed == {1: 43, 2: 2451}
    assert cls.line_count == 0
    assert cls.predicted["C10"] == {1: 43, 2: 2451}


# -- Cayley-Salmon ----------------------------------------------------------------


def test_cayley_salmon_degenerate_inputs():
    f3 = make_field(7, 3)
    f2 = make_field(7, 2)
    with pytest.raises(DegenerateInput):
        cayley_salmon_c12(F7, [1, 2, 3], [0, 1, 2, 3])  # L rational over GF(7)
    with pytest.raises(DegenerateInput):
        cayley_salmon_c12(F7, [f3.p, 1, 0], [1, 2, 3, 4])  # M rational
    with pytest.raises(DegenerateInput):
        cayley_salmon_c12(F7, [0, 0, 0], [1, 2, 3, 4])


def test_cayley_salmon_coefficients_descend(c12_sample):
    # Frobenius-invariance by construction: the surface generator exists over
    # GF(7) at all (descent already asserted inside); spot-check the section
    # by w = 0 factors into three conjugate lines over GF(q^3) and none below
    surf = c12_sample.surface
    sec = hyperplane_section(surf, [0, 0, 0, 1])
    assert component_search(sec, 1) == []
    f343 = make_field(7, 3)
    emb = get_embedding(F7, f343)
    facs = component_search(sec.embed_coeffs(emb), 1)
    assert len(facs) == 3


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
        pts, image = param.column_data()
        assert gflinalg.rank(dp6.fld, image.T) == 7


def test_dp6_point_counts(dp6_q7):
    q = 7
    assert dp6_q7.count_points(1) == q * q + q + 1
    assert dp6_q7.count_points(3) == delpezzo6_Nr(q, 3)
    assert len(dp6_q7.points()) == 57


def test_dp6_codes_and_rank19(dp6_q7, dp6_q8, dp6_q9):
    for dp6, q in ((dp6_q7, 7), (dp6_q8, 8), (dp6_q9, 9)):
        c2 = build_code(dp6, 2)
        assert c2.n == q * q + q + 1
        assert c2.k == 19
        assert c2.function_space_dim == 28


def test_dp6_quadric_ideal(dp6_q7):
    quads = dp6_quadric_ideal(dp6_q7)
    assert len(quads) == 9
    # each vanishes on every image point
    pts = dp6_q7.points()
    for quad in quads:
        assert not quad.eval_points(pts).any()
    # and spans the degree-2 evaluation kernel: k = 28 - 9 = 19
    from evalcodes.projective import ideal_degree_part

    mat, _, _ = ideal_degree_part(quads, 2)
    assert len(mat) == 9


def test_geometric_witness_weights(dp6_q7, dp6_q8, dp6_q9):
    for dp6, q in ((dp6_q7, 7), (dp6_q8, 8), (dp6_q9, 9)):
        wit = geometric_witness_dp6(dp6)
        assert wit.zero_count == 4 * q + 2
        assert int((wit.codeword != 0).sum()) == q * q - 3 * q - 1
        code = build_code(dp6, 2)
        assert code.contains_word(wit.codeword)


def test_geometric_witness_needs_q_above_5():
    f5 = make_field(5)
    dp6 = del_pezzo6(frobenius_orbit(f5, seed=1))
    with pytest.raises(ValueError):
        geometric_witness_dp6(dp6)
