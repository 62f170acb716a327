"""Constructors, classifiers, and searches for the surface families.

Everything seeded is deterministic: a (seed, substream) pair fully fixes the
sample stream, and searches over substreams merge in (substream, index)
order.
"""

from __future__ import annotations

import random
import sys
from dataclasses import dataclass

import numpy as np

from .gf import FiniteField, get_embedding, make_field
from . import gflinalg
from .bounds import (
    CUBIC_CLASSES,
    CubicClass,
    delpezzo6_Nr,
    predicted_Nr,
    sectional_genus_hypersurface,
)
from .poly import HomogPoly, monomial_values, monomials
from .projective import (
    BudgetExceeded,
    Surface,
    canonical_order,
    enumerate_points,
    level_scan,
    lines_on_surface,
    normalize_rows,
    normalizing_scalars,
)


class DegenerateInput(ValueError):
    """A family constructor was fed data outside its generic locus."""


# -- fixed fixtures ------------------------------------------------------------------


def shioda_surface(m: int, fld: FiniteField) -> Surface:
    """The degree-m hypersurface w^m + x y^(m-1) + y z^(m-1) + z x^(m-1) in P^3."""
    if m < 4:
        raise ValueError("family defined for degree m >= 4")
    gen = HomogPoly.from_int_terms(
        fld, 4, m,
        {
            (0, 0, 0, m): 1,
            (1, m - 1, 0, 0): 1,
            (0, 1, m - 1, 0): 1,
            (m - 1, 0, 1, 0): 1,
        },
    )
    return Surface(
        fld, 3, [gen], degree=m,
        sectional_genus=sectional_genus_hypersurface(m),
        family="shioda", label=f"shioda-m{m}-q{fld.q}",
    )


_VL_F1 = {
    (3, 0, 0, 0): 1, (2, 1, 0, 0): -1, (2, 0, 1, 0): -1, (2, 0, 0, 1): 1,
    (1, 2, 0, 0): -1, (1, 1, 1, 0): -1, (1, 1, 0, 1): 2, (1, 0, 2, 0): 1,
    (1, 0, 1, 1): 2, (0, 3, 0, 0): 1, (0, 2, 1, 0): 1, (0, 2, 0, 1): -1,
    (0, 1, 2, 0): 1, (0, 1, 1, 1): 1, (0, 1, 0, 2): -1, (0, 0, 2, 1): 1,
    (0, 0, 1, 2): 1, (0, 0, 0, 3): 2,
}
_VL_F2 = {(1, 2, 0, 0): 1, (1, 1, 1, 0): 1, (1, 0, 2, 0): -1, (0, 1, 2, 0): -1, (0, 0, 3, 0): 1}
_VL_G1 = {(0, 0, 2, 0): 1, (1, 1, 0, 0): 1, (0, 1, 1, 0): 1}
_VL_G2 = {(0, 0, 2, 0): 1, (1, 1, 0, 0): 1}


def van_luijk_surface(h: HomogPoly | dict, fld: FiniteField) -> Surface:
    """Reduction of the quartic family w*f1 + 2z*f2 - 3*g1*g2 + 6h.

    h is a homogeneous quartic (HomogPoly over fld, or integer term dict).
    The small-prime coefficients degenerate in characteristics 2 and 3.
    """
    if fld.p in (2, 3):
        raise ValueError("family degenerates in characteristic 2 and 3")
    if isinstance(h, dict):
        h = HomogPoly.from_int_terms(fld, 4, 4, h)
    if h.field is not fld or h.nvars != 4 or (not h.is_zero() and h.degree != 4):
        raise ValueError("h must be a quartic in 4 variables over the same field")
    f1 = HomogPoly.from_int_terms(fld, 4, 3, _VL_F1)
    f2 = HomogPoly.from_int_terms(fld, 4, 3, _VL_F2)
    g1 = HomogPoly.from_int_terms(fld, 4, 2, _VL_G1)
    g2 = HomogPoly.from_int_terms(fld, 4, 2, _VL_G2)
    w = HomogPoly.variable(fld, 4, 3)
    z = HomogPoly.variable(fld, 4, 2)
    two_z = z.scale(2 % fld.p)
    quartic = (w * f1) + (two_z * f2) + (g1 * g2).scale(fld.neg(3 % fld.p))
    if not h.is_zero():
        quartic = quartic + h.scale(6 % fld.p)
    if quartic.is_zero():
        raise DegenerateInput("the chosen h cancels the family form")
    return Surface(
        fld, 3, [quartic], degree=4, sectional_genus=3,
        family="van-luijk", label=f"van-luijk-q{fld.q}",
    )


def del_pezzo4_fixture(fld: FiniteField | None = None) -> Surface:
    """The fixed pair of quadrics in P^4 (coordinates v, x, y, z, w)."""
    fld = fld or make_field(7)
    q1 = HomogPoly.from_int_terms(
        fld, 5, 2,
        {
            (0, 2, 0, 0, 0): 2, (1, 0, 1, 0, 0): -2, (0, 1, 1, 0, 0): -2,
            (0, 0, 2, 0, 0): -2, (1, 0, 0, 1, 0): 3, (0, 1, 0, 1, 0): -1,
            (0, 0, 1, 1, 0): -2, (0, 0, 0, 2, 0): -2, (0, 1, 0, 0, 1): -2,
            (0, 0, 1, 0, 1): 2, (0, 0, 0, 1, 1): 2, (0, 0, 0, 0, 2): 3,
        },
    )
    q2 = HomogPoly.from_int_terms(
        fld, 5, 2,
        {
            (2, 0, 0, 0, 0): -1, (1, 1, 0, 0, 0): 2, (0, 2, 0, 0, 0): -1,
            (1, 0, 1, 0, 0): -1, (0, 1, 1, 0, 0): -1, (1, 0, 0, 1, 0): -1,
            (0, 0, 1, 1, 0): 2, (0, 0, 0, 2, 0): 2, (1, 0, 0, 0, 1): -3,
            (0, 1, 0, 0, 1): -2, (0, 0, 1, 0, 1): 2, (0, 0, 0, 1, 1): -2,
            (0, 0, 0, 0, 2): -2,
        },
    )
    return Surface(
        fld, 4, [q1, q2], degree=4, sectional_genus=1,
        family="del-pezzo-4", label=f"del-pezzo-4-q{fld.q}",
    )


# -- cubic classification --------------------------------------------------------------


@dataclass
class ClassificationResult:
    matched: str  # "C10".."C14" | "not-rho-one-consistent" | "unknown"
    observed: dict[int, int]
    line_count: int
    checked_depth: int
    note: str = ""
    screened_depth: int = 0  # extension levels screened for singular points

    @property
    def smooth_label(self) -> str:
        return f"heuristically smooth (R={self.screened_depth})"

    def to_json(self):
        return {
            "matched": self.matched,
            "observed_Nr": {str(r): v for r, v in self.observed.items()},
            "line_count": self.line_count,
            "checked_depth": self.checked_depth,
            "note": self.note,
        }


NOT_RHO_ONE = "not-rho-one-consistent"


def classify_cubic(
    surface: Surface,
    max_depth: int = 3,
    *,
    screen_depth: int = 0,
    classes: tuple[str, ...] | None = None,
    max_enum: int = 500_000_000,
) -> ClassificationResult:
    """Match a cubic against the rank-one zeta classes by point counts N_r.

    One zero scan per level r = 1, 2, ... counts N_r and drops the classes
    that predict otherwise; a rational line or a count no class predicts
    rules every class out.  Levels r <= screen_depth are also screened, and
    the first singular one raises DegenerateInput.  A level above max_enum
    points ends the counting with a budget note.

    classes is what a search looks for.  With None (classify) the scan goes
    on, through a rational line, until no class fits.  A search stops at a
    rational line before any count, and before level r+1 once none of its
    classes fits N_1..N_r.  Either way the candidates and the match range
    over all five classes, so a stopped sample keeps its true label at
    the depth it reached.
    """
    if surface.ambient != 3 or surface.degree != 3:
        raise ValueError("classification applies to cubic surfaces in P^3")
    q = surface.fld.q
    lines = lines_on_surface(surface)
    observed: dict[int, int] = {}
    candidates = list(CUBIC_CLASSES)
    note = ""
    depth = screened = 0
    for r in range(1, max(max_depth, screen_depth) + 1):
        if classes is not None and (len(lines) or not any(tag in candidates for tag in classes)):
            break
        want_screen = r <= screen_depth
        want_count = r <= max_depth
        if not (want_screen or (want_count and candidates)):
            break
        try:
            n_r, singular = level_scan(surface, r, singular=want_screen, max_enum=max_enum)
        except BudgetExceeded:
            note = f"extension counting stopped at r={r - 1} (budget)"
            break
        if len(singular):
            raise DegenerateInput(f"singular at extension degree {r}")
        if want_screen:
            screened = r
        if want_count:
            observed[r] = n_r
            depth = r
            candidates = [tag for tag in candidates if predicted_Nr(tag, q, r) == n_r]
    if len(lines) or not candidates:
        matched = NOT_RHO_ONE
    elif len(candidates) == 1:
        matched = candidates[0]
    else:
        matched = "unknown"
    return ClassificationResult(matched, observed, len(lines), depth, note, screened)


# Searches are budgeted in samples drawn, so their point counts are not capped.
_SEARCH_MAX_ENUM = sys.maxsize


# -- Cayley-Salmon cubics -----------------------------------------------------------------


def _proportional_to_subfield_form(coeffs: np.ndarray, emb) -> bool:
    return emb.contains(normalize_rows(emb.target, coeffs[None, :])[0])


def _cayley_salmon_surface(fld: FiniteField, l_coeffs, m_coeffs) -> Surface:
    """The Cayley-Salmon cubic N(L) - w N(M) over GF(q).

    L is a form in x, y, z over GF(q^3), M one in x, y, z, w over GF(q^2),
    and sigma is the q-power map.  N(L) = L L^sigma L^sigma^2 and
    N(M) = M M^sigma are their norm forms.  sigma maps GF(q^3) and GF(q^2)
    to themselves, so each norm is a product inside its own field; sigma
    permutes its factors, so its coefficients are fixed by sigma and lie in
    GF(q).  Each norm descends through the one embedding of GF(q) into its
    field, and no field beyond GF(q^3) is built.
    """
    n0 = fld.n
    f3 = make_field(fld.p, 3 * n0)
    f2 = make_field(fld.p, 2 * n0)
    e3 = get_embedding(fld, f3)
    e2 = get_embedding(fld, f2)

    l_coeffs = np.asarray(l_coeffs, dtype=np.int64)
    m_coeffs = np.asarray(m_coeffs, dtype=np.int64)
    if l_coeffs.shape != (3,) or m_coeffs.shape != (4,):
        raise ValueError("L takes 3 coefficients (x,y,z); M takes 4 (x,y,z,w)")
    if not l_coeffs.any() or not m_coeffs.any():
        raise DegenerateInput("zero linear form")
    if _proportional_to_subfield_form(l_coeffs, e3):
        raise DegenerateInput("L is proportional to a GF(q) form")
    if _proportional_to_subfield_form(m_coeffs, e2):
        raise DegenerateInput("M is proportional to a GF(q) form")

    l3 = HomogPoly.linear(f3, l_coeffs).pad_vars(4)
    m2 = HomogPoly.linear(f2, m_coeffs)
    norm_l = l3 * l3.frobenius_coeffs(n0) * l3.frobenius_coeffs(2 * n0)
    norm_m = m2 * m2.frobenius_coeffs(n0)
    # NotInSubfield from either descent would be a bug
    cubic = norm_l.descend_coeffs(e3) - HomogPoly.variable(fld, 4, 3) * norm_m.descend_coeffs(e2)
    return Surface(
        fld, 3, [cubic], degree=3, sectional_genus=1,
        family="cayley-salmon-c12", label=f"c12-q{fld.q}",
    )


# -- seeded searches -------------------------------------------------------------------------


@dataclass
class SearchHit:
    surface: Surface
    classification: ClassificationResult
    seed: int
    substream: int
    index: int


def _search(fld: FiniteField, searched: tuple[str, ...], seed: int, substream: int, budget: int,
            classify_depth: int, screen_depth: int):
    """The hits among `budget` seeded draws: the draws whose class is searched.

    A search for C12 alone draws Cayley-Salmon forms, any other draws uniform
    cubic coefficient vectors; degenerate and singular draws are skipped.
    Each draw is classified once, against the searched classes.
    """
    rng = random.Random(seed * 1_000_003 + substream)
    basis = monomials(4, 3)
    for index in range(budget):
        try:
            if searched == ("C12",):
                l_coeffs = [rng.randrange(fld.q**3) for _ in range(3)]
                m_coeffs = [rng.randrange(fld.q**2) for _ in range(4)]
                surface = _cayley_salmon_surface(fld, l_coeffs, m_coeffs)
            else:
                coeffs = [rng.randrange(fld.q) for _ in range(len(basis))]
                if not any(coeffs):
                    continue
                cubic = HomogPoly(fld, 4, 3, dict(zip(basis, coeffs)))
                surface = Surface(fld, 3, [cubic], degree=3, sectional_genus=1, family="random-cubic",
                                  label=f"cubic-q{fld.q}-s{seed}.{substream}.{index}")
            classification = classify_cubic(surface, classify_depth, screen_depth=screen_depth,
                                            classes=searched, max_enum=_SEARCH_MAX_ENUM)
        except DegenerateInput:
            continue
        if classification.matched in searched:
            yield SearchHit(surface, classification, seed, substream, index)


def random_cubic_search(
    fld: FiniteField,
    target: str | CubicClass | None,
    seed: int,
    budget: int,
    *,
    substream: int = 0,
    classify_depth: int = 3,
    screen_depth: int = 3,
) -> list[SearchHit]:
    """Seeded stream of cubic surfaces filtered by screen and classifier.

    budget counts samples drawn.  target=C12 samples the Cayley-Salmon form;
    other targets (or None for "any class") draw uniform cubic coefficient
    vectors.  Each sample is classified once, against the target (None
    searches all five classes): it stops at a rational line, or before level
    r+1 once the target fits none of N_1..N_r.  An exhausted budget with no
    hits is an empty list, not an error.
    """
    tag = target.tag if isinstance(target, CubicClass) else target
    if tag is not None and tag not in CUBIC_CLASSES:
        raise ValueError(f"unknown cubic class {tag!r}")
    searched = tuple(CUBIC_CLASSES) if tag is None else (tag,)
    return list(_search(fld, searched, seed, substream, budget, classify_depth, screen_depth))


def sample_cayley_salmon(
    fld: FiniteField,
    seed: int,
    *,
    max_draws: int = 500,
    classify_depth: int = 3,
    screen_depth: int = 3,
) -> SearchHit:
    """First confirmed-C12 Cayley-Salmon sample along a fixed seed schedule.

    The draws are those of random_cubic_search(fld, "C12", seed, max_draws),
    each classified once against C12 alone: a draw stops at a rational line,
    or before level r+1 once C12 fits none of N_1..N_r.
    """
    for hit in _search(fld, ("C12",), seed, 0, max_draws, classify_depth, screen_depth):
        return hit
    raise RuntimeError(f"no confirmed C12 sample in {max_draws} draws (seed={seed})")


# -- degree-6 Del Pezzo from a Frobenius orbit ------------------------------------------------


@dataclass
class FrobeniusOrbit:
    base: FiniteField
    ext: FiniteField  # GF(q^3), absolute
    conjugates: np.ndarray  # (3, 3) rows: P, F(P), F^2(P), normalized
    collinear: bool

    def __post_init__(self):
        rows = [tuple(int(v) for v in row) for row in self.conjugates]
        if len(set(rows)) != 3:
            raise DegenerateInput("orbit does not have three distinct points")


def frobenius_orbit(fld: FiniteField, seed: int | None = None, point=None) -> FrobeniusOrbit:
    """Size-3 orbit {P, F(P), F^2(P)} of a plane point over GF(q^3).

    Sampling (seed given) redraws until the orbit is proper and non-collinear;
    an explicit rational point is an error, and an explicit collinear orbit is
    returned with its flag set.
    """
    ext = make_field(fld.p, 3 * fld.n)
    if (seed is None) == (point is None):
        raise ValueError("provide exactly one of seed or point")
    rng = random.Random(seed * 1_000_003) if seed is not None else None
    while True:
        if point is not None:
            coords = np.asarray(list(point), dtype=np.int64)
            if coords.shape != (3,) or not coords.any():
                raise ValueError("point must be a nonzero coordinate triple over GF(q^3)")
        else:
            coords = np.array([rng.randrange(ext.q) for _ in range(3)], dtype=np.int64)
            if not coords.any():
                continue
        p0 = normalize_rows(ext, coords[None, :])[0]
        p1 = normalize_rows(ext, ext.frobenius(p0, fld.n)[None, :])[0]
        p2 = normalize_rows(ext, ext.frobenius(p1, fld.n)[None, :])[0]
        if np.array_equal(p0, p1):
            if point is not None:
                raise DegenerateInput("point is rational over GF(q); orbit has size 1")
            continue
        tri = np.stack([p0, p1, p2])
        collinear = gflinalg.rank(ext, tri) < 3
        if collinear and point is None:
            continue
        return FrobeniusOrbit(fld, ext, tri, collinear=collinear)


def _orbit_kernel(orbit: FrobeniusOrbit, degree: int) -> np.ndarray:
    """Basis rows over GF(q) of the degree-d plane forms vanishing on the orbit.

    The kernel over GF(q^3) of the monomial values at the three orbit points
    is Frobenius-stable (Frobenius permutes the points up to scalars), so its
    canonical basis has entries in GF(q) and descends; it is the kernel of
    the GF(q)-linear conditions, of rank 3 for a proper orbit.
    """
    ext = orbit.ext
    vals = monomial_values(ext, orbit.conjugates, monomials(3, degree))
    return get_embedding(orbit.base, ext).descend(gflinalg.kernel_basis(ext, vals))


@dataclass
class DelPezzo6Parametrization:
    """Plane model of the degree-6 Del Pezzo: the 7 cubics through the orbit."""

    orbit: FrobeniusOrbit
    cubics: list[HomogPoly]

    def image(self) -> np.ndarray:
        """The 7 cubics at the points of P^2(F_q) in canonical order, one
        unnormalized row per point."""
        pts = enumerate_points(self.orbit.base, 2)
        image = np.stack([c.eval_points(pts) for c in self.cubics], axis=1)
        if not (image != 0).any(axis=1).all():
            raise AssertionError("parametrization vanishes at a rational point")
        return image

    def image_points(self) -> np.ndarray:
        """The normalized image rows in parameter order, checked injective:
        no two are equal once sorted canonically."""
        rows = normalize_rows(self.orbit.base, self.image())
        ordered = rows[canonical_order(rows)]
        if not (ordered[1:] != ordered[:-1]).any(axis=1).all():
            raise AssertionError("parametrization image has collisions")
        return rows

    def count_points(self, r: int) -> int:
        return delpezzo6_Nr(self.orbit.base.q, r)

    def degree2_products(self) -> np.ndarray:
        """Sextic coefficient rows of the quadric monomials in the 7 cubics,
        one row per monomial of monomials(7, 2)."""
        fld = self.orbit.base
        sext_basis = monomials(3, 6)
        rows = []
        for mono in monomials(7, 2):
            prod = HomogPoly(fld, 3, 0, {(0, 0, 0): 1})
            for i, e in enumerate(mono):
                for _ in range(e):
                    prod = prod * self.cubics[i]
            rows.append(prod.coeff_vector(sext_basis))
        return np.stack(rows)


def del_pezzo6(orbit: FrobeniusOrbit) -> Surface:
    """Blow up the plane along the orbit and embed by cubics through it.

    The GF(q)-space of such cubics must be 7-dimensional; its basis is the
    parametrization, and degree-s codes evaluate degree-s monomials in these
    7 forms over P^2(F_q).
    """
    if orbit.collinear:
        raise DegenerateInput("orbit is collinear; the linear system is not very ample")
    fld = orbit.base
    kernel = _orbit_kernel(orbit, 3)
    if len(kernel) != 7:
        raise DegenerateInput(f"cubic system has dimension {len(kernel)}, expected 7")
    basis = monomials(3, 3)
    cubics = [HomogPoly.from_coeff_vector(fld, 3, 3, basis, row) for row in kernel]
    param = DelPezzo6Parametrization(orbit, cubics)
    return Surface(
        fld, 6, [], degree=6, sectional_genus=1,
        family="del-pezzo-6", parametrization=param,
        label=f"del-pezzo-6-q{fld.q}",
    )


def geometric_witness_dp6(surface: Surface) -> np.ndarray:
    """A minimum-weight codeword of the s=2 code from two conic-line pairs.

    Searches conics through the orbit and rational lines for two pairs whose
    unions have 2q+2 points each and whose full union has 4q+2; the resulting
    sextic lies in the degree-2 span of the parametrization and its codeword
    has weight q^2 - 3q - 1.
    """
    param = surface.parametrization
    if not isinstance(param, DelPezzo6Parametrization):
        raise ValueError("expects a del-pezzo-6 surface")
    fld = surface.fld
    q = fld.q
    if q <= 5:
        raise ValueError("construction needs q > 5")
    pts = enumerate_points(fld, 2)  # also the combinations of the 3 basis conics, and the lines
    conic_kernel = _orbit_kernel(param.orbit, 2)
    if len(conic_kernel) != 3:
        raise DegenerateInput(f"conic system has dimension {len(conic_kernel)}, expected 3")
    conic_basis = monomials(3, 2)
    kernel_vals = gflinalg.matmul(fld, conic_kernel, monomial_values(fld, pts, conic_basis).T)
    conic_vals = gflinalg.matmul(fld, pts, kernel_vals)
    line_vals = gflinalg.matmul(fld, pts, pts.T)
    conic_masks = conic_vals == 0
    line_masks = line_vals == 0
    union = (conic_masks[:, None, :] | line_masks[None, :, :]).sum(axis=2)
    good = np.argwhere(union == 2 * q + 2)
    for a in range(len(good)):
        ci, li = good[a]
        mask_a = conic_masks[ci] | line_masks[li]
        for b in range(a + 1, len(good)):
            cj, lj = good[b]
            if ci == cj or li == lj:
                continue
            total = int((mask_a | conic_masks[cj] | line_masks[lj]).sum())
            if total != 4 * q + 2:
                continue
            conic_a = HomogPoly.from_coeff_vector(
                fld, 3, 2, conic_basis, gflinalg.vecmat(fld, pts[ci], conic_kernel))
            conic_b = HomogPoly.from_coeff_vector(
                fld, 3, 2, conic_basis, gflinalg.vecmat(fld, pts[cj], conic_kernel))
            sextic = conic_a * HomogPoly.linear(fld, pts[li]) * conic_b * HomogPoly.linear(fld, pts[lj])
            _assert_in_degree2_span(fld, param, sextic)
            mu = normalizing_scalars(fld, param.image())
            codeword = fld.mul(sextic.eval_points(pts), fld.pow(mu, 2))
            zeros = int((codeword == 0).sum())
            if zeros != 4 * q + 2:
                raise AssertionError(f"witness has {zeros} zeros, expected {4 * q + 2}")
            return codeword
    raise RuntimeError(
        "no conic-line witness found; for q > 5 this contradicts the construction"
    )


def _assert_in_degree2_span(fld: FiniteField, param: DelPezzo6Parametrization, sextic: HomogPoly):
    rmat, pivots = gflinalg.rref(fld, param.degree2_products())
    rmat = rmat[: len(pivots)]
    if not gflinalg.in_rowspace(fld, rmat, pivots, sextic.coeff_vector(monomials(3, 6))):
        raise AssertionError("witness sextic is outside the degree-2 span")
