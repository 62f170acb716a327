"""Projective points, surfaces, and the geometric searches built on them.

Point normalization follows one convention everywhere: the rightmost nonzero
coordinate of a representative is scaled to 1.  The points of P^r and the
zero sets of generators are listed in canonical order, lexicographic on the
normalized coordinate vector (encodings compared as integers).  A code's
columns are Surface.points(): canonical order for a surface cut out by
generators, parameter order for a parametrized one (the normalized images of
the parameter points, taken in their canonical order).

All enumerations are deterministic; chunked scans merge in index order, so
results do not depend on how work is partitioned.

Zeros are found by one chart loop, a chunked Horner grid over each affine
chart of P^r (``iter_zero_point_batches``): ``rational_points`` sorts its
zeros, ``count_rational_points`` and ``level_scan`` count them, except that
``level_scan`` counts a cubic surface F = 0 in P^3 fiber by fiber when 3 is
invertible.  Projecting from O = (0:0:0:1), every other point lies on
exactly one line through O and a point (x:y:z) of P^2, so N = [O in X] + sum
over P^2 of the roots in F_Q of F(x, y, z, w) = a3 w^3 + a2 w^2 + a1 w + a0.
The forms a2, a1, a0 (a3 is a constant) are evaluated once on the Q^2 + Q +
1 points of P^2 and each fiber's root count is read from a Q x Q table: of
the depressed cubics u^3 + p u + r (w = u - a2/(3 a3)) when a3 != 0, of the
monic quadratics where a3 = 0 and a2 != 0; a fiber with only a1 != 0 has one
root, one with all forms zero has Q.  A singular zero other than O has dF/dw
= 0, so it is the repeated root of its fiber (the tables record it) or lies
on a fiber that vanishes identically; the Jacobian is evaluated at those
points and at O only.  Characteristic 3 keeps the grid.

Every scan works in chunks cut from one budget of gf.CHUNK_ELEMS int64
values, divided by what an item holds: a chart chunk (grid, fibered scan,
root-table rows, zero-fiber expansion) is poly.chart_chunk() =
CHUNK_ELEMS // 16 points, a line-search chunk CHUNK_ELEMS // terms lines and
a section-scan block CHUNK_ELEMS // n hyperplanes against the n points, the
hyperplanes generated chart by chart.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

import numpy as np

from .gf import FiniteField, batched, field_spec_string, get_embedding, make_field, parse_field_spec
from . import gf, gflinalg
from .bounds import sectional_genus_hypersurface
from .poly import HomogPoly, chart_chunk, dehomogenize, eval_affine_grid_chunks

DEFAULT_POINT_BUDGET = 20_000_000


class BudgetExceeded(RuntimeError):
    """An enumeration would exceed the configured work budget."""


def projective_space_size(q: int, r: int) -> int:
    return (q ** (r + 1) - 1) // (q - 1)


def normalizing_scalars(fld: FiniteField, rows: np.ndarray) -> np.ndarray:
    """Per row, the inverse of its rightmost nonzero entry: the scalar that
    normalizes the row."""
    rows = np.asarray(rows, dtype=np.int64)
    nz = rows != 0
    if not np.all(nz.any(axis=1)):
        raise ValueError("cannot normalize a zero vector")
    last = rows.shape[1] - 1 - np.argmax(nz[:, ::-1], axis=1)
    return fld.inv(rows[np.arange(len(rows)), last])


def normalize_rows(fld: FiniteField, rows: np.ndarray) -> np.ndarray:
    """Scale each row so its rightmost nonzero entry is 1."""
    rows = np.asarray(rows, dtype=np.int64)
    return fld.mul(rows, normalizing_scalars(fld, rows)[:, None])


def canonical_order(points: np.ndarray) -> np.ndarray:
    """The permutation sorting point rows lexicographically, first coordinate
    most significant."""
    return np.lexsort(np.asarray(points).T[::-1])


def _check_point_budget(q: int, r: int, max_points: int):
    total = projective_space_size(q, r)
    if total > max_points:
        raise BudgetExceeded(f"P^{r}(F_{q}) has {total} points, budget is {max_points}")


def enumerate_points(fld: FiniteField, r: int, max_points: int = DEFAULT_POINT_BUDGET) -> np.ndarray:
    """All points of P^r(F_q) as an (N, r+1) array in canonical order."""
    q = fld.q
    _check_point_budget(q, r, max_points)
    x0 = np.arange(q, dtype=np.int64)
    pts = np.concatenate([_chart_coords(q, c, x0, np.arange(q**c, dtype=np.int64), r) for c in range(r + 1)])
    return pts[canonical_order(pts)]


def _generators_over(gens: list[HomogPoly], ext: FiniteField | None):
    if ext is None or ext is gens[0].field:
        return gens, gens[0].field
    emb = get_embedding(gens[0].field, ext)
    return [g.embed_coeffs(emb) for g in gens], ext


def rational_points(
    gens: list[HomogPoly],
    extension_field: FiniteField | None = None,
    *,
    max_points: int = DEFAULT_POINT_BUDGET,
) -> np.ndarray:
    """All common projective zeros of the generators, in canonical order:
    the chart loop's zeros, sorted.  max_points bounds the size of P^r."""
    if not gens:
        raise ValueError("need at least one generator (use enumerate_points for P^r)")
    gens, fld = _generators_over(gens, extension_field)
    r = gens[0].nvars - 1
    _check_point_budget(fld.q, r, max_points)
    batches = [coords for _, coords in iter_zero_point_batches(fld, gens, r)]
    pts = np.concatenate(batches) if batches else np.zeros((0, r + 1), dtype=np.int64)
    return pts[canonical_order(pts)]


def _chart_values(fld: FiniteField, forms: list[HomogPoly], r: int):
    """Yield (chart, x0, values) for every grid chunk of every affine chart of P^r.

    Chart c holds the points with x_c = 1 and later coordinates 0; its grid
    axes are (x_0, ..., x_{c-1}) with the last one fastest, chunked along x_0,
    whose values in the chunk are x0.  values holds each form's values on the
    chunk, shaped (len(x0),) + (q,)*(c-1).  Chart 0 is the single point
    (1:0:...:0).
    """
    for chart in range(r + 1):
        if chart == 0:
            origin = tuple(int(i == 0) for i in range(r + 1))
            yield 0, np.ones(1, dtype=np.int64), [np.array([f.eval_at(origin)]) for f in forms]
            continue
        for x0, vals in eval_affine_grid_chunks(fld, [dehomogenize(f, chart) for f in forms]):
            yield chart, x0, vals


def _chart_coords(q: int, chart: int, x0: np.ndarray, flat: np.ndarray, r: int) -> np.ndarray:
    """Normalized coordinates of the points at flat indices of one chunk of
    _chart_values (x_chart = 1, later coordinates 0)."""
    coords = np.zeros((len(flat), r + 1), dtype=np.int64)
    rows, rem = np.divmod(flat, q ** (chart - 1) if chart else 1)
    coords[:, 0] = x0[rows]
    for var in range(chart - 1, 0, -1):
        coords[:, var] = rem % q
        rem //= q
    coords[:, chart] = 1
    return coords


def count_rational_points(
    gens: list[HomogPoly],
    extension_field: FiniteField | None = None,
    *,
    max_enum: int = 500_000_000,
) -> int:
    """Streaming count of projective zeros; never materializes the point set.

    Works chart by chart with dense-grid Horner evaluation, so it stays fast
    for point counts over extension fields.
    """
    if not gens:
        raise ValueError("need at least one generator")
    gens, fld = _generators_over(gens, extension_field)
    r = gens[0].nvars - 1
    total_pts = projective_space_size(fld.q, r)
    if total_pts > max_enum:
        raise BudgetExceeded(f"{total_pts} points exceeds budget {max_enum}")
    return sum(len(coords) for _, coords in iter_zero_point_batches(fld, gens, r))


def iter_zero_point_batches(fld: FiniteField, gens: list[HomogPoly], r: int):
    """Yield (chart, coordinate-array) batches of the generators' common
    projective zeros; coordinates arrive normalized (x_chart = 1, later
    coordinates 0)."""
    for chart, x0, vals in _chart_values(fld, gens, r):
        mask = vals[0] == 0
        for v in vals[1:]:
            mask &= v == 0
        if mask.any():
            yield chart, _chart_coords(fld.q, chart, x0, np.flatnonzero(mask), r)


@dataclass
class Surface:
    """An embedded projective surface (or, degenerately, any closed subscheme
    cut out by the given generators)."""

    fld: FiniteField
    ambient: int
    generators: list[HomogPoly]
    degree: int | None = None
    sectional_genus: int | None = None
    family: str = "custom"
    parametrization: object = None
    label: str = ""

    def __post_init__(self):
        for g in self.generators:
            if g.field is not self.fld:
                raise ValueError("generator field does not match surface field")
            if g.nvars != self.ambient + 1:
                raise ValueError("generator variable count does not match ambient")
        if self.degree is not None and len(self.generators) == 1:
            if self.generators[0].degree != self.degree:
                raise ValueError("hypersurface degree does not match its generator")

    def points(self, extension_field: FiniteField | None = None) -> np.ndarray:
        """X(F_q), or X over extension_field, as normalized rows: the
        parametrization's image in parameter order, else the zeros of the
        generators (all of P^ambient without any) in canonical order."""
        if self.parametrization is not None:
            if extension_field is not None:
                raise ValueError("parametrized surfaces only enumerate base-field points")
            return self.parametrization.image_points()
        if not self.generators:
            return enumerate_points(extension_field or self.fld, self.ambient)
        return rational_points(self.generators, extension_field)

    def count_points(self, r: int = 1, *, max_enum: int = 500_000_000) -> int:
        """|X(F_{q^r})|: the parametrization's closed form, else level_scan's count."""
        if self.parametrization is not None:
            return self.parametrization.count_points(r)
        if not self.generators:
            return projective_space_size(self.fld.q**r, self.ambient)
        return level_scan(self, r, singular=False, max_enum=max_enum)[0]


@dataclass
class SectionScan:
    """Distribution of |(X ∩ H)(F_q)| over all F_q-rational hyperplanes H."""

    histogram: dict[int, int]
    max_count: int
    witnesses: np.ndarray  # hyperplane coefficient rows achieving the max
    total_hyperplanes: int


def section_scan(surface: Surface, *, max_witnesses: int = 16) -> SectionScan:
    """Count X-points on every hyperplane (any ambient dimension).

    The hyperplanes (dual coordinates, normalized like points) are generated
    chart by chart in blocks of CHUNK_ELEMS // n against the n points, never
    all at once; the witnesses are the first max_witnesses of the largest
    count in canonical order, merged from block to block."""
    fld, r, q = surface.fld, surface.ambient, surface.fld.q
    total = projective_space_size(q, r)
    if total > DEFAULT_POINT_BUDGET:
        raise BudgetExceeded(f"P^{r}(F_{q}) has {total} hyperplanes, budget is {DEFAULT_POINT_BUDGET}")
    pts = surface.points()
    hist = np.zeros(len(pts) + 1, dtype=np.int64)
    max_count, witnesses = -1, None
    for chart in range(r + 1):
        for lo, hi in batched(q**chart, max(1, gf.CHUNK_ELEMS // max(1, len(pts)))):  # incidence rows
            hyps = _chart_coords(q, chart, np.arange(q), np.arange(lo, hi), r)
            counts = (gflinalg.matmul(fld, hyps, pts.T) == 0).sum(axis=1)
            hist += np.bincount(counts, minlength=len(hist))
            top = int(counts.max())
            if top >= max_count:  # a block's rows are in canonical order
                best = hyps[counts == top][:max_witnesses]
                if top == max_count:
                    best = np.concatenate([witnesses, best])
                    best = best[canonical_order(best)[:max_witnesses]]
                max_count, witnesses = top, best
    histogram = {count: number for count, number in enumerate(hist.tolist()) if number}
    return SectionScan(histogram, max_count, witnesses, total)


def _line_chunks(q: int, r: int, size: int):
    """The lines of P^r(F_q) as (L, 2, r+1) RREF bases, `size` a chunk across
    pivot blocks: pivots (c1, c2) ascending, then free entries as base-q
    digits, the first row's fastest."""
    pairs = list(itertools.combinations(range(r + 1), 2))
    free = [[(0, j) for j in range(c1 + 1, r + 1) if j != c2] + [(1, j) for j in range(c2 + 1, r + 1)]
            for c1, c2 in pairs]
    starts = np.cumsum([0] + [q ** len(f) for f in free]).tolist()
    for lo, hi in batched(starts[-1], size):
        block = np.zeros((hi - lo, 2, r + 1), dtype=np.int64)
        for (c1, c2), cells, start, stop in zip(pairs, free, starts, starts[1:]):
            a, b = max(lo, start), min(hi, stop)
            if a < b:
                part = block[a - lo : b - lo]
                part[:, [0, 1], [c1, c2]] = 1
                idx = np.arange(a - start, b - start, dtype=np.int64)
                for row, j in cells:
                    part[:, row, j] = idx % q
                    idx //= q
        yield block


def lines_on_surface(surface: Surface, *, max_lines: int = 2_000_000) -> np.ndarray:
    """All F_q-rational lines contained in X, as (L, 2, r+1) RREF bases.

    A line is certified by the vanishing of every generator at deg+1 sample
    points (v, then u + c v for c = 0..deg-1, so q >= deg suffices), which
    kills the restricted binary form identically.  The candidates are
    counted before any is built, then tested in chunks of
    gf.CHUNK_ELEMS // terms lines.
    """
    fld = surface.fld
    r = surface.ambient
    q = fld.q
    max_deg = max(g.degree for g in surface.generators)
    if q < max_deg:
        raise ValueError(f"need q >= deg = {max_deg} for deg+1 sample points per line")
    total = (q ** (r + 1) - 1) * (q ** (r + 1) - q) // ((q * q - 1) * (q * q - q))
    if total > max_lines:
        raise BudgetExceeded(f"{total} candidate lines exceeds budget {max_lines}")
    terms = max(len(g.terms) for g in surface.generators)
    found = []
    for lines in _line_chunks(q, r, max(1, gf.CHUNK_ELEMS // max(1, terms))):
        for g in surface.generators:
            for c in (None, *range(max_deg)):  # v, then u + c v: each on the surviving lines
                sample = lines[:, 1] if c is None else fld.add(lines[:, 0], fld.mul(c, lines[:, 1]))
                lines = lines[g.eval_points(sample) == 0]
        found.append(lines)
    return np.concatenate(found)


def _root_tables(fld: FiniteField, degree: int) -> tuple[np.ndarray, np.ndarray]:
    """Root counts and repeated roots of the monic t^degree + b t + c over
    F_Q, degree 2 or 3, as flat tables indexed by b*Q + c.

    t is a root exactly where c = -(t^degree + b t); it is a repeated root
    where the derivative degree * t^(degree-1) + b vanishes too, that is at
    b = -degree * t^(degree-1), c = (degree-1) * t^degree.  A polynomial of
    degree <= 3 has at most one repeated root; the table holds Q where there
    is none.
    """
    q = fld.q
    t = np.arange(q, dtype=np.int64)
    t_deg = fld.pow(t, degree)
    counts = np.empty(q * q, dtype=np.uint8)
    for lo, hi in batched(q, max(1, chart_chunk() // q)):
        b = np.arange(lo, hi, dtype=np.int64)[:, None]
        c = fld.neg(fld.add(t_deg, fld.mul(b, t)))
        counts[lo * q : hi * q] = np.bincount(((b - lo) * q + c).ravel(), minlength=(hi - lo) * q)
    repeated = np.full(q * q, q, dtype=np.uint16 if q < 1 << 16 else np.uint32)
    b = fld.neg(fld.mul(degree % fld.p, fld.pow(t, degree - 1)))
    repeated[b * q + fld.mul((degree - 1) % fld.p, t_deg)] = t
    return counts, repeated


def _fibered_cubic_scan(cubic: HomogPoly, singular: bool) -> tuple[int, np.ndarray]:
    """level_scan of the cubic surface cubic = 0 in P^3 over its own field,
    fiber by fiber over P^2 as the module docstring describes; needs a
    characteristic other than 3."""
    fld = cubic.field
    q = fld.q
    # a[i](x, y, z) is the coefficient form of w^i; a[3] is a constant
    a = [HomogPoly(fld, 3, 3 - i, {e[:3]: c for e, c in cubic.terms.items() if e[3] == i})
         for i in range(4)]
    lead = cubic.terms.get((0, 0, 0, 3), 0)
    if lead:  # monic in w, then w = u - shift gives u^3 + p u + r
        k = fld.inv(lead)
        shift = a[2].scale(fld.div(k, 3 % fld.p))
        c1, c0 = a[1].scale(k), a[0].scale(k)
        forms = [c1 - (shift * shift).scale(3 % fld.p),
                 c0 - c1 * shift + (shift * shift * shift).scale(2 % fld.p)]
        counts, repeated = _root_tables(fld, 3)
    else:  # O lies on X; fibers are monic quadratics where a2 != 0
        shift = HomogPoly.zero(fld, 3, 1)
        forms = [a[2], a[1], a[0]]
        counts, repeated = _root_tables(fld, 2)
    jac = [cubic.partial_derivative(i) for i in range(4)] if singular else []
    count = 0 if lead else 1
    roots = [] if lead else [np.array([[0, 0, 0, 1]])]  # (x, y, z, repeated root); O
    candidates = []
    for chart, x0, vals in _chart_values(fld, forms, 2):
        vals = [np.ravel(v) for v in vals]
        if lead:
            pos = np.arange(len(vals[0]))
            idx = vals[0] * q + vals[1]
            zero = pos[:0]
        else:
            a2, a1, a0 = vals
            pos = np.flatnonzero(a2)
            inv = fld.inv(a2[pos])
            idx = fld.mul(a1[pos], inv) * q + fld.mul(a0[pos], inv)
            count += np.count_nonzero((a2 == 0) & (a1 != 0))  # one root each
            zero = np.flatnonzero((a2 == 0) & (a1 == 0) & (a0 == 0))
        count += int(counts[idx].sum()) + q * len(zero)
        if not jac:
            continue
        rep = repeated[idx]
        hit = rep < q
        roots.append(np.column_stack([_chart_coords(q, chart, x0, pos[hit], 2), rep[hit]]))
        for lo, hi in batched(len(zero), max(1, chart_chunk() // q)):  # every point of a zero fiber
            xyz = _chart_coords(q, chart, x0, zero[lo:hi], 2)
            candidates.append(np.column_stack([np.repeat(xyz, q, axis=0), np.tile(np.arange(q), len(xyz))]))
    if jac:
        roots = np.concatenate(roots)
        roots[:, 3] = fld.sub(roots[:, 3], shift.eval_points(roots[:, :3]))  # w = u - shift (0 at O)
        candidates.append(roots)
    pts = [c[_minors_vanish(fld, [[d.eval_points(c) for d in jac]])] for c in candidates if len(c)]
    pts = normalize_rows(fld, np.concatenate(pts)) if pts else np.zeros((0, 4), dtype=np.int64)
    chart = 3 - np.argmax(pts[:, ::-1] != 0, axis=1)  # the grid's order: chart, then lexicographic
    return int(count), pts[np.lexsort(np.vstack([pts.T[::-1], chart]))]


def level_scan(
    surface: Surface,
    r: int,
    *,
    singular: bool = True,
    max_enum: int = 500_000_000,
) -> tuple[int, np.ndarray]:
    """(N_r, singular zeros) of X over F_{q^r}, the zeros in the grid's order
    (chart, then lexicographic).

    A zero is singular where the c x (ambient+1) Jacobian of the c
    generators has rank < c, that is where all its c x c minors vanish (all
    partials, for a hypersurface); the minors are taken on a chart chunk of
    zeros at once.  singular=False skips that test and returns no rows.  A
    cubic surface in P^3 outside characteristic 3 is scanned fiber by fiber
    over P^2 (see the module docstring): the a3 w^3 + ... + a0 of each fiber
    is read from a table of Q^2 depressed cubics or monic quadratics, and
    the Jacobian is evaluated only at the repeated roots of the fibers, on
    fibers that vanish identically and at O.  Every other
    surface, and characteristic 3, takes one zero scan of the grid of
    P^ambient.
    """
    fld0 = surface.fld
    if projective_space_size(fld0.q**r, surface.ambient) > max_enum:  # before building GF(q^r)
        raise BudgetExceeded(f"extension degree {r} exceeds enumeration budget")
    ext = fld0 if r == 1 else make_field(fld0.p, fld0.n * r)
    gens, fld = _generators_over(surface.generators, ext)
    if surface.ambient == 3 and len(gens) == 1 and gens[0].degree == 3 and fld.p != 3:
        return _fibered_cubic_scan(gens[0], singular)
    jac = [[g.partial_derivative(i) for i in range(surface.ambient + 1)] for g in gens] if singular else []
    count, pending, bad = 0, [], [np.zeros((0, surface.ambient + 1), dtype=np.int64)]
    batches = (coords for _, coords in iter_zero_point_batches(fld, gens, surface.ambient))
    for coords in itertools.chain(batches, [None]):  # None flushes the last zeros
        if coords is not None:
            count += len(coords)
            pending += [coords] if jac else []
            if sum(map(len, pending)) < chart_chunk():  # one Jacobian pass per chart chunk of zeros
                continue
        if pending:
            coords, pending = np.concatenate(pending), []
            bad.append(coords[_minors_vanish(fld, [[d.eval_points(coords) for d in row] for row in jac])])
    return count, np.concatenate(bad)


def _minors_vanish(fld: FiniteField, vals: list[list[np.ndarray]]) -> np.ndarray:
    """Per point, whether the c x m matrix vals[i][j][point] has rank < c,
    that is whether all its c x c minors vanish.  Each minor is a Leibniz sum
    over the permutations of its columns, taken on all points at once; for a
    1 x m matrix the minors are its entries."""
    c = len(vals)
    perms = [(perm, sum(a > b for a, b in itertools.combinations(perm, 2)) % 2)
             for perm in itertools.permutations(range(c))]  # the identity, even, first
    vanish = np.ones(len(vals[0][0]), dtype=bool)
    for cols in itertools.combinations(range(len(vals[0])), c):
        minor = None
        for perm, odd in perms:
            term = functools.reduce(fld.mul, [vals[i][cols[j]] for i, j in enumerate(perm)])
            minor = term if minor is None else (fld.sub if odd else fld.add)(minor, term)
        vanish &= minor == 0
    return vanish


# -- surface text format -------------------------------------------------------

def _coeff_to_text(fld: FiniteField, c: int) -> str:
    if fld.n == 1:
        return str(c)
    return ",".join(str(d) for d in fld._digits_of(c).tolist())


def _coeff_from_text(fld: FiniteField, s: str) -> int:
    parts = [int(x) for x in s.split(",")]
    if len(parts) == 1 and fld.n == 1:
        return parts[0] % fld.p
    if len(parts) > fld.n:
        raise ValueError(f"coefficient {s!r} too long for GF({fld.p}^{fld.n})")
    return sum((d % fld.p) * fld.p**i for i, d in enumerate(parts))


def surface_to_text(surface: Surface) -> str:
    """Canonical writer: field, ambient, one generator per line, sorted terms."""
    lines = [f"field {field_spec_string(surface.fld)}", f"ambient {surface.ambient}"]
    for g in surface.generators:
        parts = [
            " ".join(str(e) for e in exps) + " : " + _coeff_to_text(surface.fld, c)
            for exps, c in g.sorted_terms()
        ]
        lines.append(f"{g.degree}; " + "; ".join(parts))
    return "\n".join(lines) + "\n"


def surface_from_text(text: str) -> Surface:
    rows = [ln.strip() for ln in text.splitlines() if ln.strip() and not ln.startswith("#")]
    if len(rows) < 3 or not rows[0].startswith("field ") or not rows[1].startswith("ambient "):
        raise ValueError("surface text must start with 'field ...' and 'ambient ...' lines")
    fld = parse_field_spec(rows[0].split(None, 1)[1])
    ambient = int(rows[1].split(None, 1)[1])
    gens = []
    for ln in rows[2:]:
        head, _, rest = ln.partition(";")
        degree = int(head)
        terms = {}
        for part in rest.split(";"):
            part = part.strip()
            if not part:
                continue
            exp_s, _, coeff_s = part.partition(":")
            exps = tuple(int(e) for e in exp_s.split())
            terms[exps] = _coeff_from_text(fld, coeff_s.strip())
        gens.append(HomogPoly(fld, ambient + 1, degree, terms))
    degree = gens[0].degree if len(gens) == 1 else None
    genus = sectional_genus_hypersurface(degree) if degree is not None and ambient == 3 else None
    return Surface(fld, ambient, gens, degree=degree, sectional_genus=genus)
