"""Evaluation codes: construction, distance certification, weight data.

The generator matrix of every code is the reduced row echelon form of the
full degree-s monomial evaluation matrix at the surface's rational points in
the order of Surface.points(), so (n, k, matrix) are byte-reproducible.  A
computed k below the monomial-space dimension means some degree-s forms
vanish at every rational point.  No attempt is made to evaluate anything
beyond the degree-s monomial span, so for surfaces that are not projectively
normal this code can be a proper subcode of the sheaf-level code with the
same data.

Both distance engines are one weight-round loop, _rounds, over a list of
information sets (systematic matrix, relative rank r_i):

  * exhaustive -- the RREF generator alone (r = k) without early stop: one
    representative per projective message class, exact when it completes;
  * information-set -- Brouwer-Zimmermann on greedily chosen sets, the first
    of them the RREF generator, stopping once the lower bound meets the
    lightest codeword found.

Set i takes the first k independent columns in the order (unused ascending,
then used ascending); its systematic matrix is B_i^-1 G, B_i the generator
on those columns.  The sets are chosen and multiplied out a block at a time,
as round 1 reaches them (_InformationSets).

With w_i the last round set i finished, the certified lower bound is
sum(max(0, w_i + 1 - (k - r_i))) over the sets with w_i >= 1, or 1 with none;
w_0 + 1 for the exhaustive sweep, one set.  A completed run takes lower = upper.

Round 1 weighs the rows of each block of sets as it is built
(_weight_one_round): the weight-1 codewords of a set are its rows.
Round w >= 2 runs one kernel per set, _weight_scan, which weighs
the messages of weight w (first nonzero value 1) against a systematic
matrix in chunks, computing only the n - k redundancy columns by machine
adds (_AdditiveForm).  A block's codewords are prefix sums P plus v times
the last row y; the prefix sums come from nested broadcast adds of row
multiples (_prefix_sums).  Coordinate j is zero for the single v =
-P_j / y_j, or for every v where P_j = y_j = 0, so the zeros of all q - 1
last values are counted at once, in one of two exact ways chosen from q
alone (_zero_count): below _RATIO_MIN_Q by packed zero counters, one
table lookup per coordinate and prefix, summed a slab of coordinates at a
time into one word per prefix (_ZeroCounters); from
_RATIO_MIN_Q on by one histogram of the ratios (_ratio_weights).  The
witness candidates, the codewords at the minimum weight of a chunk's
blocks, are read back from the sums once per chunk (_first_codeword): the
message on the identity columns, P + v y on the others.

Budgets are counted in enumerated codewords.  A chunk runs whole or not at
all: the first chunk that does not fit the budget left ends the run, which
returns the best certified interval, exact only when its bounds meet; that
is a partial result, not an error.  With W workers, chunk c of each round
goes to worker c mod W, and every worker counts all chunks against the one
budget, so all stop at the same chunk, the first in serial order that does
not fit.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .gf import FiniteField, batched, field_spec_string, smallest_uint
from . import gf, gflinalg
from .poly import monomial_values, monomials
from .projective import BudgetExceeded, Surface, canonical_order, normalizing_scalars

DEFAULT_DISTANCE_BUDGET = 50_000_000
DEFAULT_ENUMERATOR_BUDGET = 100_000_000  # field operations, messages * n
EXHAUSTIVE_AUTO_LIMIT = 100_000_000  # q^k above this switches auto to info-set
_BATCH_TARGET = 1 << 21  # GF(p) coordinates of the codewords in one chunk
# From this q on, a block's zeros are counted by ratio histogram instead of
# packed zero counters.  Measured by information-set runs of 3*10^5 and
# 3*10^6 codewords on the dp6 s=1 and s=2 codes: the counters are faster up
# to q = 13 (0.44 against 0.62 s at q = 11, s = 2, 3*10^6 codewords), the
# histogram from q = 16 on (0.88 against 1.20 s at q = 16, s = 2).
_RATIO_MIN_Q = 16
# (prefix, coordinate) pairs the zero counters weigh per pass: of 2^13..2^16
# and whole blocks, 2^15 was the fastest, or within 5%, on every shape measured
# (dp6 and C12 sweeps and information sets, random codes over GF(2), 3 and 5).
_SLAB_ELEMS = 1 << 15


@dataclass
class LinearCode:
    fld: FiniteField
    n: int
    k: int
    matrix: np.ndarray  # k x n RREF generator matrix
    columns: np.ndarray  # the ambient point evaluated under column j
    s: int
    surface_ref: str = ""
    function_space_dim: int | None = None

    def __post_init__(self):
        if self.matrix.shape != (self.k, self.n):
            raise ValueError("generator matrix shape disagrees with (k, n)")
        if len(self.columns) != self.n:
            raise ValueError("one point per column is required")
        if not np.array_equal(gflinalg.nonzero_rows(self.fld, self.matrix), self.matrix):
            raise ValueError("generator matrix must be a full-rank RREF matrix")

    def contains_word(self, word) -> bool:
        """Whether word is a codeword; False for anything that is not a
        length-n vector of encodings in [0, q)."""
        word = np.asarray(word)
        if (word.shape != (self.n,) or not np.issubdtype(word.dtype, np.integer)
                or np.any(word < 0) or np.any(word >= self.fld.q)):
            return False
        pivots = [int(np.nonzero(row)[0][0]) for row in self.matrix]
        return gflinalg.in_rowspace(self.fld, self.matrix, pivots, word)

    def __repr__(self):
        return f"LinearCode[{self.n},{self.k}]_GF({self.fld.q})"


def build_code(surface: Surface, s: int) -> LinearCode:
    """The code of degree-s forms evaluated at X(F_q).

    The columns are surface.points(), in its order: canonical for a surface
    cut out by generators, parameter order for a parametrized one (the
    normalized image of each parameter point, so the code is the embedded
    image's).
    """
    if s < 1:
        raise ValueError("evaluation degree must be >= 1")
    fld = surface.fld
    eval_pts = surface.points()
    if len(eval_pts) == 0:
        raise ValueError("surface has no rational points; the code is empty")
    nvars = eval_pts.shape[1]
    basis = monomials(nvars, s)
    gen = gflinalg.nonzero_rows(fld, monomial_values(fld, eval_pts, basis).T)
    return LinearCode(
        fld=fld,
        n=len(eval_pts),
        k=len(gen),
        matrix=gen,
        columns=eval_pts,
        s=s,
        surface_ref=surface.label or surface.family,
        function_space_dim=len(basis),
    )


# -- message sweeps ---------------------------------------------------------------


class _SweepState:
    """Running minimum / witness / histogram; merges are commutative, so any
    partition of the message space gives the same final state."""

    def __init__(self, n: int):
        self.n = n
        self.min_weight = n + 1
        self.witness: tuple[int, ...] | None = None
        self.histogram = np.zeros(n + 1, dtype=np.int64)
        self.work = 0

    def update(self, weights: np.ndarray):
        self.work += len(weights)
        self.histogram += np.bincount(weights, minlength=self.n + 1)

    def offer(self, codeword: np.ndarray):
        """Merge one codeword: the lighter wins, the lexicographically smaller on a tie."""
        w = int((codeword != 0).sum())
        cand = tuple(np.asarray(codeword).tolist())
        if w < self.min_weight or (w == self.min_weight and (self.witness is None or cand < self.witness)):
            self.min_weight = w
            self.witness = cand

    def merge(self, other: "_SweepState"):
        self.work += other.work
        self.histogram += other.histogram
        if other.witness is not None:
            self.offer(np.array(other.witness, dtype=np.int64))


def projective_message_count(q: int, k: int) -> int:
    return (q**k - 1) // (q - 1)


class _AdditiveForm:
    """Field encodings in a form where a sum of multiples is a machine add.

    Characteristic 2: the encodings themselves, added by XOR.  Odd p: the
    base-p digits packed into fields of b bits, b the bit length of the
    largest digit sum 2(p - 1) of two encodings, which every sum the kernel
    forms is (_prefix_sums), so a plain add never carries from one digit
    into the next.  The width follows from p alone; under the field cap the
    m fields fill at most 30 bits (GF(3^10)).  At w = 2 no sum is formed (a
    prefix sum is the first row), and the form is the encodings themselves.
    Every sum of two encodings lies below span.  Sums leave this form as
    encodings (value), which the ratio count weighs and the witness
    read-back adds to; the packed zero counters read the sums of two
    encodings directly.
    """

    def __init__(self, fld: FiniteField, w: int):
        p, m = fld.p, fld.n
        self.fld = fld
        self.bits = (2 * (p - 1)).bit_length()
        self.packed = p > 2
        if p == 2:
            self.add, self.dtype = np.bitwise_xor, smallest_uint(m)
        else:
            self.add, self.dtype = np.add, smallest_uint(m * self.bits)
        self._shifts = self.bits * np.arange(m)
        self.plain = w <= 2
        self.span = fld.q
        if self.packed and not self.plain:
            self.span = int(self._pack(np.full(m, 2 * (p - 1)))) + 1
        # one size-q lookup maps encodings to packed digits
        self._lut = self._pack(fld._digits) if self.packed and m > 1 else None

    def _pack(self, digits: np.ndarray) -> np.ndarray:
        return (digits << self._shifts).sum(axis=-1).astype(self.dtype)

    def of(self, enc: np.ndarray) -> np.ndarray:
        if self.plain:
            return enc
        if self._lut is not None:
            return self._lut[enc]
        return enc.astype(self.dtype, copy=False)

    def value(self, sums: np.ndarray) -> np.ndarray:
        """The encodings of the values of sums of at most two encodings, in
        their own dtype, which for odd p holds every encoding: q = p^m <
        2^(m b).  Every digit sum s is below 2p, so s mod p is min(s, s - p),
        the unsigned difference wrapping past s where s < p."""
        if self.plain or not self.packed:
            return sums
        p = self.fld.p
        if self.fld.n == 1:
            return np.minimum(sums, sums - p)
        mask = (1 << self.bits) - 1
        digits = (sums >> shift & mask for shift in self._shifts.tolist())
        return sum(np.minimum(d, d - p) * power for d, power in zip(digits, self.fld._pow_p.tolist()))


def _message_values(t: np.ndarray, w: int, q: int) -> np.ndarray:
    """Values 1, v_2, ..., v_w of the messages with index t on a support:
    v_i - 1 are the base-(q - 1) digits of t, v_w the fastest."""
    vals = np.ones((len(t), w), dtype=np.int64)
    t = np.array(t, dtype=np.int64)
    for col in range(w - 1, 0, -1):
        vals[:, col] = t % (q - 1) + 1
        t //= q - 1
    return vals


def _multiples(fld: FiniteField, values: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """values[i] * rows[u] as array [u, i, :]."""
    return fld.mul(values[:, None], rows[:, None, :])


def _blocks(lo: int, hi: int, width: int):
    """Split message indices [lo, hi) into blocks (a, b, c0, c1): every index
    prefix * width + c with prefix in [a, b) and c in [c0, c1), in index
    order."""
    a, c = divmod(lo, width)
    b, d = divmod(hi, width)
    if a == b:
        yield a, a + 1, c, d
        return
    if c:
        yield a, a + 1, c, width
        a += 1
    if a < b:
        yield a, b, 0, width
    if d:
        yield b, b + 1, 0, d


def _prefix_sums(fld: FiniteField, form: _AdditiveForm, red: np.ndarray, sup: np.ndarray,
                 a: int, b: int) -> np.ndarray:
    """The sums [support, prefix, :] of the prefixes [a, b) on each support
    (a row of sup, w >= 2 rows) in the additive form, each the sum of at
    most two encodings: every position adds its multiples to the values of
    the sums before it.

    Prefix t fixes v_2 .. v_{w-1}, the base-(q - 1) digits of t: its sum is
    the first row plus v_j times row j at each of those positions.  The last
    `low` positions are nested: each adds its q - 1 multiples to every sum
    built so far, so the sums of all their values come from broadcast adds
    alone.  The positions before them stay fixed across a run of
    (q - 1)^low prefixes, and each run starts from one row, the first row
    plus its fixed multiples.  low is the most positions whose run fits in
    [a, b): all of them for a whole support, whose block is one run.
    """
    g, w = sup.shape
    q, r = fld.q, red.shape[1]
    low = 0
    while low < w - 2 and (q - 1) ** (low + 1) <= b - a:
        low += 1
    high, run = w - 2 - low, (q - 1) ** low
    h0 = a // run
    runs = np.arange(h0, -(-b // run))
    sums = form.of(red[sup[:, :1]])
    for j in range(high, 0, -1):  # the digits of each run, the fastest first
        runs, d = np.divmod(runs, q - 1)
        sums = form.add(form.of(form.value(sums)), form.of(_multiples(fld, d + 1, red[sup[:, j]])))
    for j in range(high + 1, w - 1):
        rows, at = np.unique(sup[:, j], return_inverse=True)
        table = form.of(_multiples(fld, np.arange(1, q), red[rows]))[at]
        nested = form.add(form.of(form.value(sums))[:, :, None, :], table[:, None, :, :])
        sums = nested.reshape(g, sums.shape[1] * (q - 1), r)
    return sums[:, a - h0 * run:b - h0 * run]


def _zero_count(fld: FiniteField, form: _AdditiveForm, red: np.ndarray):
    """The zero count of one scan, as weigh(prefix, last, c0, c1): the
    nonzero counts [support, message] over the n - k coordinates of P + v y,
    P the prefix sums [support, prefix, :] as _prefix_sums leaves them, y
    the last rows red[last] and v = c + 1 for c in [c0, c1) (message =
    prefix * (c1 - c0) + c - c0).

    Coordinate j is zero for exactly one last value v = -P_j / y_j, or for
    every v when P_j = y_j = 0, so the zeros of all q - 1 last values are
    counted at once: by packed zero counters below _RATIO_MIN_Q
    (_ZeroCounters), by a histogram of the ratios from it on
    (_ratio_weights).
    """
    q = fld.q
    if q >= _RATIO_MIN_Q:
        of_prefix = fld._log.astype(np.int64)
        of_prefix[0] = 2 * q - 2
        of_last = np.where(red == 0, 2 * q - 2, q - 1 - fld._log[fld.neg(red)].astype(np.int64))
        return functools.partial(_ratio_weights, fld, form, of_prefix, of_last)
    return _ZeroCounters(fld, form, red)


class _ZeroCounters:
    """The zero count by packed counters.  For a prefix sum P_j = s (the sum
    of at most two encodings, below form.span) and y = red[row], the entry
    counts[word, (j k + row) span + s] holds a b-bit counter for each last
    value v, per_word of them to a uint64 word: 1 where v zeroes coordinate
    j.  With 2^b > n - k no counter carries into the next, so the words
    taken at a prefix's n - k coordinates, summed into one uint64
    accumulator per prefix and word and subtracted from full (n - k in
    every counter), hold the nonzero counts of all its last values,
    unpacked by shift and mask.  The table has k (n - k) span words
    entries, span below 2p for prime fields: 14.4 MB at w >= 3 for k = 8
    and n = 3000 over GF(13), where b = 12 and 3 words hold the 12 counters.

    A block's sums are copied coordinate-major ([coordinate, support, prefix]
    in the form's narrow dtype) and weighed in slabs of whole coordinates,
    _SLAB_ELEMS (prefix, coordinate) pairs or one coordinate: a block holds
    three slab arrays of offsets, indices and words, not 8 bytes per pair.
    """

    def __init__(self, fld: FiniteField, form: _AdditiveForm, red: np.ndarray):
        q = fld.q
        k, r = red.shape
        self.bits = max(1, r.bit_length())
        self.per_word = 64 // self.bits
        slot = np.arange(q - 1)
        one_hot = np.zeros((-(-(q - 1) // self.per_word), q), dtype=np.uint64)  # [word, v]
        one_hot[slot // self.per_word, slot + 1] = (
            np.uint64(1) << (self.bits * (slot % self.per_word)).astype(np.uint64))
        # the values of the sums of two encodings; no prefix sum takes the other keys below span
        keys = np.arange(form.span, dtype=form.dtype)
        if form.packed and not form.plain:
            keys[(keys[:, None] >> form._shifts & (1 << form.bits) - 1).max(axis=1) > 2 * fld.p - 2] = 0
        enc = form.value(keys)
        by_y = one_hot[:, fld.mul(fld.neg(enc), fld._inv[:, None])]  # [word, y, P_j]
        by_y[:, 0, enc == 0] = one_hot.sum(axis=1)[:, None]
        self.counts = by_y[:, red.T].reshape(len(one_hot), -1)  # [word, (j, row, P_j)]
        self.span, self.stride = form.span, k * form.span  # entries per row, per coordinate
        self.full = r * one_hot.sum(axis=1)

    def __call__(self, prefix: np.ndarray, last: np.ndarray, c0: int, c1: int) -> np.ndarray:
        g, n_pre, r = prefix.shape
        sums = np.ascontiguousarray(prefix.transpose(2, 0, 1)).reshape(r, g * n_pre)
        words = range(c0 // self.per_word, -(-c1 // self.per_word))
        zeros = np.zeros((len(words), g * n_pre), dtype=np.uint64)
        slab = max(1, min(r, _SLAB_ELEMS // (g * n_pre)))
        # the table offsets [coordinate, (support, prefix)] from the slab's first coordinate on
        rel = np.repeat(last * self.span, n_pre) + self.stride * np.arange(slab)[:, None]
        at, word = np.empty_like(rel), np.empty(rel.shape, dtype=np.uint64)
        for j in range(0, r, slab):
            s = min(slab, r - j)
            np.add(sums[j:j + s], rel[:s], out=at[:s])
            for i, t in enumerate(words):
                # every index lies in the table: clip only spares the checked
                # mode's copy of the output
                self.counts[t, j * self.stride:].take(at[:s], out=word[:s], mode="clip")
                zeros[i] += word[:s].sum(axis=0)
        weights = np.empty((g * n_pre, c1 - c0), dtype=np.int64)
        for i, t in enumerate(words):
            lo, hi = max(c0, t * self.per_word), min(c1, (t + 1) * self.per_word)
            nonzero = (self.full[t] - zeros[i]).view(np.int64)
            np.right_shift(nonzero[:, None], self.bits * (np.arange(lo, hi) % self.per_word),
                           out=weights[:, lo - c0:hi - c0])
        weights &= (1 << self.bits) - 1
        return weights.reshape(g, -1)


def _ratio_weights(fld: FiniteField, form: _AdditiveForm, of_prefix: np.ndarray, of_last: np.ndarray,
                   prefix: np.ndarray, last: np.ndarray, c0: int, c1: int) -> np.ndarray:
    """The zero count by ratio histogram, with of_prefix[e] = log e and
    of_last[row, j] = q - 1 - log(-y_j) for y = red[row], both 2q - 2 where
    the value is 0.  log P_j - log(-y_j) + q - 1 is binned per prefix: bin
    q - 1 + t and bin t (t >= 1, the wrapped difference) hold the zeros of
    the value of log t.  A zero P_j or y_j moves the key past 2q - 3, to the
    one bin 4q - 4 when both are zero; bin 0 stays empty.
    """
    q = fld.q
    g, n_pre, r = prefix.shape
    bins = 4 * q - 3
    key = of_prefix[form.value(prefix)]
    key += of_last[last][:, None, :]
    key += (bins * np.arange(g * n_pre)).reshape(g, n_pre, 1)
    hist = np.bincount(key.reshape(-1), minlength=g * n_pre * bins).reshape(g * n_pre, bins)
    t = fld._log[c0 + 1:c1 + 1].astype(np.int64)
    zeros = hist[:, t + q - 1] + hist[:, t] + hist[:, -1:]
    return (r - zeros).reshape(g, -1)


def _first_codeword(ident: np.ndarray, redundancy: np.ndarray, sup: np.ndarray, vals: np.ndarray,
                    redundant, rival: tuple | None = None) -> np.ndarray | None:
    """The first in canonical order of candidate codewords, candidate i with
    message values vals[i] on the rows sup[i] (so on their identity columns
    ident[sup[i]]) and the encodings redundant(i, cols) on the redundancy
    columns cols; None if the word rival comes before every candidate.  The
    candidates narrow column by column, each column decoded only for the
    candidates still tied on the columns before it; while they tie with
    rival too, the first column where rival is smaller ends the read-back."""
    n = len(ident) + len(redundancy)
    row_of, red_of = np.full(n, -1), np.full(n, -1)
    row_of[ident], red_of[redundancy] = np.arange(len(ident)), np.arange(len(redundancy))
    at = np.arange(len(vals))
    for j in range(n):
        if len(at) == 1:
            break
        if row_of[j] >= 0:
            col = (vals[at] * (sup[at] == row_of[j])).sum(axis=1)
        else:
            col = redundant(at, red_of[j])
        low = col.min()
        if rival is not None and low != rival[j]:
            if low > rival[j]:
                return None
            rival = None
        at = at[col == low]
    word = np.zeros(n, dtype=np.int64)
    word[redundancy] = redundant(at[0], slice(None))
    word[ident[sup[at[0]]]] = vals[at[0]]
    return word


def _identity_columns(sysmat: np.ndarray) -> np.ndarray:
    """For each row i of a systematic matrix, one column equal to e_i."""
    unit = (sysmat == 1) & ((sysmat != 0).sum(axis=0) == 1)
    cols = unit.argmax(axis=1)
    if not unit[np.arange(len(sysmat)), cols].all():
        raise ValueError("matrix is not systematic")
    return cols


def _chunk_rows(fld: FiniteField, n: int, messages: int, parts: int) -> int:
    """Messages per chunk of a round of `messages` messages split over
    `parts` workers: a batch of codewords, and at most a part's share."""
    return max(1, min(_BATCH_TARGET // (n * fld.n), -(-messages // parts)))


def _weight_one_round(fld: FiniteField, sets: _InformationSets, state: _SweepState, budget: int,
                      part: tuple[int, int] = (0, 1)) -> int:
    """Round 1, a block of sets at a time: the weight-1 codewords of a set
    are the rows of its systematic matrix, so their weights are nonzero counts.

    The rows are taken as one _weight_scan per set would take them: chunks
    of _chunk_rows rows, chunk c of each set to worker c mod W, and the
    budget cut in serial order (set by set, chunk by chunk), which ends the
    round, and the sets built, at the first chunk that does not fit.  The
    lexicographically first of the lightest rows is offered once.  Returns
    the number of sets whose round ran whole, the first ones in serial order.
    """
    k, n = sets.matrix.shape
    index, parts = part
    rows = _chunk_rows(fld, n, k, parts)
    chunk = np.arange(k) // rows
    # row r of set i is taken when its chunk ends within the budget
    chunk_end = np.minimum(k, (chunk + 1) * rows)
    low, best = n + 1, None
    reach = max(0, budget - int(chunk_end[0]) + k) // k  # the sets whose first chunk fits
    for lo, sysmats in sets.systematic(reach):
        taken = np.arange(lo, lo + len(sysmats))[:, None] * k + chunk_end <= budget
        taken &= chunk % parts == index
        weights = np.where(taken, np.count_nonzero(sysmats, axis=2), n + 1)
        state.update(weights[taken])
        block_low = int(weights.min())
        if block_low <= min(low, n):
            tied = sysmats[weights == block_low]
            if block_low == low:
                tied = np.concatenate([best[None], tied])
            at, j = np.arange(len(tied)), 0
            while len(at) > 1 and j < n:
                at, j = at[tied[at, j] == tied[at, j].min()], j + 1
            low, best = block_low, tied[at[0]]
    if best is not None:
        state.offer(best)
    return min(sets.select(max(0, budget // k) + 1), max(0, budget // k))


def _weight_scan(fld: FiniteField, sysmat: np.ndarray, w: int, state: _SweepState, budget: int,
                 part: tuple[int, int] = (0, 1)) -> bool:
    """Enumerate the weight-w projective messages, w >= 2, against a
    systematic matrix.

    A message is 1, v_2, ..., v_w (each v_i nonzero, v_w fastest) on a support
    of w rows, supports in combinations order.  The messages are walked in
    chunks: whole supports while one support's (q-1)^(w-1) messages fit a
    batch, slices of one support's messages otherwise.  With part = (i, W),
    chunk c belongs to worker c mod W and a chunk holds at most a W-th of
    the round.  Every chunk, each part's alike, counts against the budget
    left: the first one that does not fit ends the scan before it is built,
    in every part, and the scan returns False.

    The identity columns of a codeword hold its message, w nonzeros, so only
    the n - k redundancy columns are computed.  A block of a chunk fixes a
    range of prefixes (v_1 .. v_{w-1}) and of last values v: its codewords
    are the prefix sums P (_prefix_sums, in the additive form) plus v y, y
    the last support row, and their zeros are counted by the scan's
    _zero_count, whose table is built once the first chunk fits the budget.
    The codewords at the chunk's minimum weight, over all its blocks, are
    the witness candidates, read back by one _first_codeword call per chunk
    when that weight does not exceed the running minimum: their message
    fills the identity columns, and their redundancy columns are P + v y
    from their own prefix sums P, so no codeword is encoded again.  Round 1
    is _weight_one_round.
    """
    k, n = sysmat.shape
    q = fld.q
    index, parts = part
    repeats = (q - 1) ** (w - 1)
    rows = _chunk_rows(fld, n, math.comb(k, w) * repeats, parts)
    supports = itertools.combinations(range(k), w)
    if repeats <= rows:
        groups = iter(lambda: list(itertools.islice(supports, rows // repeats)), [])
        chunks = ((group, 0, repeats) for group in groups)
    else:
        chunks = (([sup], lo, hi) for sup in supports for lo, hi in batched(repeats, rows))
    ident = _identity_columns(sysmat)
    # narrow, as the information sets' matrices are: the sweep's generator is int64
    red = np.delete(sysmat, ident, axis=1).astype(smallest_uint((q - 1).bit_length()))
    redundancy = np.delete(np.arange(n), ident)
    form = _AdditiveForm(fld, w)
    weigh = None
    spent = 0
    for c, (group, lo, hi) in enumerate(chunks):
        spent += len(group) * (hi - lo)
        if spent > budget:
            return False
        if c % parts != index:
            continue
        if weigh is None:  # after the first budget check: a cut scan builds no table
            weigh = _zero_count(fld, form, red)
        sup = np.array(group)
        low, tied = state.min_weight, []  # the chunk's lightest: (supports, values, prefix sums)
        for a, b, c0, c1 in _blocks(lo, hi, q - 1):
            prefix = _prefix_sums(fld, form, red, sup, a, b)
            weights = weigh(prefix, sup[:, -1], c0, c1)
            weights += w
            state.update(weights.reshape(-1))
            block_low = int(weights.min())
            if block_low < low:
                low, tied = block_low, []
            if block_low == low:
                g, at = np.nonzero(weights == low)
                pre, last = np.divmod(at, c1 - c0)
                vals = _message_values((a + pre) * (q - 1) + c0 + last, w, q)
                tied.append((sup[g], vals, prefix[g, pre]))
        if tied:
            sups, vals, sums = (np.concatenate(part) for part in zip(*tied))

            def redundant(i, cols):
                return fld.add(form.value(sums[i, cols]), fld.mul(vals[i, -1], red[sups[i, -1], cols]))
            # on a tie with the running minimum, the read-back stops once the witness comes first
            word = _first_codeword(ident, redundancy, sups, vals, redundant,
                                   state.witness if low == state.min_weight else None)
            if word is not None:
                state.offer(word)
    return True


def _rounds(fld: FiniteField, sets: _InformationSets, state: _SweepState, budget: int,
            stop: bool = False, part: tuple[int, int] = (0, 1)) -> tuple[int, int]:
    """Weight rounds w = 1..k over the information sets; returns the progress
    (w, j): every set finished round w, the first j sets round w + 1 too.
    Round 1 is _weight_one_round, each later round runs one _weight_scan per
    set with the budget left by all parts' scans before it.  With stop, the
    rounds end at the first scan before which the bound meets the running
    minimum weight."""
    k = len(sets.matrix)
    done = _weight_one_round(fld, sets, state, budget, part)
    if done < len(sets.ranks):
        return 0, done
    spent = done * k
    for w in range(2, k + 1):
        for j, sysmat in enumerate(s for _, block in sets.systematic(done) for s in block):
            if stop and _lower_bound(k, sets.ranks, (w - 1, j)) >= state.min_weight:
                return w - 1, j
            if not _weight_scan(fld, sysmat, w, state, budget - spent, part):
                return w - 1, j
            spent += math.comb(k, w) * (fld.q - 1) ** (w - 1)
    return k, 0


def _lower_bound(k: int, ranks, progress: tuple[int, int]) -> int:
    """Brouwer-Zimmermann at progress (w, j): a codeword no round found has over
    w_i nonzeros on set i (w + 1 for the first j sets, w for the others), so at
    least w_i + 1 - (k - r_i) on the r_i columns it adds; 1 if no w_i >= 1."""
    swept = progress[0] + (np.arange(len(ranks)) < progress[1])
    gain = np.maximum(0, swept + 1 - (k - np.asarray(ranks)))
    return max(1, int(gain[swept > 0].sum()))


def _sweep(args) -> tuple[_SweepState, int]:
    fld, matrix, budget, part = args
    state = _SweepState(matrix.shape[1])
    return state, _rounds(fld, _InformationSets(fld, matrix, greedy=False), state, budget, part=part)[0]


def exhaustive_sweep(
    code: LinearCode,
    *,
    budget: int = DEFAULT_DISTANCE_BUDGET,
    workers: int = 1,
) -> tuple[_SweepState, int]:
    """Projective message sweep by message weight w = 1..k on the RREF
    generator, optionally split over worker processes.

    Returns (state, swept): every message of weight <= swept was enumerated,
    and swept == k means the sweep completed, which it does exactly when the
    budget covers every message.  Each worker runs the chunks of its part
    and stops at the first chunk, in serial order, that does not fit the
    budget; the states merge with commutative operations, so a completed
    sweep is identical for any worker count.
    """
    fld, matrix = code.fld, code.matrix
    if workers <= 1 or projective_message_count(fld.q, code.k) < (1 << 16):
        return _sweep((fld, matrix, budget, (0, 1)))
    from concurrent.futures import ProcessPoolExecutor

    state, swept = _SweepState(code.n), code.k
    args = [(fld, matrix, budget, (i, workers)) for i in range(workers)]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        for part, done in pool.map(_sweep, args):
            state.merge(part)
            swept = min(swept, done)
    return state, swept


@dataclass
class DistanceResult:
    lower: int
    upper: int
    exact: bool
    witness: np.ndarray | None  # a codeword achieving the upper bound
    method: str
    work: int  # codewords enumerated

    def __post_init__(self):
        if not 1 <= self.lower <= self.upper:
            raise ValueError(f"inconsistent bounds [{self.lower}, {self.upper}]")
        if self.witness is not None:
            w = int((np.asarray(self.witness) != 0).sum())
            if w != self.upper:
                raise ValueError(f"witness weight {w} != upper bound {self.upper}")

    @property
    def d(self) -> int:
        if not self.exact:
            raise ValueError("distance not certified exact; use .lower/.upper")
        return self.upper

    def to_json(self):
        return {
            "d_lower": int(self.lower),
            "d_upper": int(self.upper),
            "d_exact": bool(self.exact),
            "method": self.method,
            "witness_weight": int(self.upper) if self.witness is not None else None,
            "work": int(self.work),
        }


def _pivots(fld: FiniteField, window: np.ndarray) -> list[int]:
    """The greedy pivot columns of a matrix, each column outside the span of
    the ones before it.  Row echelon form, one step per pivot: the next pivot
    is the first column with a nonzero below the rows already used, and the
    rows below are cleared without division (no field inverse is taken)."""
    m = window.copy()
    rows = len(m)
    pivots = []
    c = 0
    for r in range(rows):
        nonzero = m[r:, c:] != 0
        hit = np.flatnonzero(nonzero.any(axis=0))
        if not len(hit):
            break
        c += int(hit[0])
        pivots.append(c)
        if r + 1 == rows:
            break
        pr = r + int(nonzero[:, hit[0]].argmax())
        if pr != r:
            m[[r, pr], c:] = m[[pr, r], c:]
        # each row below becomes pivot * row - row[c] * pivot row
        below = m[r + 1:, c:]
        m[r + 1:, c:] = fld.sub(fld.mul(below, int(m[r, c])), fld.mul(below[:, :1], m[r, c:]))
        c += 1
    return pivots


class _InformationSets:
    """Greedy information sets, chosen and multiplied out a block at a time
    as round 1 reaches them; without greedy, the generator alone.

    A set's pivots come from a window of its column order, as wide as the
    last set's (4k at first), doubled while short of rank k: the unused
    columns earlier windows left (head), those none reached (cursor on),
    then the used ones.  A block of 2 gf.CHUNK_ELEMS // (k n m) sets takes
    one gflinalg.invert and one gflinalg.matmul, which writes G^T B^-T a
    slice of G's columns at a time into the block's [set, k, n] stack in the
    narrowest unsigned dtype, so the block holds no int64 or float product;
    the first blocks are kept while they fit in 8 gf.CHUNK_ELEMS bytes, and
    later rounds multiply the others out again from their inverses.
    """

    def __init__(self, fld: FiniteField, matrix: np.ndarray, greedy: bool = True):
        k, n = matrix.shape
        self.fld, self.matrix, self.ranks, self.bases = fld, matrix, [] if greedy else [k], []
        self.complete = not greedy
        self.block = max(1, 2 * gf.CHUNK_ELEMS // (k * n * fld.n))
        self.room = 8 * gf.CHUNK_ELEMS  # bytes left for kept blocks
        self.kept, self.inverses = ([], []) if greedy else ([matrix[None]], [None])
        self.used, self.head, self.cursor, self.width = np.zeros(n, dtype=bool), np.arange(0), 0, 4 * k

    def select(self, count: int) -> int:
        """Choose sets until there are `count` or one adds no unused column; how many there are."""
        k, n = self.matrix.shape
        while len(self.ranks) < count and not self.complete:
            while True:
                if len(self.head) < self.width:
                    end = min(n, self.cursor + self.width - len(self.head))
                    self.head, self.cursor = np.concatenate([self.head, np.arange(self.cursor, end)]), end
                window = self.head[:self.width]
                if len(window) < self.width:  # the unused columns run out: the used ones follow
                    window = np.concatenate([window, np.flatnonzero(self.used)[:self.width - len(window)]])
                cols = window[_pivots(self.fld, self.matrix[:, window])]
                if len(cols) == k or self.width >= n:
                    break
                self.width *= 2
            if len(cols) != k:
                raise ValueError("generator matrix is not full rank")
            new = int((~self.used[cols]).sum())
            self.used[cols] = True
            self.head = self.head[~self.used[self.head]]
            self.complete = not new or self.cursor == n and not len(self.head)
            if new:
                self.bases.append(cols)
                self.ranks.append(new)
        return len(self.ranks)

    def _multiply(self, inverses: np.ndarray) -> np.ndarray:
        # G^T B^-T: matmul expands the digits of its right factor, here the small inverses,
        # and writes each slice of G's columns straight into the narrow [set, k, n] stack
        k, n = self.matrix.shape
        stack = np.empty((len(inverses), k, n), dtype=smallest_uint((self.fld.q - 1).bit_length()))
        gflinalg.matmul(self.fld, self.matrix.T, inverses.transpose(0, 2, 1), out=stack.transpose(0, 2, 1))
        return stack

    def systematic(self, stop: int):
        """(first set, systematic matrices [set, :, :]) of the sets before
        `stop`, by blocks; round 1's walk builds them."""
        for b, lo in enumerate(range(0, self.select(stop), self.block)):
            if b == len(self.inverses):
                bases = np.array(self.bases[lo:lo + self.block])
                self.inverses.append(gflinalg.invert(self.fld, self.matrix[:, bases].transpose(1, 0, 2)))
            sysmats = self.kept[b] if b < len(self.kept) else self._multiply(self.inverses[b])
            if b == len(self.kept) and sysmats.nbytes <= self.room:
                self.kept.append(sysmats)
                self.room -= sysmats.nbytes
            yield lo, sysmats


def _distance_result(code: LinearCode, ranks, state: _SweepState, progress, method: str) -> DistanceResult:
    """The certified interval at the progress (w, j) of _rounds over sets of relative ranks `ranks`."""
    upper = min(state.min_weight, code.n)
    lower = upper if progress[0] == code.k else min(_lower_bound(code.k, ranks, progress), upper)
    witness = np.array(state.witness, dtype=np.int64) if state.witness else None
    return DistanceResult(lower, upper, lower == upper, witness, method, state.work)


def _checked_hint(code: LinearCode, upper_hint) -> np.ndarray | None:
    """The hint as a codeword, refused unless it is a nonzero word of the code:
    an upper bound offered without that check could certify a false distance."""
    if upper_hint is None:
        return None
    word = np.asarray(upper_hint)
    if not code.contains_word(word) or not word.any():
        raise ValueError(f"upper_hint is not a nonzero codeword of {code!r}")
    return word.astype(np.int64)


def information_set_distance(
    code: LinearCode,
    *,
    budget: int = DEFAULT_DISTANCE_BUDGET,
    upper_hint: np.ndarray | None = None,
) -> DistanceResult:
    """Brouwer-Zimmermann certification within a codeword budget."""
    hint = _checked_hint(code, upper_hint)
    sets = _InformationSets(code.fld, code.matrix)
    state = _SweepState(code.n)
    if hint is not None:  # before the scan: the early stop reads it
        state.offer(hint)
    progress = _rounds(code.fld, sets, state, budget, stop=True)
    method = "information-set" + ("+geometric-witness" if hint is not None else "")
    return _distance_result(code, sets.ranks, state, progress, method)


def min_distance(
    code: LinearCode,
    strategy: str = "auto",
    budget: int = DEFAULT_DISTANCE_BUDGET,
    *,
    upper_hint: np.ndarray | None = None,
    workers: int = 1,
) -> DistanceResult:
    """Certified minimum-distance bounds under the requested strategy.

    auto picks the exhaustive sweep iff q^k <= 10^8.  Budget exhaustion is
    reported as a certified interval with exact=False, never an exception.
    An upper_hint that is not a nonzero codeword raises ValueError.
    """
    if strategy not in ("auto", "exhaustive", "information-set", "isd"):
        raise ValueError(f"unknown strategy {strategy!r}")
    if strategy == "auto":
        strategy = "exhaustive" if code.fld.q**code.k <= EXHAUSTIVE_AUTO_LIMIT else "information-set"
    if strategy in ("information-set", "isd"):
        return information_set_distance(code, budget=budget, upper_hint=upper_hint)
    hint = _checked_hint(code, upper_hint)
    state, swept = exhaustive_sweep(code, budget=budget, workers=workers)
    if hint is not None:
        state.offer(hint)
    method = "exhaustive" if swept == code.k else "exhaustive-partial"
    return _distance_result(code, [code.k], state, (swept, 0), method)


@dataclass
class WeightEnumerator:
    counts: np.ndarray  # A_0 .. A_n

    def __post_init__(self):
        self.counts = np.asarray(self.counts, dtype=np.int64)

    def to_json(self):
        return [int(c) for c in self.counts]


def weight_enumerator(code: LinearCode, budget: int = DEFAULT_ENUMERATOR_BUDGET) -> WeightEnumerator:
    """Full weight distribution by exhaustive projective sweep.

    One representative per scalar class is enumerated; nonzero counts scale
    by (q - 1).  The budget is in field operations, roughly messages * n.
    """
    msgs = projective_message_count(code.fld.q, code.k)
    if msgs * code.n > budget:
        raise BudgetExceeded(
            f"weight enumerator needs ~{msgs * code.n} field ops, budget {budget}"
        )
    state, swept = exhaustive_sweep(code, budget=msgs)
    assert swept == code.k
    counts = state.histogram * (code.fld.q - 1)
    counts[0] = 1
    if int(counts.sum()) != code.fld.q**code.k:
        raise AssertionError("weight enumerator total != q^k")
    return WeightEnumerator(counts)


# -- monomial equivalence ------------------------------------------------------------


@dataclass
class MonomialWitness:
    """Explicit equivalence data: target = row_transform @ (source * diag)[:, perm]."""

    scalings: np.ndarray  # per source column, applied before permuting
    permutation: np.ndarray  # new column j comes from old column permutation[j]
    row_transform: np.ndarray  # k x k invertible

    def apply(self, fld: FiniteField, matrix: np.ndarray) -> np.ndarray:
        scaled = fld.mul(matrix, self.scalings[None, :])
        permuted = scaled[:, self.permutation]
        return gflinalg.matmul(fld, self.row_transform, permuted)

    def verify(self, fld: FiniteField, source: np.ndarray, target: np.ndarray) -> bool:
        return bool(np.array_equal(self.apply(fld, source), target))


def apply_projective_transform(code: LinearCode, transform) -> tuple[LinearCode, MonomialWitness]:
    """Push a degree-1 code through an invertible ambient coordinate change.

    Returns the code of the transformed point set together with a verified
    monomial-equivalence witness (the scalings come from re-normalizing the
    image points, the permutation from re-sorting them canonically).
    """
    if code.s != 1:
        raise ValueError("projective transforms act on s=1 codes")
    fld = code.fld
    a = gflinalg.as_matrix(transform)
    dim = code.columns.shape[1]
    if a.shape != (dim, dim):
        raise ValueError(f"transform must be {dim}x{dim}")
    if gflinalg.rank(fld, a) != dim:
        raise ValueError("transform matrix is singular")
    raw = gflinalg.matmul(fld, code.columns, a.T)
    scalings = normalizing_scalars(fld, raw)
    normalized = fld.mul(raw, scalings[:, None])
    # canonical witness: first scaling is 1 (a global scalar moves into the
    # row transform), so projectively trivial transforms get all-1 scalings
    scalings = fld.mul(scalings, fld.inv(int(scalings[0])))
    order = canonical_order(normalized)
    new_points = normalized[order]
    new_rref, pivots = gflinalg.rref(fld, new_points.T)
    new_gen = new_rref[: len(pivots)]
    new_code = LinearCode(
        fld=fld, n=code.n, k=len(new_gen), matrix=new_gen,
        columns=new_points, s=1,
        surface_ref=code.surface_ref, function_space_dim=code.function_space_dim,
    )
    scaled = fld.mul(code.matrix, scalings[None, :])
    permuted = scaled[:, order]
    # T @ permuted == new_gen, and new_gen is the identity on its pivots
    t = gflinalg.invert(fld, permuted[:, pivots])
    witness = MonomialWitness(scalings=scalings, permutation=order, row_transform=t)
    if not witness.verify(fld, code.matrix, new_code.matrix):
        raise AssertionError("monomial witness failed to verify (unreachable)")
    return new_code, witness


def code_document(
    code: LinearCode,
    dist: DistanceResult | None = None,
    wenum: WeightEnumerator | None = None,
    bounds_json=None,
    include_matrix: bool = False,
) -> dict:
    """The JSON document shape used by the CLI and logs."""
    doc = {
        "field": field_spec_string(code.fld),
        "n": code.n,
        "k": code.k,
        "s": code.s,
        "surface_ref": code.surface_ref,
    }
    if dist is not None:
        doc.update(dist.to_json())
    if wenum is not None:
        doc["weight_enumerator"] = wenum.to_json()
    if bounds_json is not None:
        doc["bounds"] = bounds_json
    if include_matrix:
        doc["generator_matrix"] = [[int(v) for v in row] for row in code.matrix]
    return doc
