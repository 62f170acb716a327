"""Code construction, distance engines, enumerators, equivalence machinery."""

import itertools
import math
import random
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from conftest import random_invertible
from evalcodes import codes, gf, gflinalg
from evalcodes.codes import (
    LinearCode,
    _AdditiveForm,
    _InformationSets,
    _SweepState,
    _identity_columns,
    _lower_bound,
    _rounds,
    _weight_one_round,
    _weight_scan,
    apply_projective_transform,
    build_code,
    exhaustive_sweep,
    information_set_distance,
    min_distance,
    projective_message_count,
    weight_enumerator,
)
from evalcodes.families import del_pezzo6, frobenius_orbit
from evalcodes.gf import make_field
from evalcodes.poly import HomogPoly
from evalcodes.projective import BudgetExceeded, Surface

F7 = make_field(7)


def _plain_code(fld, matrix):
    matrix = np.asarray(matrix, dtype=np.int64)
    k, n = matrix.shape
    dummy = np.zeros((n, 1), dtype=np.int64)
    return LinearCode(fld, n, k, matrix, dummy, 1)


def _information_sets(fld, matrix):
    """Every greedy set of a generator, as the builder multiplies them out
    block by block: (systematic matrices stacked [set, :, :], relative ranks)."""
    sets = _InformationSets(fld, matrix)
    blocks = [sysmats for _, sysmats in sets.systematic(matrix.shape[1])]
    return np.concatenate(blocks), sets.ranks


def _random_code(fld, k, n, rng):
    while True:
        m = np.array([[rng.randrange(fld.q) for _ in range(n)] for _ in range(k)],
                     dtype=np.int64)
        g = gflinalg.nonzero_rows(fld, m)
        if len(g) == k:
            return _plain_code(fld, g)


def test_p2_line_code():
    p2 = Surface(F7, 2, [])
    c = build_code(p2, 1)
    assert (c.n, c.k) == (57, 3)
    d = min_distance(c, "exhaustive")
    assert d.exact and d.d == 49  # n minus the q+1 zeros of a linear form


def test_identity_code_distance_one():
    c = _plain_code(F7, np.eye(3, dtype=np.int64))
    d = min_distance(c, "exhaustive")
    assert d.exact and d.d == 1
    assert d.witness is not None and (d.witness != 0).sum() == 1


def test_projective_message_count():
    assert projective_message_count(7, 5) == 2801
    assert projective_message_count(9, 7) == (9**7 - 1) // 8


def test_exhaustive_matches_information_set_on_random_codes():
    rng = random.Random(20240)
    cases = 0
    # the last three take k = 2: GF(2^11) log tables, GF(131101) and GF(2^18)
    # digit vectors
    fields = [make_field(2), make_field(3), make_field(2, 2), make_field(5), make_field(7),
              make_field(2, 11), make_field(131101), make_field(2, 18)]
    while cases < 50:
        fld = fields[cases % len(fields)]
        k = rng.randrange(3, 7)
        if fld.q > 1024:
            k = 2
        elif fld.q**k > 1_000_000:
            k = 3
        n = rng.randrange(k + 4, 26)
        code = _random_code(fld, k, n, rng)
        d_ex = min_distance(code, "exhaustive")
        d_is = min_distance(code, "information-set")
        assert d_ex.exact and d_is.exact, (fld.q, k, n)
        assert d_ex.d == d_is.d, (fld.q, k, n)
        cases += 1


def test_distance_result_witness_reverifies():
    rng = random.Random(5)
    for _ in range(5):
        code = _random_code(make_field(5), 4, 15, rng)
        d = min_distance(code, "exhaustive")
        assert d.witness is not None
        assert int((d.witness != 0).sum()) == d.upper
        assert code.contains_word(d.witness)
        # singleton bound
        assert code.k + d.d <= code.n + 1


@pytest.mark.parametrize("strategy", ["exhaustive", "isd"])
def test_distance_refuses_a_hint_that_is_not_a_nonzero_codeword(dp4, strategy):
    # offered unchecked, e_1 certified d = 1 exactly on this [57, 5, 44] code
    # and a length-3 word certified d = 3
    code = build_code(dp4, 1)
    e1 = np.zeros(code.n, dtype=np.int64)
    e1[0] = 1
    bad = [e1, np.array([1, 2, 3]), np.zeros(code.n, dtype=np.int64), code.matrix[0] + 7]
    for hint in bad:
        with pytest.raises(ValueError, match="not a nonzero codeword"):
            min_distance(code, strategy, upper_hint=hint)
        with pytest.raises(ValueError, match="not a nonzero codeword"):
            information_set_distance(code, upper_hint=hint)
    d = min_distance(code, strategy, upper_hint=code.matrix[0])
    assert (d.lower, d.upper, d.exact) == (44, 44, True)


@pytest.mark.parametrize("surface", ["dp6_q7", "dp6_q8", "dp6_q9"])
def test_contains_word_is_false_off_the_encodings(surface, request):
    # over GF(8) and GF(9) a row plus q raised IndexError, and a float copy
    # of a row was taken for a codeword
    code = build_code(request.getfixturevalue(surface), 1)
    q, row = code.fld.q, code.matrix[0]
    assert code.contains_word(row) and code.contains_word(list(row))
    too_big, negative = row.copy(), row.copy()
    too_big[-1] += q
    negative[-1] -= q
    for word in (row + q, too_big, row - q, negative, row[:-1], np.append(row, 0), row[None, :],
                 row.astype(float)):
        assert not code.contains_word(word)


def test_budget_exhaustion_gives_partial_interval():
    rng = random.Random(6)
    code = _random_code(F7, 6, 20, rng)
    d = min_distance(code, "exhaustive", budget=1000)
    assert not d.exact
    assert d.method == "exhaustive-partial"
    # weights 1-3 (6 + 90 + 720 messages) fit; the weight-4 chunk does not,
    # so every codeword not enumerated has at least 4 nonzeros
    assert d.work == 816 and d.witness is not None
    assert 4 == d.lower <= d.upper <= code.n
    full = min_distance(code, "exhaustive")
    assert full.exact and full.d >= d.lower and full.d <= d.upper


def test_information_set_budget_interval():
    rng = random.Random(7)
    code = _random_code(F7, 8, 40, rng)
    d = min_distance(code, "information-set", budget=2000)
    assert not d.exact or d.lower == d.upper
    assert d.lower <= d.upper
    full = min_distance(code, "exhaustive")
    assert d.lower <= full.d <= d.upper


@pytest.mark.parametrize("p, m", [(2, 1), (7, 1), (3, 2)])
def test_first_information_set_is_the_generator(p, m):
    # the exhaustive sweep is the information-set loop on this one set
    fld = make_field(p, m)
    rng = random.Random(p * 10 + m)
    for _ in range(5):
        code = _random_code(fld, rng.randrange(2, 6), rng.randrange(8, 20), rng)
        sysmats, ranks = _information_sets(fld, code.matrix)
        assert np.array_equal(sysmats[0], code.matrix) and ranks[0] == code.k


def test_information_set_run_out_in_round_one_reports_lower_one():
    # five full-rank sets, but no round completes: the bound stays 1
    code = _random_code(F7, 4, 20, random.Random(3))
    assert _information_sets(F7, code.matrix)[1] == [4] * 5
    d = min_distance(code, "isd", budget=3)
    assert (d.lower, d.upper, d.work) == (1, 20, 0)
    assert d.method == "information-set" and not d.exact


@pytest.mark.parametrize("budget", [3, 9, 41])
def test_round_one_builds_no_set_past_the_budget(monkeypatch, budget):
    # 50 sets of 4 rows, each round-1 scan one chunk, in blocks of two sets:
    # the budget reaches 0, 2 and 10 sets, and no more than those plus one
    # block is inverted, not all 50
    code = _random_code(F7, 4, 200, random.Random(5))
    assert len(_information_sets(F7, code.matrix)[1]) == 50
    full = min_distance(code, "isd", budget=budget)
    monkeypatch.setattr(gf, "CHUNK_ELEMS", 4 * 200)
    inverted, invert = [], gflinalg.invert

    def counting_invert(fld, mat):
        inverted.append(math.prod(np.shape(mat)[:-2]))
        return invert(fld, mat)
    monkeypatch.setattr(gflinalg, "invert", counting_invert)
    d = min_distance(code, "isd", budget=budget)
    reached = budget // 4
    assert (d.lower, d.upper, d.work) == (full.lower, full.upper, full.work)
    assert d.work == 4 * reached
    assert sum(inverted) <= reached + 2


def test_weight_round_checks_budget_before_allocating():
    # weight 2 over GF(2^20) has ~10^6 messages per support; a 50-codeword
    # budget must end the scan before they are built
    code = _random_code(make_field(2, 20), 4, 12, random.Random(8))
    tracemalloc.start()
    try:
        d = min_distance(code, "isd", budget=50)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert d.work == 12 and not d.exact
    assert peak < 64 << 20


def test_zero_counters_are_built_within_the_budget():
    # over GF(13) at n - k = 2992 the zero counters take 12-bit fields, 3
    # words per entry: 7.5 MB at w = 2 (k (n - k) q words entries) and
    # 14.4 MB at w = 3 (k (n - k) 25 words); a scan the budget cuts before
    # its first chunk builds none
    code = _random_code(make_field(13), 8, 3000, random.Random(13))
    for budget, work in ((50, 8), (920, 920)):
        tracemalloc.start()
        try:
            d = min_distance(code, "exhaustive", budget=budget)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert d.work == work and not d.exact
        assert peak < 64 << 20


def test_weight_round_slices_large_supports():
    # weight 2 over GF(2^16) has 65535 messages per support, more than one
    # batch of 16384 rows at n*m = 128: each support is encoded in slices
    code = _random_code(make_field(2, 16), 4, 8, random.Random(3))
    tracemalloc.start()
    try:
        d = min_distance(code, "isd", 200_000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (d.lower, d.upper, d.work) == (4, 5, 196_613)
    assert peak < 64 << 20


def _traced_peak(run):
    """(run(), its tracemalloc peak in bytes)."""
    tracemalloc.start()
    try:
        out = run()
        return out, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_information_sets_are_built_within_their_blocks():
    # a [6000, 4] code over GF(47) has 1500 sets, 34 MiB of systematic
    # matrices in all; a block holds 2 CHUNK_ELEMS entries, written as uint8
    # slice by slice (0.5 MiB), the kept blocks 8 CHUNK_ELEMS bytes (2 MiB):
    # the run peaks at 4.2 MiB (8.9 MiB with whole-block int64 products)
    code = _random_code(make_field(47), 4, 6000, random.Random(47))
    d, peak = _traced_peak(lambda: min_distance(code, "isd", budget=10_000))
    assert (d.lower, d.upper, d.work) == (3014, 5827, 9864)
    assert peak < 5 << 20


def test_exhaustive_engines_stay_within_one_chunk(dp6_q9):
    # a chunk of the sweep holds _BATCH_TARGET GF(p) coordinates of
    # codewords; both the exhaustive sweep and the weight enumerator of the
    # [91, 7] code over GF(9) (597,871 messages) stay below one chunk's
    # coordinates as bytes (1.5 MiB; 4.0 MiB with whole blocks of counters)
    code = build_code(dp6_q9, 1)
    d, peak = _traced_peak(lambda: min_distance(code, "exhaustive"))
    assert d.exact and (d.d, d.work) == (71, 597_871)
    assert peak < codes._BATCH_TARGET
    wenum, peak = _traced_peak(lambda: weight_enumerator(code))
    assert wenum.counts[71] > 0 and peak < codes._BATCH_TARGET


@pytest.mark.slow
def test_long_code_information_sets_stay_within_their_blocks():
    # Shioda m=4 over GF(251): n = 63504, k = 4.  Round 1 at 5*10^4
    # reaches 12,500 sets; their systematic matrices at once took 3.9 GB.
    # The run's maximum RSS is 46 MiB with block products written slice by
    # slice into narrow stacks, 54 MiB with whole-block int64 products
    src = str(Path(codes.__file__).resolve().parents[1])
    run = (f"import sys; sys.path.insert(0, {src!r}); from evalcodes import codes, families, gf; "
           "code = codes.build_code(families.shioda_surface(4, gf.make_field(251)), 1); "
           "d = codes.min_distance(code, 'isd', 50_000); print(d.lower, d.upper, d.work)")
    # a child's max RSS starts from the peak of the process that spawns it,
    # so the run gets a small parent of its own, which reports it in KiB
    wrapper = ("import resource, subprocess, sys; "
               f"out = subprocess.run([sys.executable, '-c', {run!r}], capture_output=True, text=True, "
               "check=True).stdout; print(out.strip(), resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)")
    out = subprocess.run([sys.executable, "-c", wrapper], capture_output=True, text=True, check=True)
    *interval, max_rss_kib = map(int, out.stdout.split())
    assert interval == [25_000, 63_002, 50_000]
    assert max_rss_kib < 64 << 10


P31 = 2**31 - 1


def test_isd_over_gf_2_31_minus_1_certifies_without_huge_rows():
    # the weight-1 round closes the interval; nothing of size q may be built
    code = _plain_code(make_field(P31), [[1, 0, 0, P31 - 1, P31 - 2],
                                         [0, 1, 0, P31 - 3, P31 - 1],
                                         [0, 0, 1, P31 - 1, P31 - 5]])
    d = min_distance(code, "isd")
    assert d.exact and d.d == 3
    assert code.contains_word(d.witness)


def test_exhaustive_scan_over_gf_2_31_minus_1_encodes_exactly():
    code = _plain_code(make_field(P31), [[1, 0, 288545019, 1222356006],
                                         [0, 1, 1819850096, 1722851097]])
    # each worker takes one weight-1 message and one 2^19-message weight-2
    # slice; the third slice would take the two past the budget
    state, swept = exhaustive_sweep(code, budget=1_100_000, workers=2)
    assert swept == 1 and state.work == 1_048_578
    assert code.contains_word(np.array(state.witness, dtype=np.int64))


@pytest.mark.parametrize("matrix", [
    [[1, 0, 1, 1], [2, 0, 2, 2]],  # rank 1 given as k = 2
    [[2, 0, 0, 1], [0, 1, 0, 3]],  # full rank, pivot not scaled to 1
])
def test_linear_code_requires_full_rank_rref(matrix):
    with pytest.raises(ValueError, match="full-rank RREF"):
        _plain_code(F7, matrix)


def test_weight_enumerator_repetition_code():
    c = _plain_code(F7, np.ones((1, 57), dtype=np.int64))
    we = weight_enumerator(c)
    assert we.counts[0] == 1 and we.counts[57] == 6
    assert we.counts.sum() == 7


def test_weight_enumerator_totals_and_min_weight():
    rng = random.Random(8)
    code = _random_code(F7, 4, 18, rng)
    we = weight_enumerator(code)
    assert int(we.counts.sum()) == 7**4
    d = min_distance(code, "exhaustive")
    assert np.flatnonzero(we.counts)[1] == d.d  # A_0 = 1, then the least positive weight


def test_weight_enumerator_budget():
    rng = random.Random(9)
    code = _random_code(F7, 8, 30, rng)
    with pytest.raises(BudgetExceeded):
        weight_enumerator(code, budget=1000)


def test_completed_sweep_histogram_counts_every_message():
    rng = random.Random(10)
    code = _random_code(make_field(3, 2), 3, 12, rng)
    state, swept = exhaustive_sweep(code)
    assert swept == code.k
    assert int(state.histogram.sum()) == projective_message_count(9, 3)
    assert state.histogram[0] == 0
    assert int(np.flatnonzero(state.histogram)[0]) == state.min_weight


def test_worker_partition_is_invisible():
    # k = 7 over GF(7): 137257 projective messages, enough to engage the pool
    rng = random.Random(11)
    code = _random_code(F7, 7, 20, rng)
    lone, done_l = exhaustive_sweep(code, workers=1)
    duo, done_d = exhaustive_sweep(code, workers=2)
    assert done_l and done_d
    assert duo.work == lone.work == projective_message_count(7, 7)
    assert lone.min_weight == duo.min_weight
    assert lone.witness == duo.witness
    assert np.array_equal(lone.histogram, duo.histogram)
    # a budget of exactly the message count completes at any worker count
    _, swept = exhaustive_sweep(code, budget=projective_message_count(7, 7), workers=2)
    assert swept == code.k
    # every chunk counts against the one budget: both workers stop at the
    # second 612-message chunk of round 3, after rounds 1-2 (133 messages)
    # and the first chunk, which worker 0 ran
    cut, swept = exhaustive_sweep(code, budget=1001, workers=2)
    assert (swept, cut.work) == (2, 745)


def test_apply_projective_transform_witness_and_invariance(dp4):
    code = build_code(dp4, 1)
    base_d = min_distance(code, "exhaustive")
    base_we = weight_enumerator(code)
    rng = random.Random(12)
    for trial in range(10):
        a = random_invertible(F7, 5, rng)
        moved, witness = apply_projective_transform(code, a)
        assert witness.verify(F7, code.matrix, moved.matrix)
        assert (moved.n, moved.k) == (code.n, code.k)
        d = min_distance(moved, "exhaustive")
        assert d.d == base_d.d
        we = weight_enumerator(moved)
        assert np.array_equal(we.counts, base_we.counts)


def test_transform_identity_and_scalar(dp4):
    code = build_code(dp4, 1)
    ident = np.eye(5, dtype=np.int64)
    moved, wit = apply_projective_transform(code, ident)
    assert np.array_equal(moved.matrix, code.matrix)
    assert np.array_equal(wit.scalings, np.ones(code.n, dtype=np.int64))
    assert np.array_equal(wit.permutation, np.arange(code.n))
    # scalar multiple of the identity is projectively trivial
    moved2, wit2 = apply_projective_transform(code, ident * 3)
    assert np.array_equal(moved2.matrix, code.matrix)
    assert np.array_equal(wit2.scalings, np.ones(code.n, dtype=np.int64))


def test_transform_requires_s1_and_invertible(dp4):
    code2 = build_code(dp4, 2)
    with pytest.raises(ValueError):
        apply_projective_transform(code2, np.eye(5, dtype=np.int64))
    code = build_code(dp4, 1)
    with pytest.raises(ValueError):
        apply_projective_transform(code, np.zeros((5, 5), dtype=np.int64))


def test_dp4_enumerator_min_weight(dp4):
    code = build_code(dp4, 1)
    we = weight_enumerator(code)
    assert np.flatnonzero(we.counts)[1] == 44
    assert int(we.counts.sum()) == 7**5


def test_strategy_agreement_on_surface_codes(dp4, c12_sample):
    cub = HomogPoly.from_int_terms(F7, 3, 3, {(0, 2, 1): 1, (3, 0, 0): -1, (0, 0, 3): -3})
    curve_code = build_code(Surface(F7, 2, [cub], degree=3), 1)
    for code in (build_code(dp4, 1), build_code(c12_sample.surface, 1), curve_code):
        d_ex = min_distance(code, "exhaustive")
        d_is = min_distance(code, "information-set")
        assert d_ex.exact and d_is.exact and d_ex.d == d_is.d


def test_build_code_is_byte_reproducible(dp4):
    a = build_code(dp4, 1)
    b = build_code(dp4, 1)
    assert np.array_equal(a.matrix, b.matrix)
    assert np.array_equal(a.columns, b.columns)


def test_build_code_rejects_empty_point_set():
    # a conic with no rational points at all: x^2 + y^2 + z^2 has points over
    # GF(7)... use an empty intersection instead: x=y=z=0 is not projective
    gen1 = HomogPoly.variable(F7, 3, 0)
    gen2 = HomogPoly.variable(F7, 3, 1)
    gen3 = HomogPoly.variable(F7, 3, 2)
    s = Surface(F7, 2, [gen1, gen2, gen3])
    with pytest.raises(ValueError):
        build_code(s, 1)


def test_k_detects_vanishing_forms():
    # evaluating degree-3 forms on the 13 points of a plane cubic: the cubic
    # itself vanishes, so k < dim of the monomial space
    cub = HomogPoly.from_int_terms(F7, 3, 3, {(0, 2, 1): 1, (3, 0, 0): -1, (0, 0, 3): -3})
    s = Surface(F7, 2, [cub], degree=3)
    code = build_code(s, 3)
    assert code.function_space_dim == 10
    assert code.k < 10


# -- the message kernel against encoding every message through matmul ----------------

SCAN_BUDGET = 40_000
# (field, largest k, range of n - k): each field's first chunk fits SCAN_BUDGET,
# so every case scans something; GF(2^31 - 1) and GF(3^12) are cut to slices
SCAN_FIELDS = [
    (make_field(2), 6, (0, 8)),
    (make_field(2, 3), 5, (0, 8)),
    (make_field(2, 11), 2, (0, 8)),
    (make_field(7), 6, (0, 8)),
    (make_field(P31), 2, (80, 100)),
    (make_field(3, 2), 6, (0, 8)),  # w up to 6: sums of two encodings in 3-bit digit fields
    (make_field(7, 2), 3, (0, 8)),
    (make_field(5, 2), 3, (0, 8)),  # w = 3: two 4-bit digit fields fill a uint8
    (make_field(3, 5), 3, (0, 8)),  # w = 3: five 3-bit fields in a uint16, digit powers up to 81
    (make_field(3, 12), 2, (4, 8)),  # digit regime, packed into 36 bits
]


def _reference_scan(fld, sysmat, w, count):
    """Histogram, minimum weight and witness of the first count weight-w
    messages, each encoded through gflinalg.matmul."""
    k, n = sysmat.shape

    def values(t):  # v_2 .. v_w of message t on its support, v_w fastest
        digits = []
        for _ in range(w - 1):
            t, d = divmod(t, fld.q - 1)
            digits.append(d + 1)
        return (1, *reversed(digits))

    messages = ((sup, values(t))
                for sup in itertools.combinations(range(k), w)
                for t in range((fld.q - 1) ** (w - 1)))
    sups, vals = zip(*itertools.islice(messages, count))
    msgs = np.zeros((count, k), dtype=np.int64)
    np.put_along_axis(msgs, np.array(sups), np.array(vals), axis=1)
    words = gflinalg.matmul(fld, msgs, sysmat)
    weights = (words != 0).sum(axis=1)
    low = int(weights.min())
    witness = min(tuple(row) for row in words[weights == low].tolist())
    return np.bincount(weights, minlength=n + 1), low, witness


def _scan(fld, sysmat, w, state, budget):
    # weight 1 is weighed a block of sets at a time
    if w == 1:
        return _weight_one_round(fld, _InformationSets(fld, sysmat, greedy=False), state, budget)
    return _weight_scan(fld, sysmat, w, state, budget)


def _check_scan(fld, sysmat, w, budget):
    k, n = sysmat.shape
    state = _SweepState(n)
    done = _scan(fld, sysmat, w, state, budget)
    total = math.comb(k, w) * (fld.q - 1) ** (w - 1)
    assert done == (total <= budget)
    assert state.work == total if done else state.work <= budget
    if state.work:
        histogram, low, witness = _reference_scan(fld, sysmat, w, state.work)
        assert np.array_equal(state.histogram, histogram)
        assert (state.min_weight, state.witness) == (low, witness)


def _systematic(fld, k, redundancy, rng):
    """Identity columns at random positions, random entries elsewhere."""
    n = k + redundancy
    cols = rng.sample(range(n), n)
    sysmat = np.zeros((k, n), dtype=np.int64)
    sysmat[:, cols[:k]] = np.eye(k, dtype=np.int64)
    sysmat[:, cols[k:]] = [[rng.randrange(fld.q) for _ in range(redundancy)] for _ in range(k)]
    return sysmat


@st.composite
def scan_cases(draw):
    fld, k_max, (r_lo, r_hi) = draw(st.sampled_from(SCAN_FIELDS))
    k = draw(st.sampled_from(range(1, k_max + 1)))
    w = draw(st.sampled_from(range(1, k + 1)))
    redundancy = draw(st.sampled_from(range(r_lo, r_hi + 1)))
    return fld, _systematic(fld, k, redundancy, random.Random(draw(st.integers(0, 2**32)))), w


def _zero_columns(fld, k, zero, redundancy):
    """[I | 0 | random]: the first `zero` of the redundancy columns are zero."""
    rest = np.random.default_rng(redundancy).integers(fld.q, size=(k, redundancy - zero))
    return np.hstack([np.eye(k, dtype=np.int64), np.zeros((k, zero), dtype=np.int64), rest])


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(scan_cases())
# n - k = 2^b - 1 with every redundancy column zero: each zero counter
# reaches its full range 2^b - 1; and one zero column among 63
@example((make_field(7), _zero_columns(make_field(7), 3, 7, 7), 3))
@example((make_field(3, 2), _zero_columns(make_field(3, 2), 4, 63, 63), 2))
@example((make_field(13), _zero_columns(make_field(13), 3, 1, 63), 3))
def test_weight_scan_matches_matmul_encoding(case):
    fld, sysmat, w = case
    _check_scan(fld, sysmat, w, SCAN_BUDGET)


@pytest.mark.parametrize("p, m, k, redundancy, w", [
    (3, 2, 3, 0, 3),  # n == k: no redundancy column at all
    (2, 3, 4, 0, 2),
    (7, 1, 1, 0, 1),
    # long codes: slices of one support start and end inside a prefix
    (2, 4, 4, 196, 4),
    (5, 2, 3, 1900, 3),
    # w = 16: every sum is still of two encodings, 12 digits of 3 bits
    (3, 12, 16, 2, 16),
    # q = 9: digit sums of two encodings fit 3 bits, so the counter table
    # spans 37 sums at w = 5 and at w = 8 alike
    (3, 2, 6, 22, 5),
    (3, 2, 8, 20, 8),
    # 21 digits of 3 bits fill 63 bits; 22 would not, so over GF(3^22) sums
    # add by FiniteField.add instead
    (3, 21, 4, 3, 3),
    (3, 22, 4, 3, 3),
    # zero counters: n - k >= 64 takes 7-bit counters, 9 to a word, so the
    # 10 or 12 last values span two uint64 words
    (11, 1, 4, 70, 3),
    (13, 1, 4, 64, 4),
    (13, 1, 3, 0, 3),
    # one support's 1728 messages in two slices: the nested prefix sums of
    # ranges that start and end inside a run, over 11-bit counters in 3 words
    (13, 1, 4, 1286, 4),
])
def test_weight_scan_matches_matmul_encoding_at_the_edges(p, m, k, redundancy, w):
    fld = make_field(p, m)
    if p == 3 and w > 2:
        form = _AdditiveForm(fld, w)
        assert form.packed == (m <= 21)
        assert m != 2 or form.span == 37
    _check_scan(fld, _systematic(fld, k, redundancy, random.Random(k)), w, SCAN_BUDGET)


@pytest.mark.parametrize("p, m", [(3, 1), (13, 1), (3, 2), (5, 2), (7, 2), (3, 3), (3, 4)])
def test_additive_form_values_every_sum_of_two_encodings(p, m):
    # value reduces each packed digit sum, below 2p, by one compare and
    # subtract: every sum of two encodings must read back as their field sum
    fld = make_field(p, m)
    form = _AdditiveForm(fld, 3)
    x, y = np.divmod(np.arange(fld.q**2), fld.q)
    sums = form.add(form.of(x), form.of(y))
    assert form.packed and sums.dtype == form.dtype and sums.max() < form.span
    assert np.array_equal(form.value(sums), fld.add(x, y))


def test_witness_read_back_takes_the_tied_blocks_of_a_chunk_at_once(monkeypatch):
    # the 36 weight-3 messages of a [9, 3] code over GF(7) in chunks of 8:
    # each chunk spans two blocks of the 6 last values, and with this matrix
    # the lightest codewords lie in every chunk, in both blocks of three of
    # them, and the lexicographically first in chunk 2, which must beat the
    # witness of chunks 0 and 1 on a column where two candidates still tie
    fld, w, rows = make_field(7), 3, 8
    sysmat = _systematic(fld, 3, 6, random.Random(11))
    k, n = sysmat.shape
    monkeypatch.setattr(codes, "_BATCH_TARGET", rows * n)
    words = gflinalg.matmul(fld, codes._message_values(np.arange(36), w, fld.q), sysmat)
    weights = (words != 0).sum(axis=1)
    lightest = np.flatnonzero(weights == weights.min())
    first = min(lightest.tolist(), key=lambda i: words[i].tolist())
    chunks = [(lo, min(36, lo + rows)) for lo in range(0, 36, rows)]
    tied_blocks = [sum(bool(np.isin(np.arange(a * 6 + c0, (b - 1) * 6 + c1), lightest).any())
                       for a, b, c0, c1 in codes._blocks(lo, hi, 6)) for lo, hi in chunks]
    assert tied_blocks == [1, 2, 2, 2, 1] and first // rows == 2
    calls, read_back = [], codes._first_codeword

    def first_codeword(*args):
        calls.append(len(args[3]))  # the candidates' message values
        return read_back(*args)
    monkeypatch.setattr(codes, "_first_codeword", first_codeword)
    state = _SweepState(n)
    assert _weight_scan(fld, sysmat, w, state, 36)
    # one read-back per chunk, of every lightest codeword in it
    assert calls == [int(np.isin(np.arange(lo, hi), lightest).sum()) for lo, hi in chunks]
    assert (state.min_weight, state.witness) == (weights.min(), tuple(words[first].tolist()))


# -- weight rounds against encoding every message through matmul ---------------------

# both sides of the zero count: the broadcast compare (q <= 9) and the ratio
# histogram (GF(29), GF(2^5), GF(37), GF(7^2), and GF(3^10), whose uint16
# logs plus q - 1 pass 2^16)
ROUND_FIELDS = [make_field(7), make_field(2, 3), make_field(3, 2), make_field(29),
                make_field(2, 5), make_field(37), make_field(7, 2), make_field(3, 10)]


def _round_matrix(fld, rng, k, n):
    """A generator with zero columns, repeated columns and scalar multiples
    of columns, and sparse ones, so that the last row's coordinate is zero
    both where the prefix sum is and where it is not; its nonzero rows."""
    cols = [[0] * k]
    while len(cols) < n:
        kind = rng.random()
        if kind < 0.5:
            cols.append([rng.randrange(fld.q) if rng.random() < 0.6 else 0 for _ in range(k)])
        else:
            scalar = 1 if kind < 0.7 else rng.randrange(1, fld.q)
            cols.append(fld.mul(np.array(rng.choice(cols)), scalar).tolist())
    rng.shuffle(cols)
    return gflinalg.nonzero_rows(fld, np.array(cols, dtype=np.int64).T)


@st.composite
def round_cases(draw):
    fld = draw(st.sampled_from(ROUND_FIELDS))
    rng = random.Random(draw(st.integers(0, 2**32)))
    k = draw(st.integers(1, 3 if fld.q > 9 else 4))
    matrix = _round_matrix(fld, rng, k, draw(st.integers(k + 2, k + 10)))
    assume(len(matrix) == k)
    # at q = 3^10, w = 3 would take (q - 1)^2 > 3 * 10^9 messages
    return fld, matrix, draw(st.integers(1, k if fld.q < 1 << 15 else min(k, 2)))


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(round_cases())
@example((ROUND_FIELDS[-1], _round_matrix(ROUND_FIELDS[-1], random.Random(3), 3, 9), 2))
def test_rounds_match_matmul_encoding(case):
    fld, matrix, w = case
    sysmats, ranks = _information_sets(fld, matrix)
    k, n = matrix.shape
    per_set = [math.comb(k, u) * (fld.q - 1) ** (u - 1) for u in range(1, w + 1)]
    state = _SweepState(n)
    # the budget ends the rounds exactly after round w of every set
    sets = _InformationSets(fld, matrix)
    assert _rounds(fld, sets, state, len(sysmats) * sum(per_set)) == (w, 0)
    assert sets.ranks == ranks
    histogram, best = np.zeros(n + 1, dtype=np.int64), (n + 1, None)
    for sysmat in sysmats:
        for u, count in enumerate(per_set, start=1):
            hist, low, witness = _reference_scan(fld, sysmat.astype(np.int64), u, count)
            histogram += hist
            best = min(best, (low, witness))
    assert state.work == len(sysmats) * sum(per_set)
    assert np.array_equal(state.histogram, histogram)
    assert (state.min_weight, state.witness) == best


@pytest.mark.parametrize("workers, works", [(1, (0, 0, 0, 7)), (2, (0, 4, 4, 7))])
def test_weight_one_round_budget_cut_and_worker_split(dp6_q8, workers, works):
    # k = 7 over GF(8): one chunk of 7 rows with one worker; with two, chunks
    # of 4 and 3 rows, the first to worker 0, cut where the serial count
    # passes the budget
    code = build_code(dp6_q8, 1)
    for budget, work in zip((3, 4, 5, 7), works):
        state, swept = exhaustive_sweep(code, budget=budget, workers=workers)
        assert (state.work, swept) == (work, int(budget == 7))
        assert state.min_weight == (55 if work else code.n + 1)


def test_weight_one_round_budget_cut_over_information_sets():
    # 354 sets of 7 rows over GF(49), each set's round one chunk: the cut
    # falls between sets, and each of the first 346 sets, of rank 7, raises
    # the bound by 2 as its round ends; the last eight, of ranks 4 and 1,
    # add nothing
    code = build_code(del_pezzo6(frobenius_orbit(make_field(7, 2), seed=1)), 1)
    got = [(d.lower, d.upper, d.work)
           for d in (min_distance(code, "isd", budget) for budget in (6, 7, 13, 700, 2477, 2478))]
    assert got == [(1, 2451, 0), (2, 2351, 7), (2, 2351, 7), (200, 2351, 700), (692, 2351, 2471),
                   (692, 2351, 2478)]


def _credited_bound(q, k, ranks, budget):
    """The lower bound of an information-set run cut by `budget`, from the
    message counts alone: the (round, set) scans of C(k, w) (q - 1)^(w - 1)
    messages each are walked in serial order, and each one that fits the
    budget left credits its round to its set."""
    rounds = [0] * len(ranks)
    for w, i in itertools.product(range(1, k + 1), range(len(ranks))):
        budget -= math.comb(k, w) * (q - 1) ** (w - 1)
        if budget < 0:
            break
        rounds[i] = w
    return max(1, sum(max(0, u + 1 - (k - r)) for u, r in zip(rounds, ranks) if u))


@st.composite
def cut_runs(draw):
    """Random codes with k = 2..5 and n <= 16, and a budget that ends on a
    (round, set) edge of their run or one codeword before it."""
    fld = draw(st.sampled_from([make_field(2), make_field(3), make_field(2, 2), make_field(7)]))
    k = draw(st.integers(2, 5))
    code = _random_code(fld, k, draw(st.integers(k + 1, 16)), random.Random(draw(st.integers(0, 2**32))))
    ranks = _information_sets(fld, code.matrix)[1]
    edges = itertools.accumulate(math.comb(k, w) * (fld.q - 1) ** (w - 1)
                                 for w in range(1, k + 1) for _ in ranks)
    return code, ranks, draw(st.sampled_from([0, *edges])) - draw(st.integers(0, 1))


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(cut_runs())
def test_lower_bound_credits_each_set_as_it_finishes(case):
    code, ranks, budget = case
    fld, k = code.fld, code.k
    exact = min_distance(code, "exhaustive").d
    # without the early stop the rounds run to the budget's edge in every round
    state = _SweepState(code.n)
    progress = _rounds(fld, _InformationSets(fld, code.matrix), state, budget)
    bound = _lower_bound(k, ranks, progress)
    assert bound == _credited_bound(fld.q, k, ranks, budget)
    assert min(bound, state.min_weight) <= exact <= state.min_weight
    # with it the run may end sooner, once the bound meets the upper bound,
    # which the count-only bound, at least as far along, meets as well
    d = information_set_distance(code, budget=budget)
    assert d.lower <= exact <= d.upper
    assert d.lower == (d.upper if progress == (k, 0) else min(bound, d.upper))


# -- information sets ----------------------------------------------------------------


def _reference_information_sets(fld, matrix):
    """The greedy sets by one full RREF per set: the columns in the order
    (unused ascending, used ascending), pivots mapped back to their places."""
    k, n = matrix.shape
    used: set[int] = set()
    sets = []
    while True:
        unused = [c for c in range(n) if c not in used]
        if not unused:
            break
        perm = unused + sorted(used)
        r, piv = gflinalg.rref(fld, matrix[:, perm])
        back = np.empty_like(r)
        back[:, perm] = r
        new_cols = [perm[c] for c in piv if perm[c] not in used]
        if not new_cols:
            break
        used.update(new_cols)
        sets.append((back, len(new_cols)))
    return sets


# the table regimes and the digit regime (GF(131101), GF(2^18))
SET_FIELDS = [make_field(7), make_field(2, 5), make_field(7, 2), make_field(131101), make_field(2, 18)]


@st.composite
def repetitive_codes(draw):
    """Generators whose columns are mostly repeats, multiples and zeros of
    earlier ones, so the unused columns run out of rank before they run out."""
    fld = draw(st.sampled_from(SET_FIELDS))
    rng = random.Random(draw(st.integers(0, 2**32)))
    rows, n = draw(st.integers(1, 5)), draw(st.integers(1, 30))
    cols = []
    for _ in range(n):
        kind = rng.random()
        if not cols or kind < 0.3:
            cols.append([rng.randrange(fld.q) for _ in range(rows)])
        elif kind < 0.4:
            cols.append([0] * rows)
        else:
            scalar = 1 if kind < 0.7 else rng.randrange(1, fld.q)
            cols.append(fld.mul(np.array(rng.choice(cols)), scalar).tolist())
    matrix = gflinalg.nonzero_rows(fld, np.array(cols, dtype=np.int64).T)
    assume(len(matrix) > 0)
    return fld, matrix


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(repetitive_codes())
def test_information_sets_match_one_rref_per_set(case):
    fld, matrix = case
    sysmats, ranks = _information_sets(fld, matrix)
    reference = _reference_information_sets(fld, matrix)
    assert ranks == [r for _, r in reference]
    assert len(sysmats) == len(reference)
    for sysmat, (ref, _) in zip(sysmats, reference):
        assert sysmat.astype(np.int64).tobytes() == ref.tobytes()


@st.composite
def block_edge_runs(draw):
    """A repetitive code with a budget, or a cut run, and a chunk budget
    that makes blocks of one set, none kept, or of two, the first few kept."""
    if draw(st.booleans()):
        fld, matrix = draw(repetitive_codes())
        code, budget = _plain_code(fld, matrix), draw(st.integers(0, 3000))
    else:
        code, _, budget = draw(cut_runs())
    return code, budget, draw(st.sampled_from([1, code.k * code.n * code.fld.n]))


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(block_edge_runs())
def test_information_set_run_is_the_same_at_any_block_size(case):
    code, budget, chunk = case
    default = min_distance(code, "isd", budget)
    sysmats, ranks = _information_sets(code.fld, code.matrix)
    states = [_SweepState(code.n), _SweepState(code.n)]
    # without the early stop the rounds run on to the budget's edge
    progress = _rounds(code.fld, _InformationSets(code.fld, code.matrix), states[0], budget)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(gf, "CHUNK_ELEMS", chunk)
        assert _rounds(code.fld, _InformationSets(code.fld, code.matrix), states[1], budget) == progress
        d = min_distance(code, "isd", budget)
        sets = _InformationSets(code.fld, code.matrix)
        built = [block for _, block in sets.systematic(code.n)]
        assert sets.ranks == ranks and max(map(len, built)) <= 2
        assert np.array_equal(np.concatenate(built), sysmats)
        # a later walk multiplies the blocks that were not kept out again
        again = [block for _, block in sets.systematic(code.n)]
        assert np.array_equal(np.concatenate(again), sysmats)
    assert np.array_equal(states[0].histogram, states[1].histogram)
    assert states[0].witness == states[1].witness
    assert (d.lower, d.upper, d.work) == (default.lower, default.upper, default.work)
    assert (d.witness is None) == (default.witness is None)
    assert d.witness is None or np.array_equal(d.witness, default.witness)


# the packed zero counters take a slab of coordinates per pass; GF(25) counts by
# ratio histogram unless _RATIO_MIN_Q is raised past it
SLAB_FIELDS = [make_field(2), make_field(3), make_field(2, 2), make_field(7), make_field(2, 3),
               make_field(3, 2), make_field(5, 2)]


@st.composite
def slab_runs(draw):
    """A code with zero, repeated and sparse columns, a budget, and chunks of
    the default size or of 5 messages, which slice every support of more
    messages than that, (q - 1)^(w - 1) > 5."""
    fld = draw(st.sampled_from(SLAB_FIELDS))
    k = draw(st.integers(2, 4 if fld.q <= 9 else 3))
    matrix = _round_matrix(fld, random.Random(draw(st.integers(0, 2**32))), k, draw(st.integers(k + 1, k + 40)))
    assume(len(matrix) == k)
    return _plain_code(fld, matrix), draw(st.integers(0, 4000)), draw(st.sampled_from([None, 5]))


def _slab_run(code, budget):
    """Everything a run reports: the information-set and exhaustive intervals,
    work and witnesses, and the progress, histogram and witness of _rounds
    without the early stop."""
    runs = [min_distance(code, strategy, budget) for strategy in ("isd", "exhaustive")]
    state = _SweepState(code.n)
    progress = _rounds(code.fld, _InformationSets(code.fld, code.matrix), state, budget)
    return ([(d.lower, d.upper, d.work, None if d.witness is None else d.witness.tolist()) for d in runs],
            progress, state.histogram.tolist(), state.witness, state.work)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(slab_runs())
def test_zero_counters_are_the_same_in_any_slab(case):
    # one coordinate per pass; slabs of 7 pairs, a few coordinates of a small
    # block, whose last slab is shorter than the others; or a whole block in
    # one, as at the default
    code, budget, rows = case
    with pytest.MonkeyPatch.context() as mp:
        if rows:
            mp.setattr(codes, "_BATCH_TARGET", rows * code.n * code.fld.n)
        default = _slab_run(code, budget)
        mp.setattr(codes, "_RATIO_MIN_Q", code.fld.q + 1)
        for slab in (1, 7, 1 << 40):
            mp.setattr(codes, "_SLAB_ELEMS", slab)
            assert _slab_run(code, budget) == default


def test_zero_counters_stay_within_their_slabs(dp6_q7):
    # the [57, 7] code over GF(7): a weight-7 chunk is a slice of 6132
    # prefixes of one support, whose 8-byte table indices and words over the
    # 50 redundancy coordinates took 9 MiB at once
    code = build_code(dp6_q7, 1)
    d, peak = _traced_peak(lambda: min_distance(code, "exhaustive"))
    assert d.exact and (d.d, d.work) == (41, 137_257)
    assert peak < 3 << 20


def test_binary_sweep_stays_within_its_slabs():
    # a random [300, 18] binary code: its chunks hold 6990 supports of one
    # prefix over 282 coordinates, whose last slab is shorter than the
    # others; whole blocks of 8-byte indices and words peaked at 52 MiB
    code = _random_code(make_field(2), 18, 300, random.Random(18))
    d, peak = _traced_peak(lambda: min_distance(code, "exhaustive"))
    assert d.exact and (d.d, d.work) == (107, 2**18 - 1)
    assert peak < 26 << 20


@pytest.mark.parametrize("p, m", [(2, 5), (7, 2), (3, 22)])
def test_tied_witness_is_the_encoding_of_its_message(p, m):
    # one field per additive form: XOR, packed digits, field additions
    fld = make_field(p, m)
    code = _random_code(fld, 4, 12, random.Random(m))
    for sysmat in _information_sets(fld, code.matrix)[0]:
        for w in range(1, code.k + 1):
            form = _AdditiveForm(fld, w)
            assert (p == 2) or form.packed == (m == 2)
            state = _SweepState(code.n)
            _scan(fld, sysmat, w, state, 100_000)
            word = np.array(state.witness, dtype=np.int64)
            message = word[_identity_columns(sysmat)]
            assert (message != 0).sum() == w
            assert np.array_equal(gflinalg.matmul(fld, message[None, :], sysmat)[0], word)
            assert code.contains_word(word)
