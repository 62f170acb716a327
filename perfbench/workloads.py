"""The benchmark's workloads: set-up, timed jobs and output checks.

A workload is `setup(seed, tmp) -> ctx` (what setup_s times), `inputs(seed)`
(inputs generated from the seed, merged into ctx, untimed) and `jobs(ctx)`,
a list of `(job id, run, check)`.  `run()` returns the job's output text (the JSON or
JSONL the program wrote); `check(text, ctx)` returns a list of problems,
judged against references that do not come from the code under test
(closed forms for the degree-6 Del Pezzo codes, the zeta-class point counts
recomputed from roots of unity, weight-enumerator totals).  Every job runs in
this process through the public evalcodes API or `evalcodes.cli.main`, with
one client: the next job starts when the previous one returns.
"""

from __future__ import annotations

import cmath
import json
import math
from pathlib import Path

import numpy as np

# Program functions are looked up on their modules at call time, so the
# tracer's patches of those modules apply to the calls made here.
from evalcodes import bounds, cli, codes, families, gf

DP6_FIELDS = {7: (7, 1), 8: (2, 3), 9: (3, 2), 32: (2, 5), 47: (47, 1), 49: (7, 2)}
SWEEP_EXHAUSTIVE = (7, 8, 9)
# Codeword budget per long code.  Weight 1 costs k codewords per information
# set (1-2.5k in all); at 50k, the weight-2 scans take 76-90% of each job's
# time (2.1 GHz Xeon, one BLAS thread).
SWEEP_ISD = {32: 50_000, 47: 50_000, 49: 50_000}
# classify job -> (search family, q, deep samples, shallow samples).  The
# deep share follows the rate at which the pre-screen of classify_inputs
# passes samples: 38.0% (cubic, GF(7)), 21.5% (C12, GF(7)) and 36.1% (cubic,
# GF(5)) over the first 100 search seeds of workload seeds 1-10.
CLASSIFY_JOBS = {
    "cubic-q7": ("random-cubic", 7, 3, 5),
    "c12-q7": ("cayley-salmon", 7, 2, 7),
    "cubic-q5": ("random-cubic", 5, 4, 7),
}
MAX_SEARCH_SAMPLES = 2_000  # seeds tried per job when picking its samples

# Root orders (d, multiplicity) of Frobenius on the primitive lattice of a
# smooth cubic surface for the five Picard-rank-one classes
# (Swinnerton-Dyer's table); the reference for every search hit.
ZETA_CLASSES = {
    "C10": ((2, 2), (3, 1), (6, 1)),
    "C11": ((3, 3),),
    "C12": ((3, 1), (6, 2)),
    "C13": ((3, 1), (12, 1)),
    "C14": ((9, 1),),
}


def zeta_class_count(tag: str, q: int, r: int) -> int:
    """|X(F_{q^r})| for a cubic of class `tag`, summing primitive roots of unity."""
    trace = 0.0
    for d, mult in ZETA_CLASSES[tag]:
        roots = [cmath.exp(2j * cmath.pi * k / d) for k in range(1, d + 1) if math.gcd(k, d) == 1]
        trace += mult * sum(z**r for z in roots).real
    return 1 + q ** (2 * r) + q**r * (1 + round(trace))


def _field(q: int):
    return gf.make_field(*DP6_FIELDS.get(q, (q, 1)))


def _dp6_code(q: int, seed: int, s: int):
    return codes.build_code(families.del_pezzo6(families.frobenius_orbit(_field(q), seed=seed)), s)


# -- paper ----------------------------------------------------------------------------


def paper_setup(seed: int, tmp: Path) -> dict:
    for q in (7, 8, 9):
        _dp6_code(q, seed or 1, 1)
        _dp6_code(q, seed or 1, 2)
    families.sample_cayley_salmon(_field(7), seed or 1)
    return {"seed": seed, "tmp": tmp}


def paper_jobs(ctx: dict):
    return [("verify-paper", lambda: _verify_paper(ctx), _check_paper)]


def _verify_paper(ctx) -> str:
    out = ctx["tmp"] / "verify-paper.json"
    rc = cli.main(["verify-paper", "--seed", str(ctx["seed"]), "--workers", "1", "--out", str(out)])
    if rc != 0:
        raise RuntimeError(f"verify-paper exited with {rc}")
    return out.read_text()


def _check_paper(text: str, ctx) -> list[str]:
    doc = json.loads(text)
    problems = [f"row {r['id']} failed" for r in doc["rows"] if not r["pass"]]
    if doc["all_pass"] is not True:
        problems.append("all_pass is not true")
    rows = {r["id"]: r["computed"] for r in doc["rows"]}
    for q in (7, 8, 9):
        if rows.get(f"dp6-q{q}-s1") != [q * q + q + 1, 7, q * q - q - 1]:
            problems.append(f"dp6-q{q}-s1 is not [q^2+q+1, 7, q^2-q-1]")
        if rows.get(f"dp6-q{q}-s2-witness-weight") != q * q - 3 * q - 1:
            problems.append(f"dp6-q{q}-s2 witness weight is not q^2-3q-1")
    c12 = rows.get("c12-q7-Nr") or {}
    if {int(r): v for r, v in c12.items()} != {r: zeta_class_count("C12", 7, r) for r in (1, 2, 3)}:
        problems.append("c12-q7 point counts differ from the C12 zeta class")
    return problems


# -- sweep ----------------------------------------------------------------------------


def sweep_setup(seed: int, tmp: Path) -> dict:
    return {"seed": seed, "codes": {q: _dp6_code(q, seed, 1) for q in DP6_FIELDS}}


def sweep_jobs(ctx: dict):
    jobs = []
    for q in SWEEP_EXHAUSTIVE:
        jobs.append((f"exhaustive-q{q}", lambda q=q: _exhaustive(ctx, q), _check_exhaustive))
    for q, budget in SWEEP_ISD.items():
        jobs.append((f"isd-q{q}", lambda q=q, b=budget: _isd(ctx, q, b), _check_isd))
    return jobs


def _distance_doc(code, dist, wenum=None) -> str:
    doc = codes.code_document(code, dist, wenum)
    doc["q"] = code.fld.q
    doc["witness"] = None if dist.witness is None else [int(v) for v in dist.witness]
    return json.dumps(doc, sort_keys=True)


def _exhaustive(ctx, q: int) -> str:
    code = ctx["codes"][q]
    dist = codes.min_distance(code, "exhaustive", codes.projective_message_count(q, code.k))
    return _distance_doc(code, dist, codes.weight_enumerator(code))


def _isd(ctx, q: int, budget: int) -> str:
    return _distance_doc(ctx["codes"][q], codes.min_distance(ctx["codes"][q], "information-set", budget))


def _check_dp6_code(doc: dict, ctx) -> list[str]:
    q, problems = doc["q"], []
    if (doc["n"], doc["k"]) != (q * q + q + 1, 7):
        problems.append(f"q={q}: [n, k] is not [q^2+q+1, 7]")
    d = q * q - q - 1
    if not doc["d_lower"] <= d <= doc["d_upper"]:
        problems.append(f"q={q}: interval [{doc['d_lower']}, {doc['d_upper']}] misses q^2-q-1")
    witness = doc["witness"]
    if witness is None or sum(1 for v in witness if v) != doc["d_upper"]:
        problems.append(f"q={q}: witness weight differs from d_upper")
    elif not ctx["codes"][q].contains_word(np.array(witness, dtype=np.int64)):
        problems.append(f"q={q}: witness is not a codeword")
    return problems


def _check_exhaustive(text: str, ctx) -> list[str]:
    doc = json.loads(text)
    q, d = doc["q"], doc["q"] ** 2 - doc["q"] - 1
    problems = _check_dp6_code(doc, ctx)
    if not doc["d_exact"] or doc["d_upper"] != d:
        problems.append(f"q={q}: exhaustive sweep did not certify d = q^2-q-1")
    a = doc["weight_enumerator"]
    if sum(a) != q**7 or a[0] != 1 or any(a[1:d]) or not a[d]:
        problems.append(f"q={q}: weight enumerator does not sum to q^k or disagrees with d")
    if any(v % (q - 1) for v in a[1:]):
        problems.append(f"q={q}: weight enumerator counts are not multiples of q-1")
    return problems


def _check_isd(text: str, ctx) -> list[str]:
    return _check_dp6_code(json.loads(text), ctx)


# -- classify -------------------------------------------------------------------------


def classify_setup(seed: int, tmp: Path) -> dict:
    for q in (5, 7):
        base = _field(q)
        for r in (2, 3, 6):
            gf.get_embedding(base, _ext(base, r))
        for a, b in ((2, 6), (3, 6)):
            gf.get_embedding(_ext(base, a), _ext(base, b))
    return {"seed": seed, "tmp": tmp}


def _ext(base, r: int):
    return gf.make_field(base.p, base.n * r)


def classify_inputs(seed: int) -> dict:
    """Search seeds for each classify job: a fixed number of deep samples
    (ones that reach the r=3 count, 1.5-2.5 s each over GF(7)) and of
    shallow ones (rejected in milliseconds), the first of each kind among
    seeds seed*10000, seed*10000+1, ...  A random cubic goes deep exactly when
    it is a hit of the depth-2 search (the five classes already differ in
    N_1, so a surviving sample has a unique class), and a Cayley-Salmon draw
    when it is a depth-1 C12 hit (unless it is singular over GF(q^2)).
    Fixing the mix keeps the cost of a pass independent of the seed; which
    samples are used still varies with it.
    """
    chosen = {}
    for job, (family, q, deep_wanted, shallow_wanted) in CLASSIFY_JOBS.items():
        target, depth = ("C12", 1) if family == "cayley-salmon" else (None, 2)
        deep, shallow = [], []
        for s in range(seed * 10_000, seed * 10_000 + MAX_SEARCH_SAMPLES):
            hit = families.random_cubic_search(_field(q), target, s, 1, classify_depth=depth, screen_depth=depth)
            pick = deep if hit else shallow
            wanted = deep_wanted if hit else shallow_wanted
            if len(pick) < wanted:
                pick.append(s)
            if len(deep) == deep_wanted and len(shallow) == shallow_wanted:
                break
        else:
            raise RuntimeError(f"{job}: too few deep or shallow samples in {MAX_SEARCH_SAMPLES} seeds")
        chosen[job] = (family, q, sorted(deep + shallow))
    return {"search_seeds": chosen}


def classify_jobs(ctx: dict):
    return [(job, lambda job=job: _search(ctx, *ctx["search_seeds"][job]),
             lambda text, ctx, job=job: _check_search(text, ctx["search_seeds"][job]))
            for job in CLASSIFY_JOBS]


def _search(ctx, family: str, q: int, seeds: list[int]) -> str:
    """One `search --budget 1` run per seed; the output is their JSONL in order."""
    text = []
    for s in seeds:
        out = ctx["tmp"] / f"search-{family}-q{q}-{s}.jsonl"
        out.unlink(missing_ok=True)
        args = ["search", "--family", family, "--field", str(q), "--seed", str(s), "--budget", "1",
                "--depth", "3", "--workers", "1", "--out", str(out)]
        if cli.main(args + (["--target", "C14"] if family == "random-cubic" else [])) != 0:
            raise RuntimeError(f"search --seed {s} exited non-zero")
        text.append(out.read_text())
    return "".join(text)


def _check_search(text: str, search) -> list[str]:
    """Every hit is of the searched class with the class's point counts at
    r = 1, 2, 3, and its code is an exact [N_1, 4] code; one completion
    line per search seed."""
    family, q, seeds = search
    want = "C12" if family == "cayley-salmon" else "C14"
    rows = [json.loads(line) for line in text.splitlines()]
    problems = []
    if sum(1 for row in rows if "substream_complete" in row) != len(seeds):
        problems.append("not every search seed completed")
    for row in rows:
        if "substream_complete" in row:
            continue
        cls = row["classification"]
        tag = cls["matched"]
        observed = {int(r): v for r, v in cls["observed_Nr"].items()}
        where = f"seed {row['seed']}"
        if tag != want or sorted(observed) != [1, 2, 3]:
            problems.append(f"{where}: hit {tag} is not a {want} classified through depth 3")
            continue
        for r, n_r in observed.items():
            if n_r != zeta_class_count(tag, q, r) or n_r != bounds.predicted_Nr(tag, q, r):
                problems.append(f"{where}: N_{r} = {n_r} is not the {tag} count")
        code = row["code"]
        if (code["n"], code["k"]) != (observed[1], 4) or not code["d_exact"]:
            problems.append(f"{where}: hit code is not an exact [N_1, 4] code")
    return problems


def _no_inputs(seed: int) -> dict:
    return {}


# workload -> (set-up, generated inputs, jobs); set-up is what setup_s times.
WORKLOADS = {
    "paper": (paper_setup, _no_inputs, paper_jobs),
    "sweep": (sweep_setup, _no_inputs, sweep_jobs),
    "classify": (classify_setup, classify_inputs, classify_jobs),
}
