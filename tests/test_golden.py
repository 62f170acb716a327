"""Byte-for-byte goldens of the CLI's search, classify and min-dist outputs.

The files under tests/golden/ pin the reproducibility contract: the same
flags must write the same bytes.  The verify-paper golden is checked by
test_verify_paper_all_rows in test_cli.py.
"""

import json
from pathlib import Path

import pytest

from evalcodes.cli import main
from evalcodes.codes import _InformationSets, build_code, min_distance
from evalcodes.families import del_pezzo6, frobenius_orbit, geometric_witness_dp6
from evalcodes.gf import parse_field_spec

GOLDEN = Path(__file__).parent / "golden"


@pytest.mark.parametrize("name, argv", [
    # hits C14 and C13; samples with a rational line end before any count
    ("search_random_cubic_q5_seed1.jsonl",
     ["search", "--family", "random-cubic", "--field", "5", "--seed", "1",
      "--budget", "40", "--depth", "3"]),
    ("search_cayley_salmon_q5_seed1.jsonl",
     ["search", "--family", "cayley-salmon", "--field", "5", "--seed", "1",
      "--budget", "20", "--depth", "3"]),
    # a cubic with a rational line: classify keeps counting through depth 2
    ("classify_lined_cubic_q5_depth2.json",
     ["classify", "--surface", str(GOLDEN / "lined_cubic_q5.surface"), "--depth", "2"]),
    # information-set run over an extension field, truncated by its budget
    ("min_dist_dp6_q9_s2_budget200k.json",
     ["min-dist", "--family", "del-pezzo-6", "--field", "3^2", "--seed", "1",
      "--degree", "2", "--budget", "200000"]),
    # a completed exhaustive sweep and weight enumerator over an extension
    # field; its 299593 messages are enough to engage the worker pool, and
    # the output must not depend on the worker count
    *[("build_code_dp6_q8_s1_exhaustive.json",
       ["build-code", "--family", "del-pezzo-6", "--field", "2^3", "--seed", "1",
        "--degree", "1", "--strategy", "exhaustive", "--enumerator", "--workers", workers])
      for workers in ("1", "2")],
    # the same over an odd extension field: its histogram pins the weights
    ("build_code_dp6_q9_s1_exhaustive.json",
     ["build-code", "--family", "del-pezzo-6", "--field", "3^2", "--seed", "1",
      "--degree", "1", "--strategy", "exhaustive", "--enumerator"]),
    # truncated information-set runs over an odd prime and a binary extension
    *[(f"min_dist_dp6_{tag}_s2_budget200k.json",
       ["min-dist", "--family", "del-pezzo-6", "--field", spec, "--seed", "1",
        "--degree", "2", "--budget", "200000"])
      for tag, spec in (("q7", "7"), ("q8", "2^3"))],
    # c12 names the cayley-salmon family in search as in every other command
    ("search_cayley_salmon_q5_seed1.jsonl",
     ["search", "--family", "c12", "--field", "5", "--seed", "1",
      "--budget", "20", "--depth", "3"]),
    # information-set run on a long code (n = 2451, k = 7), truncated by its
    # budget; its last sets are rank-deficient, with pivots on used columns
    ("min_dist_dp6_q49_s1_isd_budget50k.json",
     ["min-dist", "--family", "del-pezzo-6", "--field", "7^2", "--seed", "1",
      "--degree", "1", "--strategy", "information-set", "--budget", "50000"]),
    # long codes over a prime field and a binary extension whose runs reach
    # weight 3 before their budget ends
    *[(f"min_dist_dp6_{tag}_s1_isd_budget300k.json",
       ["min-dist", "--family", "del-pezzo-6", "--field", spec, "--seed", "1",
        "--degree", "1", "--strategy", "information-set", "--budget", "300000"])
      for tag, spec in (("q37", "37"), ("q32", "2^5"))],
])
def test_cli_output_matches_golden(name, argv, tmp_path, capsys):
    out = tmp_path / name
    assert main(argv + ["--out", str(out)]) == 0
    assert out.read_bytes() == (GOLDEN / name).read_bytes()


def _check_isd_witness(name, code, hint, budget, interval):
    # the min-dist JSON carries only the witness weight; pin the codeword,
    # which the scan found ahead of the geometric hint where there is one
    d = min_distance(code, "isd", budget, upper_hint=hint)
    golden = json.loads((GOLDEN / f"{name}.witness.json").read_text())
    assert (d.lower, d.upper, d.work) == interval
    assert [int(v) for v in d.witness] == golden
    assert code.contains_word(d.witness)


def _check_truncated_isd_witness(tag, spec, interval):
    surface = del_pezzo6(frobenius_orbit(parse_field_spec(spec), seed=1))
    code = build_code(surface, 2)
    hint = geometric_witness_dp6(surface)
    _check_isd_witness(f"min_dist_dp6_{tag}_s2_budget200k", code, hint, 200_000, interval)


def test_truncated_isd_witness_matches_golden():
    _check_truncated_isd_witness("q9", "3^2", (15, 53, 194_370))


@pytest.mark.parametrize("tag, spec, interval", [
    ("q7", "7", (10, 27, 180_436)),
    ("q8", "2^3", (12, 39, 196_004)),
])
def test_truncated_isd_witness_matches_golden_over_more_fields(tag, spec, interval):
    _check_truncated_isd_witness(tag, spec, interval)


def test_long_code_isd_witness_matches_golden():
    # 354 information sets, the last six of ranks 4, 4, 4, 4, 4, 1: the
    # golden pins the rank-deficient tail, whose pivots fall on used columns
    code = build_code(del_pezzo6(frobenius_orbit(parse_field_spec("7^2"), seed=1)), 1)
    sets = _InformationSets(code.fld, code.matrix)
    sets.select(code.n)
    ranks = sets.ranks
    assert (len(ranks), ranks[-6:]) == (354, [4, 4, 4, 4, 4, 1])
    _check_isd_witness("min_dist_dp6_q49_s1_isd_budget50k", code, None, 50_000, (739, 2351, 49_854))


@pytest.mark.parametrize("tag, spec, interval", [
    ("q37", "37", (597, 1331, 299_508)),
    ("q32", "2^5", (450, 991, 299_997)),
])
def test_long_code_weight_three_isd_witness_matches_golden(tag, spec, interval):
    code = build_code(del_pezzo6(frobenius_orbit(parse_field_spec(spec), seed=1)), 1)
    _check_isd_witness(f"min_dist_dp6_{tag}_s1_isd_budget300k", code, None, 300_000, interval)


def test_c12_isd_stops_within_a_round(c12_sample):
    # the paper's [64, 10, 38] code over GF(7): after round 5 of every set
    # the bound is 5 * 6 + 5 + 1 = 36; the first two sets' round 6 raise it
    # to 38, the weight of the lightest codeword found, and the run stops
    # there, with five sets of round 6 left unenumerated
    code = build_code(c12_sample.surface, 2)
    sets = _InformationSets(code.fld, code.matrix)
    assert (sets.select(code.n), sets.ranks) == (7, [10] * 5 + [9, 5])
    _check_isd_witness("min_dist_c12_q7_s2", code, None, 20_000_000, (38, 38, 5_901_784))


@pytest.mark.parametrize("workers", [1, 2])
def test_exhaustive_witness_matches_golden(workers):
    surface = del_pezzo6(frobenius_orbit(parse_field_spec("2^3"), seed=1))
    code = build_code(surface, 1)
    d = min_distance(code, "exhaustive", workers=workers)
    golden = json.loads((GOLDEN / "build_code_dp6_q8_s1_exhaustive.witness.json").read_text())
    assert (d.lower, d.upper, d.work) == (55, 55, 299_593)
    assert [int(v) for v in d.witness] == golden
    assert code.contains_word(d.witness)
