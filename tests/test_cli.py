"""CLI wiring: flags, JSON shapes, determinism, exit codes."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import evalcodes
from evalcodes import cli
from evalcodes.bounds import predicted_Nr
from evalcodes.cli import main
from evalcodes.families import del_pezzo4_fixture
from evalcodes.projective import surface_to_text


def run_cli(argv, capsys):
    code = main(argv)
    out, err = capsys.readouterr()
    return code, out, err


def test_build_code_dp4(tmp_path, capsys):
    out = tmp_path / "dp4.json"
    code, _, err = run_cli([
        "build-code", "--family", "del-pezzo-4", "--field", "7",
        "--degree", "1", "--strategy", "exhaustive", "--out", str(out),
    ], capsys)
    assert code == 0
    doc = json.loads(out.read_text())
    assert (doc["n"], doc["k"], doc["d_lower"], doc["d_upper"]) == (57, 5, 44, 44)
    assert doc["d_exact"] is True
    assert doc["bounds"]["ns_alarm"] is False
    assert doc["field"] == "7"
    assert "[57,5,44]" in err


def test_build_code_certifies_like_min_dist_at_degree_two(tmp_path, capsys):
    # build-code and min-dist certify through one path: the same witness hint,
    # interval and work as the min-dist golden
    out = tmp_path / "dp6.json"
    code, _, _ = run_cli([
        "build-code", "--family", "del-pezzo-6", "--field", "7", "--seed", "1",
        "--degree", "2", "--budget", "200000", "--out", str(out),
    ], capsys)
    assert code == 0
    doc = json.loads(out.read_text())
    golden = json.loads((Path(__file__).parent / "golden" / "min_dist_dp6_q7_s2_budget200k.json").read_text())
    keys = ("d_lower", "d_upper", "d_exact", "method", "witness_weight", "work")
    assert {k: doc[k] for k in keys} == {k: golden[k] for k in keys}


def test_build_code_reads_surface_file(tmp_path, capsys):
    surf = del_pezzo4_fixture()
    path = tmp_path / "dp4.surface"
    path.write_text(surface_to_text(surf))
    code, _, _ = run_cli([
        "build-code", "--surface", str(path), "--degree", "1",
        "--strategy", "exhaustive", "--out", str(tmp_path / "o.json"),
    ], capsys)
    assert code == 0
    doc = json.loads((tmp_path / "o.json").read_text())
    assert (doc["n"], doc["k"], doc["d_upper"]) == (57, 5, 44)


def test_min_dist_dp6(tmp_path, capsys):
    out = tmp_path / "d.json"
    code, _, _ = run_cli([
        "min-dist", "--family", "del-pezzo-6", "--field", "7", "--seed", "1",
        "--degree", "1", "--strategy", "exhaustive", "--out", str(out),
    ], capsys)
    assert code == 0
    doc = json.loads(out.read_text())
    assert (doc["n"], doc["k"], doc["d_upper"], doc["d_exact"]) == (57, 7, 41, True)


def test_classify_cubic_cli(tmp_path, capsys):
    out = tmp_path / "c.json"
    code, _, _ = run_cli([
        "classify", "--family", "cayley-salmon", "--field", "7", "--seed", "1",
        "--depth", "2", "--out", str(out),
    ], capsys)
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["matched"] == "C12"
    assert doc["observed_Nr"]["1"] == 64


def test_classify_cubic_cli_over_gf3(tmp_path, capsys):
    # characteristic 3 counts on the grid; the line search needs q >= 3
    out = tmp_path / "c3.json"
    code, _, _ = run_cli([
        "classify", "--family", "cayley-salmon", "--field", "3", "--seed", "1",
        "--depth", "2", "--out", str(out),
    ], capsys)
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["matched"] == "C12" and doc["line_count"] == 0
    assert doc["observed_Nr"] == {str(r): predicted_Nr("C12", 3, r) for r in (1, 2)}


def test_classify_cubic_cli_over_gf8(capsys):
    # the C12 draw over GF(8) builds no field beyond GF(2^9)
    code, out, _ = run_cli(["classify", "--family", "cayley-salmon", "--field", "2^3", "--depth", "3"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["matched"] == "C12"
    assert doc["observed_Nr"] == {str(r): predicted_Nr("C12", 8, r) for r in (1, 2, 3)}


def test_scan_sections_dp4(tmp_path, capsys):
    out = tmp_path / "s.json"
    code, _, _ = run_cli([
        "scan-sections", "--family", "del-pezzo-4", "--field", "7",
        "--out", str(out),
    ], capsys)
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["max_count"] == 13
    assert doc["optimal_genus1_count"] == 13
    assert doc["max_is_optimal"] is True
    assert sum(doc["histogram"].values()) == doc["total_hyperplanes"] == 2801


def test_search_jsonl_deterministic_and_resumable(tmp_path, capsys):
    args = ["search", "--family", "cayley-salmon", "--field", "7",
            "--seed", "1", "--budget", "10", "--depth", "1"]
    out1 = tmp_path / "a.jsonl"
    out2 = tmp_path / "b.jsonl"
    assert run_cli(args + ["--out", str(out1)], capsys)[0] == 0
    assert run_cli(args + ["--out", str(out2)], capsys)[0] == 0
    assert out1.read_text() == out2.read_text()
    lines = [json.loads(x) for x in out1.read_text().splitlines()]
    assert lines[-1] == {"substream_complete": 0, "seed": 1, "hits": lines[-1]["hits"]}
    hits = [x for x in lines if "substream_complete" not in x]
    for hit in hits:
        assert hit["classification"]["matched"] == "C12"
        assert hit["code"]["n"] == 64 and hit["code"]["k"] == 4
    # a completed substream is skipped on rerun (file unchanged)
    before = out1.read_text()
    assert run_cli(args + ["--out", str(out1)], capsys)[0] == 0
    assert out1.read_text() == before


def test_search_resume_does_not_repeat_hit_rows(tmp_path, capsys):
    # a run cut after its first hit row, before substream_complete, resumes
    # into the same bytes as an uncut run
    golden = Path(__file__).parent / "golden" / "search_random_cubic_q5_seed1.jsonl"
    out = tmp_path / "cut.jsonl"
    out.write_text(golden.read_text().splitlines(keepends=True)[0])
    assert run_cli(["search", "--family", "random-cubic", "--field", "5", "--seed", "1",
                    "--budget", "40", "--depth", "3", "--out", str(out)], capsys)[0] == 0
    assert out.read_bytes() == golden.read_bytes()


def test_search_resume_rewrites_a_row_cut_mid_line(tmp_path, capsys):
    # the cut bytes after the last newline go; the rerun writes that row whole
    golden = Path(__file__).parent / "golden" / "search_random_cubic_q5_seed1.jsonl"
    out = tmp_path / "cut.jsonl"
    out.write_bytes(golden.read_bytes()[:500])
    assert run_cli(["search", "--family", "random-cubic", "--field", "5", "--seed", "1",
                    "--budget", "40", "--depth", "3", "--out", str(out)], capsys)[0] == 0
    assert out.read_bytes() == golden.read_bytes()


def test_search_resume_skips_a_substream_only_under_its_seed(tmp_path, capsys):
    out = tmp_path / "two_seeds.jsonl"
    args = ["search", "--family", "random-cubic", "--field", "5", "--budget", "3",
            "--depth", "1", "--out", str(out)]
    assert run_cli(args + ["--seed", "1"], capsys)[0] == 0
    code, _, err = run_cli(args + ["--seed", "2"], capsys)
    assert code == 0 and "already complete" not in err
    done = [json.loads(x) for x in out.read_text().splitlines() if "substream_complete" in x]
    assert [(x["seed"], x["substream_complete"]) for x in done] == [(1, 0), (2, 0)]


def test_search_resume_skips_lines_that_are_not_objects(tmp_path, capsys):
    out = tmp_path / "r.jsonl"
    out.write_text('[1]\nnot json\n{"substream_complete": 0, "seed": 0, "hits": 0}\n')
    before = out.read_text()
    code, _, err = run_cli(["search", "--family", "cayley-salmon", "--field", "7",
                            "--budget", "10", "--out", str(out)], capsys)
    assert code == 0 and "already complete" in err
    assert out.read_text() == before


def test_build_code_reruns_are_diff_clean(tmp_path, capsys):
    args = ["build-code", "--family", "del-pezzo-6", "--field", "7", "--seed", "3",
            "--degree", "1", "--strategy", "exhaustive", "--enumerator", "--matrix"]
    out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
    assert run_cli(args + ["--out", str(out1)], capsys)[0] == 0
    assert run_cli(args + ["--out", str(out2)], capsys)[0] == 0
    assert out1.read_text() == out2.read_text()


def test_config_file_flags_win(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"family": "del-pezzo-4", "field": "7", "degree": 1,
                               "strategy": "exhaustive"}))
    out = tmp_path / "o.json"
    code, _, _ = run_cli(["--config", str(cfg), "build-code", "--out", str(out)], capsys)
    assert code == 0
    assert json.loads(out.read_text())["n"] == 57
    # explicit flag beats the config value
    code, _, _ = run_cli([
        "--config", str(cfg), "build-code", "--family", "shioda", "--m", "4",
        "--field", "11", "--out", str(out),
    ], capsys)
    assert code == 0
    assert json.loads(out.read_text())["n"] == 144


def test_config_values_parse_as_their_flags(tmp_path, capsys):
    # a config value goes through its flag's type, as the same text on the command line would
    def run(config, argv):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        return run_cli(["--config", str(cfg)] + argv, capsys)

    build = ["build-code", "--family", "del-pezzo-6", "--field", "7", "--degree", "1", "--matrix"]
    assert run({"seed": "1"}, build)[:2] == run({"seed": 1}, build)[:2]
    min_dist = ["min-dist", "--family", "del-pezzo-4", "--field", "7"]
    code, out, _ = run({"budget": "5"}, min_dist)
    assert code == 0 and json.loads(out)["work"] == 5
    # keys the command does not take stay ignored, its internal fields too
    assert run({"matrix": True, "fn": 3, "command": "x"}, min_dist)[0] == 0
    for config, argv in [({"budget": "five"}, min_dist), ({"seed": 1.5}, min_dist),
                         ({"strategy": "fast"}, min_dist), ({"matrix": "yes"}, build[:-1])]:
        code, _, err = run(config, argv)
        assert code == 2 and "error:" in err


def test_config_loses_to_an_abbreviated_flag(tmp_path, capsys):
    # argparse takes --bud for --budget; the config's budget applied over it
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"budget": 5}))
    for flag in ("--budget", "--bud", "--budget=100000"):
        argv = [flag, "100000"] if "=" not in flag else [flag]
        code, out, _ = run_cli(["--config", str(cfg), "min-dist", "--family", "del-pezzo-4",
                                "--field", "7", *argv], capsys)
        assert code == 0 and json.loads(out)["work"] == 2801


def test_input_errors_exit_2(tmp_path, capsys):
    code, _, err = run_cli(["build-code", "--family", "nope", "--field", "7"], capsys)
    assert code == 2 and "error" in err
    code, _, _ = run_cli(["build-code", "--surface", str(tmp_path / "missing.txt")], capsys)
    assert code == 2
    code, _, _ = run_cli(["build-code", "--family", "shioda", "--field", "7"], capsys)
    assert code == 2  # missing --m
    cfg = tmp_path / "list.json"
    cfg.write_text("[1, 2]")
    code, _, err = run_cli(["--config", str(cfg), "build-code", "--family", "del-pezzo-4"], capsys)
    assert code == 2 and "error:" in err
    code, _, err = run_cli(["search", "--family", "cayley-salmon", "--field", "7",
                            "--target", "C14", "--budget", "1"], capsys)
    assert code == 2 and "error:" in err


@pytest.mark.parametrize("argv", [
    ["min-dist", "--family", "del-pezzo-4", "--field", "7", "--budget", "-5"],
    ["min-dist", "--family", "del-pezzo-4", "--field", "7", "--workers", "-3"],
    ["min-dist", "--family", "del-pezzo-4", "--field", "7", "--workers", "0"],
    ["verify-paper", "--budget", "0"],
    ["search", "--field", "5", "--budget", "1", "--budget-distance", "0"],
    ["search", "--field", "5", "--budget", "1", "--substreams", "-2"],
    ["search", "--field", "5", "--budget", "1", "--depth", "0"],
    ["classify", "--family", "del-pezzo-4", "--field", "7", "--depth", "0"],
])
def test_counts_below_one_exit_2(argv, tmp_path, capsys):
    # on the command line argparse refuses the value before any work starts
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "invalid positive_int value" in capsys.readouterr().err
    # the same value from a config file
    flag, value = argv[-2:]
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({flag[2:]: int(value)}))
    code, out, err = run_cli(["--config", str(cfg), *argv[:-2]], capsys)
    assert code == 2 and out == "" and "invalid positive_int value" in err


class _Drawn(Exception):
    pass


@pytest.mark.parametrize("argv, seed", [
    (["verify-paper"], 1),
    (["verify-paper", "--seed", "0"], 0),
    (["--config", "seed0.json", "verify-paper"], 0),
    (["min-dist", "--family", "del-pezzo-6"], 0),
    (["classify", "--family", "cayley-salmon"], 0),
    (["--config", "seed0.json", "classify", "--family", "cayley-salmon", "--seed", "4"], 4),
])
def test_seed_reaches_the_draw_as_given(argv, seed, monkeypatch, tmp_path):
    # the first seeded draw of each command records its seed and stops the run
    drawn = []

    def record(fld, seed, **_):
        drawn.append(seed)
        raise _Drawn

    monkeypatch.setattr(cli, "frobenius_orbit", record)
    monkeypatch.setattr(cli, "sample_cayley_salmon", record)
    (tmp_path / "seed0.json").write_text(json.dumps({"seed": 0}))
    monkeypatch.chdir(tmp_path)
    with pytest.raises(_Drawn):
        main(argv)
    assert drawn == [seed]


def test_console_entry_point():
    # the child interpreter finds the package the way this one did, installed or not
    src = str(Path(evalcodes.__file__).parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(
        [sys.executable, "-m", "evalcodes.cli", "scan-sections", "--family",
         "del-pezzo-4", "--field", "7"],
        capture_output=True, text=True, timeout=300, env=env,
    )
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert doc["max_count"] == 13


def test_verify_paper_all_rows(tmp_path, capsys):
    out = tmp_path / "verify.json"
    code, _, err = run_cli(["verify-paper", "--seed", "1", "--out", str(out)], capsys)
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["all_pass"] is True
    assert len(doc["rows"]) >= 30
    assert err.count("PASS") == len(doc["rows"])
    golden = Path(__file__).parent / "golden" / "verify_paper_seed1.json"
    assert out.read_bytes() == golden.read_bytes()


def test_verify_paper_records_its_seed(tmp_path, capsys):
    # the sampled surfaces do not show in the rows, so the seed key tells the runs apart
    docs = []
    for seed in ("0", "1"):
        out = tmp_path / f"verify{seed}.json"
        code, _, _ = run_cli(["verify-paper", "--seed", seed, "--out", str(out)], capsys)
        assert code == 0
        docs.append(out.read_bytes())
    assert docs[0] != docs[1]
    assert [json.loads(doc)["seed"] for doc in docs] == [0, 1]
