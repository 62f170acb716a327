"""Byte-for-byte goldens of the CLI's search and classify outputs.

The files under tests/golden/ pin the reproducibility contract: the same
flags must write the same bytes.  The verify-paper golden is checked by the
slow test in test_cli.py.
"""

from pathlib import Path

import pytest

from evalcodes.cli import main

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
])
def test_cli_output_matches_golden(name, argv, tmp_path, capsys):
    out = tmp_path / name
    assert main(argv + ["--out", str(out)]) == 0
    assert out.read_bytes() == (GOLDEN / name).read_bytes()
