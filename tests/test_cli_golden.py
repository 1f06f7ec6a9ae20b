"""The CLI's stdout, pinned: every case of the benchmark's cli-oneshot
workload, run in-process, must reproduce the exit status and the SHA-256
of stdout recorded in bench/cli/golden.json."""

import hashlib
import json
from pathlib import Path

import pytest

from torusgerbe.cli import main

CLI_DIR = Path(__file__).resolve().parents[1] / "bench" / "cli"
GOLDEN = json.loads((CLI_DIR / "golden.json").read_text())

# (label, flags) per command; a "-v" suffix marks a second case of one command
COMMAND_CASES = (
    ("check-torus", []),
    ("check-type", []),
    ("translate", ["--w", "u"]),
    ("membership", ["--w", "u"]),
    ("tau-verify", ["--w", "u"]),
    ("tau-verify-v", ["--w", "v"]),
    ("xi", ["--w1", "u", "--w2", "v"]),
    ("obstruction1", ["--generators", "u,v"]),
    ("obstruction2", ["--generators", "u,v,x"]),
    ("theta-table", ["--generators", "u,v"]),
    ("gerbal-class", ["--w1", "u", "--w2", "v", "--w3", "x"]),
)


def cli_cases():
    cases = []
    for name in ("n2", "n3", "n4"):
        path = str(CLI_DIR / f"problem-{name}.json")
        for label, flags in COMMAND_CASES:
            cases.append((f"{name}/{label}", [label.removesuffix("-v"), path, *flags]))
    for example in ("k-group", "first-obstruction", "second-obstruction"):
        cases.append((f"example/{example}", ["example", "--name", example]))
    return cases


CASES = cli_cases()


def test_every_golden_case_is_run():
    assert sorted(case for case, _ in CASES) == sorted(GOLDEN)


@pytest.mark.parametrize("case, argv", CASES, ids=[case for case, _ in CASES])
def test_stdout_digest_and_status_match_golden(case, argv, capsys):
    expected = GOLDEN[case]
    status = main(argv)
    out = capsys.readouterr().out
    assert status == expected["status"]
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == expected["sha256"]
