"""Fuzzing the CLI exit contract.

Valid problem documents and flags are mutated (wrong types, booleans,
missing keys, huge numerals, deep nesting, unknown vector names, bad
--case and --samples) and run through ``cli.main`` in-process.  Whatever
the input: no exception escapes, the status is 0, 1 or 2, stdout is one
JSON report, and a status-2 report names the error and its message.

The flags are always ones argparse accepts, so every run reaches the
program's own checks; argparse's own rejections are pinned separately.
"""

import contextlib
import io
import json
import os
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from torusgerbe.cli import COMMAND_TABLE, EXAMPLES, MAX_SAMPLES, main

CLI_DIR = Path(__file__).resolve().parents[1] / "bench" / "cli"
BASE_DOCS = [json.loads((CLI_DIR / f"problem-{n}.json").read_text()) for n in ("n2", "n3")]

# JSON text spliced in for this placeholder string: an integer literal
# longer than Python's int-string digit limit
HUGE = "<huge-integer>"
HUGE_TEXT = "7" * 5000

junk = st.one_of(
    st.sampled_from([None, True, False, 0.5, float("nan"), float("inf"), [], {}]),
    st.sampled_from(["", "x", "1/2", "-3", "1/0", " 2 ", "0.5", "integral"]),
    st.sampled_from([int("9" * 4300), HUGE, "1" * 4301, "9" * 4300 + "/7", 10**40, -(10**40)]),
    st.integers(-5, 9),
    st.lists(st.integers(0, 7), max_size=4),
    st.dictionaries(st.sampled_from(["indices", "coeff", "u"]), st.integers(1, 4), max_size=2),
)


@st.composite
def documents(draw):
    doc = json.loads(json.dumps(draw(st.sampled_from(BASE_DOCS))))
    for _ in range(draw(st.integers(0, 3))):
        # walk down from a top-level key, stopping at each level by a coin
        # flip, so the top-level keys are mutated as often as all the rest
        parent, key = doc, draw(st.sampled_from(list(doc)))
        while isinstance(parent[key], (dict, list)) and parent[key] and not draw(st.booleans()):
            parent = parent[key]
            keys = list(parent) if isinstance(parent, dict) else range(len(parent))
            key = draw(st.sampled_from(keys))
        op = draw(st.sampled_from(["replace", "delete", "wrap"]))
        if op == "replace":
            parent[key] = draw(junk)
        elif op == "delete":
            del parent[key]
        else:
            parent[key] = [parent[key]] * draw(st.integers(1, 2))
    text = json.dumps(doc).replace(json.dumps(HUGE), HUGE_TEXT)
    depth = draw(st.sampled_from([0, 0, 0, 50, 100_000]))
    if depth:  # nest a key's value, or the whole document, that deep
        inner = "[" * depth + "1" + "]" * draw(st.sampled_from([depth, 0]))
        text = draw(st.sampled_from([inner, text.replace('"n": ', f'"n": {inner}, "m": ', 1)]))
    return doc, text


def vector_values(doc):
    names = list(doc.get("vectors", {})) if isinstance(doc.get("vectors"), dict) else []
    entry = st.sampled_from(["0", "1", "-1/2", "1/3", "x", "1" * 4301, "9" * 4000 + "/7"])
    inline = st.lists(entry, min_size=1, max_size=7).map(",".join)
    return st.one_of(st.sampled_from(names + ["nosuch", "", ","]), inline)


@st.composite
def invocations(draw):
    doc, text = draw(documents())
    cmd = draw(st.sampled_from(list(COMMAND_TABLE)))
    flags = []
    for flag in COMMAND_TABLE[cmd].flags:
        if flag == "problem":
            continue
        if flag == "name":
            value = draw(st.sampled_from(list(EXAMPLES)))
        elif flag == "case":
            value = draw(st.sampled_from([None, "integral", "oneone"]))
        elif flag == "generators":
            names = draw(st.lists(vector_values(doc), max_size=3))
            value = ",".join(names)
        elif flag == "samples":
            value = draw(st.one_of(
                st.none(),
                st.integers(-3, 12),
                st.integers(MAX_SAMPLES + 1, 10**30),
                st.integers(-(10**30), -1),
            ))
        elif flag == "seed":
            value = draw(st.one_of(st.none(), st.integers(-(10**20), 10**20)))
        else:
            value = draw(vector_values(doc))
        if value is not None:
            flags.append(f"--{flag}={value}")
    return cmd, text, flags


def run_main(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        status = main(argv)
    return status, out.getvalue()


@settings(
    max_examples=300,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(invocations(), st.booleans())
def test_every_input_keeps_the_exit_contract(invocation, latin1):
    cmd, text, flags = invocation
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "problem.json")
        with open(path, "wb") as fh:
            # a stray Latin-1 byte makes the file invalid UTF-8
            fh.write((b"\xe9" if latin1 else b"") + text.encode())
        argv = [cmd, *flags]
        if "problem" in COMMAND_TABLE[cmd].flags:
            argv.insert(1, path)
        status, out = run_main(argv)
    assert status in (0, 1, 2)
    report = json.loads(out)
    if status == 2:
        assert isinstance(report["result"]["error"], str)
        assert isinstance(report["result"]["message"], str)


@pytest.mark.parametrize(
    "argv",
    [
        ["example", "--name", "nope"],
        ["example"],
        ["no-such-command"],
        ["tau-verify", "problem.json", "--w", "u", "--samples", "abc"],
        ["tau-verify", "problem.json", "--w", "u", "--case", "bogus"],
        ["membership", "problem.json"],
    ],
)
def test_argparse_rejections_exit_2_with_usage_on_stderr(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        with pytest.raises(SystemExit) as info:
            main(argv)
    assert info.value.code == 2
    assert out.getvalue() == ""
    assert "error:" in err.getvalue()
