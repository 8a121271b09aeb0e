"""The README quickstart as a golden transcript.

The commands are read from README's quickstart block and run through
`cli.main` in a temporary directory. Their stdout, `run/loss_trace.txt` and
`run/checkpoint.json` are compared with the goldens in tests/quickstart/:
text exactly, except that a printed number may differ from the golden's by
one unit in its last printed digit, and checkpoint tensors within 1e-9, so
that another BLAS build's rounding does not fail the test.

A change that alters the transcript on purpose rewrites the goldens with

    PYTHONPATH=src python tests/test_quickstart.py --write
"""

import contextlib
import io
import os
import re
import shlex
import shutil
import sys
import tempfile
from decimal import Decimal
from pathlib import Path

import numpy as np
import pytest

from cmla import cli
from cmla.model import load_checkpoint

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = Path(__file__).parent / "quickstart"
NUMBER = re.compile(r"-?[0-9]+(?:\.[0-9]+)?(?:[eE][-+]?[0-9]+)?")


def quickstart_commands() -> list:
    """(argv, stdin text or None, the command as README writes it) for each
    command of README's quickstart block; `echo TEXT | cmla ...` feeds TEXT."""
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Quickstart\n", 1)[1]
    block = re.search(r"\n((?:    .*\n)+)", section).group(1)
    commands = []
    for line in re.sub(r"\\\n\s*", "", block).splitlines():
        words = shlex.split(line)
        stdin = None
        if "|" in words:
            echo, words = words[: words.index("|")], words[words.index("|") + 1 :]
            assert echo[0] == "echo"
            stdin = " ".join(echo[1:]) + "\n"
        assert words[0] == "cmla"
        commands.append((words[1:], stdin, " ".join(line.split())))
    return commands


def run_quickstart(workdir: Path) -> str:
    """Run every quickstart command in `workdir`; the transcript of their stdout."""
    transcript, cwd, stdin = [], os.getcwd(), sys.stdin
    os.chdir(workdir)
    try:
        for argv, text, shown in quickstart_commands():
            out, err = io.StringIO(), io.StringIO()
            sys.stdin = io.TextIOWrapper(io.BytesIO((text or "").encode()), encoding="utf-8")
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(argv)
            assert (code, err.getvalue()) == (0, ""), shown
            transcript.append(f"$ {shown}\n{out.getvalue()}")
    finally:
        os.chdir(cwd)
        sys.stdin = stdin
    return "".join(transcript)


def assert_text_matches(actual: str, golden: str, name: str):
    """Equal text, but each number within one unit of the last digit either side printed."""
    assert NUMBER.split(actual) == NUMBER.split(golden), name
    for a, g in zip(NUMBER.findall(actual), NUMBER.findall(golden)):
        unit = max(Decimal(1).scaleb(Decimal(x).as_tuple().exponent) for x in (a, g))
        assert abs(Decimal(a) - Decimal(g)) <= unit, f"{name}: {a} against golden {g}"


def test_quickstart_matches_golden_transcript(tmp_path):
    stdout = run_quickstart(tmp_path)
    assert_text_matches(stdout, (GOLDEN / "stdout.txt").read_text(encoding="utf-8"), "stdout")
    assert_text_matches((tmp_path / "run" / "loss_trace.txt").read_text(encoding="utf-8"),
                        (GOLDEN / "loss_trace.txt").read_text(encoding="utf-8"), "loss_trace.txt")
    actual, golden = (load_checkpoint(path / "checkpoint.json") for path in (tmp_path / "run", GOLDEN))
    assert (actual.dim, actual.channels, actual.layers) == (golden.dim, golden.channels, golden.layers)
    for (name, a), (_, g) in zip(actual.named_tensors().items(), golden.named_tensors().items()):
        assert a.data.shape == g.data.shape and np.allclose(a.data, g.data, rtol=0, atol=1e-9), name


@pytest.mark.parametrize("actual, matches", [
    ("loss 0.000853, f1 100.00", True), ("loss 0.000851, f1 99.99", True), ("loss 0.00085, f1 100.00", True),
    ("loss 0.000854, f1 100.00", False), ("loss 0.000852, f1 99.98", False), ("loss: 0.000852, f1 100.00", False),
])
def test_printed_numbers_may_differ_by_one_unit_in_their_last_digit(actual, matches):
    golden = "loss 0.000852, f1 100.00"
    if matches:
        assert_text_matches(actual, golden, "text")
    else:
        with pytest.raises(AssertionError):
            assert_text_matches(actual, golden, "text")


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit(f"usage: {sys.argv[0]} --write")
    with tempfile.TemporaryDirectory() as work:
        (GOLDEN / "stdout.txt").write_text(run_quickstart(Path(work)), encoding="utf-8")
        for name in ("loss_trace.txt", "checkpoint.json"):
            shutil.copyfile(Path(work) / "run" / name, GOLDEN / name)
