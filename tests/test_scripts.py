"""The scripts under scripts/, the modules and the README's Python example
run to completion in a fresh interpreter."""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def run_python(*args):
    path = os.pathsep.join(p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p)
    return subprocess.run(
        [sys.executable, *args],
        env=dict(os.environ, PYTHONPATH=path), capture_output=True, text=True, timeout=300,
    )


@pytest.mark.parametrize(
    "script, args",
    [("gradient_audit.py", ["--coords", "2"]), ("overfit_demo.py", ["--epochs", "2"])],
)
def test_script_exits_zero(script, args):
    proc = run_python(str(ROOT / "scripts" / script), *args)
    assert proc.returncode == 0, proc.stdout + proc.stderr


@pytest.mark.parametrize(
    "args",
    [["-c", f"import cmla.{m}"] for m in ("autodiff", "bio", "data", "gru", "model", "evaluation", "cli")]
    + [["-m", "cmla.cli", "--help"]],
    ids=lambda args: " ".join(args),
)
def test_module_imports_on_its_own(args):
    # the package root imports no module, so each must import its own dependencies
    proc = run_python("-W", "error", *args)
    assert proc.returncode == 0, proc.stdout + proc.stderr


def test_readme_python_example_prints_its_comment():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Python API\n", 1)[1].split("\n## ", 1)[0]
    code = textwrap.dedent("\n".join(ln for ln in section.splitlines() if ln.startswith("    ") or not ln)).strip()
    expected = code.splitlines()[-1].removeprefix("# ")
    proc = run_python("-W", "error", "-c", code)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout == expected + "\n"
