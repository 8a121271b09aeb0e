"""The scripts under scripts/, the modules and the README's Python example
run to completion in a fresh interpreter, and each module uses every name
it imports and imports only the standard library, numpy and cmla itself."""

import ast
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


@pytest.mark.parametrize("path", sorted((ROOT / "src" / "cmla").glob("*.py")), ids=lambda p: p.name)
def test_module_uses_every_name_it_imports(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.asname or alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(alias.asname or alias.name for alias in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert sorted(imported - used) == []


@pytest.mark.parametrize("path", sorted((ROOT / "src" / "cmla").glob("*.py")), ids=lambda p: p.name)
def test_module_imports_only_the_standard_library_numpy_and_cmla(path):
    # numpy is the only backend: an import of any other package passes on a
    # host that happens to have it installed and fails everywhere else
    tree = ast.parse(path.read_text(encoding="utf-8"))
    names = [alias.name for node in ast.walk(tree) if isinstance(node, ast.Import) for alias in node.names]
    names += ["." * node.level + (node.module or "") for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)]
    outside = [name for name in names if not (name.startswith(".") and not name.startswith(".."))
               and name.partition(".")[0] not in sys.stdlib_module_names | {"numpy"}]
    assert outside == []


def test_readme_python_example_prints_its_comment():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Python API\n", 1)[1].split("\n## ", 1)[0]
    code = textwrap.dedent("\n".join(ln for ln in section.splitlines() if ln.startswith("    ") or not ln)).strip()
    expected = code.splitlines()[-1].removeprefix("# ")
    proc = run_python("-W", "error", "-c", code)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout == expected + "\n"
