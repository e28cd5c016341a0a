"""Every hilbloc module imports on its own in a fresh interpreter.

`cobordism.hilb_series` imports `localization` inside the function because
`localization` imports `cobordism`; a module-level import there, or any
other import cycle, fails here instead of depending on which module a
program happens to import first.

Every CLI call is a fresh process, so `import hilbloc.cli` is paid on each
one; it stays clear of the modules that cost start-up time and compute
nothing for hilbloc (see `hilbloc.records`).

Every source file also parses as Python 3.10, the oldest version that
`pyproject.toml` allows and that CI's matrix runs.
"""

import ast
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import hilbloc

SRC = str(Path(hilbloc.__file__).parents[1])
MODULES = sorted(m.name for m in pkgutil.iter_modules(hilbloc.__path__, "hilbloc."))


@pytest.mark.parametrize("name", MODULES)
def test_module_imports_alone(name):
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run([sys.executable, "-c", f"import {name}"], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr


def test_cli_import_skips_heavy_modules():
    # -S: no site, whose .pth files may import typing themselves and hide a regression
    heavy = ("dataclasses", "inspect", "typing")
    code = f"import sys; sys.path.insert(0, {SRC!r}); import hilbloc.cli; print(*[m for m in {heavy!r} if m in sys.modules])"
    proc = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == []


ROOT = Path(__file__).resolve().parents[1]
# perfbench/reference/ is a frozen copy of an early hilbloc that the benchmark runs as it is
SOURCES = sorted(
    str(path.relative_to(ROOT))
    for tree in ("src", "tests", "perfbench")
    for path in (ROOT / tree).rglob("*.py")
    if not path.is_relative_to(ROOT / "perfbench" / "reference")
)


@pytest.mark.parametrize("path", SOURCES)
def test_source_parses_as_python_3_10(path):
    ast.parse((ROOT / path).read_text(), filename=path, feature_version=(3, 10))
