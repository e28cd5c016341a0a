"""Every hilbloc module imports on its own in a fresh interpreter.

`cobordism.hilb_series` imports `localization` inside the function because
`localization` imports `cobordism`; a module-level import there, or any
other import cycle, fails here instead of depending on which module a
program happens to import first.
"""

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
