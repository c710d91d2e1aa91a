"""Each singcalc module imports first, on its own, in a fresh interpreter.

A module that imports another only for a type annotation can close an
import cycle that only shows when the other module is imported first.
"""

import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import singcalc

SRC = str(Path(singcalc.__file__).parent.parent)
MODULES = sorted(m.name for m in pkgutil.iter_modules(singcalc.__path__))


@pytest.mark.parametrize("module", MODULES)
def test_module_imports_first(module):
    env = {**os.environ, "PYTHONPATH": SRC}
    run = subprocess.run(
        [sys.executable, "-c", f"import singcalc.{module}"], env=env, capture_output=True, text=True
    )
    assert run.returncode == 0, run.stderr
