"""Run the docstring examples of the modules that carry them, and the
README's library example."""

import doctest
from pathlib import Path

import pytest

from singcalc import curves, cyclo, qres2d, quotient, schema, weightfilt

README = Path(__file__).resolve().parents[1] / "README.md"


@pytest.mark.parametrize(
    "module", [cyclo, quotient, qres2d, curves, schema, weightfilt], ids=lambda m: m.__name__
)
def test_module_doctests(module):
    result = doctest.testmod(module)
    assert result.attempted > 0
    assert result.failed == 0


def test_readme_library_use():
    section = README.read_text(encoding="utf-8").split("## Library use", 1)[1]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(code, f"{README}:Library use", "exec"), {})
