"""Run the docstring examples of the modules that carry them."""

import doctest

import pytest

from singcalc import curves, cyclo, qres2d, quotient, schema, weightfilt


@pytest.mark.parametrize(
    "module", [cyclo, quotient, qres2d, curves, schema, weightfilt], ids=lambda m: m.__name__
)
def test_module_doctests(module):
    result = doctest.testmod(module)
    assert result.attempted > 0
    assert result.failed == 0
