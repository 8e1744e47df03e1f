"""Run the examples in the package docstrings."""

import doctest

from mcgcocycles import freegroup


def test_freegroup_docstring_examples():
    result = doctest.testmod(freegroup)
    assert result.attempted > 0
    assert result.failed == 0
