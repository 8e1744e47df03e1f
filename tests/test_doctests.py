"""Run the examples in the package docstrings."""

import doctest
import importlib
import pkgutil

import pytest

import mcgcocycles
from mcgcocycles import freegroup

# every module but freegroup (tested on its own below) and the __main__ entry point
MODULES = sorted(info.name for info in pkgutil.iter_modules(mcgcocycles.__path__)
                 if info.name not in ("freegroup", "__main__"))
# modules whose docstrings must hold examples
WITH_EXAMPLES = {"endomorphism"}


def test_freegroup_docstring_examples():
    result = doctest.testmod(freegroup)
    assert result.attempted > 0
    assert result.failed == 0


@pytest.mark.parametrize("name", MODULES)
def test_module_docstring_examples(name):
    result = doctest.testmod(importlib.import_module(f"mcgcocycles.{name}"))
    assert result.attempted > 0 or name not in WITH_EXAMPLES
    assert result.failed == 0
