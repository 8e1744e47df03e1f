"""verify's entry point refuses a suite it does not have."""

import pytest

from mcgcocycles.verify import run_suite


def test_run_suite_rejects_an_unknown_suite_name():
    with pytest.raises(ValueError, match="^unknown suite 'nope'$"):
        run_suite("nope", [2], 5, 0)
