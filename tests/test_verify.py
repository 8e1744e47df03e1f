"""verify's entry point, and the psi checks against broken psi values."""

from fractions import Fraction

import pytest

from mcgcocycles import morita_f, psi_numerators, verify
from mcgcocycles.verify import failures, run_suite


def test_run_suite_rejects_an_unknown_suite_name():
    with pytest.raises(ValueError, match="^unknown suite 'nope'$"):
        run_suite("nope", [2], 5, 0)


def _failed(suite, genera, samples, seed):
    return [r.name for r in failures(run_suite(suite, genera, samples, seed))]


@pytest.mark.parametrize("seed", [0, 1, 7])
def test_earle_suite_fails_when_the_numerators_add_f(monkeypatch, seed):
    """2 s + f in place of 2 s - f is still a cocycle, but (2 - 2g)[x] on conjugations."""
    assert _failed("earle", (3,), 8, seed) == []

    def flipped(phi):
        return tuple(n + 2 * f for n, f in zip(psi_numerators(phi), morita_f(phi)))

    monkeypatch.setattr(verify, "psi_numerators", flipped)
    assert _failed("earle", (3,), 8, seed) == ["g=3 restriction to conjugations is [x]"]


@pytest.mark.parametrize("seed", [0, 1, 7])
def test_paper_vectors_fail_when_psi_divides_by_2g(monkeypatch, seed):
    assert _failed("paper-vectors", (3,), 1, seed) == []

    def over_2g(phi):
        return tuple(Fraction(n, 2 * phi.group.genus) for n in psi_numerators(phi))

    monkeypatch.setattr(verify, "earle_psi", over_2g)
    assert _failed("paper-vectors", (3,), 1, seed) == [
        "g=3 rational cocycle on the involution",
        "g=3 rational cocycle on the composite",
    ]
