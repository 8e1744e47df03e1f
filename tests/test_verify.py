"""verify's entry point, and its checks against broken cocycle values."""

from collections import defaultdict
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


def _over_2g(phi):
    """psi's numerators over 2g in place of 2g - 2."""
    return tuple(Fraction(n, 2 * phi.group.genus) for n in psi_numerators(phi))


@pytest.mark.parametrize("seed", [0, 1, 7])
def test_paper_vectors_fail_when_psi_divides_by_2g(monkeypatch, seed):
    assert _failed("paper-vectors", (3,), 1, seed) == []
    monkeypatch.setattr(verify, "earle_psi", _over_2g)
    assert _failed("paper-vectors", (3,), 1, seed) == [
        "g=3 rational cocycle on the involution",
        "g=3 rational cocycle on the composite",
    ]


@pytest.mark.parametrize("seed", [0, 1, 7])
def test_integrality_fails_when_psi_divides_by_2g(monkeypatch, seed):
    """Numerators over 2g leave a denominator that does not divide 2g - 2."""
    genera = (2, 3, 4, 5)
    assert _failed("earle", genera, 8, seed) == []
    monkeypatch.setattr(verify, "earle_psi", _over_2g)
    assert _failed("earle", genera, 8, seed) == [f"g={g} (2g-2) psi is integral" for g in genera]


def _negated(cocycle):
    return lambda phi: tuple(-v for v in cocycle(phi))


@pytest.mark.parametrize("seed", [0, 1, 7])
@pytest.mark.parametrize("name, suite, check", [
    ("f_tilde", "cocycle-n", "f_tilde on conjugations is 2[x]"),
    ("morita_f", "descent", "restriction to conjugations is (2-2g)[x]"),
    ("psi_numerators", "earle", "restriction to conjugations is [x]"),
])
def test_a_sign_flipped_cocycle_fails_its_restriction_to_conjugations(
        monkeypatch, seed, name, suite, check):
    """The suite's lambdas read each cocycle from verify's globals when they run."""
    assert _failed(suite, (3,), 8, seed) == []
    monkeypatch.setattr(verify, name, _negated(getattr(verify, name)))
    assert f"g=3 {check}" in _failed(suite, (3,), 8, seed)


def _count_draws(monkeypatch):
    """Wrap each family's draw; the returned dict lists each family's samples."""
    drawn = defaultdict(list)
    families = {id(f): f for suite in verify.SUITES.values() for f in suite.head + suite.families}
    for family in families.values():
        def counted(group, rng, family=family, draw=family.draw):
            sample = draw(group, rng)
            drawn[family].append(sample)
            return sample
        monkeypatch.setattr(family, "draw", counted)
    return drawn


@pytest.mark.parametrize("genera", [(2,), (2, 3), (3,)])
@pytest.mark.parametrize("samples", [1, 3, 20])
def test_each_family_draws_as_many_samples_as_its_draw_asks(monkeypatch, samples, genera):
    """None drawn: 1; elements built: max(1, samples // 4); words only: samples.

    Per genus, except that a head family draws once per run.
    """
    drawn = _count_draws(monkeypatch)
    for name, suite in verify.SUITES.items():
        drawn.clear()
        suite(genera, samples, 0)
        for family in suite.head + suite.families:
            first = drawn[family][0]
            per_genus = max(1, samples // 4) if first.seeds else samples if first.words else 1
            at = (2,) if family in suite.head else genera
            want = [g for g in at for _ in range(per_genus)]
            assert [s.group.genus for s in drawn[family]] == want, (name, list(family.checks))
