"""The cocycle rule on elements that commute with the involution iota.

If phi iota = iota phi, the rule read on both products gives
2 rho(phi) c(phi) = rho(phi) c(iota) - c(iota), with the forward rho(phi)
alone.  The A twists commute with ``jablow`` exactly, as images.  The B
twist of handle 1 commutes with it only in M_{g,*}, so the identity holds
for f and psi, which descend there, and not for f_tilde.
"""

import pytest

from mcgcocycles import FreeGroup, compose, f_tilde, in_N, jablow, mat_vec, morita_f, psi_numerators
from mcgcocycles.endomorphism import named_element

COCYCLES = {"f_tilde": f_tilde, "morita_f": morita_f, "psi_numerators": psi_numerators}
GENERA = [2, 3, 4, 5]


def _identity_holds(cocycle, phi, at_iota):
    """2 rho(phi) c(phi) == rho(phi) c(iota) - c(iota), given c(iota)."""
    rho = in_N(phi).rho
    left = tuple(2 * v for v in mat_vec(rho, cocycle(phi)))
    return left == tuple(a - b for a, b in zip(mat_vec(rho, at_iota), at_iota))


def _a_twists(group):
    """Each A twist and its inverse."""
    for k in range(1, group.genus + 1):
        twist = named_element(group, f"twist:{k}:A")
        yield twist
        yield twist.inverse()


@pytest.mark.parametrize("g", GENERA)
def test_a_twists_commute_with_the_involution_and_satisfy_the_identity(g):
    group = FreeGroup(g)
    iota = jablow(group)
    for phi in _a_twists(group):
        assert compose(phi, iota).images == compose(iota, phi).images
        for name, cocycle in COCYCLES.items():
            assert _identity_holds(cocycle, phi, cocycle(iota)), name


@pytest.mark.parametrize("g", GENERA)
def test_the_first_b_twist_satisfies_the_identity_only_for_the_descended_cocycles(g):
    group = FreeGroup(g)
    iota, phi = jablow(group), named_element(group, "twist:1:B")
    assert compose(phi, iota).images != compose(iota, phi).images
    assert _identity_holds(morita_f, phi, morita_f(iota))
    assert _identity_holds(psi_numerators, phi, psi_numerators(iota))
    assert not _identity_holds(f_tilde, phi, f_tilde(iota))


@pytest.mark.parametrize("g", GENERA)
def test_a_negated_value_on_the_involution_breaks_the_identity(g):
    group = FreeGroup(g)
    iota = jablow(group)
    verdicts = [_identity_holds(cocycle, phi, tuple(-v for v in cocycle(iota)))
                for phi in _a_twists(group) for cocycle in COCYCLES.values()]
    assert len(verdicts) == 6 * g and not any(verdicts)
