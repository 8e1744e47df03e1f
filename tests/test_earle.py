import random
from fractions import Fraction

import pytest

from mcgcocycles import (
    FreeGroup,
    MembershipError,
    a0,
    abelianize,
    coboundary_a0,
    compose,
    earle_psi,
    induced_matrix,
    inner,
    jablow,
    over_canonical_denominator,
    random_element,
    random_word,
    twist_catalog,
)
from mcgcocycles.endomorphism import Endo


def test_a0_values():
    assert a0(2) == (Fraction(0), Fraction(0), Fraction(1), Fraction(1))
    assert a0(3) == (Fraction(0),) * 3 + (Fraction(1, 2),) * 3
    assert a0(5) == (Fraction(0),) * 5 + (Fraction(1, 4),) * 5
    with pytest.raises(ValueError):
        a0(1)


def test_coboundary_on_jablow_is_minus_two_a0():
    for g in (2, 3, 4, 5):
        F = FreeGroup(g)
        assert coboundary_a0(jablow(F)) == tuple(-2 * q for q in a0(g))


def test_coboundary_matches_the_per_entry_fraction_formula():
    """The integer mat_vec form against rho^-1 applied to a0 entry by entry."""
    rng = random.Random(4242)
    for g in range(2, 7):
        F = FreeGroup(g)
        base = a0(g)
        elements = [jablow(F), *twist_catalog(F)]
        elements += [random_element(F, 5, seed=rng.randrange(1 << 30)) for _ in range(8)]
        for phi in elements:
            rho_inv = induced_matrix(phi.backward)
            moved = tuple(sum(row[j] * base[j] for j in range(2 * g)) for row in rho_inv)
            assert coboundary_a0(phi) == tuple(moved[k] - base[k] for k in range(2 * g))


def test_coboundary_vanishes_on_homologically_trivial_elements():
    F = FreeGroup(2)
    assert coboundary_a0(inner(F.word("A1 B2"))) == (Fraction(0),) * 4
    for t in twist_catalog(F):
        moved = coboundary_a0(t)
        assert len(moved) == 4


@pytest.mark.parametrize("g", [2, 3, 4, 5, 6])
def test_psi_on_jablow(g):
    F = FreeGroup(g)
    q = Fraction(1, g - 1)
    expected = (q,) * g + tuple(-k * q for k in range(1, g + 1))
    assert earle_psi(jablow(F)) == expected


def test_psi_on_jablow_genus_three_literal():
    F = FreeGroup(3)
    assert earle_psi(jablow(F)) == (
        Fraction(1, 2),
        Fraction(1, 2),
        Fraction(1, 2),
        Fraction(-1, 2),
        Fraction(-1),
        Fraction(-3, 2),
    )


@pytest.mark.parametrize("g", [2, 3, 4, 5, 6])
def test_psi_on_composite_with_inner(g):
    F = FreeGroup(g)
    xb = F.identity()
    for ell in range(g, 0, -1):
        xb = xb * F.b(ell)
    comp = compose(inner(xb.inverse()), jablow(F))
    q = Fraction(1, g - 1)
    expected = (q,) * g + tuple((g - 1 - k) * q for k in range(1, g + 1))
    assert earle_psi(comp) == expected


def test_psi_restricts_to_the_class_map_on_conjugations():
    rng = random.Random(606)
    for _ in range(200):
        g = rng.randint(2, 5)
        F = FreeGroup(g)
        x = random_word(F, rng.randint(0, 30), rng)
        assert earle_psi(inner(x)) == tuple(
            Fraction(v) for v in abelianize(x)
        )


def test_psi_twisted_cocycle_identity():
    rng = random.Random(8080)
    for g in (2, 3):
        F = FreeGroup(g)
        n = 2 * g
        for k in range(40):
            p1 = random_element(F, 4, seed=rng.randrange(1 << 30))
            p2 = random_element(F, 4, seed=rng.randrange(1 << 30))
            comp = compose(p1, p2)
            rho2_inv = induced_matrix(p2.backward)
            v1 = earle_psi(p1)
            moved = tuple(
                sum(Fraction(row[j]) * v1[j] for j in range(n))
                for row in rho2_inv
            )
            assert earle_psi(comp) == tuple(
                a + b for a, b in zip(moved, earle_psi(p2))
            )


def test_two_g_minus_two_psi_is_integral():
    rng = random.Random(515)
    for g in (2, 3, 4):
        F = FreeGroup(g)
        for k in range(25):
            phi = random_element(F, 4, seed=rng.randrange(1 << 30))
            nums, den = over_canonical_denominator(earle_psi(phi), g)
            assert den == 2 * g - 2
            assert all(isinstance(n, int) for n in nums)


def test_over_canonical_denominator_rejects_foreign_denominators():
    with pytest.raises(ValueError):
        over_canonical_denominator((Fraction(1, 3),) * 4, 2)


def test_psi_is_not_just_the_base_point_shift():
    for g in (2, 3, 4):
        F = FreeGroup(g)
        assert earle_psi(jablow(F)) != coboundary_a0(jablow(F))


def test_psi_rejects_non_members():
    F = FreeGroup(2)
    phi = Endo(F, (F.a(1), F.a(2), F.b(1), F.identity()))
    with pytest.raises(MembershipError):
        earle_psi(phi)
    with pytest.raises(MembershipError):
        coboundary_a0(phi)
