import random
from fractions import Fraction

import pytest

from mcgcocycles import (
    FreeGroup,
    MembershipError,
    a0,
    coboundary_a0,
    compose,
    earle_psi,
    f_tilde,
    in_N,
    induced_matrix,
    inner,
    jablow,
    morita_f,
    psi_numerators,
    random_element,
    twist_catalog,
)
from mcgcocycles.endomorphism import Endo, named_element
from matrix_oracle import identity_matrix
from sample_elements import handle_mixing, twist_chain
from mcgcocycles import verify
from mcgcocycles.verify import Sample, failures, run_checks, sampler


def test_a0_values():
    assert a0(2) == (Fraction(0), Fraction(0), Fraction(1), Fraction(1))
    assert a0(3) == (Fraction(0),) * 3 + (Fraction(1, 2),) * 3
    assert a0(5) == (Fraction(0),) * 5 + (Fraction(1, 4),) * 5
    with pytest.raises(ValueError):
        a0(1)


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


def test_psi_is_the_f_term_plus_the_coboundary():
    """The one-fraction-per-entry psi against -f/(2g-2) + coboundary_a0."""
    rng = random.Random(2468)
    elements = [*handle_mixing(), twist_chain(FreeGroup(3), 2, 2_000)]
    for g in range(2, 7):
        F = FreeGroup(g)
        elements += [random_element(F, 5, seed=rng.randrange(1 << 30)) for _ in range(10)]
    for phi in elements:
        scale = Fraction(-1, 2 * phi.group.genus - 2)
        want = tuple(scale * f + c for f, c in zip(morita_f(phi), coboundary_a0(phi)))
        assert earle_psi(phi) == want


def test_coboundary_vanishes_on_homologically_trivial_elements():
    F = FreeGroup(2)
    assert coboundary_a0(inner(F.word("A1 B2"))) == (Fraction(0),) * 4
    for g in (2, 3, 4):
        F = FreeGroup(g)
        zero, qzero = (0,) * (2 * g), (Fraction(0),) * (2 * g)
        for k in range(1, g + 1):
            # the two-chain relation: (T_A T_B^-1)^6 lies in the Torelli group
            a, b = named_element(F, f"twist:{k}:A"), named_element(F, f"twist:{k}:B")
            step = compose(a, b.inverse())
            p = inner(F.identity())
            for _ in range(6):
                p = compose(p, step)
            assert in_N(p).rho == identity_matrix(2 * g)
            assert coboundary_a0(p) == qzero
            assert f_tilde(p) == morita_f(p) == zero
            assert earle_psi(p) == qzero


@pytest.mark.parametrize("g", [2, 3, 4, 5, 6])
@pytest.mark.parametrize("name", verify.PAPER_VALUES)
def test_paper_values_match_their_closed_forms(name, g):
    assert verify.paper_value(name, Sample(FreeGroup(g))) is True


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


def test_psi_restricts_to_the_class_map_on_conjugations():
    rng = random.Random(606)
    draw = sampler(x=30)
    samples = (draw(FreeGroup(rng.randint(2, 5)), rng) for _ in range(200))
    checks = {"[x]": lambda s: verify.on_conjugation(psi_numerators, 2 * s.group.genus - 2, s.x)}
    assert not failures(run_checks(checks, samples))


def test_psi_twisted_cocycle_identity():
    rng = random.Random(8080)
    draw = sampler(elements=2)
    samples = (draw(FreeGroup(g), rng) for g in (2, 3) for _ in range(40))
    assert not failures(run_checks({"psi": lambda s: verify.cocycle_rule(earle_psi, s)}, samples))


def test_two_g_minus_two_psi_is_integral():
    rng = random.Random(515)
    draw = sampler(elements=2)
    samples = (draw(FreeGroup(g), rng) for g in (2, 3, 4) for _ in range(25))
    assert not failures(run_checks({"integral": verify.psi_integral}, samples))


def test_psi_numerators_are_two_g_minus_two_times_psi():
    rng = random.Random(2626)
    elements = [jablow(FreeGroup(g)) for g in (2, 3, 4, 5)]
    elements += [random_element(FreeGroup(g), 4, seed=rng.randrange(1 << 30))
                 for g in (2, 3, 4, 5) for _ in range(10)]
    elements += handle_mixing()
    for phi in elements:
        genus = phi.group.genus
        nums, psi = psi_numerators(phi), earle_psi(phi)
        assert all(type(n) is int for n in nums)
        assert nums == tuple((2 * genus - 2) * q for q in psi)


def test_psi_is_not_just_the_base_point_shift():
    for g in (2, 3, 4):
        assert verify.psi_is_not_bare_coboundary(Sample(FreeGroup(g)))


def test_psi_rejects_non_members():
    F = FreeGroup(2)
    phi = Endo(F, (F.a(1), F.a(2), F.b(1), F.identity()))
    with pytest.raises(MembershipError):
        earle_psi(phi)
    with pytest.raises(MembershipError):
        coboundary_a0(phi)
