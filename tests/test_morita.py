import random
from functools import partial

import pytest

from mcgcocycles import (
    FreeGroup,
    MembershipError,
    abelianize,
    compose,
    d,
    f_tilde,
    inner,
    intersection,
    jablow,
    morita_f,
    random_word,
    twist_catalog,
)
from mcgcocycles.endomorphism import Endo
from word_oracle import ALPHA, BETA, d_two_gen, project, syllables
from mcgcocycles import verify
from mcgcocycles.verify import Sample, failures, run_checks, sampler

A, B = ALPHA, BETA


def test_projection_keeps_one_handle():
    F = FreeGroup(3)
    w = F.word("A1 B2 B1 a1 b2 A3")
    assert project(w, 1) == (A, B, -A)
    assert project(w, 2) == ()  # B2 b2 become adjacent and cancel
    assert project(w, 3) == (A,)
    # dropping other handles can create new cancellations
    assert project(F.word("A1 B2 a1"), 1) == ()
    with pytest.raises(ValueError):
        project(w, 4)


def test_projection_of_jablow_images():
    # handle projections of the involution's images, genus 4
    F = FreeGroup(4)
    io = jablow(F)
    g = 4
    for k in range(1, g + 1):
        pk_a = project(io(F.a(k)), k)
        assert pk_a == (B, A, B, -A, -B, -A, -B)
        for i in range(k + 1, g + 1):
            pi_a = project(io(F.a(k)), i)
            assert pi_a == (B, A, B, -A, -B, -B)
        pk_b = project(io(F.b(k)), k)
        assert pk_b == (B, A, -B, -A, -B)
        for i in range(k + 1, g + 1):
            assert project(io(F.b(k)), i) == ()


def test_syllables_shapes():
    assert syllables(()) == ()
    assert syllables((A,)) == ((1, 0),)
    assert syllables((B,)) == ((0, 1),)
    assert syllables((A, B)) == ((1, 1),)
    assert syllables((B, A)) == ((0, 1), (1, 0))
    assert syllables((A, A, B)) == ((1, 0), (1, 1))
    assert syllables((-A, -B, B)) == ((-1, -1), (0, 1))
    # no interior (0, 0) syllable, ever
    rng = random.Random(3)
    for _ in range(300):
        letters = []
        for _ in range(rng.randint(0, 30)):
            c = rng.choice((A, -A, B, -B))
            if letters and letters[-1] == -c:
                continue
            letters.append(c)
        for eps, delta in syllables(tuple(letters)):
            assert (eps, delta) != (0, 0)


def test_turning_reference_values():
    assert verify.turning_values(verify.REFERENCE_TURNING) is True


def test_turning_normalization_and_small_words():
    assert d_two_gen(()) == 0
    assert d_two_gen((A,)) == 0
    assert d_two_gen((B,)) == 0
    assert d_two_gen((A, B)) == 1
    assert d_two_gen((B, A)) == -1
    assert d_two_gen((-A, -B)) == 1
    assert d_two_gen((A, -B)) == -1


def test_d_vanishes_on_generators_and_respects_products():
    rng = random.Random(1618)
    draw = sampler(x=50, y=50)
    samples = (draw(FreeGroup(rng.randint(2, 5)), rng) for _ in range(400))
    checks = {"generators": verify.d_vanishes_on_generators, "product": verify.d_product_rule,
              "inverse": verify.d_inversion_rule}
    assert not failures(run_checks(checks, samples))


def test_d_splits_over_handles():
    F = FreeGroup(3)
    w = F.word("B1 A1 B1 a1 b1 a1 b1 B2 A2 B2 a2 b2 b2")
    assert d(w) == d_two_gen(project(w, 1)) + d_two_gen(project(w, 2))
    assert d(w) == 4 + 2


def test_d_single_pass_matches_per_handle_projection():
    rng = random.Random(2718)
    for g in (2, 5, 12):
        F = FreeGroup(g)
        words = [random_word(F, rng.randint(0, 20_000), rng) for _ in range(4)]
        words += [random_word(F, 20_000, rng)]
        words += [jablow(F)(gen) for gen in F.generators()]
        for w in words:
            assert d(w) == sum(d_two_gen(project(w, i)) for i in range(1, g + 1))


def test_d_is_the_intersection_sum_over_letter_pairs():
    """d(w) = sum of [x_p].[x_q] over letters p < q, an O(n^2) definition."""
    rng = random.Random(5772)
    for _ in range(150):
        F = FreeGroup(rng.randint(2, 6))
        w = random_word(F, rng.randint(0, 60), rng)
        classes = [abelianize(F.from_letters([c])) for c in w.letters]
        pairs = sum(
            intersection(classes[p], classes[q])
            for p in range(len(classes))
            for q in range(p + 1, len(classes))
        )
        assert d(w) == pairs


def test_f_tilde_rejects_non_members():
    F = FreeGroup(2)
    images = (F.a(1), F.a(2), F.b(1), F.identity())
    phi = Endo(F, images)
    with pytest.raises(MembershipError):
        f_tilde(phi)
    with pytest.raises(MembershipError):
        morita_f(phi)


def test_f_tilde_on_conjugations_randomized():
    rng = random.Random(31337)
    draw = sampler(x=50)
    samples = (draw(FreeGroup(rng.randint(2, 5)), rng) for _ in range(300))
    assert not failures(run_checks({"2[x]": verify.f_tilde_on_conjugation}, samples))


def test_f_tilde_at_is_linear_and_pairs_with_dual():
    rng = random.Random(555)
    draw = sampler(elements=1, x=25, y=25)
    samples = (draw(FreeGroup(3), rng) for _ in range(30))
    checks = {"linear": verify.f_tilde_at_additive, "dual": verify.f_tilde_at_is_pairing}
    assert not failures(run_checks(checks, samples))


@pytest.mark.parametrize("g", [2, 3, 4, 5, 6])
def test_f_tilde_on_jablow(g):
    assert verify.f_tilde_on_involution(Sample(FreeGroup(g))) is True


@pytest.mark.parametrize("g", [2, 3, 4, 5, 6])
def test_f_tilde_on_composite_with_inner(g):
    assert verify.f_tilde_on_composite(Sample(FreeGroup(g))) is True


@pytest.mark.parametrize("g", [2, 3, 4, 5, 6])
def test_morita_f_on_jablow(g):
    assert verify.morita_f_on_involution(Sample(FreeGroup(g))) is True


def test_morita_f_on_inner_is_chi_times_class():
    rng = random.Random(27)
    draw = sampler(x=30)
    samples = (draw(FreeGroup(rng.randint(2, 5)), rng) for _ in range(200))
    assert not failures(run_checks({"(2-2g)[x]": verify.morita_f_on_conjugation}, samples))


def test_morita_f_inner_a1_genus_two():
    F = FreeGroup(2)
    assert morita_f(inner(F.a(1))) == (-2, 0, 0, 0)


def test_morita_f_agrees_with_f_tilde_on_boundary_fixers():
    F = FreeGroup(3)
    for t in twist_catalog(F):
        assert morita_f(t) == f_tilde(t)
    prod = compose(twist_catalog(F)[0], twist_catalog(F)[4])
    assert morita_f(prod) == f_tilde(prod)


def test_morita_f_witness_independence():
    rng = random.Random(909)
    draw = sampler(elements=1)
    samples = (draw(FreeGroup(3), rng) for _ in range(25))
    assert not failures(run_checks({"witness": verify.witness_free()}, samples))


def test_morita_f_vanishes_on_zeta_conjugation():
    assert verify.vanishes_on_zeta_conjugation(Sample(FreeGroup(2)))


def test_twisted_cocycle_identity_for_both_integral_cocycles():
    rng = random.Random(424242)
    draw = sampler(elements=2)
    samples = (draw(FreeGroup(g), rng) for g in (2, 3) for _ in range(40))
    checks = {"f_tilde": partial(verify.cocycle_rule, f_tilde),
              "f": partial(verify.cocycle_rule, morita_f)}
    assert not failures(run_checks(checks, samples))
