import random

import pytest

from mcgcocycles import (
    ALPHA,
    BETA,
    FreeGroup,
    MembershipError,
    abelianize,
    compose,
    d,
    d_two_gen,
    f_tilde,
    f_tilde_at,
    in_N,
    induced_matrix,
    inner,
    intersection,
    jablow,
    mat_vec,
    morita_f,
    project,
    random_element,
    random_word,
    syllables,
    twist_catalog,
)
from mcgcocycles.endomorphism import Endo

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
    assert d_two_gen((B, A, B, -A, -B, -A, -B)) == 4
    assert d_two_gen((B, A, B, -A, -B, -B)) == 2
    assert d_two_gen((B, A, -B, -A, -B)) == -2


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
    for _ in range(400):
        F = FreeGroup(rng.randint(2, 5))
        for gen in F.generators():
            assert d(gen) == 0
        x = random_word(F, rng.randint(0, 50), rng)
        y = random_word(F, rng.randint(0, 50), rng)
        assert d(x * y) == d(x) + d(y) + intersection(abelianize(x), abelianize(y))
        assert d(x.inverse()) == -d(x)


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
    for _ in range(300):
        F = FreeGroup(rng.randint(2, 5))
        x = random_word(F, rng.randint(0, 50), rng)
        assert f_tilde(inner(x)) == tuple(2 * v for v in abelianize(x))


def test_f_tilde_at_is_linear_and_pairs_with_dual():
    rng = random.Random(555)
    F = FreeGroup(3)
    for k in range(30):
        phi = random_element(F, 4, seed=rng.randrange(1 << 30))
        x = random_word(F, rng.randint(0, 25), rng)
        y = random_word(F, rng.randint(0, 25), rng)
        assert f_tilde_at(phi, x * y) == f_tilde_at(phi, x) + f_tilde_at(phi, y)
        assert f_tilde_at(phi, x) == intersection(f_tilde(phi), abelianize(x))


@pytest.mark.parametrize("g", [2, 3, 4, 5, 6])
def test_f_tilde_on_jablow(g):
    F = FreeGroup(g)
    expected = (-2,) * g + tuple(2 * k - 2 * g - 4 for k in range(1, g + 1))
    assert f_tilde(jablow(F)) == expected


@pytest.mark.parametrize("g", [2, 3, 4, 5, 6])
def test_f_tilde_on_composite_with_inner(g):
    F = FreeGroup(g)
    xb = F.identity()
    for ell in range(g, 0, -1):
        xb = xb * F.b(ell)
    comp = compose(inner(xb.inverse()), jablow(F))
    expected = (-2,) * g + tuple(2 * k - 2 * g - 2 for k in range(1, g + 1))
    assert f_tilde(comp) == expected


@pytest.mark.parametrize("g", [2, 3, 4, 5, 6])
def test_morita_f_on_jablow(g):
    F = FreeGroup(g)
    expected = (-2,) * g + tuple(2 * k - 4 for k in range(1, g + 1))
    assert morita_f(jablow(F)) == expected


def test_morita_f_on_inner_is_chi_times_class():
    rng = random.Random(27)
    for _ in range(200):
        g = rng.randint(2, 5)
        F = FreeGroup(g)
        x = random_word(F, rng.randint(0, 30), rng)
        assert morita_f(inner(x)) == tuple(
            (2 - 2 * g) * v for v in abelianize(x)
        )


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
    F = FreeGroup(3)
    z = F.zeta()
    for k in range(25):
        phi = random_element(F, 4, seed=rng.randrange(1 << 30))
        base = morita_f(phi)
        u = in_N(phi).conjugator
        for m in (-2, -1, 1, 2):
            assert morita_f(phi, witness=u * z ** m) == base


def test_morita_f_rejects_wrong_witness():
    F = FreeGroup(2)
    with pytest.raises(ValueError):
        morita_f(jablow(F), witness=F.a(1))


def test_morita_f_vanishes_on_zeta_conjugation():
    F = FreeGroup(2)
    z = F.zeta()
    for m in (-2, -1, 0, 1, 2):
        assert morita_f(inner(z ** m)) == (0, 0, 0, 0)


def test_twisted_cocycle_identity_for_both_integral_cocycles():
    rng = random.Random(424242)
    for g in (2, 3):
        F = FreeGroup(g)
        for k in range(40):
            p1 = random_element(F, 4, seed=rng.randrange(1 << 30))
            p2 = random_element(F, 4, seed=rng.randrange(1 << 30))
            comp = compose(p1, p2)
            rho2_inv = induced_matrix(p2.backward)
            for fn in (f_tilde, morita_f):
                assert fn(comp) == tuple(
                    a + b for a, b in zip(mat_vec(rho2_inv, fn(p1)), fn(p2))
                )
