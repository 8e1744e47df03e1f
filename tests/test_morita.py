import random
from functools import partial

import pytest
from hypothesis import given, settings, strategies as st

from mcgcocycles import (
    FreeGroup,
    MembershipError,
    abelianize,
    compose,
    d,
    f_tilde,
    in_N,
    inner,
    intersection,
    jablow,
    morita_f,
    random_word,
    twist_catalog,
)
from mcgcocycles.endomorphism import Endo
from word_oracle import ALPHA, BETA, d_two_gen, project, syllables
from sample_elements import twist_chain
from mcgcocycles import freegroup, verify
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


# genera with one-byte letters, which the digit kernel reads; 63 is the largest
KERNEL_GENERA = (2, 3, 5, 9, 63)
# the kernel's chunk of base-4 digits
CHUNK = 1 << freegroup._CHUNK_BITS


@st.composite
def _kernel_words(draw):
    """Reduced words of a one-byte genus, on every handle or on one handle
    only, of 0 to 40 letters or within 40 letters of the kernel's
    threshold."""
    g = draw(st.sampled_from(KERNEL_GENERA))
    handle = draw(st.one_of(st.none(), st.integers(1, g)))
    near = draw(st.sampled_from((0, freegroup._KERNEL_LETTERS * g)))
    n = max(0, near + draw(st.integers(-40, 40)))
    return _reduced_word(FreeGroup(g), n, handle, random.Random(draw(st.integers(0, 2**32))))


def _reduced_word(F, n, handle, rng):
    """A random reduced word of n letters, on every handle or on one handle only."""
    g = F.genus
    codes = range(1, 2 * g + 1) if handle is None else (handle, g + handle)
    letters = []
    while len(letters) < n:
        c = rng.choice(codes) * rng.choice((1, -1))
        if not letters or letters[-1] != -c:
            letters.append(c)
    return F.from_letters(letters)


def _kernel_walk_and_oracle(w):
    """d and [w] by the walk, after checking that the kernel, ``d_and_class``
    and the syllable formula over the handle projections agree with it."""
    want = freegroup._walk(w)
    assert freegroup._block_sums(w) == want
    assert freegroup.d_and_class(w) == want
    handles = range(1, w.group.genus + 1)
    assert want == (sum(d_two_gen(project(w, i)) for i in handles), abelianize(w))
    return want


@settings(max_examples=100, deadline=None)
@given(_kernel_words())
def test_block_kernel_walk_and_oracle_agree(w):
    _kernel_walk_and_oracle(w)


@st.composite
def _chunk_edge_words(draw):
    """Reduced words whose joined digit string ends on a chunk edge, one
    digit before or after it, or five digits into a fourth chunk."""
    g = draw(st.sampled_from(KERNEL_GENERA))
    handle = draw(st.one_of(st.none(), st.integers(1, g)))
    digits = draw(st.sampled_from((CHUNK - 1, CHUNK, CHUNK + 1, 3 * CHUNK + 5)))
    betas = draw(st.integers(0, digits // 2))
    rng = random.Random(draw(st.integers(0, 2**32)))
    kinds = [0] * (digits - 2 * betas) + [g] * betas
    rng.shuffle(kinds)
    letters = []
    for kind in kinds:
        c = kind + (handle or rng.randint(1, g))
        # the sign of an equal neighbour, so that no pair cancels
        sign = letters[-1] // c if letters and abs(letters[-1]) == c else rng.choice((1, -1))
        letters.append(sign * c)
    return FreeGroup(g).from_letters(letters), digits


@settings(max_examples=40, deadline=None)
@given(_chunk_edge_words())
def test_kernel_on_chunk_edges_matches_walk_and_oracle(case):
    w, digits = case
    # an alpha letter is one digit, in P1 or in P2, and a beta letter two
    assert sum(1 if abs(c) <= w.group.genus else 2 for c in w.letters) == digits
    _kernel_walk_and_oracle(w)


@pytest.mark.parametrize("g", (4, 63))
@pytest.mark.parametrize("kinds", ("", "A", "B", "AB"))
def test_kernel_on_handles_with_one_kind_of_letter_or_none(g, kinds):
    """Handle 1 holds only A1/a1 letters, handle 2 only B2/b2, handle 3 none,
    and the other handles the letters of ``kinds``."""
    F, rng = FreeGroup(g), random.Random(g)
    offsets = {"": (), "A": (0,), "B": (g,), "AB": (0, g)}[kinds]
    codes = [1, g + 2] + [k + offset for k in range(4, g + 1) for offset in offsets]
    letters = []
    while len(letters) < 2 * freegroup._KERNEL_LETTERS * g:
        c = rng.choice(codes) * rng.choice((1, -1))
        if not letters or letters[-1] != -c:
            letters.append(c)
    _, cls = _kernel_walk_and_oracle(F.from_letters(letters))
    assert cls[1] == cls[2] == cls[g] == cls[g + 2] == 0


def test_a_long_word_builds_no_masks_beyond_the_one_set():
    F = FreeGroup(2)
    freegroup._block_sums(F.zeta())
    masks, built = freegroup._index_masks(), freegroup._index_masks.cache_info().misses
    w = random_word(F, 10_000, random.Random(6)) ** 100
    assert len(w) >= 10**6
    assert freegroup._block_sums(w) == freegroup._walk(w)
    assert freegroup._index_masks() is masks
    assert freegroup._index_masks.cache_info().misses == built
    low, by_bit = masks
    assert len(by_bit) == freegroup._CHUNK_BITS
    assert all(m.bit_length() <= 2 * CHUNK for m in (low, *by_bit))


@pytest.mark.parametrize("g", KERNEL_GENERA)
def test_d_and_class_takes_the_kernel_from_its_threshold(g, monkeypatch):
    F, rng = FreeGroup(g), random.Random(g)
    threshold = freegroup._KERNEL_LETTERS * g
    calls = []
    kernel = freegroup._block_sums
    monkeypatch.setattr(freegroup, "_block_sums", lambda w: calls.append(len(w)) or kernel(w))
    lengths = range(threshold - 8, threshold + 8)  # on both sides
    for n in lengths:
        for handle in (None, n % g + 1):
            w = _reduced_word(F, n, handle, rng)
            assert freegroup.d_and_class(w) == freegroup._walk(w) == kernel(w), (n, handle)
    assert calls == [n for n in lengths if n >= threshold for _ in range(2)]


def test_block_kernel_on_a_commutator_of_long_powers():
    """d([A1^L, B1^L]) = 2 L^2: the 6 L digits fill 15 chunks, and the B1
    and b1 places are L apart in P1 and 2 L apart in P2."""
    F, L = FreeGroup(2), 40_000
    w = F.from_letters([1] * L + [3] * L + [-1] * L + [-3] * L)
    want = (2 * L * L, (0, 0, 0, 0))
    assert freegroup._block_sums(w) == freegroup._walk(w) == want
    assert d(w) == 2 * L * L


def test_two_byte_letters_take_the_walk(monkeypatch):
    F = FreeGroup(64)
    assert F.width == 2
    w = random_word(F, 4 * freegroup._KERNEL_LETTERS * F.genus, random.Random(64))
    monkeypatch.setattr(freegroup, "_block_sums", None)  # calling it would raise
    assert freegroup.d_and_class(w) == freegroup._walk(w)


def test_in_n_record_of_long_images_is_the_walks(monkeypatch):
    """A long-images-style element: jablow after alternating twists of one handle."""
    F = FreeGroup(3)
    phi = twist_chain(F, 2, 10_000)
    assert max(map(len, phi.images)) >= freegroup._KERNEL_LETTERS * F.genus
    kernel = in_N(phi)
    monkeypatch.setattr(freegroup, "_KERNEL_LETTERS", float("inf"))
    walk = in_N(twist_chain(F, 2, 10_000))  # a new element: in_N caches the record
    assert (kernel.conjugator, kernel.rho, kernel.f_tilde) == (
        walk.conjugator, walk.rho, walk.f_tilde)


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
    checks = {"2[x]": lambda s: verify.on_conjugation(f_tilde, 2, s.x)}
    assert not failures(run_checks(checks, samples))


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
    checks = {
        "(2-2g)[x]": lambda s: verify.on_conjugation(morita_f, 2 - 2 * s.group.genus, s.x),
    }
    assert not failures(run_checks(checks, samples))


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
