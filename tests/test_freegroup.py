import copy
import pickle
import random
import time

import pytest

from mcgcocycles import FreeGroup, Word, commutator, conjugator, random_word
from mcgcocycles import verify
from mcgcocycles.verify import failures, run_checks, sampler


def test_genus_validation():
    with pytest.raises(ValueError):
        FreeGroup(1)
    with pytest.raises(ValueError):
        FreeGroup(0)
    assert FreeGroup(2).rank == 4


def test_parse_and_format():
    F = FreeGroup(3)
    w = F.word("A1 b2 B3 a1")
    assert w.letters == (1, -5, 6, -1)
    assert str(w) == "A1 b2 B3 a1"
    assert str(F.word("1")) == "1"
    assert F.word("  ").is_identity()
    assert F.word("A1 a1 B2 b2").is_identity()


def test_parse_rejects_garbage():
    F = FreeGroup(2)
    for text in ("A0", "A3", "b5", "C1", "A", "1A", "A1B2", "A-1"):
        with pytest.raises(ValueError):
            F.word(text)


def test_reduction_is_a_constructor_invariant():
    F = FreeGroup(2)
    w = F.from_letters((1, 2, -2, -1, 3))
    assert w.letters == (3,)
    assert Word(F, (1, -1)).is_identity()


@pytest.mark.parametrize("g, letters, bad", [
    (2, (0,), 0), (2, (100,), 100), (2, (200,), 200), (2, (1, -5), -5),
    (64, (3, 129, -300), 129),
])
def test_word_rejects_codes_out_of_range(g, letters, bad):
    F = FreeGroup(g)
    message = rf"^letter code {bad} out of range for genus {g}$"
    with pytest.raises(ValueError, match=message):
        Word(F, letters)
    with pytest.raises(ValueError, match=message):
        F.from_letters(letters)
    with pytest.raises(ValueError, match="^letter codes must be integers$"):
        Word(F, (1, 1.5))
    assert Word(F, (F.rank, -F.rank, 1)).letters == (1,)


def test_multiply_cancels_only_the_seam():
    F = FreeGroup(2)
    x = F.word("A1 B1")
    y = F.word("b1 a1 A2")
    assert str(x * y) == "A2"


def test_inverse_and_power():
    F = FreeGroup(2)
    x = F.word("A1 B2 a2")
    assert (x * x.inverse()).is_identity()
    assert x ** 3 == x * x * x
    assert x ** -2 == (x.inverse()) * (x.inverse())
    assert (x ** 0).is_identity()


def test_power_matches_repeated_products_on_conjugated_words():
    rng = random.Random(2024)
    for g in (2, 3, 5):
        F = FreeGroup(g)
        words = [F.identity(), F.a(1), F.zeta(), F.zeta().conjugated_by(F.word("B1 a2"))]
        while len(words) < 24:
            u = random_word(F, rng.randint(1, 5), rng)
            w = random_word(F, rng.randint(1, 8), rng).conjugated_by(u)
            if len(w.cyclic_reduce()[1]):  # not cyclically reduced
                words.append(w)
        for w in words:
            for n in range(-4, 5):
                base, want = (w if n > 0 else w.inverse()), F.identity()
                for _ in range(abs(n)):
                    want = want * base
                assert w ** n == want
                assert (w ** n).letters == Word(F, base.letters * abs(n)).letters


def test_power_is_linear_in_the_exponent():
    zeta = FreeGroup(2).zeta()
    start = time.perf_counter()
    power = zeta ** 20000
    assert time.perf_counter() - start < 0.25  # repeated products took seconds
    assert len(power) == 8 * 20000 and power.letters[:8] == zeta.letters


def test_commutator():
    F = FreeGroup(2)
    c = commutator(F.a(1), F.b(1))
    assert str(c) == "A1 B1 a1 b1"


@pytest.mark.parametrize("g", [2, 3, 4, 6])
def test_zeta_shape(g):
    F = FreeGroup(g)
    z = F.zeta()
    assert len(z) == 4 * g
    expected = " ".join(f"A{k} B{k} a{k} b{k}" for k in range(1, g + 1))
    assert str(z) == expected


def test_zeta_and_generators_are_built_once_per_genus(monkeypatch):
    for g in range(2, 13):
        F = FreeGroup(g)
        want = F.identity()
        for k in range(1, g + 1):
            want = want * commutator(F.a(k), F.b(k))
        assert F.zeta() == want
        assert F.generators() == tuple(F.from_letters((c,)) for c in range(1, 2 * g + 1))
    built = []
    monkeypatch.setattr(Word, "__init__", lambda *args: built.append(args))
    monkeypatch.setattr(Word, "_from_reduced", classmethod(lambda *args: built.append(args)))
    for g in range(2, 13):
        F = FreeGroup(g)
        assert F.zeta() is FreeGroup(g).zeta()
        assert F.generators() is FreeGroup(g).generators()
    assert not built


def test_zeta_g3_literal():
    assert str(FreeGroup(3).zeta()) == "A1 B1 a1 b1 A2 B2 a2 b2 A3 B3 a3 b3"


def test_cyclic_reduce_example():
    F = FreeGroup(2)
    core, prefix = F.word("B1 A2 b1").cyclic_reduce()
    assert str(core) == "A2"
    assert str(prefix) == "B1"


def test_cyclic_reduce_single_letter_and_identity():
    F = FreeGroup(2)
    core, prefix = F.a(1).cyclic_reduce()
    assert core == F.a(1) and prefix.is_identity()
    core, prefix = F.identity().cyclic_reduce()
    assert core.is_identity() and prefix.is_identity()


def test_conjugator_simple_witness():
    F = FreeGroup(2)
    z = F.zeta()
    u = conjugator(F.b(1) * z * F.b(1).inverse(), z)
    assert u is not None
    assert str(u) == "B1"


def test_conjugator_rejects_nonconjugates():
    F = FreeGroup(2)
    assert conjugator(F.a(1), F.b(1)) is None
    assert conjugator(F.a(1), F.a(1) ** 2) is None
    # same abelianization, still not conjugate
    assert conjugator(F.word("A1 B1"), F.word("A1 A2 B1 a2")) is None


def test_conjugator_of_identity():
    F = FreeGroup(2)
    u = conjugator(F.identity(), F.identity())
    assert u is not None and u.is_identity()


def test_genus_mixing_rejected():
    with pytest.raises(ValueError):
        FreeGroup(2).a(1) * FreeGroup(3).a(1)
    assert FreeGroup(2).a(1) == FreeGroup(2).a(1)


def test_group_laws_randomized():
    # associativity, inverses, reduction idempotence, text round trip
    def units(s):
        x, one = s.x, s.group.identity()
        return (x.inverse().inverse() == x and x * one == x == one * x
                and Word(s.group, x.letters) == x)

    rng = random.Random(12345)
    draw = sampler(x=50, y=50, z=50)
    samples = (draw(FreeGroup(rng.randint(2, 5)), rng) for _ in range(1000))
    checks = {"laws": verify.group_laws, "units": units, "round trip": verify.text_round_trip}
    assert not failures(run_checks(checks, samples))


def test_random_word_hits_requested_length():
    rng = random.Random(7)
    F = FreeGroup(3)
    for n in (0, 1, 5, 50):
        assert len(random_word(F, n, rng)) == n


def test_conjugator_completeness_randomized():
    rng = random.Random(99)
    draw = sampler(w=25, u=12)
    samples = (draw(FreeGroup(rng.randint(2, 4)), rng) for _ in range(300))
    assert not failures(run_checks({"conjugator": verify.conjugator_soundness}, samples))


def test_cyclic_reduce_contract_randomized():
    rng = random.Random(4242)
    draw = sampler(x=40)
    samples = (draw(FreeGroup(rng.randint(2, 5)), rng) for _ in range(400))
    assert not failures(run_checks({"cyclic": verify.cyclic_reduction_contract}, samples))


def test_pickle_and_copy_round_trip():
    F = FreeGroup(3)
    G = pickle.loads(pickle.dumps(F))
    assert G == F and hash(G) == hash(F) and G.alphabet is F.alphabet
    for w in (F.zeta(), F.identity(), F.word("A1 b2 B3 a1"), *F.generators()):
        for twin in (pickle.loads(pickle.dumps(w)), copy.copy(w), copy.deepcopy(w)):
            assert type(twin) is Word and twin == w and hash(twin) == hash(w)
            assert str(twin) == str(w) and twin.group.alphabet is F.alphabet
    # a word that refers to the group of another word keeps that group on a round trip
    pair = pickle.loads(pickle.dumps((F.a(1), F.b(2))))
    assert pair == (F.a(1), F.b(2)) and pair[0] * pair[1] == F.word("A1 B2")


def test_word_is_immutable():
    w = FreeGroup(2).word("A1 B2")
    for name, value in (("packed", b"\x01"), ("group", FreeGroup(3))):
        with pytest.raises(AttributeError, match="immutable"):
            setattr(w, name, value)
    assert str(w) == "A1 B2" and w.group == FreeGroup(2)


def test_genus_too_large_to_pack_is_rejected():
    with pytest.raises(ValueError, match="too large to pack"):
        FreeGroup(2**62)


def test_conjugator_is_linear_in_the_core_length():
    rng = random.Random(16)
    F = FreeGroup(3)
    letters = random_word(F, 16_000, rng).letters
    while letters[-1] == -letters[0]:  # keep the word cyclically reduced
        letters = random_word(F, 16_000, rng).letters
    w, rotated = F.from_letters(letters), F.from_letters(letters[1:] + letters[:1])
    changed = F.from_letters(letters[:-1] + (letters[0],))
    start = time.perf_counter()
    u = conjugator(rotated, w)
    miss = conjugator(w, changed)
    assert time.perf_counter() - start < 0.25  # the rotation-by-rotation search took seconds
    assert u == F.from_letters((-letters[0],)) and rotated == w.conjugated_by(u)
    assert miss is None


def test_conjugator_skips_a_byte_match_that_splits_a_letter():
    # two-byte letters: the bytes of (257, 256) occur at offset 1 of the doubled
    # core of (257, 1), which is no rotation of it
    F = FreeGroup(130)
    assert F.width == 2
    assert conjugator(F.from_letters((257, 256)), F.from_letters((257, 1))) is None
    assert conjugator(F.from_letters((1, 257)), F.from_letters((257, 1))) == F.from_letters((-257,))
