import random

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
