import json
import random
import time

import pytest

import word_oracle
from matrix_oracle import identity_matrix
from mcgcocycles import (
    Auto,
    Endo,
    FreeGroup,
    Word,
    compose,
    from_mapping,
    identity_auto,
    in_M_g1,
    in_N,
    induced_matrix,
    inner,
    is_symplectic,
    jablow,
    load_automorphism,
    random_element,
    random_word,
    save_automorphism,
    to_mapping,
    twist_catalog,
    zeta_power_exponent,
)


def test_endo_validates_images():
    F = FreeGroup(2)
    with pytest.raises(ValueError):
        Endo(F, (F.a(1),))  # wrong arity
    with pytest.raises(ValueError):
        Endo(F, (F.a(1), F.a(2), F.b(1), FreeGroup(3).b(2)))  # genus mix


def test_apply_is_a_homomorphism():
    rng = random.Random(2718)
    for _ in range(200):
        F = FreeGroup(rng.randint(2, 4))
        phi = random_element(F, 3, seed=rng.randrange(1 << 30))
        x = random_word(F, rng.randint(0, 30), rng)
        y = random_word(F, rng.randint(0, 30), rng)
        assert phi(x * y) == phi(x) * phi(y)
        assert phi(x.inverse()) == phi(x).inverse()


def test_compose_applies_right_factor_first():
    rng = random.Random(161)
    F = FreeGroup(3)
    for k in range(40):
        p1 = random_element(F, 3, seed=rng.randrange(1 << 30))
        p2 = random_element(F, 3, seed=rng.randrange(1 << 30))
        x = random_word(F, rng.randint(0, 25), rng)
        assert compose(p1, p2)(x) == p1(p2(x))


def test_compose_with_an_uncertified_factor_is_a_plain_endo():
    F = FreeGroup(3)
    twist = twist_catalog(F)[1]
    plain = compose(Endo(F, jablow(F).images), twist)
    certified = compose(jablow(F), twist)
    assert type(plain) is Endo and isinstance(certified, Auto)
    assert plain.images == certified.images
    member, want = in_N(plain), in_N(certified)
    assert (member.conjugator, member.rho, member.f_tilde) == (
        want.conjugator, want.rho, want.f_tilde)


def test_auto_constructor_rejects_non_inverses():
    F = FreeGroup(2)
    gens = F.generators()
    with pytest.raises(ValueError):
        Auto(F, gens, (F.a(1) * F.b(1),) + gens[1:])


def test_auto_inverse_round_trip():
    F = FreeGroup(2)
    t = twist_catalog(F)[0]
    ti = t.inverse()
    assert compose(t, ti) == identity_auto(F)
    assert compose(ti, t) == identity_auto(F)


def _checked(phi):
    """The inverse images of phi, accepted by the checking Auto constructor."""
    Auto(phi.group, phi.images, phi.backward.images)
    return phi.backward.images


def test_deferred_inverses_match_the_eager_formulas():
    """Composites, conjugations, composites of composites and inverses.

    Each forced inverse equals the formula that used to be applied at
    construction, and the checked constructor accepts it.
    """
    rng = random.Random(3141)
    for g in (2, 3, 4, 5):
        F = FreeGroup(g)
        gens = F.generators()
        pool = [random_element(F, 4, seed=rng.randrange(1 << 30)) for _ in range(5)]
        for p1, p2 in zip(pool, pool[1:]):
            x = random_word(F, rng.randint(0, 8), rng)
            xi = x.inverse()
            conj = inner(x)
            assert _checked(conj) == tuple(xi * gen * x for gen in gens)
            # the outer composite is read first, so its factors are built under it
            left, right = compose(conj, p1), compose(p2, inner(xi))
            nested = compose(left, right)
            assert _checked(nested) == tuple(right.backward(im) for im in left.backward.images)
            assert _checked(left) == tuple(p1.backward(im) for im in conj.backward.images)
            comp = compose(p1, p2)
            assert _checked(comp) == tuple(p2.backward(im) for im in p1.backward.images)
            inv = nested.inverse()
            assert inv.images == nested.backward.images
            assert _checked(inv) == nested.images


def test_compose_and_inner_defer_their_inverses(monkeypatch):
    F = FreeGroup(3)
    p1, p2 = random_element(F, 4, seed=5), random_element(F, 4, seed=6)
    p1.backward  # both inverses are built before the spies start
    p2_back = p2.backward
    calls, products = [], []
    call, mul = Endo.__call__, Word.__mul__
    monkeypatch.setattr(Endo, "__call__", lambda phi, w: calls.append(phi) or call(phi, w))
    monkeypatch.setattr(Word, "__mul__", lambda a, b: products.append(a) or mul(a, b))

    comp = compose(p1, p2)
    assert calls == [p1] * F.rank  # the images only
    back = comp.backward
    assert calls[F.rank:] == [p2_back] * F.rank
    assert comp.backward is back and len(calls) == 2 * F.rank

    calls.clear()
    conj = inner(F.word("A1 b3"))
    assert len(products) == 2 * F.rank  # x gen x^-1, for each generator
    back = conj.backward
    assert len(products) == 4 * F.rank
    assert conj.backward is back and len(products) == 4 * F.rank
    assert calls == []


def test_inner_automorphism():
    F = FreeGroup(2)
    x = F.word("A1 B2")
    phi = inner(x)
    w = F.word("B1 a2")
    assert phi(w) == x * w * x.inverse()
    assert isinstance(phi, Auto)
    assert compose(phi, phi.inverse()) == identity_auto(F)


@pytest.mark.parametrize("g", [2, 3, 4, 5, 6])
def test_jablow_is_an_involution(g):
    F = FreeGroup(g)
    io = jablow(F)
    for gen in F.generators():
        assert io(io(gen)) == gen


def test_jablow_images_at_genus_two():
    F = FreeGroup(2)
    io = jablow(F)
    assert str(io(F.b(2))) == "B2 A2 b2 a2 b2"
    # B1 -> [B2 B1 A1, B1^-1] B1^-1
    x = F.b(2) * F.b(1) * F.a(1)
    expect = x * F.b(1).inverse() * x.inverse() * F.b(1) * F.b(1).inverse()
    assert io(F.b(1)) == expect


def test_jablow_conjugates_zeta_by_descending_bs():
    for g in (2, 3, 4, 5, 6):
        F = FreeGroup(g)
        io = jablow(F)
        xb = F.identity()
        for ell in range(g, 0, -1):
            xb = xb * F.b(ell)
        assert io(F.zeta()) == xb * F.zeta() * xb.inverse()


def test_membership_tests():
    F = FreeGroup(2)
    assert in_M_g1(identity_auto(F))
    assert in_M_g1(twist_catalog(F)[0])
    assert not in_M_g1(jablow(F))
    assert in_N(jablow(F)) is not None
    phi = inner(F.word("A1 B2"))
    witness = in_N(phi)
    assert witness is not None
    # witness may differ from A1 B2 by a power of zeta
    defect = F.word("A1 B2").inverse() * witness.conjugator
    assert zeta_power_exponent(defect) is not None


def test_membership_rejects_collapsing_endo():
    F = FreeGroup(2)
    images = (F.a(1), F.a(2), F.b(1), F.identity())  # kills B2
    phi = Endo(F, images)
    assert in_N(phi) is None
    assert not in_M_g1(phi)


def test_zeta_power_exponent():
    F = FreeGroup(2)
    z = F.zeta()
    assert zeta_power_exponent(F.identity()) == 0
    assert zeta_power_exponent(z) == 1
    assert zeta_power_exponent(z ** -3) == -3
    assert zeta_power_exponent(F.a(1)) is None
    assert zeta_power_exponent(F.word("A1 B1")) is None


def test_twist_catalog_shape_and_certificates():
    for g in (2, 3, 4):
        F = FreeGroup(g)
        catalog = twist_catalog(F)
        assert len(catalog) == 2 * g
        for t in catalog:
            assert isinstance(t, Auto)
            assert in_M_g1(t)
        # the advertised images
        assert catalog[0](F.a(1)) == F.a(1) * F.b(1)
        assert catalog[g](F.b(1)) == F.b(1) * F.a(1)


@pytest.mark.parametrize("g", [2, 3, 4, 5, 6, 64])
def test_closed_forms_pass_the_certificates(g):
    """jablow and the catalog are built unchecked; here they earn the checks."""
    F = FreeGroup(g)
    io = jablow(F)
    Auto(F, io.images, io.backward.images)  # raises unless mutually inverse
    assert in_N(io) is not None
    assert is_symplectic(induced_matrix(io))
    eye = identity_matrix(F.rank)
    for t in twist_catalog(F):
        Auto(F, t.images, t.backward.images)
        assert in_M_g1(t)
        m = induced_matrix(t)
        assert is_symplectic(m) and m != eye


@pytest.mark.parametrize("g", [2, 3, 4, 5, 6, 7, 8, 9, 64])
def test_jablow_matches_the_formula_written_out(g):
    F = FreeGroup(g)
    io = jablow(F)
    want = word_oracle.jablow_images(F)
    assert [w.letters for w in io.images] == want
    assert [w.letters for w in io.backward.images] == want


def test_construction_is_fast_at_genus_100():
    F = FreeGroup(100)
    start = time.perf_counter()
    jablow.__wrapped__(F)
    twist_catalog.__wrapped__(F)
    assert time.perf_counter() - start < 0.5  # self-certifying construction took seconds


def test_random_element_is_deterministic_and_in_n():
    F = FreeGroup(3)
    a = random_element(F, 5, seed=77)
    b = random_element(F, 5, seed=77)
    assert a == b
    assert random_element(F, 5, seed=78) != a
    elements = [random_element(F, 4, seed=seed) for seed in range(12)]
    assert len(set(elements)) == 12
    for phi in elements:
        assert isinstance(phi, Auto)
        assert in_N(phi) is not None


def test_random_element_budget_zero_is_identity():
    F = FreeGroup(2)
    assert random_element(F, 0, seed=5) == identity_auto(F)


def test_mapping_round_trip(tmp_path):
    F = FreeGroup(3)
    phi = compose(jablow(F), twist_catalog(F)[2])
    doc = to_mapping(phi)
    assert doc["genus"] == 3
    assert set(doc) == {"genus", "images", "inverse_images"}
    back = from_mapping(doc)
    assert isinstance(back, Auto)
    assert back == phi
    path = tmp_path / "phi.json"
    save_automorphism(phi, str(path))
    assert load_automorphism(str(path)) == phi


def test_mapping_of_a_composite_writes_the_composed_inverse():
    F = FreeGroup(3)
    p1, p2 = random_element(F, 4, seed=21), random_element(F, 4, seed=22)
    keys = F.alphabet.tokens
    want = {keys[k]: str(p2.backward(im)) for k, im in enumerate(p1.backward.images, 1)}
    doc = to_mapping(compose(p1, p2))
    assert doc["inverse_images"] == want
    assert from_mapping(doc) == compose(p1, p2)


def test_mapping_without_inverse_downgrades_to_endo(tmp_path):
    F = FreeGroup(2)
    doc = to_mapping(jablow(F))
    del doc["inverse_images"]
    back = from_mapping(doc)
    assert isinstance(back, Endo)
    assert not isinstance(back, Auto)
    assert in_N(back) is not None


def test_mapping_validation_errors(tmp_path):
    good = to_mapping(identity_auto(FreeGroup(2)))

    bad = dict(good)
    bad["genus"] = "2"
    with pytest.raises(ValueError):
        from_mapping(bad)

    bad = dict(good)
    bad["images"] = {k: v for k, v in good["images"].items() if k != "B2"}
    with pytest.raises(ValueError):
        from_mapping(bad)

    bad = dict(good)
    bad["images"] = dict(good["images"], X1="A1")
    with pytest.raises(ValueError):
        from_mapping(bad)

    bad = dict(good)
    bad["images"] = dict(good["images"], A1="A9")
    with pytest.raises(ValueError):
        from_mapping(bad)

    bad = dict(good)
    bad["inverse_images"] = dict(good["images"], A1="A1 B1")
    with pytest.raises(ValueError):
        from_mapping(bad)

    path = tmp_path / "broken.json"
    path.write_text("{ not json")
    with pytest.raises(ValueError):
        load_automorphism(str(path))
