import contextlib
import gc
import io
import json
import os
import random
import tempfile
import time

import pytest
from hypothesis import given, settings, strategies as st

import word_oracle
from matrix_oracle import identity_matrix
from sample_elements import twist_chain
from mcgcocycles import endomorphism
from mcgcocycles import (
    Auto,
    Endo,
    FreeGroup,
    MembershipError,
    Word,
    compose,
    earle_psi,
    f_tilde,
    from_mapping,
    in_M_g1,
    in_N,
    induced_matrix,
    inner,
    is_symplectic,
    jablow,
    load_automorphism,
    morita_f,
    random_element,
    random_word,
    save_automorphism,
    to_mapping,
    twist_catalog,
    zeta_power_exponent,
)
from mcgcocycles.cli import main
from mcgcocycles.endomorphism import named_element


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


@pytest.mark.parametrize("g", [2, 3, 64])
def test_compose_after_a_conjugation_matches_the_oracle(g):
    """compose(outer, inner(x)) applies outer to x once; its images against
    outer substituted into x gen x^-1 letter by letter."""
    rng = random.Random(170 + g)
    F = FreeGroup(g)
    gens = list(F.generators())
    gens[1] = F.identity()  # a plain Endo that sends a generator to 1
    outers = [random_element(F, 4, seed=7), Endo(F, gens), inner(random_word(F, 5, rng))]
    xs = [F.identity(), F.a(1), F.b(2).inverse(), random_word(F, 9, rng)]
    for outer in outers:
        for x in xs:
            conj = inner(x)
            comp = compose(outer, conj)
            assert tuple(im.letters for im in comp.images) == tuple(
                word_oracle.substitute(outer, im) for im in conj.images), (outer, x)
            assert isinstance(comp, Auto) == isinstance(outer, Auto)
    phi = random_element(F, 4, seed=8)
    assert compose(inner(F.identity()), phi) is phi


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


def _one_letter_inverted(w):
    """w with its middle letter replaced by that letter's inverse: another word."""
    letters = list(w.letters)
    letters[len(letters) // 2] *= -1
    return w.group.from_letters(letters)


@pytest.mark.parametrize("table", ["images", "inverse_images"])
def test_one_changed_letter_in_either_table_is_rejected(table, tmp_path):
    """One composition certifies both tables, so a change to either one is caught."""
    F = FreeGroup(3)
    phi = twist_chain(F, 2, 2_000)
    tables = {"images": list(phi.images), "inverse_images": list(phi.backward.images)}
    Auto(F, tables["images"], tables["inverse_images"])
    doc = to_mapping(phi)
    good, bad = tmp_path / "good.json", tmp_path / "bad.json"
    good.write_text(json.dumps(doc))
    assert main(["eval", "--in", str(good)]) == 0

    longest = max(range(F.rank), key=lambda k: len(tables[table][k]))
    tables[table][longest] = _one_letter_inverted(tables[table][longest])
    with pytest.raises(ValueError, match="not mutually inverse"):
        Auto(F, tables["images"], tables["inverse_images"])
    doc[table][F.tokens[longest + 1]] = str(tables[table][longest])
    bad.write_text(json.dumps(doc))
    assert main(["eval", "--in", str(bad)]) == 2


def test_construction_applies_only_the_inverse(monkeypatch):
    F = FreeGroup(3)
    phi = twist_chain(F, 2, 500)
    images, inverse_images = phi.images, phi.backward.images
    calls, call = [], Endo.__call__
    monkeypatch.setattr(Endo, "__call__", lambda m, w: calls.append(m) or call(m, w))
    checked = Auto(F, images, inverse_images)
    assert len(calls) == F.rank and all(m is checked.backward for m in calls)


def test_auto_inverse_round_trip():
    F = FreeGroup(2)
    t = twist_catalog(F)[0]
    ti = t.inverse()
    assert compose(t, ti) == inner(F.identity())
    assert compose(ti, t) == inner(F.identity())


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
            assert _checked(conj.inverse()) == conj.images
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
    assert products == []  # the images x gen x^-1 are sliced from x and x^-1
    back = conj.backward
    assert products == []
    assert conj.backward is back and conj.inverse() is back
    assert products == [] and calls == []


def test_a_conjugation_has_one_inverse():
    conj = inner(FreeGroup(3).word("A1 b3"))
    inv = conj.inverse()
    assert conj.backward is inv and conj.inverse() is inv
    # the inverse's own inverse is built afresh, so the two form no cycle
    assert inv.backward is not conj and inv.backward.images == conj.images


def test_a_read_composite_drops_its_factors():
    F = FreeGroup(3)
    p1, p2 = random_element(F, 4, seed=5), random_element(F, 4, seed=6)
    comp = compose(p1, p2)

    def reached():
        """The ids of what comp refers to, directly or through a tuple."""
        refs = gc.get_referents(comp)
        return {id(r) for r in refs} | {id(x) for r in refs if type(r) is tuple for x in r}

    assert {id(p1), id(p2)} <= reached()  # held until the inverse is read
    comp.backward
    assert id(p1) not in reached() and id(p2) not in reached()


def test_a_long_chain_reads_its_inverse_without_recursion():
    """10,000 twists and inverses nest the factors 10,000 deep, past the recursion limit."""
    F = FreeGroup(2)
    catalog = twist_catalog(F)
    phi = catalog[0]
    for k in range(5_000):
        twist = catalog[k % F.rank]
        phi = compose(compose(phi, twist), twist.inverse())
        if k % 1_000 == 0:
            phi = compose(phi, inner(F.word("A1 b2")))
    Auto(F, phi.images, phi.backward.images)


def test_repeated_squaring_inverts_each_composite_once(monkeypatch):
    """A factor shared by both sides of a composite is inverted once, not per occurrence."""
    F = FreeGroup(2)
    p, squares = twist_catalog(F)[0], 12
    for _ in range(squares):
        p = compose(p, p)  # 4,096 leaves, 13 distinct automorphisms
    calls, call = [], Endo.__call__
    monkeypatch.setattr(Endo, "__call__", lambda m, w: calls.append(m) or call(m, w))
    back = p.backward
    assert len(calls) <= F.rank * squares
    monkeypatch.undo()
    Auto(F, p.images, back.images)


def test_the_inverse_of_an_inverse_is_the_element():
    F = FreeGroup(3)
    t = twist_catalog(F)[0]
    comp = compose(t, random_element(F, 4, seed=5))
    for phi in (t, comp):
        inv = phi.inverse()
        assert inv.inverse() is phi and inv.images == phi.backward.images
        assert all(r is not inv for r in gc.get_referents(phi))  # no cycle
    conj = inner(F.word("A1 b3"))
    assert conj.inverse() is conj.backward


def test_builders_keep_a_bounded_number_of_genera():
    for g in range(2, 22):
        F = FreeGroup(g)
        jablow(F), twist_catalog(F)
    assert jablow.cache_info().currsize <= 16
    assert twist_catalog.cache_info().currsize <= 16


def test_inner_automorphism():
    F = FreeGroup(2)
    x = F.word("A1 B2")
    phi = inner(x)
    w = F.word("B1 a2")
    assert phi(w) == x * w * x.inverse()
    assert isinstance(phi, Auto)
    assert compose(phi, phi.inverse()) == inner(F.identity())


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
    assert in_M_g1(inner(F.identity()))
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
    # 4g and 8g letters, the lengths of zeta^+-1 and zeta^+-2, but no power of zeta
    assert zeta_power_exponent(F.a(1) ** 8) is None
    assert zeta_power_exponent(F.word("B1 a1 b1 A2 B2 a2 b2 A1") ** 2) is None


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


@pytest.mark.parametrize("g", [2, 3, 4, 5])
def test_named_elements_are_the_catalog_entries_and_closed_forms(g):
    F = FreeGroup(g)
    catalog = twist_catalog(F)
    for k in range(1, g + 1):
        for a, b in (("A", "B"), ("a", "b")):
            assert named_element(F, f"twist:{k}:{a}") is catalog[k - 1]
            assert named_element(F, f"twist:{k}:{b}") is catalog[g + k - 1]
    assert named_element(F, "iota") is jablow(F)
    assert named_element(F, "identity") == inner(F.identity())
    assert named_element(F, "inner:A1 b2") == inner(F.word("A1 b2"))


@pytest.mark.parametrize("name, message", [
    ("nonsense", "unknown builtin 'nonsense'"),
    ("twist:1", "twist form is twist:<k>:<A|B>, got 'twist:1'"),
    ("twist:x:A", "twist index must be an integer, got 'x'"),
    ("twist:3:A", "no twist 'twist:3:A' at genus 2"),
    ("twist:0:B", "no twist 'twist:0:B' at genus 2"),
    ("twist:1:C", "no twist 'twist:1:C' at genus 2"),
])
def test_named_element_errors_name_the_bad_part(name, message):
    with pytest.raises(ValueError) as exc:
        named_element(FreeGroup(2), name)
    assert str(exc.value) == message


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
    assert random_element(F, 0, seed=5) == inner(F.identity())


@pytest.mark.parametrize("seed", range(5))
def test_random_element_stops_growing_past_1500_letters(seed, monkeypatch):
    """A budget of 10^6 factors ends at the first product with an image over 1500 letters."""
    products, real = [], endomorphism.compose

    def checked(outer, inner):
        # fails at once, before the images grow further, if the cap lets the loop go on
        assert max(map(len, outer.images)) <= 1500, "a product past the cap was composed"
        products.append(real(outer, inner))
        return products[-1]

    monkeypatch.setattr(endomorphism, "compose", checked)
    phi = random_element(FreeGroup(2), 10**6, seed=seed)
    assert phi is products[-1] and max(map(len, phi.images)) > 1500


def test_maps_of_different_genera_do_not_mix():
    phi, psi = twist_catalog(FreeGroup(2))[0], twist_catalog(FreeGroup(3))[0]
    with pytest.raises(ValueError, match=r"^genus mismatch: FreeGroup\(3\) vs FreeGroup\(2\)$"):
        phi(FreeGroup(3).a(1))
    with pytest.raises(ValueError, match="^genus mismatch in composition$"):
        compose(phi, psi)


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
    keys = F.tokens
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
    good = to_mapping(inner(FreeGroup(2).identity()))

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


_JUNK = st.one_of(st.none(), st.booleans(), st.integers(), st.floats(), st.text(max_size=4))
_TOKENS = [f"{kind}{k}" for kind in "ABab" for k in (1, 2, 3, 4, 10)] + ["1", "A0", "C1", "A01"]
_WORD_TEXT = st.one_of(st.lists(st.sampled_from(_TOKENS), max_size=6).map(" ".join), st.text(max_size=6))


@st.composite
def _tables(draw, genus):
    """A full image table at ``genus`` when it is small, else junk keys and values."""
    if isinstance(genus, int) and 2 <= genus <= 4 and draw(st.booleans()):
        gens = [f"{kind}{k}" for kind in "AB" for k in range(1, genus + 1)]
        return draw(st.fixed_dictionaries({t: _WORD_TEXT for t in gens}))
    keys = st.one_of(st.sampled_from(_TOKENS), st.text(max_size=3))
    return draw(st.one_of(st.dictionaries(keys, st.one_of(_WORD_TEXT, _JUNK), max_size=9),
                          st.lists(_WORD_TEXT, max_size=3), _JUNK))


@st.composite
def _documents(draw):
    """JSON-like automorphism documents: members' tables, some with one entry
    spoiled; random tables at a good or a junk genus; and junk that is no mapping."""
    kind = draw(st.sampled_from(("member", "table", "junk")))
    if kind == "junk":
        return draw(st.one_of(_JUNK, st.lists(_JUNK, max_size=3)))
    if kind == "member":
        g = draw(st.integers(2, 4))
        doc = to_mapping(random_element(FreeGroup(g), 3, seed=draw(st.integers(0, 99))))
        if draw(st.booleans()):
            field = draw(st.sampled_from(("images", "inverse_images")))
            token = draw(st.sampled_from(sorted(doc[field])))
            doc[field][token] = draw(st.one_of(_WORD_TEXT, _JUNK))
        if draw(st.booleans()):
            del doc["inverse_images"]
        return doc
    genus = draw(st.one_of(st.integers(1, 5), _JUNK))
    doc = {"genus": genus, "images": draw(_tables(genus))}
    if draw(st.booleans()):
        doc["inverse_images"] = draw(_tables(genus))
    for key in draw(st.lists(st.sampled_from(("genus", "images")), max_size=2)):
        doc.pop(key, None)
    return doc


@settings(max_examples=200, deadline=None)
@given(_documents())
def test_no_malformed_document_escapes_as_a_traceback(doc):
    """from_mapping raises only ValueError, the cocycles of what it accepts
    only MembershipError, and ``eval`` of the file exits 0, 2 or 3."""
    try:
        phi = from_mapping(doc)
    except ValueError:
        phi = None
    if phi is not None:
        for cocycle in (f_tilde, morita_f, earle_psi):
            try:
                cocycle(phi)
            except MembershipError:
                pass
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "doc.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            assert main(["eval", "--in", path, "--format", "structured"]) in (0, 2, 3)
