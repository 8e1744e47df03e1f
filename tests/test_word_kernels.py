"""The word-layer kernels against their slow references.

Parsing and substitution are compared with ``word_oracle``, the
membership witness with the defining equation phi(zeta) = u zeta u^-1,
and ``d`` with the per-handle syllable formula
``d_two_gen(project(...))``.  Substitution packs a letter into one byte
up to genus 63 and into two from genus 64, so its tests run on both
sides of that line.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

import word_oracle
from word_oracle import d_two_gen, project
from sample_elements import twist_chain
from mcgcocycles import (
    Auto,
    Endo,
    FreeGroup,
    compose,
    d,
    identity_auto,
    in_N,
    inner,
    jablow,
    random_element,
    random_word,
    twist_catalog,
)
from mcgcocycles import endomorphism, freegroup

SEPARATORS = (" ", "  ", "\t", "\n", "\r\n", " \t ")


def _token(group, c: int) -> str:
    kind, index = ("A", abs(c)) if abs(c) <= group.genus else ("B", abs(c) - group.genus)
    return f"{kind if c > 0 else kind.lower()}{index}"


def _random_text(group, rng) -> str:
    """Unreduced word text with stray 1s, cancelling pairs and mixed whitespace."""
    tokens = []
    for _ in range(rng.randint(0, 80)):
        roll = rng.random()
        if roll < 0.05:
            tokens.append("1")
            continue
        c = rng.choice((1, -1)) * rng.randint(1, group.rank)
        tokens.append(_token(group, c))
        if roll < 0.2:
            tokens.append(_token(group, -c))
    text = rng.choice(("",) + SEPARATORS)
    for tok in tokens:
        text += tok + rng.choice(SEPARATORS)
    return text


@pytest.mark.parametrize("g", (2, 5, 12))
def test_parse_matches_oracle_on_random_text(g):
    rng = random.Random(100 + g)
    F = FreeGroup(g)
    for _ in range(300):
        text = _random_text(F, rng)
        assert F.word(text).letters == word_oracle.parse(F, text)


@pytest.mark.parametrize("g", (2, 5, 12))
def test_apply_matches_oracle_on_random_words(g):
    rng = random.Random(200 + g)
    F = FreeGroup(g)
    endos = [random_element(F, 4, seed=rng.randrange(1 << 30)) for _ in range(4)]
    endos.append(inner(random_word(F, 30, rng)))
    # arbitrary short images, the empty word among them, cancel at most seams
    endos += [
        Endo(F, [random_word(F, rng.randint(0, 4), rng) for _ in range(F.rank)])
        for _ in range(6)
    ]
    for phi in endos:
        for _ in range(25):
            w = random_word(F, rng.randint(0, 200), rng)
            assert phi(w).letters == word_oracle.substitute(phi, w)


@pytest.mark.parametrize("g,handle", [(3, 1), (4, 4)])
def test_parse_and_apply_match_oracle_on_long_images(g, handle):
    F = FreeGroup(g)
    phi = twist_chain(F, handle, 20_000)
    longest = max(phi.images, key=len)
    assert len(longest) >= 20_000
    for im in phi.images:
        text = str(im)
        assert F.word(text).letters == word_oracle.parse(F, text) == im.letters
    # the long map on short words, with heavy cancellation for zeta
    for w in (F.zeta(), F.zeta().inverse(), *F.generators(), random_word(F, 12, random.Random(g))):
        assert phi(w).letters == word_oracle.substitute(phi, w)
    # short maps on the long word
    for psi in (jablow(F), *twist_catalog(F), inner(F.word("A1 b2"))):
        assert psi(longest).letters == word_oracle.substitute(psi, longest)


def test_apply_matches_oracle_on_inverse_images():
    rng = random.Random(31)
    for g in (2, 3, 5):
        F = FreeGroup(g)
        elements = [random_element(F, 6, seed=rng.randrange(1 << 30)) for _ in range(4)]
        elements.append(twist_chain(F, 1, 600))
        for phi in elements:
            inv = phi.inverse()
            for w in [random_word(F, rng.randint(0, 40), rng) for _ in range(10)] + list(phi.images):
                assert inv(w).letters == word_oracle.substitute(inv, w)
            for k, gen in enumerate(F.generators()):
                assert inv(phi.images[k]) == gen


# one-byte letters while 2g <= 127, two-byte letters above
WIDTH_GENERA = (2, 5, 63, 64, 100)


def _handle_chain(group, handle: int, min_letters: int, rng):
    """inner(x) after alternating A and B twists of one handle, until an image is long.

    The two twists are built here rather than read from ``twist_catalog``,
    so a large genus stays cheap.  x is a random word off the twisted
    handle, so every image is conjugated and the seams of zeta cancel
    across handles, while the preimage of zeta stays short.
    """
    g = group.genus
    gens = group.generators()
    twists = []
    for k, partner in ((handle - 1, g + handle - 1), (g + handle - 1, handle - 1)):
        images, inverse = list(gens), list(gens)
        images[k], inverse[k] = gens[k] * gens[partner], gens[k] * gens[partner].inverse()
        twists.append(Auto(group, images, inverse))
    phi, k = identity_auto(group), 0
    while max(map(len, phi.images)) < min_letters:
        phi, k = compose(phi, twists[k % 2]), k + 1
    others = [c for c in range(1, 2 * g + 1) if c not in (handle, g + handle)]
    x = group.from_letters(rng.choice((1, -1)) * rng.choice(others) for _ in range(30))
    return compose(inner(x), phi)


@pytest.mark.parametrize("g", WIDTH_GENERA)
def test_apply_matches_oracle_on_long_chains_at_every_width(g):
    rng = random.Random(300 + g)
    F = FreeGroup(g)
    assert freegroup._letter_format(F.rank)[0] == (1 if g <= 63 else 2)
    zeta, gen_a, gen_b = F.zeta(), F.a(g), F.b(g)
    phi = _handle_chain(F, g, 20_000, rng)
    assert max(map(len, phi.images)) >= 20_000
    back = phi.backward
    for w in (zeta, zeta.inverse(), gen_a.inverse(), gen_b.inverse(), gen_a * gen_b):
        assert phi(w).letters == word_oracle.substitute(phi, w)
        assert back(w).letters == word_oracle.substitute(back, w)
    # x^-1 zeta x: every twisted image cancels against its neighbours in full
    pre = back(zeta)
    assert phi(pre) == zeta and len(pre) <= len(zeta) + 60
    # a preimage as long as the images costs their product, so a shorter chain
    phi = _handle_chain(F, g, 2_000, rng)
    back = phi.backward
    for w in (gen_a, gen_b.inverse(), zeta):
        pre = back(w)
        assert pre.letters == word_oracle.substitute(back, w)
        assert phi(pre) == w


@pytest.mark.parametrize("g", WIDTH_GENERA)
def test_apply_matches_oracle_on_empty_images_and_single_letters(g):
    rng = random.Random(400 + g)
    F = FreeGroup(g)
    # every third image empty, the rest short or one letter long
    images = [F.identity() if k % 3 == 0 else random_word(F, rng.randint(1, 5), rng)
              for k in range(F.rank)]
    phi = Endo(F, images)
    for c in range(1, F.rank + 1):
        for w in (F.from_letters((-c,)), F.from_letters((c,))):
            assert phi(w).letters == word_oracle.substitute(phi, w)
    assert phi(F.from_letters((-1,))) == F.identity()  # image 0 is empty
    # outputs far longer than any image
    for w in (F.zeta(), F.zeta().inverse(), random_word(F, 1_000, rng)):
        assert phi(w).letters == word_oracle.substitute(phi, w)


@pytest.mark.parametrize("g", WIDTH_GENERA)
def test_seam_cancels_exactly_up_to_the_first_mismatch(g):
    """A1 -> u and A2 -> (last j letters of u)^-1 v cancel exactly j letters.

    The letters are positive, so both images are reduced, and the first
    letter that must not cancel is the same code on both sides of the
    seam: 128 where letters are two bytes wide, so it agrees with its
    inverse in the low byte and differs in the high byte only.
    """
    F = FreeGroup(g)
    hi = 128 if F.rank >= 128 else F.rank
    fill = [c for _ in range(12) for c in range(1, F.rank + 1) if c != hi][:12]
    for n, tail in ((5, 1), (5, 12), (12, 3)):
        for j in (0, 1, n - 1, n):
            u = fill[:n]
            if j < n:
                u[n - j - 1] = hi  # the first letter left of the seam
            v = [hi] + fill[:tail - 1]
            image_2 = [-c for c in reversed(u[n - j:])] + v
            phi = Endo(F, [F.from_letters(u), F.from_letters(image_2)]
                       + [F.identity()] * (F.rank - 2))
            assert len(phi.images[0]) == n and len(phi.images[1]) == j + tail
            w = F.word("A1 A2")
            assert phi(w).letters == tuple(u[:n - j] + v) == word_oracle.substitute(phi, w)
            assert phi(w.inverse()).letters == word_oracle.substitute(phi, w.inverse())
            assert phi(w.inverse()) == phi(w).inverse()


MALFORMED = (
    "A0",
    "A01",
    "C1",
    "A3",
    "b3",
    "a",
    "x",
    "A1 B1\tx",
    "A1\n\n A0",
    "1 A1 a01",
    "AA1",
    "A1B1",
    "+A1",
    "A-1",
    "11",
    "A١",
    # one space between two-character tokens, as printed words have
    "A1 A0",
    "B2 b2 C1",
    "A1 a١",
    "A1 B3 b1",
    "A1  A0",
    "A1\tA3",
    "A1 B1 A0 ",
)


@pytest.mark.parametrize("text", MALFORMED)
def test_malformed_text_raises_the_oracle_message(text):
    F = FreeGroup(2)
    with pytest.raises(ValueError) as want:
        word_oracle.parse(F, text)
    with pytest.raises(ValueError) as got:
        F.word(text)
    assert str(got.value) == str(want.value)


def test_stray_ones_and_mixed_whitespace_parse_like_the_oracle():
    F = FreeGroup(2)
    for text in ("1", "1 1\t1", "", " \n ", "  A1\tB1\n1\r\n a1  b1 1 ", "B2 1 b2",
                 "A1 B1 ", " A1 B1", "A1  B1", "A1\tB1", "A1 B1 b1 a1", "B2"):
        assert F.word(text).letters == word_oracle.parse(F, text)


def _text(g: int):
    """Word text from valid tokens, stray 1s and malformed tokens, with mixed whitespace."""
    valid = st.builds("{}{}".format, st.sampled_from("ABab"), st.integers(1, g))
    malformed = st.one_of(
        st.sampled_from(("A0", "A01", "C1", "a", "b07", "AA1", "A1B1", "+A1", "A-1", "11")),
        st.builds("{}{}".format, st.sampled_from("ABab"), st.integers(g + 1, 3 * g)),
    )
    # valid tokens three times as often as each other kind, so many texts parse
    token = st.one_of(valid, valid, valid, st.just("1"), malformed)
    pieces = st.lists(st.tuples(token, st.sampled_from(SEPARATORS)), max_size=30)
    return st.builds(lambda lead, ps: lead + "".join(t + sep for t, sep in ps),
                     st.sampled_from(("",) + SEPARATORS), pieces)


def _assert_tables_hold_only_valid_keys(F):
    for token, code in F.alphabet.codes.items():
        assert word_oracle.parse(F, token) == ((code,) if code else ())
    for code, token in F.alphabet.tokens.items():
        assert word_oracle.parse(F, token) == (code,)


@pytest.mark.parametrize("g", (2, 12, 257))
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_single_parse_path_matches_oracle(g, data):
    F = FreeGroup(g)
    text = data.draw(_text(g))
    try:
        want = word_oracle.parse(F, text)
    except ValueError as exc:
        with pytest.raises(ValueError) as got:
            F.word(text)
        assert str(got.value) == str(exc)
    else:
        assert F.word(text).letters == want
    _assert_tables_hold_only_valid_keys(F)


@pytest.mark.parametrize("g", (2, 12, 257))
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_text_round_trip_and_letter_range(g, data):
    F = FreeGroup(g)
    letter = st.integers(1, 2 * g) | st.integers(-2 * g, -1)
    w = F.from_letters(data.draw(st.lists(letter, max_size=60)))
    assert F.word(str(w)) == w
    bad = data.draw(st.sampled_from((0, 2 * g + 1, -2 * g - 1, 10 * g)))
    with pytest.raises(ValueError, match=rf"^letter code {bad} out of range for genus {g}$"):
        F.from_letters((1, bad))
    _assert_tables_hold_only_valid_keys(F)


def test_parser_above_the_table_genus_and_bounded_cache():
    F = FreeGroup(257)
    text = f"A{F.genus} b1 B1 a{F.genus} B{F.genus}"
    assert F.word(text).letters == word_oracle.parse(F, text) == (2 * F.genus,)
    maxsize = freegroup._alphabet.cache_info().maxsize
    assert maxsize is not None and maxsize <= 64


def _canonical_text(g: int):
    """Two-character tokens joined by single spaces: valid, out of range and malformed,
    each followed at random by its inverse, so pairs cancel anywhere in the text."""
    valid = st.builds("{}{}".format, st.sampled_from("ABab"), st.integers(1, min(g, 9)))
    malformed = st.sampled_from(("A0", "b0", "C1", "c2", "a١", "11", "1A", "AA", "a:", "B/"))
    out_of_range = (st.builds("{}{}".format, st.sampled_from("ABab"), st.integers(g + 1, 9))
                    if g < 9 else malformed)
    token = st.one_of(valid, valid, valid, valid, out_of_range, malformed)
    pieces = st.lists(st.tuples(token, st.booleans()), max_size=40)
    return pieces.map(lambda ps: " ".join(t + (" " + t.swapcase()) * pair for t, pair in ps))


@pytest.mark.parametrize("g", (2, 5, 9, 10))
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_canonical_text_decode_matches_oracle(g, data):
    F = FreeGroup(g)
    text = data.draw(_canonical_text(g))
    try:
        want = word_oracle.parse(F, text)
    except ValueError as exc:
        with pytest.raises(ValueError) as got:
            F.word(text)
        assert str(got.value) == str(exc)
    else:
        assert F.word(text).letters == want


class _Tripwire:
    """A code table that fails the test when the token route reads it."""

    def __getitem__(self, token):
        raise AssertionError(f"token route read {token!r}")


@pytest.mark.parametrize("g", (2, 5, 9, 10))
def test_printed_words_take_the_whole_text_decode_up_to_genus_9(g, monkeypatch):
    rng = random.Random(500 + g)
    F = FreeGroup(g)
    words = [F.zeta(), *F.generators()]
    words += [random_word(F, rng.randint(1, 300), rng) for _ in range(20)]
    decoded = []
    decode = freegroup._canonical_codes

    def spy(text, table):
        decoded.append(decode(text, table))
        return decoded[-1]

    monkeypatch.setattr(freegroup, "_canonical_codes", spy)
    if g <= 9:
        monkeypatch.setattr(F.alphabet, "codes", _Tripwire())
    for w in words:
        assert F.word(str(w)) == w
        # a cancelling pair at the join still decodes whole, then takes the stack pass
        assert F.word(f"{w} {w.inverse()} {F.a(1)}") == F.a(1)
    if g <= 9:
        assert len(decoded) == 2 * len(words) and None not in decoded
    else:
        assert decoded == []


def _reduced_with(group, fixed: dict, length: int, rng) -> list:
    """A reduced letter list of the given length holding ``fixed`` {position: letter}."""
    letters: list = []
    for k in range(length):
        if k in fixed:
            letters.append(fixed[k])
            continue
        while True:
            c = rng.choice((1, -1)) * rng.randint(1, group.rank)
            if (not letters or letters[-1] != -c) and fixed.get(k + 1, 0) != -c:
                letters.append(c)
                break
    return letters


def test_cancelling_pair_detector_at_every_position_and_letter_byte():
    """Every letter code at g = 9, bytes 0x01..0x12 and 0xEE..0xFF, at every
    position of a 40-letter word: followed by its inverse the pair is found,
    followed by any other letter nothing is."""
    rng = random.Random(41)
    F = FreeGroup(9)
    codes = [c for c in range(-F.rank, F.rank + 1) if c]
    for c in codes:
        for i in range(39):
            other = rng.choice([x for x in codes if x != -c])
            for follower, cancels in ((-c, True), (other, False)):
                letters = _reduced_with(F, {i: c, i + 1: follower}, 40, rng)
                packed = bytes(x & 0xFF for x in letters)
                assert freegroup._has_cancelling_pair(packed) is cancels, (letters, i)
                text = " ".join(map(F.alphabet.tokens.__getitem__, letters))
                assert F.word(text).letters == word_oracle.parse(F, text)


class _CountingEndo(Endo):
    """An Endo that counts its applications."""

    def __call__(self, w):
        self.calls += 1
        return super().__call__(w)


def test_in_N_applies_phi_to_zeta_once_and_keeps_the_check(monkeypatch):
    for g in (2, 3, 5):
        F = FreeGroup(g)
        for seed in range(5):
            phi = _CountingEndo(F, random_element(F, 5, seed=seed).images)
            phi.calls = 0
            witness = in_N(phi)
            assert phi.calls == 1
            # the cached record comes back without applying phi again
            assert in_N(phi) is witness and phi.calls == 1
            assert phi(F.zeta()) == F.zeta().conjugated_by(witness.conjugator)
    F = FreeGroup(2)
    outsider = _CountingEndo(F, (F.a(1), F.a(2), F.b(1), F.identity()))
    outsider.calls = 0
    assert in_N(outsider) is None and outsider.calls == 1
    # a wrong word from the conjugacy search is caught, and nothing is cached
    search = endomorphism.conjugator
    monkeypatch.setattr(endomorphism, "conjugator", lambda w, v: search(w, v) * w.group.a(1))
    for phi in (Endo(F, jablow(F).images), Endo(F, random_element(F, 5, seed=1).images)):
        with pytest.raises(ValueError, match="witness does not conjugate zeta"):
            in_N(phi)
        assert phi._member is None


@pytest.mark.parametrize("g,handle", [(3, 2), (5, 5)])
def test_d_matches_per_handle_syllables_on_long_images(g, handle):
    F = FreeGroup(g)
    phi = twist_chain(F, handle, 20_000)
    for w in (*phi.images, phi(F.zeta())):
        assert d(w) == sum(d_two_gen(project(w, i)) for i in range(1, g + 1))
