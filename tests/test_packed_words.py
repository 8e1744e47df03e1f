"""The packed-word kernels of ``Word`` against plain letter tuples.

A ``Word`` keeps its letters as bytes, one signed machine integer per
letter: 1 byte wide up to genus 63 and 2 bytes from genus 64.  Products,
inverses, powers, cyclic reduction and the conjugacy search work on those
bytes, so each is checked here at both widths against a reference that
walks a tuple of letters one at a time.  So are the images of a
conjugation, which are sliced from the bytes of x and x^-1.
"""

import pickle
import random

import pytest

from word_oracle import _conjugator, _cyclic_reduce, _inverse, _reduce
from mcgcocycles import FreeGroup, Word, conjugator, inner, random_word

GENERA = (2, 9, 64, 130, 200)


def _aliasing_letters(group) -> list[int]:
    """Letters whose two-byte forms share bytes, so their words match at odd offsets."""
    return [c for m in (1, 2, 128, 256, 257, 258) for c in (m, -m) if m <= group.rank]


def _words(group, rng) -> list[Word]:
    """Random conjugated words and words of aliasing letters, then the generators."""
    words = [group.identity(), group.zeta()]
    for _ in range(30):
        u = random_word(group, rng.randint(0, 6), rng)
        words.append(random_word(group, rng.randint(1, 40), rng).conjugated_by(u))
    alphabet = _aliasing_letters(group)
    for _ in range(40):
        words.append(group.from_letters(rng.choice(alphabet) for _ in range(rng.randint(1, 5))))
    return words + list(group.generators())


@pytest.mark.parametrize("g", GENERA)
def test_packed_kernels_match_tuple_references(g):
    rng = random.Random(700 + g)
    F = FreeGroup(g)
    assert F.width == (1 if g <= 63 else 2)
    words = _words(F, rng)
    for x in words:
        t = x.letters
        assert len(x) == len(t) and tuple(x) == t and tuple(x.view) == t
        assert Word(F, t) == x and hash(Word(F, t)) == hash(x)
        twin = pickle.loads(pickle.dumps(x))
        assert twin == x and hash(twin) == hash(x)
        assert F.word(str(x)) == x
        assert x.inverse().letters == _inverse(t)
        for n in range(-3, 4):
            want = _reduce((t if n > 0 else _inverse(t)) * abs(n))
            assert (x ** n).letters == want, (t, n)
        core, prefix = x.cyclic_reduce()
        assert (core.letters, prefix.letters) == _cyclic_reduce(t)
        # y starts with the inverse of the last k letters of x and then a
        # word that does not cancel it, so exactly k letters cancel at the seam
        for k in range(len(t) + 1):
            head = _inverse(t[len(t) - k:])
            # neither the letter before the tail nor the one left of the seam cancels it
            banned = {-c for c in (head[-1:] + t[len(t) - k - 1:len(t) - k])}
            tail = random_word(F, rng.randint(0, 6), rng).letters
            while tail and tail[0] in banned:
                tail = random_word(F, len(tail), rng).letters
            y = F.from_letters(head + tail)
            assert y.letters == head + tail
            assert (x * y).letters == _reduce(t + y.letters) == t[:len(t) - k] + tail, (t, k)
    for w1 in words[:len(words) - F.rank]:
        for w2 in words:
            got = conjugator(w1, w2)
            want = _conjugator(w1.letters, w2.letters)
            assert (got if got is None else got.letters) == want, (w1, w2)
    # the rotations of every word's core, one letter at a time
    for x in words:
        core = x.cyclic_reduce()[0].letters
        for r in range(min(len(core), 8)):
            w2 = F.from_letters(core[r:] + core[:r])
            got = conjugator(x, w2)
            assert got.letters == _conjugator(x.letters, w2.letters)
            assert w2.conjugated_by(got) == x


@pytest.mark.parametrize("g", GENERA)
def test_conjugation_images_match_the_tuple_reduction(g):
    """inner(x) and its inverse against x gen x^-1 reduced letter by letter.

    x = y gen^k, with y not ending in gen^+-1, has to lose k letters on
    each side of the image of gen: k runs over -3..3, y over random words
    and the empty word, gen over the ends of the alphabet and the letters
    whose two-byte forms share bytes.
    """
    rng = random.Random(900 + g)
    F = FreeGroup(g)
    xs = [()] + [random_word(F, rng.randint(1, 12), rng).letters for _ in range(20)]
    gens = {1, g, g + 1, F.rank, rng.randint(1, F.rank)}
    gens |= {c for c in _aliasing_letters(F) if c > 0}
    for c in sorted(gens):
        for k in range(-3, 4):
            power = (c if k > 0 else -c,) * abs(k)
            y = random_word(F, rng.randint(1, 6), rng).letters
            while y and abs(y[-1]) == c:
                y = y[:-1]
            xs += [power, y + power]
    for t in xs:
        conj = inner(F.from_letters(t))
        ti = _inverse(t)
        assert tuple(im.letters for im in conj.images) == tuple(
            _reduce(t + (c,) + ti) for c in range(1, F.rank + 1)), t
        assert tuple(im.letters for im in conj.inverse().images) == tuple(
            _reduce(ti + (c,) + t) for c in range(1, F.rank + 1)), t
