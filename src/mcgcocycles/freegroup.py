"""Words in the free group on the standard surface generators.

A closed oriented surface of genus ``g`` with one marked point has
fundamental group free of rank ``2g``, with generators
``A_1, ..., A_g, B_1, ..., B_g`` and distinguished boundary word

    zeta = [A_1, B_1] [A_2, B_2] ... [A_g, B_g],

where ``[x, y] = x y x^-1 y^-1``.  Everything downstream of this module
(homology, automorphisms, cocycles) works with freely reduced words in
these generators, so this module owns the word representation and every
kernel that reads it: ``Substitution``, the kernel under applying an
endomorphism, and ``d_and_class``, the turning function under the
cocycles, among them.

Letters are encoded as nonzero integers: ``+i`` with ``1 <= i <= g`` is
``A_i``, ``+(g+i)`` is ``B_i``, and negation is inversion.  A ``Word``
stores its freely reduced letters as bytes, one signed machine integer
per letter (1 byte wide while 2g <= 127), together with its ambient
``FreeGroup``; all constructors reduce, so reduction is an invariant,
never a caller obligation.  ``Word.letters`` decodes the bytes on read.

Word text syntax: tokens separated by whitespace, ``A3``/``B3`` for
generators, ``a3``/``b3`` for their inverses, and the literal ``1`` for
the empty word.  The one ``FreeGroup`` object of a genus holds the text
form in two tables, filled as tokens and codes are first asked for.

Text takes one of two routes.  The form ``str(Word)`` writes at genus
<= 9, two-character tokens joined by single spaces, is decoded whole:
one ``str.translate`` turns it into hex text and one ``bytes.fromhex``
into one index byte per letter, which a per-genus byte table turns into
letter codes, all at C speed; whether two neighbours cancel is read off
the index bytes.  Any other text, and any text holding a token that the
table does not know, goes token by token through the code table, the
only route that raises and words its errors.

Morita's turning function d (:mod:`mcgcocycles.morita`) sums over the
letter pairs of a word, so it is computed here: ``d_and_class`` gives
d(w) and the class [w] by two routes that give the same integers.  Short
words, and words of two-byte letters (genus 64 and above), are walked
letter by letter.  Long words of one-byte letters are translated, per
handle, into two strings of base-4 digits whose places count the alpha
letters before each beta letter, and one sweep of popcounts over the
joined digits, read as integers, adds up those places.

>>> F = FreeGroup(2)
>>> w = F.word("A1 B2 b2 a1 B1")
>>> str(w)
'B1'
>>> str(F.word("A1 B1") * F.word("b1 a1"))
'1'
>>> str(F.zeta())
'A1 B1 a1 b1 A2 B2 a2 b2'
"""

from __future__ import annotations

import re
import reprlib
import struct
import sys
from functools import cached_property, lru_cache
from operator import add, mul
from typing import Iterable, Iterator, Optional

__all__ = ["FreeGroup", "Word", "commutator", "conjugator", "random_word"]


_TOKEN_RE = re.compile(r"([ABab])([1-9][0-9]*)\Z")

# the negation of a one-byte letter
_NEG = bytes(-b & 0xFF for b in range(256))


def _letter_format(rank: int) -> tuple[int, str]:
    """Bytes per packed letter and its struct code: the narrowest machine integer holding +-rank."""
    for code in "bhiq":
        width = struct.calcsize(code)
        if rank < 1 << (8 * width - 1):
            return width, code
    raise ValueError(f"genus {reprlib.repr(rank // 2)} is too large to pack its letters")


# struct formats by text, which names the letter count as well as the code
_struct = lru_cache(maxsize=128)(struct.Struct)


def _packed_inverse(packed: bytes, group: "FreeGroup") -> bytes:
    """The inverse of a packed word: its letters reversed and negated, at C speed.

    Reversing the bytes reverses one-byte letters, which a byte table then
    negates.  Wider letters are reversed whole through a memoryview, and
    2^bits - x negates every letter x at once: no letter is 0, so none
    borrows from its neighbour.
    """
    if group.width == 1:
        return packed[::-1].translate(_NEG)
    width, order = group.width, sys.byteorder
    backwards = memoryview(packed).cast(group.code)[::-1].tobytes()
    ones = int.from_bytes((1).to_bytes(width, order) * (len(packed) // width), order)
    return ((ones << 8 * width) - int.from_bytes(backwards, order)).to_bytes(len(packed), order)


def _cancelled(a: bytes, b: bytes, group: "FreeGroup") -> int:
    """Bytes of the tail of packed word a that the head of b cancels, from their XOR's low bit.

    One-byte letters cancel at the seam when they add up to 0 modulo 256.
    """
    n, width = min(len(a), len(b)), group.width
    if not n:
        return 0
    if width == 1:
        if (a[-1] + b[0]) & 0xFF:
            return 0
    elif a[-width:] != _packed_inverse(b[:width], group):
        return 0
    x = int.from_bytes(a[-n:], "big") ^ int.from_bytes(_packed_inverse(b[:n], group), "big")
    return ((x & -x).bit_length() - 1) // (8 * width) * width if x else n


class Substitution:
    """The packed kernel of a map given by 2g generator images: letters in, reduced word out.

    Built once per map.  Entry c of ``packed`` is the image of letter c;
    a negative code indexes from the end of the list, where the inverse
    image of its generator is stored.  Entry c of ``ends`` is the last
    letter of the inverse of image c, so an output cancels against image
    c exactly when it ends with it; for an empty image it is a zero
    letter, which no output ends with.  Entry c of ``inverses`` is that
    inverse image read as one big-endian integer, or None until a seam
    first cancels against image c.

    Applying it appends the images to a ``bytearray``.  The output so far
    and each image are reduced, so letters cancel only at the seam, by
    the rule of ``_cancelled`` with the inverse image read as an integer
    once per map, on the first seam that needs it: the output's tail XOR
    the inverse image has its lowest set bit past the equal trailing
    letters.  Where the output is shorter than the image its missing
    letters read as 0, which no letter is, so the count stops at the
    output's length.
    """

    __slots__ = ("group", "packed", "ends", "inverses")

    def __init__(self, group: "FreeGroup", images: Iterable["Word"]):
        width, size = group.width, 2 * group.rank + 1
        packed: list = [b""] * size
        ends: list = [bytes(width)] * size
        for c, im in enumerate(images, start=1):
            image = im.packed
            if image:
                inverse = _packed_inverse(image, group)
                packed[c], packed[-c] = image, inverse
                ends[c], ends[-c] = inverse[-width:], image[-width:]
        self.group, self.packed, self.ends, self.inverses = group, packed, ends, [None] * size

    def __call__(self, letters: memoryview) -> "Word":
        """The reduced product of the images of ``letters``, signed codes of this group."""
        packed, ends, inverses, width = self.packed, self.ends, self.inverses, self.group.width
        bits = 8 * width
        out = bytearray()
        for c in letters:
            img = packed[c]
            if out.endswith(ends[c]):
                inverse = inverses[c]
                if inverse is None:
                    inverse = inverses[c] = int.from_bytes(packed[-c], "big")
                x = int.from_bytes(out[-len(img):], "big") ^ inverse
                j = ((x & -x).bit_length() - 1) // bits * width if x else len(img)
                out[len(out) - j:] = img[j:]
            else:
                out += img
        return Word._from_reduced(self.group, bytes(out))


def _byte_table(pairs) -> bytes:
    """A 256-byte translate table holding ``pairs`` and mapping every other byte to 0."""
    table = bytearray(256)
    for key, value in pairs:
        table[key] = value
    return bytes(table)


# canonical text to hex text, a str.translate table: a two-character token's
# kind goes to the high hex digit of its index byte, A a, B b, a e and b f,
# so a letter and its inverse differ in bit 0x40 alone, and its digit 1-9 to
# the low one; any other ASCII character but the space goes to NUL, no hex
_TO_HEX = dict.fromkeys(range(128), 0) | str.maketrans("ABab123456789 ", "abef123456789 ")
# the largest genus whose every token is two characters long
_SHORT_GENUS = 9


class _Table(dict):
    """A dict that fills a missing key from ``decode``, which raises ValueError if it is invalid."""

    def __init__(self, decode, items=()):
        super().__init__(items)
        self.decode = decode

    def __missing__(self, key):
        value = self[key] = self.decode(key)
        return value


def _canonical_index(text: str) -> Optional[bytes]:
    """The index bytes of canonical text, one per token, or None for any other text.

    Canonical text is what ``str(Word)`` writes at genus <= 9: tokens of
    two ASCII characters joined by single spaces.  One translate turns it
    into hex text, which ``bytes.fromhex`` decodes; a token's kind is the
    high hex digit of its index byte and its digit the low one.  Any
    character but those and the space makes that fail, and then None;
    a token of two spaces is skipped, as ``str.split`` skips it.
    """
    n = (len(text) + 1) // 3
    if len(text) != 3 * n - 1 or not text.isascii() or text[2::3] != " " * (n - 1):
        return None
    try:
        return bytes.fromhex(text.translate(_TO_HEX))
    except ValueError:
        return None


def _inverse_neighbours(index: bytes) -> bool:
    """Whether two neighbours of the index bytes of letters are inverse letters.

    Exactly those differ in bit 0x40 alone, so it is whether a byte of
    the index XOR the index shifted by one byte, both read as one
    integer, is 0x40.  The last byte, XOR 0, is a letter, never 0x40.
    """
    x = int.from_bytes(index, "little")
    return b"\x40" in (x ^ x >> 8).to_bytes(len(index), "little")


class FreeGroup:
    """The free group of rank 2g, g >= 2: one object per genus, which carries its tables.

    ``FreeGroup(g)`` is the group cached for g (the last 16 genera are
    kept).  Groups compare, hash, pickle and copy by genus, so one built
    again after eviction equals the old one and their words interoperate.
    ``codes`` (token -> signed code, ``"1"`` is 0) and ``tokens`` (code ->
    token) hold only the keys asked for, at most 4g + 1 each; the other
    tables, the generators and zeta are built on first use.
    """

    def __new__(cls, genus: int) -> "FreeGroup":
        if not isinstance(genus, int) or genus < 2:
            raise ValueError(f"genus must be an integer >= 2, got {reprlib.repr(genus)}")
        return _group(genus)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, FreeGroup) and other.genus == self.genus

    def __hash__(self) -> int:
        return hash(("FreeGroup", self.genus))

    def __repr__(self) -> str:
        return f"FreeGroup({self.genus})"

    def __reduce__(self):  # by genus, so a round trip gives the cached group
        return FreeGroup, (self.genus,)

    # -- letter encoding -------------------------------------------------

    def letter_code(self, kind: str, index: int, sign: int = 1) -> int:
        """Encode a generator occurrence as a signed integer."""
        if kind not in ("A", "B"):
            raise ValueError(f"generator kind must be 'A' or 'B', got {kind!r}")
        if not 1 <= index <= self.genus:
            raise ValueError(
                f"generator index {index} out of range 1..{self.genus}"
            )
        if sign not in (1, -1):
            raise ValueError(f"sign must be +1 or -1, got {sign!r}")
        code = index if kind == "A" else self.genus + index
        return sign * code

    def _code(self, token: str) -> int:
        m = _TOKEN_RE.match(token)
        if m is None:
            raise ValueError(f"malformed generator token {reprlib.repr(token)}")
        name, index = m.groups()
        g = self.genus
        if len(index) > len(str(g)):  # too large, and int() refuses over 4300 digits
            raise ValueError(f"generator index {reprlib.repr(index)[1:-1]} out of range 1..{g}")
        return self.letter_code(name.upper(), int(index), 1 if name.isupper() else -1)

    def _token(self, code: int) -> str:
        g = self.genus
        if not isinstance(code, int) or not 1 <= abs(code) <= 2 * g:
            raise ValueError(f"letter code {code} out of range for genus {g}")
        kind, index = ("A", abs(code)) if abs(code) <= g else ("B", abs(code) - g)
        return f"{kind if code > 0 else kind.lower()}{index}"

    @cached_property
    def letter_bytes(self) -> bytes:
        """Translate table from a token's index byte to its letter code as a signed byte.

        Filled for the index bytes (``_canonical_index``) of the valid
        two-character tokens (genus <= 9 has no other); every other index,
        a malformed token among them, maps to 0.
        """
        indices = range(1, min(self.genus, _SHORT_GENUS) + 1)
        tokens = [f"{kind}{i}" for kind in "ABab" for i in indices]
        return _byte_table((_canonical_index(t)[0], self._code(t) & 0xFF) for t in tokens)

    @cached_property
    def handle_tables(self) -> tuple[tuple[bytes, bytes, bytes, bytes, bytes, int], ...]:
        """Per handle k: the bytes that are no letter of it, two digit tables, a_k, A_k and b_k.

        The digit tables send every B_k to the base-4 digit 1 and b_k to 2,
        then the two swapped, and every other byte to 0.
        """
        g = self.genus
        # the B_k are the bytes g+1..2g and the b_k the bytes 256-2g..255-g
        to_p1 = b"0" * (g + 1) + b"1" * g + b"0" * (255 - 4 * g) + b"2" * g + b"0" * g
        to_p2 = to_p1.translate(bytes.maketrans(b"12", b"21"))
        return tuple(
            (bytes(c for c in range(256) if c not in {k, -k & 0xFF, g + k, -(g + k) & 0xFF}),
             to_p1, to_p2, bytes([-k & 0xFF]), bytes([k]), -(g + k) & 0xFF)
            for k in range(1, g + 1)
        )

    # -- word constructors ------------------------------------------------

    def identity(self) -> "Word":
        return Word(self, ())

    def from_letters(self, letters: Iterable[int]) -> "Word":
        """Build a word from signed letter codes; validates and reduces."""
        return Word(self, letters)

    def a(self, index: int) -> "Word":
        return Word(self, (self.letter_code("A", index),))

    def b(self, index: int) -> "Word":
        return Word(self, (self.letter_code("B", index),))

    def generators(self) -> tuple["Word", ...]:
        """All 2g generators, A_1..A_g then B_1..B_g; built once per genus."""
        return self._generators

    @cached_property
    def _generators(self) -> tuple["Word", ...]:
        return tuple(Word(self, (code,)) for code in range(1, self.rank + 1))

    def word(self, text: str) -> "Word":
        """Parse word text.

        Canonical text, the form ``str(Word)`` writes at genus <= 9, is
        decoded whole at C speed (``_canonical_index``); only a word with
        inverse neighbours then takes a stack pass.  Any other text is
        looked up token by token in the per-genus code table, which
        decodes a token on first sight; the first bad token raises.

        >>> FreeGroup(3).word("B3 a1").letters
        (6, -1)
        >>> FreeGroup(2).word("1").letters
        ()
        >>> FreeGroup(2).word("A1 B1 b1").letters
        (1,)
        >>> FreeGroup(2).word("A01")
        Traceback (most recent call last):
        ...
        ValueError: malformed generator token 'A01'
        >>> FreeGroup(2).word("A3")
        Traceback (most recent call last):
        ...
        ValueError: generator index 3 out of range 1..2
        """
        index = _canonical_index(text) if self.genus <= _SHORT_GENUS else None
        if index is not None:
            codes = index.translate(self.letter_bytes)
            if 0 not in codes:
                if _inverse_neighbours(index):
                    return Word(self, memoryview(codes).cast("b"))
                return Word._from_reduced(self, codes)
        return Word(self, filter(None, map(self.codes.__getitem__, text.split())))

    def zeta(self) -> "Word":
        """The boundary word [A_1, B_1] ... [A_g, B_g], 4g letters; built once per genus."""
        return self._zeta

    @cached_property
    def _zeta(self) -> "Word":
        g = self.genus
        return Word(self, [c for k in range(1, g + 1) for c in (k, g + k, -k, -g - k)])


@lru_cache(maxsize=16)
def _group(genus: int) -> FreeGroup:
    """The group of a valid genus, built with its two letter tables when it is not cached."""
    group = object.__new__(FreeGroup)
    group.genus, group.rank = genus, 2 * genus
    group.width, group.code = _letter_format(2 * genus)  # of a packed letter
    group.codes, group.tokens = _Table(group._code, {"1": 0}), _Table(group._token)
    return group


class Word:
    """A freely reduced word, immutable and hashable; ``packed`` holds its letters.

    The constructor takes signed letter codes, rejects with ValueError a
    code that is 0, outside +-2g or no integer, and reduces.
    """

    __slots__ = ("group", "packed")

    def __init__(self, group: FreeGroup, letters: Iterable[int] = ()):
        codes = tuple(letters)
        rank = group.rank
        # one range test at C speed; the slow walk only names the bad code
        if codes and (min(codes) < -rank or max(codes) > rank or 0 in codes):
            bad = next(c for c in codes if not 0 < abs(c) <= rank)
            raise ValueError(f"letter code {bad} out of range for genus {group.genus}")
        # no two neighbours summing to 0, a test at C speed, means reduced
        if 0 in map(add, codes, codes[1:]):
            out: list[int] = []
            for c in codes:
                if out and out[-1] == -c:
                    out.pop()
                else:
                    out.append(c)
            codes = out
        try:
            packed = _struct(f"{len(codes)}{group.code}").pack(*codes)
        except struct.error:  # a code in range that is no integer, such as 1.5
            raise ValueError("letter codes must be integers") from None
        _set_group(self, group)
        _set_packed(self, packed)

    @classmethod
    def _from_reduced(cls, group: FreeGroup, packed: bytes) -> "Word":
        """Internal fast path; caller guarantees the packed letters are reduced."""
        w = object.__new__(cls)
        _set_group(w, group)
        _set_packed(w, packed)
        return w

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("Word is immutable")

    def __reduce__(self):  # else pickle and copy set slots through __setattr__
        return Word, (self.group, self.letters)

    @property
    def view(self) -> memoryview:
        """The letters as a signed memoryview of the packed bytes."""
        return memoryview(self.packed).cast(self.group.code)

    @property
    def letters(self) -> tuple[int, ...]:
        """The letters as a tuple of signed codes, decoded on each read."""
        return _struct(f"{len(self)}{self.group.code}").unpack(self.packed)

    def _require_same_group(self, other: "Word") -> None:
        if self.group is not other.group and self.group != other.group:
            raise ValueError(
                f"genus mismatch: {self.group!r} vs {other.group!r}"
            )

    def __mul__(self, other: "Word") -> "Word":
        if not isinstance(other, Word):
            return NotImplemented
        group = self.group
        if other.group is not group:
            self._require_same_group(other)
        a, b = self.packed, other.packed
        # only the seam can cancel, both factors being reduced, and one-byte
        # letters cancel there only when they add up to 0 modulo 256
        if a and b and (group.width > 1 or not (a[-1] + b[0]) & 0xFF):
            j = _cancelled(a, b, group)
            a, b = a[:len(a) - j], b[j:]
        w = _new(Word)
        _set_group(w, group)
        _set_packed(w, a + b)
        return w

    def inverse(self) -> "Word":
        return Word._from_reduced(self.group, _packed_inverse(self.packed, self.group))

    def __pow__(self, n: int) -> "Word":
        """w^n = prefix core^n prefix^-1, from ``cyclic_reduce``; reduced as written."""
        if not isinstance(n, int):
            return NotImplemented
        if n == 0:
            return self.group.identity()
        core, prefix = self.cyclic_reduce()
        if n < 0:
            core, n = core.inverse(), -n
        return Word._from_reduced(
            self.group, prefix.packed + core.packed * n + prefix.inverse().packed
        )

    def conjugated_by(self, u: "Word") -> "Word":
        """u * self * u^-1."""
        return u * self * u.inverse()

    def is_identity(self) -> bool:
        return not self.packed

    def __len__(self) -> int:
        return len(self.packed) // self.group.width

    def __iter__(self) -> Iterator[int]:
        return iter(self.view)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Word)
            and other.group == self.group
            and other.packed == self.packed
        )

    def __hash__(self) -> int:
        return hash((self.group, self.packed))

    def __str__(self) -> str:
        return " ".join(map(self.group.tokens.__getitem__, self.view)) or "1"

    def __repr__(self) -> str:
        return f"<Word {self} in {self.group!r}>"

    def cyclic_reduce(self) -> tuple["Word", "Word"]:
        """Split off the conjugating prefix.

        Returns (core, prefix) with self == prefix * core * prefix^-1 and
        core cyclically reduced (its first letter is not the inverse of
        its last).  The prefix is the head of the word whose inverse is its
        tail; in a reduced word that is less than half of it.

        >>> F = FreeGroup(2)
        >>> core, prefix = F.word("B1 A2 b1").cyclic_reduce()
        >>> str(core), str(prefix)
        ('A2', 'B1')
        """
        packed, group = self.packed, self.group
        i = _cancelled(packed, packed, group)
        core = Word._from_reduced(group, packed[i:len(packed) - i])
        return core, Word._from_reduced(group, packed[:i])


# the slots' own setters, which Word.__setattr__ does not reach; they find
# their slot without the by-name lookup of object.__setattr__
_set_group = Word.__dict__["group"].__set__
_set_packed = Word.__dict__["packed"].__set__
_new = object.__new__


def conjugated_generators(x: Word, xi: Word) -> tuple[Word, ...]:
    """The reduced words x gen x^-1 of the 2g generators, ``xi`` being x^-1, by slicing bytes.

    x gen xi is reduced as written unless x ends in gen^+-1, which holds
    for the generator of x's last letter only.  For that one, x = y gen^k
    with y not ending in gen^+-1, so the image is y gen y^-1, reduced as
    written, and y^-1 is xi without its first k letters.  The empty x
    keeps the generator words.
    """
    group = x.group
    gens, a, ai, width = group.generators(), x.packed, xi.packed, group.width
    if not a:
        return gens
    last, k = a[-width:], 1
    while a.endswith(last * (k + 1)):
        k += 1
    images = [a + gen.packed + ai for gen in gens]
    c = abs(int.from_bytes(last, sys.byteorder, signed=True))
    images[c - 1] = a[:len(a) - k * width] + gens[c - 1].packed + ai[k * width:]
    return tuple(Word._from_reduced(group, image) for image in images)


def commutator(x: Word, y: Word) -> Word:
    """[x, y] = x y x^-1 y^-1."""
    return x * y * x.inverse() * y.inverse()


def conjugator(w1: Word, w2: Word) -> Optional[Word]:
    """A witness u with w1 == u * w2 * u^-1, or None if not conjugate.

    Two reduced words are conjugate exactly when their cyclically reduced
    cores are rotations of one another.  Writing w1 = p1 c1 p1^-1,
    w2 = p2 c2 p2^-1 and c1 = x^-1 c2 x for a prefix x of c2 gives
    u = p1 x^-1 p2^-1.  The rotation is found by one byte search for c1
    in c2 c2, skipping hits that do not start on a letter.

    >>> F = FreeGroup(2)
    >>> str(conjugator(F.word("B1") * F.zeta() * F.word("b1"), F.zeta()))
    'B1'
    >>> conjugator(F.word("A1"), F.word("B1")) is None
    True
    """
    w1._require_same_group(w2)
    c1, p1 = w1.cyclic_reduce()
    c2, p2 = w2.cyclic_reduce()
    t1, t2 = c1.packed, c2.packed
    if len(t1) != len(t2):
        return None
    doubled = t2 + t2
    r = doubled.find(t1)
    while r > 0 and r % w1.group.width:
        r = doubled.find(t1, r + 1)
    if r < 0:
        return None
    x = Word._from_reduced(w1.group, t2[:r])
    return p1 * x.inverse() * p2.inverse()


def d_and_class(w: Word) -> tuple[int, tuple[int, ...]]:
    """Morita's d(w) (``morita.d``) and the exponent-sum class [w].

    The product identity and d = 0 on generators make d(w) the sum of
    [x_p].[x_q] over the letter pairs p < q of w, and cancelling
    neighbours add nothing to that sum, so the handle projections need
    no reduction.  On one handle each beta^delta adds delta * (alpha sum
    before it - alpha sum after it); with s the sum of alpha_p beta_q
    over the letter pairs p < q of the handle and a, b its exponent sums,
    the handle's share is 2 s - a b.
    On a reduced projection this is the syllable formula with each
    syllable split into its alpha and its beta.  The handles' exponent
    sums are [w] (``homology.abelianize``).

    ``_walk`` and ``_block_sums``, the two routes, sum s over the same
    pairs.  The digit route pays a fixed cost per handle, so it takes
    only words of at least ``_KERNEL_LETTERS`` letters per handle; from
    there on ``tools/sweep_substitution.py`` (``d_rows``) measures it
    ahead of the walk, by less as the genus grows.
    """
    if w.group.width == 1 and len(w.packed) >= _KERNEL_LETTERS * w.group.genus:
        return _block_sums(w)
    return _walk(w)


# Letters per handle from which the digit route beats the walk at genus 2 to 63.
_KERNEL_LETTERS = 48


def _walk(w: Word) -> tuple[int, tuple[int, ...]]:
    """``d_and_class`` by one pass over the letters with per-handle counters.

    It reads the letters unsigned, one-byte ones as the bytes themselves,
    which are ints Python keeps cached: with m = 2^(8 width), A_k is k,
    B_k is g + k, a_k is m - k and b_k is m - g - k.
    """
    group = w.group
    g, rank, m = group.genus, group.rank, 1 << 8 * group.width
    mg = m - g
    alpha = [0] * (g + 1)
    beta = [0] * (g + 1)
    s = 0
    for u in w.packed if group.width == 1 else memoryview(w.packed).cast(group.code.upper()):
        if u > rank:  # an inverse letter
            if u >= mg:
                alpha[m - u] -= 1
            else:
                s -= alpha[mg - u]
                beta[mg - u] -= 1
        elif u > g:
            s += alpha[u - g]
            beta[u - g] += 1
        else:
            alpha[u] += 1
    return 2 * s - sum(map(mul, alpha, beta)), tuple(alpha[1:] + beta[1:])


# Digits per chunk of _block_sums' digit string: 2^_CHUNK_BITS.
_CHUNK_BITS = 14


@lru_cache(maxsize=1)
def _index_masks() -> tuple[int, tuple[int, ...]]:
    """The masks of ``_block_sums``, built on first use: 15 of 2^15 bits, 60 KB.

    As base-4 numerals of 2^14 digits, the first has the digit 1 at every
    place and mask t at the places, counted from the right from 0, that
    have bit t set; the other digits are 0.
    """
    size = 1 << _CHUNK_BITS
    return int("1" * size, 4), tuple(int(("1" * h + "0" * h) * (size // (2 * h)), 4)
                                     for h in (1 << t for t in range(_CHUNK_BITS)))


def _block_sums(w: Word) -> tuple[int, tuple[int, ...]]:
    """``d_and_class`` for one-byte letters by one popcount sweep over base-4 digits.

    Per handle, P1 is the projection onto its letters without a_k and P2
    the projection without A_k.  A beta letter has #A_k + #beta letters
    before it in P1 and #a_k + #beta letters in P2, so the beta-weighted
    sum of its places in P1 minus that in P2 is the handle's s (see
    ``d_and_class``).  With B_k the digit 1 and b_k 2 in P1, the two
    swapped in P2 and every other letter 0, all joined as P1 P2 per
    handle, W, the sum of place times sign (1 is +1, 2 is -1) over the
    digits, gives d = 2 W + sum of b (2 len(P1) - a) over the handles,
    where a = len(P1) - len(P2) and
    b = len(P1) + len(P2) - len(projection) - 2 #b_k.

    W is read in chunks of 2^14 digits, each one base-4 integer v: the
    digits 1 are the bits of v under the masks of ``_index_masks`` and
    the digits 2 those of v >> 1, so the popcounts under mask t add up
    bit t of the places.  No word makes the masks grow.
    """
    packed, digits, alpha, beta, fixed = w.packed, bytearray(), [], [], 0
    for delete, to_p1, to_p2, down_a, up_a, down_b in w.group.handle_tables:
        proj = packed.translate(None, delete)
        p1, p2 = proj.translate(to_p1, down_a), proj.translate(to_p2, up_a)
        a = len(p1) - len(p2)
        b = len(p1) + len(p2) - len(proj) - 2 * proj.count(down_b)
        fixed += b * (2 * len(p1) - a)
        digits += p1
        digits += p2
        alpha.append(a)
        beta.append(b)
    low, masks = _index_masks()
    size, places = 1 << _CHUNK_BITS, 0
    for start in range(0, len(digits), size):
        chunk = digits[start:start + size]
        v = int(chunk, 4)
        u = v >> 1
        # the masks count places from the chunk's right end; its sign sum, from one
        # set bit per digit 1 or 2, turns them to count from the start of the digits
        backwards = sum(((v & m).bit_count() - (u & m).bit_count()) << t
                        for t, m in enumerate(masks))
        places += (start + len(chunk) - 1) * (2 * (v & low).bit_count() - v.bit_count()) - backwards
    return 2 * places + fixed, tuple(alpha + beta)


def random_word(group: FreeGroup, length: int, rng) -> Word:
    """A pseudorandom reduced word of exactly the given length.

    ``rng`` is a ``random.Random``.  Successive letters avoid immediate
    cancellation, so the requested length is the reduced length.  Each
    generator is drawn as ``rng.randint(1, 2g)`` draws it, by rejection
    over ``rng.getrandbits`` of the bit length of 2g, but without its
    call layers, and each sign by ``rng.random()``; so the letters and
    the rng's final state are those of the ``randint`` loop.
    """
    rank = group.rank
    bits, getrandbits, random = rank.bit_length(), rng.getrandbits, rng.random
    letters: list[int] = []
    last = 0  # no letter is 0
    for _ in range(length):
        while True:
            c = getrandbits(bits)
            while c >= rank:
                c = getrandbits(bits)
            c += 1
            if random() < 0.5:
                c = -c
            if last != -c:
                letters.append(c)
                last = c
                break
    return Word(group, letters)
