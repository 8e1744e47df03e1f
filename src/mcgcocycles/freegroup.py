"""Words in the free group on the standard surface generators.

A closed oriented surface of genus ``g`` with one marked point has
fundamental group free of rank ``2g``, with generators
``A_1, ..., A_g, B_1, ..., B_g`` and distinguished boundary word

    zeta = [A_1, B_1] [A_2, B_2] ... [A_g, B_g],

where ``[x, y] = x y x^-1 y^-1``.  Everything downstream of this module
(homology, automorphisms, cocycles) works with freely reduced words in
these generators, so this module owns the word representation and every
kernel that reads it, ``Substitution``, the kernel under applying an
endomorphism, among them.

Letters are encoded as nonzero integers: ``+i`` with ``1 <= i <= g`` is
``A_i``, ``+(g+i)`` is ``B_i``, and negation is inversion.  A ``Word``
stores its freely reduced letters as bytes, one signed machine integer
per letter (1 byte wide while 2g <= 127), together with its ambient
``FreeGroup``; all constructors reduce, so reduction is an invariant,
never a caller obligation.  ``Word.letters`` decodes the bytes on read.

Word text syntax: tokens separated by whitespace, ``A3``/``B3`` for
generators, ``a3``/``b3`` for their inverses, and the literal ``1`` for
the empty word.  One pair of tables per genus holds the text form in
both directions, filled as tokens and codes are first asked for.

Text takes one of two routes.  The form ``str(Word)`` writes at genus
<= 9, two-character tokens joined by single spaces, is decoded whole:
byte translates turn the kind and digit characters into one index byte
per letter, and a per-genus byte table turns those into letter codes,
all at C speed.  Any other text, and any text holding a token that the
table does not know, goes token by token through the code table, the
only route that raises and words its errors.

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
import struct
import sys
from functools import cached_property, lru_cache
from operator import add
from typing import Iterable, Iterator, Optional


_TOKEN_RE = re.compile(r"([ABab])([1-9][0-9]*)\Z")

# the negation of a one-byte letter
_NEG = bytes(-b & 0xFF for b in range(256))


def _letter_format(rank: int) -> tuple[int, str]:
    """Bytes per packed letter and its struct code: the narrowest machine integer holding +-rank."""
    for code in "bhiq":
        width = struct.calcsize(code)
        if rank < 1 << (8 * width - 1):
            return width, code
    raise ValueError(f"rank {rank} is too large to pack")


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
    """Bytes of the tail of packed word a that the head of b cancels, from their XOR's low bit."""
    n, width = min(len(a), len(b)), group.width
    if not n or a[-width:] != _packed_inverse(b[:width], group):
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
    inverse image read as one big-endian integer.

    Applying it appends the images to a ``bytearray``.  The output so far
    and each image are reduced, so letters cancel only at the seam, by
    the rule of ``_cancelled`` with the inverse image read as an integer
    once, here: the output's tail XOR the inverse image has its lowest
    set bit past the equal trailing letters.  Where the output is shorter
    than the image its missing letters read as 0, which no letter is, so
    the count stops at the output's length.
    """

    __slots__ = ("group", "packed", "ends", "inverses")

    def __init__(self, group: "FreeGroup", images: Iterable["Word"]):
        width, size = group.width, 2 * group.rank + 1
        packed: list = [b""] * size
        ends: list = [bytes(width)] * size
        inverses: list = [0] * size
        for c, im in enumerate(images, start=1):
            image = im.packed
            if image:
                inverse = _packed_inverse(image, group)
                packed[c], packed[-c] = image, inverse
                ends[c], ends[-c] = inverse[-width:], image[-width:]
                inverses[c] = int.from_bytes(inverse, "big")
                inverses[-c] = int.from_bytes(image, "big")
        self.group, self.packed, self.ends, self.inverses = group, packed, ends, inverses

    def __call__(self, letters: memoryview) -> "Word":
        """The reduced product of the images of ``letters``, signed codes of this group."""
        packed, ends, inverses, width = self.packed, self.ends, self.inverses, self.group.width
        bits = 8 * width
        out = bytearray()
        for c in letters:
            img = packed[c]
            if out.endswith(ends[c]):
                x = int.from_bytes(out[-len(img):], "big") ^ inverses[c]
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


# a two-character token's kind goes to the high nibble of its index byte and
# its digit to the low one, so ORing two translates gives the index; any
# other character translates to 0
_KIND_NIBBLES = {"A": 0x10, "B": 0x20, "a": 0x30, "b": 0x40}
_KIND_BITS = _byte_table((ord(kind), bits) for kind, bits in _KIND_NIBBLES.items())
_DIGIT_BITS = _byte_table(zip(b"123456789", range(1, 10)))
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


class _Alphabet:
    """One genus's ``codes`` by token (``"1"`` is 0), ``tokens`` by code, generators and zeta.

    The tables hold only the keys asked for, at most 4g + 1 each, and the
    words are built on first use, so a large genus costs nothing unasked.
    """

    def __init__(self, group: "FreeGroup"):
        self.group = group
        self.codes = _Table(self._code, {"1": 0})
        self.tokens = _Table(self._token)

    def _code(self, token: str) -> int:
        m = _TOKEN_RE.match(token)
        if m is None:
            raise ValueError(f"malformed generator token {token!r}")
        name, index = m.groups()
        return self.group.letter_code(name.upper(), int(index), 1 if name.isupper() else -1)

    def _token(self, code: int) -> str:
        g = self.group.genus
        if not isinstance(code, int) or not 1 <= abs(code) <= 2 * g:
            raise ValueError(f"letter code {code} out of range for genus {g}")
        kind, index = ("A", abs(code)) if abs(code) <= g else ("B", abs(code) - g)
        return f"{kind if code > 0 else kind.lower()}{index}"

    @cached_property
    def letter_bytes(self) -> bytes:
        """Translate table from a token's index byte to its letter code as a signed byte.

        Filled for the valid two-character tokens (genus <= 9 has no
        other); every other index, a malformed token among them, maps to 0.
        """
        code = self.group.letter_code
        return _byte_table(
            (bits | i, code(kind.upper(), i, 1 if kind.isupper() else -1) & 0xFF)
            for kind, bits in _KIND_NIBBLES.items()
            for i in range(1, min(self.group.genus, _SHORT_GENUS) + 1)
        )

    @cached_property
    def generators(self) -> tuple["Word", ...]:
        return tuple(Word(self.group, (code,)) for code in range(1, self.group.rank + 1))

    @cached_property
    def zeta(self) -> "Word":
        g = self.group.genus
        return Word(self.group, [c for k in range(1, g + 1) for c in (k, g + k, -k, -g - k)])


# one alphabet per genus, shared by the equal FreeGroup objects built while it is cached
_alphabet = lru_cache(maxsize=16)(_Alphabet)


def _canonical_codes(text: str, table: bytes) -> Optional[bytes]:
    """The letters of canonical text as signed bytes, or None for any other text.

    Canonical text is what ``str(Word)`` writes at genus <= 9: tokens of
    two ASCII characters joined by single spaces.  The kind characters
    and the digit characters each go through one translate, their bytes
    are ORed as big integers into one index byte per letter, and
    ``table`` maps the index bytes to letter codes.  A token the table
    does not know gives a 0 byte, and then None.
    """
    n = (len(text) + 1) // 3
    if len(text) != 3 * n - 1 or not text.isascii():
        return None
    raw = text.encode("ascii")
    if raw[2::3] != b" " * (n - 1):
        return None
    kinds = int.from_bytes(raw[0::3].translate(_KIND_BITS), "little")
    digits = int.from_bytes(raw[1::3].translate(_DIGIT_BITS), "little")
    codes = (kinds | digits).to_bytes(n, "little").translate(table)
    return None if 0 in codes else codes


def _has_cancelling_pair(codes: bytes) -> bool:
    """Whether two neighbours of a word of signed one-byte letters cancel.

    Letter i+1 cancels letter i exactly when it equals its negation, so
    when ``codes[1:]`` XOR the negated ``codes[:-1]`` has a zero byte.
    Read as one integer x, that holds exactly when
    ``(x - 0x0101...) & ~x & 0x8080...`` is nonzero.
    """
    m = len(codes) - 1
    if m <= 0:
        return False
    x = int.from_bytes(codes[1:], "little") ^ int.from_bytes(codes[:-1].translate(_NEG), "little")
    ones = int.from_bytes(b"\x01" * m, "little")
    return bool((x - ones) & ~x & (ones << 7))


class FreeGroup:
    """Ambient context: the free group of rank 2g, g >= 2.

    Instances compare equal by genus, so words built from two separate
    ``FreeGroup(3)`` objects interoperate; they share one ``alphabet``.
    """

    __slots__ = ("genus", "alphabet", "width", "code")

    def __init__(self, genus: int):
        if not isinstance(genus, int) or genus < 2:
            raise ValueError(f"genus must be an integer >= 2, got {genus!r}")
        self.genus = genus
        self.width, self.code = _letter_format(2 * genus)  # of a packed letter
        self.alphabet = _alphabet(self)

    @property
    def rank(self) -> int:
        return 2 * self.genus

    def __eq__(self, other: object) -> bool:
        return isinstance(other, FreeGroup) and other.genus == self.genus

    def __hash__(self) -> int:
        return hash(("FreeGroup", self.genus))

    def __repr__(self) -> str:
        return f"FreeGroup({self.genus})"

    def __reduce__(self):  # by genus: the alphabet is a per-process cache
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

    # -- word constructors ------------------------------------------------

    def identity(self) -> "Word":
        return Word(self, ())

    def from_letters(self, letters: Iterable[int]) -> "Word":
        """Build a word from signed letter codes; validates and reduces."""
        return Word(self, letters)

    def generator(self, kind: str, index: int) -> "Word":
        return Word(self, (self.letter_code(kind, index),))

    def a(self, index: int) -> "Word":
        return self.generator("A", index)

    def b(self, index: int) -> "Word":
        return self.generator("B", index)

    def generators(self) -> tuple["Word", ...]:
        """All 2g generators, A_1..A_g then B_1..B_g; built once per genus."""
        return self.alphabet.generators

    def word(self, text: str) -> "Word":
        """Parse word text.

        Canonical text, the form ``str(Word)`` writes at genus <= 9, is
        decoded whole at C speed (``_canonical_codes``); only a word with
        a cancelling pair then takes a stack pass.  Any other text is
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
        codes = None
        if self.genus <= _SHORT_GENUS:
            codes = _canonical_codes(text, self.alphabet.letter_bytes)
        if codes is None:
            return Word(self, filter(None, map(self.alphabet.codes.__getitem__, text.split())))
        if _has_cancelling_pair(codes):
            return Word(self, memoryview(codes).cast("b"))
        return Word._from_reduced(self, codes)

    def zeta(self) -> "Word":
        """The boundary word [A_1, B_1] ... [A_g, B_g], 4g letters; built once per genus."""
        return self.alphabet.zeta


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
        self._require_same_group(other)
        a, b, group = self.packed, other.packed, self.group
        # only the seam can cancel, both factors being reduced
        j = _cancelled(a, b, group)
        return Word._from_reduced(group, a[:len(a) - j] + b[j:])

    def inverse(self) -> "Word":
        return Word._from_reduced(self.group, _packed_inverse(self.packed, self.group))

    def __invert__(self) -> "Word":
        return self.inverse()

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
        return " ".join(map(self.group.alphabet.tokens.__getitem__, self.view)) or "1"

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


def random_word(group: FreeGroup, length: int, rng) -> Word:
    """A pseudorandom reduced word of exactly the given length.

    Successive letters avoid immediate cancellation, so the requested
    length is the reduced length.  Deterministic for a given rng state.
    """
    letters: list[int] = []
    for _ in range(length):
        while True:
            c = rng.randint(1, group.rank)
            if rng.random() < 0.5:
                c = -c
            if not letters or letters[-1] != -c:
                letters.append(c)
                break
    return Word(group, letters)


if __name__ == "__main__":
    import doctest

    doctest.testmod()
