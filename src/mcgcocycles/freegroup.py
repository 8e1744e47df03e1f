"""Words in the free group on the standard surface generators.

A closed oriented surface of genus ``g`` with one marked point has
fundamental group free of rank ``2g``, with generators
``A_1, ..., A_g, B_1, ..., B_g`` and distinguished boundary word

    zeta = [A_1, B_1] [A_2, B_2] ... [A_g, B_g],

where ``[x, y] = x y x^-1 y^-1``.  Everything downstream of this module
(homology, automorphisms, cocycles) works with freely reduced words in
these generators, so this module owns the word representation.

Letters are encoded as nonzero integers: ``+i`` with ``1 <= i <= g`` is
``A_i``, ``+(g+i)`` is ``B_i``, and negation is inversion.  A ``Word``
stores a freely reduced tuple of letters together with its ambient
``FreeGroup``; all constructors reduce, so reduction is an invariant,
never a caller obligation.

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
from functools import cached_property, lru_cache
from operator import add
from typing import Iterable, Iterator, Optional


_TOKEN_RE = re.compile(r"([ABab])([1-9][0-9]*)\Z")

# the negation of a one-byte letter
_NEG = bytes(-b & 0xFF for b in range(256))


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


def _reduce(letters: Iterable[int]) -> tuple[int, ...]:
    """Freely reduce a letter sequence.

    A sequence in which no two neighbours sum to 0 is already reduced,
    and that test runs at C speed, so reduced input skips the stack pass.
    """
    codes = tuple(letters)
    if 0 not in map(add, codes, codes[1:]):
        return codes
    return _stack_reduce(codes)


def _stack_reduce(codes: tuple[int, ...]) -> tuple[int, ...]:
    """Freely reduce a letter sequence with a single stack pass."""
    out: list[int] = []
    for c in codes:
        if out and out[-1] == -c:
            out.pop()
        else:
            out.append(c)
    return tuple(out)


class FreeGroup:
    """Ambient context: the free group of rank 2g, g >= 2.

    Instances compare equal by genus, so words built from two separate
    ``FreeGroup(3)`` objects interoperate; they share one ``alphabet``.
    """

    __slots__ = ("genus", "alphabet")

    def __init__(self, genus: int):
        if not isinstance(genus, int) or genus < 2:
            raise ValueError(f"genus must be an integer >= 2, got {genus!r}")
        self.genus = genus
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
        """Build a word from signed letter codes; reduces."""
        codes = tuple(letters)
        for c in codes:
            self.alphabet.tokens[c]  # raises for 0 and out-of-range codes
        return Word(self, codes)

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
        letters = struct.unpack(f"{len(codes)}b", codes)
        if _has_cancelling_pair(codes):
            letters = _stack_reduce(letters)
        return Word._from_reduced(self, letters)

    def zeta(self) -> "Word":
        """The boundary word [A_1, B_1] ... [A_g, B_g], 4g letters; built once per genus."""
        return self.alphabet.zeta


class Word:
    """A freely reduced word, immutable and hashable."""

    __slots__ = ("group", "letters")

    def __init__(self, group: FreeGroup, letters: Iterable[int] = ()):
        object.__setattr__(self, "group", group)
        object.__setattr__(self, "letters", _reduce(letters))

    @classmethod
    def _from_reduced(cls, group: FreeGroup, letters: tuple[int, ...]) -> "Word":
        """Internal fast path; caller guarantees letters are reduced."""
        w = object.__new__(cls)
        object.__setattr__(w, "group", group)
        object.__setattr__(w, "letters", letters)
        return w

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("Word is immutable")

    def __reduce__(self):  # else pickle and copy set slots through __setattr__
        return Word, (self.group, self.letters)

    def _require_same_group(self, other: "Word") -> None:
        if self.group != other.group:
            raise ValueError(
                f"genus mismatch: {self.group!r} vs {other.group!r}"
            )

    def __mul__(self, other: "Word") -> "Word":
        if not isinstance(other, Word):
            return NotImplemented
        self._require_same_group(other)
        a, b = self.letters, other.letters
        i, j = len(a), 0
        # only the seam can cancel, both factors being reduced
        while i > 0 and j < len(b) and a[i - 1] == -b[j]:
            i -= 1
            j += 1
        return Word._from_reduced(self.group, a[:i] + b[j:])

    def inverse(self) -> "Word":
        return Word._from_reduced(
            self.group, tuple(-c for c in reversed(self.letters))
        )

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
            self.group, prefix.letters + core.letters * n + prefix.inverse().letters
        )

    def conjugated_by(self, u: "Word") -> "Word":
        """u * self * u^-1."""
        return u * self * u.inverse()

    def is_identity(self) -> bool:
        return not self.letters

    def __len__(self) -> int:
        return len(self.letters)

    def __iter__(self) -> Iterator[int]:
        return iter(self.letters)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Word)
            and other.group == self.group
            and other.letters == self.letters
        )

    def __hash__(self) -> int:
        return hash((self.group, self.letters))

    def __str__(self) -> str:
        return " ".join(map(self.group.alphabet.tokens.__getitem__, self.letters)) or "1"

    def __repr__(self) -> str:
        return f"<Word {self} in {self.group!r}>"

    def cyclic_reduce(self) -> tuple["Word", "Word"]:
        """Split off the conjugating prefix.

        Returns (core, prefix) with self == prefix * core * prefix^-1 and
        core cyclically reduced (its first letter is not the inverse of
        its last).

        >>> F = FreeGroup(2)
        >>> core, prefix = F.word("B1 A2 b1").cyclic_reduce()
        >>> str(core), str(prefix)
        ('A2', 'B1')
        """
        letters = self.letters
        i, j = 0, len(letters)
        while j - i >= 2 and letters[i] == -letters[j - 1]:
            i += 1
            j -= 1
        core = Word._from_reduced(self.group, letters[i:j])
        prefix = Word._from_reduced(self.group, letters[:i])
        return core, prefix


def commutator(x: Word, y: Word) -> Word:
    """[x, y] = x y x^-1 y^-1."""
    x._require_same_group(y)
    return x * y * x.inverse() * y.inverse()


def conjugator(w1: Word, w2: Word) -> Optional[Word]:
    """A witness u with w1 == u * w2 * u^-1, or None if not conjugate.

    Two reduced words are conjugate exactly when their cyclically reduced
    cores are rotations of one another.  Writing w1 = p1 c1 p1^-1,
    w2 = p2 c2 p2^-1 and c1 = x^-1 c2 x for a prefix x of c2 gives
    u = p1 x^-1 p2^-1.

    >>> F = FreeGroup(2)
    >>> str(conjugator(F.word("B1") * F.zeta() * F.word("b1"), F.zeta()))
    'B1'
    >>> conjugator(F.word("A1"), F.word("B1")) is None
    True
    """
    w1._require_same_group(w2)
    c1, p1 = w1.cyclic_reduce()
    c2, p2 = w2.cyclic_reduce()
    n = len(c1)
    if n != len(c2):
        return None
    if n == 0:
        return w1.group.identity()
    t1, t2 = c1.letters, c2.letters
    for r in range(n):
        if t2[r:] + t2[:r] == t1:
            x = Word._from_reduced(w1.group, t2[:r])
            return p1 * x.inverse() * p2.inverse()
    return None


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
    return Word._from_reduced(group, tuple(letters))


if __name__ == "__main__":
    import doctest

    doctest.testmod()
