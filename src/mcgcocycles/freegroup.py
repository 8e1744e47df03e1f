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
the empty word.

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
from functools import lru_cache
from operator import add
from typing import Iterable, Iterator, Optional


_TOKEN_RE = re.compile(r"([ABab])([1-9][0-9]*)\Z")

# the parser builds no token table (4g + 1 entries) above this genus, so
# a huge genus costs no memory before the first token fails
_TABLE_MAX_GENUS = 256


@lru_cache(maxsize=16)
def _token_table(genus: int) -> dict[str, int]:
    """Signed letter code of every well-formed token; ``"1"`` maps to 0."""
    table = {"1": 0}
    for i in range(1, genus + 1):
        for name, code in (("A", i), ("B", genus + i)):
            table[f"{name}{i}"] = code
            table[f"{name.lower()}{i}"] = -code
    return table


def _reduce(letters: Iterable[int]) -> tuple[int, ...]:
    """Freely reduce a letter sequence with a single stack pass.

    A sequence in which no two neighbours sum to 0 is already reduced,
    and that test runs at C speed, so reduced input skips the pass.
    """
    codes = tuple(letters)
    if 0 not in map(add, codes, codes[1:]):
        return codes
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
    ``FreeGroup(3)`` objects interoperate.
    """

    __slots__ = ("genus",)

    def __init__(self, genus: int):
        if not isinstance(genus, int) or genus < 2:
            raise ValueError(f"genus must be an integer >= 2, got {genus!r}")
        self.genus = genus

    @property
    def rank(self) -> int:
        return 2 * self.genus

    def __eq__(self, other: object) -> bool:
        return isinstance(other, FreeGroup) and other.genus == self.genus

    def __hash__(self) -> int:
        return hash(("FreeGroup", self.genus))

    def __repr__(self) -> str:
        return f"FreeGroup({self.genus})"

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

    def decode_letter(self, code: int) -> tuple[str, int, int]:
        """Inverse of letter_code: (kind 'A' or 'B', index in 1..g, sign +-1)."""
        mag = abs(code)
        if not 1 <= mag <= self.rank:
            raise ValueError(f"letter code {code} out of range for genus {self.genus}")
        sign = 1 if code > 0 else -1
        if mag <= self.genus:
            return ("A", mag, sign)
        return ("B", mag - self.genus, sign)

    def _letter_token(self, code: int) -> str:
        kind, index, sign = self.decode_letter(code)
        name = kind if sign > 0 else kind.lower()
        return f"{name}{index}"

    # -- word constructors ------------------------------------------------

    def identity(self) -> "Word":
        return Word(self, ())

    def from_letters(self, letters: Iterable[int]) -> "Word":
        """Build a word from signed letter codes; reduces."""
        codes = tuple(letters)
        for c in codes:
            self.decode_letter(c)  # bounds check
        return Word(self, codes)

    def generator(self, kind: str, index: int) -> "Word":
        return Word(self, (self.letter_code(kind, index),))

    def a(self, index: int) -> "Word":
        return self.generator("A", index)

    def b(self, index: int) -> "Word":
        return self.generator("B", index)

    def generators(self) -> tuple["Word", ...]:
        """All 2g generators, A_1..A_g then B_1..B_g."""
        return tuple(Word(self, (code,)) for code in range(1, self.rank + 1))

    def word(self, text: str) -> "Word":
        """Parse word text.

        Well-formed tokens are looked up in a per-genus table; any other
        token sends the whole text through the token grammar, which names
        the first bad token.

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
        if self.genus <= _TABLE_MAX_GENUS:
            table = _token_table(self.genus)
            try:
                codes = tuple(filter(None, map(table.__getitem__, text.split())))
            except KeyError:
                pass
            else:
                return Word(self, codes)
        return self._parse_tokens(text)

    def _parse_tokens(self, text: str) -> "Word":
        """Token by token through the grammar and letter_code; exact errors."""
        codes: list[int] = []
        for token in text.split():
            if token == "1":
                continue
            m = _TOKEN_RE.match(token)
            if m is None:
                raise ValueError(f"malformed generator token {token!r}")
            name, index = m.group(1), int(m.group(2))
            sign = 1 if name.isupper() else -1
            codes.append(self.letter_code(name.upper(), index, sign))
        return Word(self, codes)

    def zeta(self) -> "Word":
        """The boundary word, a product of g commutators; 4g letters long."""
        w = self.identity()
        for k in range(1, self.genus + 1):
            w = w * commutator(self.a(k), self.b(k))
        return w


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
        if not isinstance(n, int):
            return NotImplemented
        base = self if n >= 0 else self.inverse()
        out = self.group.identity()
        for _ in range(abs(n)):
            out = out * base
        return out

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
        if not self.letters:
            return "1"
        return " ".join(self.group._letter_token(c) for c in self.letters)

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
