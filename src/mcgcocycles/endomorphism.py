"""Endomorphisms and automorphisms of the surface group.

An endomorphism is determined by the images of the 2g generators and
acts on a word by substituting them for its letters, in one pass of
``freegroup.Substitution``; a conjugation by x, a class of its own,
skips that pass and returns x w x^-1.  The mapping class group of the
once-punctured genus-g surface is the group of automorphisms fixing the
boundary word zeta exactly; allowing zeta to move within its conjugacy
class gives the larger group N whose quotient by inner automorphisms is
the mapping class group of the surface with a marked point.  The cocycle
modules read the membership record of an element of N (a conjugating
witness, rho and f_tilde), so membership testing and the record live
here.

Composition convention: a product of mapping classes acts with the right
factor first, and ``compose(outer, inner)`` realizes exactly that, i.e.
``compose(f, g)(x) == f(g(x))``.

An automorphism's inverse is built when first read, by one route per
kind: a composite from its factors' inverses, once per distinct
composite (``Auto.backward``); a conjugation by x, the one by x^-1.
"""

from __future__ import annotations

import json
import random
import reprlib
from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import islice
from typing import Iterable, Optional

from .freegroup import (FreeGroup, Substitution, Word, commutator, conjugated_generators,
                        conjugator, d_and_class, random_word)
from .homology import Matrix, Vector, abelianize, dual, mat_vec, symplectic_inverse

__all__ = ["Auto", "Endo", "MembershipError", "NWitness", "compose", "from_mapping", "in_M_g1",
           "in_N", "inner", "jablow", "load_automorphism", "random_element",
           "require_membership", "save_automorphism", "to_mapping", "twist_catalog",
           "zeta_power_exponent"]


class MembershipError(ValueError):
    """Raised when an endomorphism does not conjugate zeta to itself.

    Carries the cyclically reduced image of zeta for diagnostics.
    """

    def __init__(self, message: str, core: Word):
        super().__init__(message)
        self.core = core


class Endo:
    """A free-group endomorphism given by generator images.

    ``images`` lists the images of A_1..A_g, B_1..B_g in that order.
    Instances are immutable in spirit; the only mutations are internal
    caches of the membership record (see ``require_membership``) and of the
    substitution kernel, which are derived data.

    Applied to a word other than a single generator, it runs
    ``freegroup.Substitution``, built from the images on the first such
    call and kept: it holds every image and inverse image as packed bytes
    and cancels at each seam at C speed.  A conjugation is its own class
    (see ``inner``) and applies by two products instead.
    """

    __slots__ = ("group", "images", "_member", "_table")

    def __init__(self, group: FreeGroup, images: Iterable[Word]):
        imgs = tuple(images)
        if len(imgs) != group.rank:
            raise ValueError(
                f"expected {group.rank} generator images, got {len(imgs)}"
            )
        for im in imgs:
            if not isinstance(im, Word) or im.group is not group and im.group != group:
                raise ValueError("generator images must be words of the same genus")
        self.group = group
        self.images = imgs
        self._member: Optional[NWitness] = None  # built by require_membership
        self._table: Optional[Substitution] = None  # built by the first call

    def __call__(self, w: Word) -> Word:
        """Apply to a word: a single generator by lookup, any other word by ``_apply``."""
        if w.group is not self.group and w.group != self.group:
            raise ValueError(f"genus mismatch: {w.group!r} vs {self.group!r}")
        letters = w.view
        if len(letters) == 1 and letters[0] > 0:
            return self.images[letters[0] - 1]
        return self._apply(w)

    def _apply(self, w: Word) -> Word:
        """Any other word, by the substitution kernel built on the first such call."""
        table = self._table
        if table is None:
            table = self._table = Substitution(self.group, self.images)
        return table(w.view)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Endo)
            and other.group == self.group
            and other.images == self.images
        )

    def __hash__(self) -> int:
        return hash((self.group, self.images))

    def __repr__(self) -> str:
        kind = type(self).__name__
        return f"<{kind} genus {self.group.genus}>"


class Auto(Endo):
    """An endomorphism certified invertible by an explicit inverse.

    Construction applies the inverse to the images and requires every
    generator to come back to itself.  That one composition is enough:
    psi(phi(x_k)) = x_k for every generator makes psi surjective, a free
    group of finite rank is Hopfian (Nielsen; Lyndon-Schupp, ch. I), so
    psi is an automorphism and phi = psi^-1; construction never applies
    the forward map.  ``backward``, the inverse as an Endo, is built on
    its first read for composites and conjugations (see ``_trusted``)
    and then kept; a conjugation's is again a conjugation, and is its
    ``inverse()``; any other ``inverse()`` is an Auto whose inverse is self.
    """

    __slots__ = ("_backward",)

    def __init__(self, group: FreeGroup, images: Iterable[Word], inverse_images: Iterable[Word]):
        super().__init__(group, images)
        backward = Endo(group, inverse_images)
        for gen, im in zip(group.generators(), self.images):
            if backward(im) != gen:
                raise ValueError(f"images and inverse images are not mutually inverse at {gen}")
        self._backward = backward

    @classmethod
    def _trusted(cls, group: FreeGroup, images: tuple[Word, ...],
                 backward: "Endo | tuple[Auto, Auto] | None") -> "Auto":
        """Skip the inverse check; caller has a proof.

        Used for algebraically guaranteed constructions, where
        re-verification only repeats associativity: conjugations,
        composites of certified automorphisms, and the closed forms of
        ``jablow`` and ``twist_catalog``.  Those two are certified by
        ``tests/test_endomorphism.py`` and by the ``verify`` suites that
        their docstrings name, not at construction.  ``backward`` is the
        inverse; or, for a composite, its two factors (outer, inner), kept
        until the first read of ``backward`` builds the inverse from theirs
        in one pass; or None for a conjugation, whose own ``backward`` builds it.
        """
        obj = object.__new__(cls)
        Endo.__init__(obj, group, images)
        obj._backward = backward
        return obj

    @property
    def backward(self) -> Endo:
        """The inverse automorphism, as an Endo.

        A composite builds it on the first read, by (outer inner)^-1 =
        inner^-1 outer^-1: a post-order stack walk of the factor tree
        inverts each distinct pending composite once, by rank applications
        of inner^-1 to the images of outer^-1, and drops its factors.  The
        trade: an unread composite keeps its factors alive, and the
        composites of a read tree keep their own inverse while they live.
        """
        stack = [self]
        while isinstance(self._backward, tuple):
            node = stack.pop()
            if isinstance(node._backward, tuple):  # else built under a composite sharing it
                outer, inner = node._backward
                pending = [f for f in (outer, inner) if isinstance(f._backward, tuple)]
                if pending:
                    stack += [node, *pending]
                else:
                    images = tuple(map(inner.backward, outer.backward.images))
                    node._backward = Endo(node.group, images)
        return self._backward

    def inverse(self) -> "Auto":
        """The inverse as an Auto: ``backward`` if it is one, else an Auto whose inverse is self."""
        back = self.backward
        return back if isinstance(back, Auto) else Auto._trusted(self.group, back.images, self)


class _Conjugation(Auto):
    """The conjugation g -> x g x^-1, with ``xi`` = x^-1.

    A word other than a single generator applies as the two products
    x w x^-1, without the substitution kernel; the images are sliced from
    x and ``xi`` (``freegroup.conjugated_generators``).  Built by ``by`` only,
    through ``_trusted``, so nothing is certified.  Its inverse, the
    conjugation by x^-1, is built from ``xi`` on the first read of
    ``backward``, and ``inverse()`` returns that same object.
    """

    __slots__ = ("x", "xi")

    @classmethod
    def by(cls, x: Word, xi: Word) -> "_Conjugation":
        obj = cls._trusted(x.group, conjugated_generators(x, xi), None)
        obj.x, obj.xi = x, xi
        return obj

    def _apply(self, w: Word) -> Word:
        return self.x * w * self.xi

    @property
    def backward(self) -> "_Conjugation":
        back = self._backward
        if back is None:
            back = self._backward = _Conjugation.by(self.xi, self.x)
        return back


def compose(outer: Endo, inner: Endo) -> Endo:
    """The endomorphism x -> outer(inner(x)).

    Returns an Auto when both factors are certified.  It keeps the pair
    (outer, inner) until its ``backward`` is first read, which builds
    the inverse in rank applications, inner^-1 to the images of outer^-1,
    and drops the pair.  The composite of the conjugations by x and by y
    is the conjugation by x y, built without applying either.  After a
    conjugation by x, outer applies to x only; after the identity, it is ``inner``.
    """
    if outer.group != inner.group:
        raise ValueError("genus mismatch in composition")
    if isinstance(outer, _Conjugation):
        if not len(outer.x):
            return inner
        if isinstance(inner, _Conjugation):
            return _Conjugation.by(outer.x * inner.x, inner.xi * outer.xi)
    group = outer.group
    if isinstance(inner, _Conjugation):
        # outer(x gen x^-1) = X outer(gen) X^-1, with X = outer(x) applied once
        x = outer(inner.x)
        xi = x.inverse()
        images = tuple(x * im * xi for im in outer.images)
    else:
        images = tuple(outer(im) for im in inner.images)
    if isinstance(outer, Auto) and isinstance(inner, Auto):
        return Auto._trusted(group, images, (outer, inner))
    return Endo(group, images)


def inner(x: Word) -> Auto:
    """Conjugation g -> x g x^-1: images sliced, applied as two products, inverse built on read."""
    return _Conjugation.by(x, x.inverse())


@lru_cache(maxsize=16)  # genera kept, as for the groups
def jablow(group: FreeGroup) -> Auto:
    """The hyperelliptic-type involution on the surface group.

    With P_k = B_g ... B_k and E_k = [P_k A_k, B_k] B_k it sends

        A_k -> E_k E_(k+1) ... E_g  A_k^-1  B_k^-1 B_(k+1)^-1 ... B_g^-1
        B_k -> [P_k A_k, B_k^-1] B_k^-1

    It is an involution, acts as -1 on homology, and conjugates zeta by
    B_g ... B_1.  One pass k = g..1 carries P_k, the suffix E_k ... E_g
    and the tail B_k^-1 ... B_g^-1, so each factor is built once and
    the cost is linear in the letters produced.  It is built trusted, as
    its own inverse, and nothing is checked here:
    ``tests/test_endomorphism.py`` certifies it (the Auto inverse check,
    ``in_N``, a symplectic rho) and compares it with the formula written
    out letter by letter, and ``verify paper-vectors`` checks at any
    genus asked for that it squares to the identity and negates homology.
    """
    prefix = suffix = tail = group.identity()
    images_a, images_b = [], []
    for k in range(group.genus, 0, -1):
        a, b = group.a(k), group.b(k)
        bi = b.inverse()
        prefix = prefix * b
        x = prefix * a
        suffix = commutator(x, b) * b * suffix
        tail = bi * tail
        images_a.append(suffix * a.inverse() * tail)
        images_b.append(commutator(x, bi) * bi)
    images = tuple(images_a[::-1] + images_b[::-1])
    return Auto._trusted(group, images, Endo(group, images))


@dataclass(frozen=True)
class NWitness:
    """The membership record of phi in N: the values its cocycles share.

    ``conjugator`` is a u with phi(zeta) = u zeta u^-1; ``rho`` and
    ``f_tilde`` (see morita.f_tilde) come from one walk per generator
    image; ``rho_inv`` and ``f`` are computed on first use.  The
    constructor checks nothing: ``require_membership`` checks u, builds
    the record and caches it on phi.  It holds no reference back to phi,
    so the two form no cycle.
    """

    conjugator: Word
    rho: Matrix
    f_tilde: Vector

    @cached_property
    def rho_inv(self) -> Matrix:
        """rho(phi)^-1, by the checked symplectic closed form."""
        return symplectic_inverse(self.rho)

    @cached_property
    def f(self) -> Vector:
        """Morita's cocycle f_tilde - 2g rho^-1 [u], u the ``conjugator`` (morita.morita_f)."""
        correction = mat_vec(self.rho_inv, abelianize(self.conjugator))
        rank = len(self.rho)
        return tuple(b - rank * c for b, c in zip(self.f_tilde, correction))


def in_M_g1(phi: Endo) -> bool:
    """Whether phi fixes the boundary word exactly."""
    zeta = phi.group.zeta()
    return phi(zeta) == zeta


# a non-member's error shows this many letters of the image of zeta at most
_SHOWN_LETTERS = 40


def require_membership(phi: Endo) -> NWitness:
    """The record of phi, raising MembershipError for non-members.

    phi is applied to zeta once per call until a record is built; the
    record is then cached on the endomorphism.  The witness u found for
    phi(zeta) is checked against u zeta u^-1 before the record is built;
    a non-member's error shows the cyclically reduced image of zeta.
    """
    witness = phi._member
    if witness is None:
        zeta = phi.group.zeta()
        image = phi(zeta)
        u = conjugator(image, zeta)
        if u is None:
            core, _ = image.cyclic_reduce()
            head = phi.group.from_letters(islice(core, _SHOWN_LETTERS))
            more = " ..." if len(core) > _SHOWN_LETTERS else ""
            raise MembershipError(
                "endomorphism does not conjugate the boundary word; cyclically reduced "
                f"image of zeta ({len(core)} letters): {head}{more}",
                core,
            )
        if image != zeta.conjugated_by(u):
            raise ValueError("witness does not conjugate zeta to its image")
        turning, columns = zip(*map(d_and_class, phi.images))
        witness = phi._member = NWitness(u, tuple(zip(*columns)), dual(turning))
    return witness


def in_N(phi: Endo) -> Optional[NWitness]:
    """Membership test for N: does phi send zeta into its conjugacy class?

    Returns the element's record (``require_membership``) on success,
    None otherwise.

    >>> member = in_N(jablow(FreeGroup(3)))
    >>> str(member.conjugator), member.f_tilde
    ('B3 B2 B1', (-2, -2, -2, -8, -6, -4))
    """
    try:
        return require_membership(phi)
    except MembershipError:
        return None


def zeta_power_exponent(w: Word) -> Optional[int]:
    """m with w == zeta^m, or None.  Witnesses for one element differ by such powers."""
    period = 4 * w.group.genus
    n, r = divmod(len(w), period)
    if r != 0:
        return None
    for m in (n, -n):
        if w == w.group.zeta() ** m:
            return m
    return None


@lru_cache(maxsize=16)
def twist_catalog(group: FreeGroup) -> tuple[Auto, ...]:
    """2g boundary-fixing automorphisms used as random building blocks.

    Entry k-1 sends A_k to A_k B_k, entry g+k-1 sends B_k to B_k A_k;
    both rewrite a single commutator factor of zeta to itself, and the
    inverse sends the same generator to A_k B_k^-1, resp. B_k A_k^-1.
    The entries are built trusted from these closed forms, and nothing is
    checked here: ``tests/test_endomorphism.py`` certifies each one (the
    Auto inverse check, ``in_M_g1``, a symplectic rho other than I), and
    ``verify cocycle-n`` checks at any genus asked for that every entry
    fixes the boundary word.  No claim is made that
    these generate anything, they only provide cheap variety for
    randomized identities.
    """
    g = group.genus
    gens = group.generators()
    entries: list[Auto] = []
    for idx, x in enumerate(gens):
        partner = gens[(idx + g) % (2 * g)]
        images, inverse_images = list(gens), list(gens)
        images[idx], inverse_images[idx] = x * partner, x * partner.inverse()
        entries.append(Auto._trusted(group, tuple(images), Endo(group, inverse_images)))
    return tuple(entries)


def named_element(group: FreeGroup, name: str) -> Auto:
    """Named elements: identity, iota, inner:<word>, twist:<k>:<A|B>.

    The one table of names, read by the CLI's builtins; a bad name raises ValueError.
    """
    if name == "identity":
        return inner(group.identity())
    if name == "iota":
        return jablow(group)
    if name.startswith("inner:"):
        return inner(group.word(name[len("inner:"):]))
    if name.startswith("twist:"):
        parts = name.split(":")
        if len(parts) != 3:
            raise ValueError(f"twist form is twist:<k>:<A|B>, got {reprlib.repr(name)}")
        try:
            k = int(parts[1])
        except ValueError:
            raise ValueError(f"twist index must be an integer, got {reprlib.repr(parts[1])}")
        variant = parts[2].upper()
        if variant not in ("A", "B") or not 1 <= k <= group.genus:
            raise ValueError(f"no twist {reprlib.repr(name)} at genus {group.genus}")
        catalog = twist_catalog(group)
        return catalog[k - 1] if variant == "A" else catalog[group.genus + k - 1]
    raise ValueError(f"unknown builtin {reprlib.repr(name)}")


def random_element(group: FreeGroup, word_budget: int = 4, seed: int = 0) -> Auto:
    """A deterministic pseudorandom element of N.

    Composes up to ``word_budget`` factors drawn from the twist catalog,
    inner automorphisms of short random words, and the involution.  Every
    factor lies in N, hence so does the product.  Image growth is capped
    so repeated calls stay cheap.
    """
    rng = random.Random(seed)
    catalog = twist_catalog(group)
    result = inner(group.identity())
    for _ in range(word_budget):
        if max(len(im) for im in result.images) > 1500:
            break
        roll = rng.random()
        if roll < 0.6:
            factor = catalog[rng.randrange(len(catalog))]
            if rng.random() < 0.5:
                factor = factor.inverse()
        elif roll < 0.9:
            factor = inner(random_word(group, rng.randint(1, 4), rng))
        else:
            factor = jablow(group)
        result = compose(result, factor)
    return result


# -- structured text representation ----------------------------------------


def to_mapping(phi: Endo) -> dict:
    """Plain-data form: genus, images, and inverse images when certified."""
    group = phi.group
    keys = group.tokens
    doc: dict = {
        "genus": group.genus,
        "images": {keys[k]: str(im) for k, im in enumerate(phi.images, 1)},
    }
    if isinstance(phi, Auto):
        doc["inverse_images"] = {keys[k]: str(im) for k, im in enumerate(phi.backward.images, 1)}
    return doc


# a key-mismatch error names at most this many keys of each kind, so its
# length does not grow with the genus
_SHOWN_KEYS = 8


def _some_keys(keys: Iterable, total: int) -> str:
    shown = list(islice(keys, _SHOWN_KEYS))
    more = f" and {total - len(shown)} more" if total > len(shown) else ""
    # each key as reprlib shortens it, so a long key is not echoed whole
    return f"[{', '.join(map(reprlib.repr, shown))}]{more}" if shown else "none"


def _is_generator_key(codes: dict, key: object) -> bool:
    """Whether a document key names a generator, A1..Bg."""
    try:
        return isinstance(key, str) and codes[key] > 0
    except ValueError:
        return False


def _parse_image_table(group: FreeGroup, obj: object, field: str) -> tuple[Word, ...]:
    if not isinstance(obj, dict):
        raise ValueError(f"{field} must be a mapping of generator tokens to words")
    codes, tokens, rank = group.codes, group.tokens, group.rank
    extra = [key for key in obj if not _is_generator_key(codes, key)]
    missing = rank - (len(obj) - len(extra))
    if extra or missing:
        if rank <= _SHOWN_KEYS:
            keys = " ".join(map(tokens.__getitem__, range(1, rank + 1)))
        else:
            keys = f"A1..A{group.genus} B1..B{group.genus}"
        # lazy: the walk over codes stops once the shown keys are found
        absent = (tokens[c] for c in range(1, rank + 1) if tokens[c] not in obj)
        raise ValueError(
            f"{field} must have exactly the keys {keys}; "
            f"missing {_some_keys(absent, missing)}, "
            f"unexpected {_some_keys(extra, len(extra))}"
        )
    images = []
    for token in map(tokens.__getitem__, range(1, rank + 1)):
        value = obj[token]
        if not isinstance(value, str):
            raise ValueError(f"{field}[{token}] must be word text")
        images.append(group.word(value))
    return tuple(images)


def from_mapping(doc: object) -> Endo:
    """Rebuild an endomorphism from plain data.

    A document with ``inverse_images`` yields a verified Auto; without
    it the result is a plain Endo, which downstream code accepts as long
    as it passes the zeta-conjugacy test.
    """
    if not isinstance(doc, dict):
        raise ValueError("automorphism document must be a mapping")
    if "genus" not in doc or "images" not in doc:
        raise ValueError("automorphism document needs 'genus' and 'images'")
    genus = doc["genus"]
    if not isinstance(genus, int):
        raise ValueError(f"genus must be an integer, got {reprlib.repr(genus)}")
    group = FreeGroup(genus)
    images = _parse_image_table(group, doc["images"], "images")
    if "inverse_images" in doc:
        inverse_images = _parse_image_table(group, doc["inverse_images"], "inverse_images")
        return Auto(group, images, inverse_images)
    return Endo(group, images)


def save_automorphism(phi: Endo, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(to_mapping(phi), fh, indent=2)
        fh.write("\n")


def load_automorphism(path: str) -> Endo:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except (json.JSONDecodeError, RecursionError) as exc:  # too deep nesting recurses
            raise ValueError(f"not valid automorphism data: {exc}") from exc
    return from_mapping(doc)
