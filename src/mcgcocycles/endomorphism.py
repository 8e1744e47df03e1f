"""Endomorphisms and automorphisms of the surface group.

An endomorphism is determined by the images of the 2g generators and
acts on words letter by letter.  The mapping class group of the
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
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import islice
from typing import Iterable, Optional

from .freegroup import FreeGroup, Substitution, Word, commutator, conjugator, random_word
from .homology import Matrix, Vector, abelianize, dual, mat_vec, symplectic_inverse


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
    caches of the membership record (see ``in_N``) and of the
    substitution kernel, which are derived data.

    Applying the map to a word of more than one letter runs
    ``freegroup.Substitution``, built from the images on the first such
    call and kept: it holds every image and inverse image as packed
    bytes and cancels at each seam at C speed.
    """

    __slots__ = ("group", "images", "_member", "_table")

    def __init__(self, group: FreeGroup, images: Iterable[Word]):
        imgs = tuple(images)
        if len(imgs) != group.rank:
            raise ValueError(
                f"expected {group.rank} generator images, got {len(imgs)}"
            )
        for im in imgs:
            if not isinstance(im, Word) or im.group != group:
                raise ValueError("generator images must be words of the same genus")
        self.group = group
        self.images = imgs
        self._member: object = None  # None unknown, False no, else the NWitness
        self._table: Optional[Substitution] = None  # built by the first call

    def __call__(self, w: Word) -> Word:
        """Apply to a word; the result is reduced in one pass of the kernel.

        A single generator is looked up without the kernel.
        """
        if w.group is not self.group and w.group != self.group:
            raise ValueError(f"genus mismatch: {w.group!r} vs {self.group!r}")
        letters = w.view
        if len(letters) == 1 and letters[0] > 0:
            return self.images[letters[0] - 1]
        table = self._table
        if table is None:
            table = self._table = Substitution(self.group, self.images)
        return table(letters)

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


class _Deferred:
    """An inverse not built yet: its recipe until the first read, then the Endo.

    The recipe is a word x, for the inverse g -> x^-1 g x of conjugation
    by x, or a pair (first, then) of inverses, each an Endo or a
    _Deferred, for the inverse of a composite: generator k goes to
    first(then.images[k]).  A recipe names inverses only, never the
    elements they invert, so it keeps no forward image alive, and it
    refers only to objects built before it, so it forms no cycle.
    """

    __slots__ = ("group", "recipe", "value")

    def __init__(self, group: FreeGroup, recipe: object):
        self.group, self.recipe, self.value = group, recipe, None

    def build(self) -> Endo:
        """The inverse, building each pending recipe under it once.

        The recipes are walked with a stack, so a long chain of composites
        does not recurse; a built recipe is dropped.
        """
        stack = [self]
        while stack:
            top = stack[-1]
            recipe = top.recipe
            if recipe is None:  # built through another composite
                stack.pop()
                continue
            if isinstance(recipe, Word):
                xi = recipe.inverse()
                images = tuple(xi * gen * recipe for gen in top.group.generators())
            else:
                pending = [p for p in recipe if isinstance(p, _Deferred) and p.recipe is not None]
                if pending:
                    stack += pending
                    continue
                first, then = (p.value if isinstance(p, _Deferred) else p for p in recipe)
                images = tuple(first(im) for im in then.images)
            top.value, top.recipe = Endo(top.group, images), None
            stack.pop()
        return self.value


class Auto(Endo):
    """An endomorphism certified invertible by an explicit inverse.

    Construction composes both ways and requires every generator to come
    back to itself, so a constructed Auto is a genuine automorphism.
    ``backward``, the inverse as an Endo, is built on its first read for
    composites and conjugations (see ``_trusted``) and then kept.
    """

    __slots__ = ("_backward",)

    def __init__(
        self,
        group: FreeGroup,
        images: Iterable[Word],
        inverse_images: Iterable[Word],
    ):
        super().__init__(group, images)
        backward = Endo(group, inverse_images)
        for k, gen in enumerate(group.generators()):
            if self(backward.images[k]) != gen or backward(self.images[k]) != gen:
                raise ValueError(
                    f"images and inverse images are not mutually inverse at {gen}"
                )
        self._backward = backward

    @classmethod
    def _trusted(
        cls,
        group: FreeGroup,
        images: tuple[Word, ...],
        backward: "Endo | _Deferred",
    ) -> "Auto":
        """Skip the inverse check; caller has a proof.

        Used for algebraically guaranteed constructions, where
        re-verification only repeats associativity: conjugations,
        composites of certified automorphisms, and the closed forms of
        ``jablow`` and ``twist_catalog``.  Those two are certified by
        ``tests/test_endomorphism.py`` and by the ``verify`` suites that
        their docstrings name, not at construction.  ``backward`` is the inverse, or a _Deferred
        recipe for it that the first read of ``backward`` builds.
        """
        obj = object.__new__(cls)
        Endo.__init__(obj, group, images)
        obj._backward = backward
        return obj

    @property
    def backward(self) -> Endo:
        """The inverse automorphism, as an Endo."""
        back = self._backward
        if isinstance(back, _Deferred):
            back = self._backward = back.build()
        return back

    def inverse(self) -> "Auto":
        return Auto._trusted(self.group, self.backward.images, Endo(self.group, self.images))


def compose(outer: Endo, inner: Endo) -> Endo:
    """The endomorphism x -> outer(inner(x)).

    Returns an Auto when both factors are certified.  Its inverse,
    inner^-1 applied to the images of outer^-1, is built when its
    ``backward`` is first read.
    """
    if outer.group != inner.group:
        raise ValueError("genus mismatch in composition")
    group = outer.group
    images = tuple(outer(im) for im in inner.images)
    if isinstance(outer, Auto) and isinstance(inner, Auto):
        return Auto._trusted(group, images, _Deferred(group, (inner._backward, outer._backward)))
    return Endo(group, images)


def identity_auto(group: FreeGroup) -> Auto:
    gens = group.generators()
    return Auto._trusted(group, gens, Endo(group, gens))


def inner(x: Word) -> Auto:
    """Conjugation g -> x g x^-1; its inverse is built when first read."""
    group = x.group
    xi = x.inverse()
    images = tuple(x * gen * xi for gen in group.generators())
    return Auto._trusted(group, images, _Deferred(group, x))


@lru_cache(maxsize=None)
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
    constructor checks nothing: ``in_N`` checks u, builds the record and
    caches it on phi.  It holds no reference back to phi, so the two form
    no cycle.
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
        """Morita's cocycle f(phi), with the witness ``conjugator``."""
        return self.f_at(self.conjugator)

    def f_at(self, u: Word) -> Vector:
        """f_tilde - 2g rho^-1 [u] for a witness u of phi (morita.morita_f)."""
        correction = mat_vec(self.rho_inv, abelianize(u))
        rank = len(self.rho)
        return tuple(b - rank * c for b, c in zip(self.f_tilde, correction))


def in_M_g1(phi: Endo) -> bool:
    """Whether phi fixes the boundary word exactly."""
    zeta = phi.group.zeta()
    return phi(zeta) == zeta


def in_N(phi: Endo) -> Optional[NWitness]:
    """Membership test for N: does phi send zeta into its conjugacy class?

    Returns the element's record on success, None otherwise.  The result
    is cached on the endomorphism, and phi is applied to zeta once.  The
    witness u found for phi(zeta) is checked against u zeta u^-1 before
    the record is built.

    >>> member = in_N(jablow(FreeGroup(3)))
    >>> str(member.conjugator), member.f_tilde
    ('B3 B2 B1', (-2, -2, -2, -8, -6, -4))
    """
    if phi._member is None:
        from .morita import d_and_class  # morita imports this module
        zeta = phi.group.zeta()
        image = phi(zeta)
        u = conjugator(image, zeta)
        if u is None:
            phi._member = False
            return None
        if image != zeta.conjugated_by(u):
            raise ValueError("witness does not conjugate zeta to its image")
        turning, columns = zip(*map(d_and_class, phi.images))
        phi._member = NWitness(u, tuple(zip(*columns)), dual(turning))
    return phi._member or None


def require_membership(phi: Endo) -> NWitness:
    """The record of phi, raising MembershipError for non-members."""
    witness = in_N(phi)
    if witness is None:
        core, _ = phi(phi.group.zeta()).cyclic_reduce()
        raise MembershipError(
            "endomorphism does not conjugate the boundary word; "
            f"cyclically reduced image of zeta: {core}",
            core,
        )
    return witness


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


@lru_cache(maxsize=None)
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


def random_element(group: FreeGroup, word_budget: int = 4, seed: int = 0) -> Auto:
    """A deterministic pseudorandom element of N.

    Composes up to ``word_budget`` factors drawn from the twist catalog,
    inner automorphisms of short random words, and the involution.  Every
    factor lies in N, hence so does the product.  Image growth is capped
    so repeated calls stay cheap.
    """
    rng = random.Random(seed)
    catalog = twist_catalog(group)
    result = identity_auto(group)
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
    keys = group.alphabet.tokens
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
    return str(shown) + more if shown else "none"


def _is_generator_key(codes: dict, key: object) -> bool:
    """Whether a document key names a generator, A1..Bg."""
    try:
        return isinstance(key, str) and codes[key] > 0
    except ValueError:
        return False


def _parse_image_table(group: FreeGroup, obj: object, field: str) -> tuple[Word, ...]:
    if not isinstance(obj, dict):
        raise ValueError(f"{field} must be a mapping of generator tokens to words")
    codes, tokens, rank = group.alphabet.codes, group.alphabet.tokens, group.rank
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
        raise ValueError(f"genus must be an integer, got {genus!r}")
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
