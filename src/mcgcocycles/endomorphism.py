"""Endomorphisms and automorphisms of the surface group.

An endomorphism is determined by the images of the 2g generators and
acts on words letter by letter.  The mapping class group of the
once-punctured genus-g surface is the group of automorphisms fixing the
boundary word zeta exactly; allowing zeta to move within its conjugacy
class gives the larger group N whose quotient by inner automorphisms is
the mapping class group of the surface with a marked point.  The cocycle
modules consume elements of N together with a conjugating witness, so
membership testing and witness extraction live here.

Composition convention: a product of mapping classes acts with the right
factor first, and ``compose(outer, inner)`` realizes exactly that, i.e.
``compose(f, g)(x) == f(g(x))``.
"""

from __future__ import annotations

import json
import random
from dataclasses import InitVar, dataclass
from functools import cached_property, lru_cache
from itertools import compress, count
from operator import ne, neg
from typing import Iterable, Optional, Union

from .freegroup import FreeGroup, Word, commutator, conjugator, random_word
from .homology import (
    Matrix,
    Vector,
    dual,
    identity_matrix,
    induced_matrix,
    is_symplectic,
    symplectic_inverse,
)


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
    caches of the zeta-conjugacy test and of the substitution table,
    which are derived data.
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
        self._member: object = None  # None unknown, False no, NWitness yes
        self._table: Optional[list] = None  # built by the first call

    def _substitution_table(self) -> list:
        """Image letters by signed code: entry c is the image of letter c.

        A negative code indexes from the end of the list, where the
        inverse image of its generator is stored.
        """
        table: list = [()] * (2 * self.group.rank + 1)
        for code, im in enumerate(self.images, start=1):
            table[code] = im.letters
            table[-code] = tuple(map(neg, reversed(im.letters)))
        return table

    def __call__(self, w: Word) -> Word:
        """Apply to a word; the result is reduced in one pass.

        The output so far and each image are reduced, so letters can only
        cancel at the seam between them: the longest tail of the output
        that reads the inverse image backwards is dropped, and the rest of
        the image appended, each at once.
        """
        if w.group != self.group:
            raise ValueError(f"genus mismatch: {w.group!r} vs {self.group!r}")
        table = self._table
        if table is None:
            table = self._table = self._substitution_table()
        out: list[int] = []
        extend = out.extend
        for c in w.letters:
            img = table[c]
            if out and img and out[-1] == -img[0]:
                # first position where out, read backwards, stops matching
                # the inverse image, also read backwards
                j = next(compress(count(), map(ne, reversed(out), reversed(table[-c]))),
                         min(len(out), len(img)))
                del out[len(out) - j:]
                extend(img[j:])
            else:
                extend(img)
        return Word._from_reduced(self.group, tuple(out))

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

    def mapping_lines(self) -> list[str]:
        """Human-readable 'generator -> image' lines."""
        gens = self.group.generators()
        return [f"{gens[k]} -> {self.images[k]}" for k in range(self.group.rank)]


class Auto(Endo):
    """An endomorphism certified invertible by an explicit inverse.

    Construction composes both ways and requires every generator to come
    back to itself, so a constructed Auto is a genuine automorphism.
    """

    __slots__ = ("backward",)

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
        self.backward = backward

    @classmethod
    def _trusted(
        cls,
        group: FreeGroup,
        images: tuple[Word, ...],
        inverse_images: tuple[Word, ...],
    ) -> "Auto":
        """Skip the inverse check; caller has a proof.

        Used for algebraically guaranteed constructions (conjugations,
        composites of certified automorphisms) where re-verification only
        repeats associativity.
        """
        obj = object.__new__(cls)
        Endo.__init__(obj, group, images)
        obj.backward = Endo(group, inverse_images)
        return obj

    def inverse(self) -> "Auto":
        return Auto._trusted(self.group, self.backward.images, self.images)


def compose(outer: Endo, inner: Endo) -> Endo:
    """The endomorphism x -> outer(inner(x)).

    Returns an Auto when both factors are certified, with the inverse
    composed in the opposite order.
    """
    if outer.group != inner.group:
        raise ValueError("genus mismatch in composition")
    group = outer.group
    images = tuple(outer(im) for im in inner.images)
    if isinstance(outer, Auto) and isinstance(inner, Auto):
        inv = tuple(inner.backward(im) for im in outer.backward.images)
        return Auto._trusted(group, images, inv)
    return Endo(group, images)


def identity_auto(group: FreeGroup) -> Auto:
    gens = group.generators()
    return Auto._trusted(group, gens, gens)


def inner(x: Word) -> Auto:
    """Conjugation g -> x g x^-1."""
    group = x.group
    xi = x.inverse()
    images = tuple(x * gen * xi for gen in group.generators())
    inv = tuple(xi * gen * x for gen in group.generators())
    return Auto._trusted(group, images, inv)


def _descending_b(group: FreeGroup, k: int) -> Word:
    """B_g B_(g-1) ... B_k."""
    w = group.identity()
    for ell in range(group.genus, k - 1, -1):
        w = w * group.b(ell)
    return w


@lru_cache(maxsize=None)
def jablow(group: FreeGroup) -> Auto:
    """The hyperelliptic-type involution on the surface group.

    With P_k = B_g ... B_k and E_k = [P_k A_k, B_k] B_k it sends

        A_k -> E_k E_(k+1) ... E_g  A_k^-1  B_k^-1 B_(k+1)^-1 ... B_g^-1
        B_k -> [P_k A_k, B_k^-1] B_k^-1

    It is an involution, acts as -1 on homology, and conjugates zeta by
    B_g ... B_1.  The Auto constructor composes the map with itself at
    build time, so a wrong image table cannot survive construction.
    """
    g = group.genus

    def e_factor(ell: int) -> Word:
        return commutator(_descending_b(group, ell) * group.a(ell), group.b(ell)) * group.b(ell)

    images_a = []
    for k in range(1, g + 1):
        head = group.identity()
        for ell in range(k, g + 1):
            head = head * e_factor(ell)
        tail = group.identity()
        for ell in range(k, g + 1):
            tail = tail * group.b(ell).inverse()
        images_a.append(head * group.a(k).inverse() * tail)

    images_b = []
    for k in range(1, g + 1):
        x = _descending_b(group, k) * group.a(k)
        images_b.append(commutator(x, group.b(k).inverse()) * group.b(k).inverse())

    images = tuple(images_a + images_b)
    return Auto(group, images, images)


@dataclass(frozen=True)
class NWitness:
    """An endomorphism together with u satisfying phi(zeta) = u zeta u^-1.

    Construction re-checks the defining equation, so holding an NWitness
    is proof of membership in N.  The per-element quantities the cocycles
    share (rho, rho^-1 and f_tilde) are computed on first use and kept,
    and the witness is cached on its Endo, so each is computed once per
    element however many cocycles are asked for.
    """

    element: Endo
    conjugator: Word
    # phi(zeta) when the caller has computed it already; an init-only
    # argument, neither stored nor compared, and checked like a fresh image
    _zeta_image: InitVar[Optional[Word]] = None

    def __post_init__(self, _zeta_image: Optional[Word]):
        zeta = self.element.group.zeta()
        image = self.element(zeta) if _zeta_image is None else _zeta_image
        if image != zeta.conjugated_by(self.conjugator):
            raise ValueError("witness does not conjugate zeta to its image")

    @cached_property
    def rho(self) -> Matrix:
        """The homology action rho(phi)."""
        return induced_matrix(self.element)

    @cached_property
    def rho_inv(self) -> Matrix:
        """rho(phi)^-1, by the checked symplectic closed form."""
        return symplectic_inverse(self.rho)

    @cached_property
    def f_tilde(self) -> Vector:
        """Poincare dual of x -> d(phi(x)) - d(x); see morita.f_tilde."""
        from .morita import d  # morita imports this module

        return dual(tuple(d(im) for im in self.element.images))


def in_M_g1(phi: Endo) -> bool:
    """Whether phi fixes the boundary word exactly."""
    zeta = phi.group.zeta()
    return phi(zeta) == zeta


def in_N(phi: Endo) -> Optional[NWitness]:
    """Membership test for N: does phi send zeta into its conjugacy class?

    Returns a witness on success, None otherwise.  The result is cached
    on the endomorphism.
    """
    if phi._member is None:
        zeta = phi.group.zeta()
        image = phi(zeta)
        u = conjugator(image, zeta)
        phi._member = NWitness(phi, u, image) if u is not None else False
    return phi._member or None


MemberLike = Union[Endo, NWitness]


def require_membership(phi: MemberLike) -> NWitness:
    """Coerce to a witness, raising MembershipError for non-members."""
    if isinstance(phi, NWitness):
        return phi
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


def _images_with(group: FreeGroup, override: dict[int, Word]) -> tuple[Word, ...]:
    gens = list(group.generators())
    for idx, w in override.items():
        gens[idx] = w
    return tuple(gens)


@lru_cache(maxsize=None)
def twist_catalog(group: FreeGroup) -> tuple[Auto, ...]:
    """2g boundary-fixing automorphisms used as random building blocks.

    Entry k-1 sends A_k to A_k B_k, entry g+k-1 sends B_k to B_k A_k;
    both rewrite a single commutator factor of zeta to itself.  Each
    entry is certified invertible by construction and re-checked here to
    fix the boundary word and act symplectically on homology; any failure
    raises immediately.  No claim is made that these generate anything,
    they only provide cheap variety for randomized identities.
    """
    g = group.genus
    entries: list[Auto] = []
    for k in range(1, g + 1):
        ak, bk = group.a(k), group.b(k)
        entries.append(
            Auto(
                group,
                _images_with(group, {k - 1: ak * bk}),
                _images_with(group, {k - 1: ak * bk.inverse()}),
            )
        )
    for k in range(1, g + 1):
        ak, bk = group.a(k), group.b(k)
        entries.append(
            Auto(
                group,
                _images_with(group, {g + k - 1: bk * ak}),
                _images_with(group, {g + k - 1: bk * ak.inverse()}),
            )
        )
    eye = identity_matrix(group.rank)
    for entry in entries:
        m = induced_matrix(entry)
        if not in_M_g1(entry):
            raise RuntimeError("twist catalog entry moved the boundary word")
        if not is_symplectic(m) or m == eye:
            raise RuntimeError("twist catalog entry has a bad homology action")
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
    gens = group.generators()
    doc: dict = {
        "genus": group.genus,
        "images": {str(gens[k]): str(phi.images[k]) for k in range(group.rank)},
    }
    if isinstance(phi, Auto):
        doc["inverse_images"] = {
            str(gens[k]): str(phi.backward.images[k]) for k in range(group.rank)
        }
    return doc


# a key-mismatch error names at most this many keys of each kind, so its
# length does not grow with the genus
_SHOWN_KEYS = 8


def _some_keys(keys: list) -> str:
    if not keys:
        return "none"
    more = len(keys) - _SHOWN_KEYS
    return str(keys[:_SHOWN_KEYS]) + (f" and {more} more" if more > 0 else "")


def _parse_image_table(group: FreeGroup, obj: object, field: str) -> tuple[Word, ...]:
    if not isinstance(obj, dict):
        raise ValueError(f"{field} must be a mapping of generator tokens to words")
    gens = [str(gen) for gen in group.generators()]
    known = set(gens)
    missing = [t for t in gens if t not in obj]
    extra = [t for t in obj if t not in known]
    if missing or extra:
        g = group.genus
        keys = " ".join(gens) if len(gens) <= _SHOWN_KEYS else f"A1..A{g} B1..B{g}"
        raise ValueError(
            f"{field} must have exactly the keys {keys}; "
            f"missing {_some_keys(missing)}, unexpected {_some_keys(extra)}"
        )
    images = []
    for token in gens:
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
        except json.JSONDecodeError as exc:
            raise ValueError(f"not valid automorphism data: {exc}") from exc
    return from_mapping(doc)
