"""Elements of N that the tests and ``tools/sweep_substitution.py`` build by hand.

``twist_chain`` and ``handle_chain`` give long images on one handle.
``transvection`` and ``handle_swap`` act on homology across handles,
which no element of ``random_element``'s pool does: each of those acts
within every handle (twists, conjugations, the involution), so a rho^-1
that is wrong only across handles passes on them.
"""

from mcgcocycles import Auto, FreeGroup, commutator, compose, inner
from mcgcocycles.endomorphism import named_element


def twist_chain(group: FreeGroup, handle: int, min_letters: int, start: str = "iota"):
    """Element ``start``, then alternating A and B twists of one handle until an image is long.

    The twisted handle's images grow like Fibonacci numbers.
    """
    twists = [named_element(group, f"twist:{handle}:{v}") for v in "AB"]
    phi, k = named_element(group, start), 0
    while max(map(len, phi.images)) < min_letters:
        phi, k = compose(phi, twists[k % 2]), k + 1
    return phi


def handle_chain(group: FreeGroup, handle: int, min_letters: int, rng):
    """inner(x) after alternating A and B twists of one handle, until an image is long.

    x is a random word of 30 letters off the twisted handle, so every
    image is conjugated and the seams of zeta cancel across handles, as
    they do for a member of N, while the preimage of zeta stays short.
    """
    g = group.genus
    phi = twist_chain(group, handle, min_letters, start="identity")
    others = [c for c in range(1, 2 * g + 1) if c not in (handle, g + handle)]
    x = group.from_letters(rng.choice((1, -1)) * rng.choice(others) for _ in range(30))
    return compose(inner(x), phi)


def transvection() -> Auto:
    """At genus 2: A1 -> b1 b2 A1, A2 -> b2 b1 A2, the B's fixed.

    rho is the transvection along c = [B1] + [B2]: [A1] and [A2] each go
    to themselves minus c.  It is in N, not in M_{g,1}.
    """
    F = FreeGroup(2)
    b1, b2 = F.b(1), F.b(2)
    return Auto(F, (F.word("b1 b2 A1"), F.word("b2 b1 A2"), b1, b2),
                (F.word("B2 B1 A1"), F.word("B1 B2 A2"), b1, b2))


def handle_swap(group: FreeGroup, k: int) -> Auto:
    """Exchange handles k and k+1, fixing zeta exactly.

    With w = [A_k, B_k]: A_k -> w A_(k+1) w^-1, B_k -> w B_(k+1) w^-1,
    A_(k+1) -> A_k, B_(k+1) -> B_k.  The inverse conjugates the other way,
    by [A_(k+1), B_(k+1)].  rho permutes the basis.
    """
    g = group.genus
    gens = group.generators()
    ak, bk, an, bn = gens[k - 1], gens[g + k - 1], gens[k], gens[g + k]
    w, v = commutator(ak, bk), commutator(an, bn)
    images, inverse = list(gens), list(gens)
    images[k - 1], images[g + k - 1] = an.conjugated_by(w), bn.conjugated_by(w)
    images[k], images[g + k] = ak, bk
    inverse[k - 1], inverse[g + k - 1] = an, bn
    inverse[k], inverse[g + k] = ak.conjugated_by(v.inverse()), bk.conjugated_by(v.inverse())
    return Auto(group, images, inverse)


def handle_mixing():
    """The genus-2 transvection and every adjacent handle swap at genus 2..4."""
    yield transvection()
    for g in (2, 3, 4):
        for k in range(1, g):
            yield handle_swap(FreeGroup(g), k)
