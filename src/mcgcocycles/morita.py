"""Morita's combinatorial twisted 1-cocycle on the mapping class group.

The construction runs in three stages.

Stage 1 is a turning function d on words in a single handle pair.  Write
alpha, beta for the two generators of a handle.  A reduced word splits
uniquely into syllables alpha^eps beta^delta with eps, delta in
{-1, 0, +1}, scanned left to right and never producing an interior
(0, 0) syllable.  For syllables (eps_1, delta_1), ..., (eps_n, delta_n)
put

    d(x) = sum_k eps_k (delta_k + ... + delta_n)
         - sum_k delta_k (eps_(k+1) + ... + eps_n).

The normalization is d(alpha beta) = 1, and the product of reduced words
satisfies the defining identity

    d(x y) = d(x) + d(y) + [x].[y]

with [.] the exponent-sum class and . the intersection pairing; this
identity is what makes everything below a cocycle, and the test suite
hammers it on random pairs.

Stage 2 sums d over the g handle projections of a full word, giving a
function on the whole surface group with the same product identity.
``d_and_class`` computes it, with [w], by one of two routes that give
the same integers.  Short words, and words of two-byte letters (genus
64 and above), are walked letter by letter.  Long words of one-byte
letters are cut, per handle, into aligned blocks of 1, 2, 4, 8, ...
letters, and the product identity applied at every cut, d(x y) = d(x) +
d(y) + [x].[y], adds up the crossing terms of sibling blocks from their
exponent sums, which byte-string operations compute many at a time.

Stage 3 turns the coboundary of that function into a homology-valued
cocycle.  For phi with phi(zeta) conjugate to zeta, the assignment
x -> d(phi(x)) - d(x) is linear in [x], so it is an element of
H^* ~ H; ``f_tilde(phi)`` is its Poincare dual.  On boundary-fixing
automorphisms f_tilde is itself a twisted cocycle.  A general phi only
fixes zeta up to a witness u, and ``morita_f`` removes the inner part:

    f(phi) = f_tilde(phi) - 2g rho(phi)^-1 [u].

This expression is forced by three facts: the twisted cocycle rule,
f_tilde(conjugation by x) = 2 [x], and the requirement that conjugations
map to (2 - 2g) [x].  It depends only on the mapping class of phi, not
on the witness, since witnesses differ by powers of zeta and [zeta] = 0;
so ``morita_f`` takes no witness and uses the one ``in_N`` finds.

All values are integer vectors in the basis A_1..A_g, B_1..B_g.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import accumulate
from operator import mul

from .freegroup import Word
from .homology import Vector
from .endomorphism import Endo, require_membership


def d(w: Word) -> int:
    """Sum of the turning function over all handle projections.

    Satisfies d(x y) = d(x) + d(y) + [x].[y] on the full surface group,
    and d of every generator is 0; computed by one walk, ``d_and_class``.
    The tests compare it with the syllable formula of Stage 1,
    ``tests/word_oracle.d_two_gen``, summed over the g reduced handle
    projections of w (``word_oracle.project``), as the reference.
    """
    return d_and_class(w)[0]


def d_and_class(w: Word) -> tuple[int, Vector]:
    """d(w) and the exponent-sum class [w].

    The two facts in ``d`` make d(w) the sum of [x_p].[x_q] over the
    letter pairs p < q of w, and cancelling neighbours add nothing to that
    sum, so the handle projections need no reduction.  On one handle each
    beta^delta adds delta * (alpha sum before it - alpha sum after it);
    with s the sum of alpha_p beta_q over the letter pairs p < q of the
    handle and a, b its exponent sums, the handle's share is 2 s - a b.
    On a reduced projection this is the syllable formula with each
    syllable split into its alpha and its beta.  The handles' exponent
    sums are [w] (``homology.abelianize``).

    Two routes compute s.  ``_walk`` visits the letters one by one.
    ``_block_sums`` sums alpha_p beta_q over the same pairs grouped by
    the aligned block at which p and q part, which is the product rule
    applied per handle to blocks, so the two agree on every word.  It
    reads one-byte letters at C speed but pays a fixed cost per handle,
    so it takes only words of at least ``_KERNEL_LETTERS`` letters per
    handle.  From there on ``tools/sweep_substitution.py`` (``d_rows``)
    measures it ahead of the walk, by less as the genus grows and about
    even at genus 63.
    """
    if w.group.width == 1 and len(w.packed) >= _KERNEL_LETTERS * w.group.genus:
        return _block_sums(w)
    return _walk(w)


# Letters per handle from which the block route beats the walk, at most genera.
_KERNEL_LETTERS = 250


def _walk(w: Word) -> tuple[int, Vector]:
    """``d_and_class`` by one pass over the letters with per-handle counters."""
    g = w.group.genus
    alpha = [0] * (g + 1)
    beta = [0] * (g + 1)
    s = 0
    for c in w.view:
        if c > g:
            s += alpha[c - g]
            beta[c - g] += 1
        elif c > 0:
            alpha[c] += 1
        elif c >= -g:
            alpha[-c] -= 1
        else:
            s -= alpha[-c - g]
            beta[-c - g] -= 1
    return 2 * s - sum(a * b for a, b in zip(alpha, beta)), tuple(alpha[1:] + beta[1:])


# Block levels h of _block_sums: the sibling h-blocks inside each 8-block.
_LEVELS = (1, 2, 4)
# Table h maps the index byte (x << 4) + y of two h-block sums stored with
# offset h to their product (x - h)(y - h), raised by h^2 to be a byte.
_PRODUCTS = tuple(
    bytes(((i >> 4) - h) * ((i & 15) - h) + h * h if i >> 4 <= 2 * h and i & 15 <= 2 * h else 0
          for i in range(256))
    for h in _LEVELS
)
# an 8-block sum stored with offset 8, as a signed byte
_SIGNED = bytes((b - 8) & 0xFF for b in range(256))


@lru_cache(maxsize=64)  # one-byte letters stop at genus 63
def _handle_tables(genus: int) -> tuple[tuple[bytes, bytes, bytes], ...]:
    """Per handle k: the bytes that are no letter of handle k, and two tables.

    The tables send a letter of the handle to its alpha (A_k +1, a_k -1)
    and its beta (B_k +1, b_k -1) exponent plus 1, and every other byte,
    the 0 that pads a projection among them, to the neutral 1.
    """
    out = []
    for k in range(1, genus + 1):
        up_a, down_a, up_b, down_b = k, -k & 0xFF, genus + k, -(genus + k) & 0xFF
        keep = {up_a, down_a, up_b, down_b}
        alpha, beta = bytearray(b"\x01" * 256), bytearray(b"\x01" * 256)
        alpha[up_a], alpha[down_a], beta[up_b], beta[down_b] = 2, 0, 2, 0
        out.append((bytes(c for c in range(256) if c not in keep), bytes(alpha), bytes(beta)))
    return tuple(out)


def _block_sums(w: Word) -> tuple[int, Vector]:
    """``d_and_class`` for one-byte letters by block sums over byte strings.

    Per handle, s = sum of alpha_p beta_q over p < q, split by the block
    in which p and q part: for the smallest aligned 2h-block holding both,
    p lies in its left h-block and q in its right one.  The projection
    is padded with neutral letters to a multiple of 8 and held as two
    byte strings of exponents plus 1, one for alpha and one for beta.
    For h = 1, 2, 4 the even and odd slices, read as integers, give one
    index byte per pair of sibling blocks (left alpha sum << 4 plus right
    beta sum), a table gives the products and ``sum`` adds them; the
    sum of the two slices is the next level's block sums, at most 16 in
    a byte, so no byte carries into the next.  The pairs across 8-blocks
    take one pass over the 8-block sums with running alpha totals, and
    those sums add up to the handle's exponent sums.
    """
    packed = w.packed
    total, alpha, beta = 0, [], []
    for delete, to_alpha, to_beta in _handle_tables(w.group.genus):
        proj = packed.translate(None, delete)
        if not proj:
            alpha.append(0)
            beta.append(0)
            continue
        proj += bytes(-len(proj) % 8)
        xs, ys = proj.translate(to_alpha), proj.translate(to_beta)
        s = 0
        for h, products in zip(_LEVELS, _PRODUCTS):
            n = len(xs) // 2
            x_even, x_odd = int.from_bytes(xs[0::2], "little"), int.from_bytes(xs[1::2], "little")
            y_even, y_odd = int.from_bytes(ys[0::2], "little"), int.from_bytes(ys[1::2], "little")
            pairs = ((x_even << 4) + y_odd).to_bytes(n, "little")
            s += sum(pairs.translate(products)) - h * h * n
            xs, ys = (x_even + x_odd).to_bytes(n, "little"), (y_even + y_odd).to_bytes(n, "little")
        a, b = sum(xs) - 8 * n, sum(ys) - 8 * n
        xs = memoryview(xs.translate(_SIGNED)).cast("b")
        ys = memoryview(ys.translate(_SIGNED)).cast("b")
        s += sum(map(mul, accumulate(xs, initial=0), ys))
        total += 2 * s - a * b
        alpha.append(a)
        beta.append(b)
    return total, tuple(alpha + beta)


def f_tilde_at(phi: Endo, x: Word) -> int:
    """The coboundary-of-d functional d(phi(x)) - d(x).

    Linear in the homology class of x; equals the pairing of
    ``f_tilde(phi)`` with [x].
    """
    require_membership(phi)
    return d(phi(x)) - d(x)


def f_tilde(phi: Endo) -> Vector:
    """Poincare dual of x -> d(phi(x)) - d(x) as a homology class.

    Evaluating the functional on the 2g generators determines it, d of a
    single generator being 0.  The value is computed once per element,
    by ``in_N`` (``NWitness.f_tilde``).
    """
    return require_membership(phi).f_tilde


def morita_f(phi: Endo) -> Vector:
    """The homology-valued twisted cocycle on the marked-point group.

    With u the zeta-conjugating witness of phi,

        f(phi) = f_tilde(phi) - 2g rho(phi)^-1 [u].

    Every witness gives the same value, so none is asked for.  The value
    is computed once per element (``NWitness.f``).
    """
    return require_membership(phi).f
