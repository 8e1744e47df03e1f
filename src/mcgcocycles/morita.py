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
    """d(w) and the exponent-sum class [w], from one walk over the letters.

    The two facts in ``d`` make d(w) the sum of [x_p].[x_q] over the
    letter pairs p < q of w, and cancelling neighbours add nothing to that
    sum, so the handle projections need no reduction.  On one handle each
    beta^delta adds delta * (alpha sum before it - alpha sum after it);
    with s the sum of delta * (alpha sum before it) over the betas and
    a, b the handle's exponent sums, the handle's share is 2 s - a b.
    On a reduced projection this is the syllable formula with each
    syllable split into its alpha and its beta.  The walk ends with the
    handles' exponent sums, which are [w] (``homology.abelianize``).
    """
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
