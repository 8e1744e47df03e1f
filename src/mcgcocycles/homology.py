"""First homology of the surface and the symplectic structure on it.

H = H_1 of the closed genus-g surface is free abelian of rank 2g.  We fix
the ordered basis ([A_1], ..., [A_g], [B_1], ..., [B_g]) coming from the
standard generators, write classes as integer column vectors, and
represent homomorphisms H -> H by 2g x 2g integer matrices acting on
column vectors (so matrix columns are images of basis vectors).

The algebraic intersection form is x . y = x^T J y where

    J = [[0,  I],
         [-I, 0]]

in g x g blocks.  The sign convention [A_i] . [B_i] = +1 is forced by the
normalization d(alpha beta) = 1 of the turning function in
:mod:`mcgcocycles.morita` together with the product rule
d(xy) = d(x) + d(y) + [x].[y]; with the opposite sign every downstream
cocycle value would flip.

Everything here is exact integer arithmetic.  Matrices are tuples of row
tuples; vectors are flat tuples.
"""

from __future__ import annotations

from itertools import chain
from operator import lshift, mul, neg

from .freegroup import Word

__all__ = ["Matrix", "Vector", "abelianize", "dual", "induced_matrix", "intersection",
           "is_symplectic", "mat_vec", "symplectic_inverse"]

Vector = tuple[int, ...]
Matrix = tuple[tuple[int, ...], ...]


def abelianize(w: Word) -> Vector:
    """Exponent-sum vector of a word in the basis A_1..A_g, B_1..B_g.

    A group homomorphism to Z^2g: multiplication goes to addition and
    inversion to negation.
    """
    counts = [0] * w.group.rank
    for c in w.view:
        if c > 0:
            counts[c - 1] += 1
        else:
            counts[-c - 1] -= 1
    return tuple(counts)


def intersection(x: Vector, y: Vector) -> int:
    """Algebraic intersection number x . y = x^T J y.

    Antisymmetric, bilinear, with [A_i] . [B_i] = +1.
    """
    if len(x) != len(y) or len(x) % 2 != 0:
        raise ValueError(f"vector lengths {len(x)}, {len(y)} do not match a genus")
    g = len(x) // 2
    return sum(map(mul, x[:g], y[g:])) - sum(map(mul, x[g:], y[:g]))


def dual(values: Vector) -> Vector:
    """The class h with h . v = lam(v) for the functional lam on H.

    The functional is given by its values (lam(A_1..A_g), lam(B_1..B_g));
    the Poincare dual is (lam(B_1..B_g), -lam(A_1..A_g)).
    """
    if len(values) % 2 != 0:
        raise ValueError(f"odd length {len(values)}")
    g = len(values) // 2
    return tuple(values[g:]) + tuple(-v for v in values[:g])


def induced_matrix(phi) -> Matrix:
    """Matrix of the map induced on H by an endomorphism of the free group.

    Column j is the exponent-sum vector of the image of generator j, so
    the assignment is functorial: composing endomorphisms multiplies
    matrices in the same order.
    """
    return tuple(zip(*map(abelianize, phi.images)))


# -- generic exact matrix helpers -----------------------------------------


def mat_vec(m: Matrix, v: Vector) -> Vector:
    if m and len(m[0]) != len(v):
        raise ValueError("shape mismatch")
    return tuple(sum(map(mul, row, v)) for row in m)


def is_symplectic(m: Matrix) -> bool:
    """Whether m^T J m == J; such matrices are automatically unimodular.

    Exact, in O(g^2) Python steps.  Row a of m^T J m is sum_i m[i][a]
    (J m)_i, a sum of rows of J m.  Each row is packed into one integer,
    entry b in field b of width w, and each such sum is compared with row
    a of J packed the same way.  No entry of m^T J m - J exceeds
    n max|m|^2 + 1 < 2^w in size, so two packings are equal only when
    every field is: the lowest field that differs would leave a nonzero
    remainder modulo 2^w.
    """
    n = len(m)
    if n % 2 != 0 or any(len(row) != n for row in m):
        return False
    g = n // 2
    w = (n * max(map(abs, chain.from_iterable(m)), default=0) ** 2 + 1).bit_length()
    shifts = range(0, n * w, w)
    # row i of J m is row i + g of m for i < g, else minus row i - g
    rows = [sum(map(lshift, row, shifts)) for row in m[g:]]
    rows += [-sum(map(lshift, row, shifts)) for row in m[:g]]
    # row a of J: +1 in field a + g for a < g, -1 in field a - g after
    rows_of_j = [1 << (a + g) * w for a in range(g)] + [-1 << a * w for a in range(g)]
    return all(sum(map(mul, col, rows)) == want for col, want in zip(zip(*m), rows_of_j))


def _is_plus_minus_identity(m: Matrix) -> bool:
    """Whether m is I or -I (of even size), by rows, stopping at the first row off it.

    A row passes when it has the sign of m[0][0] on the diagonal, zeros
    elsewhere and an int sum, so no entry that ``is_symplectic`` would
    refuse (a float, a Fraction) slips through.
    """
    n = len(m)
    if n % 2 or not n:
        return False
    sign = m[0][0]
    if sign != 1 and sign != -1:
        return False
    for i, row in enumerate(m):
        if len(row) != n or row[i] != sign or row.count(0) != n - 1 or type(sum(row)) is not int:
            return False
    return True


def symplectic_inverse(m: Matrix) -> Matrix:
    """Exact inverse of a symplectic matrix by the closed form -J m^T J.

    In g x g blocks [[A, B], [C, D]] the inverse is
    [[D^T, -B^T], [-C^T, A^T]].  The closed form is the inverse only when
    m^T J m == J, so any other matrix is rejected rather than given a
    wrong answer; every rho(phi) with phi in N passes.  I and -I, the
    rho of every conjugation and of the involution, are symplectic and
    their own inverses, so they are returned as they are without the
    packed test.
    """
    if _is_plus_minus_identity(m):
        return m
    if not is_symplectic(m):
        raise ValueError("matrix is not symplectic, so -J m^T J is not its inverse")
    g = len(m) // 2
    cols = tuple(zip(*m))
    # [D^T, -B^T] from the columns g..2g-1 of m, then [-C^T, A^T] from the columns 0..g-1
    return (tuple(c[g:] + tuple(map(neg, c[:g])) for c in cols[g:])
            + tuple(tuple(map(neg, c[g:])) + c[:g] for c in cols[:g]))
