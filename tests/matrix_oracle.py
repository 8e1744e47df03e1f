"""Adjugate inversion of unimodular integer matrices, kept as a test oracle.

The package inverts rho(phi) by the symplectic closed form -J m^T J.
This module inverts any matrix of determinant +-1 by an independent
route (Bareiss determinants and the cofactor matrix, O(n^5)), so the
tests can check the closed form against it.
"""

Matrix = tuple[tuple[int, ...], ...]


def det(m: Matrix) -> int:
    """Determinant by fraction-free (Bareiss) elimination; exact."""
    n = len(m)
    a = [list(row) for row in m]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for r in range(k + 1, n):
                if a[r][k] != 0:
                    a[k], a[r] = a[r], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                # exact division is the Bareiss invariant
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def _minor(m: Matrix, i: int, j: int) -> Matrix:
    return tuple(
        tuple(row[:j] + row[j + 1:])
        for row in (m[:i] + m[i + 1:])
    )


def adjugate(m: Matrix) -> Matrix:
    """Transposed cofactor matrix; m * adj(m) = det(m) * I."""
    n = len(m)
    return tuple(
        tuple((-1) ** (i + j) * det(_minor(m, j, i)) for j in range(n))
        for i in range(n)
    )


def invert_unimodular(m: Matrix) -> Matrix:
    """Exact inverse of an integer matrix with determinant +-1.

    Any other determinant is rejected rather than rounded.
    """
    d = det(m)
    if d not in (1, -1):
        raise ValueError(f"matrix is not unimodular: det = {d}")
    return tuple(tuple(d * x for x in row) for row in adjugate(m))
