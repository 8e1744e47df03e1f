"""Earle's twisted 1-cocycle, exactly, over the rationals.

Earle's cocycle psi on the mapping class group of a marked genus-g
surface takes values in H tensor Q.  It is characterized by restricting
to x -> [x] on conjugations, and it differs from the integral cocycle of
:mod:`mcgcocycles.morita` by an explicit coboundary:

    psi(phi) = -(1/(2g - 2)) f(phi) + (rho(phi)^-1 a0 - a0),

where a0 has coordinates (0, ..., 0, 1/(g-1), ..., 1/(g-1)).  All
arithmetic is fractions.Fraction, so results are exact; every value of
(2g - 2) psi is integral.
"""

from __future__ import annotations

from fractions import Fraction

from .homology import mat_vec
from .endomorphism import Endo, require_membership
from .morita import morita_f

QVector = tuple[Fraction, ...]


def a0(genus: int) -> QVector:
    """The base point correction vector: zeros, then g copies of 1/(g-1)."""
    if not isinstance(genus, int) or genus < 2:
        raise ValueError(f"genus must be an integer >= 2, got {genus!r}")
    q = Fraction(1, genus - 1)
    return (Fraction(0),) * genus + (q,) * genus


def coboundary_a0(phi: Endo) -> QVector:
    """The twisted coboundary rho(phi)^-1 a0 - a0.

    (g - 1) a0 is the integer vector (0, ..., 0, 1, ..., 1), so rho^-1 is
    applied to that in integers and each entry is divided by g - 1 once.
    """
    genus = phi.group.genus
    ones = (0,) * genus + (1,) * genus
    moved = mat_vec(require_membership(phi).rho_inv, ones)
    return tuple(Fraction(m - e, genus - 1) for m, e in zip(moved, ones))


def earle_psi(phi: Endo) -> QVector:
    """Earle's cocycle as an exact rational vector.

    Restricts to x -> [x] on conjugations and satisfies the twisted
    cocycle identity psi(phi psi') = rho(psi')^-1 psi(phi) + psi(psi').
    With e = (g - 1) a0 = (0, ..., 0, 1, ..., 1), entry i is the one
    fraction (2 (rho^-1 e - e)_i - f_i) / (2g - 2); ``coboundary_a0``
    is the same shift term computed on its own.
    """
    genus = phi.group.genus
    ones = (0,) * genus + (1,) * genus
    moved = mat_vec(require_membership(phi).rho_inv, ones)
    return tuple(Fraction(2 * (m - e) - f, 2 * genus - 2)
                 for m, e, f in zip(moved, ones, morita_f(phi)))


def over_canonical_denominator(vec: QVector, genus: int) -> tuple[tuple[int, ...], int]:
    """Rewrite a psi value as integer numerators over 2g - 2.

    Raises if some entry does not have denominator dividing 2g - 2; for
    genuine cocycle values it always does.
    """
    den = 2 * genus - 2
    nums = []
    for q in vec:
        scaled = q * den
        if scaled.denominator != 1:
            raise ValueError(f"entry {q} is not a multiple of 1/{den}")
        nums.append(int(scaled))
    return tuple(nums), den
