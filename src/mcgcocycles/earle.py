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

from .endomorphism import MemberLike, require_membership
from .morita import morita_f

QVector = tuple[Fraction, ...]


def a0(genus: int) -> QVector:
    """The base point correction vector: zeros, then g copies of 1/(g-1)."""
    if not isinstance(genus, int) or genus < 2:
        raise ValueError(f"genus must be an integer >= 2, got {genus!r}")
    q = Fraction(1, genus - 1)
    return (Fraction(0),) * genus + (q,) * genus


def coboundary_a0(phi: MemberLike) -> QVector:
    """The twisted coboundary rho(phi)^-1 a0 - a0."""
    member = require_membership(phi)
    base = a0(member.element.group.genus)
    moved = tuple(
        sum(row[j] * base[j] for j in range(len(base))) for row in member.rho_inv
    )
    return tuple(moved[k] - base[k] for k in range(len(base)))


def earle_psi(phi: MemberLike) -> QVector:
    """Earle's cocycle as an exact rational vector.

    Restricts to x -> [x] on conjugations and satisfies the twisted
    cocycle identity psi(phi psi') = rho(psi')^-1 psi(phi) + psi(psi').
    """
    nw = require_membership(phi)
    genus = nw.element.group.genus
    f_value = morita_f(nw)
    shift = coboundary_a0(nw)
    scale = Fraction(-1, 2 * genus - 2)
    return tuple(scale * f_value[k] + shift[k] for k in range(2 * genus))


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
