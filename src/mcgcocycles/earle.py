"""Earle's twisted 1-cocycle, exactly, as integers over 2g - 2.

Earle's cocycle psi on the mapping class group of a marked genus-g
surface takes values in H tensor Q.  It is characterized by restricting
to x -> [x] on conjugations, and it differs from the integral cocycle of
:mod:`mcgcocycles.morita` by an explicit coboundary:

    psi(phi) = -(1/(2g - 2)) f(phi) + (rho(phi)^-1 a0 - a0),

where a0 has coordinates (0, ..., 0, 1/(g-1), ..., 1/(g-1)).  With
e = (g - 1) a0 = (0, ..., 0, 1, ..., 1), every value of (2g - 2) psi is
the integer vector

    N(phi) = 2 (rho(phi)^-1 e - e) - f(phi),

which ``psi_numerators`` computes in integers: psi's primary form, which
``earle_psi`` divides once by 2g - 2 into exact Fractions in lowest
terms; nothing converts them back.
"""

from __future__ import annotations

from fractions import Fraction

from .homology import Vector, mat_vec
from .endomorphism import Endo, require_membership
from .morita import morita_f

__all__ = ["QVector", "a0", "coboundary_a0", "earle_psi", "psi_numerators"]

QVector = tuple[Fraction, ...]


def a0(genus: int) -> QVector:
    """The base point correction vector: zeros, then g copies of 1/(g-1)."""
    if not isinstance(genus, int) or genus < 2:
        raise ValueError(f"genus must be an integer >= 2, got {genus!r}")
    q = Fraction(1, genus - 1)
    return (Fraction(0),) * genus + (q,) * genus


def _shift(phi: Endo) -> Vector:
    """rho(phi)^-1 e - e in integers, with e = (g - 1) a0 = (0, ..., 0, 1, ..., 1)."""
    genus = phi.group.genus
    ones = (0,) * genus + (1,) * genus
    moved = mat_vec(require_membership(phi).rho_inv, ones)
    return tuple(m - e for m, e in zip(moved, ones))


def coboundary_a0(phi: Endo) -> QVector:
    """The twisted coboundary rho(phi)^-1 a0 - a0.

    (g - 1) a0 is the integer vector e of ``_shift``, so each entry is
    the integer shift divided by g - 1 once.
    """
    genus = phi.group.genus
    return tuple(Fraction(s, genus - 1) for s in _shift(phi))


def psi_numerators(phi: Endo) -> Vector:
    """(2g - 2) psi(phi) as integers: 2 s - f, with s the shift of ``coboundary_a0``.

    A twisted cocycle in its own right, and (2g - 2) [x] on conjugation
    by x, so the cocycle checks can run on it without fractions.

    >>> from mcgcocycles.freegroup import FreeGroup
    >>> from mcgcocycles.endomorphism import jablow
    >>> psi_numerators(jablow(FreeGroup(3)))
    (2, 2, 2, -2, -4, -6)
    """
    return tuple(2 * s - f for s, f in zip(_shift(phi), morita_f(phi)))


def earle_psi(phi: Endo) -> QVector:
    """Earle's cocycle as an exact rational vector: ``psi_numerators`` over 2g - 2.

    Restricts to x -> [x] on conjugations and satisfies the twisted
    cocycle identity psi(phi psi') = rho(psi')^-1 psi(phi) + psi(psi').
    """
    den = 2 * phi.group.genus - 2
    return tuple(Fraction(n, den) for n in psi_numerators(phi))
