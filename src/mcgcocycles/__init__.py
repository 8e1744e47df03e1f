"""Exact twisted 1-cocycles on mapping class groups of marked surfaces.

The package computes, in exact integer and rational arithmetic, the
homology-valued twisted 1-cocycles of Morita and of Earle on the mapping
class group of a closed genus-g surface with a marked point, for group
elements presented as automorphisms (or zeta-conjugating endomorphisms)
of the surface group.
"""

from .freegroup import FreeGroup, Word, commutator, conjugator, random_word
from .homology import (
    Matrix,
    Vector,
    abelianize,
    dual,
    induced_matrix,
    intersection,
    is_symplectic,
    mat_vec,
    symplectic_inverse,
)
from .endomorphism import (
    Auto,
    Endo,
    MembershipError,
    NWitness,
    compose,
    from_mapping,
    identity_auto,
    in_M_g1,
    in_N,
    inner,
    jablow,
    load_automorphism,
    random_element,
    require_membership,
    save_automorphism,
    to_mapping,
    twist_catalog,
    zeta_power_exponent,
)
from .morita import d, f_tilde, f_tilde_at, morita_f
from .earle import QVector, a0, coboundary_a0, earle_psi, over_canonical_denominator

__version__ = "0.1.0"

__all__ = [
    "FreeGroup",
    "Word",
    "commutator",
    "conjugator",
    "random_word",
    "Matrix",
    "Vector",
    "abelianize",
    "dual",
    "induced_matrix",
    "intersection",
    "is_symplectic",
    "mat_vec",
    "symplectic_inverse",
    "Auto",
    "Endo",
    "MembershipError",
    "NWitness",
    "compose",
    "from_mapping",
    "identity_auto",
    "in_M_g1",
    "in_N",
    "inner",
    "jablow",
    "load_automorphism",
    "random_element",
    "require_membership",
    "save_automorphism",
    "to_mapping",
    "twist_catalog",
    "zeta_power_exponent",
    "d",
    "f_tilde",
    "f_tilde_at",
    "morita_f",
    "QVector",
    "a0",
    "coboundary_a0",
    "earle_psi",
    "over_canonical_denominator",
]
