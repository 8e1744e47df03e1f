"""Exact twisted 1-cocycles on mapping class groups of marked surfaces.

The package computes, in exact integer and rational arithmetic, the
homology-valued twisted 1-cocycles of Morita and of Earle on the mapping
class group of a closed genus-g surface with a marked point, for group
elements presented as automorphisms (or zeta-conjugating endomorphisms)
of the surface group.  Each module declares its public names in its own
``__all__``, and the package republishes them.
"""

from . import earle, endomorphism, freegroup, homology, morita
from .freegroup import *
from .homology import *
from .endomorphism import *
from .morita import *
from .earle import *

__version__ = "0.1.0"

__all__ = freegroup.__all__ + homology.__all__ + endomorphism.__all__ + morita.__all__ + earle.__all__
