"""Certified error bounds for tensor complementarity problems with P-tensors.

The tensor complementarity problem TCP(q, A) asks for ``z >= 0`` with
``w = A z^{m-1} + q >= 0`` and ``z . w = 0``.  This package solves desk-scale
instances, certifies the P-property quantitatively through the coefficient
``alpha``, and computes two-sided bounds on how far any test point ``u`` is
from a verified solution, including a sharpened sandwich that is provably
never looser than the classical residual bound on the upper side.
"""

from . import bounds, errors, io, operators, solve, tensor
from .bounds import *
from .errors import *
from .io import *
from .operators import *
from .solve import *
from .tensor import *

__version__ = "0.1.0"

# Each submodule's __all__ is the one declaration of its public names.
__all__ = ["__version__"]
__all__ += tensor.__all__
__all__ += operators.__all__
__all__ += solve.__all__
__all__ += bounds.__all__
__all__ += io.__all__
__all__ += errors.__all__
