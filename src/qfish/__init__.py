"""qfish: exact q-series computations for the torus knots T(3, 2^t).

Truncated Laurent series and cyclotomic integers over exact integers carry
the Kontsevich-Zagier series, the colored Jones polynomial, generalized
Fishburn numbers, their prime-power congruences, and the finite q-series
identities connecting them.
"""

# Each module names its exports in its own __all__, and this file only gathers
# them; each star import also binds its submodule, which __all__ below reads.
from .backend import *
from .cyclotomic import *
from .fishburn import *
from .identities import *
from .qseries import *
from .series import *
from .torus import *

__version__ = "0.1.0"

__all__ = sorted(backend.__all__ + cyclotomic.__all__ + fishburn.__all__ + identities.__all__
                 + qseries.__all__ + series.__all__ + torus.__all__)
