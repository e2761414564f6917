"""Numerical toolkit for the correspondence between exponentially decaying
recursion coefficients and analytic spectral data.

Converts between recursion coefficients (Jacobi parameters on the line,
Verblunsky coefficients on the circle) and the analytic objects carrying
the same information: the Szego function, the Jost function, approximating
densities, and paraorthogonal point measures; plus estimators and
verification suites for the decay-analyticity radius relationships.
"""

__version__ = "0.1.0"

from . import analysis, errors, jost, measures, oprl, opuc, series, szego
from .analysis import *
from .errors import *
from .jost import *
from .measures import *
from .oprl import *
from .opuc import *
from .series import *
from .szego import *

# each module's __all__ is the one list of its public names
_modules = (analysis, errors, jost, measures, oprl, opuc, series, szego)
__all__ = [m.__name__.rpartition(".")[2] for m in _modules]
__all__ += [name for m in _modules for name in m.__all__]
del _modules
