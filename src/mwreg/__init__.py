"""Low-rank ridge regression between multiway arrays.

Predicts a response array of any order from a predictor array via a
contracted tensor product with a CP-factorized, ridge-penalized
coefficient array.  Fitting is by penalized alternating least squares,
uncertainty comes from a Gibbs sampler over the matching posterior, and a
simulation harness evaluates estimation procedures over seeded factorial
designs.

The public API is each library module's own ``__all__``, republished here.
"""

# each star import also binds the submodule's name, read in __all__ below
from .tensors import *
from .coefficients import *
from .fitting import *
from .posterior import *
from .simulation import *
from .fileio import *

__version__ = "0.1.0"

__all__ = []
__all__ += tensors.__all__
__all__ += coefficients.__all__
__all__ += fitting.__all__
__all__ += posterior.__all__
__all__ += simulation.__all__
__all__ += fileio.__all__
__all__ += ["__version__"]
