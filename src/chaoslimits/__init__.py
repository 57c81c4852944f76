"""chaoslimits: which probability laws can arise as limits of Wiener chaos.

A small numpy/scipy toolkit in three layers:

- ``chaos``: sparse symmetric kernels over R^d, multiple integrals, the
  product formula, Malliavin inner products and an exact Wick moment oracle;
- ``targets``: diffusion invariant measures on an interval, their second-order
  Stein coefficients, Stein equation solutions and the moment ladder;
- ``diagnostics`` / ``simulate``: fourth-moment style diagnostics deciding
  which target laws a chaos sequence can approach, and an Euler--Maruyama
  sampler with distribution distances to check targets empirically.

``cli`` exposes the same capabilities as the ``chaoslimits`` command.
"""

from . import chaos, targets, diagnostics, simulate, io

# each module's __all__ is the one list of its public names; the package's is
# their join, taken before ``from .simulate import *`` rebinds ``simulate``
__all__ = [*chaos.__all__, *targets.__all__, *diagnostics.__all__, *simulate.__all__,
           *io.__all__]

from .chaos import *  # noqa: E402,F403
from .targets import *  # noqa: E402,F403
from .diagnostics import *  # noqa: E402,F403
from .simulate import *  # noqa: E402,F403
from .io import *  # noqa: E402,F403

__version__ = "0.1.0"
