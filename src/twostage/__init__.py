"""Two-stage submodular maximization with randomized greedy reduction.

Reduce a ground set of n items to l representatives so that, for every
function in a family, the best size-k subset of the reduced set stays close
to the best size-k subset of everything.  The solver combines per-round
candidate sampling with local-search absorption and trimming; exact
enumeration references and an experiment harness verify its guarantees on
desk-scale instances.
"""

from . import exceptions, functions, instances, local_search, solver, reference, harness
from .exceptions import *
from .functions import *
from .instances import *
from .local_search import *
from .solver import *
from .reference import *
from .harness import *

__version__ = "0.1.0"

# Each module lists its public names once, in its own __all__.
__all__ = [
    *exceptions.__all__,
    *functions.__all__,
    *instances.__all__,
    *local_search.__all__,
    *solver.__all__,
    *reference.__all__,
    *harness.__all__,
    "__version__",
]
