"""ergolab: exact-arithmetic workbench for measure-preserving systems.

Builds rank-one cutting-and-stacking maps, the dyadic-odometer Z2 skew
product, and primitive substitution subshifts; computes correlation and
spectral coefficients with rigorous error bounds, rigidity constants,
and quasi-analyticity singularity certificates for weak-limit
coefficient sequences.

The four library modules `substitution`, `rankone`, `skew` and
`spectral` load on the first read of one of their attributes, so a CLI
process loads only the module its command reads.  Names are imported
from their modules (`from ergolab.substitution import Substitution`).
"""

import importlib.util
import sys

__version__ = "0.1.0"


def _lazy_module(name: str):
    """The submodule `name`, registered to run on its first attribute access
    (or the module itself when it is already imported)."""
    fullname = f"{__name__}.{name}"
    if fullname in sys.modules:
        return sys.modules[fullname]
    spec = importlib.util.find_spec(fullname)
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[fullname] = module
    spec.loader.exec_module(module)
    return module


globals().update({name: _lazy_module(name) for name in ("substitution", "rankone", "skew", "spectral")})
