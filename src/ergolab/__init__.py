"""ergolab: exact-arithmetic workbench for measure-preserving systems.

Builds rank-one cutting-and-stacking maps, the dyadic-odometer Z2 skew
product, and primitive substitution subshifts; computes correlation and
spectral coefficients with rigorous error bounds, rigidity constants,
and quasi-analyticity singularity certificates for weak-limit
coefficient sequences.

The four library modules `substitution`, `rankone`, `skew` and
`spectral` load on the first read of one of their attributes, so a CLI
process loads only the module its command reads.  Names are imported
from their modules (`from ergolab.substitution import Substitution`);
the package holds only what the four share: `BoundedValue`, and the
rules `_integer` and `_real` that read every number a library call takes.
"""

import importlib.util
import sys
from math import isfinite
from operator import index
from typing import NamedTuple

__version__ = "0.1.0"


def _integer(what: str, x) -> int:
    """x as an int; a value that is no integer (a float, a string) raises
    ValueError naming it rather than being truncated."""
    try:
        return index(x)
    except TypeError:
        raise ValueError(f"{what} {x!r} is not an integer") from None


def _integers(what: str, xs) -> list[int]:
    """Index keys as ints: each by `_integer`, a str by int() as JSON spells it; bulk when all are ints."""
    try:
        return list(map(index, xs))
    except TypeError:
        return [int(x) if isinstance(x, str) else _integer(what, x) for x in xs]


def _real(what: str, x, error: type[Exception] = ValueError) -> float:
    """x as a finite float; a bool, str, None, non-number, non-finite x or one
    with no float raises `error` naming it."""
    try:
        if x is not None and not isinstance(x, (bool, str)) and isfinite(x):
            return float(x)
    except TypeError:
        pass
    except OverflowError:  # no repr: str() of an int past 4,300 digits raises
        raise error(f"{what} must be a finite number, got a number too large for a float") from None
    raise error(f"{what} must be a finite number, got {x!r}")


class BoundedValue(NamedTuple):
    value: float
    error_bound: float

    @property
    def exact(self) -> bool:
        return self.error_bound == 0


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
