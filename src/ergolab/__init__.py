"""ergolab: exact-arithmetic workbench for measure-preserving systems.

Builds rank-one cutting-and-stacking maps, the dyadic-odometer Z2 skew
product, and primitive substitution subshifts; computes correlation and
spectral coefficients with rigorous error bounds, rigidity constants,
and quasi-analyticity singularity certificates for weak-limit
coefficient sequences.

The four library modules `substitution`, `rankone`, `skew` and
`spectral` are registered here as lazy modules
(`importlib.util.LazyLoader`): each one runs on the first access to one
of its attributes, so `import ergolab` and `import ergolab.cli` load
none of them and a CLI process loads only the module its command
reads.  Once loaded, a module is a plain module again.  The names listed
in `_EXPORTS` are served from their modules on first access
(`ergolab.Substitution is ergolab.substitution.Substitution`).
"""

import importlib.util
import sys

_EXPORTS = {
    "substitution": (
        "Substitution", "PerronData", "RigidityConstant", "RUDIN_SHAPIRO", "THREE_LETTER",
        "composition_matrix", "is_primitive", "perron", "fixed_point_prefix", "pair_substitution",
        "block_frequencies", "rigidity_constant", "empirical_correlation",
    ),
    "rankone": (
        "RankOneSpec", "Tower", "LevelSet", "BoundedValue", "chacon_spec", "staircase_spec",
        "historical_chacon_spec", "heights", "build_tower", "level_correlation",
        "weak_limit_estimate", "rigidity_scan",
    ),
    "skew": (
        "DyadicInterval", "DyadicStep", "SkewSystem", "odometer_map", "mn_cocycle", "cocycle_sum",
        "skew_correlation", "spectral_coefficient", "rigidity_sequence", "FIRST_DIGIT_SIGN",
        "CONSTANT_ONE",
    ),
    "spectral": (
        "CorrelationSequence", "TailDescriptor", "WeakLimitCoefficients", "BeurlingReport",
        "wiener_discrete_mass", "rajchman_probe", "translation_probe", "beurling_check",
        "singularity_certificate",
    ),
}
_ORIGIN = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = [*_EXPORTS, *_ORIGIN]
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


globals().update({name: _lazy_module(name) for name in _EXPORTS})


def __getattr__(name: str):
    """PEP 562 hook: serve a re-exported name from its module, once."""
    if name not in _ORIGIN:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(globals()[_ORIGIN[name]], name)
    return value
