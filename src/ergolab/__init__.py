"""ergolab: exact-arithmetic workbench for measure-preserving systems.

Builds rank-one cutting-and-stacking maps, the dyadic-odometer Z2 skew
product, and primitive substitution subshifts; computes correlation and
spectral coefficients with rigorous error bounds, rigidity constants,
and quasi-analyticity singularity certificates for weak-limit
coefficient sequences.
"""

from .substitution import (
    Substitution,
    PerronData,
    RigidityConstant,
    RUDIN_SHAPIRO,
    THREE_LETTER,
    composition_matrix,
    is_primitive,
    perron,
    fixed_point_prefix,
    pair_substitution,
    block_frequencies,
    rigidity_constant,
    empirical_correlation,
)
from .rankone import (
    RankOneSpec,
    Tower,
    LevelSet,
    BoundedValue,
    chacon_spec,
    staircase_spec,
    historical_chacon_spec,
    heights,
    build_tower,
    level_correlation,
    weak_limit_estimate,
    rigidity_scan,
)
from .skew import (
    DyadicInterval,
    DyadicStep,
    SkewSystem,
    odometer_map,
    mn_cocycle,
    cocycle_sum,
    skew_correlation,
    spectral_coefficient,
    rigidity_sequence,
    FIRST_DIGIT_SIGN,
    CONSTANT_ONE,
)
from .spectral import (
    CorrelationSequence,
    TailDescriptor,
    WeakLimitCoefficients,
    BeurlingReport,
    wiener_discrete_mass,
    rajchman_probe,
    translation_probe,
    beurling_check,
    singularity_certificate,
)

__version__ = "0.1.0"
