"""Rank-one cutting-and-stacking transformations with exact arithmetic.

A rank-one construction is driven by a cutting schedule (p_k) and spacer
counts (a_1^(k), ..., a_{p_k}^(k)): the stage-(k+1) column is p_k copies
of the stage-k column with a run of a_j spacer levels inserted above the
j-th copy, so heights satisfy

    h_0 = 1,    h_{k+1} = p_k * h_k + sum_j a_j^(k).

Level widths are 1 / prod(p_i) as exact rationals; mass is left
unnormalized (total mass may exceed 1) because correlation ratios are
normalization-invariant.  A `RankOneSpec` computes its heights and its
per-stage level widths once, on first use, and every query reads them.

Correlations mu(T^m A cap A) for a union A of stage-k levels are pure
combinatorics of the stage-N column word: a stage-k level l occupies the
positions {s + l} where s ranges over the start positions of stage-k
copies inside the stage-N column.  Pair counts

    R(j, delta) = #{(x, y) : x in occ_A, y in occ_B, y - x = delta}

over the stage-j word obey a recursion across one cutting stage (copies
of the stage-(j-1) word sit at known offsets, spacer runs carry no
occurrences), which this module evaluates with exact integers and
memoization, visiting only the copy-offset differences D that keep
|delta - D| inside the stage-(j-1) word; no column word is ever
materialized.  Points whose m-step image leaves the stage-N column are
charged wholly to the error bound m * level_width, which vanishes as N
grows.  Pair counts and set measures are invariant under translating a
level set, so `rigidity_scan` evaluates one bound per translation class
of its sets.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from typing import Iterable, Sequence

__all__ = [
    "RankOneSpec",
    "Tower",
    "LevelSet",
    "BoundedValue",
    "CoefficientEstimate",
    "StageOutOfRange",
    "ShiftOutOfRange",
    "chacon_spec",
    "staircase_spec",
    "historical_chacon_spec",
    "heights",
    "level_width",
    "build_tower",
    "copy_count",
    "occurrence_count",
    "correlation_count",
    "level_correlation",
    "level_measure",
    "weak_limit_estimate",
    "rigidity_scan",
]


class RankOneError(Exception):
    pass


class StageOutOfRange(RankOneError):
    pass


class ShiftOutOfRange(RankOneError):
    pass


@dataclass(frozen=True)
class RankOneSpec:
    """Cutting/spacer schedule: one (p, spacers) pair per stage."""

    stages: tuple[tuple[int, tuple[int, ...]], ...]
    name: str | None = None

    def __post_init__(self):
        if not self.stages:
            raise ValueError("need at least one stage")
        norm = []
        for p, spacers in self.stages:
            p = int(p)
            spacers = tuple(int(a) for a in spacers)
            if p < 2:
                raise ValueError("cutting parameter must be >= 2")
            if len(spacers) != p:
                raise ValueError("need one spacer count per column")
            if any(a < 0 for a in spacers):
                raise ValueError("spacer counts must be nonnegative")
            norm.append((p, spacers))
        object.__setattr__(self, "stages", tuple(norm))

    @property
    def num_stages(self) -> int:
        return len(self.stages)

    @cached_property
    def stage_heights(self) -> tuple[int, ...]:
        """h_0 = 1 and one height per stage, computed once per schedule."""
        hs = [1]
        for p, spacers in self.stages:
            hs.append(p * hs[-1] + sum(spacers))
        return tuple(hs)

    @cached_property
    def stage_widths(self) -> tuple[Fraction, ...]:
        """Level width 1 / (p_0 ... p_{N-1}) of the stage-N tower, for each N."""
        widths = [Fraction(1)]
        copies = 1
        for p, _ in self.stages:
            copies *= p
            widths.append(Fraction(1, copies))
        return tuple(widths)

    @classmethod
    def from_lines(cls, lines: Iterable[str], name: str | None = None) -> "RankOneSpec":
        """Parse the `p: a_1 a_2 ... a_p` one-line-per-stage format."""
        stages = []
        for raw in lines:
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            head, _, tail = line.partition(":")
            p = int(head.strip())
            spacers = tuple(int(x) for x in tail.split())
            stages.append((p, spacers))
        return cls(tuple(stages), name=name)


def chacon_spec(K: int) -> RankOneSpec:
    """K stages of cut-in-3 with a single spacer above the middle column."""
    if K < 1:
        raise ValueError("need K >= 1")
    return RankOneSpec(((3, (0, 1, 0)),) * K, name="chacon")


def staircase_spec(p: int, K: int) -> RankOneSpec:
    """Staircase schedule: spacers (0, 1, ..., p-2, 0) at every stage."""
    if K < 1 or p < 2:
        raise ValueError("need K >= 1 and p >= 2")
    spacers = tuple(range(p - 1)) + (0,)
    return RankOneSpec(((p, spacers),) * K, name=f"staircase:{p}")


def historical_chacon_spec(K: int) -> RankOneSpec:
    """K stages of cut-in-2 with one spacer above the last column.

    This spacer placement yields the classical weak-limit picture along
    h_n (front coefficient 1/2 and geometric ratio-1/2 tail); putting the
    spacer above the first column instead degenerates to an exactly
    periodic base pattern whose h_n-limit is a single power of T.
    """
    if K < 1:
        raise ValueError("need K >= 1")
    return RankOneSpec(((2, (0, 1)),) * K, name="historical")


def heights(spec: RankOneSpec) -> list[int]:
    """h_0 = 1 and one value per constructed stage (exact integers)."""
    return list(spec.stage_heights)


def level_width(spec: RankOneSpec, N: int) -> Fraction:
    if N < 0 or N > spec.num_stages:
        raise StageOutOfRange(f"stage {N} outside 0..{spec.num_stages}")
    return spec.stage_widths[N]


@dataclass(frozen=True)
class Tower:
    stage: int
    height: int
    level_width: Fraction
    total_mass: Fraction
    column_word: str
    spec: RankOneSpec


def build_tower(spec: RankOneSpec, N: int) -> Tower:
    """Materialize the stage-N column word (intended for moderate N)."""
    if N < 0 or N > spec.num_stages:
        raise StageOutOfRange(f"stage {N} outside 0..{spec.num_stages}")
    word = "B"
    for p, spacers in spec.stages[:N]:
        parts = []
        for a in spacers:
            parts.append(word)
            parts.append("S" * a)
        word = "".join(parts)
    w = level_width(spec, N)
    return Tower(
        stage=N,
        height=len(word),
        level_width=w,
        total_mass=len(word) * w,
        column_word=word,
        spec=spec,
    )


@dataclass(frozen=True)
class LevelSet:
    """A union of levels of the stage-k tower, indexed in [0, h_k)."""

    stage: int
    levels: tuple[int, ...]
    description: str = ""

    def __post_init__(self):
        object.__setattr__(self, "levels", tuple(sorted({int(l) for l in self.levels})))
        if not self.levels:
            raise ValueError("level set must be nonempty")


@dataclass(frozen=True)
class BoundedValue:
    value: float
    error_bound: float
    exact: bool


def _stage_offsets(spec: RankOneSpec, hs: Sequence[int]) -> list[tuple[int, ...]]:
    """Start offsets of the p_j copies of the stage-j word inside stage j+1."""
    offsets = []
    for j, (p, spacers) in enumerate(spec.stages):
        c = [0]
        for t in range(1, p):
            c.append(c[-1] + hs[j] + spacers[t - 1])
        offsets.append(tuple(c))
    return offsets


class _PairCountEngine:
    """Exact cross-pair counts between two level sets of the stage-k tower.

    count(j, delta) = number of position pairs (x, y) in the stage-j
    column word with trace(x) in A, trace(y) in B and y - x = delta.
    """

    def __init__(self, spec: RankOneSpec, k: int, levels_a: Sequence[int], levels_b: Sequence[int]):
        self.spec = spec
        self.k = k
        self.hs = spec.stage_heights
        # offset-difference multisets per stage, for collapsing copy pairs:
        # the sorted differences D and, in parallel, their multiplicities
        self.delta_multisets: list[tuple[tuple[int, ...], tuple[int, ...]]] = []
        for c in _stage_offsets(spec, self.hs):
            ctr = sorted(Counter(ct - cr for cr in c for ct in c).items())
            self.delta_multisets.append((tuple(d for d, _ in ctr), tuple(n for _, n in ctr)))
        base = Counter(b - a for a in levels_a for b in levels_b)
        self._memo: dict[tuple[int, int], int] = {
            (k, d): int(c) for d, c in base.items()
        }

    def count(self, j: int, delta: int) -> int:
        if abs(delta) >= self.hs[j]:
            return 0
        if j == self.k:
            return self._memo.get((j, delta), 0)
        key = (j, delta)
        hit = self._memo.get(key)
        if hit is not None:
            return hit
        h_prev = self.hs[j - 1]
        ds, mults = self.delta_multisets[j - 1]
        # only differences with |delta - D| < h_prev meet the stage-(j-1) word
        lo = bisect_right(ds, delta - h_prev)
        hi = bisect_left(ds, delta + h_prev, lo)
        total = 0
        for i in range(lo, hi):
            total += mults[i] * self.count(j - 1, delta - ds[i])
        self._memo[key] = total
        return total


def _engine(spec: RankOneSpec, k: int, levels_a: Sequence[int], levels_b: Sequence[int]) -> _PairCountEngine:
    # pair counts are invariant under joint translation of both level sets
    shift = min(min(levels_a), min(levels_b))
    a = tuple(sorted(l - shift for l in levels_a))
    b = tuple(sorted(l - shift for l in levels_b))
    return _cached_engine(spec.stages, k, a, b)


@lru_cache(maxsize=256)
def _cached_engine(stages: tuple, k: int, a: tuple[int, ...], b: tuple[int, ...]) -> _PairCountEngine:
    return _PairCountEngine(RankOneSpec(stages), k, a, b)


def _check_level_set(spec: RankOneSpec, A: LevelSet, N: int, hs: Sequence[int]) -> None:
    if A.stage < 0 or A.stage > N or N > spec.num_stages:
        raise StageOutOfRange(f"need 0 <= set stage {A.stage} <= N {N} <= {spec.num_stages}")
    if A.levels[-1] >= hs[A.stage]:
        raise ValueError("level index outside the stage's tower")


def copy_count(spec: RankOneSpec, k: int, N: int) -> int:
    """Number of stage-k copies inside the stage-N column."""
    c = 1
    for p, _ in spec.stages[k:N]:
        c *= p
    return c


def occurrence_count(spec: RankOneSpec, N: int, A: LevelSet) -> int:
    """Number of stage-N levels whose trace lies in A."""
    return len(A.levels) * copy_count(spec, A.stage, N)


def correlation_count(
    spec: RankOneSpec, N: int, A: LevelSet, B: LevelSet, m: int
) -> int:
    """#{positions x : trace(x) in A, trace(x+m) in B} in the stage-N word."""
    if A.stage != B.stage:
        raise ValueError("cross-correlation requires a common set stage")
    hs = spec.stage_heights
    _check_level_set(spec, A, N, hs)
    _check_level_set(spec, B, N, hs)
    eng = _engine(spec, A.stage, A.levels, B.levels)
    return eng.count(N, m)


def level_correlation(spec: RankOneSpec, N: int, A: LevelSet, m: int) -> BoundedValue:
    """mu(T^m A cap A) with the in-tower count exact and the top window
    (positions whose m-step image leaves stage-N knowledge) charged to
    error_bound = m * level_width."""
    hs = spec.stage_heights
    _check_level_set(spec, A, N, hs)
    if m < 0 or m >= hs[N]:
        raise ShiftOutOfRange(f"need 0 <= m < h_N = {hs[N]}")
    w = spec.stage_widths[N]
    if m == 0:
        mass = occurrence_count(spec, N, A) * w
        return BoundedValue(value=float(mass), error_bound=0.0, exact=True)
    count = correlation_count(spec, N, A, A, m)
    return BoundedValue(value=float(count * w), error_bound=float(m * w), exact=False)


def level_measure(spec: RankOneSpec, N: int, A: LevelSet) -> Fraction:
    return occurrence_count(spec, N, A) * level_width(spec, N)


@dataclass(frozen=True)
class CoefficientEstimate:
    """Weight of the j-step lagged component of the weak limit along h_n."""

    index: int
    value: float
    spread: float
    error_bound: float


def weak_limit_estimate(
    spec: RankOneSpec,
    A: LevelSet,
    n_start: int,
    n_stop: int,
    j_max: int,
    margin: int = 12,
) -> list[CoefficientEstimate]:
    """Coefficients of the weak limit of T^{h_n}, estimated on a level set.

    For a single level A of a stage k with h_k much larger than j_max the
    sets T^j A, 0 <= j <= j_max, are pairwise disjoint, so

        a_j(n) = mu(T^{h_n + j} A cap A) / mu(A)

    isolates the weight of the component lagging j levels behind the main
    return.  Each a_j is reported at n = n_stop together with the spread
    (max - min) across n as an instability indicator.  The working stage
    is N = n_stop + margin; the margin keeps the top-window error bound
    small relative to mu(A).
    """
    if n_start > n_stop or n_start < 0:
        raise ValueError("need 0 <= n_start <= n_stop")
    if j_max < 0:
        raise ValueError("j_max must be nonnegative")
    hs = spec.stage_heights
    N = n_stop + margin
    if N > spec.num_stages:
        raise StageOutOfRange(
            f"need {N} stages for range {n_start}..{n_stop} with margin {margin}"
        )
    if hs[A.stage] <= 4 * (j_max + 1):
        raise ValueError("level-set stage too coarse for the requested j window")
    mu = level_measure(spec, N, A)
    out = []
    for j in range(j_max + 1):
        vals = []
        err = 0.0
        for n in range(n_start, n_stop + 1):
            bv = level_correlation(spec, N, A, hs[n] + j)
            vals.append(bv.value / float(mu))
            err = max(err, bv.error_bound / float(mu))
        out.append(
            CoefficientEstimate(
                index=j,
                value=vals[-1],
                spread=max(vals) - min(vals),
                error_bound=err,
            )
        )
    return out


def rigidity_scan(
    spec: RankOneSpec,
    shifts: Sequence[int],
    sets: Sequence[LevelSet],
    N: int | None = None,
) -> float:
    """Certified rigidity lower bound witnessed by the given shifts/sets.

    Returns min over sets of max over shifts of (value - error)/mu(A);
    every shift must be positive (m = 0 would trivially certify 1).  Both
    value and mu(A) are invariant under translating A's levels, so the
    bound is evaluated once per class (stage, levels - min(levels)); every
    set is still checked against its tower.
    """
    if N is None:
        N = spec.num_stages
    if not shifts or not sets:
        raise ValueError("need at least one shift and one set")
    if any(m <= 0 for m in shifts):
        raise ShiftOutOfRange("rigidity shifts must be positive")
    bounds: dict[tuple[int, tuple[int, ...]], float] = {}
    for A in sets:
        key = (A.stage, tuple(l - A.levels[0] for l in A.levels))
        if key in bounds:
            _check_level_set(spec, A, N, spec.stage_heights)
            continue
        mu = float(level_measure(spec, N, A))
        best = -float("inf")
        for m in shifts:
            bv = level_correlation(spec, N, A, m)
            best = max(best, (bv.value - bv.error_bound) / mu)
        bounds[key] = best
    return min(bounds.values())
