"""Rank-one cutting-and-stacking transformations with exact arithmetic.

A rank-one construction is driven by a cutting schedule (p_k) and spacer
counts (a_1^(k), ..., a_{p_k}^(k)): the stage-(k+1) column is p_k copies
of the stage-k column with a run of a_j spacer levels inserted above the
j-th copy, so heights satisfy

    h_0 = 1,    h_{k+1} = p_k * h_k + sum_j a_j^(k).

Level widths w_N = 1 / (p_0 ... p_{N-1}) are exact rationals, and mass is
left unnormalized because correlation ratios are normalization-invariant.
A set A of stage-k levels has mu(A) = |A| * w_k in every stage-N tower,
and each public call first checks 0 <= k <= N <= K and A's levels in
[0, h_k).  `level_width` and `level_measure` return `Fraction`s; a
correlation value is an integer count over the stage-N copy count,
rounded once by int/int true division (correctly rounded in CPython, as
`float(Fraction)` is).

Correlations mu(T^m A cap A) for a union A of stage-k levels are pure
combinatorics of the stage-N column word: a stage-k level l occupies the
positions {s + l} where s ranges over the start positions of stage-k
copies inside the stage-N column.  Pair counts

    R(j, delta) = #{(x, y) : x in occ_A, y in occ_B, y - x = delta}

over the stage-j word obey a recursion across one cutting stage (copies
of the stage-(j-1) word sit at known offsets, spacer runs carry no
occurrences), which this module evaluates with exact integers,
visiting only the copy-offset differences D that keep |delta - D| inside
the stage-(j-1) word; no column word is ever materialized.  s equal
stages compose into one (a rank-one column is an S-adic word; Ferenczi,
"Systems of finite rank", 1997): the stage-j copies inside stage j+s
start at C h_j + E with (C, E) independent of h_j, so a sweep jumps
over each run of equal stages with one difference pattern per (stage, s).
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from fractions import Fraction
from functools import cached_property
from itertools import accumulate
from operator import add, mul, sub
from typing import Iterable, NamedTuple, Sequence

from . import BoundedValue, _integer


class RankOneError(Exception):
    pass


class StageOutOfRange(RankOneError):
    pass


class ShiftOutOfRange(RankOneError):
    pass


# most stage-j copies one jump of `_pair_counts` spans, and the largest E it
# lets a copy have: a multiplicity (at most the copy count) fits a kernel's
# byte, and a kernel spans at most 2 * 81 + 1 slots
_COPY_CAP = 81
# most lanes whose sweep jumps, a lane per run of consecutive shifts: a kernel
# product grows with the square of the slot (lane bits * lanes), a per-stage
# step linearly
_JUMP_BATCH = 5


def _checked_stage(p: int, spacers: Iterable[int]) -> tuple[int, tuple[int, ...]]:
    p, spacers = _integer("cutting parameter", p), tuple(_integer("spacer count", a) for a in spacers)
    if p < 2:
        raise ValueError("cutting parameter must be >= 2")
    if len(spacers) != p:
        raise ValueError("need one spacer count per column")
    if any(a < 0 for a in spacers):
        raise ValueError("spacer counts must be nonnegative")
    return p, spacers


class RankOneSpec:
    """Cutting/spacer schedule: one (p, spacers) pair per stage."""

    def __init__(self, stages: Sequence[tuple[int, Sequence[int]]], name: str | None = None):
        if not stages:
            raise ValueError("need at least one stage")
        self.stages = tuple(_checked_stage(p, spacers) for p, spacers in stages)
        self.name = name
        self._stage_diffs: dict[int, tuple[list[int], list[int]]] = {}
        self._patterns: dict[tuple, _Pattern | None] = {}
        self._plans: dict[tuple[int, int, bool], list[tuple]] = {}

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
    def stage_copies(self) -> tuple[int, ...]:
        """p_0 ... p_{N-1}, the copies of the stage-0 level in the stage-N
        column (the inverse level width), for each N."""
        return tuple(accumulate((p for p, _ in self.stages), mul, initial=1))

    def stage_differences(self, j: int) -> tuple[list[int], list[int]]:
        """The sorted differences between the start offsets of the p_j stage-j
        copies inside stage j+1, and their multiplicities, built on the first
        call for stage j and kept."""
        diffs = self._stage_diffs.get(j)
        if diffs is None:
            h, (_, spacers) = self.stage_heights[j], self.stages[j]
            offsets = list(accumulate((h + a for a in spacers[:-1]), initial=0))
            ds, mults = _differences(offsets, offsets, self.stage_heights[j + 1])
            diffs = self._stage_diffs[j] = ds, [mults[d] for d in ds]
        return diffs

    def jump_pattern(self, j: int, s: int) -> _Pattern | None:
        """The copy-offset differences of s stages equal to stage j (a
        `_Pattern`), or None where a copy's E exceeds `_COPY_CAP`, built on
        the first call for that stage and s and kept."""
        key = self.stages[j], s
        if key not in self._patterns:
            self._patterns[key] = _copy_pattern(*key)
        return self._patterns[key]

    def jump_plan(self, k: int, N: int, compose: bool) -> list[tuple]:
        """The jumps (j, s, firsts, lasts, kernels) of a sweep from stage N
        down to k, top first, built once per (k, N, compose) and kept.  s is
        the most equal stages j .. j+s-1 with p^s <= `_COPY_CAP` whose
        pattern exists and has disjoint clusters at h_j, or 1 (always 1
        unless `compose`).  The jump's differences D lie in the sorted
        clusters firsts[i] <= D <= lasts[i]; at s = 1 these are
        `stage_differences(j)`, firsts = lasts, with kernels the
        multiplicities, and at s > 1 kernels is the `_Pattern`."""
        plan = self._plans.get((k, N, compose))
        if plan is None:
            plan, J = [], N
            while J > k:
                s = 1
                if compose:
                    stage = self.stages[J - 1]
                    while J - s > k and self.stages[J - s - 1] == stage and stage[0] ** (s + 1) <= _COPY_CAP:
                        s += 1
                    while s > 1:
                        pattern = self.jump_pattern(J - s, s)
                        if pattern is not None and pattern.gap <= self.stage_heights[J - s]:
                            break
                        s -= 1
                J -= s
                if s == 1:
                    ds, mults = self.stage_differences(J)
                    plan.append((J, 1, ds, ds, mults))
                else:
                    h = self.stage_heights[J]
                    cs = range(pattern.cs.start * h, pattern.cs.stop * h, h)
                    plan.append((J, s, list(map(add, cs, pattern.los)), list(map(add, cs, pattern.his)), pattern))
            self._plans[k, N, compose] = plan
        return plan

    @classmethod
    def from_lines(cls, lines: Iterable[str], name: str | None = None) -> "RankOneSpec":
        """Parse the `p: a_1 a_2 ... a_p` one-line-per-stage format."""
        stages = []
        for n, raw in enumerate(lines, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            head, _, tail = line.partition(":")
            try:
                stage = int(head), [int(x) for x in tail.split()]
            except ValueError:
                raise ValueError(f"line {n}: expected 'p: a_1 ... a_p', got {raw!r}") from None
            try:
                stages.append(_checked_stage(*stage))
            except ValueError as exc:
                raise ValueError(f"line {n}: {exc}") from None
        return cls(tuple(stages), name=name)


def chacon_spec(K: int) -> RankOneSpec:
    """K stages of cut-in-3 with a single spacer above the middle column."""
    return RankOneSpec(((3, (0, 1, 0)),) * _integer("stage count", K), name="chacon")


def staircase_spec(p: int, K: int) -> RankOneSpec:
    """Staircase schedule: spacers (0, 1, ..., p-2, 0) at every stage."""
    spacers = tuple(range(_integer("cutting parameter", p) - 1)) + (0,)
    return RankOneSpec(((p, spacers),) * _integer("stage count", K), name=f"staircase:{p}")


def historical_chacon_spec(K: int) -> RankOneSpec:
    """K stages of cut-in-2 with one spacer above the last column.

    This spacer placement yields the classical weak-limit picture along
    h_n (front coefficient 1/2 and geometric ratio-1/2 tail); putting the
    spacer above the first column instead degenerates to an exactly
    periodic base pattern whose h_n-limit is a single power of T.
    """
    return RankOneSpec(((2, (0, 1)),) * _integer("stage count", K), name="historical")


def heights(spec: RankOneSpec) -> list[int]:
    """h_0 = 1 and one value per constructed stage (exact integers)."""
    return list(spec.stage_heights)


def level_width(spec: RankOneSpec, N: int) -> Fraction:
    if not 0 <= _integer("stage", N) <= spec.num_stages:
        raise StageOutOfRange(f"stage {N} outside 0..{spec.num_stages}")
    return Fraction(1, spec.stage_copies[N])


class Tower(NamedTuple):
    height: int
    level_width: Fraction
    total_mass: Fraction
    column_word: str


def build_tower(spec: RankOneSpec, N: int) -> Tower:
    """Materialize the stage-N column word (intended for moderate N)."""
    w = level_width(spec, N)
    word = "B"
    for p, spacers in spec.stages[:N]:
        parts = []
        for a in spacers:
            parts.append(word)
            parts.append("S" * a)
        word = "".join(parts)
    return Tower(
        height=len(word),
        level_width=w,
        total_mass=len(word) * w,
        column_word=word,
    )


class LevelSet:
    """A union of levels of the stage-k tower, indexed in [0, h_k)."""

    __slots__ = ("stage", "levels")

    def __init__(self, stage: int, levels: Iterable[int]):
        self.stage = _integer("set stage", stage)
        self.levels = tuple(sorted({_integer("level", l) for l in levels}))
        if not self.levels:
            raise ValueError("level set must be nonempty")


def _differences(xs: Sequence[int], ys: Sequence[int], h: int) -> tuple[list[int], dict[int, int]]:
    """The sorted lags d = y - x over the pairs (x, y) in xs x ys, for
    points in [0, h), and a dict of each lag's pair count (never zero).

    Pairs that do not outnumber the 2h - 1 lags are counted one by one;
    otherwise the counts are read off one big-int product of the indicator
    strings, xs' reversed: slot h - 1 + d holds the count at d, and no slot
    exceeds min(|xs|, |ys|), so slots of that many whole bytes never carry.
    """
    if len(xs) * len(ys) < 2 * h:
        counts: dict[int, int] = {}
        get = counts.get
        for x in xs:
            for y in ys:
                d = y - x
                counts[d] = get(d, 0) + 1
        return sorted(counts), counts
    w = (min(len(xs), len(ys)).bit_length() + 7) // 8
    ix, iy = bytearray(h * w), bytearray(h * w)
    for x in xs:
        ix[(h - 1 - x) * w] = 1
    for y in ys:
        iy[y * w] = 1
    prod = (int.from_bytes(ix, "little") * int.from_bytes(iy, "little")).to_bytes((2 * h - 1) * w, "little")
    vals = prod if w == 1 else [int.from_bytes(prod[i : i + w], "little") for i in range(0, len(prod), w)]
    counts = {i - h + 1: c for i, c in enumerate(vals) if c}
    return list(counts), counts  # keys in increasing order


class _Pattern:
    """The differences between the p^s stage-j copies inside stage j+s, for
    s equal stages (p, spacers).  With h_{j+t} = P_t h_j + Q_t, the copy
    with indices i_0, ..., i_{s-1} starts at C h_j + E, C = sum i_t P_t (a
    mixed-radix numeral: one copy per C) and E = sum (i_t Q_t + S_{i_t}),
    S_i = a_1 + ... + a_i; neither depends on h_j.  Cluster i holds the
    differences dC h_j + dE with dC = cs[i], los[i] <= dE <= his[i], and
    byte e of dense[i] the multiplicity at dE = his[i] - e: a count of
    copy pairs, at most one per copy, so at most p^s <= `_COPY_CAP` < 256.
    The clusters are disjoint iff gap <= h_j.  `kernels(slot, whole)` holds
    each cluster's kernel, its bytes packed one per slot, built on the first
    call at that slot and kept: every cluster at once if `whole`, else each
    cluster on its first read (`_Kernels`)."""

    __slots__ = ("cs", "los", "his", "dense", "gap", "_kernels")

    def __init__(self, cs: range, los: list[int], his: list[int], dense: list[bytes]):
        self.cs, self.los, self.his, self.dense = cs, los, his, dense
        self.gap = max(map(sub, his, los[1:])) + 1
        self._kernels: dict[int, list[int] | _Kernels] = {}

    def kernels(self, slot: int, whole: bool) -> list[int] | _Kernels:
        kernels = self._kernels.get(slot)
        if kernels is None:
            if whole:
                n = slot // 8
                buf = bytearray(sum(map(len, self.dense)) * n)
                buf[::n] = b"".join(self.dense)
                ends = list(accumulate((len(d) * n for d in self.dense), initial=0))
                kernels = [int.from_bytes(buf[a:b], "little") for a, b in zip(ends, ends[1:])]
            else:
                kernels = _Kernels(self.dense, slot)
            self._kernels[slot] = kernels
        return kernels


class _Kernels(dict):
    """Cluster index -> kernel at one slot width, each cluster packed on its
    first read and kept."""

    __slots__ = ("dense", "n")

    def __init__(self, dense: list[bytes], slot: int):
        self.dense, self.n = dense, slot // 8

    def __missing__(self, i: int) -> int:
        n, dense = self.n, self.dense[i]
        buf = bytearray(len(dense) * n)
        buf[::n] = dense
        kernel = self[i] = int.from_bytes(buf, "little")
        return kernel


def _copy_pattern(stage: tuple[int, tuple[int, ...]], s: int) -> _Pattern | None:
    """The `_Pattern` of s stages equal to `stage`, or None if a copy's E
    exceeds `_COPY_CAP`.  The multiplicities are the coefficients of the
    product over t < s of the sums over index pairs (i, i') of
    x^((i' - i) P_t) y^((i' - i) Q_t + S_i' - S_i), kept in one int with
    x^dC y^dE in byte (P - 1 + dC) W + E' + dE (P = p^s, E' = max E,
    W = 2 E' + 1): p^2 shift-and-adds per factor, and no byte carries,
    since every partial coefficient counts copy pairs, < 256."""
    p, spacers = stage
    starts = list(accumulate(spacers[:-1], initial=0))
    Ps, Qs = [1], [0]
    for _ in range(s - 1):
        Ps.append(p * Ps[-1])
        Qs.append(p * Qs[-1] + sum(spacers))
    top = sum((p - 1) * Q + starts[-1] for Q in Qs)
    if top > _COPY_CAP:
        return None
    P, W = p * Ps[-1], 2 * top + 1
    acc = 1  # x^(P - 1) y^top times the polynomial, so every shift is >= 0
    for Pt, Qt in zip(Ps, Qs):
        terms: dict[int, int] = {}
        for i in range(p):
            for i2 in range(p):
                b = 8 * ((i2 - i + p - 1) * (Pt * W + Qt) + starts[i2] - starts[i] + starts[-1])
                terms[b] = terms.get(b, 0) + 1
        acc = sum(m * (acc << b) for b, m in terms.items())
    prod = acc.to_bytes((2 * P - 1) * W, "little")
    cs, los, his, dense = range(1 - P, P), [], [], []
    for r in range(0, len(prod), W):
        row = prod[r : r + W].rstrip(b"\0")
        lo = len(row) - len(row.lstrip(b"\0"))
        los.append(lo - top)
        his.append(len(row) - 1 - top)
        dense.append(row[lo:][::-1])
    return _Pattern(cs, los, his, dense)


def _merged(runs: list[tuple[int, int, int]], slot: int) -> list[tuple[int, int, int]]:
    """Runs (first lag, width, P) sorted by first lag, with the runs that
    overlap or touch added up: one shift-and-add each."""
    if len(runs) < 2:
        return runs
    runs.sort()
    out = []
    first, width, P = runs[0]
    for f, w, Q in runs[1:]:
        if f > first + width:
            out.append((first, width, P))
            first, width, P = f, w, Q
        else:
            P += Q << ((f - first) * slot)
            if f + w > first + width:
                width = f + w - first
    out.append((first, width, P))
    return out


def _pair_counts(
    spec: RankOneSpec, k: int, levels_a: Sequence[int], levels_b: Sequence[int], N: int, shifts: Sequence[int]
) -> list[int]:
    """Stage-N pair counts R(N, m) for each m in shifts, with
    R(j, delta) = #{(x, y) in the stage-j word : trace(x) in A, trace(y) in B, y - x = delta}
    for the stage-k level sets A, B, by one sweep from stage N down to k.

    The sweep carries weights c_j(delta) with R(N, m) = sum over delta of
    c_j(delta) * R(j, delta): c_N is 1 at delta = m, and a jump from stage
    j+s down to j passes each delta's weight to delta - D, times D's
    multiplicity, for every difference D between the start offsets of two
    stage-j copies inside stage j+s with |delta - D| < h_j.  The lags with
    weight form sorted, disjoint runs (first lag, width, P): P packs one
    slot per lag, first + t in slot t, and each slot one B-bit lane per
    lane base, so nearby shifts of a batch share their arithmetic.  At
    stage k the slots are dotted with R(k, d).

    Lanes: a run of consecutive shifts b, b + 1, ..., b + J shares the lane
    of its base b, and shift b + o reads the stage-k dot at lag d + o for
    the lane's weight at d.  Without the clip |delta - D| < h_j the sweep
    commutes with translation (R(j+s, .) is R(j, .) convolved with the
    multiplicities), so the weights of b + o are those of b moved up by o.
    The clip is exact but optional: R(j, delta) = 0 for |delta| >= h_j,
    and every term of the sum is nonnegative, so a term it drops is 0 and
    one it keeps past h_j adds 0.  The lanes therefore keep -h_j - J' <
    delta < h_j, J' the longest run of the batch, which covers the window
    of every shift the lane carries.  A single shift is its own base, with
    J' = 0 and the window |delta| < h_j.

    Jumps (`RankOneSpec.jump_plan`): at s = 1 each run meets each
    difference D with one product, clip and merge.  Over s equal stages
    the differences fall in clusters dC h_j + [lo, hi] whose pattern does
    not depend on h_j (`_Pattern`); where they are disjoint, one jump
    takes the s stages, and a run meets a cluster with one big-int
    product by its kernel (the multiplicities, one per slot).  A kernel
    product grows with the square of the slot, s single stages linearly,
    so only batches of at most `_JUMP_BATCH` lanes jump.  A single-lane
    sweep packs a pattern's kernels at a new slot width all at once: its
    few widths recur from sweep to sweep and its shifts meet clusters all
    over the pattern, so one bulk pack costs less than a pack per cluster
    (`_Kernels`), which a wider sweep uses, meeting only a few clusters
    at a width that may never recur.

    No lane carries into its neighbour, since every lane stays at most
    min(|A|, |B|) * p_k ... p_{N-1} < 2^B, B rounded up to whole bytes.
    Weights: c_j(delta) counts pairs of stage-j copies at one fixed offset
    difference, at most one pair per copy, so c_j(delta) <= p_j ... p_{N-1}
    at every delta, inside the clip window or not.  A lane that a multiply
    by a multiplicity, a kernel product or a merge forms, clipped or not,
    is a partial sum of nonnegative terms that count pairs of stage-j
    copies at one offset difference, each pair at most once, so it obeys
    the same bound.  Final dot: for offset o, the lane of base b is a
    partial sum of R(N, b + o), and R(N, m) <= min(|A|, |B|) * p_k ...
    p_{N-1} since x -> x + m is injective on the stage-N word, which holds
    |A| * p_k ... p_{N-1} positions over A.  Offset o's dot sits J' - o
    slots up, so the J' + 1 dots never carry into each other either.
    """
    hs = spec.stage_heights
    bound = min(len(levels_a), len(levels_b))
    for p, _ in spec.stages[k:N]:
        bound *= p
    lane = (bound.bit_length() + 7) & ~7
    bases, places, span = shifts, ((0, 0),), 0  # each shift's (lane, offset from the lane's base)
    if len(shifts) > 1:
        ms = sorted(set(shifts))
        bases = [m for m, prev in zip(ms, [None, *ms]) if prev != m - 1]
        places = [(t := bisect_right(bases, m) - 1, m - bases[t]) for m in shifts]
        span = max(o for _, o in places)
    slot = lane * len(bases)
    runs = _merged([(b, 1, 1 << (t * lane)) for t, b in enumerate(bases) if -hs[N] - span < b < hs[N]], slot)
    if not runs:
        return [0] * len(shifts)
    whole = len(bases) == 1
    for j, s, firsts, lasts, kernels in spec.jump_plan(k, N, len(bases) <= _JUMP_BATCH):
        if s > 1:
            kernels = kernels.kernels(slot, whole)
        h = hs[j]
        low = -h - span  # the lags kept are low < delta < h
        out = []
        for first, width, P in runs:
            end = first + width
            # only clusters that reach some low < delta - D < h meet the stage-j word
            lo = bisect_right(lasts, first - h)
            for i in range(lo, bisect_left(firsts, end - 1 - low, lo)):
                f, e = first - lasts[i], end - firsts[i]  # the product's lags are f .. e - 1
                Q = P * kernels[i]
                if f <= low:
                    Q >>= (low + 1 - f) * slot
                    f = low + 1
                if e > h:
                    e = h
                    Q &= (1 << ((h - f) * slot)) - 1
                out.append((f, e - f, Q))
        runs = _merged(out, slot)
    lags, counts = _differences(levels_a, levels_b, hs[k])
    nbytes = slot // 8
    window = (span + 1) * nbytes
    acc = 0
    for first, width, P in runs:
        lo = bisect_left(lags, first)
        hi = bisect_left(lags, first + width + span, lo)
        if lo < hi:
            # lag d meets the slots of lags d - span .. d, so offset o's dot sits span - o slots up
            buf = (P << span * slot).to_bytes((width + span) * nbytes, "little")
            for d in lags[lo:hi]:
                o = (d - first) * nbytes
                acc += counts[d] * int.from_bytes(buf[o : o + window], "little")
    ones = (1 << lane) - 1
    return [acc >> ((span - o) * slot + t * lane) & ones for t, o in places]


def _check_level_set(spec: RankOneSpec, A: LevelSet, N: int) -> None:
    if not 0 <= A.stage <= _integer("stage", N) <= spec.num_stages:
        level_width(spec, N)  # an N outside the schedule gets level_width's error
        raise StageOutOfRange(f"need 0 <= set stage {A.stage} <= N {N} <= {spec.num_stages}")
    if A.levels[0] < 0 or A.levels[-1] >= spec.stage_heights[A.stage]:
        raise ValueError("level index outside the stage's tower")


def _check_shifts(spec: RankOneSpec, N: int, shifts: Sequence[int]) -> None:
    hs = spec.stage_heights
    if any(m < 0 or m >= hs[N] for m in shifts):
        raise ShiftOutOfRange(f"need 0 <= m < h_N = {hs[N]}")


def level_measure(spec: RankOneSpec, N: int, A: LevelSet) -> Fraction:
    """mu(A) = |A| * w_k for a set A of stage-k levels, checked against
    the stage-N tower; the stage-N copies of A carry the same mass."""
    _check_level_set(spec, A, N)
    return Fraction(len(A.levels), spec.stage_copies[A.stage])


def correlation_count(
    spec: RankOneSpec, N: int, A: LevelSet, B: LevelSet, m: int
) -> int:
    """#{positions x : trace(x) in A, trace(x+m) in B} in the stage-N word."""
    m = _integer("shift", m)
    if A.stage != B.stage:
        raise ValueError("cross-correlation requires a common set stage")
    _check_level_set(spec, A, N)
    _check_level_set(spec, B, N)
    return _pair_counts(spec, A.stage, A.levels, B.levels, N, [m])[0]


def level_correlation(spec: RankOneSpec, N: int, A: LevelSet, m: int) -> BoundedValue:
    """mu(T^m A cap A) with the in-tower count exact and the top window
    (positions whose m-step image leaves stage-N knowledge) charged to
    error_bound = m * level_width."""
    m = _integer("shift", m)
    _check_level_set(spec, A, N)
    hs = spec.stage_heights
    if m < 0 or m >= hs[N]:
        raise ShiftOutOfRange(f"need 0 <= m < h_N = {hs[N]}")
    copies = spec.stage_copies[N]
    return BoundedValue(value=correlation_count(spec, N, A, A, m) / copies, error_bound=m / copies)


def _level_correlations(spec: RankOneSpec, N: int, A: LevelSet, shifts: Sequence[int]) -> list[BoundedValue]:
    """`level_correlation` for each shift, with the counts of all shifts
    from one pair-count sweep (at m = 0 that count is |A| p_k ... p_{N-1},
    so the value is mu(A) to the bit); the set and every shift are checked
    before any count is made."""
    _check_level_set(spec, A, N)
    _check_shifts(spec, N, shifts)
    copies = spec.stage_copies[N]
    counts = _pair_counts(spec, A.stage, A.levels, A.levels, N, shifts)
    return [BoundedValue(value=c / copies, error_bound=m / copies) for m, c in zip(shifts, counts)]


class CoefficientEstimate(NamedTuple):
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
    if not 0 <= _integer("n_start", n_start) <= _integer("n_stop", n_stop):
        raise ValueError("need 0 <= n_start <= n_stop")
    if _integer("j_max", j_max) < 0:
        raise ValueError("j_max must be nonnegative")
    if _integer("margin", margin) < 1:  # the shifts h_n + j need a tower above stage n_stop
        raise ValueError(f"margin must be at least 1, got {margin}")
    hs = spec.stage_heights
    N = n_stop + margin
    if N > spec.num_stages:
        raise StageOutOfRange(
            f"need {N} stages for range {n_start}..{n_stop} with margin {margin}"
        )
    mu = float(level_measure(spec, N, A))
    if hs[A.stage] <= 4 * (j_max + 1):
        raise ValueError("level-set stage too coarse for the requested j window")
    ns = range(n_start, n_stop + 1)
    bvs = _level_correlations(spec, N, A, [hs[n] + j for j in range(j_max + 1) for n in ns])
    out = []
    for j in range(j_max + 1):
        row = bvs[j * len(ns) : (j + 1) * len(ns)]
        vals = [bv.value / mu for bv in row]
        out.append(
            CoefficientEstimate(
                index=j,
                value=vals[-1],
                spread=max(vals) - min(vals),
                error_bound=max(bv.error_bound / mu for bv in row),
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
    set is still checked against its tower, in bulk: each stage's lowest
    and highest level once, and set by set only where that fails.  The
    errors come in a set-by-set scan's order: the first set's, the
    shifts' against h_N, then the first failing set's.
    """
    if N is None:
        N = spec.num_stages
    shifts = [_integer("shift", m) for m in shifts]
    if not shifts or not sets:
        raise ValueError("need at least one shift and one set")
    if any(m <= 0 for m in shifts):
        raise ShiftOutOfRange("rigidity shifts must be positive")
    _check_level_set(spec, sets[0], N)
    _check_shifts(spec, N, shifts)
    try:
        for stage in {A.stage for A in sets}:
            levels = [A.levels for A in sets if A.stage == stage]
            ends = min(l[0] for l in levels), max(l[-1] for l in levels)
            _check_level_set(spec, LevelSet(stage, ends), N)
    except (RankOneError, ValueError):
        for A in sets:
            _check_level_set(spec, A, N)
        raise
    bounds: dict[tuple[int, tuple[int, ...]], float] = {}
    for A in sets:
        first = A.levels[0]
        key = (A.stage, (0,) if len(A.levels) == 1 else tuple(map(first.__rsub__, A.levels)))
        if key not in bounds:
            mu = float(level_measure(spec, N, A))
            bvs = _level_correlations(spec, N, A, shifts)
            bounds[key] = max((bv.value - bv.error_bound) / mu for bv in bvs)
    return min(bounds.values())
