import math
import random
from bisect import bisect_left, bisect_right
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ergolab.rankone import (
    BoundedValue,
    CoefficientEstimate,
    LevelSet,
    RankOneSpec,
    ShiftOutOfRange,
    StageOutOfRange,
    Tower,
    _differences,
    _level_correlations,
    _pair_counts,
    build_tower,
    chacon_spec,
    correlation_count,
    heights,
    historical_chacon_spec,
    level_correlation,
    level_measure,
    level_width,
    rigidity_scan,
    staircase_spec,
    weak_limit_estimate,
)
from ergolab.substitution import Substitution, fixed_point_prefix

SPACER = -1


def brute_trace_word(spec: RankOneSpec, k: int, N: int) -> np.ndarray:
    """Stage-N trace word by explicit concatenation (test oracle)."""
    word = np.arange(heights(spec)[k], dtype=np.int64)
    for p, spacers in spec.stages[k:N]:
        parts = []
        for a in spacers:
            parts.append(word)
            parts.append(np.full(a, SPACER, dtype=np.int64))
        word = np.concatenate(parts)
    return word


def brute_count(spec, k, N, levels_a, levels_b, m) -> int:
    word = brute_trace_word(spec, k, N)
    ma = np.isin(word, np.asarray(levels_a))
    mb = np.isin(word, np.asarray(levels_b))
    if m == 0:
        return int(np.count_nonzero(ma & mb))
    return int(np.count_nonzero(ma[:-m] & mb[m:]))


def memo_pair_counts(spec: RankOneSpec, k: int, levels_a, levels_b, N: int, shifts) -> list[int]:
    """Stage-N pair counts R(N, m) by the memoized stage recursion (test
    oracle): R(j, delta) is the sum, over the differences D of two copy
    offsets of stage j - 1 with |delta - D| < h_{j-1}, of R(j - 1, delta - D),
    down to R(k, d) = #{(a, b) in A x B : b - a = d}."""
    hs = heights(spec)
    diffs = []
    for h, (p, spacers) in zip(hs, spec.stages):
        offsets = [0]
        for a in spacers[:-1]:
            offsets.append(offsets[-1] + h + a)
        diffs.append(sorted(Counter(t - r for r in offsets for t in offsets).items()))
    base = Counter(b - a for a in levels_a for b in levels_b)
    memo: list[dict[int, int]] = [{} for _ in range(N + 1)]

    def count(j: int, delta: int) -> int:
        if j == k:
            return base[delta]
        if delta not in memo[j]:
            h, ds = hs[j - 1], [D for D, _ in diffs[j - 1]]
            window = diffs[j - 1][bisect_right(ds, delta - h) : bisect_left(ds, delta + h)]
            memo[j][delta] = sum(n * count(j - 1, delta - D) for D, n in window)
        return memo[j][delta]

    return [count(N, m) if abs(m) < hs[N] else 0 for m in shifts]


@st.composite
def schedules(draw):
    """Random schedules: depth 1-5, p 2-4, spacer counts 0-2."""
    stages = []
    for _ in range(draw(st.integers(1, 5))):
        p = draw(st.integers(2, 4))
        stages.append((p, tuple(draw(st.lists(st.integers(0, 2), min_size=p, max_size=p)))))
    return RankOneSpec(tuple(stages))


def level_subsets(draw, height: int) -> tuple[int, ...]:
    size = draw(st.integers(1, min(4, height)))
    return tuple(draw(st.lists(st.integers(0, height - 1), min_size=size, max_size=size, unique=True)))


# -- schedules and heights ----------------------------------------------------


def test_spec_validation():
    with pytest.raises(ValueError):
        RankOneSpec(())
    with pytest.raises(ValueError):
        RankOneSpec(((1, (0,)),))
    with pytest.raises(ValueError):
        RankOneSpec(((2, (0,)),))  # wrong spacer count
    with pytest.raises(ValueError):
        RankOneSpec(((2, (0, -1)),))
    with pytest.raises(ValueError, match=r"line 2: .*'3 0 1 0'"):
        RankOneSpec.from_lines(["2: 0 1", "3 0 1 0"])


def test_types_keep_their_fields_and_keywords():
    # records are NamedTuples in the old field order; the validated inputs keep
    # their positional order, keyword names and defaults
    assert Tower._fields == ("height", "level_width", "total_mass", "column_word")
    assert BoundedValue._fields == ("value", "error_bound")
    assert CoefficientEstimate._fields == ("index", "value", "spread", "error_bound")
    assert build_tower(historical_chacon_spec(2), 2) == (7, Fraction(1, 4), Fraction(7, 4), "BBSBBSS")
    bv = BoundedValue(value=0.25, error_bound=0.0)
    assert (bv.value, bv.error_bound, bv.exact) == (0.25, 0.0, True)
    assert not BoundedValue(0.25, 1e-9).exact
    spec = RankOneSpec(stages=[(2, [0, 1])], name="two")
    assert (spec.stages, spec.name, RankOneSpec(spec.stages).name) == (((2, (0, 1)),), "two", None)
    A = LevelSet(stage=2, levels=[5, 0, 5])
    assert (A.stage, A.levels) == (2, (0, 5))


def test_preset_schedules():
    assert chacon_spec(3).stages == ((3, (0, 1, 0)),) * 3
    assert staircase_spec(4, 2).stages == ((4, (0, 1, 2, 0)),) * 2
    assert historical_chacon_spec(1).stages == ((2, (0, 1)),)


def test_heights_frozen_values():
    assert heights(chacon_spec(5)) == [1, 4, 13, 40, 121, 364]
    assert heights(historical_chacon_spec(4)) == [1, 3, 7, 15, 31]
    assert heights(RankOneSpec(((2, (0, 0)),) * 3)) == [1, 2, 4, 8]


def test_heights_recurrence_random():
    rng = random.Random(11)
    for _ in range(20):
        stages = tuple(
            (p := rng.randint(2, 5), tuple(rng.randint(0, 3) for _ in range(p)))
            for _ in range(rng.randint(1, 8))
        )
        spec = RankOneSpec(stages)
        hs = heights(spec)
        for j, (p, spacers) in enumerate(spec.stages):
            assert hs[j + 1] == p * hs[j] + sum(spacers)


def test_heights_copy_is_not_shared():
    spec = chacon_spec(4)
    hs = heights(spec)
    hs[1] = 99
    hs.append(7)
    assert heights(spec) == [1, 4, 13, 40, 121]
    assert [level_width(spec, N) for N in range(5)] == [Fraction(1, 3**N) for N in range(5)]


def test_from_lines_roundtrip():
    spec = RankOneSpec.from_lines(["3: 0 1 0", "2: 1 0"])
    assert spec.stages == ((3, (0, 1, 0)), (2, (1, 0)))


# -- towers ----------------------------------------------------------------------


def test_build_tower_words():
    assert build_tower(chacon_spec(3), 1).column_word == "BBSB"
    assert build_tower(historical_chacon_spec(3), 1).column_word == "BBS"
    t0 = build_tower(chacon_spec(3), 0)
    assert (t0.column_word, t0.height, t0.level_width, t0.total_mass) == ("B", 1, 1, 1)


def test_tower_invariants():
    for spec in (chacon_spec(6), staircase_spec(4, 5), historical_chacon_spec(8)):
        prev_mass = Fraction(0)
        for N in range(spec.num_stages + 1):
            t = build_tower(spec, N)
            assert len(t.column_word) == t.height == heights(spec)[N]
            assert t.level_width == level_width(spec, N)
            # base mass conservation: count of B levels times width is 1
            assert t.column_word.count("B") * t.level_width == 1
            assert t.total_mass >= prev_mass
            prev_mass = t.total_mass


def test_chacon_mass_approaches_three_halves():
    t = build_tower(chacon_spec(10), 10)
    partial = 1 + sum(Fraction(1, 3**k) for k in range(1, 11))
    assert abs(t.total_mass - partial) == 0  # identical exact values
    assert abs(float(t.total_mass) - 1.5) < 1e-4
    assert abs(float(build_tower(chacon_spec(13), 13).total_mass) - 1.5) < 1e-6


def test_build_tower_stage_guard():
    with pytest.raises(StageOutOfRange):
        build_tower(chacon_spec(3), 4)


# -- correlation engine vs brute force -------------------------------------------


@st.composite
def correlation_cases(draw):
    spec = draw(schedules())
    hs = heights(spec)
    k = draw(st.integers(0, spec.num_stages - 1))
    N = draw(st.integers(k, spec.num_stages))
    A, B = level_subsets(draw, hs[k]), level_subsets(draw, hs[k])
    return spec, k, N, A, B, draw(st.integers(0, hs[N] - 1))


@settings(max_examples=100)
@given(correlation_cases())
def test_engine_matches_brute_force_property(case):
    spec, k, N, A, B, m = case
    got = correlation_count(spec, N, LevelSet(k, A), LevelSet(k, B), m)
    assert got == brute_count(spec, k, N, A, B, m)


# -- rank-one columns as substitution words ------------------------------------------


@st.composite
def coded_schedules(draw):
    """A stationary schedule (p; a_1 ... a_p), a stage N with h_N <= 5,000
    and a lag m < h_N."""
    p = draw(st.integers(2, 4))
    spacers = tuple(draw(st.lists(st.integers(0, 2), min_size=p, max_size=p)))
    hs = [1]
    while p * hs[-1] + sum(spacers) <= 5000:
        hs.append(p * hs[-1] + sum(spacers))
    N = draw(st.integers(0, len(hs) - 1))
    return spacers, N, draw(st.integers(0, hs[N] - 1))


@settings(max_examples=200)
@given(coded_schedules())
def test_level_zero_counts_equal_coded_substitution_counts(case):
    """The stage-N column of (p; a_1 ... a_p) reads sigma^N(0) for
    sigma(0) = 0 1^a_1 0 1^a_2 ... 0 1^a_p, sigma(1) = 1, with level 0 of
    stage 0 as letter 0 and spacers as letter 1 (Ferenczi): so the pair
    count of that level at lag m is the count of 0s at lag m in the first
    h_N letters of sigma's fixed point."""
    spacers, N, m = case
    spec = RankOneSpec(((len(spacers), spacers),) * max(N, 1))
    sigma = Substitution(2, [[letter for a in spacers for letter in (0, *[1] * a)], [1]])
    h_N = heights(spec)[N]
    w = fixed_point_prefix(sigma, h_N)
    want = sum(1 for x in range(h_N - m) if w[x] == 0 == w[x + m])
    assert correlation_count(spec, N, LevelSet(0, (0,)), LevelSet(0, (0,)), m) == want


@st.composite
def coded_periodic_schedules(draw):
    """A schedule of period P = 1..3 (p 2..4, spacers 0..2), a stage N with
    h_N <= 5,000, a set stage k <= N, two sets A, B of stage-k levels and a
    lag m < h_N."""
    period = draw(st.lists(st.integers(2, 4).flatmap(
        lambda p: st.tuples(st.just(p), st.lists(st.integers(0, 2), min_size=p, max_size=p).map(tuple))),
        min_size=1, max_size=3))
    stages, hs = [], [1]
    while True:
        p, spacers = period[len(stages) % len(period)]
        h = p * hs[-1] + sum(spacers)
        if h > 5000:
            break
        stages.append((p, spacers))
        hs.append(h)
    N = draw(st.integers(0, len(stages)))
    k = draw(st.integers(0, N))
    A, B = (draw(st.sets(st.integers(0, hs[k] - 1), min_size=1, max_size=6)) for _ in range(2))
    return stages, period, N, k, A, B, draw(st.integers(0, hs[N] - 1))


@settings(max_examples=200, deadline=None)
@given(coded_periodic_schedules())
def test_stage_k_counts_equal_coded_substitution_counts(case):
    """The stages from k on, with a whole stage-k column as letter 0 and a
    spacer as 1: with sigma_j(0) = 0 1^a_1 ... 0 1^a_p, sigma_j(1) = 1 for
    stage j, the coded stage-N column is sigma_k ... sigma_(N-1)(0), a prefix
    of the fixed point of tau = sigma_k ... sigma_(k+P-1), one period.  Each
    0 expanded into the h_k levels of the stage-k column gives the trace
    word, whose lag-m count of A, B levels is the rank-one pair count."""
    stages, period, N, k, A, B, m = case
    spec = RankOneSpec(stages[: max(N, 1)])
    tau = [(0,), (1,)]
    for j in reversed(range(k, k + len(period))):  # sigma_(k+P-1) acts first
        _, spacers = period[j % len(period)]
        sigma = [[letter for a in spacers for letter in (0, *[1] * a)], [1]]
        tau = [tuple(y for x in w for y in sigma[x]) for w in tau]
    coded = 1
    for p, spacers in stages[k:N]:
        coded = p * coded + sum(spacers)
    column = range(heights(spec)[k])
    trace = [l for x in fixed_point_prefix(Substitution(2, tau), coded) for l in (column if x == 0 else [-1])]
    assert len(trace) == heights(spec)[N]
    for X, Y in ((A, A), (A, B)):
        want = sum(1 for x in range(len(trace) - m) if trace[x] in X and trace[x + m] in Y)
        assert correlation_count(spec, N, LevelSet(k, X), LevelSet(k, Y), m) == want


DEEP_PRESETS = (chacon_spec(30), staircase_spec(3, 30), staircase_spec(4, 30), staircase_spec(5, 30),
                historical_chacon_spec(30))


@st.composite
def deep_batches(draw):
    """A 30-stage preset, a set of stage k <= 4 and a batch of shifts that
    cluster (h_n + j), repeat, straddle zero and reach past h_N."""
    spec = draw(st.sampled_from(DEEP_PRESETS))
    hs = heights(spec)
    k = draw(st.integers(0, 4))
    N = draw(st.integers(max(k, 20), 30))
    sets = [level_subsets(draw, hs[k]) for _ in range(2)]
    n = draw(st.integers(k, N - 1))
    pool = [hs[n] + j for j in range(draw(st.integers(1, 6)))]
    pool += [hs[N] - 1 - draw(st.integers(0, 3)), hs[N], 0, -pool[-1]]
    pool.append(draw(st.integers(1 - hs[N], hs[N] - 1)))
    shifts = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=10))
    return spec, k, N, sets, shifts


@settings(max_examples=40, deadline=None)
@given(deep_batches())
def test_deep_tower_counts_match_memo_oracle(case):
    # stage 30 is far beyond build_tower; the memoized recursion is the oracle
    spec, k, N, (A, B), shifts = case
    assert _pair_counts(spec, k, A, B, N, shifts) == memo_pair_counts(spec, k, A, B, N, shifts)
    assert _pair_counts(spec, k, A, A, N, shifts) == memo_pair_counts(spec, k, A, A, N, shifts)


def eager_stage_differences(spec: RankOneSpec) -> tuple:
    """Per stage j, the sorted copy-offset differences inside stage j+1 and
    their multiplicities, for every stage at once (test oracle)."""
    hs = heights(spec)
    out = []
    for h, (p, spacers) in zip(hs, spec.stages):
        offsets = [0]
        for a in spacers[:-1]:
            offsets.append(offsets[-1] + h + a)
        counts = Counter(t - r for r in offsets for t in offsets)
        out.append((tuple(sorted(counts)), tuple(counts[d] for d in sorted(counts))))
    return tuple(out)


@settings(max_examples=80)
@given(schedules(), st.randoms(use_true_random=False))
def test_stage_differences_match_the_eager_table_in_any_order(spec, rnd):
    want = eager_stage_differences(spec)
    order = list(range(spec.num_stages))
    rnd.shuffle(order)
    for j in order:
        ds, mults = spec.stage_differences(j)
        assert (tuple(ds), tuple(mults)) == want[j]
        assert spec.stage_differences(j) is spec.stage_differences(j)  # built once, then kept


def test_stage_differences_take_the_product_where_pairs_outnumber_lags():
    # stage 0: 8 copies of one level give 64 pairs against 2 * 9 - 1 lags (the big-int
    # product); stage 1: 64 pairs against 2 * 81 - 1 lags (the pair loop)
    spec = RankOneSpec(((8, (0, 0, 0, 0, 0, 0, 0, 1)), (8, (0,) * 8)))
    assert [p * p >= 2 * h for (p, _), h in zip(spec.stages, heights(spec)[1:])] == [True, False]
    assert tuple((tuple(ds), tuple(m)) for ds, m in map(spec.stage_differences, (0, 1))) == \
        eager_stage_differences(spec)


@pytest.mark.parametrize("k, N", [(0, 30), (2, 12), (4, 9)])
def test_full_stage_sets_without_spacers_count_every_pair(k, N):
    # with p = 5 and no spacers every stage-N position lies in a stage-k
    # level, so a full stage-k set has R(N, m) = h_N - |m|, the largest
    # count of any set of the tower; k = 0 counts its one pair directly,
    # k = 2 and 4 take the dense product with one- and two-byte slots
    spec = RankOneSpec(((5, (0,) * 5),) * N)
    hs = heights(spec)
    full = tuple(range(hs[k]))
    shifts = [0, 1, hs[k], hs[N] // 7, hs[N] - hs[k], hs[N] - 1, hs[N], -3, 1 - hs[N]]
    assert _pair_counts(spec, k, full, full, N, shifts) == [max(hs[N] - abs(m), 0) for m in shifts]


def test_lanes_hold_the_largest_count_at_a_byte_edge():
    # p = 2 and no spacers for 8 stages: R(8, 0) = 256 is one more than a byte
    # holds, so a lane sized by prod p - 1, or without its factor min(|A|, |B|)
    # = 2 at k = 1, is one byte short and carries into its neighbour
    spec = RankOneSpec(((2, (0, 0)),) * 8)
    assert _pair_counts(spec, 0, (0,), (0,), 8, [0, 0, 1, 255, -255, 256]) == [256, 256, 255, 1, 1, 0]
    assert _pair_counts(spec, 1, (0, 1), (0, 1), 8, [0, 0, 1, 255]) == [256, 256, 255, 1]
    # p = (3, 5, 17): R(3, 0) = 255 fills 8-bit lanes exactly
    spec = RankOneSpec(((3, (0,) * 3), (5, (0,) * 5), (17, (0,) * 17)))
    assert _pair_counts(spec, 0, (0,), (0,), 3, [0, 0, 1, 254, -254, 255]) == [255, 255, 254, 1, 1, 0]


@st.composite
def run_schedules(draw):
    """Schedules of 1-4 runs of 1-6 equal stages, p 2-4, spacer counts
    0-12: a run jumps where its clusters are disjoint, and spacers above
    h_j at the low stages make them overlap there."""
    stages = []
    for _ in range(draw(st.integers(1, 4))):
        p = draw(st.integers(2, 4))
        stage = (p, tuple(draw(st.lists(st.integers(0, 12), min_size=p, max_size=p))))
        stages += [stage] * draw(st.integers(1, 6))
    return RankOneSpec(stages)


@settings(max_examples=150, deadline=None)
@given(run_schedules(), st.data())
def test_jumps_over_equal_stages_match_memo_oracle(spec, data):
    hs = heights(spec)
    N = data.draw(st.integers(1, spec.num_stages))
    k = data.draw(st.integers(0, N - 1))
    A, B = (data.draw(st.builds(tuple, st.sets(st.integers(0, hs[k] - 1), min_size=1, max_size=4)))
            for _ in range(2))
    n = data.draw(st.integers(k, N))
    pool = [hs[n], hs[n] + 1, hs[N] - 1, hs[N], hs[N] + 5, 0, -hs[n], 1 - hs[N],
            data.draw(st.integers(1 - hs[N], hs[N] - 1))]
    shifts = data.draw(st.lists(st.sampled_from(pool), min_size=1, max_size=10))
    assert _pair_counts(spec, k, sorted(A), sorted(B), N, shifts) == \
        memo_pair_counts(spec, k, sorted(A), sorted(B), N, shifts)


def jump_steps(spec: RankOneSpec, k: int, N: int, compose: bool = True) -> list[tuple[int, int]]:
    return [(j, s) for j, s, *_ in spec.jump_plan(k, N, compose)]


def test_jump_plan_falls_back_to_single_stages_where_clusters_overlap():
    # (3, (0, 4, 0)): a copy's E exceeds 81 at s = 4, and the s = 2 clusters
    # (gap 5) overlap at h_0 = 1, so the bottom two stages go one at a time
    spec = RankOneSpec(((3, (0, 4, 0)),) * 10)
    assert spec.jump_pattern(0, 4) is None
    assert spec.jump_pattern(0, 2).gap > heights(spec)[0]
    assert jump_steps(spec, 0, 10) == [(7, 3), (4, 3), (2, 2), (1, 1), (0, 1)]
    assert jump_steps(spec, 0, 10, compose=False) == [(j, 1) for j in range(9, -1, -1)]
    shifts = [1, 7, 25, 79, -80, 1000, heights(spec)[10] - 1]
    assert _pair_counts(spec, 0, (0,), (0,), 10, shifts) == memo_pair_counts(spec, 0, (0,), (0,), 10, shifts)


def test_kernel_coefficient_at_the_copy_cap():
    # p = 3 and no spacers: s = 4 stages hold 81 copies at E = 0, so the
    # dC = 0 cluster's one coefficient is 81, the copy cap, and the dC = c
    # cluster's is 81 - |c|; a stage-0 level is every position of the tower,
    # so R(N, m) = 3^N - |m|: 81 fills an 8-bit lane at N = 4 and 6,561 two
    # bytes at N = 8 after two jumps
    spec = RankOneSpec(((3, (0, 0, 0)),) * 8)
    pattern = spec.jump_pattern(0, 4)
    assert list(pattern.cs) == list(range(-80, 81)) and pattern.los == pattern.his == [0] * 161
    assert pattern.dense == [bytes([81 - abs(c)]) for c in range(-80, 81)]
    assert jump_steps(spec, 0, 4) == [(0, 4)] and jump_steps(spec, 0, 8) == [(4, 4), (0, 4)]
    for N, shifts in ((4, [0, 0, 1, 80, -80, 81]), (8, [0, 1, 81, 6560, -6560, 6561, 3280])):
        assert _pair_counts(spec, 0, (0,), (0,), N, shifts) == [max(3**N - abs(m), 0) for m in shifts]


def eager_copy_pattern(stage: tuple, s: int) -> dict:
    """dC -> {dE: multiplicity} over every pair of the stage-j copies inside
    stage j+s, their offsets taken in towers over h_j = 10^6 (test oracle)."""
    h = 10**6
    p, spacers = stage
    offsets = [0]
    for _ in range(s):
        starts = [0]
        for a in spacers[:-1]:
            starts.append(starts[-1] + h + a)
        offsets = [o + t for t in starts for o in offsets]
        h = p * h + sum(spacers)
    out: dict = {}
    for D, n in Counter(y - x for x in offsets for y in offsets).items():
        dC = round(D / 10**6)
        out.setdefault(dC, {})[D - dC * 10**6] = n
    return out


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 4).flatmap(
    lambda p: st.tuples(st.just(p), st.lists(st.integers(0, 3), min_size=p, max_size=p).map(tuple))),
    st.randoms(use_true_random=False))
def test_copy_patterns_match_the_eager_pairs_and_are_built_once(stage, rnd):
    spec = RankOneSpec((stage,) * 5)
    sizes = [s for s in range(2, 5) if stage[0] ** s <= 81]
    rnd.shuffle(sizes)
    for s in sizes:
        pattern = spec.jump_pattern(rnd.randrange(6 - s), s)
        if pattern is None:  # a copy's E exceeds the cap
            continue
        want = eager_copy_pattern(stage, s)
        assert list(pattern.cs) == sorted(want)
        for c, lo, hi, dense in zip(pattern.cs, pattern.los, pattern.his, pattern.dense):
            assert (lo, hi) == (min(want[c]), max(want[c]))
            assert {hi - e: n for e, n in enumerate(dense) if n} == want[c]
        # built once, then kept for every equal stage, whatever its height
        assert all(spec.jump_pattern(j, s) is pattern for j in range(6 - s))
        assert pattern.kernels(16) is pattern.kernels(16)


def test_base_counts_dense_product_matches_pair_count():
    for h in (1, 2, 7, 300):  # full sets: h - |d| pairs at lag d
        lags = list(range(1 - h, h))
        assert _differences(range(h), range(h), h) == (lags, {d: h - abs(d) for d in lags})
    rng = random.Random(7)
    for _ in range(60):
        h = rng.randint(2, 600)
        A, B = (sorted(rng.sample(range(h), rng.randint(int((2 * h) ** 0.5) + 1, h))) for _ in range(2))
        assert len(A) * len(B) >= 2 * h  # the product path
        want = Counter(b - a for a in A for b in B)
        assert _differences(A, B, h) == (sorted(want), want)


def test_level_measure_matches_brute():
    # |A| * w_k equals the stage-N occurrence count times w_N at every N >= k
    spec = chacon_spec(6)
    A = LevelSet(2, (0, 5, 11))
    for N in range(2, 7):
        word = brute_trace_word(spec, 2, N)
        assert level_measure(spec, N, A) == int(np.isin(word, A.levels).sum()) * level_width(spec, N)


def test_level_measure_guards():
    spec = chacon_spec(6)
    with pytest.raises(StageOutOfRange, match="set stage"):
        level_measure(spec, 2, LevelSet(5, (0,)))
    with pytest.raises(StageOutOfRange, match="stage 7 outside 0..6"):
        level_measure(spec, 7, LevelSet(2, (0,)))
    for level in (heights(spec)[2], 999, -1):
        with pytest.raises(ValueError, match="level index"):
            level_measure(spec, 6, LevelSet(2, (level,)))


def test_measure_preservation_identity_exact():
    # pairs of in-tower positions at lag m: exactly h_N - m of them when
    # both endpoint sets are the full tower
    for spec, N in ((chacon_spec(5), 4), (staircase_spec(3, 5), 4)):
        hs = heights(spec)
        full = LevelSet(N, tuple(range(hs[N])))
        for m in (0, 1, hs[N] // 3, hs[N] - 1):
            assert correlation_count(spec, N, full, full, m) == hs[N] - m


# -- level_correlation -------------------------------------------------------------


def test_level_correlation_zero_shift_exact():
    spec = chacon_spec(8)
    A = LevelSet(3, (0, 7, 21))
    bv = level_correlation(spec, 8, A, 0)
    assert bv.exact and bv.error_bound == 0.0
    assert bv.value == pytest.approx(float(level_measure(spec, 8, A)))


def test_level_correlation_guards():
    spec = chacon_spec(4)
    with pytest.raises(ShiftOutOfRange):
        level_correlation(spec, 4, LevelSet(2, (0,)), heights(spec)[4])
    with pytest.raises(ShiftOutOfRange):
        _level_correlations(spec, 4, LevelSet(2, (0,)), [1, 0, heights(spec)[4]])
    with pytest.raises(StageOutOfRange):
        level_correlation(spec, 5, LevelSet(2, (0,)), 1)
    with pytest.raises(ValueError):
        level_correlation(spec, 4, LevelSet(2, (heights(spec)[2],)), 1)


@st.composite
def shift_batches(draw):
    spec = draw(schedules())
    hs = heights(spec)
    k = draw(st.integers(0, spec.num_stages - 1))
    N = draw(st.integers(k, spec.num_stages))
    pool = draw(st.lists(st.integers(0, hs[N] - 1), min_size=1, max_size=3)) + [0]
    shifts = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=8))
    return spec, k, N, level_subsets(draw, hs[k]), shifts


@settings(max_examples=80)
@given(shift_batches())
def test_batched_correlations_match_per_shift_and_brute_force(case):
    # one sweep counts every shift of the batch, repeated and zero shifts included
    spec, k, N, levels, shifts = case
    A = LevelSet(k, levels)
    w = level_width(spec, N)
    got = _level_correlations(spec, N, A, shifts)
    assert got == [level_correlation(spec, N, A, m) for m in shifts]
    assert [bv.value for bv in got] == [float(brute_count(spec, k, N, levels, levels, m) * w) for m in shifts]
    assert [bv.exact for bv in got] == [m == 0 for m in shifts]


@st.composite
def correlation_value_cases(draw):
    """A small random schedule or a deep preset, with shifts of every size."""
    if draw(st.booleans()):
        spec = draw(schedules())
        k = draw(st.integers(0, spec.num_stages - 1))
        N = draw(st.integers(k, spec.num_stages))
    else:
        spec = draw(st.sampled_from(DEEP_PRESETS))
        k = draw(st.integers(0, 3))
        N = draw(st.integers(20, 30))
    hs = heights(spec)
    shifts = draw(st.lists(st.one_of(st.just(0), st.integers(0, hs[N] - 1)), min_size=1, max_size=4))
    return spec, k, N, level_subsets(draw, hs[k]), shifts


@settings(max_examples=60, deadline=None)
@given(correlation_value_cases())
def test_correlation_values_round_as_the_fraction_formulas(case):
    # count / copies_N in one int/int division is float(count * w_N), to the bit
    spec, k, N, levels, shifts = case
    A = LevelSet(k, levels)
    w_k, w_N = (Fraction(1, math.prod(p for p, _ in spec.stages[:n])) for n in (k, N))
    want = [(float(correlation_count(spec, N, A, A, m) * w_N), float(m * w_N)) if m
            else (float(len(levels) * w_k), 0.0) for m in shifts]
    assert [tuple(level_correlation(spec, N, A, m)) for m in shifts] == want
    assert [tuple(bv) for bv in _level_correlations(spec, N, A, shifts)] == want


def test_chacon_full_stage_rigidity_example():
    spec = chacon_spec(12)
    hs = heights(spec)
    k = 4
    A = LevelSet(k, tuple(range(hs[k])))
    bv = level_correlation(spec, k + 6, A, hs[k])
    mu = float(level_measure(spec, k + 6, A))
    assert bv.value >= mu / 3 - bv.error_bound


def test_staircase_full_stage_rigidity_example():
    spec = staircase_spec(5, 11)
    hs = heights(spec)
    k = 4
    A = LevelSet(k, tuple(range(hs[k])))
    bv = level_correlation(spec, k + 5, A, hs[k])
    mu = float(level_measure(spec, k + 5, A))
    assert bv.value >= mu / 5 - bv.error_bound


def test_error_bound_soundness_refinement():
    # the stage-N interval must contain the stage-(N+2) value
    rng = random.Random(5)
    for spec in (chacon_spec(12), staircase_spec(4, 10)):
        hs = heights(spec)
        for _ in range(25):
            k = rng.randint(0, 4)
            N = rng.randint(k + 1, min(8, spec.num_stages - 2))
            A = LevelSet(k, tuple(rng.sample(range(hs[k]), rng.randint(1, min(5, hs[k])))))
            m = rng.randint(1, hs[N] - 1)
            coarse = level_correlation(spec, N, A, m)
            fine = level_correlation(spec, N + 2, A, m)
            assert coarse.value - coarse.error_bound - 1e-12 <= fine.value
            assert fine.value <= coarse.value + coarse.error_bound + 1e-12


# -- weak limits ---------------------------------------------------------------------


def test_historical_chacon_weak_limit_geometric():
    spec = historical_chacon_spec(24)
    est = weak_limit_estimate(spec, LevelSet(4, (0,)), 8, 12, 3)
    values = [e.value for e in est]
    assert values[0] > values[1] > values[2]
    assert 0.4 <= values[1] / values[0] <= 0.6
    assert 0.4 <= values[2] / values[1] <= 0.6
    assert max(e.spread for e in est) <= 0.02


def test_staircase_weak_limit_flat_front_window():
    spec = staircase_spec(4, 24)
    est = weak_limit_estimate(spec, LevelSet(4, (0,)), 8, 12, 4)
    front = [e.value for e in est[:3]]
    assert max(front) - min(front) < 0.05
    assert all(v > 0.25 for v in front)
    assert est[3].value < 0.05  # beyond the front window


def test_odometer_weak_limit_identity():
    spec = RankOneSpec(((2, (0, 0)),) * 24, name="doubling")
    est = weak_limit_estimate(spec, LevelSet(5, (0,)), 8, 12, 3)
    assert est[0].value > 0.99
    assert all(e.value < 0.01 for e in est[1:])


def test_weak_limit_guards():
    spec = historical_chacon_spec(10)
    with pytest.raises(StageOutOfRange):
        weak_limit_estimate(spec, LevelSet(4, (0,)), 8, 12, 3)  # needs 24 stages
    with pytest.raises(ValueError):
        weak_limit_estimate(historical_chacon_spec(24), LevelSet(0, (0,)), 8, 10, 3)
    for margin in (0, -3):  # the shifts h_n + j need a tower above n_stop
        with pytest.raises(ValueError, match=f"margin must be at least 1, got {margin}"):
            weak_limit_estimate(historical_chacon_spec(24), LevelSet(4, (0,)), 8, 10, 3, margin=margin)


# -- rigidity scan --------------------------------------------------------------------


def test_rigidity_scan_chacon_certified():
    spec = chacon_spec(13)
    hs = heights(spec)
    sets = [LevelSet(4, (l,)) for l in range(0, hs[4], 7)]
    bound = rigidity_scan(spec, hs[6:9], sets)
    assert bound >= 0.31


@st.composite
def rigidity_cases(draw):
    spec = draw(schedules())
    hs = heights(spec)
    N = draw(st.integers(1, spec.num_stages))
    sets = []
    for _ in range(draw(st.integers(1, 5))):
        k = draw(st.integers(0, N))
        levels = level_subsets(draw, hs[k])
        sets.append(LevelSet(k, levels))
        # a translated duplicate, when the tower leaves room for one
        room = hs[k] - 1 - max(levels)
        if room and draw(st.booleans()):
            t = draw(st.integers(1, room))
            sets.append(LevelSet(k, tuple(l + t for l in levels)))
    sets = draw(st.permutations(sets))
    shifts = draw(st.lists(st.integers(1, hs[N] - 1), min_size=1, max_size=4))
    return spec, N, sets, shifts


@settings(max_examples=80)
@given(rigidity_cases())
def test_rigidity_scan_matches_per_set_oracle(case):
    # min over sets of max over shifts of (value - error)/mu, one set at a
    # time, with every count read off the brute-force trace word
    spec, N, sets, shifts = case
    w = level_width(spec, N)
    worst = float("inf")
    for A in sets:
        word = brute_trace_word(spec, A.stage, N)
        hits = np.isin(word, np.asarray(A.levels))
        mu = float(int(hits.sum()) * w)
        best = -float("inf")
        for m in shifts:
            count = int(np.count_nonzero(hits[:-m] & hits[m:]))
            best = max(best, (float(count * w) - float(m * w)) / mu)
        worst = min(worst, best)
    assert rigidity_scan(spec, shifts, sets, N=N) == worst


def test_rigidity_scan_checks_every_translate():
    # the last set repeats the first set's class but lies outside its tower
    spec = chacon_spec(6)
    hs = heights(spec)
    sets = [LevelSet(2, (0,)), LevelSet(2, (1, 3)), LevelSet(2, (5,)), LevelSet(2, (hs[2],))]
    in_range = rigidity_scan(spec, [hs[3]], sets[:3])
    assert in_range == min(rigidity_scan(spec, [hs[3]], [A]) for A in sets[:3])
    with pytest.raises(ValueError):
        rigidity_scan(spec, [hs[3]], sets)


def test_rigidity_scan_rejects_zero_shift():
    spec = chacon_spec(6)
    with pytest.raises(ShiftOutOfRange):
        rigidity_scan(spec, [0, 4], [LevelSet(2, (0,))])


def test_rigidity_scan_translation_invariance_of_singletons():
    # all singleton level sets of one stage certify the same bound
    spec = chacon_spec(10)
    hs = heights(spec)
    bounds = {
        rigidity_scan(spec, [hs[5]], [LevelSet(3, (l,))])
        for l in (0, 1, hs[3] - 1)
    }
    assert len(bounds) == 1


@pytest.mark.parametrize("call, message", [
    (lambda: RankOneSpec(()), "need at least one stage"),
    (lambda: RankOneSpec(((1, (0,)),)), "cutting parameter must be >= 2"),
    (lambda: RankOneSpec(((2, (0,)),)), "need one spacer count per column"),
    (lambda: RankOneSpec(((2, (0, -1)),)), "spacer counts must be nonnegative"),
    (lambda: RankOneSpec.from_lines(["3: 0 1 0", "", "# note", "3: 0 x 0"]),
     "line 4: expected 'p: a_1 ... a_p', got '3: 0 x 0'"),
    # a stage that parses but fails validation names its line too
    (lambda: RankOneSpec.from_lines(["3: 0 1 0", "3: 0 1"]), "line 2: need one spacer count per column"),
    (lambda: RankOneSpec.from_lines(["# p < 2", "1: 0"]), "line 2: cutting parameter must be >= 2"),
    (lambda: RankOneSpec.from_lines(["2: 0 1", "", "3: 0 -1 0"]), "line 3: spacer counts must be nonnegative"),
    (lambda: LevelSet(1, ()), "level set must be nonempty"),
    (lambda: correlation_count(chacon_spec(4), 4, LevelSet(1, (0,)), LevelSet(2, (0,)), 1),
     "cross-correlation requires a common set stage"),
    (lambda: weak_limit_estimate(chacon_spec(12), LevelSet(1, (0,)), 3, 2, 1), "need 0 <= n_start <= n_stop"),
    (lambda: weak_limit_estimate(chacon_spec(12), LevelSet(1, (0,)), 2, 3, -1), "j_max must be nonnegative"),
    (lambda: rigidity_scan(chacon_spec(4), [], [LevelSet(1, (0,))]), "need at least one shift and one set"),
    # library input is read through operator.index, never truncated by int()
    (lambda: RankOneSpec([(3.9, (0, 1.5, 0.2))]), "cutting parameter 3.9 is not an integer"),
    (lambda: RankOneSpec([(3, (0, 1.5, 0.2))]), "spacer count 1.5 is not an integer"),
    (lambda: RankOneSpec([("3", ("0", "1", "0"))]), "cutting parameter '3' is not an integer"),
    (lambda: LevelSet(0.0, (0,)), "set stage 0.0 is not an integer"),
    (lambda: LevelSet(0, (0.7,)), "level 0.7 is not an integer"),
    (lambda: level_correlation(chacon_spec(5), 5, LevelSet(1, (0.9,)), 3), "level 0.9 is not an integer"),
    (lambda: level_correlation(chacon_spec(5), 5, LevelSet(1, (0,)), 3.0), "shift 3.0 is not an integer"),
    (lambda: correlation_count(chacon_spec(5), 5, LevelSet(1, (0,)), LevelSet(1, (0,)), 3.0),
     "shift 3.0 is not an integer"),
    (lambda: rigidity_scan(chacon_spec(5), [3.0], [LevelSet(1, (0,))]), "shift 3.0 is not an integer"),
    # every count, stage and window takes the same rule, never left to fail deeper as a TypeError
    (lambda: weak_limit_estimate(chacon_spec(20), LevelSet(3, (0,)), 2.0, 4, 2), "n_start 2.0 is not an integer"),
    (lambda: weak_limit_estimate(chacon_spec(20), LevelSet(3, (0,)), 2, 4, 2, margin=1.5),
     "margin 1.5 is not an integer"),
    (lambda: level_width(chacon_spec(6), 5.0), "stage 5.0 is not an integer"),
    (lambda: level_correlation(chacon_spec(6), 5.0, LevelSet(1, (0,)), 1), "stage 5.0 is not an integer"),
    (lambda: correlation_count(chacon_spec(6), 5.0, LevelSet(1, (0,)), LevelSet(1, (0,)), 1),
     "stage 5.0 is not an integer"),
    (lambda: rigidity_scan(chacon_spec(6), [3], [LevelSet(1, (0,))], N=5.0), "stage 5.0 is not an integer"),
    # level_measure used to accept the float stage the other calls refused
    (lambda: level_measure(chacon_spec(6), 5.0, LevelSet(1, (0,))), "stage 5.0 is not an integer"),
])
def test_input_checks_name_the_fault(call, message):
    with pytest.raises(ValueError) as info:
        call()
    assert str(info.value) == message
