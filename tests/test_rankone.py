import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ergolab.rankone import (
    BoundedValue,
    LevelSet,
    RankOneSpec,
    ShiftOutOfRange,
    StageOutOfRange,
    build_tower,
    chacon_spec,
    correlation_count,
    heights,
    historical_chacon_spec,
    level_correlation,
    level_measure,
    level_width,
    occurrence_count,
    rigidity_scan,
    staircase_spec,
    weak_limit_estimate,
)

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


def test_engine_matches_brute_force_randomized():
    rng = random.Random(23)
    for _ in range(60):
        depth = rng.randint(1, 5)
        stages = tuple(
            (p := rng.randint(2, 4), tuple(rng.randint(0, 2) for _ in range(p)))
            for _ in range(depth)
        )
        spec = RankOneSpec(stages)
        hs = heights(spec)
        k = rng.randint(0, depth - 1)
        N = rng.randint(k, depth)
        size = rng.randint(1, min(4, hs[k]))
        A = tuple(sorted(rng.sample(range(hs[k]), size)))
        B = tuple(sorted(rng.sample(range(hs[k]), rng.randint(1, min(4, hs[k])))))
        m = rng.randint(0, hs[N] - 1)
        got = correlation_count(spec, N, LevelSet(k, A), LevelSet(k, B), m)
        want = brute_count(spec, k, N, A, B, m)
        assert got == want, (stages, k, N, A, B, m)


@st.composite
def correlation_cases(draw):
    spec = draw(schedules())
    hs = heights(spec)
    k = draw(st.integers(0, spec.num_stages - 1))
    N = draw(st.integers(k, spec.num_stages))
    A, B = level_subsets(draw, hs[k]), level_subsets(draw, hs[k])
    return spec, k, N, A, B, draw(st.integers(0, hs[N] - 1))


@settings(max_examples=100, deadline=None)
@given(correlation_cases())
def test_engine_matches_brute_force_property(case):
    spec, k, N, A, B, m = case
    got = correlation_count(spec, N, LevelSet(k, A), LevelSet(k, B), m)
    assert got == brute_count(spec, k, N, A, B, m)


def test_occurrence_count_matches_brute():
    spec = chacon_spec(6)
    A = LevelSet(2, (0, 5, 11))
    word = brute_trace_word(spec, 2, 6)
    assert occurrence_count(spec, 6, A) == int(np.isin(word, A.levels).sum())


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
    with pytest.raises(StageOutOfRange):
        level_correlation(spec, 5, LevelSet(2, (0,)), 1)
    with pytest.raises(ValueError):
        level_correlation(spec, 4, LevelSet(2, (heights(spec)[2],)), 1)


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


@settings(max_examples=80, deadline=None)
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
