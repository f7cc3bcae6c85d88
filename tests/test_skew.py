import random
import re
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ergolab.skew import (
    CONSTANT_ONE,
    FIRST_DIGIT_SIGN,
    DyadicInterval,
    DyadicStep,
    IndexTooLarge,
    SkewSystem,
    _band_mass,
    mn_cocycle,
    odometer_map,
    rigidity_sequence,
    skew_correlation,
    spectral_coefficient,
    spectral_window,
)


def fold(n: int) -> int:
    """Regular paperfolding letter: the bit just above the lowest set bit."""
    return (n >> (n & -n).bit_length()) & 1


def memo_band_mass(a: int, l: int, m: int, memo: dict) -> F:
    """D(a, l, m) by the memoized digit recursion, with no vanishing lemma:
    the test oracle for `_band_mass`."""
    if m == 0:
        return F(1, 2**l)
    key = (a, l, m)
    if key not in memo:
        if l < 2:  # the digit step reads z mod 4
            memo[key] = sum((memo_band_mass(a + (k << l), 2, m, memo) for k in range(1 << (2 - l))),
                            F(0))
        elif m == 1:
            n = (a + 1) % 2**l
            # fold(z + 1) reads bit l of z when 2^(l-1) divides z + 1
            undetermined = n % 2 ** (l - 1) == 0
            memo[key] = F(0) if undetermined else F((-1) ** fold(n), 2**l)
        else:
            flips = ((a + m + 1) >> 2) - ((a + 1) >> 2)
            memo[key] = (-1) ** flips * memo_band_mass(a >> 1, l - 1, ((a & 1) + m) >> 1, memo) / 2
    return memo[key]


# -- odometer and cocycle point values ----------------------------------------


def test_odometer_map_band_translations():
    assert odometer_map(F(0)) == F(1, 2)
    assert odometer_map(F(1, 2)) == F(1, 4)
    assert odometer_map(F(3, 4)) == F(1, 8)
    assert odometer_map(F(1, 4)) == F(3, 4)  # interior of band 0 translates


def test_odometer_is_binary_carry():
    # orbit of 0 enumerates dyadics of level n in bit-reversed order
    x, seen = F(0), []
    for _ in range(8):
        seen.append(x)
        x = odometer_map(x)
    assert seen == [F(0), F(1, 2), F(1, 4), F(3, 4), F(1, 8), F(5, 8), F(3, 8), F(7, 8)]


def test_mn_cocycle_band_values():
    assert mn_cocycle(F(0)) == 0
    assert mn_cocycle(F(1, 4)) == 1
    assert mn_cocycle(F(5, 8)) == 1
    assert mn_cocycle(F(1, 2)) == 0  # band 1 first part


def test_odometer_translation_on_atoms():
    # slope-1 check: both endpoints-in of each atom move by the same amount
    K = 8
    w = F(1, 2**K)
    for t in range(2**K - 1):
        left = F(t, 2**K)
        assert odometer_map(left + w / 2) - odometer_map(left) == w / 2


def test_odometer_atom_permutation_measure_preserving():
    # image atoms partition their targets: the atom map is a bijection
    K = 8
    w = F(1, 2**K)
    images = {odometer_map(F(t, 2**K)) // w for t in range(2**K - 1)}
    assert len(images) == 2**K - 1


# -- system construction --------------------------------------------------------


def test_system_validation():
    with pytest.raises(ValueError):
        SkewSystem(10, 11)
    with pytest.raises(ValueError):
        SkewSystem(10, 10)  # band cocycle needs L <= K-1
    with pytest.raises(ValueError):
        SkewSystem(30, 16)
    with pytest.raises(ValueError, match="atom level capped at 26"):
        SkewSystem(27, 28)
    SkewSystem(10, 10, cocycle=DyadicStep(2, (0, 1, 0, 1)))  # custom may use L = K
    for text in ("a/2^3", "1/2**3"):
        with pytest.raises(ValueError, match=f"'{re.escape(text)}'"):
            DyadicInterval.parse(text)


def test_types_keep_their_keywords():
    A = DyadicInterval(numerator=1, level=2)
    assert (A.numerator, A.level, A.width) == (1, 2, F(1, 4))
    g = DyadicStep(level=1, values=[0, 1])
    assert (g.level, g.values) == (1, (0.0, 1.0))


def test_tower_order_is_bit_reversal(mn_small):
    # tower position of atom t equals the odometer orbit index of t
    K = mn_small.K
    x, M = F(0), 2**K
    for i in range(200):
        atom = int(x * M)
        assert mn_small._rev[atom] == i
        x = odometer_map(x)


def test_phi_matches_scalar_cocycle(mn_small):
    K = mn_small.K
    for t in range(0, 2**K - 2, 7):
        assert fold(int(mn_small._rev[t]) + 1) == mn_cocycle(F(t, 2**K))


# -- signed mass ------------------------------------------------------------------


def test_band_mass_matches_oracle_exhaustively():
    for l in range(7):
        memo: dict = {}
        for a in range(2**l):
            for m in range(2 ** (l + 3)):
                assert F(_band_mass(a, l, m), 2**l) == memo_band_mass(a, l, m, memo), (a, l, m)


@st.composite
def mass_triples(draw):
    l = draw(st.integers(0, 26))
    half = (1 << l) >> 1  # the lemma's bound 2^(l-1), or 0 at l = 0
    m = draw(st.one_of(st.integers(0, max(half - 1, 0)), st.just(half),
                       st.integers(half + 1, 2 ** (l + 3))))
    return draw(st.integers(0, 2**l - 1)), l, m


@settings(max_examples=300)
@given(mass_triples())
def test_band_mass_matches_oracle(triple):
    a, l, m = triple
    assert F(_band_mass(a, l, m), 2**l) == memo_band_mass(a, l, m, {})


def test_vanishing_lemma_is_sharp():
    # D(., l, m) vanishes on every class exactly when m >= 1 and 2m >= 2^l
    for l in range(9):
        memo: dict = {}
        for m in range(2 ** (l + 1)):
            nonzero = any(memo_band_mass(a, l, m, memo) for a in range(2**l))
            assert nonzero == (m == 0 or 2 * m < 2**l), (l, m)


# -- signed masses against orbit iteration -------------------------------------------


def _orbit_sign(num, K, m):
    """The sign of the cocycle sum phi(x) + ... + phi(T^(m-1) x) on the atom
    x = num/2^K by exact `odometer_map`/`mn_cocycle` steps: 0 where the orbit
    window reads one of the two top atoms, on which the cocycle is not
    constant (the reads split the atom's mass in half), else (-1)^sum."""
    x, total = F(num, 2**K), 0
    for _ in range(m):
        if int(x * 2**K) >= 2**K - 2:
            return 0
        total += mn_cocycle(x)
        x = odometer_map(x)
    return (-1) ** total


def test_cocycle_sum_small_examples():
    # atom 0 at level 6 and m = 0, 1, 2: phi(0) = phi(1/2) = 0, so s = +1
    small = SkewSystem(6, 4)
    assert [small._signed_mass(0, 6, m) for m in (0, 1, 2)] == [(1, 6)] * 3
    assert [_orbit_sign(0, 6, m) for m in (0, 1, 2)] == [1] * 3


def test_cocycle_sum_against_exact_iteration(mn_small):
    """The sign s of D(a, K, m) = s / 2^K on the atom num/2^K, whose tower
    position is a = bit_reverse(num, K), is the orbit sign of the cocycle
    sum (0 exactly where the window is not clean), with t = K."""
    rng = random.Random(3)
    K = mn_small.K
    for _ in range(150):
        num, m = rng.randrange(2**K), rng.randrange(0, 2 ** (K - 4))
        s, t = mn_small._signed_mass(bit_reverse(num, K), K, m)
        assert t == K, (K, num, m)
        assert s == _orbit_sign(num, K, m), (K, num, m)


# -- correlations -------------------------------------------------------------------


def test_correlation_zero_shift_exact(mn_small):
    A = DyadicInterval(1, 2)
    same = skew_correlation(A, 0, 0, 0, mn_small)
    assert same.exact and same.value == pytest.approx(0.125) and same.error_bound == 0
    cross = skew_correlation(A, 0, 1, 0, mn_small)
    assert cross.value == 0.0 and cross.exact


def test_correlation_brute_force_oracle(mn_small):
    # full enumeration over atoms with exact Fraction arithmetic; the atom
    # trajectory is deterministic even through unresolvable reads, and a
    # single such read splits the atom's mass into exact parity halves.
    # Odd cases draw m as a multiple of 2^lev, where T^m A meets A and the
    # value is |A|/4 (alpha = 1/2); the others mostly check a value of 0.
    K = mn_small.K
    M = 2**K
    rng = random.Random(9)
    split_returns = 0
    for case in range(10):
        lev = rng.randrange(3, 7)
        A = DyadicInterval(rng.randrange(2**lev), lev)
        eps, eps2 = rng.randrange(2), rng.randrange(2)
        if case == 0:
            m = 2 ** (K - 4) - 1
        elif case % 2:
            m = rng.randrange(1, 2 ** (K - 4 - lev) + 1) << lev
        else:
            m = rng.randrange(1, 2 ** (K - 4))
        lo = A.numerator << (K - lev)
        hi = lo + (1 << (K - lev))
        value = F(0)
        for t in range(lo, hi):
            x, total, clean = F(t, M), 0, True
            for _ in range(m):
                if int(x * M) >= M - 2:
                    clean = False
                total += mn_cocycle(x)
                x = odometer_map(x)
            in_A = lo <= int(x * M) < hi
            if not in_A:
                continue
            if clean:
                if (eps + total) % 2 == eps2:
                    value += F(1, 2 * M)
            else:
                value += F(1, 4 * M)
                split_returns += 1
        if m % 2**lev == 0:
            assert value == A.width / 4, (A, eps, eps2, m)
        got = skew_correlation(A, eps, eps2, m, mn_small)
        assert got.value == pytest.approx(float(value), abs=1e-12), (A, eps, eps2, m)
    assert split_returns > 0


@st.composite
def custom_correlation_cases(draw):
    K = 8
    c = draw(st.integers(1, 3))
    values = tuple(draw(st.lists(st.integers(0, 1), min_size=2**c, max_size=2**c)))
    lev = draw(st.integers(0, 4))
    A = DyadicInterval(draw(st.integers(0, 2**lev - 1)), lev)
    eps, eps2 = draw(st.integers(0, 1)), draw(st.integers(0, 1))
    m = draw(st.integers(1, 2 ** (K - 4)))
    return K, DyadicStep(c, values), A, eps, eps2, m


@settings(max_examples=40)
@given(custom_correlation_cases())
def test_custom_cocycle_correlation_oracle(case):
    # exact sum over the level-K atoms of A, each iterated with the odometer
    # and the cocycle read off every visited point
    K, cocycle, A, eps, eps2, m = case
    M = 2**K
    lo = A.numerator << (K - A.level)
    hi = lo + (1 << (K - A.level))
    value = F(0)
    for t in range(lo, hi):
        x, total = F(t, M), 0
        for _ in range(m):
            total += int(cocycle.values[int(x * 2**cocycle.level)])
            x = odometer_map(x)
        if lo <= int(x * M) < hi and (eps + total) % 2 == eps2:
            value += F(1, 2 * M)
    got = skew_correlation(A, eps, eps2, m, SkewSystem(K, K, cocycle=cocycle))
    assert got.value == float(value) and got.error_bound == 0.0


def test_correlation_fiber_mass_vs_base(mn_small):
    # sum over eps' equals half the base-odometer correlation
    K = mn_small.K
    M = 2**K
    rng = random.Random(17)
    for _ in range(50):
        lev = rng.randrange(0, 7)
        A = DyadicInterval(rng.randrange(2**lev), lev)
        m = rng.randrange(1, 2 ** (K - 4))
        v0 = skew_correlation(A, 0, 0, m, mn_small)
        v1 = skew_correlation(A, 0, 1, m, mn_small)
        idx = mn_small._rev[np.arange(A.numerator << (K - lev), (A.numerator + 1) << (K - lev))]
        tgt = mn_small._rev[(idx + m) % M]
        base = np.count_nonzero((tgt >> (K - lev)) == A.numerator) / M
        assert abs(v0.value + v1.value - base / 2) <= 2 * (v0.error_bound + v1.error_bound) + 1e-12


def test_correlation_refinement_containment():
    rng = random.Random(31)
    coarse_sys = SkewSystem(14, 10)
    fine_sys = SkewSystem(16, 12)
    for _ in range(50):
        lev = rng.randrange(0, 8)
        A = DyadicInterval(rng.randrange(2**lev), lev)
        eps = rng.randrange(2)
        m = rng.randrange(1, 2**10)
        c = skew_correlation(A, eps, eps, m, coarse_sys)
        f = skew_correlation(A, eps, eps, m, fine_sys)
        assert c.value - c.error_bound - 1e-12 <= f.value <= c.value + c.error_bound + 1e-12


def test_mn_half_rigidity(mn_system):
    seq = rigidity_sequence(DyadicInterval(0, 0), 0, range(10, 15), mn_system)
    for bv in seq:
        assert 0.24 <= bv.value - bv.error_bound
        assert bv.value + bv.error_bound <= 0.26
    seq = rigidity_sequence(DyadicInterval(0, 1), 1, range(10, 15), mn_system)
    for bv in seq:
        assert 0.115 <= bv.value - bv.error_bound
        assert bv.value + bv.error_bound <= 0.135


def test_rigidity_sequence_guard(mn_small):
    with pytest.raises(IndexTooLarge):
        rigidity_sequence(DyadicInterval(0, 0), 0, [mn_small.K - 3], mn_small)
    with pytest.raises(ValueError, match="k = -1"):
        rigidity_sequence(DyadicInterval(0, 0), 0, [-1], mn_small)


# -- spectral coefficients ------------------------------------------------------------


def test_norm_at_zero(mn_system):
    c = spectral_coefficient(CONSTANT_ONE, "chi", 0, mn_system)
    assert c.value == 1.0 and c.error_bound == 0.0


def test_first_digit_eigenfunction(mn_system):
    for n in (1, 2, 3, 17, 128, 255):
        c = spectral_coefficient(FIRST_DIGIT_SIGN, "one", n, mn_system)
        assert c.value == pytest.approx((-1) ** n, abs=1e-12)


def test_chi_coefficients_vanish(mn_system):
    vals = [spectral_coefficient(CONSTANT_ONE, "chi", n, mn_system).value for n in range(1, 65)]
    assert max(abs(v) for v in vals) < 1e-12


def test_coefficient_symmetry(mn_system):
    for g, fiber in ((CONSTANT_ONE, "chi"), (FIRST_DIGIT_SIGN, "one"), (FIRST_DIGIT_SIGN, "chi")):
        for n in (1, 9, 100):
            a = spectral_coefficient(g, fiber, n, mn_system)
            b = spectral_coefficient(g, fiber, -n, mn_system)
            assert abs(a.value - b.value) <= a.error_bound + b.error_bound + 1e-12


def test_toeplitz_positive_semidefinite(mn_system):
    for g, fiber in ((CONSTANT_ONE, "chi"), (FIRST_DIGIT_SIGN, "one")):
        vals = {
            n: spectral_coefficient(g, fiber, n, mn_system).value for n in range(0, 9)
        }
        T = np.array([[vals[abs(i - j)] for j in range(9)] for i in range(9)])
        assert np.linalg.eigvalsh(T).min() >= -1e-9


@st.composite
def dyadic_steps(draw):
    c = draw(st.integers(0, 4))
    values = draw(st.lists(st.floats(-2, 2, allow_nan=False), min_size=2**c, max_size=2**c))
    return DyadicStep(c, tuple(values))


@settings(max_examples=40)
@given(dyadic_steps())
def test_closed_forms_for_any_step_function(g):
    # g (x) chi: c(n) = 0 exactly once 2|n| >= 2^c (every n != 0 for c = 0);
    # g (x) 1 is a correlation of a period-2^c sequence, so c(n) = c(|n| mod 2^c)
    sys_, G = SkewSystem(16, 12), 2**g.level
    for m in range(max(1, G // 2), 8 * G):
        for n in (m, -m):
            assert spectral_coefficient(g, "chi", n, sys_).value == 0.0, (g, n)
            one = spectral_coefficient(g, "one", n, sys_).value
            assert one == spectral_coefficient(g, "one", m % G, sys_).value, (g, n)


WINDOW_SYSTEMS = (SkewSystem(16, 12), SkewSystem(12, 10, DyadicStep(2, (0.0, 1.0, 1.0, 0.0))))


@settings(max_examples=40)
@given(dyadic_steps(), st.sampled_from(("one", "chi")), st.sampled_from(WINDOW_SYSTEMS), st.data())
def test_spectral_window_equals_the_per_n_coefficients(g, fiber, sys_, data):
    # the closed forms pick which n share a value; each value is still the kernel's, bit for bit
    limit = 1 << sys_.L >> 4
    window = data.draw(st.integers(0, limit), label="window")
    got = spectral_window(g, fiber, window, sys_)
    assert len(got) == window + 1
    for n, (value, error_bound) in enumerate(got):
        want = spectral_coefficient(g, fiber, n, sys_)
        assert (value.hex(), error_bound) == (want.value.hex(), want.error_bound), (g, fiber, n)
    with pytest.raises(IndexTooLarge) as per_n:
        spectral_coefficient(g, fiber, limit + 1, sys_)
    with pytest.raises(IndexTooLarge) as whole:
        spectral_window(g, fiber, limit + 1, sys_)
    assert str(whole.value) == str(per_n.value) == f"|n| must be <= 2^(L-4) = {limit}"


def bit_reverse(r: int, level: int) -> int:
    return int(format(r, f"0{level}b")[::-1], 2) if level else 0


def fraction_signed_mass(sys_: SkewSystem, a: int, l: int, m: int) -> F:
    """D(a, l, m) as a Fraction: the band oracle, or a custom cocycle read
    off every residue z = a mod 2^l of its period and every step of the window."""
    if sys_.cocycle is None:
        return memo_band_mass(a, l, m, {})
    c, values = sys_.cocycle.level, sys_.cocycle.values
    top = max(c, l)
    phi = [int(values[bit_reverse(z % 2**c, c)]) for z in range(2**top + m)]
    return sum((F((-1) ** sum(phi[z : z + m]), 2**top) for z in range(a, 2**top, 2**l)), F(0))


def fraction_spectral_coefficient(g: DyadicStep, fiber: str, n: int, sys_: SkewSystem) -> F:
    """<U^n f, f> summed in Fractions over the tower classes of g."""
    m, G = abs(n), 2**g.level
    tower = [F(g.values[bit_reverse(r, g.level)]) for r in range(G)]
    weights = [F(1, G) if fiber == "one" else fraction_signed_mass(sys_, r, g.level, m) for r in range(G)]
    return sum((tower[r] * tower[(r + m) % G] * weights[r] for r in range(G)), F(0))


@st.composite
def integer_kernel_cases(draw):
    K = 10
    c = draw(st.integers(-1, 3))  # -1 draws the band cocycle
    if c < 0:
        sys_ = SkewSystem(K, K - 1)
    else:
        values = draw(st.lists(st.sampled_from((0.0, 1.0)), min_size=2**c, max_size=2**c))
        sys_ = SkewSystem(K, K, DyadicStep(c, tuple(values)))
    level = draw(st.integers(0, 4))
    value = st.one_of(st.sampled_from((1 / 3, 1e-300, -7.0, 0.0, -0.0, 5e-324, 1.0)), st.floats(-1e100, 1e100))
    g = DyadicStep(level, tuple(draw(st.lists(value, min_size=2**level, max_size=2**level))))
    limit = 1 << sys_.L >> 4
    l = draw(st.integers(0, 4))
    A = DyadicInterval(draw(st.integers(0, 2**l - 1)), l)
    m = draw(st.integers(0, 2 ** (K - 4)))
    if draw(st.booleans()):  # a return time of A's tower class
        m -= m % 2**l
    return sys_, g, draw(st.sampled_from(("one", "chi"))), draw(st.integers(-limit, limit)), A, m


@settings(max_examples=150)
@given(integer_kernel_cases())
def test_integer_kernels_round_as_the_fraction_formulas(case):
    # one int/int division per value is float(Fraction) of the same rational, to the bit
    sys_, g, fiber, n, A, m = case
    got = spectral_coefficient(g, fiber, n, sys_)
    assert got.value.hex() == float(fraction_spectral_coefficient(g, fiber, n, sys_)).hex(), (g.values, n)
    for eps2 in (0, 1):
        want = F(0)
        if m % 2**A.level == 0:
            D = fraction_signed_mass(sys_, bit_reverse(A.numerator, A.level), A.level, m)
            want = (A.width + D if eps2 == 0 else A.width - D) / 4
        assert skew_correlation(A, 0, eps2, m, sys_).value.hex() == float(want).hex(), (A, eps2, m)


def test_coefficient_index_guard(mn_system):
    with pytest.raises(IndexTooLarge):
        spectral_coefficient(CONSTANT_ONE, "chi", 2 ** (mn_system.L - 4) + 1, mn_system)


def test_window_caps_below_level_four_are_integer_floors():
    # 2^(K-4) at K = 3 and 2^(L-4) at L = 3 are 1/2, floored to 0: only index 0 is in range
    low_k, low_l = SkewSystem(3, 2), SkewSystem(5, 3)
    assert low_k.max_window() == 0 and type(low_k.max_window()) is int
    assert skew_correlation(DyadicInterval(0, 0), 0, 0, 0, low_k).value == 0.5
    with pytest.raises(IndexTooLarge, match=r"^shift 1 exceeds 2\^\(K-4\) = 0$"):
        skew_correlation(DyadicInterval(0, 0), 0, 0, 1, low_k)
    assert spectral_coefficient(CONSTANT_ONE, "chi", 0, low_l).value == 1.0
    with pytest.raises(IndexTooLarge, match=r"^\|n\| must be <= 2\^\(L-4\) = 0$"):
        spectral_coefficient(CONSTANT_ONE, "chi", 1, low_l)


def test_custom_cocycle_zero_gives_product_behaviour():
    # phi = 0 everywhere: chi-coefficients reduce to base correlations
    sys_ = SkewSystem(10, 10, cocycle=DyadicStep(0, (0.0,)))
    for n in (1, 5, 16):
        a = spectral_coefficient(FIRST_DIGIT_SIGN, "chi", n, sys_)
        b = spectral_coefficient(FIRST_DIGIT_SIGN, "one", n, sys_)
        assert a.value == pytest.approx(b.value, abs=1e-12)


@pytest.mark.parametrize("call, message", [
    (lambda: odometer_map(F(1)), "x must lie in [0, 1)"),
    (lambda: DyadicInterval(0, -1), "level must be nonnegative"),
    (lambda: DyadicInterval(4, 2), "numerator outside [0, 2^level)"),
    (lambda: DyadicStep(1, (1.0,)), "need one value per level atom"),
    (lambda: DyadicStep(1, (1.0, float("nan"))), "step value must be a finite number, got nan"),
    (lambda: DyadicStep(1, (1.0, float("inf"))), "step value must be a finite number, got inf"),
    (lambda: SkewSystem(8, 6, DyadicStep(9, (0.0,) * 2**9)), "cocycle breakpoints finer than the atoms"),
    (lambda: SkewSystem(8, 6, DyadicStep(1, (0.0, 0.5))), "cocycle values must lie in {0, 1}"),
    (lambda: skew_correlation(DyadicInterval(0, 0), 2, 0, 1, SkewSystem(8, 6)), "fiber points must be 0 or 1"),
    (lambda: skew_correlation(DyadicInterval(0, 0), 0, 0, -1, SkewSystem(8, 6)), "m must be nonnegative"),
    (lambda: skew_correlation(DyadicInterval(0, 9), 0, 0, 1, SkewSystem(8, 6)), "interval finer than the atom partition"),
    (lambda: spectral_coefficient(CONSTANT_ONE, "two", 1, SkewSystem(8, 6)), "fiber must be 'one' or 'chi'"),
    (lambda: spectral_coefficient(DyadicStep(9, (1.0,) * 2**9), "chi", 1, SkewSystem(8, 6)),
     "step function finer than the atom partition"),
    # finite values whose exact coefficient 1e400 has no float
    (lambda: spectral_coefficient(DyadicStep(0, (1e200,)), "one", 0, SkewSystem(8, 6)),
     "spectral coefficient of g (level 0, fiber one) at n = 0 exceeds the float range"),
    (lambda: spectral_coefficient(DyadicStep(0, (1e200,)), "chi", 0, SkewSystem(8, 6)),
     "spectral coefficient of g (level 0, fiber chi) at n = 0 exceeds the float range"),
    # library input is read through operator.index, never truncated or left to fail at query time
    (lambda: DyadicInterval(0.5, 1), "numerator 0.5 is not an integer"),
    (lambda: DyadicInterval(1, 1.0), "level 1.0 is not an integer"),
    (lambda: SkewSystem(20.0, 16), "atom level 20.0 is not an integer"),
    (lambda: SkewSystem(20, 16.0), "cutoff 16.0 is not an integer"),
    (lambda: skew_correlation(DyadicInterval(0, 1), 0, 0, 2.0, SkewSystem(12, 8)), "shift 2.0 is not an integer"),
    # a step value is a finite number, not a string or a bool that float() would read
    (lambda: DyadicStep(1, ("0.5", True)), "step value must be a finite number, got '0.5'"),
    (lambda: DyadicStep(1, (0.5, True)), "step value must be a finite number, got True"),
    (lambda: DyadicStep(0, ([1],)), "step value must be a finite number, got [1]"),
    (lambda: DyadicStep(0, (10**400,)), "step value must be a finite number, got a number too large for a float"),
    pytest.param(lambda: DyadicStep(1.0, (1.0, -1.0)), "level 1.0 is not an integer", id="DyadicStep-level-1.0"),
    (lambda: spectral_coefficient(FIRST_DIGIT_SIGN, "one", 1.0, SkewSystem(12, 8)), "index 1.0 is not an integer"),
    (lambda: spectral_coefficient(FIRST_DIGIT_SIGN, "chi", 1.0, SkewSystem(12, 8)), "index 1.0 is not an integer"),
    (lambda: spectral_coefficient(FIRST_DIGIT_SIGN, "chi", 2.5, SkewSystem(12, 8)), "index 2.5 is not an integer"),
    (lambda: spectral_window(FIRST_DIGIT_SIGN, "one", 4.0, SkewSystem(12, 8)), "window 4.0 is not an integer"),
])
def test_input_checks_name_the_fault(call, message):
    with pytest.raises(ValueError) as info:
        call()
    assert str(info.value) == message
