"""The dyadic odometer, a Z2 cocycle over it, and the resulting skew product.

The von Neumann-Kakutani adding machine T translates each band
[1 - 2^-n, 1 - 2^-(n+1)) onto [2^-(n+1), 2^-n); in binary it is "add one
with carry from the left".  Reading the binary digits of x in reverse
gives its tower position z, a 2-adic integer, and T becomes z -> z + 1.
The dyadic interval [num/2^l, (num+1)/2^l) is the residue class
z = bitreverse_l(num) mod 2^l, with Haar mass 2^-l.

The fiber cocycle phi takes the value 0 on
[1 - 2^-n, 1 - 2^-n + 2^-(n+2)) and 1 on the remaining half of each band.
In tower positions it is the regular paperfolding sequence,
phi(z) = fold(z + 1), where fold(n) is the bit just above the lowest set
bit of n.  Every query reduces to the signed mass

    D(a, l, m) = integral over z = a mod 2^l of (-1)^(phi(z) + ... + phi(z+m-1)).

Odd n contribute bit 1 of n to the Birkhoff sum and even n = 2n'
contribute fold(n'), so a loop takes one binary digit of a per step,
D(a, l, m) = +-1/2 D(a >> 1, l - 1, ((a & 1) + m) >> 1), and stops with
D = 0 once 2m >= 2^l (m >= 1): there the two parities split the class
evenly (the lemma at `_band_mass`).  A query takes at most l steps and
its value is 0 or +-2^-l, exactly.  A user-supplied `DyadicStep`
cocycle of level c is periodic with period 2^c in tower positions, so D
is a sum over the residues mod 2^max(c, l).

Every value is a dyadic rational, and the kernels never build a
`Fraction`: D is carried as an integer numerator over 2^t, a step
function as integer numerators over one common power of two (every
finite float is p/2^e), and each reported float is one int/int true
division, which CPython rounds correctly, as `float(Fraction)` does.
`Fraction` appears only at the API: `odometer_map`, `mn_cocycle` and
`DyadicInterval.width`.

The skew product acts on [0,1) x Z2 by T_phi(x, g) = (Tx, phi(x) + g)
with the uniform fiber measure (mass 1/2 per fiber point).  The atom
level K and the cutoff L of a `SkewSystem` fix the query windows,
2^(K-4) for correlations and 2^(L-4) for spectral coefficients, floored
to an integer (0 below level 4); no table of atoms is built.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from typing import Sequence

from .rankone import BoundedValue, _integer


class SkewError(Exception):
    pass


class IndexTooLarge(SkewError):
    pass


class CoefficientOverflow(SkewError, ValueError):
    """An exact value beyond the float range: its finite inputs are too large, so also a ValueError."""


def _band(x: Fraction) -> tuple[Fraction, int]:
    """x as a Fraction and the n of its band [1 - 2^-n, 1 - 2^-(n+1))."""
    x = Fraction(x)
    if not 0 <= x < 1:
        raise ValueError("x must lie in [0, 1)")
    y = 1 - x  # 2^-(n+1) < y <= 2^-n picks the band
    n = 0
    while y <= Fraction(1, 2 ** (n + 1)):
        n += 1
    return x, n


def odometer_map(x: Fraction) -> Fraction:
    """Exact adding-machine image of a dyadic rational in [0, 1)."""
    x, n = _band(x)
    return x + Fraction(3, 2 ** (n + 1)) - 1


def mn_cocycle(x: Fraction) -> int:
    """The half-and-half band cocycle: 0 on the first half of each band."""
    x, n = _band(x)
    offset = x - (1 - Fraction(1, 2**n))
    return 0 if offset < Fraction(1, 2 ** (n + 2)) else 1


class DyadicInterval:
    """[numerator / 2^level, (numerator + 1) / 2^level)."""

    __slots__ = ("numerator", "level")

    def __init__(self, numerator: int, level: int):
        numerator, level = _integer("numerator", numerator), _integer("level", level)
        if level < 0:
            raise ValueError("level must be nonnegative")
        if not 0 <= numerator < 2**level:
            raise ValueError("numerator outside [0, 2^level)")
        self.numerator, self.level = numerator, level

    @property
    def width(self) -> Fraction:
        return Fraction(1, 2**self.level)

    @classmethod
    def parse(cls, text: str) -> "DyadicInterval":
        """Accepts `num/2^K`."""
        num_s, _, den_s = text.partition("/")
        if not (den_s.startswith("2^") and num_s.isdecimal() and den_s[2:].isdecimal()):
            raise ValueError(f"expected num/2^K, got {text!r}")
        return cls(int(num_s), int(den_s[2:]))


def _bit_reverse(num: int, level: int) -> int:
    """Tower position of the level-`level` dyadic with numerator `num`."""
    return int(format(num, f"0{level}b")[::-1], 2) if level else 0


class DyadicStep:
    """A step function constant on the dyadic atoms of a given level.

    `_tower` lists its values in tower order as integer numerators over
    the common denominator `_denominator`, a power of two; both are built
    once, with the step function.
    """

    __slots__ = ("level", "values", "_tower", "_denominator")

    def __init__(self, level: int, values: Sequence[float]):
        if len(values) != 2**level:
            raise ValueError("need one value per level atom")
        values = tuple(float(v) for v in values)
        if not all(map(math.isfinite, values)):
            raise ValueError("step values must be finite")
        ratios = [values[_bit_reverse(r, level)].as_integer_ratio() for r in range(2**level)]
        Q = max(q for _, q in ratios)
        self.level, self.values = level, values
        self._tower, self._denominator = tuple(p * (Q // q) for p, q in ratios), Q


FIRST_DIGIT_SIGN = DyadicStep(1, (1.0, -1.0))
CONSTANT_ONE = DyadicStep(0, (1.0,))


def _band_mass(a: int, l: int, m: int) -> int:
    """The sign s in {-1, 0, 1} of D(a, l, m) = s * 2^-l for the band
    cocycle phi(z) = fold(z + 1), one digit per step.

    Each step halves the mass, so |D| is 2^-l or 0.  Lemma: D(a, l, m) = 0
    once m >= 1 and 2m >= 2^l; the bound is sharp.  Induction on m, where a
    class of level l < 2 is the sum of its level-2 classes and the step
    holds for l >= 2, m >= 1.  m = 1: D(0, 1, 1) = 1/4 - 1/4, as phi(z) is
    bit 1 of z + 1 on z = 0, 2 mod 4; D(1, 1, 1) = D(1, 2, 1) + D(3, 2, 1)
    = +-D(0, 1, 1)/2 +- D(1, 1, 1)/2, so D(1, 1, 1) = 0.  m >= 2: one step
    from level l2 = max(l, 2) leaves 1 <= m' < m with 2m' >= 2^(l2 - 1).
    """
    flips = 0
    while m:
        if 2 * m >= 1 << l:
            return 0
        # n in (z, z + m]: odd n add bit 1 of n (one per n = 3 mod 4),
        # even n = 2n' add fold(n') with n' in (z >> 1, (z + m) >> 1]
        flips += ((a + m + 1) >> 2) - ((a + 1) >> 2)
        a, l, m = a >> 1, l - 1, ((a & 1) + m) >> 1
    return -1 if flips & 1 else 1


class SkewSystem:
    """The skew product queried at atom level K with cutoff L.

    Z2 fibers only; the cocycle is either the built-in band cocycle or a
    user dyadic step function with values in {0, 1} and breakpoints of
    level <= K (such cocycles are constant on all atoms).
    """

    def __init__(self, atom_level: int = 20, boundary_cutoff: int = 16,
                 cocycle: DyadicStep | None = None):
        atom_level, boundary_cutoff = _integer("atom level", atom_level), _integer("cutoff", boundary_cutoff)
        if atom_level > 26:
            raise ValueError("atom level capped at 26")
        if not 1 <= boundary_cutoff <= atom_level:
            raise ValueError("need 1 <= L <= K")
        if cocycle is None and boundary_cutoff > atom_level - 1:
            raise ValueError("band cocycle needs L <= K - 1 for atom constancy")
        if cocycle is not None:
            if cocycle.level > atom_level:
                raise ValueError("cocycle breakpoints finer than the atoms")
            if any(v not in (0.0, 1.0) for v in cocycle.values):
                raise ValueError("cocycle values must lie in {0, 1}")
            # prefix sums of one period of the cocycle in tower order
            # (values in {0, 1} have denominator 1)
            self._period_prefix = [0, *accumulate(cocycle._tower)]
        self.K = atom_level
        self.L = boundary_cutoff
        self.cocycle = cocycle

    @property
    def atom_count(self) -> int:
        return 2**self.K

    def max_window(self) -> int:
        return 1 << self.K >> 4

    def _signed_mass(self, a: int, l: int, m: int) -> tuple[int, int]:
        """D(a, l, m) = s / 2^t as (s, t): the integral of (-1)^phi_m over
        the tower class a mod 2^l.

        The band cocycle runs the digit loop, with t = l; a custom one of
        level c sums a period, with t = max(c, l).  Either way t depends on
        l and the cocycle only.
        """
        if self.cocycle is None:
            return _band_mass(a, l, m), l
        P = self._period_prefix
        C = len(P) - 1

        def phi_sum(N: int) -> int:  # phi(0) + ... + phi(N - 1)
            return (N // C) * P[C] + P[N % C]

        top = max(self.cocycle.level, l)
        total = sum((-1) ** (phi_sum(r + m) - phi_sum(r)) for r in range(a, 2**top, 2**l))
        return total, top


def skew_correlation(
    A: DyadicInterval, eps: int, eps2: int, m: int, sys: SkewSystem
) -> BoundedValue:
    """mu x h ( T_phi^m (A x {eps}) cap (A x {eps2}) ), exact.

    T^m maps the tower class of A into itself exactly when 2^level(A)
    divides m; the fiber parities then split the mass |A|/2 by the
    signed mass D of A.  For the band cocycle and m > 0 that split is
    even (D = 0 as m >= 2^l), so the value is exactly |A|/4: along the
    times 2^k, k >= l, half of A x {eps} returns, the paper's alpha = 1/2.
    """
    if eps not in (0, 1) or eps2 not in (0, 1):
        raise ValueError("fiber points must be 0 or 1")
    m = _integer("shift", m)
    if m < 0:
        raise ValueError("m must be nonnegative")
    if m > sys.max_window():
        raise IndexTooLarge(f"shift {m} exceeds 2^(K-4) = {sys.max_window()}")
    if A.level > sys.K:
        raise ValueError("interval finer than the atom partition")
    value = 0.0
    if m % 2**A.level == 0:
        s, t = sys._signed_mass(_bit_reverse(A.numerator, A.level), A.level, m)
        # (|A| +- D) / 4 = (2^(t - l) +- s) / 2^(t + 2)
        value = ((1 << (t - A.level)) + (s if eps == eps2 else -s)) / (1 << (t + 2))
    return BoundedValue(value=value, error_bound=0.0)


@dataclass(frozen=True)
class SpectralCoefficient:
    index: int
    value: float
    error_bound: float


def _check_coefficient(g: DyadicStep, fiber: str, n: int, sys: SkewSystem) -> None:
    if fiber not in ("one", "chi"):
        raise ValueError("fiber must be 'one' or 'chi'")
    limit = 1 << sys.L >> 4
    if abs(n) > limit:
        raise IndexTooLarge(f"|n| must be <= 2^(L-4) = {limit}")
    if g.level > sys.K:
        raise ValueError("step function finer than the atom partition")


def spectral_coefficient(
    g: DyadicStep, fiber: str, n: int, sys: SkewSystem
) -> SpectralCoefficient:
    """<U^n f, f> for f = g (x) 1 or f = g (x) chi, chi(g) = (-1)^g.

    For g (x) 1 this is the base-odometer correlation of g.  For g (x) chi
    the fiber character turns the Birkhoff parity into a sign, so each
    tower class r of g contributes g(r) g(r + n) D(r, level(g), n).
    Pairing x with T^-n x reads the same windows, so c(-n) = c(n).
    For the band cocycle and chi, c(n) = 0 once n != 0 and
    |n| >= 2^(level(g) - 1), so g (x) chi has a trigonometric-polynomial
    spectral density, and for `one:chi` it is exactly Lebesgue measure.
    """
    _check_coefficient(g, fiber, n, sys)
    # g(r) g(r + m) over the tower classes r, in units of 1/Q^2 for g = tower/Q
    tower, shift = g._tower, abs(n) % 2**g.level
    products = [x * y for x, y in zip(tower, tower[shift:] + tower[:shift])]
    if fiber == "one":  # each class has mass 2^-level(g)
        total, t = sum(products), g.level
    else:  # D = s / 2^t with the same t for every class
        total = 0
        for r, xy in enumerate(products):
            s, t = sys._signed_mass(r, g.level, abs(n))
            total += s * xy
    try:
        value = total / (g._denominator**2 << t)
    except OverflowError:
        raise CoefficientOverflow(f"spectral coefficient of g (level {g.level}, fiber {fiber}) "
                                  f"at n = {n} exceeds the float range") from None
    return SpectralCoefficient(index=n, value=value, error_bound=0.0)


def spectral_window(
    g: DyadicStep, fiber: str, window: int, sys: SkewSystem
) -> list[tuple[float, float]]:
    """(value, error_bound) of spectral_coefficient(g, fiber, n, sys) at
    position n, for n = 0..window, each distinct value computed once.

    With c = level(g): g (x) 1 has c(n) = c(n mod 2^c), and under the band
    cocycle g (x) chi has c(n) = 0 once n >= 1 and 2n >= 2^c (the lemma at
    `_band_mass`), so a window costs at most 2^c kernel calls; a custom
    cocycle keeps every n.  The checks run before any call, in the order
    the calls n = 0..window would meet them.
    """
    _check_coefficient(g, fiber, 0, sys)
    _check_coefficient(g, fiber, window, sys)
    G = 1 << g.level
    if fiber == "one":
        distinct = G
    elif sys.cocycle is None:  # up to n = max(1, 2^(c-1)), the first n of the 0 tail
        distinct = max(1, G >> 1) + 1
    else:
        distinct = window + 1
    values = []
    for n in range(min(distinct, window + 1)):
        c = spectral_coefficient(g, fiber, n, sys)
        values.append((c.value, c.error_bound))
    if fiber == "one":  # one period, repeated
        return (values * (window // G + 1))[:window + 1]
    return values + values[-1:] * (window + 1 - len(values))  # the 0 tail, if any


def rigidity_sequence(
    A: DyadicInterval, eps: int, k_range: Sequence[int], sys: SkewSystem
) -> list[BoundedValue]:
    """skew_correlation(A, eps, eps, 2^k, sys) along the odometer's
    rigidity times 2^k."""
    out = []
    for k in k_range:
        if k < 0:
            raise ValueError(f"rigidity times 2^k need k >= 0, got k = {k}")
        if k > sys.K - 4:  # before 2^k is built: str() of a huge one fails past 4,300 digits
            raise IndexTooLarge(f"rigidity time 2^k with k = {k} exceeds 2^(K-4) = 2^{sys.K - 4}")
        out.append(skew_correlation(A, eps, eps, 2**k, sys))
    return out
