"""Analysis of correlation sequences and weak-limit coefficient sets.

A correlation sequence sigma_hat(n) = <U^n f, f> is the Fourier data of a
positive measure on the circle.  This module estimates its discrete mass
(Wiener averages of |sigma_hat|^2), probes Rajchman decay, estimates
weak*-limits of shifted sequences, and classifies left coefficient tails
by the quasi-analyticity divergence test

    sum_{n >= 1}  log( sum_{k <= -n} a_k^2 ) / n^2  = -infinity,

which certifies singularity of the underlying spectrum when the
coefficients come from a weak limit of powers that is not itself a power.
Verdicts are derived from closed-form tail descriptors only; finitely
many numeric terms cannot decide divergence.
"""

from __future__ import annotations

import json
import math
from itertools import accumulate
from typing import NamedTuple, Sequence

from . import _integer, _integers, _real

STABILIZATION_SPREAD = 1e-3  # spread over the last three times counted as stable


class SpectralError(Exception):
    pass


class WindowTooSmall(SpectralError):
    pass


class InvalidTail(SpectralError):
    pass


class IndexGap(SpectralError):
    pass


class CorrelationSequence:
    """sigma_hat values on a symmetric index window, with error bounds."""

    __slots__ = ("values", "source")

    def __init__(self, values: dict[int, tuple[float, float]], source: str = ""):
        # values take float() in bulk, not _real: a skew spectrum report builds one sequence per query
        self.values = {n: (float(v), float(e)) for n, (v, e) in zip(_integers("index", values), values.values())}
        self.source = source
        if 0 not in self.values:
            raise ValueError("sequence must include n = 0")
        if not self.values[0][0] > 0:  # a NaN is refused too
            raise ValueError("sigma_hat(0) must be positive")
        lo, hi = min(self.values), max(self.values)
        if hi - lo + 1 != len(self.values):  # distinct integer keys: a gap is a missing count
            missing = next(n for n in range(lo, hi) if n not in self.values)
            raise IndexGap(f"no value for index n = {missing}")

    @property
    def window(self) -> int:
        return max(n for n in self.values if n >= 0)

    def value(self, n: int) -> float:
        return self.values[n][0]

    @classmethod
    def from_csv(cls, path: str) -> "CorrelationSequence":
        import csv
        vals: dict[int, tuple[float, float]] = {}
        with open(path, newline="") as fh:
            for line, row in enumerate(csv.reader(fh), start=1):
                first = row[0].strip() if row else ""
                if not row or first.startswith("#") or line == 1 and first.startswith("n"):
                    continue
                try:
                    n, v = int(row[0]), _real("value", float(row[1]))
                    e = _real("error bound", float(row[2])) if len(row) > 2 else 0.0
                    if n in vals:
                        raise ValueError(f"repeated index n = {n}")
                except (ValueError, IndexError) as exc:
                    raise ValueError(f"{path} line {line}: bad row {','.join(row)!r}: {exc}") from None
                vals[n] = (v, e)
        return cls(vals, source=path)


def wiener_discrete_mass(corr: CorrelationSequence, N: int | None = None) -> float:
    """Cesaro average (1/N) sum_{n=1..N} |sigma_hat(n)|^2.

    Converges to the sum of squared atom masses of the measure; use the
    half-window value as a convergence indicator.
    """
    N = corr.window if N is None else _integer("N", N)
    if N < 32:
        raise WindowTooSmall("need a window of at least 32 coefficients")
    if N > corr.window:
        raise WindowTooSmall(f"N = {N} exceeds the window {corr.window}")
    total = 0.0
    for n in range(1, N + 1):
        total += corr.value(n) ** 2
    return total / N


class RajchmanStats(NamedTuple):
    outer_quartile_max: float
    envelope_slope: float


def rajchman_probe(corr: CorrelationSequence) -> RajchmanStats:
    """Decay statistics: max |sigma_hat| on the outer quartile of the
    window, and a log-envelope slope fitted on dyadic bins (descriptive
    only)."""
    W = corr.window
    if W < 64:
        raise WindowTooSmall("need a window of at least 64 coefficients")
    outer_max = max(abs(corr.value(n)) for n in range(3 * W // 4, W + 1))
    # envelope: max |sigma_hat| over dyadic blocks [2^j, 2^(j+1))
    xs, ys = [], []
    for j in range(W.bit_length() - 1):  # the blocks inside [1, W]; W >= 64 gives six
        env = max(abs(corr.value(n)) for n in range(2**j, 2 ** (j + 1)))
        xs.append(j * math.log(2.0))
        ys.append(math.log(env) if env > 0 else math.log(1e-300))
    return RajchmanStats(outer_quartile_max=float(outer_max), envelope_slope=_slope(xs, ys))


def _slope(xs: Sequence[float], ys: Sequence[float]) -> float:
    """Least-squares slope of the line through the points (xs[i], ys[i])."""
    mx, my = sum(xs) / len(xs), sum(ys) / len(ys)
    sxy = sum((x - mx) * (y - my) for x, y in zip(xs, ys))
    return sxy / sum((x - mx) ** 2 for x in xs)


class TranslationEstimate(NamedTuple):
    limit: float
    spread: float
    stabilized: bool


def translation_probe(
    corr: CorrelationSequence, times: Sequence[int], j_window: int
) -> dict[int, TranslationEstimate]:
    """Weak*-limit data of e^{i n_k theta} d sigma along the given times.

    For each j the sequence k -> sigma_hat(n_k + j) estimates the j-th
    Fourier coefficient of the limit; the spread over the last three
    times indicates stability (threshold 1e-3, recorded per entry), so at
    least three times are needed.  The times must strictly increase, so
    the limit is read at the largest.
    """
    times, j_window = [_integer("time", t) for t in times], _integer("j_window", j_window)
    if len(times) < 3:
        raise ValueError(f"need at least three times to measure a spread, got {len(times)}")
    if any(s >= t for s, t in zip(times, times[1:])):
        raise ValueError(f"times must strictly increase, got {list(times)}")
    if j_window < 0:
        raise ValueError(f"j_window must be >= 0, got {j_window}")
    need = times[-1] + j_window
    if need > corr.window:
        raise WindowTooSmall(f"window {corr.window} too small for max time + j_window = {need}")
    low = times[0] - j_window
    if low < min(corr.values):
        raise WindowTooSmall(f"no value below n = {min(corr.values)} for min time - j_window = {low}")
    out: dict[int, TranslationEstimate] = {}
    for j in range(-j_window, j_window + 1):
        seq = [corr.value(n + j) for n in times]
        last = seq[-3:]
        spread = max(last) - min(last)
        out[j] = TranslationEstimate(
            limit=seq[-1],
            spread=float(spread),
            stabilized=spread <= STABILIZATION_SPREAD,
        )
    return out


# ---------------------------------------------------------------------------
# coefficient sets and the quasi-analyticity test

# the fields each tail kind reads; every other field must stay unset
TAIL_FIELDS = {
    "none": (),
    "geometric": ("c", "q"),
    "stretched_exponential": ("c", "gamma"),
    "polynomial": ("c", "s"),
}


class TailDescriptor:
    """Closed-form left tail below the finite support.

    With d = (support minimum - k) >= 1 measuring the distance below the
    support edge, the tail coefficient at index k is

        geometric:              c * q^d          (0 < q < 1)
        stretched_exponential:  c * exp(-d^gamma) (gamma > 0)
        polynomial:             c * d^(-s)        (s > 1)

    A field the kind does not read (see TAIL_FIELDS) must be left unset:
    None, or 0 for c.
    """

    __slots__ = ("kind", "c", "q", "gamma", "s")

    def __init__(self, kind: str = "none", c: float = 0.0, q: float | None = None,
                 gamma: float | None = None, s: float | None = None):
        if kind not in TAIL_FIELDS:
            raise InvalidTail(f"unknown tail kind {kind!r}")
        values = {"c": c, "q": q, "gamma": gamma, "s": s}
        for name, value in values.items():
            if value is not None:
                _real(f"tail field {name!r}", value, InvalidTail)
        for name, value in values.items():
            if name not in TAIL_FIELDS[kind] and value is not None and (name != "c" or value != 0):
                takes = ", ".join(TAIL_FIELDS[kind]) or "no field"
                raise InvalidTail(f"tail field {name!r} is not read by kind {kind!r}, which takes {takes}")
        if kind != "none":
            if c <= 0:
                raise InvalidTail("tail amplitude c must be positive")
            if kind == "geometric" and not (q and 0 < q < 1):
                raise InvalidTail("geometric tail needs 0 < q < 1")
            if kind == "stretched_exponential" and not (gamma and gamma > 0):
                raise InvalidTail("stretched tail needs gamma > 0")
            if kind == "polynomial" and not (s and s > 1):
                raise InvalidTail("polynomial tail needs s > 1")
        self.kind, self.c, self.q, self.gamma, self.s = kind, c, q, gamma, s

    def verdict(self) -> tuple[str, str]:
        """Does sum log(sum_{k <= -n} a_k^2) / n^2 diverge? ("holds" | "fails", why)"""
        if self.kind == "none":
            return "holds", "left tail eventually zero: log tail = -inf beyond the support"
        if self.kind == "geometric":
            return "holds", "log tail ~ -2 n log(1/q); terms ~ c/n diverge"
        if self.kind == "polynomial":
            return "fails", "log tail ~ -(2s - 1) log n; sum log(n)/n^2 converges"
        if self.gamma < 1:
            return "fails", "log tail ~ -2 n^gamma with gamma < 1; sum n^(gamma-2) converges"
        return "holds", "log tail ~ -2 n^gamma with gamma >= 1; terms do not vanish faster than c/n"


def _distinct_keys(pairs: list[tuple[str, object]]) -> dict:
    """A JSON object as a dict, refusing a repeated key that json would overwrite."""
    out = {}
    for key, value in pairs:
        if key in out:
            raise ValueError(f"repeated key {key!r}")
        out[key] = value
    return out


class WeakLimitCoefficients:
    """A two-sided coefficient sequence with a closed-form left tail."""

    __slots__ = ("support", "tail", "restricted")

    def __init__(self, support: dict[int, float], tail: TailDescriptor = TailDescriptor()):
        self.support = {}
        for i, a in zip(_integers("support index", support), support.values()):
            if i in self.support:  # "0" and "00" from a file, say
                raise ValueError(f"repeated support index {i}")
            self.support[i] = _real(f"support coefficient at index {i}", a)
        if not self.support:
            raise ValueError("finite support must be nonempty")
        self.tail = tail
        self.restricted = any(a > 0 for a in self.support.values())

    @property
    def k_min(self) -> int:
        return min(self.support)

    @classmethod
    def from_json(cls, text: str) -> "WeakLimitCoefficients":
        try:
            payload = json.loads(text, object_pairs_hook=_distinct_keys)
            tail_raw = payload.get("tail", {"kind": "none"})
            params = {}
            for name, value in tail_raw.items():
                if name == "kind":
                    continue
                if not any(name in fields for fields in TAIL_FIELDS.values()):
                    raise InvalidTail(f"unknown tail field {name!r}")
                params[name] = _real(f"tail field {name!r}", value, InvalidTail)  # JSON null: refused, not unset
            return cls(tail=TailDescriptor(kind=tail_raw.get("kind", "none"), **params), support=payload["support"])
        except (KeyError, TypeError, ValueError, AttributeError, OverflowError) as exc:
            raise SpectralError(f"malformed coefficient file: {type(exc).__name__}: {exc}") from None


class BeurlingReport(NamedTuple):
    verdict: str  # holds | fails
    partial_sums: tuple[float, ...]
    tail_exponent_fit: float | None
    notes: str


def _logaddexp(x: float, y: float) -> float:
    lo, hi = sorted((x, y))
    return hi + math.log1p(math.exp(lo - hi))


def _log_term(t: TailDescriptor, d: int) -> float:
    """log of the squared tail coefficient at distance d (see TailDescriptor)."""
    if t.kind == "geometric":
        return 2 * math.log(t.c) + 2 * d * math.log(t.q)
    if t.kind == "stretched_exponential":
        return 2 * math.log(t.c) - 2 * d**t.gamma
    return 2 * math.log(t.c) - 2 * t.s * math.log(d)


def _log_tail_sum(t: TailDescriptor, d0: int) -> float:
    """log of sum_{d >= d0} of the squared tail term f(d) at distance d.

    Exact for a geometric tail.  Otherwise the first 2,000 terms plus the rest from
    D = d0 + 2,000: f(D) times D / (2s - 1) + 1/2 + s / (6D), the integral and the
    Euler-Maclaurin end terms (polynomial), or times the integral
    int_0^inf e^(-2u) (u + D^gamma)^(1/gamma - 1) du / gamma (stretched, u = x^gamma -
    D^gamma; trapezoid on 400 nodes of [0, 20], or of a window that covers the
    integrand's peak at u = (1/gamma - 1)/2 - D^gamma when that is positive).  All
    is summed relative to f(d0), so d0^gamma up to 65536^6 does not underflow, and
    the integral is taken as a log, so a small gamma does not overflow.
    """
    first = _log_term(t, d0)
    if t.kind == "geometric":  # c^2 q^(2 d0) / (1 - q^2)
        return first - math.log1p(-t.q * t.q)
    D = d0 + 2000
    if t.kind == "polynomial":
        log_rest = math.log(D / (2 * t.s - 1) + 0.5 + t.s / (6 * D))
    else:
        base, k = D**t.gamma, 1 / t.gamma - 1
        # [0, 20] when the integrand falls from u = 0; else its peak +- 20 and
        # about 12 of its standard deviations, sqrt(k + 1)/2 ~ sqrt(peak/2)
        peak = max(0.0, k / 2 - base)
        reach = 20 + 6 * math.sqrt(2 * peak)
        lo = max(0.0, peak - reach)
        h = (peak + reach - lo) / 399
        logs = [-2 * u + k * math.log(u + base) - math.log(t.gamma) for u in (lo + h * i for i in range(400))]
        top = max(logs)
        f = [math.exp(v - top) for v in logs]
        log_rest = top + math.log(h * (math.fsum(f) - (f[0] + f[-1]) / 2))
    explicit = math.fsum(math.exp(_log_term(t, d) - first) for d in range(d0, D))
    return first + _logaddexp(math.log(explicit), _log_term(t, D) - first + log_rest)


def _log_tails(coeffs: WeakLimitCoefficients, n_max: int) -> list[float]:
    """log of sum_{k <= -n} a_k^2 for n = 1..n_max, taken in log space so
    that no square under- or overflows; the list ends at the first -inf
    (nothing left below -n)."""
    support, t = coeffs.support, coeffs.tail
    d_lo, d_hi = max(1, coeffs.k_min + 1), max(1, coeffs.k_min + n_max)
    log_sums: dict[int, float] = {}
    if t.kind in ("stretched_exponential", "polynomial"):
        log_sums[d_hi] = _log_tail_sum(t, d_hi)
        for d in range(d_hi - 1, d_lo - 1, -1):
            log_sums[d] = _logaddexp(_log_term(t, d), log_sums[d + 1])
    tails: list[float] = []
    for n in range(1, n_max + 1):
        if n == 1 or 1 - n in support:
            left = [abs(a) for k, a in support.items() if k <= -n]
            top = max(left, default=0.0)
            log_finite = 2 * math.log(top) + math.log(math.fsum((a / top) ** 2 for a in left)) if top else -math.inf
        log_tail = log_finite
        if t.kind != "none":  # _logaddexp(-inf, y) = y: an empty support adds nothing
            d0 = max(1, coeffs.k_min + n)  # smallest tail distance k_min - k with k <= -n
            log_tail = _logaddexp(log_finite, log_sums[d0] if log_sums else _log_tail_sum(t, d0))
        tails.append(log_tail)
        if log_tail == -math.inf:
            break
    return tails


def check_n_max(n_max: int) -> None:
    """The one range check on n_max, shared by beurling_check and the certify report."""
    if not 1 <= _integer("n_max", n_max) <= 2**16:
        raise ValueError(f"n_max must lie in 1..{2**16}, got {n_max}")


def beurling_check(coeffs: WeakLimitCoefficients, n_max: int = 600) -> BeurlingReport:
    """Classify divergence of sum log(sum_{k <= -n} a_k^2) / n^2.

    The verdict is coeffs.tail.verdict(); the partial sums for
    n = 1..n_max (fewer once the log tail reaches -inf) are reported for
    inspection but never decide it.
    """
    check_n_max(n_max)
    verdict, notes = coeffs.tail.verdict()
    tails = _log_tails(coeffs, n_max)
    sums = tuple(accumulate(lt / (n * n) for n, lt in enumerate(tails, start=1)))

    pts = [
        (math.log(n), math.log(-lt))
        for n, lt in enumerate(tails, start=1)
        if n >= max(2, len(tails) // 2) and -math.inf < lt < 0
    ]
    fit = _slope(*zip(*pts)) if len(pts) >= 2 else None
    return BeurlingReport(
        verdict=verdict,
        partial_sums=sums,
        tail_exponent_fit=fit,
        notes=notes,
    )


class CertificateReport(NamedTuple):
    verdict: str
    alpha_lower_bound: float | None
    tail_verdict: str
    nonpower_asserted: bool
    notes: tuple[str, ...]


def singularity_certificate(
    coeffs: WeakLimitCoefficients, limit_is_nonpower: bool = True
) -> CertificateReport:
    """Singularity certificate for the spectrum behind a weak limit.

    Requires the caller to assert that the coefficients describe a weak
    limit of powers U^{n_k} that is not itself a single power; the
    assertion is recorded, not checked (no finite computation can).  With
    some nonzero coefficient and a tail whose verdict() holds (read off the
    descriptor; no partial sum is computed) the spectrum is singular;
    positive coefficients witness alpha-rigidity with alpha at least the
    largest one.
    """
    tail_verdict, _ = coeffs.tail.verdict()
    nonzero = any(a != 0 for a in coeffs.support.values()) or coeffs.tail.kind != "none"
    max_pos = max((a for a in coeffs.support.values() if a > 0), default=None)
    verdict, alpha, notes = "no certificate", None, ()
    if not nonzero:
        verdict, notes = "no certificate (zero limit)", ("all coefficients vanish",)
    elif not limit_is_nonpower:
        notes = ("caller did not assert the limit lies outside the powers",)
    elif tail_verdict != "holds":
        notes = (f"tail test verdict: {tail_verdict}",)
    else:
        verdict, alpha = "singular", max_pos
        if max_pos is not None:
            notes = (f"alpha-rigid with alpha >= {max_pos}",)
            if max_pos > 0.5:
                notes += ("alpha exceeds 1/2: singular already by the classical half-threshold",)
    return CertificateReport(
        verdict=verdict,
        alpha_lower_bound=alpha,
        tail_verdict=tail_verdict,
        nonpower_asserted=limit_is_nonpower,
        notes=notes,
    )
