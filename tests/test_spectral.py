import json
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ergolab.spectral import (
    BeurlingReport,
    CertificateReport,
    CorrelationSequence,
    IndexGap,
    InvalidTail,
    RajchmanStats,
    SpectralError,
    TailDescriptor,
    TranslationEstimate,
    WeakLimitCoefficients,
    WindowTooSmall,
    beurling_check,
    rajchman_probe,
    singularity_certificate,
    translation_probe,
    wiener_discrete_mass,
)


def synthetic(lam: float, window: int = 128) -> CorrelationSequence:
    """lam * Dirac-at-1 + (1 - lam) * Lebesgue: sigma_hat(n) = lam off 0."""
    return CorrelationSequence(
        {n: (1.0 if n == 0 else lam, 0.0) for n in range(-window, window + 1)},
        source=f"synthetic lam={lam}",
    )


# -- Wiener mass -----------------------------------------------------------------


@pytest.mark.parametrize("lam", [0.0, 0.25, 0.5, 1.0])
def test_wiener_convex_combination(lam):
    assert wiener_discrete_mass(synthetic(lam)) == pytest.approx(lam**2, abs=1e-12)


def test_wiener_window_guard():
    with pytest.raises(WindowTooSmall):
        wiener_discrete_mass(synthetic(0.5, window=16))
    with pytest.raises(WindowTooSmall):
        wiener_discrete_mass(synthetic(0.5, window=64), 100)


# -- Rajchman probe ----------------------------------------------------------------


def test_rajchman_extremes():
    assert rajchman_probe(synthetic(0.0)).outer_quartile_max == 0.0
    assert rajchman_probe(synthetic(0.5)).outer_quartile_max == 0.5
    assert rajchman_probe(synthetic(1.0)).outer_quartile_max == 1.0


def test_rajchman_decaying_envelope_slope():
    corr = CorrelationSequence({n: (1.0 if n == 0 else 1.0 / (abs(n) ** 0.5), 0.0) for n in range(-256, 257)})
    stats = rajchman_probe(corr)
    assert stats.envelope_slope == pytest.approx(-0.5, abs=0.1)
    # oracle: np.polyfit on the same dyadic envelope, to rel 1e-12 or abs 1e-12
    # (polyfit reads about 6e-16 where the exact slope is 0)
    xs = [j * math.log(2.0) for j in range(8)]
    ys = [math.log(max(abs(corr.value(n)) for n in range(2**j, 2 ** (j + 1)))) for j in range(8)]
    assert stats.envelope_slope == pytest.approx(float(np.polyfit(xs, ys, 1)[0]), rel=1e-12, abs=1e-12)
    with pytest.raises(WindowTooSmall):
        rajchman_probe(synthetic(0.5, window=32))


# -- translation probe ----------------------------------------------------------------


def test_translation_probe_dirac_and_lebesgue():
    times = [2**k for k in range(3, 9)]
    dirac = translation_probe(synthetic(1.0, window=300), times, 3)
    for est in dirac.values():
        assert est.limit == 1.0 and est.spread == 0.0 and est.stabilized
    leb = translation_probe(synthetic(0.0, window=300), times, 3)
    for est in leb.values():
        assert est.limit == 0.0
    mixed = translation_probe(synthetic(0.5, window=128), [16, 32, 64], 2)
    assert mixed[0].limit == 0.5


def test_translation_probe_alternating_eigenvalue():
    corr = CorrelationSequence({n: ((-1.0) ** n, 0.0) for n in range(-600, 601)})
    probe = translation_probe(corr, [2**k for k in range(1, 10)], 3)
    for j, est in probe.items():
        assert est.limit == (1.0 if j % 2 == 0 else -1.0)
        assert est.spread == 0.0


def test_translation_probe_recovers_planted_coefficients():
    planted = {-2: 0.05, -1: 0.125, 0: 0.5, 1: 0.25, 2: 0.0625}
    times = [2**k for k in range(4, 10)]
    vals = {n: 0.0 for n in range(-1024, 1025)}
    vals[0] = 1.0
    for nk in times:
        for j, a in planted.items():
            vals[nk + j] = a
    corr = CorrelationSequence({n: (v, 0.0) for n, v in vals.items()})
    probe = translation_probe(corr, times, 2)
    for j in range(-2, 3):
        assert abs(probe[j].limit - planted[j]) < 1e-6


def test_translation_probe_rejects_negative_j_window():
    with pytest.raises(ValueError, match="j_window"):
        translation_probe(synthetic(0.5), [16, 32, 48], -1)


@pytest.mark.parametrize("times", [[48, 16, 32], [48, 48, 48], [16, 32, 32]])
def test_translation_probe_rejects_times_that_do_not_increase(times):
    with pytest.raises(ValueError, match=rf"times must strictly increase, got \[{times[0]}, "):
        translation_probe(synthetic(0.5), times, 2)


@pytest.mark.parametrize("times", [[], [48], [16, 48]])
def test_translation_probe_needs_three_times(times):
    # one time used to give spread 0 and stabilized: true
    with pytest.raises(ValueError, match=rf"^need at least three times to measure a spread, got {len(times)}$"):
        translation_probe(synthetic(0.5), times, 2)


def test_translation_probe_window_guard():
    with pytest.raises(WindowTooSmall):
        translation_probe(synthetic(0.5, window=64), [32, 64, 128], 2)
    one_sided = CorrelationSequence({n: (1.0, 0.0) for n in range(65)})
    with pytest.raises(WindowTooSmall):
        translation_probe(one_sided, [1, 2, 3], 3)


# -- coefficient sets -------------------------------------------------------------------


def test_types_keep_their_fields_and_keywords():
    assert RajchmanStats._fields == ("outer_quartile_max", "envelope_slope")
    assert TranslationEstimate._fields == ("limit", "spread", "stabilized")
    assert BeurlingReport._fields == ("verdict", "partial_sums", "tail_exponent_fit", "notes")
    assert CertificateReport._fields == ("verdict", "alpha_lower_bound", "tail_verdict", "nonpower_asserted", "notes")
    corr = CorrelationSequence({"0": (1, 0)})
    assert (corr.values, corr.source) == ({0: (1.0, 0.0)}, "")
    assert CorrelationSequence(values={0: (1.0, 0.0)}, source="s").source == "s"
    none = TailDescriptor()
    assert (none.kind, none.c, none.q, none.gamma, none.s) == ("none", 0.0, None, None, None)
    tail = TailDescriptor("geometric", c=0.25, q=0.5)
    assert (tail.kind, tail.c, tail.q, tail.gamma, tail.s) == ("geometric", 0.25, 0.5, None, None)
    assert TailDescriptor(kind="polynomial", c=1.0, s=2.0).s == 2.0
    coeffs = WeakLimitCoefficients({"-1": 1, 0: 0.5}, tail)
    assert (coeffs.support, coeffs.tail, coeffs.restricted) == ({-1: 1.0, 0: 0.5}, tail, True)
    assert WeakLimitCoefficients(support={0: 0.5}).tail.kind == "none"


def test_restricted_flag():
    assert WeakLimitCoefficients({0: 0.2, 1: -0.1}).restricted
    assert not WeakLimitCoefficients({0: -0.2}).restricted


def test_tail_validation():
    with pytest.raises(InvalidTail):
        TailDescriptor("geometric", c=1.0, q=1.5)
    with pytest.raises(InvalidTail):
        TailDescriptor("polynomial", c=1.0, s=0.5)
    with pytest.raises(InvalidTail):
        TailDescriptor("nonsense")
    with pytest.raises(SpectralError, match="'support'"):
        WeakLimitCoefficients.from_json('{"tail": {"kind": "none"}}')
    with pytest.raises(InvalidTail, match="^tail field 'q' must be a finite number, got 'x'$"):
        WeakLimitCoefficients.from_json('{"support": {"0": 0.5}, "tail": {"kind": "geometric", "c": 1, "q": "x"}}')
    with pytest.raises(SpectralError, match="finite"):
        WeakLimitCoefficients.from_json('{"support": {"0": NaN}}')
    with pytest.raises(InvalidTail, match="unknown tail field 'qq'"):
        WeakLimitCoefficients.from_json('{"support": {"0": 0.5}, "tail": {"kind": "none", "qq": 0.5}}')
    for name, bad in (("c", "x"), ("q", "x"), ("gamma", None), ("s", math.inf)):
        tail = {"kind": "polynomial", "c": 1.0, "s": 2.0, name: bad}
        with pytest.raises(SpectralError, match=f"tail field '{name}'"):
            WeakLimitCoefficients.from_json(json.dumps({"support": {"0": 0.5}, "tail": tail}))


def assert_coefficient_file_error(text, message, path, tmp_path, capsys, error=SpectralError):
    """from_json raises, and `spectral certify` or `beurling` prints, error(message)."""
    from ergolab import cli

    if path == "from_json":
        with pytest.raises(error) as info:
            WeakLimitCoefficients.from_json(text)
        assert (type(info.value), str(info.value)) == (error, message)
        return
    (tmp_path / "coeffs.json").write_text(text)
    assert cli.main(["spectral", path, "--coeffs", str(tmp_path / "coeffs.json")]) == 1
    assert json.loads(capsys.readouterr().out)["error"] == {"type": error.__name__, "message": message}


@pytest.mark.parametrize("text, message", [
    ('{"support": {"0": 0.5, "00": 0.3}}', "repeated support index 0"),
    ('{"support": {"0": 0.5, "0": 0.3}}', "repeated key '0'"),
], ids=["two-spellings", "repeated-key"])
@pytest.mark.parametrize("path", ["from_json", "certify", "beurling"])
def test_repeated_support_index_is_an_error_not_an_overwrite(text, message, path, tmp_path, capsys):
    assert_coefficient_file_error(text, f"malformed coefficient file: ValueError: {message}", path,
                                  tmp_path, capsys)


@pytest.mark.parametrize("text, error, message", [
    ('{"support": {"0": true}}', SpectralError,
     "malformed coefficient file: ValueError: support coefficient at index 0 must be a finite number, got True"),
    ('{"support": {"0": "0.5"}}', SpectralError,
     "malformed coefficient file: ValueError: support coefficient at index 0 must be a finite number, got '0.5'"),
    ('{"support": {"0": null}}', SpectralError,
     "malformed coefficient file: ValueError: support coefficient at index 0 must be a finite number, got None"),
    # the tail is read first, and its fault is the InvalidTail that TailDescriptor raises
    ('{"support": {"0": true}, "tail": {"kind": "geometric", "c": true, "q": "0.5"}}', InvalidTail,
     "tail field 'c' must be a finite number, got True"),
    ('{"support": {"0": 0.5}, "tail": {"kind": "geometric", "c": 0.5, "q": "0.5"}}', InvalidTail,
     "tail field 'q' must be a finite number, got '0.5'"),
    # an int is a JSON number, but this one has no float
    ('{"support": {"0": 1' + "0" * 400 + "}}", SpectralError,
     "malformed coefficient file: ValueError: support coefficient at index 0 must be a finite number, "
     "got a number too large for a float"),
], ids=["bool-support", "str-support", "null-support", "bool-tail", "str-tail", "huge-int"])
@pytest.mark.parametrize("path", ["from_json", "certify", "beurling"])
def test_only_json_numbers_are_read_as_numbers(text, error, message, path, tmp_path, capsys):
    # float() would read true as 1.0 and "0.5" as 0.5
    assert_coefficient_file_error(text, message, path, tmp_path, capsys, error)


@pytest.mark.parametrize("bad", [True, "0.5"], ids=["bool", "str"])
def test_constructors_refuse_booleans_and_strings(bad):
    with pytest.raises(ValueError, match=f"^support coefficient at index 0 must be a finite number, got {bad!r}$"):
        WeakLimitCoefficients({0: bad})
    for name in ("c", "q"):
        with pytest.raises(InvalidTail, match=f"^tail field '{name}' must be a finite number, got {bad!r}$"):
            TailDescriptor("geometric", **{"c": 0.5, "q": 0.5, name: bad})
    # an int is a number
    assert WeakLimitCoefficients({"-1": 1, 0: 0.5}).support == {-1: 1.0, 0: 0.5}
    assert TailDescriptor("geometric", c=1, q=0.5).c == 1


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("name", ["support", "c", "q", "gamma", "s"])
def test_non_finite_coefficients_raise_at_construction(name, bad):
    if name == "support":
        with pytest.raises(ValueError, match=f"^support coefficient at index 0 must be a finite number, got {bad!r}$"):
            WeakLimitCoefficients({-1: 0.25, 0: bad})
        return
    kind = {"gamma": "stretched_exponential", "s": "polynomial"}.get(name, "geometric")
    fields = {"c": 0.5, "q": 0.5, "gamma": 0.5, "s": 2.0, name: bad}
    with pytest.raises(InvalidTail, match=f"tail field '{name}' must be a finite number"):
        TailDescriptor(kind, **fields)


OWN_TAIL_FIELDS = {
    "none": {},
    "geometric": {"c": 0.5, "q": 0.5},
    "stretched_exponential": {"c": 0.5, "gamma": 0.5},
    "polynomial": {"c": 0.5, "s": 2.0},
}


@pytest.mark.parametrize("kind, stray", [(kind, name) for kind, own in OWN_TAIL_FIELDS.items()
                                         for name in ("c", "q", "gamma", "s") if name not in own])
@pytest.mark.parametrize("path", ["constructor", "from_json", "cli"])
def test_tail_field_the_kind_does_not_read_is_named(kind, stray, path, tmp_path, capsys):
    from ergolab import cli

    own = OWN_TAIL_FIELDS[kind]
    message = f"tail field '{stray}' is not read by kind '{kind}'"
    text = json.dumps({"support": {"0": 0.5}, "tail": {"kind": kind, **own, stray: 2.0}})
    if path == "cli":
        (tmp_path / "coeffs.json").write_text(text)
        assert cli.main(["spectral", "certify", "--coeffs", str(tmp_path / "coeffs.json")]) == 1
        error = json.loads(capsys.readouterr().out)["error"]
        assert error["type"] == "InvalidTail" and error["message"].startswith(message)
        return
    with pytest.raises(InvalidTail, match=message):
        if path == "constructor":
            TailDescriptor(kind, **own, **{stray: 2.0})
        else:
            WeakLimitCoefficients.from_json(text)
    # left unset (None, or 0 for c) the field is accepted
    assert TailDescriptor(kind, **own, **{stray: 0.0 if stray == "c" else None}).kind == kind


# -- quasi-analyticity test ---------------------------------------------------------------


ONE_SIDED = WeakLimitCoefficients({0: 1 / 3, 1: 1 / 3, 2: 1 / 3})
GEOMETRIC = WeakLimitCoefficients(
    {k: 2.0 ** (-abs(k)) for k in range(-2, 3)},
    TailDescriptor("geometric", c=2.0**-2, q=0.5),
)
STRETCHED = WeakLimitCoefficients(
    {0: 0.5}, TailDescriptor("stretched_exponential", c=1.0, gamma=1 / 3)
)
POLYNOMIAL = WeakLimitCoefficients({0: 0.5}, TailDescriptor("polynomial", c=1.0, s=2.0))


def test_beurling_verdicts():
    assert beurling_check(ONE_SIDED).verdict == "holds"
    assert beurling_check(GEOMETRIC).verdict == "holds"
    assert beurling_check(STRETCHED).verdict == "fails"
    assert beurling_check(POLYNOMIAL).verdict == "fails"
    fast = WeakLimitCoefficients(
        {0: 0.5}, TailDescriptor("stretched_exponential", c=1.0, gamma=1.5)
    )
    assert beurling_check(fast).verdict == "holds"


def test_beurling_computes_n_max_partial_sums():
    assert len(beurling_check(GEOMETRIC, 1000).partial_sums) == 1000
    assert len(beurling_check(GEOMETRIC).partial_sums) == 600
    for n_max in (0, 2**16 + 1):
        with pytest.raises(ValueError, match=r"n_max must lie in 1\.\.65536"):
            beurling_check(GEOMETRIC, n_max)


def test_beurling_partial_sums_monotone_for_decaying_tails():
    report = beurling_check(GEOMETRIC, 400)
    sums = report.partial_sums
    # beyond the finite support the log-tail terms are negative
    assert sums[-1] < sums[5]
    assert report.tail_exponent_fit == pytest.approx(1.0, abs=0.05)
    # oracle: np.polyfit on the same log-log points, to rel 1e-12 or abs 1e-12
    from ergolab.spectral import _log_tails

    n_max = len(sums)
    tails = _log_tails(GEOMETRIC, n_max)
    xs, ys = zip(*((math.log(n), math.log(-tails[n - 1])) for n in range(n_max // 2, n_max + 1)))
    assert report.tail_exponent_fit == pytest.approx(float(np.polyfit(xs, ys, 1)[0]), rel=1e-12, abs=1e-12)


def test_beurling_geometric_tail_value_matches_closed_form():
    # the displayed example: a_k = 2^-|k| has tail sum (4/3) 4^-n
    from ergolab.spectral import _log_tails

    tails = _log_tails(GEOMETRIC, 50)
    for n in (3, 10, 50):
        expected = math.log((4.0 / 3.0) * 4.0 ** (-n))
        assert tails[n - 1] == pytest.approx(expected, rel=1e-9)


@pytest.mark.parametrize("tail", [TailDescriptor(), TailDescriptor("geometric", c=0.5, q=0.5)])
@pytest.mark.parametrize("a", [1e-200, 1e200])
def test_log_tails_of_support_squares_outside_the_float_range(a, tail):
    # log(a^2 + (a/2)^2) = 2 log a + log 1.25, although a^2 is 0 or inf as a float
    from ergolab.spectral import _log_tails

    tails = _log_tails(WeakLimitCoefficients({-3: a, -2: a / 2, 0: 0.5}, tail), 5)
    if tail.kind == "none":
        assert tails[3:] == [-math.inf]
    else:
        assert len(tails) == 5 and all(map(math.isfinite, tails))
    if tail.kind == "none" or a > 1:  # a geometric tail of c = 0.5 outweighs 1e-400
        assert tails[:2] == [pytest.approx(2 * math.log(a) + math.log(1.25), rel=1e-15)] * 2
        assert tails[2] == pytest.approx(2 * math.log(a), rel=1e-15)


# Partial sums that the per-n tail formulas gave (one 2,000-term sum or one
# 400-point trapezoid for every n), frozen at n = 1, 5, 100, 600 and 4096.
FROZEN_TAIL_SUMS = [
    (WeakLimitCoefficients({0: 0.5, 1: 0.25, -3: 0.1}, TailDescriptor("polynomial", c=1.0, s=1.5)),
     {1: 0.19231883629515992, 5: 0.20930120400605606, 100: -0.6308528397820401,
      600: -0.7232603077181516, 4096: -0.7443254077643437}),
    (WeakLimitCoefficients({2: 0.4, 5: 0.1}, TailDescriptor("polynomial", c=0.3, s=1.05)),
     {1: -3.5258684700355456, 5: -5.417031052602, 100: -6.349852858201112,
      600: -6.418524296974762, 4096: -6.4331333708429606}),
    (WeakLimitCoefficients({0: 0.5, -2: 0.2}, TailDescriptor("stretched_exponential", c=1.0, gamma=0.5)),
     {1: -0.9718169453620922, 5: -1.5367016084587835, 100: -2.465697274642941,
      600: -2.677643093766818, 4096: -2.7732077822467547}),
    (WeakLimitCoefficients({0: 1.0}, TailDescriptor("stretched_exponential", c=0.5, gamma=1.5)),
     {1: -3.1261526124419077, 5: -8.14756398319323, 100: -39.085009994253404,
      600: -97.01678450574553, 4096: -255.01395628363372}),
]


def stretched_partial_sums_oracle(coeffs: WeakLimitCoefficients, n_max: int) -> list[float]:
    """Partial sums with each stretched tail summed term by term (test oracle):
    the terms after d0 are taken relative to the first, up to e^-60 of it."""
    t, sums, total = coeffs.tail, [], 0.0
    for n in range(1, n_max + 1):
        finite = sum(a * a for k, a in coeffs.support.items() if k <= -n)
        d0 = max(1, coeffs.k_min + n)
        base = d0**t.gamma
        d = np.arange(d0, math.ceil((base + 30) ** (1 / t.gamma)) + 1, dtype=np.float64)
        log_tail = 2 * math.log(t.c) - 2 * base + math.log(float(np.exp(-2 * (d**t.gamma - base)).sum()))
        if finite > 0:
            log_tail = float(np.logaddexp(math.log(finite), log_tail))
        total += log_tail / (n * n)
        sums.append(total)
    return sums


@pytest.mark.parametrize("case", range(len(FROZEN_TAIL_SUMS)))
def test_beurling_partial_sums_match_frozen_per_n_formulas(case):
    coeffs, frozen = FROZEN_TAIL_SUMS[case]
    if coeffs.tail.kind == "stretched_exponential":
        oracle = stretched_partial_sums_oracle(coeffs, 4096)
    for n_max in (600, 4096):
        sums = beurling_check(coeffs, n_max).partial_sums
        assert len(sums) == n_max
        for n, old in frozen.items():
            if n > n_max:
                continue
            if coeffs.tail.kind == "polynomial":
                # both sum the same terms; they differ in where the integral
                # remainder starts: observed 1.2e-7 relative
                assert sums[n - 1] == pytest.approx(old, rel=1e-6)
            else:
                # the frozen values took a stretched tail sum as "1 + integral",
                # which overcounts (1.5 for 1.157 at gamma = 1); the sums now
                # follow the term-by-term oracle to the last bit
                assert sums[n - 1] == pytest.approx(oracle[n - 1], rel=1e-5)
                assert abs(sums[n - 1] - oracle[n - 1]) < abs(old - oracle[n - 1])


def numpy_log_tail_sum(t: TailDescriptor, d0: int) -> float:
    """The polynomial tail formula on numpy arrays: 2,000 terms, then the
    integral from D and the end terms f(D)/2 - f'(D)/12 (test oracle)."""
    s2, D = 2 * t.s, d0 + 2000.0
    d = np.arange(d0, d0 + 2000, dtype=np.float64)
    rest = D**-s2 * (D / (s2 - 1) + 0.5 + t.s / (6 * D))
    return 2 * math.log(t.c) + math.log(float((d**-s2).sum()) + rest)


def stretched_rule(t: TailDescriptor, d0: int, terms: int) -> float:
    """log of a stretched tail sum from d0: `terms` terms, then the integral
    of the rest by a 400-node trapezoid on [0, 20], widened around the
    integrand's peak when it lies right of 0, on numpy arrays (test oracle)."""
    powers = np.arange(d0, d0 + terms + 1, dtype=np.float64) ** t.gamma  # one pow for every d
    base, top = float(powers[0]), float(powers[-1])
    explicit = float(np.exp(-2 * (powers[:-1] - base)).sum())
    peak = max(0.0, (1 / t.gamma - 1) / 2 - top)
    reach = 20 + 6 * math.sqrt(2 * peak)
    u = np.linspace(max(0.0, peak - reach), peak + reach, 400)
    f = np.exp(-2 * u) * (u + top) ** (1 / t.gamma - 1) / t.gamma
    rest = float(((f[1:] + f[:-1]) / 2 * np.diff(u)).sum())
    return 2 * math.log(t.c) - 2 * base + math.log(explicit + math.exp(-2 * (top - base)) * rest)


def stretched_term_by_term(t: TailDescriptor, d0: int) -> float:
    """log of a stretched tail sum from d0, term by term until a term is
    below 1e-18 of the running sum (test oracle)."""
    base, total, start = None, 0.0, d0
    while True:
        powers = np.arange(start, start + 4096, dtype=np.float64) ** t.gamma
        base = float(powers[0]) if base is None else base  # the same pow as the later terms
        terms = np.exp(-2 * (powers - base))
        running = total + np.cumsum(terms)
        small = np.flatnonzero(terms < 1e-18 * running)
        if small.size:
            return 2 * math.log(t.c) - 2 * base + math.log(float(running[small[0]]))
        total, start = float(running[-1]), start + 4096


@settings(max_examples=200)
@given(
    kind=st.sampled_from(["polynomial", "stretched_exponential"]),
    c=st.floats(min_value=1e-3, max_value=1e3),
    exponent=st.floats(min_value=0.05, max_value=6.0),
    d0=st.integers(1, 70_000),
)
def test_tail_sum_matches_numpy_formula(kind, c, exponent, d0):
    from ergolab.spectral import _log_tail_sum

    # a relative tolerance on a sum is an absolute one on its log
    if kind == "polynomial":
        t = TailDescriptor("polynomial", c=c, s=1.0 + exponent)
        assert abs(_log_tail_sum(t, d0) - numpy_log_tail_sum(t, d0)) <= 1e-12
        return
    t = TailDescriptor("stretched_exponential", c=c, gamma=exponent)
    got = _log_tail_sum(t, d0)
    # the log itself is exact only to its last bits: -2 d0^gamma reaches -2e29
    ulps = 4 * math.ulp(got)
    assert abs(got - stretched_rule(t, d0, 2000)) <= 1e-12 + ulps
    if exponent < 0.5:
        # the trapezoid's step limits the rule: 40,000 explicit terms moved it by up to 4.9e-4
        assert abs(got - stretched_rule(t, d0, 40_000)) <= 1e-3
        return
    # unlike the polynomial rule, the stretched integral from D leaves out the end
    # term f(D)/2 of the sum; near gamma = 0.5 and d0 = 70,000 that is 5.7e-7 of it
    exact = stretched_term_by_term(t, d0)
    end_term = 2 * math.log(c) - 2 * (d0 + 2000) ** exponent
    assert abs(got - exact) <= 1e-9 + math.exp(end_term - exact) + ulps


@pytest.mark.parametrize("s, d0", [(7.0, 26_000), (1.5, 1000)])
def test_polynomial_tail_sum_matches_a_long_explicit_sum(s, d0):
    from ergolab.spectral import _log_tail_sum

    # 200,000 terms by fsum, then the rest from E by the integral and the end
    # terms; the first term that leaves out, f'''(E)/720, is below 1e-25 of the sum
    E = d0 + 200_000
    head = math.fsum(d ** (-2 * s) for d in range(d0, E))
    want = math.log(head + E ** (-2 * s) * (E / (2 * s - 1) + 0.5 + s / (6 * E)))
    assert abs(math.expm1(_log_tail_sum(TailDescriptor("polynomial", c=1.0, s=s), d0) - want)) <= 1e-12


def stretched_tail_integral(t: TailDescriptor, D: int) -> float:
    """log of int_D^inf c^2 exp(-2 x^gamma) dx = c^2 Gamma(a, 2 D^gamma) / (gamma 2^a),
    a = 1/gamma, with the regularized lower gamma function P(a, z) summed by
    its series, z^a e^-z / Gamma(a + 1) * sum_n z^n / ((a + 1) ... (a + n))
    (test oracle)."""
    a, z = 1 / t.gamma, 2 * D**t.gamma
    term, series, n = 1.0, 1.0, 0
    while term > 1e-17 * series:
        n += 1
        term *= z / (a + n)
        series += term
    lower = math.exp(a * math.log(z) - z - math.lgamma(a + 1)) * series
    return 2 * math.log(t.c) + math.lgamma(a) + math.log1p(-lower) - math.log(t.gamma) - a * math.log(2)


@settings(max_examples=100)
@given(
    gamma=st.floats(min_value=0.001, max_value=0.05),
    c=st.floats(min_value=1e-3, max_value=1e3),
    d0=st.integers(1, 70_000),
    step=st.integers(1, 5_000),
)
def test_small_gamma_tail_sum_falls_with_d0_and_matches_incomplete_gamma(gamma, c, d0, step):
    from ergolab.spectral import _log_tail_sum

    # for small gamma the integral's peak lies far right of D, where [0, 20] missed it
    t = TailDescriptor("stretched_exponential", c=c, gamma=gamma)
    got, later = _log_tail_sum(t, d0), _log_tail_sum(t, d0 + step)
    # S(d0) - S(d0 + step) is often far below an ulp of log S here, so rounding may tie or flip it
    assert later <= got + 8 * math.ulp(got)
    explicit = 2 * math.log(c) + math.log(math.fsum(math.exp(-2 * d**gamma) for d in range(d0, d0 + 2000)))
    exact = float(np.logaddexp(explicit, stretched_tail_integral(t, d0 + 2000)))
    assert abs(got - exact) <= 1e-8


@settings(max_examples=30)
@given(scale=st.floats(min_value=1e-6, max_value=1e6), shift=st.integers(-40, 40))
def test_beurling_verdict_invariances(scale, shift):
    for base in (ONE_SIDED, GEOMETRIC, STRETCHED, POLYNOMIAL):
        want = beurling_check(base).verdict
        scaled = WeakLimitCoefficients(
            {k: scale * a for k, a in base.support.items()},
            TailDescriptor(
                base.tail.kind,
                c=scale * base.tail.c if base.tail.kind != "none" else 0.0,
                q=base.tail.q,
                gamma=base.tail.gamma,
                s=base.tail.s,
            ),
        )
        assert beurling_check(scaled).verdict == want
        translated = WeakLimitCoefficients(
            {k + shift: a for k, a in base.support.items()}, base.tail
        )
        assert beurling_check(translated).verdict == want


# -- certificate -------------------------------------------------------------------------


def test_certificate_chacon_style():
    cert = singularity_certificate(ONE_SIDED)
    assert cert.verdict == "singular"
    assert cert.alpha_lower_bound == pytest.approx(1 / 3)


def test_certificate_blocked_cases():
    def outcome(cert):
        return cert.verdict, cert.notes, cert.nonpower_asserted, cert.alpha_lower_bound

    assert outcome(singularity_certificate(STRETCHED)) == (
        "no certificate", ("tail test verdict: fails",), True, None)
    zero = WeakLimitCoefficients({0: 0.0})
    assert outcome(singularity_certificate(zero)) == (
        "no certificate (zero limit)", ("all coefficients vanish",), True, None)
    assert outcome(singularity_certificate(zero, limit_is_nonpower=False)) == (
        "no certificate (zero limit)", ("all coefficients vanish",), False, None)
    assert outcome(singularity_certificate(ONE_SIDED, limit_is_nonpower=False)) == (
        "no certificate", ("caller did not assert the limit lies outside the powers",), False, None)
    assert outcome(singularity_certificate(ONE_SIDED)) == (
        "singular", (f"alpha-rigid with alpha >= {1 / 3}",), True, 1 / 3)
    assert outcome(singularity_certificate(WeakLimitCoefficients({0: -0.5}))) == (
        "singular", (), True, None)


def test_certificate_half_threshold_note():
    cert = singularity_certificate(WeakLimitCoefficients({0: 0.75, 1: 0.25}))
    assert any("1/2" in note for note in cert.notes)


def test_certificate_never_singular_on_failing_tails():
    rng = random.Random(1)
    kinds = ["stretched_exponential", "polynomial", "geometric", "none"]
    for _ in range(60):
        kind = rng.choice(kinds)
        tail = {
            "none": TailDescriptor(),
            "geometric": TailDescriptor("geometric", c=rng.uniform(0.01, 2), q=rng.uniform(0.05, 0.95)),
            "stretched_exponential": TailDescriptor(
                "stretched_exponential", c=rng.uniform(0.01, 2), gamma=rng.uniform(0.05, 0.95)
            ),
            "polynomial": TailDescriptor("polynomial", c=rng.uniform(0.01, 2), s=rng.uniform(1.1, 4)),
        }[kind]
        support = {rng.randint(-5, 5): rng.uniform(-1, 1) for _ in range(rng.randint(1, 4))}
        coeffs = WeakLimitCoefficients(support, tail)
        cert = singularity_certificate(coeffs)
        if cert.tail_verdict != "holds":
            assert cert.verdict != "singular"
        if cert.verdict == "singular" and cert.alpha_lower_bound is not None:
            assert coeffs.restricted


@pytest.mark.parametrize("coeffs", [ONE_SIDED, GEOMETRIC, STRETCHED, POLYNOMIAL], ids=lambda c: c.tail.kind)
def test_certificate_reads_the_tail_descriptor_only(coeffs, monkeypatch):
    from ergolab import cli, spectral

    def no_sums(*args, **kwargs):
        raise AssertionError("the certificate computed a partial sum")

    want = beurling_check(coeffs).verdict
    monkeypatch.setattr(spectral, "_log_tails", no_sums)
    monkeypatch.setattr(spectral, "beurling_check", no_sums)
    assert singularity_certificate(coeffs).tail_verdict == want
    report = cli.report_spectral_certify(coeffs, 600, True)
    assert report["beurling_verdict"] == want
    assert (report["verdict"] == "singular") == (want == "holds")


@pytest.mark.parametrize("call, error, message", [
    (lambda: CorrelationSequence({1: (0.5, 0.0)}), ValueError, "sequence must include n = 0"),
    (lambda: CorrelationSequence({0: (0.0, 0.0)}), ValueError, "sigma_hat(0) must be positive"),
    (lambda: CorrelationSequence({0: (float("nan"), 0.0)}), ValueError, "sigma_hat(0) must be positive"),
    (lambda: TailDescriptor("geometric", c=0.0, q=0.5), InvalidTail, "tail amplitude c must be positive"),
    (lambda: TailDescriptor("stretched_exponential", c=1.0, gamma=-0.5), InvalidTail,
     "stretched tail needs gamma > 0"),
    (lambda: WeakLimitCoefficients({}), ValueError, "finite support must be nonempty"),
    (lambda: WeakLimitCoefficients({"0": 0.5, "00": 0.3}), ValueError, "repeated support index 0"),
    (lambda: CorrelationSequence({0: (1.0, 0.0), 2: (0.5, 0.0)}), IndexGap, "no value for index n = 1"),
    (lambda: TailDescriptor("nonsense"), InvalidTail, "unknown tail kind 'nonsense'"),
    (lambda: TailDescriptor("geometric", c=1.0, q=1.5), InvalidTail, "geometric tail needs 0 < q < 1"),
    (lambda: TailDescriptor("polynomial", c=1.0, s=0.5), InvalidTail, "polynomial tail needs s > 1"),
    # an index that is no integer is named, not truncated onto another index
    (lambda: CorrelationSequence({0: (1.0, 0), 0.5: (2, 0)}), ValueError, "index 0.5 is not an integer"),
    (lambda: WeakLimitCoefficients({0.7: 0.5}), ValueError, "support index 0.7 is not an integer"),
    # a coefficient that is no number, or an int with no float, is named too
    (lambda: WeakLimitCoefficients({0: [1]}), ValueError, "support coefficient at index 0 must be a finite number, got [1]"),
    (lambda: WeakLimitCoefficients({0: 10**400}), ValueError,
     "support coefficient at index 0 must be a finite number, got a number too large for a float"),
    (lambda: beurling_check(WeakLimitCoefficients({0: 0.5}), 2.5), ValueError, "n_max 2.5 is not an integer"),
    (lambda: wiener_discrete_mass(CorrelationSequence({n: (float(n == 0), 0.0) for n in range(65)}), 40.0),
     ValueError, "N 40.0 is not an integer"),
    (lambda: translation_probe(CorrelationSequence({n: (float(n == 0), 0.0) for n in range(65)}), [1.5, 2, 3], 1),
     ValueError, "time 1.5 is not an integer"),
])
def test_input_checks_name_the_fault(call, error, message):
    with pytest.raises(error) as info:
        call()
    assert str(info.value) == message
