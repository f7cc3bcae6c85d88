"""Output checks for the benchmark's queries.

Every check compares against a reference within the reported error bound
plus a stated tolerance, never by bit equality, so that an exact engine
that replaces a table or prefix computation still passes.  A check raises
``WrongValue`` with a message; the worker counts that query as failed.

Tolerances:

* ``TOL`` absorbs float rounding of values that are equal in exact
  arithmetic.
* ``PREFIX_TOL`` bounds the gap between a correlation read off a
  fixed-point prefix of 8192 letters and its limit, for a correlate report
  that gives the limit rather than the prefix count.  Slowly mixing
  systems (second eigenvalue close to the Perron root) set it: for
  0 -> 0010, 1 -> 02, 2 -> 2221 (eigenvalues 3.56 and 3) a 2-block
  frequency still differs from its 8192-letter prefix count by 0.10.
"""

from __future__ import annotations

import json
import math

import numpy as np

TOL = 1e-9
PREFIX_TOL = 0.25
# certified rigidity floors: acceptance criteria 3 (chacon) and 4 (staircase)
RIGIDITY_FLOOR = {"chacon": 0.31, "staircase": 0.18}
# criterion 5: consecutive weak-limit coefficient ratios along h_n
WEAKLIMIT_RATIO = (0.4, 0.6)
# criterion 6 bands for mu(T^(2^k) A x {e} cap A x {e}), as multiples of |A|:
# the full-space band, and the half-interval band for proper subintervals
RIGIDITY_BAND_FULL = (0.24, 0.26)
RIGIDITY_BAND_SUB = (0.23, 0.27)


class WrongValue(Exception):
    pass


def expect(ok: bool, message: str) -> None:
    if not ok:
        raise WrongValue(message)


# -- skew --------------------------------------------------------------------


def skew_spectrum(q: dict, report: dict) -> None:
    rows = report["coefficients"]
    W = q["window"]
    expect([r["n"] for r in rows] == list(range(-W, W + 1)), "coefficient indices")
    by_n = {r["n"]: (r["value"], r["error_bound"]) for r in rows}
    if (q["g"], q["fiber"]) == ("first-digit", "one"):
        for n, (v, eb) in by_n.items():
            expect(abs(v - (-1) ** n) <= eb + TOL, f"first-digit:one c({n}) = {v} != (-1)^n")
        if "wiener_discrete_mass" in report:
            worst = max(eb for _, eb in by_n.values())
            w = report["wiener_discrete_mass"]
            expect(abs(w - 1.0) <= 3 * worst + TOL, f"eigenfunction wiener mass {w} != 1")
    else:
        v0, eb0 = by_n[0]
        expect(abs(v0 - 1.0) <= eb0 + TOL, f"c(0) = {v0} != 1")
        for n in range(1, W + 1):
            (v, eb), (w, ebw) = by_n[n], by_n[-n]
            expect(abs(v - w) <= eb + ebw + TOL, f"c({n}) = {v} != c(-{n}) = {w}")
        for n, (v, eb) in by_n.items():
            expect(abs(v) <= 1 + eb + TOL, f"|c({n})| = {abs(v)} > 1")


def skew_correlate(q: dict, report: dict) -> None:
    half = 0.5 ** q["interval"][1] / 2
    v, eb = report["value"], report["error_bound"]
    expect(-eb - TOL <= v <= half + eb + TOL, f"correlation {v} outside [0, |A|/2 = {half}]")


def skew_rigidity(q: dict, report: dict) -> None:
    level = q["interval"][1]
    width = 0.5**level
    lo, hi = RIGIDITY_BAND_FULL if level == 0 else RIGIDITY_BAND_SUB
    values = report["values"]
    expect([r["k"] for r in values] == list(range(q["k_lo"], q["k_hi"] + 1)), "k range")
    for r in values:
        v, eb = r["value"], r["error_bound"]
        expect(lo * width - TOL <= v - eb and v + eb <= hi * width + TOL,
               f"rigidity value {v} +- {eb} at k={r['k']} outside {lo}..{hi} x |A|")


# -- rank-one ----------------------------------------------------------------


def rankone_rigidity(q: dict, report: dict, system: str) -> None:
    floor = RIGIDITY_FLOOR[system.split(":")[0]]
    b = report["certified_lower_bound"]
    expect(floor <= b <= 1 + TOL, f"certified bound {b} below the floor {floor}")


def rankone_weaklimit(q: dict, report: dict) -> None:
    a = [c["value"] for c in report["coefficients"]]
    expect(len(a) == q["j_max"] + 1 and a[0] > 0, "weak-limit coefficients")
    lo, hi = WEAKLIMIT_RATIO
    for j in range(len(a) - 1):
        ratio = a[j + 1] / a[j]
        expect(lo <= ratio <= hi, f"a_{j + 1}/a_{j} = {ratio} outside [{lo}, {hi}]")


def spectral_certify(coeffs_support: dict, report: dict) -> None:
    expect(report["verdict"] == "singular", f"certificate verdict {report['verdict']!r}")
    expect(report["beurling_verdict"] == "holds", "geometric tail must pass the tail test")
    alpha = report["alpha_lower_bound"]
    top = max(coeffs_support.values())
    expect(alpha is not None and abs(alpha - top) <= TOL, f"alpha {alpha} != top coefficient {top}")


def rankone_correlate(q: dict, report: dict, brute_counts=None, width=None) -> None:
    """Range checks; with ``brute_counts`` (pair counts scanned off the
    stage-N word) also the values, within their error bounds."""
    mu = report["set_measure"]
    rows = report["correlations"]
    expect([r["shift"] for r in rows] == list(q["shifts"]), "shift list")
    for i, r in enumerate(rows):
        v, eb = r["value"], r["error_bound"]
        expect(eb >= 0 and -TOL <= v <= mu * (1 + TOL), f"correlation {v} outside [0, mu(A) = {mu}]")
        if brute_counts is not None:
            want = brute_counts[i] * width
            expect(abs(v - want) <= eb + TOL * max(1.0, want),
                   f"shift {r['shift']}: value {v} vs scanned {want} (error bound {eb})")


def brute_pair_counts(word: str, base_height: int, levels, shifts) -> list[int]:
    """#{x : x and x + m both on a level in ``levels`` of the stage-k tower}.

    ``word`` is the column word of the tower built from stage k on, one 'B'
    per stage-k copy (of height ``base_height``) and one 'S' per spacer.
    """
    starts, pos = [], 0
    for ch in word:
        if ch == "B":
            starts.append(pos)
            pos += base_height
        else:
            pos += 1
    occ = np.zeros(pos, dtype=bool)
    s = np.asarray(starts, dtype=np.int64)
    for level in levels:
        occ[s + level] = True
    return [int(np.count_nonzero(occ[:pos - m] & occ[m:])) for m in shifts]


# -- substitution ------------------------------------------------------------


def prefix_correlation(prefix: np.ndarray, block, shift: int) -> float:
    """Share of positions p < n - shift - |block| with ``block`` at p and p + shift."""
    n, L = len(prefix), len(block)
    occ = np.ones(n - L + 1, dtype=bool)
    for off, sym in enumerate(block):
        occ &= prefix[off:n - L + 1 + off] == sym
    limit = n - shift - L
    return float(np.count_nonzero(occ[:limit] & occ[shift:shift + limit])) / limit


def subst_analyze(q: dict, report: dict, prefix: np.ndarray) -> None:
    """Block-frequency marginals equal the letter frequencies and both sum
    to 1; the block frequencies are a Perron vector of the 2-block
    substitution (built here from the images, residual within TOL); the
    report's prefix check counts what a scan of our own prefix counts."""
    k = q["system"]["alphabet"]
    images = q["system"]["images"]
    expect(report["primitive"] is True, "generated substitution is primitive")
    freq = report["letter_frequencies"]
    expect(abs(sum(freq) - 1) <= TOL, "letter frequencies sum to 1")
    blocks = {tuple(int(c) for c in name): f for name, f in report["block_frequencies"].items()}
    expect(abs(sum(blocks.values()) - 1) <= TOL and min(blocks.values()) >= 0, "block frequencies sum to 1")
    for a in range(k):
        m = sum(f for (x, _), f in blocks.items() if x == a)
        expect(abs(m - freq[a]) <= TOL, f"block marginal {m} != letter frequency {freq[a]} of {a}")
    theta = report["theta"]
    image_counts = {blk: 0.0 for blk in blocks}
    for (a, b), f in blocks.items():
        w = images[a] + images[b]
        for i in range(len(images[a])):
            child = (w[i], w[i + 1])
            expect(child in image_counts, f"block {child} in an image but not in the block alphabet")
            image_counts[child] += f
    for blk, f in blocks.items():
        expect(abs(image_counts[blk] - theta * f) <= TOL * theta,
               f"block {blk}: (M2 f) = {image_counts[blk]} != theta f = {theta * f}")
    rows = report.get("empirical_check", {}).get("blocks", {})
    for name, row in rows.items():
        scanned = prefix_correlation(prefix, [int(c) for c in name], 0)
        expect(abs(row["empirical"] - scanned) <= TOL,
               f"block {name}: prefix count {row['empirical']} != scanned {scanned}")


def subst_correlate(q: dict, report: dict, prefix: np.ndarray) -> None:
    v = report["correlation"]
    scanned = prefix_correlation(prefix, q["block"], q["shift"])
    expect(abs(v - scanned) <= report.get("error_bound", 0.0) + PREFIX_TOL,
           f"correlation {v} far from prefix value {scanned}")


# -- cli ---------------------------------------------------------------------


def _reject_constant(name: str):
    raise ValueError(f"non-JSON constant {name}")


def strict_json(text: str):
    """json.loads that rejects NaN and +-Infinity (invalid JSON)."""
    return json.loads(text, parse_constant=_reject_constant)


def same_report(a, b, path: str = "report") -> None:
    """Structural equality with floats compared to relative 1e-9."""
    if isinstance(a, dict) and isinstance(b, dict):
        expect(set(a) == set(b), f"{path}: keys {sorted(set(a) ^ set(b))} differ")
        for key in a:
            same_report(a[key], b[key], f"{path}.{key}")
    elif isinstance(a, list) and isinstance(b, list):
        expect(len(a) == len(b), f"{path}: lengths {len(a)} != {len(b)}")
        for i, (x, y) in enumerate(zip(a, b)):
            same_report(x, y, f"{path}[{i}]")
    elif isinstance(a, bool) or isinstance(b, bool) or not isinstance(a, (int, float)):
        expect(a == b and type(a) is type(b), f"{path}: {a!r} != {b!r}")
    else:
        expect(isinstance(b, (int, float)) and (a == b or math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-12)),
               f"{path}: {a!r} != {b!r}")


def plain(obj):
    """A report as the JSON encoder sees it: str keys, lists, Python scalars."""
    if isinstance(obj, dict):
        return {str(k): plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [plain(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return plain(obj.tolist())
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.floating):
        return float(obj)
    return obj
