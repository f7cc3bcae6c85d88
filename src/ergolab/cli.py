"""Command-line front end: system files/presets in, JSON reports out.

Subcommands mirror the library surface:

    subst    analyze | correlate
    rankone  heights | correlate | weaklimit | rigidity
    skew     correlate | spectrum | rigidity
    spectral wiener | rajchman | translate | beurling | certify

Every run emits exactly one JSON document: either the report (stdout or
--out), which embeds the exact configuration used, so identical configs
give byte-identical reports, or an error record on stdout that keeps the
module error name, with exit code 1.  `skew spectrum` can also write its
coefficient series as CSV via --csv; the CSV is written before anything
is emitted, so a failed write emits only its error record.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

# lazy modules (see ergolab/__init__): each loads on its first attribute read
from . import rankone, skew, spectral, substitution

MAX_STAGES = 30
MAX_WINDOW = 2**16


class ParseError(Exception):
    pass


# -- input loading -----------------------------------------------------------

# preset names -> module attribute names, read only when a command uses them
_SUBST_PRESETS = {
    "rudin-shapiro": "RUDIN_SHAPIRO",
    "three-letter": "THREE_LETTER",
}


def load_substitution(source: str) -> substitution.Substitution:
    if source in _SUBST_PRESETS:
        return getattr(substitution, _SUBST_PRESETS[source])
    path = Path(source)
    if not path.exists():
        raise ParseError(f"unknown substitution preset or missing file: {source}")
    return substitution.Substitution.from_lines(path.read_text().splitlines(), name=path.stem)


def load_rankone(source: str, stages: int) -> rankone.RankOneSpec:
    if stages < 1 or stages > MAX_STAGES:
        raise ParseError(f"stages must lie in 1..{MAX_STAGES}")
    if source == "chacon":
        return rankone.chacon_spec(stages)
    if source == "historical":
        return rankone.historical_chacon_spec(stages)
    if source.startswith("staircase:"):
        return rankone.staircase_spec(*_ints("--system staircase:<p>", source.partition(":")[2], n=1), stages)
    path = Path(source)
    if not path.exists():
        raise ParseError(f"unknown rank-one preset or missing file: {source}")
    spec = rankone.RankOneSpec.from_lines(path.read_text().splitlines(), name=path.stem)
    return rankone.RankOneSpec(spec.stages[:stages], spec.name)


def _ints(flag: str, text: str, sep: str = ",", n: int = 0) -> list[int]:
    """The integers of `text` split at `sep`.  With `n` set there must be 1
    or n of them and a lone one is repeated, so the range `6` reads as
    `6:6`.  Anything else is a ParseError naming the flag and the text."""
    try:
        values = [int(x) for x in text.split(sep)]
    except ValueError:
        values = []
    if not values or n and len(values) not in (1, n):
        raise ParseError(f"{flag} expects integers, got {text!r}")
    return values * (n // len(values)) if n else values


_G_PRESETS = {"one": "CONSTANT_ONE", "first-digit": "FIRST_DIGIT_SIGN"}


# -- report builders (importable; the CLI is a thin shell) -------------------

# Reference value reported elsewhere for the three-letter example's rigidity
# constant; kept for comparison output only, never asserted.
THREE_LETTER_REFERENCE_ALPHA = 0.3104979673e-7


def report_subst_analyze(sub: substitution.Substitution, tol: float, prefix_len: int) -> dict:
    M = substitution.composition_matrix(sub)
    report: dict = {
        "system": {
            "name": sub.name,
            "alphabet_size": sub.alphabet_size,
            "images": [substitution.word_to_str(w, sub.alphabet_size) for w in sub.images],
        },
        "composition_matrix": M,
        "primitive": True,
    }
    try:
        data = substitution.perron(M, tol=tol)
    except substitution.NotPrimitive:
        return {**report, "primitive": False}
    if prefix_len:  # before the block solve, so a substitution without a fixed point at 0 costs none
        empirical = substitution.prefix_block_frequencies(sub, prefix_len)
    freqs, rig = substitution.block_analysis(sub, data, tol)
    names = {b: substitution.word_to_str(b, sub.alphabet_size) for b in freqs}
    marginals = [0] * sub.alphabet_size  # each letter's blocks added in block order; 0 where it has none
    for (a, _), f in freqs.items():
        marginals[a] += f
    report.update(
        {
            "theta": data.theta,
            "letter_frequencies": list(data.letter_freq),
            "perron_residual": data.residual,
            "letter_limit_norms": list(data.left_vec),
            "block_alphabet": list(names.values()),
            "block_frequencies": {names[b]: f for b, f in freqs.items()},
            "marginal_check": {str(a): m for a, m in enumerate(marginals)},
            "rigidity_constant": rig._asdict(),
        }
    )
    three = substitution.THREE_LETTER
    if (sub.alphabet_size, sub.images) == (three.alphabet_size, three.images):
        ref = THREE_LETTER_REFERENCE_ALPHA
        report["reference_comparison"] = {
            "reference_alpha": ref,
            "computed_alpha": rig.alpha,
            "ratio": rig.alpha / ref,
            "discrepancy_flagged": True,
            "note": (
                "computed r*rho differs from the known reference value for this "
                "example by several orders of magnitude; the reference procedure "
                "may involve further refinement, so neither value is asserted"
            ),
        }
    if prefix_len:
        checks = {}
        for b, f in freqs.items():
            emp = empirical.get(b, 0.0)
            checks[names[b]] = {"empirical": emp, "eigenvector": f, "difference": abs(emp - f)}
        report["empirical_check"] = {"prefix_len": prefix_len, "blocks": checks}
    return report


def report_subst_correlate(sub, block, shift, prefix_len) -> dict:
    value = substitution.empirical_correlation(sub, block, shift, prefix_len)
    return {
        "system": {
            "name": sub.name,
            "images": [substitution.word_to_str(w, sub.alphabet_size) for w in sub.images],
        },
        "block": substitution.word_to_str(block, sub.alphabet_size),
        "shift": shift,
        "prefix_len": prefix_len,
        "correlation": value,
    }


def report_rankone_heights(spec: rankone.RankOneSpec, n: int) -> dict:
    hs = rankone.heights(spec)[: n + 1]
    return {"system": spec.name or "custom", "stages": len(hs) - 1, "heights": hs}


def report_rankone_correlate(spec, N, A: rankone.LevelSet, shifts) -> dict:
    mu = float(rankone.level_measure(spec, N, A))
    rows = []
    for m in shifts:
        bv = rankone.level_correlation(spec, N, A, m)
        rows.append(
            {
                "shift": m,
                "value": bv.value,
                "error_bound": bv.error_bound,
                "exact": bv.exact,
                "ratio": bv.value / mu,
            }
        )
    return {
        "system": spec.name or "custom",
        "tower_stage": N,
        "set": {"stage": A.stage, "levels": list(A.levels)},
        "set_measure": mu,
        "correlations": rows,
    }


def report_rankone_weaklimit(spec, A, n_start, n_stop, j_max, margin) -> dict:
    est = rankone.weak_limit_estimate(spec, A, n_start, n_stop, j_max, margin=margin)
    return {
        "system": spec.name or "custom",
        "set": {"stage": A.stage, "levels": list(A.levels)},
        "stage_range": [n_start, n_stop],
        "coefficients": [
            {"j": e.index, "value": e.value, "spread": e.spread, "error_bound": e.error_bound}
            for e in est
        ],
    }


def report_rankone_rigidity(spec, shifts, sets, N) -> dict:
    bound = rankone.rigidity_scan(spec, shifts, sets, N=N)
    return {
        "system": spec.name or "custom",
        "tower_stage": N,
        "shifts": list(shifts),
        "set_stage": sets[0].stage,
        "set_count": len(sets),
        "certified_lower_bound": bound,
        "exceeds_half_threshold": bound > 0.5,
    }


def _skew_header(sys_: skew.SkewSystem) -> dict:
    return {
        "system": "mathew-nadkarni" if sys_.cocycle is None else "custom-cocycle",
        "atom_level": sys_.K,
        "cutoff": sys_.L,
    }


def report_skew_correlate(sys_: skew.SkewSystem, A, eps, eps2, m) -> dict:
    bv = skew.skew_correlation(A, eps, eps2, m, sys_)
    return {
        **_skew_header(sys_),
        "interval": f"{A.numerator}/2^{A.level}",
        "eps": eps,
        "eps_prime": eps2,
        "shift": m,
        "value": bv.value,
        "error_bound": bv.error_bound,
        "exact": bv.exact,
    }


def report_skew_spectrum(sys_: skew.SkewSystem, g_name, fiber, window) -> dict:
    g = getattr(skew, _G_PRESETS[g_name])
    # read on every call, so the lazy module loads on a process's first report whatever its window
    wiener = spectral.wiener_discrete_mass
    # c(-n) = c(n) exactly, so each |n| is read once
    coeffs = skew.spectral_window(g, fiber, window, sys_)
    rows = [{"n": n, "value": coeffs[abs(n)][0], "error_bound": coeffs[abs(n)][1]}
            for n in range(-window, window + 1)]
    report = {
        **_skew_header(sys_),
        "function": f"{g_name}:{fiber}",
        "window": window,
        "coefficients": rows,
    }
    if window >= 32:  # the smallest window wiener_discrete_mass takes
        corr = spectral.CorrelationSequence(dict(enumerate(coeffs)), source=f"{g_name}:{fiber}")
        report["wiener_discrete_mass"] = wiener(corr)
        report["wiener_half_window"] = wiener(corr, window // 2) if window >= 64 else None
    return report


def report_skew_rigidity(sys_: skew.SkewSystem, A, eps, k_lo, k_hi) -> dict:
    seq = skew.rigidity_sequence(A, eps, range(k_lo, k_hi + 1), sys_)
    return {
        **_skew_header(sys_),
        "interval": f"{A.numerator}/2^{A.level}",
        "eps": eps,
        "k_range": [k_lo, k_hi],
        "values": [
            {"k": k, "shift": 2**k, "value": bv.value, "error_bound": bv.error_bound}
            for k, bv in zip(range(k_lo, k_hi + 1), seq)
        ],
    }


def report_spectral_wiener(corr: spectral.CorrelationSequence, window: int | None) -> dict:
    N = window if window is not None else corr.window
    return {
        "source": corr.source,
        "window": N,
        "wiener_discrete_mass": spectral.wiener_discrete_mass(corr, N),
        "half_window_value": spectral.wiener_discrete_mass(corr, max(32, N // 2)),
    }


def report_spectral_rajchman(corr) -> dict:
    stats = spectral.rajchman_probe(corr)
    return {
        "source": corr.source,
        "window": corr.window,
        "outer_quartile_max": stats.outer_quartile_max,
        "envelope_slope": stats.envelope_slope,
    }


def report_spectral_translate(corr, times, j_window) -> dict:
    probe = spectral.translation_probe(corr, times, j_window)
    return {
        "source": corr.source,
        "times": list(times),
        "j_window": j_window,
        "estimates": [
            {"j": j, "limit": e.limit, "spread": e.spread, "stabilized": e.stabilized}
            for j, e in sorted(probe.items())
        ],
    }


def report_spectral_beurling(coeffs: spectral.WeakLimitCoefficients, n_max: int) -> dict:
    rep = spectral.beurling_check(coeffs, n_max)
    final = rep.partial_sums[-1] if rep.partial_sums else None
    return {
        "support": {str(k): v for k, v in sorted(coeffs.support.items())},
        "tail": coeffs.tail.kind,
        "restricted": coeffs.restricted,
        "n_max": n_max,
        "verdict": rep.verdict,
        "tail_exponent_fit": rep.tail_exponent_fit,
        "partial_sum_count": len(rep.partial_sums),
        # an eventually-zero tail drives the sum to -inf, which JSON cannot carry
        "final_partial_sum": "-inf" if final == -math.inf else final,
        "notes": rep.notes,
    }


def report_spectral_certify(coeffs, n_max, nonpower) -> dict:
    spectral.check_n_max(n_max)  # only range-checked: the certificate computes no partial sum
    cert = spectral.singularity_certificate(coeffs, limit_is_nonpower=nonpower)
    return {
        "support": {str(k): v for k, v in sorted(coeffs.support.items())},
        "tail": coeffs.tail.kind,
        "nonpower_asserted": cert.nonpower_asserted,
        "verdict": cert.verdict,
        "alpha_lower_bound": cert.alpha_lower_bound,
        "beurling_verdict": cert.tail_verdict,
        "notes": list(cert.notes),
    }


# -- shell -------------------------------------------------------------------


def _emit(report: dict, args) -> None:
    payload = {"config": _config_record(args), "report": report}
    text = json.dumps(payload, sort_keys=True, indent=2, allow_nan=False) + "\n"
    if args.out:
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)


def _config_record(args) -> dict:
    skip = {"out", "csv", "func"}
    return {k: v for k, v in sorted(vars(args).items()) if k not in skip and v is not None}


def _check_prefix_len(prefix_len: int, least: int) -> None:
    if prefix_len < least:
        raise ParseError(f"--prefix-len must be >= {least}, got {prefix_len}")
    if prefix_len > MAX_WINDOW:
        raise ParseError(f"prefix length capped at {MAX_WINDOW}")


def _cmd_subst_analyze(args):
    sub = load_substitution(args.system)
    _check_prefix_len(args.prefix_len, 0)  # 0 skips the empirical check
    return report_subst_analyze(sub, args.tol, args.prefix_len)


def _cmd_subst_correlate(args):
    sub = load_substitution(args.system)
    _check_prefix_len(args.prefix_len, 1)
    try:
        block = substitution.str_to_word(args.block, sub.alphabet_size)
    except ValueError:
        block = ()
    if not block:
        raise ParseError(f"--block expects integers, got {args.block!r}")
    return report_subst_correlate(sub, block, args.shift, args.prefix_len)


def _cmd_rankone_heights(args):
    spec = load_rankone(args.system, args.stages)
    return report_rankone_heights(spec, args.stages)


def _set_stage_height(spec: rankone.RankOneSpec, stage: int) -> int:
    rankone.level_width(spec, stage)  # raises StageOutOfRange outside 0..K
    return spec.stage_heights[stage]


def _cmd_rankone_correlate(args):
    spec = load_rankone(args.system, args.stages)
    h_k = _set_stage_height(spec, args.set_stage)
    levels = range(h_k) if args.levels == "all" else _ints("--levels", args.levels)
    A = rankone.LevelSet(args.set_stage, tuple(levels))
    return report_rankone_correlate(spec, spec.num_stages, A, _ints("--shifts", args.shifts))


def _cmd_rankone_weaklimit(args):
    spec = load_rankone(args.system, args.stages)
    A = rankone.LevelSet(args.set_stage, (args.level,))
    lo, hi = _ints("--stage-range", args.stage_range, ":", 2)
    return report_rankone_weaklimit(spec, A, lo, hi, args.j_max, args.margin)


def _cmd_rankone_rigidity(args):
    spec = load_rankone(args.system, args.stages)
    sets = [rankone.LevelSet(args.set_stage, (l,)) for l in range(_set_stage_height(spec, args.set_stage))]
    lo, hi = _ints("--shift-stages", args.shift_stages, ":", 2)
    # h_N is the tower height, never a valid shift
    if not 0 <= lo <= hi < spec.num_stages:
        raise ParseError(f"shift stages {lo}:{hi} outside 0:{spec.num_stages - 1}")
    shifts = rankone.heights(spec)[lo : hi + 1]
    return report_rankone_rigidity(spec, shifts, sets, spec.num_stages)


def _cmd_skew_correlate(args):
    sys_ = skew.SkewSystem(args.atom_level, args.cutoff)
    A = skew.DyadicInterval.parse(args.interval)
    return report_skew_correlate(sys_, A, args.eps, args.eps_prime, args.shift)


def _cmd_skew_spectrum(args):
    sys_ = skew.SkewSystem(args.atom_level, args.cutoff)
    if not 0 <= args.window <= MAX_WINDOW:
        raise ParseError(f"--window {args.window} outside 0..{MAX_WINDOW}")
    g_name, _, fiber = args.function.partition(":")
    if g_name not in _G_PRESETS or fiber not in ("one", "chi"):
        raise ParseError("function must be <one|first-digit>:<one|chi>")
    report = report_skew_spectrum(sys_, g_name, fiber, args.window)
    if args.csv:  # written before the report is emitted, so a failed write emits only its error
        import csv
        with open(args.csv, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["n", "value", "error_bound"])
            writer.writerows([r["n"], r["value"], r["error_bound"]] for r in report["coefficients"])
    return report


def _cmd_skew_rigidity(args):
    sys_ = skew.SkewSystem(args.atom_level, args.cutoff)
    A = skew.DyadicInterval.parse(args.interval)
    lo, hi = _ints("--k-range", args.k_range, ":", 2)
    if lo > hi:
        raise ParseError(f"--k-range {lo}:{hi} is empty")
    if lo < 0:
        raise ParseError(f"--k-range {lo}:{hi} starts below k = 0")
    return report_skew_rigidity(sys_, A, args.eps, lo, hi)


def _cmd_spectral_wiener(args):
    corr = spectral.CorrelationSequence.from_csv(args.input)
    return report_spectral_wiener(corr, args.window)


def _cmd_spectral_rajchman(args):
    corr = spectral.CorrelationSequence.from_csv(args.input)
    return report_spectral_rajchman(corr)


def _cmd_spectral_translate(args):
    corr = spectral.CorrelationSequence.from_csv(args.input)
    times = _ints("--times", args.times)
    return report_spectral_translate(corr, times, args.j_window)


def _load_coeffs(path: str) -> spectral.WeakLimitCoefficients:
    return spectral.WeakLimitCoefficients.from_json(Path(path).read_text())


def _cmd_spectral_beurling(args):
    return report_spectral_beurling(_load_coeffs(args.coeffs), args.n_max)


def _cmd_spectral_certify(args):
    return report_spectral_certify(_load_coeffs(args.coeffs), args.n_max, not args.limit_is_power)


def _add(parent, name, fn, **kwargs):
    p = parent.add_parser(name, **kwargs)
    p.set_defaults(func=fn)
    p.add_argument("--out", help="write the JSON report here instead of stdout")
    return p


def _subst_commands(g) -> None:
    p = _add(g, "analyze", _cmd_subst_analyze)
    p.add_argument("--system", required=True)
    p.add_argument("--tol", type=float, default=1e-12)
    p.add_argument("--prefix-len", type=int, default=0)
    p = _add(g, "correlate", _cmd_subst_correlate)
    p.add_argument("--system", required=True)
    p.add_argument("--block", required=True)
    p.add_argument("--shift", type=int, required=True)
    p.add_argument("--prefix-len", type=int, default=MAX_WINDOW)


def _rankone_commands(g) -> None:
    p = _add(g, "heights", _cmd_rankone_heights)
    p.add_argument("--system", required=True)
    p.add_argument("--stages", type=int, default=10)
    p = _add(g, "correlate", _cmd_rankone_correlate)
    p.add_argument("--system", required=True)
    p.add_argument("--stages", type=int, default=12)
    p.add_argument("--set-stage", type=int, default=4)
    p.add_argument("--levels", default="all")
    p.add_argument("--shifts", required=True, help="comma-separated shift list")
    p = _add(g, "weaklimit", _cmd_rankone_weaklimit)
    p.add_argument("--system", required=True)
    p.add_argument("--stages", type=int, default=24)
    p.add_argument("--set-stage", type=int, default=4)
    p.add_argument("--level", type=int, default=0)
    p.add_argument("--stage-range", default="8:12")
    p.add_argument("--j-max", type=int, default=4)
    p.add_argument("--margin", type=int, default=12)
    p = _add(g, "rigidity", _cmd_rankone_rigidity)
    p.add_argument("--system", required=True)
    p.add_argument("--stages", type=int, default=17)
    p.add_argument("--set-stage", type=int, default=4)
    p.add_argument("--shift-stages", default="6:10", help="use tower heights h_lo..h_hi")


def _skew_commands(g) -> None:
    skew_system = argparse.ArgumentParser(add_help=False)
    skew_system.add_argument("--atom-level", type=int, default=20)
    skew_system.add_argument("--cutoff", type=int, default=16)
    p = _add(g, "correlate", _cmd_skew_correlate, parents=[skew_system])
    p.add_argument("--interval", default="0/2^0")
    p.add_argument("--eps", type=int, default=0)
    p.add_argument("--eps-prime", type=int, default=0)
    p.add_argument("--shift", type=int, required=True)
    p = _add(g, "spectrum", _cmd_skew_spectrum, parents=[skew_system])
    p.add_argument("--function", default="one:chi")
    p.add_argument("--window", type=int, default=512)
    p.add_argument("--csv")
    p = _add(g, "rigidity", _cmd_skew_rigidity, parents=[skew_system])
    p.add_argument("--interval", default="0/2^0")
    p.add_argument("--eps", type=int, default=0)
    p.add_argument("--k-range", default="10:14")


def _spectral_commands(g) -> None:
    p = _add(g, "wiener", _cmd_spectral_wiener)
    p.add_argument("--input", required=True)
    p.add_argument("--window", type=int, default=None)
    p = _add(g, "rajchman", _cmd_spectral_rajchman)
    p.add_argument("--input", required=True)
    p = _add(g, "translate", _cmd_spectral_translate)
    p.add_argument("--input", required=True)
    p.add_argument("--times", required=True)
    p.add_argument("--j-window", type=int, default=3)
    p = _add(g, "beurling", _cmd_spectral_beurling)
    p.add_argument("--coeffs", required=True)
    p.add_argument("--n-max", type=int, default=600)
    p = _add(g, "certify", _cmd_spectral_certify)
    p.add_argument("--coeffs", required=True)
    p.add_argument("--n-max", type=int, default=600)
    p.add_argument("--limit-is-power", action="store_true",
                   help="declare that the limit is itself a power (voids the certificate)")


_GROUPS = {"subst": _subst_commands, "rankone": _rankone_commands,
           "skew": _skew_commands, "spectral": _spectral_commands}


def build_parser(group: str | None = None) -> argparse.ArgumentParser:
    """The parser of every group, or of `group` alone.

    A one-group parser reads that group's command lines as the full parser
    does: same Namespace, same exit code, same messages (its usage line
    still lists every group).
    """
    ap = argparse.ArgumentParser(prog="ergolab", description=__doc__)
    metavar = None if group is None else "{" + ",".join(_GROUPS) + "}"
    sub = ap.add_subparsers(dest="group", required=True, metavar=metavar)
    for name, add_commands in _GROUPS.items():
        if group in (None, name):
            add_commands(sub.add_parser(name).add_subparsers(dest="command", required=True))
    return ap


def _parser_for(argv) -> argparse.ArgumentParser:
    """The one-group parser when argv opens with a group name; the full
    parser for --help, no argument or an unknown group."""
    return build_parser(argv[0] if argv and argv[0] in _GROUPS else None)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = _parser_for(argv).parse_args(argv)
    try:
        _emit(args.func(args), args)
    except Exception as exc:  # noqa: BLE001 - error record must name the module error
        record = {"error": {"type": type(exc).__name__, "message": str(exc)}}
        sys.stdout.write(json.dumps(record, sort_keys=True, allow_nan=False) + "\n")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
