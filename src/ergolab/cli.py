"""Command-line front end: system files/presets in, JSON reports out.

Subcommands mirror the library surface:

    subst    analyze | correlate
    rankone  heights | correlate | weaklimit | rigidity
    skew     correlate | spectrum | rigidity
    spectral wiener | rajchman | translate | beurling | certify

Every run emits a single JSON report (stdout or --out) that embeds the
exact configuration used, so identical configs give byte-identical
reports; series data can additionally be written as CSV via --csv.
Failures exit nonzero with a machine-readable error record preserving
the module error name.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import rankone, skew, spectral, substitution
from .rankone import LevelSet, RankOneSpec
from .skew import CONSTANT_ONE, FIRST_DIGIT_SIGN, DyadicInterval, SkewSystem
from .spectral import CorrelationSequence, WeakLimitCoefficients
from .substitution import RUDIN_SHAPIRO, THREE_LETTER, THREE_LETTER_REFERENCE_ALPHA, Substitution

MAX_STAGES = 30
MAX_ATOM_LEVEL = 26
MAX_WINDOW = 2**16


class ParseError(Exception):
    pass


# -- input loading -----------------------------------------------------------

_SUBST_PRESETS = {
    "rudin-shapiro": RUDIN_SHAPIRO,
    "three-letter": THREE_LETTER,
}


def load_substitution(source: str) -> Substitution:
    if source in _SUBST_PRESETS:
        return _SUBST_PRESETS[source]
    path = Path(source)
    if not path.exists():
        raise ParseError(f"unknown substitution preset or missing file: {source}")
    return Substitution.from_lines(path.read_text().splitlines(), name=path.stem)


def load_rankone(source: str, stages: int) -> RankOneSpec:
    if stages < 1 or stages > MAX_STAGES:
        raise ParseError(f"stages must lie in 1..{MAX_STAGES}")
    if source == "chacon":
        return rankone.chacon_spec(stages)
    if source == "historical":
        return rankone.historical_chacon_spec(stages)
    if source.startswith("staircase:"):
        return rankone.staircase_spec(int(source.split(":", 1)[1]), stages)
    path = Path(source)
    if not path.exists():
        raise ParseError(f"unknown rank-one preset or missing file: {source}")
    spec = RankOneSpec.from_lines(path.read_text().splitlines(), name=path.stem)
    if spec.num_stages > MAX_STAGES:
        raise ParseError(f"stages must lie in 1..{MAX_STAGES}")
    return spec


def _parse_range(text: str) -> tuple[int, int]:
    lo, _, hi = text.partition(":")
    return int(lo), int(hi if hi else lo)


def _parse_block(text: str) -> tuple[int, ...]:
    if "," in text:
        return tuple(int(x) for x in text.split(","))
    return tuple(int(c) for c in text)


def _parse_levels(text: str, h_k: int) -> tuple[int, ...]:
    if text == "all":
        return tuple(range(h_k))
    return tuple(int(x) for x in text.split(","))


_G_PRESETS = {"one": CONSTANT_ONE, "first-digit": FIRST_DIGIT_SIGN}


def _jsonify(obj):
    if isinstance(obj, dict):
        return {str(k): _jsonify(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonify(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_jsonify(v) for v in obj.tolist()]
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (np.floating, float)):
        return float(obj)
    if isinstance(obj, (np.integer, int)):
        return int(obj)
    return obj


# -- report builders (importable; the CLI is a thin shell) -------------------


def report_subst_analyze(sub: Substitution, tol: float, prefix_len: int) -> dict:
    M = substitution.composition_matrix(sub)
    primitive = substitution.is_primitive(sub)
    report: dict = {
        "system": {
            "name": sub.name,
            "alphabet_size": sub.alphabet_size,
            "images": [substitution.word_to_str(w) for w in sub.images],
        },
        "composition_matrix": M.tolist(),
        "primitive": primitive,
    }
    if not primitive:
        return report
    data = substitution.perron(M, tol=tol)
    freqs = substitution.block_frequencies(sub, tol=tol)  # keys in block-alphabet order
    rig = substitution._rigidity_from(freqs, data)
    report.update(
        {
            "theta": data.theta,
            "letter_frequencies": data.letter_freq.tolist(),
            "perron_residual": data.residual,
            "letter_limit_norms": [float(np.abs(v).sum()) for v in data.letter_limits],
            "block_alphabet": [substitution.word_to_str(b) for b in freqs],
            "block_frequencies": {substitution.word_to_str(b): f for b, f in freqs.items()},
            "marginal_check": {
                str(a): sum(f for (x, _), f in freqs.items() if x == a)
                for a in range(sub.alphabet_size)
            },
            "rigidity_constant": {
                "r": rig.r,
                "rho": rig.rho,
                "alpha": rig.alpha,
                "witness_letter": rig.witness_letter,
            },
        }
    )
    if (sub.alphabet_size, sub.images) == (THREE_LETTER.alphabet_size, THREE_LETTER.images):
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
        prefix = substitution.fixed_point_prefix(sub, prefix_len)
        checks = {}
        for b, f in freqs.items():
            emp = substitution.prefix_correlation(prefix, b, 0)
            checks[substitution.word_to_str(b)] = {
                "empirical": emp,
                "eigenvector": f,
                "difference": abs(emp - f),
            }
        report["empirical_check"] = {"prefix_len": prefix_len, "blocks": checks}
    return report


def report_subst_correlate(sub, block, shift, prefix_len) -> dict:
    value = substitution.empirical_correlation(sub, block, shift, prefix_len)
    return {
        "system": {"name": sub.name, "images": [substitution.word_to_str(w) for w in sub.images]},
        "block": substitution.word_to_str(block),
        "shift": shift,
        "prefix_len": prefix_len,
        "correlation": value,
    }


def report_rankone_heights(spec: RankOneSpec, n: int) -> dict:
    hs = rankone.heights(spec)[: n + 1]
    return {"system": spec.name or "custom", "stages": n, "heights": hs}


def report_rankone_correlate(spec, N, A: LevelSet, shifts) -> dict:
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


def _skew_header(sys_: SkewSystem) -> dict:
    return {
        "system": "mathew-nadkarni" if sys_.cocycle is None else "custom-cocycle",
        "atom_level": sys_.K,
        "cutoff": sys_.L,
    }


def report_skew_correlate(sys_: SkewSystem, A, eps, eps2, m) -> dict:
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


def report_skew_spectrum(sys_: SkewSystem, g_name, fiber, window) -> dict:
    g = _G_PRESETS[g_name]
    # c(-n) = c(n) exactly, so each |n| is computed once
    coeffs = [skew.spectral_coefficient(g, fiber, n, sys_) for n in range(window + 1)]
    rows = [{"n": n, "value": coeffs[abs(n)].value, "error_bound": coeffs[abs(n)].error_bound}
            for n in range(-window, window + 1)]
    corr = CorrelationSequence({c.index: (c.value, c.error_bound) for c in coeffs},
                               source=f"{g_name}:{fiber}")
    report = {
        **_skew_header(sys_),
        "function": f"{g_name}:{fiber}",
        "window": window,
        "coefficients": rows,
    }
    if window >= 32:
        report["wiener_discrete_mass"] = spectral.wiener_discrete_mass(corr)
        report["wiener_half_window"] = spectral.wiener_discrete_mass(corr, window // 2) if window >= 64 else None
    return report


def report_skew_rigidity(sys_: SkewSystem, A, eps, k_lo, k_hi) -> dict:
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


def report_spectral_wiener(corr: CorrelationSequence, window: int | None) -> dict:
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


def report_spectral_beurling(coeffs: WeakLimitCoefficients, n_max: int) -> dict:
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
    cert = spectral.singularity_certificate(coeffs, n_max, limit_is_nonpower=nonpower)
    return {
        "support": {str(k): v for k, v in sorted(coeffs.support.items())},
        "tail": coeffs.tail.kind,
        "nonpower_asserted": cert.nonpower_asserted,
        "verdict": cert.verdict,
        "alpha_lower_bound": cert.alpha_lower_bound,
        "beurling_verdict": cert.beurling.verdict,
        "notes": list(cert.notes),
    }


# -- shell -------------------------------------------------------------------


def _emit(report: dict, args) -> None:
    report = _jsonify(report)
    payload = {"config": _jsonify(_config_record(args)), "report": report}
    text = json.dumps(payload, sort_keys=True, indent=2, allow_nan=False) + "\n"
    if args.out:
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)


def _config_record(args) -> dict:
    skip = {"out", "csv", "func"}
    return {k: v for k, v in sorted(vars(args).items()) if k not in skip and v is not None}


def _write_series_csv(path: str, rows: list[dict], fields: list[str]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(fields)
        for row in rows:
            writer.writerow([row[f] for f in fields])


def _cmd_subst_analyze(args):
    sub = load_substitution(args.system)
    if args.prefix_len and args.prefix_len > MAX_WINDOW:
        raise ParseError(f"prefix length capped at {MAX_WINDOW}")
    _emit(report_subst_analyze(sub, args.tol, args.prefix_len), args)


def _cmd_subst_correlate(args):
    sub = load_substitution(args.system)
    if args.prefix_len > MAX_WINDOW:
        raise ParseError(f"prefix length capped at {MAX_WINDOW}")
    _emit(report_subst_correlate(sub, _parse_block(args.block), args.shift, args.prefix_len), args)


def _cmd_rankone_heights(args):
    spec = load_rankone(args.system, args.stages)
    _emit(report_rankone_heights(spec, args.stages), args)


def _levelset_from_args(spec, args) -> LevelSet:
    hs = rankone.heights(spec)
    return LevelSet(args.set_stage, _parse_levels(args.levels, hs[args.set_stage]))


def _cmd_rankone_correlate(args):
    spec = load_rankone(args.system, args.stages)
    A = _levelset_from_args(spec, args)
    N = args.tower_stage if args.tower_stage is not None else spec.num_stages
    shifts = [int(x) for x in args.shifts.split(",")]
    report = report_rankone_correlate(spec, N, A, shifts)
    _emit(report, args)
    if args.csv:
        _write_series_csv(args.csv, report["correlations"], ["shift", "value", "error_bound"])


def _cmd_rankone_weaklimit(args):
    spec = load_rankone(args.system, args.stages)
    A = LevelSet(args.set_stage, (args.level,))
    lo, hi = _parse_range(args.stage_range)
    _emit(report_rankone_weaklimit(spec, A, lo, hi, args.j_max, args.margin), args)


def _cmd_rankone_rigidity(args):
    spec = load_rankone(args.system, args.stages)
    hs = rankone.heights(spec)
    if args.shifts:
        shifts = [int(x) for x in args.shifts.split(",")]
    else:
        lo, hi = _parse_range(args.shift_stages)
        shifts = hs[lo : hi + 1]
    sets = [LevelSet(args.set_stage, (l,)) for l in range(hs[args.set_stage])]
    _emit(report_rankone_rigidity(spec, shifts, sets, spec.num_stages), args)


def _skew_system_from_args(args) -> SkewSystem:
    if args.atom_level > MAX_ATOM_LEVEL:
        raise ParseError(f"atom level capped at {MAX_ATOM_LEVEL}")
    return SkewSystem(args.atom_level, args.cutoff)


def _cmd_skew_correlate(args):
    sys_ = _skew_system_from_args(args)
    A = DyadicInterval.parse(args.interval)
    _emit(report_skew_correlate(sys_, A, args.eps, args.eps_prime, args.shift), args)


def _cmd_skew_spectrum(args):
    sys_ = _skew_system_from_args(args)
    if args.window > MAX_WINDOW:
        raise ParseError(f"window capped at {MAX_WINDOW}")
    g_name, _, fiber = args.function.partition(":")
    if g_name not in _G_PRESETS or fiber not in ("one", "chi"):
        raise ParseError("function must be <one|first-digit>:<one|chi>")
    report = report_skew_spectrum(sys_, g_name, fiber, args.window)
    _emit(report, args)
    if args.csv:
        _write_series_csv(args.csv, report["coefficients"], ["n", "value", "error_bound"])


def _cmd_skew_rigidity(args):
    sys_ = _skew_system_from_args(args)
    A = DyadicInterval.parse(args.interval)
    lo, hi = _parse_range(args.k_range)
    _emit(report_skew_rigidity(sys_, A, args.eps, lo, hi), args)


def _cmd_spectral_wiener(args):
    corr = CorrelationSequence.from_csv(args.input)
    _emit(report_spectral_wiener(corr, args.window), args)


def _cmd_spectral_rajchman(args):
    corr = CorrelationSequence.from_csv(args.input)
    _emit(report_spectral_rajchman(corr), args)


def _cmd_spectral_translate(args):
    corr = CorrelationSequence.from_csv(args.input)
    times = [int(x) for x in args.times.split(",")]
    _emit(report_spectral_translate(corr, times, args.j_window), args)


def _load_coeffs(path: str) -> WeakLimitCoefficients:
    return WeakLimitCoefficients.from_json(Path(path).read_text())


def _cmd_spectral_beurling(args):
    _emit(report_spectral_beurling(_load_coeffs(args.coeffs), args.n_max), args)


def _cmd_spectral_certify(args):
    coeffs = _load_coeffs(args.coeffs)
    _emit(report_spectral_certify(coeffs, args.n_max, not args.limit_is_power), args)


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="ergolab", description=__doc__)
    sub = ap.add_subparsers(dest="group", required=True)

    def add(parent, name, fn, **kwargs):
        p = parent.add_parser(name, **kwargs)
        p.set_defaults(func=fn)
        p.add_argument("--out", help="write the JSON report here instead of stdout")
        return p

    g = sub.add_parser("subst").add_subparsers(dest="command", required=True)
    p = add(g, "analyze", _cmd_subst_analyze)
    p.add_argument("--system", required=True)
    p.add_argument("--tol", type=float, default=1e-12)
    p.add_argument("--prefix-len", type=int, default=0)
    p = add(g, "correlate", _cmd_subst_correlate)
    p.add_argument("--system", required=True)
    p.add_argument("--block", required=True)
    p.add_argument("--shift", type=int, required=True)
    p.add_argument("--prefix-len", type=int, default=MAX_WINDOW)

    g = sub.add_parser("rankone").add_subparsers(dest="command", required=True)
    p = add(g, "heights", _cmd_rankone_heights)
    p.add_argument("--system", required=True)
    p.add_argument("--stages", type=int, default=10)
    p = add(g, "correlate", _cmd_rankone_correlate)
    p.add_argument("--system", required=True)
    p.add_argument("--stages", type=int, default=12)
    p.add_argument("--tower-stage", type=int, default=None)
    p.add_argument("--set-stage", type=int, default=4)
    p.add_argument("--levels", default="all")
    p.add_argument("--shifts", required=True, help="comma-separated shift list")
    p.add_argument("--csv")
    p = add(g, "weaklimit", _cmd_rankone_weaklimit)
    p.add_argument("--system", required=True)
    p.add_argument("--stages", type=int, default=24)
    p.add_argument("--set-stage", type=int, default=4)
    p.add_argument("--level", type=int, default=0)
    p.add_argument("--stage-range", default="8:12")
    p.add_argument("--j-max", type=int, default=4)
    p.add_argument("--margin", type=int, default=12)
    p = add(g, "rigidity", _cmd_rankone_rigidity)
    p.add_argument("--system", required=True)
    p.add_argument("--stages", type=int, default=17)
    p.add_argument("--set-stage", type=int, default=4)
    p.add_argument("--shift-stages", default="6:10", help="use tower heights h_lo..h_hi")
    p.add_argument("--shifts", default=None, help="explicit comma-separated shifts")

    g = sub.add_parser("skew").add_subparsers(dest="command", required=True)
    p = add(g, "correlate", _cmd_skew_correlate)
    p.add_argument("--interval", default="0/2^0")
    p.add_argument("--eps", type=int, default=0)
    p.add_argument("--eps-prime", type=int, default=0)
    p.add_argument("--shift", type=int, required=True)
    p.add_argument("--atom-level", type=int, default=20)
    p.add_argument("--cutoff", type=int, default=16)
    p = add(g, "spectrum", _cmd_skew_spectrum)
    p.add_argument("--function", default="one:chi")
    p.add_argument("--window", type=int, default=512)
    p.add_argument("--atom-level", type=int, default=20)
    p.add_argument("--cutoff", type=int, default=16)
    p.add_argument("--csv")
    p = add(g, "rigidity", _cmd_skew_rigidity)
    p.add_argument("--interval", default="0/2^0")
    p.add_argument("--eps", type=int, default=0)
    p.add_argument("--k-range", default="10:14")
    p.add_argument("--atom-level", type=int, default=20)
    p.add_argument("--cutoff", type=int, default=16)

    g = sub.add_parser("spectral").add_subparsers(dest="command", required=True)
    p = add(g, "wiener", _cmd_spectral_wiener)
    p.add_argument("--input", required=True)
    p.add_argument("--window", type=int, default=None)
    p = add(g, "rajchman", _cmd_spectral_rajchman)
    p.add_argument("--input", required=True)
    p = add(g, "translate", _cmd_spectral_translate)
    p.add_argument("--input", required=True)
    p.add_argument("--times", required=True)
    p.add_argument("--j-window", type=int, default=3)
    p = add(g, "beurling", _cmd_spectral_beurling)
    p.add_argument("--coeffs", required=True)
    p.add_argument("--n-max", type=int, default=600)
    p = add(g, "certify", _cmd_spectral_certify)
    p.add_argument("--coeffs", required=True)
    p.add_argument("--n-max", type=int, default=600)
    p.add_argument("--limit-is-power", action="store_true",
                   help="declare that the limit is itself a power (voids the certificate)")

    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        args.func(args)
    except Exception as exc:  # noqa: BLE001 - error record must name the module error
        record = {"error": {"type": type(exc).__name__, "message": str(exc)}}
        sys.stdout.write(json.dumps(record, sort_keys=True, allow_nan=False) + "\n")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
