"""One benchmark round in a fresh process.

Reads a job (JSON) on stdin, sets up, answers the query stream closed-loop
from a single client and prints one JSON result line.  ``run.py`` starts
one per round, with ``src`` on PYTHONPATH.

Set-up covers ``import ergolab``, building each long-lived system object
and one warm-up query per object; ``t_ready`` marks its end.  A query is
one call to a public ``ergolab.cli.report_*`` builder (timed alone; the
checks run outside the timed region), or on cli-batch one
``python -m ergolab.cli`` process.
"""

from __future__ import annotations

import json
import os
import resource
import subprocess
import sys
import time
import traceback
from pathlib import Path

import checks
from calib import Calibration
from checks import WrongValue

BENCH_DIR = Path(__file__).resolve().parent


class Round:
    """Latencies and failures of one pass over the stream."""

    def __init__(self, recorder):
        self.recorder = recorder
        self.latencies: list[float] = []
        self.failures: list[dict] = []
        self.cli_stats: dict[str, list[float]] = {}
        self.child_rss_kib = 0  # cli-batch: largest ergolab.cli process
        self.cal = Calibration()

    def record(self, latency: float) -> None:
        self.latencies.append(latency)
        self.cal.after(latency)

    def fail(self, qid: int, kind: str, category: str, message: str) -> None:
        self.failures.append({"qid": qid, "kind": kind, "category": category, "message": message[:300]})

    def timed(self, qid: int, kind: str, fn, *args):
        """Call one report builder as query ``qid``; returns the report or None."""
        rec = self.recorder
        if rec is not None:
            rec.qid = qid
        t0 = time.perf_counter()
        try:
            report = fn(*args)
        except Exception as exc:  # a query that raises is a failed query, not a crash
            self.record(time.perf_counter() - t0)
            self.fail(qid, kind, "error", f"{type(exc).__name__}: {exc}")
            return None
        finally:
            if rec is not None:
                rec.qid = -1
        self.record(time.perf_counter() - t0)
        return report

    def check(self, qid: int, kind: str, fn, *args) -> None:
        try:
            fn(*args)
        except WrongValue as exc:
            self.fail(qid, kind, "wrong", str(exc))
        except (KeyError, TypeError, ValueError, IndexError) as exc:
            self.fail(qid, kind, "wrong", f"malformed report: {type(exc).__name__}: {exc}")


# -- in-process workloads ----------------------------------------------------


def setup_skew_spectrum(job, cli):
    from ergolab.skew import SkewSystem

    systems = [SkewSystem(o["K"], o["L"]) for o in job["objects"]]
    for s in systems:  # warm-up: builds the lazy tables
        cli.report_skew_spectrum(s, "one", "chi", 1)
    return systems


def run_skew_spectrum(job, cli, systems, rnd: Round):
    from ergolab.skew import DyadicInterval

    for qid, q in enumerate(job["queries"]):
        s = systems[q["obj"]]
        kind = q["kind"]
        if kind == "skew_spectrum":
            report = rnd.timed(qid, kind, cli.report_skew_spectrum, s, q["g"], q["fiber"], q["window"])
            check = checks.skew_spectrum
        elif kind == "skew_correlate":
            A = DyadicInterval(*q["interval"])
            report = rnd.timed(qid, kind, cli.report_skew_correlate, s, A, q["eps"], q["eps2"], q["shift"])
            check = checks.skew_correlate
        else:
            A = DyadicInterval(*q["interval"])
            report = rnd.timed(qid, kind, cli.report_skew_rigidity, s, A, q["eps"], q["k_lo"], q["k_hi"])
            check = checks.skew_rigidity
        if report is not None:
            rnd.check(qid, kind, check, q, report)


def _rankone_spec(rankone, obj):
    name, n = obj["preset"], obj["stages"]
    if name == "chacon":
        return rankone.chacon_spec(n)
    if name == "historical":
        return rankone.historical_chacon_spec(n)
    return rankone.staircase_spec(int(name.split(":")[1]), n)


def setup_rankone_scan(job, cli):
    from ergolab import rankone

    specs = [_rankone_spec(rankone, o) for o in job["objects"]]
    for spec, o in zip(specs, job["objects"]):  # warm-up: one correlate per tower
        cli.report_rankone_correlate(spec, spec.num_stages, rankone.LevelSet(o["set_stage"], (0,)), [1])
    return specs


def run_rankone_scan(job, cli, specs, rnd: Round):
    from ergolab import rankone
    from ergolab.spectral import TailDescriptor, WeakLimitCoefficients

    qid = 0
    for q in job["queries"]:
        obj = job["objects"][q["obj"]]
        spec = specs[q["obj"]]
        k = obj["set_stage"]
        kind = q["kind"]
        if kind == "rankone_rigidity":
            hs = rankone.heights(spec)
            lo, hi = q["shift_stages"]
            sets = [rankone.LevelSet(k, (l,)) for l in range(hs[k])]
            report = rnd.timed(qid, kind, cli.report_rankone_rigidity, spec, hs[lo:hi + 1], sets,
                               spec.num_stages)
            if report is not None:
                rnd.check(qid, kind, checks.rankone_rigidity, q, report, obj["preset"])
        elif kind == "rankone_correlate":
            A = rankone.LevelSet(k, tuple(q["levels"]))
            report = rnd.timed(qid, kind, cli.report_rankone_correlate, spec, spec.num_stages, A, q["shifts"])
            if report is not None:
                rnd.check(qid, kind, checks.rankone_correlate, q, report)
        else:
            A = rankone.LevelSet(k, (0,))
            lo, hi = q["stage_range"]
            report = rnd.timed(qid, kind, cli.report_rankone_weaklimit, spec, A, lo, hi, q["j_max"],
                               q["margin"])
            if report is not None:
                rnd.check(qid, kind, checks.rankone_weaklimit, q, report)
            # follow-up query: certify the estimated coefficients, with a
            # geometric left tail at the last estimated ratio
            qid += 1
            if report is None:
                rnd.fail(qid, "spectral_certify", "error", "no coefficients to certify")
            else:
                a = [c["value"] for c in report["coefficients"]]
                support = {-j: v for j, v in enumerate(a)}
                try:
                    coeffs = WeakLimitCoefficients(support, TailDescriptor("geometric", c=a[-1],
                                                                           q=a[-1] / a[-2]))
                except Exception as exc:
                    rnd.fail(qid, "spectral_certify", "error", f"{type(exc).__name__}: {exc}")
                else:
                    cert = rnd.timed(qid, "spectral_certify", cli.report_spectral_certify, coeffs, 600, True)
                    if cert is not None:
                        rnd.check(qid, "spectral_certify", checks.spectral_certify, support, cert)
        qid += 1


def setup_cold_mix(job, cli):
    from ergolab import rankone
    from ergolab.skew import DyadicInterval, DyadicStep, SkewSystem
    from ergolab.substitution import RUDIN_SHAPIRO

    # no long-lived objects: warm the code paths on throwaway problems
    cli.report_subst_analyze(RUDIN_SHAPIRO, 1e-12, 64)
    cli.report_rankone_correlate(rankone.chacon_spec(3), 3, rankone.LevelSet(1, (0,)), [1])
    cli.report_skew_correlate(SkewSystem(8, 4, DyadicStep(1, (0, 1))), DyadicInterval(0, 1), 0, 0, 1)
    return None


def run_cold_mix(job, cli, _, rnd: Round):
    import numpy as np
    from ergolab import rankone
    from ergolab.skew import DyadicInterval, DyadicStep, SkewSystem
    from ergolab.substitution import Substitution

    from workloads import fixed_point_prefix

    problem, objects = None, {}
    for qid, q in enumerate(job["queries"]):
        kind = q["kind"]
        if q["problem"] != problem:  # every problem gets fresh objects
            problem, objects = q["problem"], {}
        if kind.startswith("subst"):
            if "sub" not in objects:
                sysd = q["system"]
                objects["sub"] = Substitution(sysd["alphabet"], tuple(tuple(w) for w in sysd["images"]))
            sub = objects["sub"]
            if kind == "subst_analyze":
                report = rnd.timed(qid, kind, cli.report_subst_analyze, sub, 1e-12, q["prefix_len"])
                check = checks.subst_analyze
            else:
                report = rnd.timed(qid, kind, cli.report_subst_correlate, sub, tuple(q["block"]), q["shift"],
                                   q["prefix_len"])
                check = checks.subst_correlate
            if report is not None:
                if "prefix" not in objects:
                    objects["prefix"] = np.asarray(fixed_point_prefix(q["system"]["images"], q["prefix_len"]))
                rnd.check(qid, kind, check, q, report, objects["prefix"])
        elif kind == "rankone_correlate":
            spec = rankone.RankOneSpec(tuple((p, tuple(a)) for p, a in q["system"]["stages"]))
            A = rankone.LevelSet(q["set_stage"], tuple(q["levels"]))
            report = rnd.timed(qid, kind, cli.report_rankone_correlate, spec, q["N"], A, q["shifts"])
            if report is not None:
                rnd.check(qid, kind, _check_rankone_brute, q, report, rankone, spec)
        else:
            if "skew" not in objects:
                sysd = q["system"]
                c, values = sysd["cocycle"]
                objects["skew"] = SkewSystem(sysd["K"], sysd["L"], DyadicStep(c, tuple(values)))
            A = DyadicInterval(*q["interval"])
            report = rnd.timed(qid, kind, cli.report_skew_correlate, objects["skew"], A, q["eps"], q["eps2"],
                               q["shift"])
            if report is not None:
                rnd.check(qid, kind, checks.skew_correlate, q, report)


def _check_rankone_brute(q, report, rankone, spec):
    """Scan the public build_tower word of the stages above the set stage."""
    k, N = q["set_stage"], q["N"]
    upper = rankone.RankOneSpec(spec.stages[k:N])
    word = rankone.build_tower(upper, N - k).column_word
    base = rankone.heights(spec)[k]
    counts = checks.brute_pair_counts(word, base, q["levels"], q["shifts"])
    width = float(rankone.level_width(spec, N))
    checks.rankone_correlate(q, report, counts, width)


IN_PROCESS = {
    "skew-spectrum": (setup_skew_spectrum, run_skew_spectrum),
    "rankone-scan": (setup_rankone_scan, run_rankone_scan),
    "cold-mix": (setup_cold_mix, run_cold_mix),
}


# -- cli-batch ---------------------------------------------------------------


def setup_cli_batch(job, cli):
    """Write the input files; the spectrum CSV comes from a small-K system."""
    from ergolab.skew import SkewSystem

    tmp = Path(job["tmp"])
    for name, content in job["files"].items():
        text = content if isinstance(content, str) else json.dumps(content)
        (tmp / name).write_text(text)
    spec = job["csv"]
    g, fiber = spec["function"].split(":")
    report = cli.report_skew_spectrum(SkewSystem(spec["K"], spec["L"]), g, fiber, spec["window"])
    lines = ["n,value,error_bound"] + [f"{r['n']},{r['value']!r},{r['error_bound']!r}"
                                       for r in report["coefficients"]]
    (tmp / "spectrum.csv").write_text("\n".join(lines) + "\n")
    return tmp


def reference_report(cli, argv: list[str]) -> dict:
    """The in-process builder's report for one CLI argument list."""
    from ergolab import rankone
    from ergolab.rankone import LevelSet
    from ergolab.skew import DyadicInterval, SkewSystem
    from ergolab.spectral import CorrelationSequence, WeakLimitCoefficients

    a = cli.build_parser().parse_args(argv)
    cmd = (a.group, a.command)

    def rng(text):
        lo, _, hi = text.partition(":")
        return int(lo), int(hi or lo)

    if cmd == ("subst", "analyze"):
        return cli.report_subst_analyze(cli.load_substitution(a.system), a.tol, a.prefix_len)
    if cmd == ("subst", "correlate"):
        block = tuple(int(c) for c in a.block)
        return cli.report_subst_correlate(cli.load_substitution(a.system), block, a.shift, a.prefix_len)
    if a.group == "rankone":
        spec = cli.load_rankone(a.system, a.stages)
        hs = rankone.heights(spec)
        if a.command == "heights":
            return cli.report_rankone_heights(spec, a.stages)
        if a.command == "correlate":
            A = LevelSet(a.set_stage, tuple(int(x) for x in a.levels.split(",")))
            shifts = [int(x) for x in a.shifts.split(",")]
            return cli.report_rankone_correlate(spec, spec.num_stages, A, shifts)
        if a.command == "weaklimit":
            lo, hi = rng(a.stage_range)
            return cli.report_rankone_weaklimit(spec, LevelSet(a.set_stage, (a.level,)), lo, hi, a.j_max,
                                                a.margin)
        lo, hi = rng(a.shift_stages)
        sets = [LevelSet(a.set_stage, (l,)) for l in range(hs[a.set_stage])]
        return cli.report_rankone_rigidity(spec, hs[lo:hi + 1], sets, spec.num_stages)
    if a.group == "skew":
        s = SkewSystem(a.atom_level, a.cutoff)
        if a.command == "spectrum":
            g, fiber = a.function.split(":")
            return cli.report_skew_spectrum(s, g, fiber, a.window)
        A = DyadicInterval.parse(a.interval)
        if a.command == "correlate":
            return cli.report_skew_correlate(s, A, a.eps, a.eps_prime, a.shift)
        lo, hi = rng(a.k_range)
        return cli.report_skew_rigidity(s, A, a.eps, lo, hi)
    if a.command in ("wiener", "rajchman", "translate"):
        corr = CorrelationSequence.from_csv(a.input)
        if a.command == "wiener":
            return cli.report_spectral_wiener(corr, a.window)
        if a.command == "rajchman":
            return cli.report_spectral_rajchman(corr)
        return cli.report_spectral_translate(corr, [int(t) for t in a.times.split(",")], a.j_window)
    coeffs = WeakLimitCoefficients.from_json(Path(a.coeffs).read_text())
    if a.command == "beurling":
        return cli.report_spectral_beurling(coeffs, a.n_max)
    return cli.report_spectral_certify(coeffs, a.n_max, not a.limit_is_power)


def _check_cli(cli, argv, returncode, out_path: Path):
    checks.expect(returncode == 0, f"exit code {returncode}")
    try:
        payload = checks.strict_json(out_path.read_text())
    except ValueError as exc:
        raise InvalidOutput(f"report is not strict JSON: {exc}") from None
    want = checks.plain(reference_report(cli, argv))
    checks.same_report(payload["report"], want)


class InvalidOutput(Exception):
    pass


def run_cli_batch(job, cli, tmp: Path, rnd: Round):
    env = dict(os.environ, PYTHONPATH=job["src"])
    rec = rnd.recorder
    launcher = subprocess.Popen([sys.executable, str(BENCH_DIR / "launcher.py")], stdin=subprocess.PIPE,
                                stdout=subprocess.PIPE, text=True)
    try:
        for qid, q in enumerate(job["queries"]):
            argv = [str(tmp / t[1:]) if t.startswith("@") else t for t in q["argv"]]
            out = tmp / f"out-{qid}.json"
            spans_file = tmp / f"spans-{qid}.json"
            if rec is None:
                cmd = [sys.executable, "-m", "ergolab.cli", *argv, "--out", str(out)]
            else:
                cmd = [sys.executable, str(BENCH_DIR / "clitrace.py"), str(spans_file), *argv, "--out", str(out)]
            launcher.stdin.write(json.dumps({"cmd": cmd, "cwd": job["root"], "env": env}) + "\n")
            launcher.stdin.flush()
            reply = json.loads(launcher.stdout.readline())
            rnd.record(reply["t1"] - reply["t0"])
            rnd.child_rss_kib = max(rnd.child_rss_kib, reply["maxrss_kib"])
            if rec is not None and spans_file.exists():
                _merge_child_spans(rec, qid, reply["t0"], reply["t1"], json.loads(spans_file.read_text()), out,
                                   rnd.cli_stats)
            _check_cli_query(cli, rnd, qid, argv, reply, out)
    finally:
        launcher.stdin.close()
        launcher.wait()


def _check_cli_query(cli, rnd: Round, qid: int, argv: list[str], reply: dict, out: Path) -> None:
    kind = "cli " + " ".join(argv[:2])
    try:
        _check_cli(cli, argv, reply["returncode"], out)
    except InvalidOutput as exc:
        rnd.fail(qid, kind, "invalid_output", str(exc))
    except WrongValue as exc:
        if reply["returncode"] != 0:
            rnd.fail(qid, kind, "error", f"{exc}: {reply['output'].strip()[:200]}")
        else:
            rnd.fail(qid, kind, "wrong", str(exc))
    except Exception as exc:  # the reference builder raised: report it, keep going
        rnd.fail(qid, kind, "error", f"{type(exc).__name__}: {exc}")


def _merge_child_spans(rec, qid, t_spawn, t_exit, child: dict, out: Path, stats) -> None:
    """Graft a traced CLI process's spans under one cli.process span."""
    root = len(rec.spans)
    rec.spans.append(("cli", "process", t_spawn, t_exit, -1, qid))
    base = len(rec.spans)
    report_s = 0.0
    main_s = 0.0
    for layer, name, start, end, parent, _ in child["spans"]:
        rec.spans.append((layer, name, start, end, root if parent < 0 else base + parent, qid))
        if name.startswith("report_"):
            report_s += end - start
        elif name == "main":
            main_s += end - start
    for key, value in (("startup_s", child["t_imported"] - t_spawn), ("report_s", report_s),
                       ("emit_s", main_s - report_s), ("process_s", t_exit - t_spawn),
                       ("report_bytes", out.stat().st_size if out.exists() else 0)):
        stats.setdefault(key, []).append(value)


# -- entry point -------------------------------------------------------------


def main() -> int:
    job = json.load(sys.stdin)
    src = job["src"]
    import ergolab
    import ergolab.cli as cli

    if not Path(ergolab.__file__).resolve().is_relative_to(Path(src).resolve()):
        print(f"ergolab imported from {ergolab.__file__}, not from {src}", file=sys.stderr)
        return 2
    workload = job["workload"]
    recorder = None
    if job["trace"]:
        from spans import REPORT_BUILDERS, Recorder

        recorder = Recorder()
        if workload != "cli-batch":
            recorder.install(REPORT_BUILDERS)
    if workload == "cli-batch":
        setup, run = setup_cli_batch, run_cli_batch
    else:
        setup, run = IN_PROCESS[workload]
    state = setup(job, cli)
    t_ready = time.monotonic()
    rnd = Round(recorder)
    rnd.cal.sample(3)
    result: dict = {"t_ready": t_ready}
    if job["mode"] == "run":
        run(job, cli, state, rnd)
        rnd.cal.sample(3)
        result.update(
            latencies=rnd.latencies,
            failures=rnd.failures,
            attempted=_attempted(job),
            rss_kib=rnd.child_rss_kib or resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        )
        if recorder is not None:
            result["trace"] = _trace_summary(job, recorder, rnd)
    result["factor"] = rnd.cal.factor()
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


def _trace_summary(job, recorder, rnd: Round) -> dict:
    from spans import aggregate

    recorder.uninstall()
    agg = aggregate(recorder.spans)
    agg["skew_first_query_s"] = sum(recorder.spans[i][3] - recorder.spans[i][2] for i in recorder.first_skew)
    cli_stats = dict(rnd.cli_stats)
    if job["workload"] != "cli-batch":
        cli_stats["report_s"] = [s[3] - s[2] for s in recorder.spans if s[0] == "cli" and s[4] == -1 and s[5] >= 0]
    agg["cli"] = cli_stats
    if job.get("spans_out"):
        Path(job["spans_out"]).write_text(json.dumps(recorder.spans))
    return agg


def _attempted(job) -> int:
    """Queries in the stream, counting each weak-limit's follow-up certify."""
    return len(job["queries"]) + sum(q["kind"] == "rankone_weaklimit" for q in job["queries"])


if __name__ == "__main__":
    try:
        sys.exit(main())
    except Exception:
        traceback.print_exc()
        sys.exit(1)
