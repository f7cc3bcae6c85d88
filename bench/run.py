"""ergolab benchmark: seeded workloads, end-to-end metrics, traced layers.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from
``src/``.  The workloads are defined in ``workloads.py`` (see
BENCHMARK.json for why each one is there).

A run is a sequence of rounds.  Each round is a fresh worker process
(``worker.py``) that sets up and then answers the whole seeded query stream
closed-loop from one client; rounds repeat, one at a time, until
``--seconds`` are used up (at least three).  Nothing runs concurrently.

``--trace 0`` prints the end-to-end metrics.  Times are in reference
seconds: each process also times a fixed calibration kernel while it
measures, and its times are scaled by the kernel's reference time over
its measured time (``calib.py``); the raw times are printed as well.

* ``setup_s``: median over five fresh processes of the time from spawn to
  the first timed query (import, system objects, one warm-up query per
  object).  On cli-batch: the time from spawn to the end of a bare
  ``import ergolab.cli`` in a new interpreter.
* ``run_s``: median over rounds of the summed query latencies of a round,
  the time to answer the whole stream.
* ``query_p50_ms`` and ``query_tail_ms``: the median latency and the
  highest percentile with at least ten samples beyond it, over every
  query of every round (the percentile and sample count are printed).
* ``peak_rss_mib``: the largest peak RSS of a round's process (which
  includes the calibration kernel's few MiB); on cli-batch the largest
  ``ergolab.cli`` process.

``failed`` counts queries that raised, exited nonzero, printed invalid
JSON or failed an output check; ``correct`` is false when any delivered
report failed a value check.

``--trace 1`` alternates untraced and traced rounds (two each) and prints
the per-layer metrics from the traced rounds (raw seconds): calls, self
time and share of run time per layer and per listed function, the lazy
table build, the CLI process breakdown and the tracing overhead.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import collections
import compileall
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import workloads
from spans import per_layer_metrics

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
MIN_ROUNDS = 3
MAX_ROUNDS = 50
SETUP_SAMPLES = 5
TRACE_PAIRS = 2
DEADLINE_S = 170.0  # whole run, every process included
END_TO_END = (("setup_s", "s"), ("run_s", "s"), ("query_p50_ms", "ms"), ("query_tail_ms", "ms"),
              ("peak_rss_mib", "MiB"))


class BenchError(Exception):
    pass


class Runner:
    def __init__(self, job: dict, deadline: float):
        self.job = job
        self.deadline = deadline
        self.env = dict(os.environ, PYTHONPATH=str(SRC))

    def _remaining(self) -> float:
        left = self.deadline - time.monotonic()
        if left <= 0:
            raise BenchError("time budget exhausted")
        return left

    def worker(self, mode: str, trace: bool, spans_out: str | None = None) -> tuple[dict, float, float]:
        """Run one worker process; returns (result, spawn time, exit time)."""
        job = dict(self.job, mode=mode, trace=trace, spans_out=spans_out)
        t0 = time.monotonic()
        proc = subprocess.Popen([sys.executable, str(BENCH_DIR / "worker.py")], stdin=subprocess.PIPE,
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                                cwd=str(ROOT), env=self.env, start_new_session=True)
        try:
            out, err = proc.communicate(json.dumps(job), timeout=self._remaining())
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)  # the worker and any CLI child it started
            proc.communicate()
            raise BenchError("worker exceeded the time budget") from None
        t1 = time.monotonic()
        if proc.returncode != 0:
            raise BenchError(f"worker failed ({proc.returncode}):\n{err.strip()}")
        return json.loads(out.strip().splitlines()[-1]), t0, t1

    def import_probe(self) -> tuple[float, float]:
        """(seconds from spawn to the end of a bare ``import ergolab.cli``, calibration factor)."""
        t0 = time.monotonic()
        proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(BENCH_DIR)], cwd=str(ROOT), env=self.env,
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                              timeout=self._remaining())
        if proc.returncode != 0:
            raise BenchError(f"import ergolab.cli failed:\n{proc.stderr.strip()}")
        t_imported, factor = json.loads(proc.stdout)
        return t_imported - t0, factor


# a new interpreter: time the import, then calibrate (untimed)
IMPORT_PROBE = """\
import time, ergolab.cli
t = time.monotonic()
import json, sys
sys.path.insert(0, sys.argv[1])
from calib import Calibration
cal = Calibration()
cal.sample(5)
print(json.dumps([t, cal.factor()]))
"""


def tail(latencies: list[float], per_round: int) -> tuple[float, float]:
    """(value, percentile) at the highest percentile that has at least ten
    samples beyond it in MIN_ROUNDS rounds, read off the pooled latencies
    (nearest rank).  Fixing the percentile per stream keeps it independent
    of how many rounds fitted in the run."""
    xs = sorted(latencies)
    n_min = MIN_ROUNDS * per_round
    pct = 100.0 * max(n_min - 10, 1) / n_min
    rank = max(1, math.ceil(pct / 100.0 * len(xs)))
    return xs[rank - 1], pct


def scaled(r: dict) -> list[float]:
    """A round's latencies in reference seconds (see calib.py)."""
    return [x * r["factor"] for x in r["latencies"]]


def end_to_end(runner: Runner, seconds: float) -> tuple[dict, list[dict], list[str]]:
    rounds, setups = [], []
    started = time.monotonic()
    while True:
        result, t0, t1 = runner.worker("run", trace=False)
        result["wall_s"] = t1 - t0
        rounds.append(result)
        if runner.job["workload"] != "cli-batch":
            setups.append(((result["t_ready"] - t0) * result["factor"], result["t_ready"] - t0))
        elapsed = time.monotonic() - started
        typical = statistics.median(r["wall_s"] for r in rounds)
        if len(rounds) >= MAX_ROUNDS or (len(rounds) >= MIN_ROUNDS and elapsed + typical > seconds):
            break
    while len(setups) < SETUP_SAMPLES:
        if runner.job["workload"] == "cli-batch":
            raw, factor = runner.import_probe()
        else:
            result, t0, _ = runner.worker("setup", trace=False)
            raw, factor = result["t_ready"] - t0, result["factor"]
        setups.append((raw * factor, raw))
    latencies = [x for r in rounds for x in scaled(r)]
    per_round = len(rounds[0]["latencies"])
    tail_value, tail_pct = tail(latencies, per_round)
    metrics = {
        "setup_s": statistics.median(s for s, _ in setups),
        "run_s": statistics.median(sum(scaled(r)) for r in rounds),
        "query_p50_ms": 1e3 * statistics.median(latencies),
        "query_tail_ms": 1e3 * tail_value,
        "peak_rss_mib": max(r["rss_kib"] for r in rounds) / 1024,
    }
    notes = [
        f"rounds {len(rounds)}, {len(latencies)} queries ({per_round} per round)",
        f"times in reference seconds: calibration factor median "
        f"{statistics.median(r['factor'] for r in rounds):.4f} (raw = reported / factor)",
        f"raw setup_s {statistics.median(raw for _, raw in setups):.6g} s, raw run_s "
        f"{statistics.median(sum(r['latencies']) for r in rounds):.6g} s",
        f"setup_s        median of {len(setups)} fresh processes",
        f"query_tail_ms  p{tail_pct:.2f} of {len(latencies)} queries",
    ]
    return metrics, rounds, notes


def traced(runner: Runner, spans_dir: str | None) -> tuple[dict, list[dict], list[str]]:
    plain, marked = [], []
    for i in range(TRACE_PAIRS):
        plain.append(runner.worker("run", trace=False)[0])
        spans_out = os.path.join(spans_dir, f"spans-{runner.job['workload']}-{i}.json") if spans_dir else None
        marked.append(runner.worker("run", trace=True, spans_out=spans_out)[0])
    run_plain = statistics.median(sum(scaled(r)) for r in plain)
    run_traced = statistics.median(sum(scaled(r)) for r in marked)
    raw_traced = statistics.median(sum(r["latencies"]) for r in marked)
    metrics = per_layer_metrics([r["trace"] for r in marked], raw_traced, run_traced / run_plain - 1.0)
    notes = [f"{TRACE_PAIRS} untraced + {TRACE_PAIRS} traced rounds; run_s {run_plain:.4f} untraced, "
             f"{run_traced:.4f} traced (reference seconds); layer times are raw seconds"]
    return metrics, plain + marked, notes


def summarize_failures(rounds: list[dict]) -> list[str]:
    counts = collections.Counter()
    example = {}
    for r in rounds:
        for f in r["failures"]:
            key = (f["category"], f["kind"])
            counts[key] += 1
            example.setdefault(key, f["message"])
    return [f"failed: {n} x {kind} [{cat}]: {example[(cat, kind)]}" for (cat, kind), n in counts.most_common()]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", type=float, default=1.0, help="stream size factor (self-tests use < 1)")
    ap.add_argument("--spans-out", help="directory for the raw spans of traced rounds")
    args = ap.parse_args(argv)

    deadline = time.monotonic() + DEADLINE_S
    if not (SRC / "ergolab" / "__init__.py").is_file():
        print(f"no program source at {SRC / 'ergolab'}: run from a full checkout", file=sys.stderr)
        return 2
    compileall.compile_dir(str(SRC), quiet=1)
    job = workloads.generate(args.workload, args.seed, args.scale)
    tmp_root = ROOT / ".bench_tmp"
    tmp_root.mkdir(exist_ok=True)
    tmp = tempfile.mkdtemp(dir=tmp_root)
    job.update(src=str(SRC), root=str(ROOT), tmp=tmp)
    runner = Runner(job, deadline)
    try:
        if args.trace:
            values, rounds, notes = traced(runner, args.spans_out)
        else:
            raw, rounds, notes = end_to_end(runner, args.seconds)
            values = {name: (raw[name], unit) for name, unit in END_TO_END}
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            tmp_root.rmdir()
        except OSError:
            pass
    attempted = sum(r["attempted"] for r in rounds)
    failures = [f for r in rounds for f in r["failures"]]
    failed = len({(i, f["qid"]) for i, r in enumerate(rounds) for f in r["failures"]})
    wrong = sum(f["category"] == "wrong" for f in failures)

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    for line in notes:
        print("  " + line)
    for name, (value, unit) in values.items():
        print(f"  {name:<44} {value:>14.6g} {unit}")
    print(f"  {'failed_frac':<44} {failed / attempted:>14.6g} ratio  ({failed} of {attempted} attempted)")
    for line in summarize_failures(rounds):
        print("  " + line)
    result = {
        "correct": wrong == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in values.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
