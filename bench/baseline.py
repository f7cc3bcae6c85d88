"""Measure the benchmark on several seeds and record the result.

    python3 bench/baseline.py --seeds 1-10 --out bench/baseline.json

For every workload: one untraced run per seed (median and quartiles of
each end-to-end metric, and the spread (q3 - q1) / median that
BENCHMARK.json's bounds are judged against), then one traced run on the
first seed (the per-layer table).  The file also records the machine and
program it was measured on, and which end-to-end metric each layer metric
is expected to move on which workload.
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

import numpy

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent

# layer metric -> end-to-end metrics it should move, where; "unchanged" names
# workloads on which a change to that layer is predicted to move nothing
EXPECTED = [
    {"layer_metric": "skew.*.self_s", "moves": ["run_s", "query_p50_ms"], "on": ["skew-spectrum"],
     "unchanged": ["rankone-scan"]},
    {"layer_metric": "skew.first_query_s", "moves": ["setup_s", "peak_rss_mib"], "on": ["skew-spectrum"]},
    {"layer_metric": "skew.first_query_s", "moves": ["run_s"], "on": ["cold-mix"]},
    {"layer_metric": "rankone.*.self_s", "moves": ["run_s", "query_tail_ms"], "on": ["rankone-scan"],
     "note": "the rigidity scans form the tail"},
    {"layer_metric": "rankone.*.self_s", "moves": ["run_s"], "on": ["cold-mix"],
     "note": "under engine-cache churn"},
    {"layer_metric": "substitution.*.self_s", "moves": ["run_s", "query_p50_ms"], "on": ["cold-mix"],
     "unchanged": ["skew-spectrum", "rankone-scan", "cli-batch"]},
    {"layer_metric": "cli.startup_s, cli.emit_s", "moves": ["query_p50_ms", "setup_s"], "on": ["cli-batch"],
     "unchanged": ["skew-spectrum", "rankone-scan", "cold-mix"]},
    {"layer_metric": "spectral.*", "moves": [], "on": ["skew-spectrum", "rankone-scan"],
     "note": "a small share of run_s"},
]


def seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run([sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload, "--seed",
                           str(seed), "--seconds", str(seconds), "--trace", str(trace)],
                          cwd=ROOT, capture_output=True, text=True, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def git_sha() -> str | None:
    try:
        return subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
                              check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return None


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    ap.add_argument("--out", required=True)
    args = ap.parse_args()
    seed_list = seeds(args.seeds)
    seconds = spec["run_seconds"]
    out = {
        "provenance": {
            "git_sha": git_sha(), "nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "machine": platform.machine(), "seeds": seed_list,
            "run_seconds": seconds, "date": datetime.date.today().isoformat(),
        },
        "expected_interactions": EXPECTED,
        "end_to_end": {},
        "per_layer": {},
    }
    for workload in (w["name"] for w in spec["workloads"]):
        results = [run(workload, s, seconds, 0) for s in seed_list]
        table = {}
        for m in spec["end_to_end"]:
            values = [r["metrics"][m["name"]]["value"] for r in results]
            q1, med, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
            table[m["name"]] = {"median": statistics.median(values), "q1": q1, "q3": q3,
                                "spread": (q3 - q1) / statistics.median(values), "unit": m["unit"],
                                "bound": m["bound"], "values": values}
        table["attempted"] = [r["attempted"] for r in results]
        table["failed"] = [r["failed"] for r in results]
        table["correct"] = all(r["correct"] for r in results)
        out["end_to_end"][workload] = table
        traced = run(workload, seed_list[0], seconds, 1)
        out["per_layer"][workload] = {k: v["value"] for k, v in traced["metrics"].items()}
        print(f"{workload}: " + ", ".join(f"{k} {v['median']:.4g} (spread {v['spread']:.3f})"
                                          for k, v in table.items() if isinstance(v, dict)), flush=True)
    Path(args.out).write_text(json.dumps(out, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
