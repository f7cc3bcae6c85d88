"""Self-tests of the benchmark (not part of the program's test suite).

    python3 bench/selftest.py            # from the checkout root, ~1 minute

* generation is deterministic for a seed and differs across seeds;
* a tiny-size run of each workload completes, untraced and traced, and
  prints every metric BENCHMARK.json names, with its unit;
* the output checks catch deliberately perturbed values (perturbed by
  wrapping program functions here, never by editing the program);
* in a directory holding only BENCHMARK.json and the benchmark, the
  benchmark exits nonzero without printing a result.
"""

from __future__ import annotations

import contextlib
import json
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path[:0] = [str(BENCH_DIR), str(ROOT / "src")]

import checks  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@contextlib.contextmanager
def scratch_dir():
    """A temporary directory inside the checkout's ignored .bench_tmp/."""
    parent = ROOT / ".bench_tmp"
    parent.mkdir(exist_ok=True)
    try:
        with tempfile.TemporaryDirectory(dir=parent) as tmp:
            yield Path(tmp)
    finally:
        with contextlib.suppress(OSError):
            parent.rmdir()


def run_bench(workload: str, trace: int, cwd: Path = ROOT, script: Path = BENCH_DIR / "run.py", extra=()):
    return subprocess.run([sys.executable, str(script), "--workload", workload, "--seed", "7",
                           "--seconds", "0", "--trace", str(trace), "--scale", "0.05", *extra],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


class Generation(unittest.TestCase):
    def test_deterministic_per_seed(self):
        for w in workloads.WORKLOADS:
            a = json.dumps(workloads.generate(w, 3))
            self.assertEqual(a, json.dumps(workloads.generate(w, 3)), w)
            self.assertNotEqual(a, json.dumps(workloads.generate(w, 4)), w)

    def test_workloads_match_spec(self):
        self.assertEqual([w["name"] for w in SPEC["workloads"]], list(workloads.WORKLOADS))


class SmokeRuns(unittest.TestCase):
    def _check(self, workload: str, trace: int, declared: list[dict], extra=()):
        proc = run_bench(workload, trace, extra=extra)
        self.assertEqual(proc.returncode, 0, proc.stderr)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"], proc.stdout)
        self.assertGreaterEqual(result["attempted"], 1)
        metrics = result["metrics"]
        self.assertEqual(set(metrics), {m["name"] for m in declared})
        for m in declared:
            self.assertEqual(metrics[m["name"]]["unit"], m["unit"], m["name"])
            self.assertIsInstance(metrics[m["name"]]["value"], (int, float))
            self.assertIn(m["name"], proc.stdout.rsplit("\n", 2)[0])  # also in the readable lines

    def test_end_to_end(self):
        for w in workloads.WORKLOADS:
            with self.subTest(workload=w):
                self._check(w, 0, SPEC["end_to_end"])

    def test_traced(self):
        with scratch_dir() as spans_dir:
            for w in workloads.WORKLOADS:
                with self.subTest(workload=w):
                    self._check(w, 1, SPEC["per_layer"], extra=("--spans-out", str(spans_dir)))
                    spans = json.loads((spans_dir / f"spans-{w}-0.json").read_text())
                    self.assertTrue(spans)
                    for layer, name, start, end, parent, qid in spans:
                        self.assertIn(layer, ("cli", "substitution", "rankone", "skew", "spectral"))
                        self.assertLessEqual(start, end)
                        self.assertLess(parent, len(spans))


class ChecksCatchPerturbation(unittest.TestCase):
    """Wrap a program function so it returns a wrong value; the check must fail."""

    def perturbed(self, module, name, fn):
        original = getattr(module, name)
        setattr(module, name, lambda *a, **k: fn(original(*a, **k)))
        self.addCleanup(setattr, module, name, original)

    def test_skew_spectrum(self):
        import dataclasses

        from ergolab import cli, skew

        s = skew.SkewSystem(12, 8)
        q = {"g": "first-digit", "fiber": "one", "window": 4}
        checks.skew_spectrum(q, cli.report_skew_spectrum(s, "first-digit", "one", 4))
        self.perturbed(skew, "spectral_coefficient", lambda c: dataclasses.replace(c, value=c.value + 1e-3))
        with self.assertRaises(checks.WrongValue):
            checks.skew_spectrum(q, cli.report_skew_spectrum(s, "first-digit", "one", 4))

    def test_rankone_brute_force(self):
        from ergolab import cli, rankone

        spec = rankone.RankOneSpec(((3, (0, 1, 0)), (2, (1, 0)), (3, (0, 0, 2)), (2, (0, 1))))
        q = {"set_stage": 1, "N": 4, "levels": [0, 2], "shifts": [1, 5, 17]}
        A = rankone.LevelSet(1, (0, 2))
        word = rankone.build_tower(rankone.RankOneSpec(spec.stages[1:]), 3).column_word
        counts = checks.brute_pair_counts(word, rankone.heights(spec)[1], q["levels"], q["shifts"])
        width = float(rankone.level_width(spec, 4))
        checks.rankone_correlate(q, cli.report_rankone_correlate(spec, 4, A, q["shifts"]), counts, width)
        self.perturbed(rankone, "correlation_count", lambda n: n + 100)  # beyond m * width
        with self.assertRaises(checks.WrongValue):
            report = cli.report_rankone_correlate(spec, 4, A, q["shifts"])
            checks.rankone_correlate(q, report, counts, width)

    def test_substitution_marginals(self):
        import dataclasses

        import numpy as np
        from ergolab import cli, substitution

        images = [[0, 1, 2], [1, 2, 2], [2, 1, 0]]
        sub = substitution.Substitution(3, tuple(map(tuple, images)))
        q = {"system": {"alphabet": 3, "images": images}}
        prefix = np.asarray(workloads.fixed_point_prefix(images, 4096))
        checks.subst_analyze(q, cli.report_subst_analyze(sub, 1e-12, 4096), prefix)
        self.perturbed(substitution, "perron",
                       lambda d: dataclasses.replace(d, letter_freq=d.letter_freq * 1.0001))
        with self.assertRaises(checks.WrongValue):
            checks.subst_analyze(q, cli.report_subst_analyze(sub, 1e-12, 4096), prefix)

    def test_cli_report_comparison(self):
        report = {"value": 0.25, "rows": [{"n": 1, "v": 0.5}]}
        checks.same_report(report, json.loads(json.dumps(report)))
        with self.assertRaises(checks.WrongValue):
            checks.same_report(report, {"value": 0.25, "rows": [{"n": 1, "v": 0.5 + 1e-6}]})
        with self.assertRaises(ValueError):
            checks.strict_json('{"final_partial_sum": -Infinity}')


class BareDirectory(unittest.TestCase):
    def test_fails_without_program(self):
        with scratch_dir() as bare:
            shutil.copy(ROOT / "BENCHMARK.json", bare)
            for path in SPEC["paths"]:
                shutil.copytree(ROOT / path, bare / path, ignore=shutil.ignore_patterns("__pycache__"))
            proc = run_bench("cold-mix", 0, cwd=bare, script=bare / "bench" / "run.py")
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"metrics"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
