import json
import math
import os
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import ergolab
from ergolab import cli, rankone, skew, spectral, substitution
from ergolab.cli import (
    main,
    report_rankone_correlate,
    report_skew_rigidity,
    report_skew_spectrum,
    report_subst_analyze,
)
from ergolab.skew import DyadicInterval, DyadicStep, SkewSystem
from ergolab.substitution import RUDIN_SHAPIRO, THREE_LETTER, Substitution, empirical_correlation

README = Path(__file__).resolve().parents[1] / "README.md"


def run_cli(args, capsys):
    code = main(args)
    out = capsys.readouterr().out
    return code, out


def strict_loads(text):
    """json.loads that rejects NaN and +-Infinity, which are not JSON."""

    def reject(name):
        raise ValueError(f"non-finite JSON constant {name}")

    return json.loads(text, parse_constant=reject)


def test_heights_report(capsys):
    code, out = run_cli(["rankone", "heights", "--system", "chacon", "--stages", "5"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["report"]["heights"] == [1, 4, 13, 40, 121, 364]
    assert payload["config"]["system"] == "chacon"


def test_reports_are_deterministic(capsys):
    args = ["subst", "analyze", "--system", "rudin-shapiro"]
    _, first = run_cli(args, capsys)
    _, second = run_cli(args, capsys)
    assert first == second


def test_subst_analyze_rudin_shapiro(capsys):
    code, out = run_cli(
        ["subst", "analyze", "--system", "rudin-shapiro", "--prefix-len", "4096"], capsys
    )
    assert code == 0
    report = json.loads(out)["report"]
    assert report["primitive"] is True
    assert report["theta"] == 2.0
    assert all(abs(f - 0.25) < 1e-10 for f in report["letter_frequencies"])
    assert "empirical_check" in report


def test_subst_analyze_three_letter_reference_comparison(capsys):
    code, out = run_cli(["subst", "analyze", "--system", "three-letter"], capsys)
    report = json.loads(out)["report"]
    comp = report["reference_comparison"]
    assert comp["discrepancy_flagged"] is True
    assert comp["reference_alpha"] == pytest.approx(3.104979673e-8)
    assert comp["computed_alpha"] == report["rigidity_constant"]["alpha"]


def test_subst_analyze_empirical_check_matches_empirical_correlation():
    for sub in (RUDIN_SHAPIRO, THREE_LETTER):
        report = report_subst_analyze(sub, 1e-12, 3000)
        rows = report["empirical_check"]["blocks"]
        assert list(rows) == report["block_alphabet"]
        for name, row in rows.items():
            block = tuple(int(c) for c in name)
            assert row["empirical"] == empirical_correlation(sub, block, 0, 3000)


def test_subst_analyze_keys_on_twelve_letters_are_distinct():
    # digit strings collide above 10 letters ((1, 10) and (11, 0) both read
    # "110"), so words print as space-separated indices there
    sub = Substitution(12, tuple((i, (i + 1) % 12, (i + 11) % 12) for i in range(12)))
    report = report_subst_analyze(sub, 1e-12, 1000)
    blocks = report["block_alphabet"]
    assert len(blocks) == len(set(blocks)) == len(report["block_frequencies"]) == 144
    assert list(report["empirical_check"]["blocks"]) == blocks
    assert "1 10" in blocks and "11 0" in blocks
    lines = [f"{i} -> {w}" for i, w in enumerate(report["system"]["images"])]
    assert Substitution.from_lines(lines).images == sub.images
    assert sum(report["block_frequencies"].values()) == pytest.approx(1.0)


@pytest.mark.parametrize("system", ["rudin-shapiro", "three-letter"])
@pytest.mark.parametrize("prefix_len", ["1", "2"])
def test_subst_analyze_prefix_without_a_counted_block_is_pinned_error(system, prefix_len, capsys):
    # a 2-block at shift 0 is counted at positions 0..n-3, none when n <= 2
    code, out = run_cli(["subst", "analyze", "--system", system, "--prefix-len", prefix_len], capsys)
    assert code == 1
    assert out == ('{"error": {"message": "need prefix_len > shift + block length = 2", '
                   '"type": "PrefixTooShort"}}\n')


def test_subst_analyze_non_primitive_report_is_pinned(tmp_path, capsys):
    path = tmp_path / "np.txt"
    path.write_text("0 -> 01\n1 -> 1\n")
    code, out = run_cli(["subst", "analyze", "--system", str(path), "--prefix-len", "100"], capsys)
    assert code == 0
    config = (f'  "config": {{\n    "command": "analyze",\n    "group": "subst",\n    "prefix_len": 100,\n'
              f'    "system": "{path}",\n    "tol": 1e-12\n  }},\n')
    report = ('  "report": {\n    "composition_matrix": [\n      [\n        1,\n        0\n      ],\n'
              '      [\n        1,\n        1\n      ]\n    ],\n    "primitive": false,\n'
              '    "system": {\n      "alphabet_size": 2,\n      "images": [\n        "01",\n        "1"\n'
              '      ],\n      "name": "np"\n    }\n  }\n')
    assert out == "{\n" + config + report + "}\n"


def test_subst_analyze_needs_a_fixed_point_only_for_the_prefix(tmp_path, capsys):
    path = tmp_path / "golden.txt"
    path.write_text("0 -> 10\n1 -> 0\n")
    code, out = run_cli(["subst", "analyze", "--system", str(path)], capsys)
    assert code == 0
    phi = (1 + 5**0.5) / 2
    freqs = json.loads(out)["report"]["block_frequencies"]
    assert list(freqs) == ["00", "01", "10"]
    assert list(freqs.values()) == pytest.approx([phi**-3, phi**-2, phi**-2], abs=1e-12)
    code, out = run_cli(["subst", "analyze", "--system", str(path), "--prefix-len", "64"], capsys)
    assert code == 1 and json.loads(out)["error"]["type"] == "NotFixedPointCapable"


def test_subst_correlate_reads_a_one_letter_block_above_nine(tmp_path, capsys):
    lines = [f"{i} -> {i} {(i + 1) % 12} {(i + 11) % 12}" for i in range(12)]
    lines[9] = "9 -> 10"
    path = tmp_path / "twelve.txt"
    path.write_text("\n".join(lines) + "\n")
    code, out = run_cli(["subst", "correlate", "--system", str(path), "--block", "10", "--shift", "3",
                         "--prefix-len", "2000"], capsys)
    assert code == 0
    report = json.loads(out)["report"]
    sub = Substitution.from_lines(lines)
    assert report["block"] == "10"
    assert report["correlation"] == empirical_correlation(sub, (10,), 3, 2000) > 0


def test_subst_file_input(tmp_path, capsys):
    path = tmp_path / "fib.txt"
    path.write_text("0 -> 01\n1 -> 0\n")
    code, out = run_cli(["subst", "analyze", "--system", str(path)], capsys)
    assert code == 0
    assert abs(json.loads(out)["report"]["theta"] - 1.61803398875) < 1e-8


def test_rankone_file_input(tmp_path, capsys):
    path = tmp_path / "custom.txt"
    path.write_text("3: 0 1 0\n3: 0 1 0\n")
    code, out = run_cli(["rankone", "heights", "--system", str(path), "--stages", "2"], capsys)
    assert code == 0
    assert json.loads(out)["report"]["heights"] == [1, 4, 13]


@pytest.mark.parametrize("stages, used", [("10", 3), ("2", 2)])
def test_rankone_stages_cut_a_schedule_file(stages, used, tmp_path, capsys):
    # --stages keeps the first stages of a file, as it builds that many of a preset
    path = tmp_path / "three.txt"
    path.write_text("3: 0 1 0\n2: 0 1\n3: 1 0 2\n")
    code, out = run_cli(["rankone", "heights", "--system", str(path), "--stages", stages], capsys)
    report = json.loads(out)["report"]
    assert code == 0 and report["stages"] == used and report["heights"] == [1, 4, 9, 30][: used + 1]
    code, out = run_cli(["rankone", "correlate", "--system", str(path), "--stages", stages,
                         "--set-stage", "1", "--levels", "0", "--shifts", "1"], capsys)
    assert code == 0 and json.loads(out)["report"]["tower_stage"] == used


def test_subst_correlate_command(capsys):
    code, out = run_cli(
        ["subst", "correlate", "--system", "rudin-shapiro", "--block", "02",
         "--shift", "0", "--prefix-len", "4096"],
        capsys,
    )
    assert code == 0
    assert json.loads(out)["report"]["correlation"] == pytest.approx(0.125, abs=5e-3)


def test_subst_correlate_prefix_len_is_capped(capsys):
    code, out = run_cli(
        ["subst", "correlate", "--system", "rudin-shapiro", "--block", "02",
         "--shift", "1", "--prefix-len", str(2**16 + 1)],
        capsys,
    )
    assert code == 1
    error = json.loads(out)["error"]
    assert error["type"] == "ParseError"
    assert error["message"] == "prefix length capped at 65536"


@pytest.mark.parametrize("command, least", [("analyze", 0), ("correlate", 1)])
@pytest.mark.parametrize("offset", [1, 5])
def test_subst_prefix_len_below_range_is_parse_error(command, least, offset, capsys):
    bad = least - offset
    block = ["--block", "02", "--shift", "1"] if command == "correlate" else []
    code, out = run_cli(["subst", command, "--system", "rudin-shapiro", *block, f"--prefix-len={bad}"], capsys)
    assert code == 1
    assert json.loads(out)["error"] == {"type": "ParseError", "message": f"--prefix-len must be >= {least}, got {bad}"}


def test_rankone_correlate_command(capsys):
    code, out = run_cli(
        ["rankone", "correlate", "--system", "chacon", "--stages", "10",
         "--set-stage", "4", "--levels", "all", "--shifts", "0,121"],
        capsys,
    )
    assert code == 0
    rows = json.loads(out)["report"]["correlations"]
    assert rows[0]["exact"] and rows[0]["ratio"] == pytest.approx(1.0)
    assert rows[1]["ratio"] > 1 / 3
    spec = rankone.chacon_spec(10)
    A = rankone.LevelSet(4, tuple(range(rankone.heights(spec)[4])))
    bv = rankone.level_correlation(spec, 10, A, 121)
    assert (rows[1]["value"], rows[1]["error_bound"], rows[1]["exact"]) == (bv.value, bv.error_bound, False)


def test_rankone_correlate_report_counts_through_correlation_count(monkeypatch):
    # the benchmark self-test proves its rank-one value check by perturbing
    # rankone.correlation_count, so the report must count every shift through it
    spec = rankone.chacon_spec(6)
    A = rankone.LevelSet(2, (0, 5))
    shifts = [0, 1, 13, 40]
    before = report_rankone_correlate(spec, 6, A, shifts)["correlations"]
    original = rankone.correlation_count
    monkeypatch.setattr(rankone, "correlation_count", lambda *args: original(*args) + 1)
    after = report_rankone_correlate(spec, 6, A, shifts)["correlations"]
    w = float(rankone.level_width(spec, 6))
    # m = 0 too: there the sweep counts |A| p_k ... p_{N-1}, the exact set measure
    assert [r["value"] for r in after] == pytest.approx([r["value"] + w for r in before], rel=1e-12)


def test_rankone_rigidity_command(capsys):
    code, out = run_cli(
        ["rankone", "rigidity", "--system", "chacon", "--stages", "13",
         "--set-stage", "4", "--shift-stages", "6:8"],
        capsys,
    )
    assert code == 0
    report = json.loads(out)["report"]
    assert report["certified_lower_bound"] >= 0.31
    assert report["set_count"] == 121


@pytest.mark.parametrize(
    "args",
    [
        ["correlate", "--system", "chacon", "--stages", "5", "--set-stage", "9", "--shifts", "1"],
        ["weaklimit", "--system", "historical", "--stages", "24", "--set-stage", "40"],
        ["rigidity", "--system", "chacon", "--stages", "5", "--set-stage", "6"],
    ],
    ids=["correlate", "weaklimit", "rigidity"],
)
def test_rankone_set_stage_beyond_schedule_is_named_error(args, capsys):
    code, out = run_cli(["rankone", *args], capsys)
    assert code == 1
    assert json.loads(out)["error"]["type"] == "StageOutOfRange"


@pytest.mark.parametrize("stages", ["20:25", "6:40", "8:6", "-1:3", "6:17"])
def test_rankone_rigidity_shift_stages_beyond_schedule_is_parse_error(stages, capsys):
    code, out = run_cli(
        ["rankone", "rigidity", "--system", "chacon", "--stages", "17", f"--shift-stages={stages}"],
        capsys,
    )
    assert code == 1
    error = json.loads(out)["error"]
    assert error["type"] == "ParseError"
    assert stages in error["message"]


@pytest.mark.parametrize(
    "args, flag, bad",
    [
        (["rankone", "rigidity", "--system", "chacon", "--stages", "17", "--shift-stages", "6-10"],
         "--shift-stages", "6-10"),
        (["rankone", "correlate", "--system", "chacon", "--stages", "10", "--levels", "1,x", "--shifts", "1"],
         "--levels", "1,x"),
        (["rankone", "heights", "--system", "staircase:x"], "--system", "x"),
        (["rankone", "correlate", "--system", "chacon", "--stages", "10", "--shifts", "1,y"], "--shifts", "1,y"),
        (["subst", "correlate", "--system", "rudin-shapiro", "--block", "0x", "--shift", "1"], "--block", "0x"),
        (["subst", "correlate", "--system", "rudin-shapiro", "--block", "", "--shift", "1"], "--block", ""),
        (["subst", "correlate", "--system", "rudin-shapiro", "--block", "0,,2", "--shift", "1"], "--block", "0,,2"),
        (["skew", "rigidity", "--k-range", "10-14"], "--k-range", "10-14"),
        (["rankone", "weaklimit", "--system", "historical", "--stage-range", "8:x"], "--stage-range", "8:x"),
        (["spectral", "translate", "--input", "@series.csv", "--times", "16,z"], "--times", "16,z"),
    ],
    ids=["shift-stages", "levels", "staircase", "correlate-shifts", "block", "empty-block", "block-commas",
         "k-range", "stage-range", "times"],
)
def test_malformed_integer_argument_is_parse_error(args, flag, bad, tmp_path, capsys):
    _write_series(tmp_path / "series.csv", range(-64, 65))
    argv = [str(tmp_path / a[1:]) if a.startswith("@") else a for a in args]
    code, out = run_cli(argv, capsys)
    assert code == 1
    error = json.loads(out)["error"]
    assert error["type"] == "ParseError"
    assert flag in error["message"] and repr(bad) in error["message"]


@pytest.mark.parametrize("k_range", ["9:6", "14:10", "-1:3"])
def test_skew_rigidity_empty_k_range_is_parse_error(k_range, capsys):
    code, out = run_cli(["skew", "rigidity", f"--k-range={k_range}"], capsys)
    assert code == 1
    error = json.loads(out)["error"]
    assert error["type"] == "ParseError"
    assert "--k-range" in error["message"] and k_range in error["message"]


@pytest.mark.parametrize("k", [14000, 20000])
def test_skew_rigidity_beyond_the_window_names_k(k, capsys):
    # 2^k was built before the window check: 4,244 characters of message at
    # k = 14000, and a ValueError from int -> str past 4,300 digits at 20000
    code, out = run_cli(["skew", "rigidity", "--atom-level", "14", "--cutoff", "12", "--k-range", f"{k}:{k}"],
                        capsys)
    assert code == 1
    assert json.loads(out)["error"] == {"type": "IndexTooLarge",
                                        "message": f"rigidity time 2^k with k = {k} exceeds 2^(K-4) = 2^10"}


@pytest.mark.parametrize("window", ["-1", "65537"])
def test_skew_spectrum_window_outside_range_is_parse_error(window, capsys):
    code, out = run_cli(["skew", "spectrum", "--atom-level", "12", "--cutoff", "8", f"--window={window}"], capsys)
    assert code == 1
    error = json.loads(out)["error"]
    assert error == {"type": "ParseError", "message": f"--window {window} outside 0..65536"}


def readme_command_lines() -> list[list[str]]:
    """The arguments of the README's `ergolab ...` command lines, in order."""
    block = README.read_text().split("## Command line", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    return [shlex.split(line)[1:] for line in block.replace("\\\n", " ").splitlines()
            if line.startswith("ergolab ")]


def test_readme_command_lines_run(tmp_path, monkeypatch, capsys):
    # the README examples, in order: `skew spectrum` writes the chi.csv the spectral lines read
    monkeypatch.chdir(tmp_path)
    (tmp_path / "coeffs.json").write_text(README.read_text().split("```json\n", 1)[1].split("```", 1)[0])
    lines = readme_command_lines()
    assert lines
    for argv in lines:
        code, out = run_cli(argv, capsys)
        assert code == 0, (argv, out)
        strict_loads(out)


def test_skew_rigidity_command(capsys):
    code, out = run_cli(
        ["skew", "rigidity", "--interval", "0/2^0", "--eps", "0", "--k-range", "8:10",
         "--atom-level", "16", "--cutoff", "14"],
        capsys,
    )
    assert code == 0
    vals = json.loads(out)["report"]["values"]
    assert all(abs(v["value"] - 0.25) < 0.01 for v in vals)


def test_rankone_weaklimit_command(capsys):
    code, out = run_cli(
        ["rankone", "weaklimit", "--system", "historical", "--stages", "20",
         "--stage-range", "6:8", "--j-max", "2"],
        capsys,
    )
    assert code == 0
    coeffs = json.loads(out)["report"]["coefficients"]
    assert coeffs[0]["value"] == pytest.approx(0.5, abs=1e-6)


def test_skew_correlate_command(capsys):
    code, out = run_cli(
        ["skew", "correlate", "--interval", "0/2^0", "--shift", "1024",
         "--atom-level", "16", "--cutoff", "12"],
        capsys,
    )
    assert code == 0
    report = json.loads(out)["report"]
    assert report["value"] == pytest.approx(0.25, abs=1e-3)


def test_skew_spectrum_csv(tmp_path, capsys):
    csv_path = tmp_path / "series.csv"
    code, out = run_cli(
        ["skew", "spectrum", "--function", "first-digit:one", "--window", "64",
         "--atom-level", "14", "--cutoff", "10", "--csv", str(csv_path)],
        capsys,
    )
    assert code == 0
    report = json.loads(out)["report"]
    assert report["wiener_discrete_mass"] == pytest.approx(1.0)
    lines = csv_path.read_text().strip().splitlines()
    assert lines[0] == "n,value,error_bound"
    assert len(lines) == 2 * 64 + 2


def test_skew_spectrum_failed_csv_write_emits_only_its_error(tmp_path, capsys):
    # the CSV is written before the report, so a run still emits one JSON document
    report_path = tmp_path / "r.json"
    code, out = run_cli(
        ["skew", "spectrum", "--atom-level", "12", "--cutoff", "8", "--window", "2",
         "--csv", str(tmp_path / "missing" / "x.csv"), "--out", str(report_path)],
        capsys,
    )
    assert code == 1
    assert len(out.splitlines()) == 1
    assert strict_loads(out)["error"]["type"] == "FileNotFoundError"
    assert not report_path.exists()


def test_spectral_pipeline_roundtrip(tmp_path, capsys):
    # skew spectrum -> CSV -> spectral wiener/rajchman/translate
    csv_path = tmp_path / "chi.csv"
    code, _ = run_cli(
        ["skew", "spectrum", "--function", "one:chi", "--window", "256",
         "--atom-level", "16", "--cutoff", "12", "--csv", str(csv_path)],
        capsys,
    )
    assert code == 0
    code, out = run_cli(["spectral", "wiener", "--input", str(csv_path)], capsys)
    assert code == 0
    assert json.loads(out)["report"]["wiener_discrete_mass"] <= 0.02
    code, out = run_cli(["spectral", "rajchman", "--input", str(csv_path)], capsys)
    assert code == 0
    code, out = run_cli(
        ["spectral", "translate", "--input", str(csv_path), "--times", "16,32,64,128",
         "--j-window", "2"],
        capsys,
    )
    assert code == 0
    assert len(json.loads(out)["report"]["estimates"]) == 5


def test_spectral_beurling_and_certify(tmp_path, capsys):
    coeffs = tmp_path / "coeffs.json"
    coeffs.write_text(json.dumps({
        "support": {"0": 0.3333, "1": 0.3333, "2": 0.3333},
        "tail": {"kind": "none"},
    }))
    code, out = run_cli(["spectral", "beurling", "--coeffs", str(coeffs)], capsys)
    assert code == 0
    report = strict_loads(out)["report"]
    assert report["verdict"] == "holds"
    assert report["final_partial_sum"] == "-inf"
    code, out = run_cli(["spectral", "certify", "--coeffs", str(coeffs)], capsys)
    assert code == 0
    report = strict_loads(out)["report"]
    assert report["verdict"] == "singular"
    assert report["alpha_lower_bound"] == pytest.approx(0.3333)
    # voiding the weak-limit assertion voids the certificate
    code, out = run_cli(
        ["spectral", "certify", "--coeffs", str(coeffs), "--limit-is-power"], capsys
    )
    assert strict_loads(out)["report"]["verdict"] == "no certificate"


def test_spectral_beurling_small_gamma_stretched_tail_is_finite(tmp_path, capsys):
    # the stretched tail's integral once overflowed a float here (OverflowError)
    coeffs = tmp_path / "coeffs.json"
    coeffs.write_text(json.dumps({"support": {"0": 0.5},
                                  "tail": {"kind": "stretched_exponential", "c": 1, "gamma": 0.002}}))
    code, out = run_cli(["spectral", "beurling", "--n-max", "5", "--coeffs", str(coeffs)], capsys)
    assert code == 0
    report = strict_loads(out)["report"]
    assert report["verdict"] == "fails" and math.isfinite(report["final_partial_sum"])


@pytest.mark.parametrize("support, count", [({"-3": 1e-200, "0": 0.5}, 4), ({"-1": 1e200, "0": 0.5}, 2)])
def test_spectral_beurling_support_squares_neither_underflow_nor_overflow(support, count, tmp_path, capsys):
    # a_-3^2 = 1e-400 once underflowed to 0 (count 1), and a_-1^2 = 1e400 to inf, a NaN fit and no report
    coeffs = tmp_path / "coeffs.json"
    coeffs.write_text(json.dumps({"support": support}))
    code, out = run_cli(["spectral", "beurling", "--n-max", "5", "--coeffs", str(coeffs)], capsys)
    assert code == 0
    report = strict_loads(out)["report"]
    assert report["partial_sum_count"] == count and report["final_partial_sum"] == "-inf"


@pytest.mark.parametrize("command", ["beurling", "certify"])
@pytest.mark.parametrize("n_max", [0, 65537])
def test_spectral_n_max_outside_range_is_named_error(command, n_max, tmp_path, capsys):
    coeffs = tmp_path / "coeffs.json"
    coeffs.write_text(json.dumps({"support": {"0": 0.5}, "tail": {"kind": "geometric", "c": 0.5, "q": 0.5}}))
    code, out = run_cli(["spectral", command, "--coeffs", str(coeffs), "--n-max", str(n_max)], capsys)
    assert code == 1
    assert json.loads(out)["error"] == {"type": "ValueError", "message": f"n_max must lie in 1..65536, got {n_max}"}


def test_spectral_csv_gap_is_named_error(tmp_path, capsys):
    csv_path = tmp_path / "gap.csv"
    rows = ["n,value,error_bound"]
    rows += [f"{n},{1.0 if n == 0 else 0.0},0.0" for n in range(65) if n != 7]
    csv_path.write_text("\n".join(rows) + "\n")
    code, out = run_cli(["spectral", "wiener", "--input", str(csv_path)], capsys)
    assert code == 1
    error = json.loads(out)["error"]
    assert error["type"] == "IndexGap"
    assert "7" in error["message"]
    csv_path.write_text("n,value,error_bound\n0,1.0,0.0\n1,abc,0.0\n")
    code, out = run_cli(["spectral", "wiener", "--input", str(csv_path)], capsys)
    assert code == 1
    error = json.loads(out)["error"]
    assert error["type"] == "ValueError"
    assert "line 3" in error["message"] and "1,abc,0.0" in error["message"]
    _write_series(csv_path, range(65))
    csv_path.write_text(csv_path.read_text().replace("\n5,0.5,", "\n5,nan,"))
    code, out = run_cli(["spectral", "rajchman", "--input", str(csv_path)], capsys)
    assert code == 1
    assert "line 7" in json.loads(out)["error"]["message"]
    # a header is read on line 1 only and comments are skipped; any other row must parse
    _write_series(csv_path, range(65))
    rows = csv_path.read_text().splitlines()
    csv_path.write_text("\n".join([rows[0], "# hand-edited", *rows[1:], "nonsense,1,2"]) + "\n")
    code, out = run_cli(["spectral", "wiener", "--input", str(csv_path)], capsys)
    assert code == 1
    message = json.loads(out)["error"]["message"]
    assert str(csv_path) in message and "line 68" in message and "nonsense,1,2" in message
    # a repeated index is an error, not a silent overwrite
    _write_series(csv_path, range(65))
    csv_path.write_text(csv_path.read_text().replace("\n1,0.5,0.0\n", "\n1,0.5,0.0\n1,0.25,0.0\n"))
    code, out = run_cli(["spectral", "wiener", "--input", str(csv_path)], capsys)
    assert code == 1
    message = json.loads(out)["error"]["message"]
    assert str(csv_path) in message and "line 4" in message and "1,0.25,0.0" in message


def _write_series(path, indices):
    rows = ["n,value,error_bound"] + [f"{n},{1.0 if n == 0 else 0.5},0.0" for n in indices]
    path.write_text("\n".join(rows) + "\n")


def test_spectral_wiener_window_beyond_data_is_named_error(tmp_path, capsys):
    csv_path = tmp_path / "short.csv"
    _write_series(csv_path, range(-64, 65))
    code, out = run_cli(["spectral", "wiener", "--input", str(csv_path), "--window", "100"], capsys)
    assert code == 1
    error = json.loads(out)["error"]
    assert error["type"] == "WindowTooSmall"
    assert "64" in error["message"]


def test_spectral_translate_below_data_is_named_error(tmp_path, capsys):
    csv_path = tmp_path / "one_sided.csv"
    _write_series(csv_path, range(65))
    code, out = run_cli(
        ["spectral", "translate", "--input", str(csv_path), "--times", "1,2,3", "--j-window", "3"],
        capsys,
    )
    assert code == 1
    error = json.loads(out)["error"]
    assert error["type"] == "WindowTooSmall"
    assert "-2" in error["message"]


def test_spectral_translate_negative_j_window_is_named_error(tmp_path, capsys):
    csv_path = tmp_path / "series.csv"
    _write_series(csv_path, range(-64, 65))
    code, out = run_cli(
        ["spectral", "translate", "--input", str(csv_path), "--times", "16,32,48", "--j-window", "-1"],
        capsys,
    )
    assert code == 1
    assert json.loads(out)["error"] == {"type": "ValueError", "message": "j_window must be >= 0, got -1"}


@pytest.mark.parametrize("times", ["48,16,32", "48,48,48"])
def test_spectral_translate_times_that_do_not_increase_are_named_error(times, tmp_path, capsys):
    csv_path = tmp_path / "series.csv"
    _write_series(csv_path, range(-64, 65))
    code, out = run_cli(["spectral", "translate", "--input", str(csv_path), "--times", times], capsys)
    assert code == 1
    assert json.loads(out)["error"] == {
        "type": "ValueError", "message": f"times must strictly increase, got [{times.replace(',', ', ')}]"}


@pytest.mark.parametrize("times", ["48", "16,48"])
def test_spectral_translate_fewer_than_three_times_is_named_error(times, tmp_path, capsys):
    csv_path = tmp_path / "series.csv"
    _write_series(csv_path, range(-64, 65))
    code, out = run_cli(["spectral", "translate", "--input", str(csv_path), "--times", times], capsys)
    assert code == 1
    assert json.loads(out)["error"] == {
        "type": "ValueError",
        "message": f"need at least three times to measure a spread, got {times.count(',') + 1}"}


@pytest.mark.parametrize("tol", ["nan", "inf", "-1e-12"])
def test_subst_analyze_tol_outside_domain_is_named_error(tol, capsys):
    code, out = run_cli(["subst", "analyze", "--system", "rudin-shapiro", f"--tol={tol}"], capsys)
    assert code == 1
    error = json.loads(out)["error"]
    assert error["type"] == "ValueError"
    assert error["message"].startswith("tol must be a finite number >= 0")


def test_skew_reports_label_custom_cocycle():
    sys_ = SkewSystem(10, 10, DyadicStep(1, (0, 1)))
    assert report_skew_rigidity(sys_, DyadicInterval(0, 0), 0, 2, 4)["system"] == "custom-cocycle"
    assert report_skew_spectrum(sys_, "one", "chi", 4)["system"] == "custom-cocycle"
    assert report_skew_spectrum(SkewSystem(10, 9), "one", "chi", 4)["system"] == "mathew-nadkarni"


def test_error_record_preserves_module_error(capsys):
    code, out = run_cli(
        ["skew", "correlate", "--interval", "0/2^0", "--shift", str(2**18),
         "--atom-level", "16", "--cutoff", "12"],
        capsys,
    )
    assert code == 1
    record = json.loads(out)
    assert record["error"]["type"] == "IndexTooLarge"


def test_parse_error_record(capsys):
    code, out = run_cli(["subst", "analyze", "--system", "no-such-preset"], capsys)
    assert code == 1
    assert json.loads(out)["error"]["type"] == "ParseError"


def test_out_flag_writes_file(tmp_path, capsys):
    out_path = tmp_path / "report.json"
    code, _ = run_cli(
        ["rankone", "heights", "--system", "historical", "--stages", "4",
         "--out", str(out_path)],
        capsys,
    )
    assert code == 0
    assert json.loads(out_path.read_text())["report"]["heights"] == [1, 3, 7, 15, 31]


def _child_env() -> dict:
    """Environment under which a child process imports the same ergolab as
    this process, installed or not."""
    src = str(Path(ergolab.__file__).resolve().parents[1])
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}


def test_console_script_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "ergolab.cli", "rankone", "heights",
         "--system", "chacon", "--stages", "3"],
        capture_output=True, text=True, env=_child_env(),
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["report"]["heights"] == [1, 4, 13, 40]


_LOAD_PROBE = """
import json, sys, types
WATCHED = ("ergolab.substitution", "ergolab.rankone", "ergolab.skew", "ergolab.spectral", "fractions", "numpy",
           "dataclasses", "inspect")
# a library module that has not run yet is still an instance of the lazy ModuleType subclass
loaded = lambda: [name for name in WATCHED if type(sys.modules.get(name)) is types.ModuleType]
import ergolab
# the package holds its four modules, still lazy, and none of the library names it once re-exported
assert not any(hasattr(ergolab, name) for name in ("Substitution", "perron", "chacon_spec", "SkewSystem"))
assert all(type(getattr(ergolab, name)) is not types.ModuleType for name in ("substitution", "rankone", "skew", "spectral"))
steps = [["import ergolab", 0, loaded()]]
from ergolab import cli
steps.append(["import ergolab.cli", 0, loaded()])
for step in json.loads(sys.argv[1]):
    if isinstance(step, str):  # a library call, not a command
        exec(step)
        steps.append([step, 0, loaded()])
    else:
        steps.append([" ".join(step), cli.main([*step, "--out", sys.argv[2]]), loaded()])
print(json.dumps(steps))
"""


def _probe_loads(commands, tmp_path) -> list:
    """[step, exit code, watched modules loaded so far] for `import ergolab`,
    `import ergolab.cli` and each command (an argv list) or library call (a
    line of Python), all run in one new process."""
    proc = subprocess.run(
        [sys.executable, "-c", _LOAD_PROBE, json.dumps(commands), str(tmp_path / "out.json")],
        capture_output=True, text=True, env=_child_env(),
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_commands_without_arrays_do_not_load_numpy(tmp_path):
    # numpy is already loaded in this process, so the imports run in a child
    csv_path, coeffs = tmp_path / "series.csv", tmp_path / "finite.json"
    geometric = tmp_path / "geometric.json"
    polynomial, stretched = tmp_path / "polynomial.json", tmp_path / "stretched.json"
    polynomial.write_text(json.dumps({"support": {"0": 0.5}, "tail": {"kind": "polynomial", "c": 1.0, "s": 2.0}}))
    stretched.write_text(json.dumps({"support": {"0": 0.5},
                                     "tail": {"kind": "stretched_exponential", "c": 1.0, "gamma": 0.5}}))
    _write_series(csv_path, range(65))
    coeffs.write_text(json.dumps({"support": {"0": 0.5, "1": 0.25}, "tail": {"kind": "none"}}))
    geometric.write_text(json.dumps({"support": {"-1": 0.25, "0": 0.5},
                                     "tail": {"kind": "geometric", "c": 0.5, "q": 0.5}}))
    commands = [
        ["rankone", "heights", "--system", "chacon", "--stages", "5"],
        ["rankone", "correlate", "--system", "chacon", "--stages", "8", "--set-stage", "2",
         "--levels", "0", "--shifts", "4,13"],
        ["skew", "correlate", "--atom-level", "14", "--cutoff", "12", "--shift", "5"],
        ["skew", "spectrum", "--atom-level", "12", "--cutoff", "8", "--window", "16"],
        ["spectral", "wiener", "--input", str(csv_path)],
        ["spectral", "translate", "--input", str(csv_path), "--times", "16,32,48", "--j-window", "2"],
        ["spectral", "beurling", "--coeffs", str(coeffs)],
        ["spectral", "rajchman", "--input", str(csv_path)],
        ["spectral", "beurling", "--coeffs", str(geometric)],
        ["spectral", "beurling", "--coeffs", str(polynomial)],
        ["spectral", "beurling", "--coeffs", str(stretched)],
        ["spectral", "certify", "--coeffs", str(geometric)],
        ["spectral", "certify", "--coeffs", str(polynomial)],
        ["spectral", "certify", "--coeffs", str(stretched)],
        ["subst", "analyze", "--system", "rudin-shapiro"],
        ["subst", "analyze", "--system", "three-letter", "--prefix-len", "4096"],
        ["subst", "correlate", "--system", "three-letter", "--block", "22", "--shift", "729"],
    ]
    *numpy_free, (_, control_code, control_loaded) = _probe_loads([*commands, "import numpy"], tmp_path)
    assert [step for step, code, loaded in numpy_free if code != 0 or "numpy" in loaded] == []
    assert control_code == 0 and "numpy" in control_loaded  # the probe does see numpy once it is imported
    # and every command runs where numpy cannot be imported at all
    blocked = _probe_loads(['sys.modules["numpy"] = None', *commands], tmp_path)
    assert [step for step, code, _ in blocked if code != 0] == []


def test_cli_only_formats_what_the_library_computes():
    # the CLI builds no arrays and reads no private name of a library module
    import ast

    tree = ast.parse(Path(cli.__file__).read_text())
    imports = [a.name for node in ast.walk(tree) if isinstance(node, ast.Import) for a in node.names]
    imports += [node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) and node.module]
    assert [name for name in imports if name.split(".")[0] == "numpy"] == []
    private = [f"{node.value.id}.{node.attr}" for node in ast.walk(tree)
               if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
               and node.value.id in ("substitution", "rankone", "skew", "spectral") and node.attr.startswith("_")]
    assert private == []


def test_library_reads_numbers_through_the_package_rules():
    # the integer and real rules and BoundedValue live once, in ergolab/__init__; no library
    # module writes its own copy, and skew borrows nothing from rankone
    import ast

    src = Path(ergolab.__file__).parent
    home = ast.parse((src / "__init__.py").read_text())
    shared = ("_integer", "_real", "BoundedValue")
    defined = [node.name for node in ast.walk(home) if isinstance(node, (ast.FunctionDef, ast.ClassDef))]
    assert [defined.count(name) for name in shared] == [1, 1, 1]
    for module in ("rankone", "skew", "substitution", "spectral"):
        tree = ast.parse((src / f"{module}.py").read_text())
        copies = [node.name for node in ast.walk(tree)
                  if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name in shared]
        finite = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Call)
                  and (isinstance(node.func, ast.Attribute) and node.func.attr == "isfinite"
                       or isinstance(node.func, ast.Name) and node.func.id == "isfinite")]
        bool_str = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Name) and node.func.id == "isinstance" and len(node.args) == 2
                    and isinstance(node.args[1], ast.Tuple)
                    and {getattr(e, "id", None) for e in node.args[1].elts} >= {"bool", "str"}]
        assert (module, copies, finite, bool_str) == (module, [], [], [])
        if module == "skew":
            sources = [node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)]
            assert [name for name in sources if name and name.split(".")[-1] == "rankone"] == []


# (public call with one integer argument x, the argument's name in the error, a valid x)
INTEGER_ARGUMENTS = [
    (lambda x: rankone.RankOneSpec([(x, (0, 1, 0))]), "cutting parameter", 3),
    (lambda x: rankone.LevelSet(x, (0,)), "set stage", 1),
    (lambda x: rankone.LevelSet(1, (x,)), "level", 0),
    (lambda x: rankone.chacon_spec(x), "stage count", 5),
    (lambda x: rankone.level_width(rankone.chacon_spec(8), x), "stage", 5),
    (lambda x: rankone.level_measure(rankone.chacon_spec(8), x, rankone.LevelSet(1, (0,))), "stage", 5),
    (lambda x: rankone.level_correlation(rankone.chacon_spec(8), x, rankone.LevelSet(1, (0,)), 3), "stage", 8),
    (lambda x: rankone.level_correlation(rankone.chacon_spec(8), 8, rankone.LevelSet(1, (0,)), x), "shift", 3),
    (lambda x: rankone.correlation_count(rankone.chacon_spec(8), 8, rankone.LevelSet(1, (0,)),
                                         rankone.LevelSet(1, (0,)), x), "shift", 3),
    (lambda x: rankone.rigidity_scan(rankone.chacon_spec(8), [x], [rankone.LevelSet(1, (0,))]), "shift", 3),
    (lambda x: rankone.rigidity_scan(rankone.chacon_spec(8), [3], [rankone.LevelSet(1, (0,))], N=x), "stage", 8),
    (lambda x: rankone.weak_limit_estimate(rankone.chacon_spec(20), rankone.LevelSet(3, (0,)), x, 4, 2),
     "n_start", 2),
    (lambda x: rankone.weak_limit_estimate(rankone.chacon_spec(20), rankone.LevelSet(3, (0,)), 2, x, 2),
     "n_stop", 4),
    (lambda x: rankone.weak_limit_estimate(rankone.chacon_spec(20), rankone.LevelSet(3, (0,)), 2, 4, x),
     "j_max", 2),
    (lambda x: rankone.weak_limit_estimate(rankone.chacon_spec(20), rankone.LevelSet(3, (0,)), 2, 4, 2, margin=x),
     "margin", 12),
    (lambda x: DyadicInterval(x, 1), "numerator", 1),
    (lambda x: DyadicInterval(0, x), "level", 1),
    (lambda x: DyadicStep(x, (1.0, -1.0)), "level", 1),
    (lambda x: SkewSystem(x, 8), "atom level", 12),
    (lambda x: SkewSystem(12, x), "cutoff", 8),
    (lambda x: skew.skew_correlation(DyadicInterval(0, 1), 0, 0, x, SkewSystem(12, 8)), "shift", 2),
    (lambda x: skew.spectral_coefficient(skew.FIRST_DIGIT_SIGN, "chi", x, SkewSystem(12, 8)), "index", 1),
    (lambda x: skew.spectral_window(skew.FIRST_DIGIT_SIGN, "one", x, SkewSystem(12, 8)), "window", 4),
    (lambda x: Substitution(x, ((0, 1), (1, 0))), "alphabet size", 2),
    (lambda x: Substitution(2, ((0, x), (1, 0))), "letter", 1),
    (lambda x: substitution.fixed_point_prefix(RUDIN_SHAPIRO, x), "prefix length", 10),
    (lambda x: substitution.prefix_block_frequencies(RUDIN_SHAPIRO, x), "prefix length", 100),
    (lambda x: substitution.prefix_correlation(substitution.fixed_point_prefix(RUDIN_SHAPIRO, 100), (0,), x),
     "shift", 2),
    (lambda x: substitution.prefix_correlation(substitution.fixed_point_prefix(RUDIN_SHAPIRO, 100), (x,), 1),
     "letter", 0),
    (lambda x: empirical_correlation(RUDIN_SHAPIRO, (0,), x, 100), "shift", 1),
    (lambda x: empirical_correlation(RUDIN_SHAPIRO, (0,), 1, x), "prefix length", 100),
    (lambda x: spectral.wiener_discrete_mass(_delta_sequence(64), x), "N", 40),
    (lambda x: spectral.translation_probe(_delta_sequence(64), [x, 2, 3], 1), "time", 1),
    (lambda x: spectral.translation_probe(_delta_sequence(64), [1, 2, 3], x), "j_window", 1),
    (lambda x: spectral.beurling_check(spectral.WeakLimitCoefficients({0: 0.5}), x), "n_max", 600),
]


def _delta_sequence(window):
    return spectral.CorrelationSequence({n: (float(n == 0), 0.0) for n in range(window + 1)})


@pytest.mark.parametrize("call, name, x", INTEGER_ARGUMENTS,
                         ids=[f"{i}-{name}" for i, (_, name, _) in enumerate(INTEGER_ARGUMENTS)])
def test_integer_arguments_refuse_what_is_no_integer(call, name, x):
    call(x)  # the valid value runs
    # a fraction, its text and even the float of the same integer are named, never truncated
    for bad in (float(x) + 0.5, str(x), float(x)):
        with pytest.raises(ValueError) as info:
            call(bad)
        assert str(info.value) == f"{name} {bad!r} is not an integer"


def test_each_process_loads_only_the_library_module_it_reads(tmp_path):
    geometric = tmp_path / "geometric.json"
    geometric.write_text(json.dumps({"support": {"0": 0.5}, "tail": {"kind": "geometric", "c": 0.5, "q": 0.5}}))
    # the library records are NamedTuples or plain classes; skew.SpectralCoefficient and
    # substitution.PerronData are the only dataclasses, so only skew and subst import dataclasses;
    # no subst command builds an array
    expected = {
        ("rankone", "heights", "--system", "chacon", "--stages", "5"): ["ergolab.rankone", "fractions"],
        ("spectral", "certify", "--coeffs", str(geometric)): ["ergolab.spectral"],
        ("skew", "correlate", "--atom-level", "14", "--cutoff", "12", "--shift", "5"):
            ["ergolab.skew", "fractions", "dataclasses", "inspect"],
        ("subst", "analyze", "--system", "rudin-shapiro"):
            ["ergolab.substitution", "dataclasses", "inspect"],
    }
    for argv, modules in expected.items():
        (_, _, preloaded), cli_step, (step, code, loaded) = _probe_loads([list(argv)], tmp_path)
        # measured from `import ergolab`, so an interpreter that preloads, say, inspect still passes
        assert set(preloaded) <= {"dataclasses", "inspect"}
        assert cli_step == ["import ergolab.cli", 0, preloaded]
        new = [name for name in modules if name not in preloaded]
        assert [step, code, [name for name in loaded if name not in preloaded]] == [" ".join(argv), 0, new]


def _parse(parser, argv, capsys) -> tuple:
    """(Namespace or None, exit code or None, stdout, stderr) of parsing argv."""
    try:
        namespace, code = parser.parse_args(argv), None
    except SystemExit as exc:
        namespace, code = None, exc.code
    out, err = capsys.readouterr()
    return namespace, code, out, err


def _parser_cases() -> list[list[str]]:
    commands = {
        "subst": ["analyze --system three-letter --tol 1e-9 --prefix-len 7 --out r.json",
                  "correlate --system rudin-shapiro --block 0,1 --shift 3 --prefix-len 99"],
        "rankone": ["heights --system staircase:3", "correlate --system chacon --levels 0,2 --shifts 4",
                    "weaklimit --system chacon --set-stage 2 --level 1 --j-max 2 --margin 5",
                    "rigidity --system historical --set-stage 3 --shift-stages 5:7"],
        "skew": ["correlate --atom-level 12 --cutoff 8 --shift 7", "spectrum --window 64 --csv s.csv",
                 "rigidity --eps 1 --k-range 3:4"],
        "spectral": ["wiener --input s.csv --window 40", "rajchman --input s.csv",
                     "translate --input s.csv --times 1,2,3 --j-window 1",
                     "beurling --coeffs c.json --n-max 9", "certify --coeffs c.json --limit-is-power"],
    }
    per_command = [[group, *line.split()] for group, lines in commands.items() for line in lines]
    errors = [[], ["bogus"], ["bogus", "heights"], ["rankone"], ["rankone", "bogus"],
              ["rankone", "heights"], ["rankone", "heights", "--system", "chacon", "--bogus"],
              ["rankone", "heights", "--system", "chacon", "extra"], ["rankone", "heights", "--stages", "x"],
              ["--out", "r.json", "rankone", "heights", "--system", "chacon"], ["skew", "--atom-level", "3"]]
    helps = [["--help"], ["-h"], *([group, "--help"] for group in commands),
             *([argv[0], argv[1], "-h"] for argv in per_command)]
    return [*readme_command_lines(), *per_command, *errors, *helps]


def test_one_group_parser_parses_as_the_full_parser(capsys):
    full = cli.build_parser()
    for argv in _parser_cases():
        assert _parse(cli._parser_for(argv), argv, capsys) == _parse(full, argv, capsys), argv


def _count_calls(monkeypatch, module, names) -> dict:
    calls = dict.fromkeys(names, 0)
    for name in names:
        def counted(*args, _real=getattr(module, name), _name=name):
            calls[_name] += 1
            return _real(*args)
        monkeypatch.setattr(module, name, counted)
    return calls


@pytest.mark.parametrize("sys_, g_name, fiber, window, calls", [
    (SkewSystem(20, 16), "one", "chi", 512, 2),  # c(n) = 0 for every n >= 1
    (SkewSystem(20, 16), "first-digit", "one", 512, 2),  # period 2 in n
    (SkewSystem(10, 10, DyadicStep(1, (0, 1))), "one", "chi", 32, 33),  # a custom cocycle keeps every n
], ids=["one-chi", "first-digit-one", "custom-cocycle"])
def test_skew_spectrum_computes_each_distinct_coefficient_once(sys_, g_name, fiber, window, calls,
                                                               monkeypatch):
    # the window calls the kernel through the skew module global, so a wrapper there sees every call
    from ergolab import skew

    counted = _count_calls(monkeypatch, skew, ("spectral_coefficient",))
    report = report_skew_spectrum(sys_, g_name, fiber, window)
    assert counted == {"spectral_coefficient": calls}
    assert [r["n"] for r in report["coefficients"]] == list(range(-window, window + 1))


def test_subst_analyze_builds_m_once_and_decides_primitivity_once(monkeypatch):
    # perron(M) is the only primitivity check and the only eigenproblem of a
    # report, solved without numpy for constant and other lengths; the blocks
    # take no solve
    import numpy as np
    from ergolab import substitution

    calls = _count_calls(monkeypatch, substitution, ("composition_matrix", "_matrix_is_primitive"))
    linalg = _count_calls(monkeypatch, np.linalg, ("eig", "solve"))
    report_subst_analyze(THREE_LETTER, 1e-12, 64)
    assert calls == {"composition_matrix": 1, "_matrix_is_primitive": 1} and linalg == {"eig": 0, "solve": 0}
    report_subst_analyze(Substitution(2, ((0, 0, 1, 1), (0, 1))), 1e-12, 64)
    assert calls == {"composition_matrix": 2, "_matrix_is_primitive": 2} and linalg == {"eig": 0, "solve": 0}


def test_subst_analyze_counts_its_blocks_without_a_prefix(monkeypatch):
    from ergolab import substitution

    calls = _count_calls(monkeypatch, substitution, ("fixed_point_prefix", "prefix_block_frequencies"))
    report = report_subst_analyze(THREE_LETTER, 1e-12, 4096)
    assert calls == {"fixed_point_prefix": 0, "prefix_block_frequencies": 1}
    assert report["empirical_check"]["prefix_len"] == 4096


def test_rankone_correlate_builds_no_stage_below_the_set_stage(monkeypatch):
    # a sweep from stage N down to the set's stage k takes the tables of its
    # jump plan only: chacon's stages 6 .. 8 are equal, so one jump (6, 3),
    # whose copy pattern is built once and kept; no per-stage table is built,
    # and the set's own lags take one `_differences` call per count
    calls = _count_calls(monkeypatch, rankone, ("_differences", "_copy_pattern"))
    spec = rankone.chacon_spec(9)
    shifts = [1, 13, 40]
    for rounds in (1, 2):
        report_rankone_correlate(spec, 9, rankone.LevelSet(6, (0, 5)), shifts)
        assert calls == {"_differences": rounds * len(shifts), "_copy_pattern": 1}
    assert [(j, s) for j, s, *_ in spec.jump_plan(6, 9, True)] == [(6, 3)] and not spec._stage_diffs


def test_subst_analyze_rejects_a_missing_fixed_point_before_building_blocks(monkeypatch):
    from ergolab import substitution

    calls = _count_calls(monkeypatch, substitution, ("pair_substitution",))
    golden = Substitution(2, ((1, 0), (0,)))  # primitive, image(0) starts with 1
    with pytest.raises(substitution.NotFixedPointCapable):
        report_subst_analyze(golden, 1e-12, 64)
    assert calls == {"pair_substitution": 0}


def test_subst_analyze_nan_tol_on_a_non_primitive_file_is_a_named_error(tmp_path, capsys):
    path = tmp_path / "np.txt"
    path.write_text("0 -> 01\n1 -> 1\n")  # the pinned non-primitive report's system
    code, out = run_cli(["subst", "analyze", "--system", str(path), "--tol", "nan"], capsys)
    assert code == 1
    assert json.loads(out)["error"] == {"type": "ValueError", "message": "tol must be a finite number >= 0, got nan"}


@pytest.mark.parametrize("argv, message", [
    (["rankone", "heights", "--system", "chacon", "--stages", "0"], "stages must lie in 1..30"),
    (["rankone", "heights", "--system", "no-such-preset"], "unknown rank-one preset or missing file: no-such-preset"),
    (["skew", "spectrum", "--atom-level", "12", "--cutoff", "8", "--function", "one:two"],
     "function must be <one|first-digit>:<one|chi>"),
])
def test_parse_errors_name_the_fault(argv, message, capsys):
    code, out = run_cli(argv, capsys)
    assert code == 1
    assert json.loads(out)["error"] == {"type": "ParseError", "message": message}
