import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import ergolab
from ergolab.cli import main, report_skew_rigidity, report_skew_spectrum, report_subst_analyze
from ergolab.skew import DyadicInterval, DyadicStep, SkewSystem
from ergolab.substitution import RUDIN_SHAPIRO, THREE_LETTER, empirical_correlation


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


def test_console_script_entry_point():
    # the child imports the same ergolab as this process, installed or not
    src = str(Path(ergolab.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "ergolab.cli", "rankone", "heights",
         "--system", "chacon", "--stages", "3"],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["report"]["heights"] == [1, 4, 13, 40]
