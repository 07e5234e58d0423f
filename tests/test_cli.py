"""Exit codes, config resolution, output files, and reproducibility."""

import subprocess
import sys

import numpy as np
import pytest

from stostab import cli


def run_cli(args):
    return cli.main(list(args))


def read_header(path):
    lines = path.read_text().splitlines()
    return [l for l in lines if l.startswith("# ")]


def test_no_command_is_a_usage_error(capsys):
    assert run_cli([]) == 2
    assert "usage" in capsys.readouterr().out.lower()


def test_version_flag(capsys):
    assert run_cli(["--version"]) == 0
    out = capsys.readouterr().out
    assert "stostab" in out


def test_unknown_flag_returns_argparse_code():
    assert run_cli(["simulate", "--no-such-flag", "1"]) == 2


def test_missing_config_file(tmp_path):
    code = run_cli(["controllability", "--config", str(tmp_path / "none.cfg"),
                    "--out", str(tmp_path)])
    assert code == 2


def test_unknown_config_key(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("not_a_key = 1\n")
    assert run_cli(["controllability", "--config", str(cfg),
                    "--out", str(tmp_path)]) == 2


def test_singular_parameters_rejected(tmp_path):
    assert run_cli(["controllability", "--b1", "0", "--out", str(tmp_path)]) == 2
    # b1 b4 + b2 b3 = 0
    assert run_cli(["controllability", "--b3", "-4", "--out", str(tmp_path)]) == 2


def test_malformed_values_rejected(tmp_path):
    assert run_cli(["simulate", "--dt", "abc", "--out", str(tmp_path)]) == 2
    assert run_cli(["simulate", "--dt", "0", "--out", str(tmp_path)]) == 2
    assert run_cli(["simulate", "--x0", "1,2", "--out", str(tmp_path)]) == 2
    assert run_cli(["simulate", "--n-paths", "0", "--out", str(tmp_path)]) == 2


def test_config_file_with_flag_override(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "# comment line\n"
        "\n"
        "seed = 3\n"
        "n-points = 7\n"   # dashes normalize to underscores
        "extent = 2.5\n"
    )
    out = tmp_path / "out"
    assert run_cli(["controllability", "--config", str(cfg), "--seed", "11",
                    "--out", str(out)]) == 0
    hdr = read_header(out / "summary.txt")
    joined = "\n".join(hdr)
    assert "# seed: 11" in joined          # flag wins over the file
    assert "n_points=7" in joined          # file wins over the default
    assert "extent=2.5" in joined


def test_controllability_reference_and_chained(tmp_path):
    out = tmp_path / "a"
    assert run_cli(["controllability", "--out", str(out)]) == 0
    text = (out / "summary.txt").read_text()
    assert "all_rank_3 = true" in text
    out2 = tmp_path / "b"
    assert run_cli(["controllability", "--b3", "1", "--b4", "0",
                    "--out", str(out2)]) == 0


def test_every_output_carries_the_header(tmp_path):
    out = tmp_path / "o"
    assert run_cli(["scan-lv", "--grid-count", "5", "--out", str(out)]) == 0
    for name in ("scan_full.csv", "scan_slice.csv", "summary.txt"):
        hdr = "\n".join(read_header(out / name))
        assert "# stostab" in hdr
        assert "# subcommand: scan-lv" in hdr
        assert "# seed:" in hdr
        assert "# timestamp:" in hdr
        assert "# config:" in hdr


def test_scan_lv_exit_codes(tmp_path):
    assert run_cli(["scan-lv", "--grid-count", "5",
                    "--out", str(tmp_path / "ok")]) == 0
    # without noise the axis violates the sign condition
    assert run_cli(["scan-lv", "--grid-count", "5", "--k1", "0", "--k2", "0",
                    "--out", str(tmp_path / "bad")]) == 4
    text = (tmp_path / "bad" / "summary.txt").read_text()
    assert "violations" in text


def test_scan_lv_csv_shape(tmp_path):
    out = tmp_path / "s"
    assert run_cli(["scan-lv", "--grid-count", "5", "--out", str(out)]) == 0
    full = (out / "scan_full.csv").read_text().splitlines()
    data_rows = [l for l in full if not l.startswith("#")]
    assert data_rows[0] == "x1,x2,x3,LV"
    assert len(data_rows) == 1 + 5 ** 3 - 1  # origin excluded


def test_check_design_pass_and_sabotage(tmp_path):
    ok = tmp_path / "ok"
    assert run_cli(["check-design", "--n-dirs", "100", "--out", str(ok)]) == 0
    report = (ok / "design_report.txt").read_text()
    assert "overall = PASS" in report
    for name in ("brockett6", "brockett7", "brockett8",
                 "continuous1", "continuous2"):
        assert f"{name} = PASS" in report

    sab = tmp_path / "sab"
    assert run_cli(["check-design", "--n-dirs", "100", "--sabotage-b1",
                    "--out", str(sab)]) == 4
    report = (sab / "design_report.txt").read_text()
    assert "brockett6 = FAIL" in report
    assert "overall = FAIL" in report


def test_simulate_artifacts(tmp_path):
    out = tmp_path / "sim"
    assert run_cli(["simulate", "--n-paths", "2", "--horizon", "0.05",
                    "--dt", "1e-3", "--thin", "10", "--seed", "7",
                    "--out", str(out)]) == 0
    assert (out / "path_0000.csv").exists()
    assert (out / "path_0001.csv").exists()
    assert not (out / "path_0002.csv").exists()
    lines = (out / "path_0000.csv").read_text().splitlines()
    header_row = [l for l in lines if not l.startswith("#")][0]
    assert header_row == "t,x1,x2,x3,u1,u2"
    buckets = (out / "v2_drift_buckets.csv").read_text().splitlines()
    assert any(l.startswith("bucket_start,") for l in buckets)
    summary = (out / "summary.txt").read_text()
    for key in ("p_converge", "v2_terminal_q05", "v2_terminal_q50",
                "v2_terminal_q95", "sup_v2_exceedance",
                "wilson_ci_halfwidth", "drift_nonpositive_2se"):
        assert key in summary


def test_simulate_reruns_identically(tmp_path):
    out = tmp_path / "same"
    args = ["simulate", "--n-paths", "1", "--horizon", "0.02", "--dt", "1e-3",
            "--thin", "5", "--seed", "7", "--out", str(out)]
    assert run_cli(args) == 0
    first = (out / "path_0000.csv").read_text().splitlines()
    assert run_cli(args) == 0
    second = (out / "path_0000.csv").read_text().splitlines()
    strip = lambda ls: [l for l in ls if not l.startswith("# timestamp")]
    assert strip(first) == strip(second)


def test_simulate_seed_changes_paths(tmp_path):
    outs = []
    for seed in ("7", "8"):
        out = tmp_path / seed
        assert run_cli(["simulate", "--n-paths", "1", "--horizon", "0.02",
                        "--dt", "1e-3", "--thin", "5", "--seed", seed,
                        "--out", str(out)]) == 0
        rows = [l for l in (out / "path_0000.csv").read_text().splitlines()
                if not l.startswith("#")]
        outs.append(rows[1:])
    assert outs[0] != outs[1]


def test_wong_zakai_artifacts(tmp_path):
    out = tmp_path / "wz"
    assert run_cli(["wong-zakai", "--meshes", "4,16", "--n-real", "50",
                    "--out", str(out)]) == 0
    table = [l for l in (out / "wz_mse.csv").read_text().splitlines()
             if not l.startswith("#")]
    assert table[0] == "mesh,mse"
    assert len(table) == 3
    mse = np.array([float(r.split(",")[1]) for r in table[1:]])
    assert mse[0] > mse[1]
    summary = (out / "summary.txt").read_text()
    assert "ito_mean_log_ratio" in summary
    assert "mse_non_increasing = true" in summary


def test_wong_zakai_validation(tmp_path):
    assert run_cli(["wong-zakai", "--n-real", "10",
                    "--out", str(tmp_path)]) == 2
    assert run_cli(["wong-zakai", "--meshes", "16,8",
                    "--out", str(tmp_path)]) == 2


def test_wong_zakai_divergence_exits_3(tmp_path, capsys):
    # x0 = 2e12 lies beyond the divergence bound 1e12, so the pathwise ODE
    # raises IntegrationDiverged after its first knot interval (t = 1/16)
    code = run_cli(["wong-zakai", "--x0", "2e12", "--n-real", "50",
                    "--meshes", "16,64", "--out", str(tmp_path)])
    assert code == 3
    assert capsys.readouterr().err == "error: integration diverged at t=0.0625\n"


def test_all_diverged_run_makes_no_drift_claim(tmp_path, capsys):
    # every path diverges in its first step, so no drift bucket holds a
    # sample and the drift verdict has nothing to rest on
    out = tmp_path / "diverged"
    code = run_cli(["simulate", "--x0", "1.5,-1,2", "--n-paths", "10",
                    "--horizon", "0.01", "--out", str(out)])
    assert code == 3
    assert "error: every path diverged" in capsys.readouterr().err
    summary = (out / "summary.txt").read_text().splitlines()
    assert "n_diverged = 10" in summary
    assert "drift_nonpositive_2se = false" in summary
    counts = np.loadtxt(out / "v2_drift_buckets.csv", delimiter=",",
                        skiprows=6)[:, 4]
    assert np.all(counts == 0)


def test_module_entry_point(tmp_path):
    r = subprocess.run([sys.executable, "-m", "stostab.cli", "controllability",
                        "--n-points", "20", "--out", str(tmp_path / "m")],
                       capture_output=True, text=True)
    assert r.returncode == 0
    assert (tmp_path / "m" / "summary.txt").exists()
