"""Exit codes, config resolution, output files, and reproducibility."""

import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

from stostab import Trajectory, cli, closed_loop, verify
from stostab.verify import mc_stability

import csv_oracle


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


def test_parser_is_built_once_and_reused(tmp_path, capsys):
    # successive calls share one parser, and nothing one call parses leaks
    # into the next: help, version, and a flag given once then left out
    assert cli.build_parser() is cli.build_parser()
    fresh = cli.build_parser.__wrapped__()
    sub = fresh._subparsers._group_actions[0].choices
    assert run_cli(["controllability", "--n-points", "3", "--out", str(tmp_path / "a")]) == 0
    capsys.readouterr()
    for argv, want in ((["--version"], f"stostab {cli.__version__}\n"),
                       (["simulate", "--help"], sub["simulate"].format_help()),
                       (["scan-lv", "--help"], sub["scan-lv"].format_help()),
                       (["--help"], fresh.format_help())):
        assert run_cli(argv) == 0
        assert capsys.readouterr().out == want
    assert run_cli(["controllability", "--out", str(tmp_path / "b")]) == 0
    capsys.readouterr()
    for name, n_points in (("a", 3), ("b", 100)):
        header = read_header(tmp_path / name / "summary.txt")
        assert f" n_points={n_points} " in header[2]
    assert run_cli(["simulate", "--no-such-flag", "1"]) == 2
    assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize("args", [
    ["--horizon", "1e6"],
    ["--dt", "1e-320", "--horizon", "1e300"],
    ["--n-paths", "1" + "0" * 400],
], ids=("long-horizon", "step-count-overflows", "huge-n-paths"))
def test_simulate_beyond_physical_memory_is_a_config_error(tmp_path, monkeypatch,
                                                           capsys, args):
    # refused before any allocation or output directory, naming the sizes
    def no_run(*args, **kwargs):
        raise AssertionError("mc_stability ran")
    monkeypatch.setattr(cli, "mc_stability", no_run)
    out = tmp_path / "sim"
    assert run_cli(["simulate", *args, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    for name in ("n_paths = ", "n_steps = ", "thin = 100", "GiB", "physical memory"):
        assert name in err
    assert not out.exists()


class _Ran(Exception):
    pass


@pytest.mark.parametrize("shares, need", [(1, 640), (2, 960)])
def test_simulate_memory_refusal_counts_the_drift_samples(tmp_path, monkeypatch,
                                                          capsys, shares, need):
    # 4 paths of 10 steps at thin 100 record 2 rows: 4 (8 * 10 + 40 * 2)
    # bytes in one process, and 8 bytes more per path-step when the paths
    # are stepped in shares; the run starts at exactly that much memory
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(shares)))
    monkeypatch.setattr(verify, "SHARE_MIN_PATHS", 1)

    def ran(*args, **kwargs):
        raise _Ran
    monkeypatch.setattr(cli, "mc_stability", ran)
    out = tmp_path / "sim"
    argv = ["simulate", "--n-paths", "4", "--horizon", "0.01", "--out", str(out)]
    for memory in (need - 1, need):
        monkeypatch.setattr(os, "sysconf", {"SC_PAGE_SIZE": 1,
                                            "SC_PHYS_PAGES": memory}.__getitem__)
        if memory < need:
            assert run_cli(argv) == 2
            assert "physical memory" in capsys.readouterr().err
            assert not out.exists()
        else:
            with pytest.raises(_Ran):
                run_cli(argv)


def test_simulate_in_shares_writes_the_same_files(tmp_path, monkeypatch):
    # 7 paths stepped by 3 forked children write the bytes of the run
    # stepped in this process, apart from the timestamp line
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(3)))
    forks, fork = [], os.fork
    monkeypatch.setattr(os, "fork", lambda: forks.append(1) or fork())
    out, runs = tmp_path / "sim", []
    for min_paths in (verify.SHARE_MIN_PATHS, 1):
        monkeypatch.setattr(verify, "SHARE_MIN_PATHS", min_paths)
        shutil.rmtree(out, ignore_errors=True)
        assert run_cli(["simulate", "--n-paths", "7", "--horizon", "0.05",
                        "--thin", "10", "--k1", "0.1", "--k2", "0.1",
                        "--x0", "0.4,-0.3,0.8", "--out", str(out)]) == 0
        runs.append({f.name: [l for l in f.read_bytes().splitlines()
                              if not l.startswith(b"# timestamp: ")]
                     for f in sorted(out.iterdir())})
    assert len(forks) == 3
    assert len(runs[0]) == 9 and runs[0] == runs[1]


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


def test_malformed_values_rejected(tmp_path, capsys):
    assert run_cli(["simulate", "--dt", "abc", "--out", str(tmp_path)]) == 2
    assert run_cli(["simulate", "--dt", "0", "--out", str(tmp_path)]) == 2
    assert run_cli(["simulate", "--x0", "1,2", "--out", str(tmp_path)]) == 2
    assert run_cli(["simulate", "--n-paths", "0", "--out", str(tmp_path)]) == 2
    # v2(x0) overflows, so the default m_level = 10 v2(x0) has no value; the
    # error names x0, and no overflow warning escapes
    capsys.readouterr()
    assert run_cli(["simulate", "--x0", "1e200,0,0",
                    "--out", str(tmp_path / "big")]) == 2
    assert capsys.readouterr().err.startswith("error: v2(x0) is not finite at x0 = ")
    assert not (tmp_path / "big").exists()
    # a non-finite number is malformed for every float key, from a flag or
    # a config file: the error names the key, no warning escapes, and
    # nothing is written
    cfg = tmp_path / "nan.cfg"
    cfg.write_text("m_level = nan\n")
    for args, key in ((["simulate", "--horizon", "inf"], "horizon"),
                      (["simulate", "--dt", "inf", "--horizon", "inf"], "dt"),
                      (["simulate", "--k1", "nan"], "k1"),
                      (["scan-lv", "--k1", "inf"], "k1"),
                      (["simulate", "--b3", "inf"], "b3"),
                      (["controllability", "--extent", "inf"], "extent"),
                      (["check-design", "--grid-extent", "inf"], "grid_extent"),
                      (["scan-lv", "--grid-extent", "inf"], "grid_extent"),
                      (["simulate", "--x0", "0,nan,1"], "x0"),
                      (["simulate", "--config", str(cfg)], "m_level"),
                      (["wong-zakai", "--x0", "nan"], "x0")):
        out = tmp_path / "nonfinite"
        capsys.readouterr()
        assert run_cli([*args, "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith(f"error: bad value for {key!r}: ")
        assert not out.exists()


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


def test_scan_lv_exit_codes(tmp_path, capsys):
    assert run_cli(["scan-lv", "--grid-count", "5",
                    "--out", str(tmp_path / "ok")]) == 0
    # without noise the axis violates the sign condition
    assert run_cli(["scan-lv", "--grid-count", "5", "--k1", "0", "--k2", "0",
                    "--out", str(tmp_path / "bad")]) == 4
    text = (tmp_path / "bad" / "summary.txt").read_text()
    assert "violations" in text
    # |x|^2 overflows at 1e300, so LV is NaN at every point: not a pass
    assert run_cli(["scan-lv", "--grid-count", "2", "--grid-extent", "1e300",
                    "--out", str(tmp_path / "nan")]) == 4
    summary = (tmp_path / "nan" / "summary.txt").read_text().splitlines()
    assert "full_violations = 8" in summary
    assert "slice_violations = 4" in summary
    assert "full_min_lv = nan" in summary
    # the first violation prints as plain floats, not numpy scalar reprs
    assert "(first at (-1e+300, -1e+300, -1e+300))" in capsys.readouterr().out


@pytest.mark.parametrize("args, name", [
    # both points of the 2-point cube lie inside the exclusion ball
    (["--grid-count", "2", "--grid-extent", "0.0005"], "cube grid"),
    # the cube keeps its corners, but the slice's farthest point is at 2.83
    (["--grid-count", "5", "--exclude-radius", "3"], "x2 = 0 slice"),
])
def test_scan_lv_empty_grid_is_a_config_error(tmp_path, capsys, args, name):
    out = tmp_path / "s"
    assert run_cli(["scan-lv", *args, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {name}: empty grid")
    assert list(out.iterdir()) == []


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


def test_check_design_fails_a_grid_the_kernel_cannot_evaluate(tmp_path, capsys):
    # |x|^2 overflows at 1e300: the gains are NaN there, which fails both
    # conditions with a count of the points, and no RuntimeWarning leaks
    out = tmp_path / "big"
    assert run_cli(["check-design", "--grid-extent", "1e300", "--grid-count", "3",
                    "--n-dirs", "10", "--out", str(out)]) == 4
    assert capsys.readouterr().out == "check-design: FAIL (brockett7, brockett8)\n"
    report = (out / "design_report.txt").read_text().splitlines()
    assert "brockett7 = FAIL" in report
    assert ("brockett7_detail = min (b1 b4 - b2 b3) B1 B2 x3 = nan over 27 points, "
            "not finite at 26 points") in report
    assert "brockett8 = FAIL" in report
    assert ("brockett8_detail = min |B1| = nan, min |B2| = nan on the axis, "
            "not finite at 2 points") in report
    assert "small_control = SKIPPED (design conditions failed)" in report


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


@pytest.mark.parametrize("args", [
    # thin 5 does not divide the 23 steps, so the last row is off the grid
    ["simulate", "--n-paths", "2", "--horizon", "0.023", "--dt", "1e-3",
     "--thin", "5", "--seed", "7"],
    ["scan-lv", "--grid-count", "5"],
    ["check-design", "--grid-count", "5", "--n-dirs", "50"],
    ["wong-zakai", "--meshes", "4,16", "--n-real", "50"],
    ["controllability", "--n-points", "20"],
], ids=lambda args: args[0])
def test_reruns_are_identical(tmp_path, args):
    # every file a run writes is byte-identical on a rerun with the same
    # config, apart from the timestamp line
    out = tmp_path / "same"
    runs = []
    for _ in range(2):
        shutil.rmtree(out, ignore_errors=True)
        assert run_cli(args + ["--out", str(out)]) == 0
        runs.append({f.name: [l for l in f.read_text().splitlines()
                              if not l.startswith("# timestamp: ")]
                     for f in sorted(out.iterdir())})
    assert runs[0] and runs[0] == runs[1]


@pytest.mark.parametrize("args, rows", [
    # 23 steps at thin 10 record steps 0, 10, 20 and the final 23
    (["--n-paths", "3", "--horizon", "0.023", "--thin", "10"], 4),
    (["--n-paths", "1", "--horizon", "0.01", "--thin", "1"], 11),
], ids=("thin-off-grid", "one-path"))
def test_simulate_path_files_match_the_row_writer(tmp_path, args, rows):
    # every path file has the bytes of the reference row writer on the same
    # report, and all share one header; the output path holds % and {},
    # which the header carries into the file
    out = tmp_path / "o%d_{}%%s"
    argv = ["simulate", *args, "--seed", "4", "--out", str(out)]
    assert run_cli(argv) == 0
    cfg = cli.resolve_config("simulate", cli.build_parser().parse_args(argv))
    p, d = cli._system(cfg)
    rep = mc_stability(closed_loop(p, d), cfg["x0"], cfg["dt"], cfg["horizon"],
                       cfg["n_paths"], cfg["eps"], cfg["conv_threshold"],
                       cfg["m_level"], cfg["seed"], record_every=cfg["thin"])
    files = sorted(out.glob("path_*.csv"))
    assert [f.name for f in files] == [f"path_{i:04d}.csv" for i in range(cfg["n_paths"])]
    hdr = read_header(files[0])
    assert f"out={out}" in hdr[2]
    assert len(rep.record_times) == rows and rep.record_times[-1] == cfg["horizon"]
    for i, f in enumerate(files):
        assert read_header(f) == hdr
        ref = tmp_path / f"ref_{i}.csv"
        traj = Trajectory(rep.record_times, rep.record_states[i], rep.record_controls[i])
        csv_oracle.trajectory_to_csv(traj, ref, [line[2:] for line in hdr])
        assert f.read_bytes() == ref.read_bytes()


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


def test_wong_zakai_validation(tmp_path, capsys):
    assert run_cli(["wong-zakai", "--n-real", "10",
                    "--out", str(tmp_path)]) == 2
    assert run_cli(["wong-zakai", "--meshes", "16,8",
                    "--out", str(tmp_path)]) == 2
    for args, name in (
            # every path stays at 0, so a zero MSE would pass vacuously
            (["--x0", "0", "--n-real", "50", "--meshes", "2,4"], "x0"),
            (["--horizon", "-1"], "horizon")):
        out = tmp_path / name / args[1]
        capsys.readouterr()
        assert run_cli(["wong-zakai", *args, "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith(f"error: {name} must be")
        assert list(out.iterdir()) == []


@pytest.mark.parametrize("horizon", ["1e-300", "1e-40"])
def test_wong_zakai_all_zero_mse_is_vacuous(tmp_path, capsys, horizon):
    # over so short a horizon x0 exp(w) rounds to x0 on every path, so every
    # MSE is exactly 0 and the refinement check has nothing to show
    out = tmp_path / "wz"
    assert run_cli(["wong-zakai", "--horizon", horizon, "--n-real", "50",
                    "--meshes", "4,16", "--out", str(out)]) == 4
    err = capsys.readouterr().err
    assert err == "wong-zakai: the refinement check is vacuous: every MSE is exactly 0\n"
    summary = (out / "summary.txt").read_text().splitlines()
    assert "mse_non_increasing = vacuous" in summary
    assert "mse_non_increasing = true" not in summary


def test_wong_zakai_mesh_must_divide_the_fine_mesh(tmp_path, capsys):
    # the fine mesh is 4 * 16 = 64, which 3 does not divide
    out = tmp_path / "wz"
    assert run_cli(["wong-zakai", "--meshes", "3,16", "--out", str(out)]) == 2
    assert capsys.readouterr().err == "error: mesh 3 must divide the fine mesh 64\n"
    assert list(out.iterdir()) == []


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


def child_env():
    # A child must import the same stostab as this process, which need not
    # be installed: put its source directory first on the child's path.
    import stostab
    src = os.path.dirname(os.path.dirname(os.path.abspath(stostab.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def test_module_entry_point(tmp_path):
    r = subprocess.run([sys.executable, "-m", "stostab.cli", "controllability",
                        "--n-points", "20", "--out", str(tmp_path / "m")],
                       capture_output=True, text=True, env=child_env())
    assert r.returncode == 0
    assert (tmp_path / "m" / "summary.txt").exists()


def test_import_leaves_out_the_test_oracle_libraries():
    # sympy and mpmath serve only the exact oracle under tests/, and
    # numpy.random is loaded on the first Wiener draw; importing any of them
    # with the package, or when building a loop, would add to every run's
    # start-up time
    r = subprocess.run([sys.executable, "-c",
                        "import stostab, sys; "
                        "stostab.closed_loop(stostab.SystemParams(1.0, 1.0, 4.0, 4.0), "
                        "stostab.DiffusionDesign(1e-4, 1e-4)); "
                        "loaded = {'sympy', 'mpmath', 'numpy.random'} & set(sys.modules); "
                        "assert not loaded, loaded"],
                       capture_output=True, text=True, env=child_env())
    assert r.returncode == 0, r.stderr
