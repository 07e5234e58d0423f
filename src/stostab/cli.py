"""Command-line front end.

Subcommands: ``simulate`` (Monte Carlo ensemble of the noise-stabilized
Brockett loop), ``scan-lv`` (generator sign scan on a grid) and
``check-design`` (gain-map conditions and control scan), both of which test
F < 0 where L_g v2 = 0, ``wong-zakai`` (pathwise ODE mesh-refinement
experiment), and ``controllability`` (bracket rank over random states).

Configuration comes from defaults, then an optional flat ``key = value``
file given with ``--config``, then command-line flags; later layers win.
Unknown config keys are errors.  Every output file starts with a comment
header carrying the tool version, subcommand, fully resolved config, master
seed, and a timestamp.

Exit codes: 0 success, 2 bad configuration, 3 runtime divergence, 4
verification failure.
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import sys
from datetime import datetime, timezone

import numpy as np

from . import __version__
from .brockett import (DiffusionDesign, SystemParams, check_design_conditions,
                       closed_loop, controllability_rank, diffusion_b)
from .lyapunov import v2_eval
from .sde import IntegrationDiverged, write_csv, write_path_csvs
from .verify import (_ensemble_plan, _wong_zakai_plan, grid_points,
                     mc_stability, scan_generator, small_control_scan,
                     wong_zakai_experiment, write_summary, zero_set_check)


class ConfigError(ValueError):
    """Bad configuration value, unknown key, or unreadable config file."""


# Schema entries are key -> (kind, default, flag help).  The common block
# applies to every subcommand; x0 lives in the per-command blocks because
# simulate wants a state triple while wong-zakai wants a scalar.
COMMON_SCHEMA = {
    "seed": ("int", 1, "master seed for all randomness"),
    "out": ("str", ".", "output directory (created if missing)"),
    "b1": ("float", 1.0, "plant parameter b1"),
    "b2": ("float", 1.0, "plant parameter b2"),
    "b3": ("float", 4.0, "plant parameter b3"),
    "b4": ("float", 4.0, "plant parameter b4"),
    "k1": ("float", 1e-4, "diffusion gain k1"),
    "k2": ("float", 1e-4, "diffusion gain k2"),
}

SUBCOMMAND_SCHEMA = {
    "simulate": {
        "x0": ("floats3", (0.0, 0.0, 1.0), "initial state v1,v2,v3"),
        "dt": ("float", 1e-3, "integration step"),
        "horizon": ("float", 50.0, "time horizon"),
        "n_paths": ("int", 200, "ensemble size"),
        "eps": ("float", 5.0, "tube radius for the sup-norm exceedance estimate"),
        "conv_threshold": ("float", 0.1, "terminal norm below which a path counts as converged"),
        "m_level": ("optfloat", None, "level for the running-max exceedance (default 10 * V2(x0))"),
        "thin": ("int", 100, "record every k-th step in trajectory CSVs"),
    },
    "scan-lv": {
        "grid_count": ("int", 41, "points per grid axis"),
        "grid_extent": ("float", 2.0, "grid covers [-extent, extent] per axis"),
        "exclude_radius": ("float", 1e-3, "radius of the excluded ball around the origin"),
    },
    "check-design": {
        "grid_count": ("int", 41, "points per grid axis"),
        "grid_extent": ("float", 2.0, "grid covers [-extent, extent] per axis"),
        "n_dirs": ("int", 1000, "random directions per radius in the control scan"),
        "sabotage_b1": ("bool", False, "replace B1 with the constant 1 (negative control)"),
    },
    "wong-zakai": {
        "x0": ("float", 1.0, "scalar initial state"),
        "horizon": ("float", 1.0, "time horizon"),
        "meshes": ("ints", (16, 64, 256, 1024), "comma-separated piecewise-linear mesh sizes"),
        "n_real": ("int", 100, "number of noise realizations"),
    },
    "controllability": {
        "n_points": ("int", 100, "number of random sample states"),
        "extent": ("float", 5.0, "sample states drawn from [-extent, extent]^3"),
    },
}


def _finite(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError("not a finite number")
    return value


def _convert(key: str, raw, kind: str):
    text = str(raw).strip()
    try:
        if kind == "int":
            return int(text)
        if kind == "float":
            return _finite(text)
        if kind == "optfloat":
            return None if text.lower() == "none" else _finite(text)
        if kind == "bool":
            if text.lower() in ("true", "false"):
                return text.lower() == "true"
            raise ValueError("expected true or false")
        if kind == "floats3":
            parts = tuple(_finite(v) for v in text.split(","))
            if len(parts) != 3:
                raise ValueError("expected three comma-separated numbers")
            return parts
        if kind == "ints":
            return tuple(int(v) for v in text.split(","))
        return text
    except ValueError as exc:
        raise ConfigError(f"bad value for {key!r}: {raw!r} ({exc})") from None


def load_config_file(path: str) -> dict:
    """Parse a flat ``key = value`` file; '#' lines and blanks are skipped."""
    if not os.path.isfile(path):
        raise ConfigError(f"config file not found: {path}")
    out = {}
    with open(path) as fh:
        for lineno, line in enumerate(fh, 1):
            stripped = line.strip()
            if not stripped or stripped.startswith("#"):
                continue
            if "=" not in stripped:
                raise ConfigError(f"{path}:{lineno}: expected key = value")
            key, _, value = stripped.partition("=")
            out[key.strip().replace("-", "_")] = value.strip()
    return out


def resolve_config(command: str, args: argparse.Namespace) -> dict:
    schema = dict(COMMON_SCHEMA)
    schema.update(SUBCOMMAND_SCHEMA[command])
    cfg = {key: default for key, (_, default, _) in schema.items()}
    if args.config is not None:
        for key, text in load_config_file(args.config).items():
            if key not in schema:
                raise ConfigError(f"unknown config key {key!r} for {command}")
            cfg[key] = _convert(key, text, schema[key][0])
    for key in schema:
        flag = getattr(args, key, None)
        if flag is not None:
            cfg[key] = _convert(key, flag, schema[key][0])
    _validate(command, cfg)
    return cfg


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise ConfigError(message)


def _validate(command: str, cfg: dict) -> None:
    _require(cfg["seed"] >= 0, "seed must be nonnegative")
    if command == "simulate":
        _require(cfg["thin"] >= 1, "thin must be a positive integer")
        if cfg["m_level"] is None:
            with np.errstate(over="ignore", invalid="ignore"):
                v2_start = float(v2_eval(np.asarray(cfg["x0"])))
            _require(np.isfinite(v2_start),
                     f"v2(x0) is not finite at x0 = {cfg['x0']}, so the "
                     "default m_level = 10 v2(x0) is undefined")
            cfg["m_level"] = 10.0 * v2_start
    elif command in ("scan-lv", "check-design"):
        _require(cfg["grid_count"] >= 2, "grid_count must be at least 2")
        _require(cfg["grid_extent"] > 0, "grid_extent must be positive")
        _require(np.isfinite(_axis(cfg)).all(), f"grid_extent = {cfg['grid_extent']!r} "
                 "is too large: its grid axis is not finite")
        if command == "scan-lv":
            _require(cfg["exclude_radius"] >= 1e-3,
                     "exclude_radius must be at least 1e-3")
        else:
            _require(cfg["n_dirs"] >= 1, "n_dirs must be positive")
    elif command == "controllability":
        _require(cfg["n_points"] >= 1, "n_points must be positive")
        _require(cfg["extent"] > 0, "extent must be positive")
        # the sampling range is 2 extent wide, and g's third row is (b3 x2, -b4 x1)
        _require(math.isfinite(cfg["extent"] * max(2.0, abs(cfg["b3"]), abs(cfg["b4"]))),
                 f"extent = {cfg['extent']!r} is too large: its sampling range or "
                 "g's third row is not finite")
    try:
        p, d = _system(cfg)
        if command in ("simulate", "scan-lv"):
            closed_loop(p, d)
        if command == "simulate":
            _ensemble_plan(cfg["x0"], cfg["dt"], cfg["horizon"], cfg["n_paths"],
                           cfg["eps"], cfg["conv_threshold"], cfg["m_level"],
                           cfg["thin"])
        elif command == "wong-zakai":
            _wong_zakai_plan(cfg["x0"], cfg["horizon"], cfg["meshes"], cfg["n_real"])
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    if command == "scan-lv":
        _scan_grids(cfg)


@np.errstate(over="ignore", invalid="ignore")
def _axis(cfg: dict) -> np.ndarray:
    """grid_count values over +-grid_extent.  Near the float limit the
    spacing overflows to non-finite values, without a warning."""
    return np.linspace(-cfg["grid_extent"], cfg["grid_extent"], cfg["grid_count"])


def _scan_grids(cfg: dict) -> list:
    """scan-lv's cube and x2 = 0 slice points; an empty one is a ConfigError
    naming it."""
    ax, radius = _axis(cfg), cfg["exclude_radius"]
    grids = []
    for name, mid in (("cube grid", ax), ("x2 = 0 slice", [0.0])):
        pts = grid_points(ax, mid, ax, radius)
        _require(len(pts) > 0, f"{name}: empty grid: every point lies inside "
                               f"the exclusion ball of radius {radius:g}")
        grids.append(pts)
    return grids


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (tuple, list)):
        return ",".join(_fmt(v) for v in value)
    if isinstance(value, float):
        return f"{value:.17g}"
    return str(value)


def header_lines(command: str, cfg: dict) -> list:
    stamp = datetime.now(timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ")
    config = " ".join(f"{k}={_fmt(v)}" for k, v in sorted(cfg.items()))
    return [
        f"stostab {__version__}",
        f"subcommand: {command}",
        f"config: {config}",
        f"seed: {cfg['seed']}",
        f"timestamp: {stamp}",
    ]


def _system(cfg: dict):
    p = SystemParams(cfg["b1"], cfg["b2"], cfg["b3"], cfg["b4"])
    d = DiffusionDesign(cfg["k1"], cfg["k2"])
    return p, d


def _zero_set_items(p, d, heights) -> list:
    """The zero-set verdict at ``heights``, and its worst point, F and ||L_g v2||."""
    rep = zero_set_check(p, d, heights)
    w = int(np.argmax(np.where(np.isnan(rep.margins), np.inf, rep.margins)))  # NaN first
    x, f, lg = rep.points[w], rep.margins[w], rep.lg_norm[w]
    return [("zero_set", "PASS" if rep.holds else "FAIL"), ("zero_set_detail",
            f"{rep.n_axis} heights, {len(rep.points) - rep.n_axis} off-axis roots; max F = "
            f"{f:.6g} at ({', '.join(f'{v:.6g}' for v in x)}), where |L_g v2| = {lg:.3g}")]


def cmd_simulate(cfg: dict, out: str, hdr: list) -> int:
    p, d = _system(cfg)
    cl = closed_loop(p, d)
    rep = mc_stability(cl, cfg["x0"], cfg["dt"], cfg["horizon"],
                       cfg["n_paths"], cfg["eps"], cfg["conv_threshold"],
                       cfg["m_level"], cfg["seed"], record_every=cfg["thin"])
    write_path_csvs([os.path.join(out, f"path_{i:04d}.csv") for i in range(rep.n_paths)],
                    rep.record_times, rep.record_states, rep.record_controls, hdr)
    edges = rep.bucket_edges.tolist()
    write_csv(os.path.join(out, "v2_drift_buckets.csv"),
              ["bucket_start", "bucket_end", "mean_dv2_dt", "stderr", "count"],
              zip(edges[:-1], edges[1:], rep.bucket_mean_drift.tolist(),
                  rep.bucket_stderr.tolist(), rep.bucket_counts.tolist()), hdr)
    q05, q50, q95 = rep.v2_terminal_quantiles
    write_summary(os.path.join(out, "summary.txt"), [
        ("n_paths", rep.n_paths),
        ("n_steps", rep.n_steps),
        ("n_diverged", rep.n_diverged),
        ("v2_start", _fmt(rep.v2_start)),
        ("m_level", _fmt(rep.m_level)),
        ("p_converge", _fmt(rep.p_converge)),
        ("p_sup_exceed", _fmt(rep.p_sup_exceed)),
        ("sup_v2_exceedance", _fmt(rep.sup_v2_exceedance)),
        ("wilson_ci_halfwidth", _fmt(rep.wilson_ci_halfwidth)),
        ("v2_terminal_q05", _fmt(q05)),
        ("v2_terminal_q50", _fmt(q50)),
        ("v2_terminal_q95", _fmt(q95)),
        ("terminal_norm_median", _fmt(rep.terminal_norm_median)),
        ("drift_nonpositive_2se", _fmt(rep.drift_nonpositive_2se)),
    ], hdr)
    print(f"simulate: {rep.n_paths} paths, {rep.n_steps} steps each, "
          f"{rep.n_diverged} diverged")
    print(f"  p_converge = {rep.p_converge:.3f}, median terminal V2 = {q50:.6g} "
          f"(started at {rep.v2_start:.6g})")
    print(f"  sup V2 >= {rep.m_level:.3g} on fraction {rep.sup_v2_exceedance:.3f} "
          f"(Wilson halfwidth {rep.wilson_ci_halfwidth:.3f})")
    if rep.n_diverged == rep.n_paths:
        print("error: every path diverged", file=sys.stderr)
        return 3
    return 0


def cmd_scan_lv(cfg: dict, out: str, hdr: list) -> int:
    p, d = _system(cfg)
    cl = closed_loop(p, d)
    full, sl = (scan_generator(cl, pts) for pts in _scan_grids(cfg))
    zs = _zero_set_items(p, d, _axis(cfg))
    for name, rep in (("full", full), ("slice", sl)):
        write_csv(os.path.join(out, f"scan_{name}.csv"), ["x1", "x2", "x3", "LV"],
                  np.column_stack([rep.points, rep.values]).tolist(), hdr)
    write_summary(os.path.join(out, "summary.txt"), [
        ("full_points", len(full.points)),
        ("full_violations", len(full.violations)),
        ("full_min_lv", _fmt(full.min_value)),
        ("full_argmin", _fmt(tuple(full.argmin))),
        ("slice_points", len(sl.points)),
        ("slice_violations", len(sl.violations)),
        ("slice_min_lv", _fmt(sl.min_value)),
        ("slice_max_lv", _fmt(float(sl.values.max()))),
        *zs,
    ], hdr)
    n_bad = len(full.violations) + len(sl.violations)
    print(f"scan-lv: {len(full.points)} grid points, min LV = {full.min_value:.6g}")
    (_, verdict), (_, detail) = zs
    print(f"scan-lv: zero set of L_g v2: {verdict} ({detail})")
    if n_bad:
        print(f"scan-lv: {n_bad} sign violations "
              f"(first at {tuple((full.violations if len(full.violations) else sl.violations)[0].tolist())})")
    if n_bad or verdict == "FAIL":
        return 4
    print("scan-lv: generator negative at every scanned point")
    return 0


def cmd_check_design(cfg: dict, out: str, hdr: list) -> int:
    p, d = _system(cfg)
    ax = _axis(cfg)
    if cfg["sabotage_b1"]:
        # Negative control: constant B1 cannot vanish at the origin.
        b_fn = lambda pts: (np.ones_like(np.asarray(pts, float)[..., 0]),
                            diffusion_b(d, p, pts)[1])
        zero_set = [("zero_set", "SKIPPED (the sabotaged B is not the kernel's)")]
    else:
        b_fn, zero_set = None, _zero_set_items(p, d, ax)
    rep = check_design_conditions(p, d, grid_points(ax, ax, ax), b_fn=b_fn)
    items = [item for name, ok in rep.conditions.items() for item in
             ((name, "PASS" if ok else "FAIL"), (f"{name}_detail", rep.details[name]))]
    items += [("c1_sequence", _fmt(rep.c1_sequence)), ("c2_sequence", _fmt(rep.c2_sequence))]
    if rep.passed:
        sc = small_control_scan(closed_loop(p, d), cfg["n_dirs"], cfg["seed"])
        items.append(("small_control_radii", _fmt(sc.radii)))
        items.append(("small_control_max", _fmt(tuple(sc.max_control))))
        items.append(("small_control", "PASS" if sc.holds else "FAIL"))
    else:
        items.append(("small_control", "SKIPPED (design conditions failed)"))
    items += zero_set
    # every verdict reads PASS, FAIL or SKIPPED, and no detail reads FAIL alone
    failed = [name for name, value in items if value == "FAIL"]
    items.append(("overall", "PASS" if not failed else "FAIL"))
    if failed:
        items.append(("failed", ",".join(failed)))
    write_summary(os.path.join(out, "design_report.txt"), items, hdr)
    if failed:
        print(f"check-design: FAIL ({', '.join(failed)})")
        return 4
    print("check-design: all conditions hold")
    return 0


def cmd_wong_zakai(cfg: dict, out: str, hdr: list) -> int:
    rep = wong_zakai_experiment(cfg["x0"], cfg["horizon"], cfg["meshes"],
                                cfg["n_real"], cfg["seed"])
    write_csv(os.path.join(out, "wz_mse.csv"), ["mesh", "mse"],
              zip(rep.meshes, rep.mse.tolist()), hdr)
    write_summary(os.path.join(out, "summary.txt"), [
        ("n_fine", rep.n_fine),
        ("n_real", rep.n_real),
        ("mse_non_increasing", "vacuous" if rep.vacuous else _fmt(rep.non_increasing)),
        ("ito_mean_log_ratio", _fmt(rep.ito_mean_log_ratio)),
        ("ito_std_log_ratio", _fmt(rep.ito_std_log_ratio)),
        ("uncorrected_drift_offset", _fmt(-0.5 * rep.horizon)),
    ], hdr)
    print("wong-zakai: MSE by mesh " +
          ", ".join(f"{m}:{v:.3g}" for m, v in zip(rep.meshes, rep.mse)))
    print(f"wong-zakai: uncorrected Ito mean log-ratio {rep.ito_mean_log_ratio:.4f} "
          f"(drift offset predicts {-0.5 * rep.horizon:.4f})")
    if rep.vacuous:
        print("wong-zakai: the refinement check is vacuous: every MSE is exactly 0",
              file=sys.stderr)
        return 4
    if not rep.non_increasing:
        print("wong-zakai: MSE sequence is not non-increasing", file=sys.stderr)
        return 4
    return 0


def cmd_controllability(cfg: dict, out: str, hdr: list) -> int:
    p, _ = _system(cfg)
    rng = np.random.default_rng(cfg["seed"])
    pts = rng.uniform(-cfg["extent"], cfg["extent"], (cfg["n_points"], 3))
    pts = np.vstack([np.zeros(3), pts])
    ranks = controllability_rank(p, pts)
    write_summary(os.path.join(out, "summary.txt"), [
        ("n_points", len(pts)),
        ("min_rank", int(ranks.min())),
        ("all_rank_3", _fmt(bool(np.all(ranks == 3)))),
    ], hdr)
    if np.all(ranks == 3):
        print(f"controllability: rank 3 at all {len(pts)} sampled states")
        return 0
    bad = pts[ranks < 3][0]
    print(f"controllability: rank {ranks.min()} at {tuple(bad.tolist())}", file=sys.stderr)
    return 4


DISPATCH = {
    "simulate": cmd_simulate,
    "scan-lv": cmd_scan_lv,
    "check-design": cmd_check_design,
    "wong-zakai": cmd_wong_zakai,
    "controllability": cmd_controllability,
}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The ``stostab`` parser, built once per process: parsing leaves it as it was."""
    parser = argparse.ArgumentParser(
        prog="stostab",
        description="Noise-assisted stabilization of the Brockett integrator: "
                    "simulation, scanning, and verification tools.")
    parser.add_argument("--version", action="version",
                        version=f"stostab {__version__}")
    sub = parser.add_subparsers(dest="command")
    for command, extra in SUBCOMMAND_SCHEMA.items():
        sp = sub.add_parser(command, help=f"run the {command} experiment")
        sp.add_argument("--config", default=None, metavar="PATH",
                        help="flat key = value config file (flags win)")
        for key, (kind, _, text) in {**COMMON_SCHEMA, **extra}.items():
            flag = "--" + key.replace("_", "-")
            if kind == "bool":
                sp.add_argument(flag, action="store_const", const="true",
                                default=None, help=text)
            else:
                sp.add_argument(flag, default=None, metavar="V", help=text)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    if args.command is None:
        parser.print_help()
        return 2
    try:
        cfg = resolve_config(args.command, args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    out = cfg["out"]
    os.makedirs(out, exist_ok=True)
    hdr = header_lines(args.command, cfg)
    try:
        return DISPATCH[args.command](cfg, out, hdr)
    except IntegrationDiverged as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
