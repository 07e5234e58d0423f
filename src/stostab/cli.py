"""Command-line front end.

Subcommands: ``simulate`` (Monte Carlo ensemble of the noise-stabilized
Brockett loop), ``scan-lv`` (generator sign scan on a grid), ``check-design``
(gain-map conditions plus the shrinking-radius control scan), ``wong-zakai``
(pathwise ODE mesh-refinement experiment), and ``controllability`` (bracket
rank over random states).

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
                     wong_zakai_experiment, write_scan_csv, write_summary)


class ConfigError(ValueError):
    """Bad configuration value, unknown key, or unreadable config file."""


# Schema entries are key -> (kind, default).  The common block applies to
# every subcommand; x0 lives in the per-command blocks because simulate wants
# a state triple while wong-zakai wants a scalar.
COMMON_SCHEMA = {
    "seed": ("int", 1),
    "out": ("str", "."),
    "b1": ("float", 1.0),
    "b2": ("float", 1.0),
    "b3": ("float", 4.0),
    "b4": ("float", 4.0),
    "k1": ("float", 1e-4),
    "k2": ("float", 1e-4),
}

SUBCOMMAND_SCHEMA = {
    "simulate": {
        "x0": ("floats3", (0.0, 0.0, 1.0)),
        "dt": ("float", 1e-3),
        "horizon": ("float", 50.0),
        "n_paths": ("int", 200),
        "eps": ("float", 5.0),
        "conv_threshold": ("float", 0.1),
        "m_level": ("optfloat", None),
        "thin": ("int", 100),
    },
    "scan-lv": {
        "grid_count": ("int", 41),
        "grid_extent": ("float", 2.0),
        "exclude_radius": ("float", 1e-3),
    },
    "check-design": {
        "grid_count": ("int", 41),
        "grid_extent": ("float", 2.0),
        "n_dirs": ("int", 1000),
        "sabotage_b1": ("bool", False),
    },
    "wong-zakai": {
        "x0": ("float", 1.0),
        "horizon": ("float", 1.0),
        "meshes": ("ints", (16, 64, 256, 1024)),
        "n_real": ("int", 100),
    },
    "controllability": {
        "n_points": ("int", 100),
        "extent": ("float", 5.0),
    },
}

FLAG_HELP = {
    "seed": "master seed for all randomness",
    "out": "output directory (created if missing)",
    "b1": "plant parameter b1", "b2": "plant parameter b2",
    "b3": "plant parameter b3", "b4": "plant parameter b4",
    "k1": "diffusion gain k1", "k2": "diffusion gain k2",
    "x0": "initial state (v1,v2,v3 for simulate; scalar for wong-zakai)",
    "dt": "integration step", "horizon": "time horizon",
    "n_paths": "ensemble size",
    "eps": "tube radius for the sup-norm exceedance estimate",
    "conv_threshold": "terminal norm below which a path counts as converged",
    "m_level": "level for the running-max exceedance (default 10 * V2(x0))",
    "thin": "record every k-th step in trajectory CSVs",
    "grid_count": "points per grid axis",
    "grid_extent": "grid covers [-extent, extent] per axis",
    "exclude_radius": "radius of the excluded ball around the origin",
    "n_dirs": "random directions per radius in the control scan",
    "sabotage_b1": "replace B1 with the constant 1 (negative control)",
    "meshes": "comma-separated piecewise-linear mesh sizes",
    "n_real": "number of noise realizations",
    "n_points": "number of random sample states",
    "extent": "sample states drawn from [-extent, extent]^3",
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
    cfg = {key: default for key, (_, default) in schema.items()}
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
        if command == "scan-lv":
            _require(cfg["exclude_radius"] >= 1e-3,
                     "exclude_radius must be at least 1e-3")
        else:
            _require(cfg["n_dirs"] >= 1, "n_dirs must be positive")
    elif command == "controllability":
        _require(cfg["n_points"] >= 1, "n_points must be positive")
        _require(cfg["extent"] > 0, "extent must be positive")
    try:
        SystemParams(cfg["b1"], cfg["b2"], cfg["b3"], cfg["b4"])
        DiffusionDesign(cfg["k1"], cfg["k2"])
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
    write_scan_csv(full, os.path.join(out, "scan_full.csv"), hdr)
    write_scan_csv(sl, os.path.join(out, "scan_slice.csv"), hdr)
    write_summary(os.path.join(out, "summary.txt"), [
        ("full_points", len(full.points)),
        ("full_violations", len(full.violations)),
        ("full_min_lv", _fmt(full.min_value)),
        ("full_argmin", _fmt(tuple(full.argmin))),
        ("full_on_axis_points", full.on_axis_count),
        ("full_on_axis_max_lv", _fmt(full.on_axis_max)),
        ("slice_points", len(sl.points)),
        ("slice_violations", len(sl.violations)),
        ("slice_min_lv", _fmt(sl.min_value)),
        ("slice_max_lv", _fmt(float(sl.values.max()))),
    ], hdr)
    n_bad = len(full.violations) + len(sl.violations)
    print(f"scan-lv: {len(full.points)} grid points, min LV = {full.min_value:.6g}")
    if n_bad:
        print(f"scan-lv: {n_bad} sign violations "
              f"(first at {tuple((full.violations if len(full.violations) else sl.violations)[0].tolist())})")
        return 4
    print("scan-lv: generator negative at every scanned point")
    return 0


def cmd_check_design(cfg: dict, out: str, hdr: list) -> int:
    p, d = _system(cfg)
    ax = _axis(cfg)
    b_fn = None
    if cfg["sabotage_b1"]:
        # Negative control: constant B1 cannot vanish at the origin.
        b_fn = lambda pts: (np.ones_like(np.asarray(pts, float)[..., 0]),
                            diffusion_b(d, p, pts)[1])
    rep = check_design_conditions(p, d, grid_points(ax, ax, ax), b_fn=b_fn)
    items = []
    for name in ("brockett6", "brockett7", "brockett8",
                 "continuous1", "continuous2"):
        items.append((name, "PASS" if rep.conditions[name] else "FAIL"))
        items.append((f"{name}_detail", rep.details[name]))
    items.append(("c1_sequence", _fmt(rep.c1_sequence)))
    items.append(("c2_sequence", _fmt(rep.c2_sequence)))
    sc_ok = None
    if rep.passed:
        sc = small_control_scan(closed_loop(p, d), cfg["n_dirs"], cfg["seed"])
        sc_ok = sc.non_increasing and sc.max_control[-1] < 1e-4
        items.append(("small_control_radii", _fmt(sc.radii)))
        items.append(("small_control_max", _fmt(tuple(sc.max_control))))
        items.append(("small_control", "PASS" if sc_ok else "FAIL"))
    else:
        items.append(("small_control", "SKIPPED (design conditions failed)"))
    failed = rep.failed()
    if sc_ok is False:
        failed = failed + ["small_control"]
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
    ranks = np.array([controllability_rank(p, pt) for pt in pts])
    write_summary(os.path.join(out, "summary.txt"), [
        ("n_points", len(pts)),
        ("min_rank", int(ranks.min())),
        ("all_rank_3", _fmt(bool(np.all(ranks == 3)))),
    ], hdr)
    if np.all(ranks == 3):
        print(f"controllability: rank 3 at all {len(pts)} sampled states")
        return 0
    bad = pts[ranks < 3][0]
    print(f"controllability: rank {ranks.min()} at {tuple(bad)}", file=sys.stderr)
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
        for key in {**COMMON_SCHEMA, **extra}:
            flag = "--" + key.replace("_", "-")
            if key == "sabotage_b1":
                sp.add_argument(flag, action="store_const", const="true",
                                default=None, help=FLAG_HELP[key])
            else:
                sp.add_argument(flag, default=None, metavar="V",
                                help=FLAG_HELP[key])
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
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except IntegrationDiverged as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
