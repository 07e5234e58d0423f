"""Benchmark of stostab: four closed-loop workloads, end-to-end and per layer.

Run from the root of a checkout that holds ``src/stostab``::

    python3 perfbench/run.py --workload ensemble-narrow --seed 0 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all            # every workload, one process each

One run makes one untimed warm-up call of one workload, then timed calls,
one after another, until ``--seconds`` is spent.  It checks every call's
output against the stored reference and prints human-readable lines
followed by one JSON line::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones (``wall_s``,
``us_per_path_step``, ``setup_s``, ``peak_rss_mb``); with ``--trace 1`` a
first half of untraced calls is followed by traced calls, and the metrics are
the per-layer ones named in ``BENCHMARK.json``.  Spans and a full result
record, with the environment, go to ``.perfbench_out/`` in the checkout.
See ``perfbench/README.md`` for the workloads and the metric mapping.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench_out")

# BLAS/OpenMP threads, fixed before numpy loads; at most nproc.
BLAS_THREADS = 1
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

SETUP_PROBES = 5
# Reference time of the set-up calibration kernel (one row, 2000 steps),
# which tracked interpreter start-up better than the scalar kernel; see
# calibration.py.
SETUP_KERNEL_REF_S = 0.0518

# Set-up as a user pays it: a fresh interpreter imports stostab, assembles the
# default closed loop (which evaluates it at the origin) and resolves the CLI
# configuration of ``simulate``.
PROBE = """
import sys
sys.path.insert(0, {src!r})
import stostab
from stostab import cli
stostab.closed_loop(stostab.SystemParams(1.0, 1.0, 4.0, 4.0),
                    stostab.DiffusionDesign(1e-4, 1e-4))
cli.resolve_config("simulate", cli.build_parser().parse_args(["simulate"]))
print("ready", flush=True)
"""


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    help="ensemble-narrow, ensemble-wide, simulate-dense, convergence, or all")
    ap.add_argument("--seed", type=int, default=0,
                    help="benchmark seed; 0 is the acceptance seed, 1 the held-out one")
    ap.add_argument("--seconds", type=float, default=25.0,
                    help="time spent on timed calls")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0,
                    help="1 reports per-layer metrics from a traced run")
    return ap.parse_args(argv)


def probe_setup() -> None:
    """One fresh interpreter from spawn until its set-up is done."""
    with subprocess.Popen([sys.executable, "-c", PROBE.format(src=SRC)],
                          cwd=ROOT, stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        proc.stdout.read()
        proc.wait(timeout=120)
    if proc.returncode != 0 or line.strip() != "ready":
        raise RuntimeError(f"set-up probe failed with exit code {proc.returncode}")


def environment(workload, seed: int) -> dict:
    import numpy as np
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name"))
    except (OSError, StopIteration):
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_name = "unknown"
    digest = hashlib.sha256()
    for base, dirs, files in sorted(os.walk(os.path.join(SRC, "stostab"))):
        dirs.sort()
        for name in sorted(files):
            if name.endswith(".py"):
                with open(os.path.join(base, name), "rb") as fh:
                    digest.update(name.encode() + b"\0" + fh.read())
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name,
        "blas_threads": BLAS_THREADS,
        "commit": git_head(),
        "src_sha256": digest.hexdigest()[:16],
        "seed": seed,
        "reference_slot": workload.slot,
        "program_seeds": program_seeds(workload),
    }


def git_head() -> str:
    """Commit of the checkout from ``.git`` files, or 'unknown' outside git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = os.path.join(git, ref)
        if os.path.isfile(ref_file):
            with open(ref_file) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def program_seeds(workload) -> dict:
    if workload.name == "convergence":
        return {"em": workload.seed, "heun": workload.seed, "wong_zakai": workload.wz_seed}
    return {"master": workload.seed}


def median_quartiles(values: list) -> tuple:
    """(median, first quartile, third quartile)."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q2, q1, q3


class Runner:
    """Timed calls of one workload with the output check after each."""

    def __init__(self, wl, reference: dict, compare, clock):
        self.wl = wl
        self.reference = reference
        self.compare = compare
        self.clock = clock
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.longest = 0.0       # longest call with its calibration and check

    def rep(self) -> float:
        """One timed call, in reference seconds.

        A call that raises or fails its output check fails every operation.
        """
        self.attempted += self.wl.ops
        start = time.perf_counter()
        try:
            result, wall = self.clock.time(self.wl.call)
            out = self.wl.outcome(result)
        except Exception:
            self.failed += self.wl.ops
            self.problems.append(traceback.format_exc(limit=-3))
            wall = self.clock.raw[-1] * self.clock.factors[-1]
        else:
            bad = self.compare(out.values, self.reference)
            self.failed += self.wl.ops if bad else out.failed
            self.problems += bad
        self.longest = max(self.longest, time.perf_counter() - start)
        return wall

    def until(self, deadline: float) -> list:
        """Timed calls while the next one is expected to end by ``deadline``."""
        walls = [self.rep()]
        while time.perf_counter() + self.longest <= deadline:
            walls.append(self.rep())
        return walls


def run_one(args) -> int:
    import stostab
    if not os.path.abspath(stostab.__file__).startswith(SRC + os.sep):
        print(f"error: stostab imported from {stostab.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import tracer as tracing
    import workloads
    from calibration import ArrayKernel, Clock

    setup_clock = Clock(ArrayKernel(1, 2000, ref_s=SETUP_KERNEL_REF_S))
    setup = [] if args.trace else [setup_clock.time(probe_setup)[1]
                                   for _ in range(SETUP_PROBES)]
    wl = workloads.make(args.workload, args.seed, os.path.join(OUT, "tmp"))
    wl.prepare()
    clock = Clock(wl.kernel)
    runner = Runner(wl, workloads.load_reference(wl.name)["slots"][str(wl.slot)],
                    workloads.compare, clock)
    os.makedirs(OUT, exist_ok=True)
    tag = f"{wl.name}-seed{args.seed}-trace{args.trace}"
    # One untimed, checked call first: the first call of a process runs up
    # to 1.5x slower while the allocator and caches fill.
    warmup = runner.rep()
    del clock.raw[0], clock.factors[0]
    start = time.perf_counter()

    if not args.trace:
        walls = runner.until(start + args.seconds)
        wall = statistics.median(walls)
        metrics = {
            "wall_s": (wall, "s"),
            "us_per_path_step": (wall / wl.path_steps * 1e6, "us"),
            "setup_s": (statistics.median(setup), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
    else:
        plain = runner.until(start + args.seconds / 2)
        tr = tracing.Tracer()
        traced = []
        with tr.attached(wl):
            while not traced or time.perf_counter() + runner.longest <= start + args.seconds:
                tr.rep = len(traced)
                try:
                    traced.append(runner.rep())
                finally:
                    tr.rep = -1
        metrics, repeat = tr.layer_metrics(list(range(len(traced))),
                                           wl.batched_steps, wl.noise_bytes)
        metrics["trace_overhead_share"] = (
            statistics.median(traced) / statistics.median(plain) - 1.0, "share")
        tr.write(os.path.join(OUT, f"spans-{tag}.csv.gz"))
        walls = plain + traced
        if not repeat:
            runner.problems.append("traced call counts differ between timed calls")

    correct = not runner.problems
    env = environment(wl, args.seed)
    print(f"workload {wl.name}, seed {args.seed} (reference slot {wl.slot}, "
          f"program seeds {env['program_seeds']}), {len(walls)} timed calls, "
          f"{wl.path_steps} path-steps each")
    print("  wall_s per call, median [quartiles]: %.4f [%.4f, %.4f] s at reference speed, "
          "raw %.4f [%.4f, %.4f] s" % (*median_quartiles(walls), *median_quartiles(clock.raw)))
    if not args.trace:
        for name, (value, unit) in metrics.items():
            print(f"  {name} = {value:.6g} {unit}")
    print(f"  failed_share = {runner.failed / runner.attempted:.6g} "
          f"({runner.failed} of {runner.attempted} operations)")
    print(f"  output check: {'passed' if correct else 'FAILED'} (rtol {workloads.RTOL:g})")
    for problem in sorted(set(runner.problems))[:20]:
        print(f"    {problem}")
    print("env: " + json.dumps(env, sort_keys=True))
    record = {"workload": wl.name, "trace": args.trace, "env": env,
              "warmup_s": warmup, "walls_s": walls, "raw_walls_s": clock.raw, "speed_factors": clock.factors,
              "setup_s": setup, "setup_raw_s": setup_clock.raw,
              "correct": correct, "problems": runner.problems,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    with open(os.path.join(OUT, f"result-{tag}.json"), "w") as fh:
        json.dump(record, fh, indent=1, default=float)
    print(json.dumps({"correct": correct, "attempted": runner.attempted,
                      "failed": runner.failed,
                      "metrics": {k: {"value": float(v), "unit": u}
                                  for k, (v, u) in metrics.items()}}))
    return 0


def run_all(args) -> int:
    """Each workload in its own process; exit 0 only when every check passed."""
    import workloads
    results = {}
    for name in workloads.NAMES:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", repr(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            return proc.returncode or 1
        results[name] = json.loads(lines[-1])
    print(json.dumps(results))
    return 0 if all(r["correct"] and r["failed"] == 0 for r in results.values()) else 1


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "stostab", "__init__.py")):
        print(f"error: no stostab package under {SRC}; run from a stostab checkout",
              file=sys.stderr)
        return 2
    if args.seconds <= 0 or args.seed < 0:
        print("error: --seconds must be positive and --seed nonnegative", file=sys.stderr)
        return 2
    for var in THREAD_VARS:
        os.environ[var] = str(BLAS_THREADS)
    sys.path.insert(0, SRC)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
