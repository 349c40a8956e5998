#!/usr/bin/env python3
"""Benchmark of the wiretap command line, run in-process as a closed loop
with one client: each invocation of ``wiretap.cli.main`` waits for the one
before it.

    python3 perfbench/run.py --workload sweep_gauss --seed 0 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seconds 25

A run sets up (imports wiretap, writes the generated problem files, loads
the reference), then repeats the workload's invocations in passes while
another whole pass fits in ``--seconds``, checks every output, and reports
medians over the passes. A fixed host-speed kernel (``hostspeed.py``) runs
between invocations in a helper process, and every time is reported in
reference-host seconds: measured time times ``REFERENCE_S`` over the kernel
time around it. The run pins itself and the helper to one CPU.
``--trace 0`` reports the end-to-end metrics. ``--trace 1`` alternates
untraced and traced passes and reports the per-layer metrics of the traced
ones, plus the tracing overhead. ``--workload all`` runs every workload
both ways in child processes. BLAS runs on one thread.

Output: an ``env`` line, one ``metric <name> <value> <unit>`` line per
metric, and last one JSON object with the keys correct, attempted, failed
and metrics. Exits 1 when an output check fails and 2 when the tree to
measure (``src/wiretap`` and ``problems``) is missing.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from hostspeed import HostSpeed, scale
from tracer import Tracer, layer_metrics

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
# The keys of workloads.WORKLOADS, listed here so that parsing the arguments
# imports nothing that set-up should time.
WORKLOAD_NAMES = ("sweep_gauss", "sweep_qam16", "montecarlo", "solve_n32")
# Set-up is timed once in this process and in this many fresh interpreters,
# so that import time counts on every sample.
SETUP_PROBES = 3
# One BLAS thread: the host gives the benchmark two vCPUs, and a second
# BLAS thread would measure the scheduler. Set before numpy loads.
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
    "ok_frac": "ratio",
    "kkt_residual_max": "1",
}
PER_LAYER = {
    "mi.rate.calls": "count",
    "mi.rate.ms_per_call": "ms",
    "mi.inverse.calls": "count",
    "mi.inverse.busy_s": "s",
    "mi.rate_per_inverse": "ratio",
    "model.thresholds.calls": "count",
    "model.thresholds.self_s": "s",
    "sdp.solve_general.calls": "count",
    "sdp.solve_general.busy_s": "s",
    "sdp.route.trivial": "count",
    "sdp.route.lp": "count",
    "sdp.route.sdp": "count",
    "sdp.relaxed.calls": "count",
    "sdp.relaxed.busy_s": "s",
    "sdp.newton_steps": "count",
    "sdp.newton_per_solve": "ratio",
    "sdp.ms_per_newton": "ms",
    "sdp.status.optimal": "count",
    "sdp.status.infeasible": "count",
    "sdp.status.max_iterations": "count",
    "sdp.status.rank1_infeasible": "count",
    "sdp.infeasible_certified_frac": "ratio",
    "sdp.rank1.busy_s": "s",
    "sdp.rank1_exact_frac": "ratio",
    "diag_lp.solve.calls": "count",
    "diag_lp.solve.busy_s": "s",
    "diag_lp.all_diagonal.busy_s": "s",
    "sweep.rows": "count",
    "sweep.solves": "count",
    "sweep.solves_per_row": "ratio",
    "sweep.self_s": "s",
    "montecarlo.draw.trials": "count",
    "montecarlo.draw.busy_s": "s",
    "montecarlo.estimate.self_s": "s",
    "montecarlo.trials_per_s": "1/s",
    "kkt.check.busy_s": "s",
    "kkt.rank_bound.busy_s": "s",
    "probfile.load.busy_s": "s",
    "cli.self_s": "s",
    "trace.overhead_s": "s",
    "host.kernel_s": "s",
    "host.wall_raw_s": "s",
}

_clock = time.perf_counter


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true",
                    help="only set up, then print the set-up time")
    return ap.parse_args(argv)


def setup(name: str, seed: int, workdir: Path):
    """Import wiretap from this tree, write the inputs, load the reference.
    Returns the workload and the set-up time in seconds."""
    t0 = _clock()
    sys.path.insert(0, str(ROOT / "src"))
    import wiretap.cli

    if not Path(wiretap.cli.__file__).resolve().is_relative_to(ROOT / "src"):
        raise SystemExit(f"error: imported wiretap from {wiretap.cli.__file__}, not this tree")
    import workloads

    reference = json.loads((HERE / "reference.json").read_text(encoding="utf-8"))
    wl = workloads.WORKLOADS[name](ROOT, workdir, seed, reference)
    return wl, _clock() - t0


def probe_setup(name: str, seed: int) -> float:
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(seed),
         "--setup-probe"],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
    )
    return float(done.stdout.split()[-1])


def blas_threads() -> dict:
    """Thread count of every OpenBLAS the process has loaded."""
    found = {}
    with open("/proc/self/maps", encoding="utf-8") as fh:
        paths = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                found[Path(path).name] = fn()
                break
    return found


def environment() -> dict:
    import numpy
    import scipy

    def blas_version(show_config):
        return show_config(mode="dicts")["Build Dependencies"]["blas"].get("version")

    return {
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "openblas": {"numpy": blas_version(numpy.show_config),
                     "scipy": blas_version(scipy.show_config)},
        "blas_threads": blas_threads(),
        "WIRETAP_THREADS": os.environ.get("WIRETAP_THREADS", "<unset>"),
    }


def emit(result: dict) -> None:
    for name, m in result["metrics"].items():
        print(f"metric {name} {m['value']!r} {m['unit']}")
    print(json.dumps(result))


def run_workload(args) -> int:
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    try:
        if args.setup_probe:
            print(repr(setup(args.workload, args.seed, workdir)[1]))
            return 0
        with HostSpeed() as host:
            return measure(args, workdir, host)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure(args, workdir: Path, host: HostSpeed) -> int:
    """Set up, run the passes, check the outputs and print the result.
    ``host()`` runs the host-speed kernel in its helper process."""

    # Each set-up sample is scaled by the kernel runs just before and after it.
    kernels = [host()]
    wl, t_setup = setup(args.workload, args.seed, workdir)
    raw_setups = [t_setup]
    kernels.append(host())
    for _ in range(SETUP_PROBES):
        raw_setups.append(probe_setup(args.workload, args.seed))
        kernels.append(host())
    setups = [t * scale(k0, k1) for t, k0, k1 in zip(raw_setups, kernels, kernels[1:])]

    import wiretap.cli
    from workloads import median_pass, run_pass

    print("env " + json.dumps(environment(), sort_keys=True))
    passes, layer, tracer = [], [], None  # passes: (traced, results)
    t_start, last = _clock(), 0.0
    # Start another pass only while it should end within --seconds, going
    # by the pass before; the first pass (and with --trace 1 a traced
    # one) always runs.
    while len(passes) < 1 + args.trace or _clock() - t_start + last < args.seconds:
        t_pass = _clock()
        traced = bool(args.trace) and len(passes) % 2 == 1
        if traced:
            tracer = Tracer()
            with tracer.installed():
                results = run_pass(wl, tracer.wrap("cli", wiretap.cli.main), host)
            layer.append(layer_metrics(tracer.spans))
        else:
            results = run_pass(wl, wiretap.cli.main, host)
        passes.append((traced, results))
        last = _clock() - t_pass
        print(f"pass {len(passes)} {'traced' if traced else 'untraced'} "
              f"{median_pass([results], scaled=False)!r} s, "
              f"{median_pass([results], scaled=True)!r} reference-host s")

    verdict = wl.check([results for _, results in passes])
    attempted = wl.units() * len(passes)
    failed = len(verdict.failed)
    for message in verdict.messages:
        print(f"check failed: {message}", file=sys.stderr)
    print(f"checked {attempted} operations over {len(passes)} passes, {failed} failed")

    untraced = [results for traced, results in passes if not traced]
    wall = median_pass(untraced, scaled=True)
    if args.trace:
        spans_path = OUT / f"spans-{args.workload}-seed{args.seed}.json"
        tracer.dump(spans_path)
        print(f"spans {spans_path.relative_to(ROOT)}")
        values = {k: statistics.median(m[k] for m in layer) for k in layer[0]}
        values["trace.overhead_s"] = median_pass(
            [results for traced, results in passes if traced], scaled=True) - wall
        values["host.kernel_s"] = statistics.median(
            k for _, results in passes for r in results for k in r.kernel)
        values["host.wall_raw_s"] = median_pass(untraced, scaled=False)
        units = PER_LAYER
    else:
        values = {
            "wall_s": wall,
            "setup_s": statistics.median(setups),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "ok_frac": 1.0 - failed / attempted,
            "kkt_residual_max": max(verdict.residuals, default=1.0),
        }
        units = END_TO_END
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": values[k], "unit": u} for k, u in units.items()},
    }
    emit(result)
    return 0 if failed == 0 else 1


def run_all(args) -> int:
    """Every workload, untraced and traced, each in its own process."""
    correct, attempted, failed, metrics = True, 0, 0, {}
    for name in WORKLOAD_NAMES:
        for trace in (0, 1):
            done = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed",
                 str(args.seed), "--seconds", repr(args.seconds), "--trace", str(trace)],
                cwd=ROOT, capture_output=True, text=True, timeout=600,
            )
            sys.stderr.write(done.stderr)
            try:
                res = json.loads(done.stdout.strip().splitlines()[-1])
            except (IndexError, ValueError):
                print(f"error: {name} --trace {trace} printed no result", file=sys.stderr)
                return 2
            correct &= res["correct"]
            attempted += res["attempted"]
            failed += res["failed"]
            metrics.update({f"{name}.{key}": m for key, m in res["metrics"].items()})
    result = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    emit(result)
    return 0 if correct else 1


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "wiretap" / "__init__.py").is_file() or not (ROOT / "problems").is_dir():
        print(f"error: no wiretap tree (src/wiretap, problems) under {ROOT}", file=sys.stderr)
        return 2
    os.environ.pop("WIRETAP_THREADS", None)  # measure the default single-threaded sweep
    os.environ.update({name: "1" for name in BLAS_ENV})
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
