#!/usr/bin/env python3
"""zndisc benchmark: one closed-loop workload per run.

    python3 bench/run.py --workload prime-construct --seed 1 --seconds 18 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 18 --trace 0

A run times fresh-interpreter set-up, warms up with one unit of work, then
repeats whole rounds of the workload's units, one after another, for
``--seconds``.  With ``--trace 0`` it reports the end-to-end metrics, with
``--trace 1`` the per-layer metrics from wrapped zndisc functions.  Outputs
are checked outside the timed region.  The last line of standard output is
one JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
See bench/README.md.
"""

import os

# One BLAS thread for every process the benchmark starts, set before numpy
# is imported: with two, exhaustive search's matmul depends on whether the
# second core is free.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import gc
import json
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time
import traceback
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_PROBES = 9
PROBE_TIMEOUT_S = 60
RUN_TIMEOUT_S = 170

# Seconds calibrate() takes on the reference host, a 2-core Xeon VM at its
# median speed: wall_s and setup_s are reported at that host speed.
CALIBRATION_S = 0.0185
_CALIBRATION_VALUES = np.arange(4096, dtype=np.int64) % 3 - 1
WORKLOAD_NAMES = ("prime-construct", "smooth-construct", "exact-oracles", "analysis-suite")


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=18.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--probe", action="store_true",
                   help="only import zndisc and build the workload's inputs (times setup_s)")
    return p.parse_args(argv)


def calibrate() -> float:
    """Wall time of a fixed mix of interpreter work and small numpy calls.

    The host's speed drifts by up to half within minutes, with CPU time
    tracking wall time, so other tenants are slowing it down.  A run times
    this loop before every probe and unit and scales its medians by
    CALIBRATION_S over the loop's median, which cancels most of the drift
    between runs.  One sample is too short to trust alone.
    """
    t0 = time.perf_counter()
    acc = 0
    for i in range(60000):
        acc += i * i % 7
    for d in range(1, 150):
        idx = (np.arange(64)[:, None] + np.arange(64)[None, :] * d) % 4096
        acc += int(np.abs(np.cumsum(_CALIBRATION_VALUES[idx], axis=1)).max())
    return time.perf_counter() - t0


def probe_seconds(workload: str, seed: int) -> float:
    """Wall time of a fresh interpreter that imports zndisc and builds the inputs."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--probe",
           "--workload", workload, "--seed", str(seed)]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.DEVNULL)
    # wait() with a timeout polls in steps of up to 50 ms; a blocking wait
    # with a watchdog does not round the time.
    watchdog = threading.Timer(PROBE_TIMEOUT_S, proc.kill)
    watchdog.start()
    try:
        code = proc.wait()
    finally:
        watchdog.cancel()
    seconds = time.perf_counter() - t0
    if code != 0:
        raise RuntimeError(f"set-up probe exited with {code}: {' '.join(cmd)}")
    return seconds


def run_unit(unit, tracer, tag):
    """Run one unit's operations back to back; returns (seconds, [(op, result, error)])."""
    if tracer is not None:
        tracer.unit = tag
    done = []
    t0 = time.perf_counter()
    for op in unit:
        try:
            done.append((op, op.run(), None))
        except Exception as exc:  # a failed operation is counted, the run goes on
            done.append((op, None, exc))
    seconds = time.perf_counter() - t0
    if tracer is not None:
        tracer.unit = None
    return seconds, done


def run_workload(wl, args, zndisc, tracing, check):
    out_dir = OUT / wl.name
    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir(parents=True)
    setup, calibration = [], []
    for _ in range(0 if args.trace else SETUP_PROBES):
        calibration.append(calibrate())
        setup.append(probe_seconds(wl.name, args.seed))
    plan = wl.prepare(args.seed, out_dir)
    tracer = tracing.Tracer() if args.trace else None
    durations, outputs, unstable = [], {}, set()
    attempted = failed = 0
    if tracer is not None:
        tracer.install(zndisc)
    try:
        for op, result, error in run_unit(plan.units[0], tracer, "warm-up")[1]:
            if error is None and op.ok(result):
                op.collect(result)
        start, rounds = time.perf_counter(), 0
        while rounds == 0 or time.perf_counter() - start < args.seconds:
            for unit in plan.units:
                gc.collect()
                calibration.append(calibrate())
                seconds, done = run_unit(unit, tracer, len(durations))
                durations.append(seconds)
                for op, result, error in done:
                    attempted += 1
                    if error is not None or not op.ok(result):
                        failed += 1
                        print(f"failed: {op.label}: {result!r}", file=sys.stderr)
                        if error is not None:
                            traceback.print_exception(error, file=sys.stderr)
                        continue
                    out = op.collect(result)
                    if outputs.setdefault(op.label, out) != out:
                        unstable.add(op.label)
            rounds += 1
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    finally:
        if tracer is not None:
            tracer.uninstall()

    records = wl.parse(plan, outputs)
    rep = check.Report()
    rep.require("deterministic", not unstable, f"outputs changed between rounds: {unstable}")
    wl.check(plan, records, rep, args.seed)
    if rep.ok and not failed:
        for expected, label, faulty in wl.faults(plan, records, args.seed):
            planted = check.Report()
            wl.check(plan, faulty, planted, args.seed)
            rep.require("self_test", expected in planted.failed(),
                        f"planted fault '{label}' did not trip {expected}")
    for name, message in rep.failures:
        print(f"check {name} FAILED: {message}", file=sys.stderr)

    if tracer is not None:
        tracer.write(OUT / f"trace-{wl.name}-seed{args.seed}.jsonl")
        values = tracer.per_layer(range(len(durations)))
    else:
        slowdown = statistics.median(calibration) / CALIBRATION_S
        values = {
            "wall_s": statistics.median(durations) / slowdown,
            "setup_s": statistics.median(setup) / slowdown,
            "peak_rss_mb": peak_rss_mb,
            "t_ratio": statistics.median(wl.t_ratios(plan, records)),
        }
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in declared["per_layer" if args.trace else "end_to_end"]}

    print(f"{wl.name} seed={args.seed} trace={args.trace}: {len(durations)} units "
          f"in {rounds} rounds, median unit {statistics.median(durations):.4f} s unscaled, "
          f"calibration {1000 * statistics.median(calibration):.2f} ms, "
          f"attempted {attempted}, failed {failed}, correct {str(rep.ok).lower()}")
    print("  unit seconds: " + " ".join(f"{d:.3f}" for d in durations))
    print("  set-up probe seconds: " + " ".join(f"{d:.3f}" for d in setup))
    for name, m in metrics.items():
        print(f"  {name:<32} {m['value']:.6g} {m['unit']}")
    return {"correct": rep.ok, "attempted": attempted, "failed": failed, "metrics": metrics}


def run_all(args) -> int:
    """Every workload in its own process, so each reports its own peak RSS."""
    results, status = {}, 0
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            status = 1
            continue
        results[name] = json.loads(lines[-1])
        if not results[name]["correct"] or results[name]["failed"]:
            status = 1
    print(json.dumps(results))
    return status


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "zndisc" / "__init__.py").is_file():
        print(f"error: zndisc sources not found under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, str(SRC))
    import check
    import tracing
    import workloads
    import zndisc

    if Path(zndisc.__file__).resolve().parent != SRC / "zndisc":
        print(f"error: zndisc imported from {zndisc.__file__}, not {SRC}", file=sys.stderr)
        return 2
    wl = workloads.WORKLOADS[args.workload]
    if args.probe:
        wl.prepare(args.seed, OUT / wl.name)
        return 0
    print(json.dumps(run_workload(wl, args, zndisc, tracing, check)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
