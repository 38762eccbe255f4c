#!/usr/bin/env python3
"""Benchmark of the frenetsim command line, run in-process.

    python3 perfbench/run.py --workload analyze_sampled --seed 1 --seconds 12 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 12

One client drives a closed loop: it writes an op's input files, calls
frenetsim.cli.main on them, checks the answer, and only then writes the
next op's inputs. The clock runs only inside cli.main. The loop stops
once the ops have used --seconds of time at the reference speed (below),
at least MIN_OPS ops have run, and the workload's cycle of op kinds is
complete, so every run sees the same mix and about the same number of
ops.

Every time is reported at a reference machine speed: a fixed calibration
kernel is timed after each op (and before the first), and an op's time is
scaled by the kernel's reference time over the mean of the kernel's
times on either side of it. Set-up launches are scaled by reference
launches run between them instead. The raw times are in the detail line.

With --trace 0 the last line of stdout is a JSON object with the
end-to-end metrics; with --trace 1 it carries the per-layer metrics,
taken from spans on every other cycle of ops while the cycles between
run untraced, which gives the tracing overhead. The line before it
records the environment and how each figure was obtained.

The package is not installed: the benchmark imports it from src/ next
to this directory and exits non-zero, printing no result, if it is not
there.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from collections import Counter
from hashlib import sha256
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
SETUP_LAUNCHES = 7
# a run holds at least this many ops, so that the latency tail, with 10
# ops beyond it, lies above the median
MIN_OPS = 22
WORKLOADS = ("analyze_sampled", "match_pairs", "verify_highdim")
# (name, unit) of each end-to-end metric, as BENCHMARK.json lists them
END_TO_END = (
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_tail_ms", "ms"),
    ("ok_frac", "ratio"),
    ("accuracy_digits", "digits"),
    ("peak_rss_mb", "MB"),
)
# errors below this are at the resolution of double precision
ERR_FLOOR = 1e-16
# the calibration kernel's time at the reference speed: that of a quiet
# 2-vCPU x86_64 host at 2.0 GHz
CALIBRATION_REF_S = 0.004
# the reference launch for set-up times: a fresh interpreter importing
# frenetsim's heaviest dependencies, and its time at the reference speed
# (the mean of the medians of two sets of 12 launches, each launch scaled
# by the calibration kernel)
REFERENCE_IMPORT = "import numpy, scipy.interpolate"
REFERENCE_IMPORT_S = 0.68


def calibrate() -> float:
    """Seconds a fixed numpy, scipy and pure-Python kernel takes right now.

    The host's speed drifts, by up to 1.8x within a minute on a shared
    machine. Op times divided by this kernel's time stay steady across
    such drift (within 1% against 21% raw, over 90 s of match ops). The
    best of three runs discounts caches cold from the op before.
    """
    import numpy as np
    from scipy.interpolate import make_interp_spline

    best = math.inf
    for _ in range(3):
        t0 = time.perf_counter()
        x = np.linspace(0.0, 10.0, 1000)
        y = np.column_stack([np.sin(x), np.cos(2.0 * x), x * x])
        spline = make_interp_spline(x, y, k=7)
        for j in range(5):
            spline(x, j)
        acc = 0
        for i in range(20000):
            acc += i * i
        np.savetxt(io.StringIO(), y[:300], fmt="%.17g")
        best = min(best, time.perf_counter() - t0)
    return best


def measure_setup():
    """Raw and reference-speed times of fresh interpreters importing
    frenetsim.cli from src/, and the raw times of the reference launches.

    Each such launch runs between two reference launches, and its time is
    scaled by REFERENCE_IMPORT_S over their mean. The reference launches
    do the same kind of work over the same seconds, so they follow the
    host's speed far more closely than the calibration kernel, which runs
    in this process while a launch may run on the other vCPU. Their code
    is not frenetsim's, so a change to the package moves only the
    measured launch.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)

    def launch(code):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT,
                       check=True)
        return time.perf_counter() - t0

    # the first launch may compile bytecode; users pay that once, not per call
    launch("import frenetsim.cli")
    refs = [launch(REFERENCE_IMPORT)]
    raw = []
    for _ in range(SETUP_LAUNCHES):
        raw.append(launch("import frenetsim.cli"))
        refs.append(launch(REFERENCE_IMPORT))
    scaled = [t * REFERENCE_IMPORT_S / (0.5 * (r0 + r1))
              for t, r0, r1 in zip(raw, refs, refs[1:])]
    return raw, scaled, refs


def environment() -> dict:
    import numpy
    import scipy

    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, check=True).stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            pass
    digest = sha256()
    for p in sorted((SRC / "frenetsim").glob("*.py")):
        digest.update(p.name.encode() + p.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "commit": commit,
        "src_sha256": digest.hexdigest()[:16],
        "thread_cap": {v: os.environ[v] for v in THREAD_VARS},
        "clients": 1,
        "calibration_ref_s": CALIBRATION_REF_S,
        "reference_import_s": REFERENCE_IMPORT_S,
    }


def run_op(main, op, before: float):
    """Call the CLI on one op, then time the calibration kernel.

    before is the kernel's time taken last, before this op's inputs were
    written. Returns (seconds, seconds at reference speed, the kernel's
    time after the op, exit code, stdout, exception that escaped main or
    None).
    """
    out, err = io.StringIO(), io.StringIO()
    rc = exc = None
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = main(op.argv)
    except Exception as e:  # an escaping exception fails the op, not the run
        exc = e
    dt = time.perf_counter() - t0
    after = calibrate()
    dt_ref = dt * CALIBRATION_REF_S / (0.5 * (before + after))
    return dt, dt_ref, after, rc, out.getvalue(), exc


def judge(op, rc, stdout, exc, failures: Counter):
    """(correct, error) of one op; tallies why it failed."""
    if exc is not None:
        kind = f"exception:{type(exc).__name__}"
        if kind not in failures:
            traceback.print_exception(exc, file=sys.stderr)
        failures[kind] += 1
        return False, None
    try:
        ok, err = op.check(rc, stdout)
    except (ValueError, KeyError, TypeError, OSError) as e:
        failures[f"unreadable:{type(e).__name__}"] += 1
        return False, None
    if not ok:
        failures[f"{'exact' if op.exact else 'noisy'}:exit{rc}"] += 1
    return ok, err


def tail(latencies: list):
    """Latency at the highest percentile with at least 10 samples beyond it."""
    xs = sorted(latencies)
    i = max(len(xs) - 11, 0)
    return xs[i], 100.0 * i / len(xs)


def latency_metrics(lat: list, correct: int) -> dict:
    return {
        "ops_per_s": correct / sum(lat),
        "latency_p50_ms": 1e3 * statistics.median(lat),
        "latency_tail_ms": 1e3 * tail(lat)[0],
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> int:
    if not trace:
        setup_raw, setup_ref, setup_refs = measure_setup()
    import frenetsim.cli
    if not Path(frenetsim.cli.__file__).resolve().is_relative_to(SRC):
        sys.exit(f"frenetsim was imported from {frenetsim.cli.__file__}, "
                 f"not from {SRC}")
    import spans
    import workloads

    cycle, _ = workloads.WORKLOADS[name]
    main = frenetsim.cli.main
    tracer = spans.Tracer() if trace else None
    failures = Counter()
    records = []  # (op, seconds, reference seconds, correct, exact, error, traced)
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as tmp:
        op = workloads.make_op(name, seed, workloads.WARMUP, Path(tmp))
        cal = run_op(main, op, calibrate())[2]
        for p in op.files:
            p.unlink(missing_ok=True)
        busy, k = 0.0, 0
        # a traced run ends on a pair of cycles: one untraced, one traced
        period = 2 * cycle if trace else cycle
        while busy < seconds or k < MIN_OPS or k % period:
            op = workloads.make_op(name, seed, k, Path(tmp))
            traced = trace and (k // cycle) % 2 == 1
            with tracer.op(k) if traced else contextlib.nullcontext():
                dt, dt_ref, cal, rc, stdout, exc = run_op(main, op, cal)
            ok, err = judge(op, rc, stdout, exc, failures)
            for p in op.files:
                p.unlink(missing_ok=True)
            records.append((k, dt, dt_ref, ok, op.exact, err, traced))
            busy += dt_ref
            k += 1

    attempted = len(records)
    correct = sum(r[3] for r in records)
    errs = [r[5] for r in records if r[4] and r[5] is not None
            and math.isfinite(r[5])]
    detail = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": trace,
        "environment": environment(), "busy_s": busy, "attempted": attempted,
        "exact_ops": sum(r[4] for r in records), "failures": dict(failures),
        "worst_exact_err": max(errs) if errs else None,
        "speed_median": statistics.median(r[2] / r[1] for r in records),
    }
    if trace:
        on = [r for r in records if r[6]]
        metrics = tracer.summary({r[0]: r[2] / r[1] for r in on},
                                 sum(r[2] for r in on))
        metrics["trace.overhead_pct"] = 100.0 * (
            statistics.mean(r[2] for r in on)
            / statistics.mean(r[2] for r in records if not r[6]) - 1.0)
        units = {m: "count" if m.endswith(".calls") else "%"
                 if m.endswith("_pct") else "ms" for m in metrics}
        detail["traced_ops"] = len(on)
    else:
        lat_ref = [r[2] for r in records]
        metrics = {
            "setup_s": statistics.median(setup_ref),
            **latency_metrics(lat_ref, correct),
            "ok_frac": correct / attempted,
            # mean over exact-data ops of -log10(error): decades of accuracy
            "accuracy_digits": statistics.mean(
                -math.log10(max(e, ERR_FLOOR)) for e in errs)
            if errs else 0.0,
            "peak_rss_mb": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = dict(END_TO_END)
        detail.update(
            raw={"setup_s": statistics.median(setup_raw),
                 **latency_metrics([r[1] for r in records], correct)},
            setup_launches_s=setup_raw, reference_launches_s=setup_refs,
            tail_percentile=tail(lat_ref)[1], latency_samples=attempted)
    print(json.dumps({"detail": detail}))
    exact_ok = all(r[3] for r in records if r[4])
    print(json.dumps({
        "correct": exact_ok,
        "attempted": attempted,
        "failed": attempted - correct,
        "metrics": {m: {"value": v, "unit": units[m]}
                    for m, v in metrics.items()},
    }))
    return 0


def run_all(seed: int, seconds: float) -> int:
    """Every workload in its own process, as one table of end-to-end metrics."""
    status = 0
    print(f"{'workload':<16} {'metric':<16} {'value':>14}  unit")
    for name in WORKLOADS:
        res = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", "0"],
            capture_output=True, text=True)
        if res.returncode != 0:
            sys.stderr.write(res.stderr)
            print(f"{name:<16} failed with exit code {res.returncode}")
            status = 1
            continue
        result = json.loads(res.stdout.strip().splitlines()[-1])
        for metric, m in result["metrics"].items():
            print(f"{name:<16} {metric:<16} {m['value']:>14.6g}  {m['unit']}")
        print(f"{name:<16} {'attempted/failed':<16} "
              f"{result['attempted']:>9}/{result['failed']:<4}  "
              f"correct={result['correct']}")
    return status


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True,
                   help="op time to measure, in seconds")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not (SRC / "frenetsim" / "cli.py").is_file():
        sys.exit(f"perfbench: no frenetsim sources under {SRC}")
    for var in THREAD_VARS:
        os.environ[var] = "1"  # before numpy loads: one thread, one client
    os.environ.pop("FRENETSIM_LOG", None)
    sys.path.insert(0, str(SRC))
    if args.workload == "all":
        return run_all(args.seed, args.seconds)
    return run_workload(args.workload, args.seed, args.seconds,
                        bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
