#!/usr/bin/env python3
"""Benchmark of record for FLASH solves.

One workload per call::

    python3 perfbench/run.py --workload pagerank-social --seed 1 --seconds 25 --trace 0

prints a short report and, as its last line, one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
All four workloads in one go, with a table::

    python3 perfbench/run.py --all --seed 1 --seconds 25 [--trace 1]

Run from the root of a source checkout: the library is imported from
``src/``.  Outputs (full result files, the Chrome trace, the scratch
block store) go to ``.perfbench_out/`` in the checkout.  See
``perfbench/README.md`` for the workloads and the metric map.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT = os.path.join(ROOT, ".perfbench_out")
TMP = os.path.join(OUT, "tmp")
SETUP_REPEATS = 3
#: One timing of the reference lasts at least this long (it repeats a
#: fast reference), so timer and cache effects stay small beside it.
REF_MIN_S = 0.02
WORKLOAD_NAMES = ("pagerank-social", "bfs-road", "pagerank-oocore", "pagerank-mp2")


def _parse(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[1])
    ap.add_argument("--workload", choices=WORKLOAD_NAMES)
    ap.add_argument("--all", action="store_true", help="run every workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.all == (args.workload is not None):
        ap.error("give exactly one of --workload or --all")
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    return args


def unit_of(metric: str) -> str:
    if metric.endswith(("_s", ".s")) or "_s_" in metric:
        return "s"
    if metric.endswith("_mb"):
        return "MB"
    if "bytes" in metric:
        return "bytes"
    if metric.endswith(("_rate", "_ratio", "_vs_ref", ".overhead", ".coverage")):
        return "ratio"
    return "count"


# ----------------------------------------------------------------------
# Resources: leak snapshot and peak RSS (no sampler thread)
# ----------------------------------------------------------------------
def _listdir(path, prefix=""):
    try:
        return frozenset(n for n in os.listdir(path) if n.startswith(prefix))
    except FileNotFoundError:
        return frozenset()


def resources():
    """Open FDs, Python shared-memory segments, oocore temp dirs."""
    return (
        len(_listdir("/proc/self/fd")),
        _listdir("/dev/shm", "psm_"),
        _listdir(TMP, "repro-oocore-"),
    )


def reset_peak_rss() -> str:
    """Reset the kernel's RSS high-water mark so it covers only what
    follows; returns how ``peak_rss_mb`` is measured.  Set-up garbage is
    collected and free heap returned to the OS first, so memory the
    set-up left behind does not set the mark."""
    gc.collect()
    try:
        import ctypes

        ctypes.CDLL(None).malloc_trim(0)
    except (OSError, AttributeError):
        pass
    try:
        with open("/proc/self/clear_refs", "w") as fh:
            fh.write("5")
        return "VmHWM, reset before the timed solves"
    except OSError:
        return "ru_maxrss, process lifetime"


def peak_rss_mb() -> float:
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def stop_resource_tracker() -> None:
    """Stop (and wait for) the multiprocessing resource tracker that
    shared memory starts, so no process outlives the run."""
    from multiprocessing import resource_tracker

    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()


def machine_stamp():
    import numpy

    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10,
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        sha = "unknown"
    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_sha": sha,
    }


# ----------------------------------------------------------------------
# One workload
# ----------------------------------------------------------------------
def run_workload(name, seed, seconds, trace):
    from repro.core.engine import FlashEngine
    from spans import SpanRecorder, layer_metrics
    from workloads import WORKLOADS

    cls = WORKLOADS[name]
    baseline = resources()

    setup_s, parts = [], []
    for k in range(SETUP_REPEATS):
        wl = cls(seed, TMP)
        t0 = time.perf_counter()
        wl.setup()
        setup_s.append(time.perf_counter() - t0)
        parts.append(wl.setup_parts)
        if k < SETUP_REPEATS - 1:
            wl.teardown()
    wl.prepare_reference()

    rec = SpanRecorder()
    tally = {"attempted": 0, "failed": 0}

    def time_reference(i, calls):
        gc.collect()
        t0 = time.perf_counter()
        for _ in range(calls):
            wl.reference(i)
        return (time.perf_counter() - t0) / calls

    time_reference(0, 1)
    ref_calls = max(1, math.ceil(REF_MIN_S / time_reference(0, 1)))

    def measure(budget, traced):
        """Solve until ``budget`` seconds have passed; per-solve checks
        run outside the timed region.  Right after each solve the
        reference runs on the same input: the host's speed drifts over
        seconds to minutes, and the two timings, taken within the same
        second, drift together."""
        samples, refs, counters = [], [], {}
        deadline = time.perf_counter() + budget
        i = 0
        while True:
            # The previous solve's garbage goes before the clock starts, so
            # neither its collection nor its memory lands in this solve.
            gc.collect()
            before = resources()
            rec.solve = i
            ok = False
            try:
                t0 = time.perf_counter()
                with rec.span("solve"):
                    eng, values = wl.solve(i, rec)
                solve_s = time.perf_counter() - t0
                passed = wl.check(i, values) and eng.closed and resources() == before
                if traced:
                    counters[i] = wl.counters(eng)
                refs.append(time_reference(i, ref_calls))
                samples.append(solve_s)
                ok = passed
            except Exception:
                traceback.print_exc()
            tally["attempted"] += 1
            tally["failed"] += not ok
            i += 1
            if time.perf_counter() >= deadline:
                return samples, refs, counters

    rss_method = reset_peak_rss()
    if trace:
        plain, refs, _ = measure(seconds / 2, False)
        rec.install()
        try:
            traced, _, counters = measure(seconds / 2, True)
        finally:
            rec.uninstall()
    else:
        plain, refs, _ = measure(seconds, False)
    peak = peak_rss_mb()
    solve_p50 = statistics.median(plain) if plain else float(seconds)
    ref_p50 = statistics.median(refs) if refs else float(seconds)
    solve_vs_ref = statistics.median(s / r for s, r in zip(plain, refs)) if plain else float(seconds)

    # Workload-level leak check: no engine left open; after teardown no
    # shared-memory segment, temp dir or file descriptor left behind.
    open_engines = sum(
        1 for o in gc.get_objects() if isinstance(o, FlashEngine) and not o.closed
    )
    inputs = wl.inputs()
    baseline_s = wl.baseline_s(solve_p50)
    wl.teardown()
    del wl
    gc.collect()
    _, shm, tmp = resources()
    leaks = {
        "open_engines": open_engines,
        "shm_segments": sorted(shm - baseline[1]),
        "oocore_tmp_dirs": sorted(tmp - baseline[2]),
    }
    stop_resource_tracker()
    leaks["fds"] = resources()[0] - baseline[0]
    leaked = bool(open_engines or leaks["shm_segments"] or leaks["oocore_tmp_dirs"] or leaks["fds"])
    if leaked:
        tally["failed"] += 1
    failed = min(tally["failed"], tally["attempted"])
    attempted = tally["attempted"]

    if trace:
        metrics = layer_metrics(rec, counters)
        metrics["graph.generate_s"] = statistics.median(p["graph.generate_s"] for p in parts)
        metrics["graph.blocks_build_s"] = statistics.median(
            p.get("graph.blocks_build_s", 0.0) for p in parts
        )
        traced_p50 = statistics.median(traced) if traced else float(seconds)
        metrics["trace.overhead"] = traced_p50 / solve_p50
        metrics["baseline.vectorized_solve_s"] = baseline_s
        metrics["solve_s_p50"] = solve_p50
        metrics["ref_s_p50"] = ref_p50
        samples = {"untraced": len(plain), "traced": len(traced)}
        os.makedirs(OUT, exist_ok=True)
        rec.write_chrome(os.path.join(OUT, f"{name}.trace.json"))
    else:
        metrics = {
            "setup_s": statistics.median(setup_s),
            "solve_vs_ref": solve_vs_ref,
            "peak_rss_mb": peak,
            "success_rate": (attempted - failed) / attempted,
        }
        samples = {"solves": len(plain)}

    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": unit_of(k)} for k, v in sorted(metrics.items())},
    }
    report = {
        "workload": name,
        "trace": trace,
        "machine": machine_stamp(),
        "inputs": {**inputs, "solves_per_run": samples, "setup_repeats": SETUP_REPEATS},
        "peak_rss_method": rss_method,
        "error_rate": failed / attempted,
        "leaks": leaks,
        "setup_s_samples": setup_s,
        "solve_s_p50": solve_p50,
        "ref_s_p50": ref_p50,
        "ref_calls_per_timing": ref_calls,
        "solve_s_samples": plain,
        "ref_s_samples": refs,
        "fair_baseline_vectorized_solve_s": baseline_s,
        "result": result,
    }
    os.makedirs(OUT, exist_ok=True)
    with open(os.path.join(OUT, f"{name}.trace{trace}.json"), "w") as fh:
        json.dump(report, fh, indent=1)
    return result, report


def print_report(result, report) -> None:
    inputs = report["inputs"]
    print(f"workload {report['workload']}  trace={report['trace']}  machine {json.dumps(report['machine'])}")
    print(f"inputs {json.dumps({k: v for k, v in inputs.items() if k != 'roots'})}")
    for key, m in result["metrics"].items():
        print(f"  {key:28s} {m['value']:.6g} {m['unit']}")
    print(f"  solve_s_p50 {report['solve_s_p50']:.6g} s; reference ref_s_p50 {report['ref_s_p50']:.6g} s"
          f" ({report['ref_calls_per_timing']} calls per timing)")
    print(f"  solves {json.dumps(inputs['solves_per_run'])}; peak RSS from {report['peak_rss_method']}")
    print(f"  error_rate {report['error_rate']:.6g} ({result['failed']} failed / {result['attempted']} attempted)"
          f"; leaks {json.dumps(report['leaks'])}")
    print(f"  fair baseline (inline vectorized solve) {report['fair_baseline_vectorized_solve_s']:.6g} s")


def run_all(args) -> int:
    """Every workload in its own process; a table of what each printed."""
    rows = {}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{name}: failed with exit code {proc.returncode}")
            return 1
        rows[name] = json.loads(lines[-1])
    names = sorted({k for r in rows.values() for k in r["metrics"]})
    print(f"{'metric':28s} " + " ".join(f"{n:>16s}" for n in WORKLOAD_NAMES))
    for key in names:
        cells = [rows[n]["metrics"][key] for n in WORKLOAD_NAMES]
        print(f"{key + ' [' + cells[0]['unit'] + ']':28s} " + " ".join(f"{c['value']:16.6g}" for c in cells))
    print(f"{'error_rate':28s} " + " ".join(
        f"{rows[n]['failed'] / rows[n]['attempted']:16.6g}" for n in WORKLOAD_NAMES))
    os.makedirs(OUT, exist_ok=True)
    with open(os.path.join(OUT, f"summary.trace{args.trace}.json"), "w") as fh:
        json.dump(rows, fh, indent=1)
    return 0 if all(r["correct"] for r in rows.values()) else 1


def main(argv=None) -> int:
    args = _parse(argv)
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "repro", "__init__.py")):
        print(f"perfbench: no library source at {src}; run from a full checkout", file=sys.stderr)
        return 2
    if args.all:
        return run_all(args)
    # One thread per process: on a host with few cores an idle BLAS or
    # OpenMP pool only competes with the solve (and, for pagerank-mp2,
    # with the workers, which inherit this environment).
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, src)
    os.makedirs(TMP, exist_ok=True)
    # Temp dirs the library makes (oocore stores) land in the checkout.
    os.environ["TMPDIR"] = TMP
    tempfile.tempdir = TMP
    result, report = run_workload(args.workload, args.seed, args.seconds, args.trace)
    print_report(result, report)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
