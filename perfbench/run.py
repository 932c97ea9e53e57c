"""dualseg benchmark: one closed-loop client, one workload per process.

    python3 perfbench/run.py --workload infer_patch --seed 0 --seconds 35
    python3 perfbench/run.py --workload infer_patch --seed 0 --trace 1
    python3 perfbench/run.py --workload all --seed 0 --out perfbench/out/a.jsonl

The untraced run (``--trace 0``) reports the end-to-end metrics and never
imports the tracing code. The traced run (``--trace 1``) repeats set-up
once under the wrappers of layers.py, then traces every other op and
reports per-layer values per traced op and the tracing overhead. The
last line of stdout is one JSON object: {"correct", "attempted",
"failed", "metrics"}. See README.md.
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402  (T_START must precede every import)
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(BENCH_DIR, "out")
WORKLOAD_NAMES = ("train_step", "infer_patch", "infer_global")
SETUP_REPS = 5            # set-ups per untraced run; setup_s is their median
TAIL_BEYOND = 10          # samples the tail percentile must leave above it
MB = 1e6

END_TO_END_UNITS = {"op_ms_p50": "ms", "op_ms_tail": "ms", "mpix_per_s": "Mpx/s",
                    "transient_mb": "MB", "rss_peak_mb": "MB", "setup_s": "s"}


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    ap.add_argument("--workload", required=True,
                    choices=WORKLOAD_NAMES + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=35.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", help="append a result record (JSON line) here")
    return ap.parse_args(argv)


def tail_percentile(values):
    """(value, percentile) at the highest whole percentile, by nearest
    rank, that leaves at least TAIL_BEYOND samples above it; the maximum
    at percentile 100 when even the median leaves fewer."""
    s = sorted(values)
    n = len(s)
    for q in range(99, 49, -1):
        rank = math.ceil(q * n / 100)
        if n - rank >= TAIL_BEYOND:
            return s[rank - 1], q
    return s[-1], 100


def _blas_threads():
    """Thread count reported by the loaded OpenBLAS, or None."""
    import ctypes
    try:
        with open("/proc/self/maps", "r", encoding="ascii",
                  errors="replace") as f:
            libs = {line.split()[-1] for line in f
                    if "blas" in line.lower() and ".so" in line}
    except OSError:
        return None
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _commit():
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head, "r", encoding="ascii") as f:
            ref = f.read().strip()
        if not ref.startswith("ref: "):
            return ref
        path = os.path.join(ROOT, ".git", ref[5:])
        if os.path.exists(path):
            with open(path, "r", encoding="ascii") as f:
                return f.read().strip()
        with open(os.path.join(ROOT, ".git", "packed-refs"), "r",
                  encoding="ascii") as f:
            for line in f:
                if line.rstrip().endswith(ref[5:]):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _cpu_model():
    try:
        with open("/proc/cpuinfo", "r", encoding="ascii", errors="replace") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def env_stamp(seed):
    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"commit": _commit(), "cpu": _cpu_model(), "numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": _blas_threads(),
            "nproc": os.cpu_count(),
            "cpus_usable": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "seed": seed}


def timed_loop(wl, seconds, inst=None):
    """Closed loop: run ops back to back until `seconds` have passed.

    Only ops that completed and passed their check contribute times and
    transients; the rest count as failed. With `inst`, every other op is
    traced: the wrappers are installed for that op alone, so traced and
    untraced ops share the same stretch of time and the overhead ratio is
    not skewed by drift in machine speed.
    """
    res = {"times": [], "traced_times": [], "transients": [], "attempted": 0,
           "failed": 0, "errors": [], "layers": []}
    start = time.perf_counter()
    deadline = start + seconds
    op = 1                      # op 0 is set-up
    while True:
        traced = inst is not None and op % 2 == 0
        if traced:
            inst.install()
            inst.start_op(op)
        res["attempted"] += 1
        try:
            dt, transient, out = wl.op()
            error = wl.check(out, transient)
        except Exception as exc:  # a failing op is counted, not fatal
            error = f"{type(exc).__name__}: {exc}"
        if traced:
            res["layers"].append(inst.op_metrics())
            inst.uninstall()
        if error:
            res["failed"] += 1
            if len(res["errors"]) < 5:
                res["errors"].append(error)
        else:
            res["traced_times" if traced else "times"].append(dt)
            res["transients"].append(transient)
        op += 1
        if time.perf_counter() >= deadline:
            break
    res["elapsed"] = time.perf_counter() - start
    return res


def _rss_peak_mb():
    import resource
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / MB


def run_workload(args):
    import workloads
    import_s = time.perf_counter() - T_START

    spec = workloads.WORKLOADS[args.workload]
    reference = workloads.load_reference().get(spec.name, {}).get(str(args.seed))
    workdir = os.path.join(OUT_DIR, f"work-{spec.name}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    wl = workloads.Workload(spec, args.seed, workdir, reference)
    attempted = failed = 0
    errors = []
    try:
        setup_times = []
        for _ in range(1 if args.trace else SETUP_REPS):
            dt, error, _ = wl.setup()
            setup_times.append(dt)
            attempted += 1
            if error:
                failed += 1
                errors.append(f"warm-up: {error}")
        if args.trace:
            phase, metrics, extra = traced_phase(wl, args)
        else:
            phase = timed_loop(wl, args.seconds)
            metrics, extra = end_to_end(wl, phase, import_s, setup_times)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    attempted += phase["attempted"]
    failed += phase["failed"]
    errors += phase["errors"]
    return {"workload": spec.name, "trace": args.trace,
            "stamp": env_stamp(args.seed), "attempted": attempted,
            "failed": failed, "failed_frac": failed / attempted,
            "errors": errors[:5], "metrics": metrics, **extra}


def end_to_end(wl, phase, import_s, setup_times):
    """End-to-end metrics, plus where the tail percentile landed."""
    times = phase["times"]
    if not times:
        return {}, {}
    tail, q = tail_percentile(times)
    metrics = {"op_ms_p50": statistics.median(times) * 1e3,
               "op_ms_tail": tail * 1e3,
               "mpix_per_s": len(times) * wl.pixels / MB / phase["elapsed"],
               "transient_mb": max(phase["transients"]) / MB,
               "rss_peak_mb": _rss_peak_mb(),
               "setup_s": import_s + statistics.median(setup_times)}
    return metrics, {"tail_percentile": q, "tail_samples": len(times)}


def traced_phase(wl, args):
    """Set up once traced, then measure with every other op traced."""
    import layers
    import spans

    tracer = spans.Tracer()
    inst = layers.Instrumentation(tracer)
    inst.install()
    try:
        inst.start_op(0)
        _, error, _ = wl.setup()
        harness = inst.setup_metrics()
    finally:
        inst.uninstall()
    phase = timed_loop(wl, args.seconds, inst=inst)
    if error:
        phase["attempted"] += 1
        phase["failed"] += 1
        phase["errors"].append(f"traced warm-up: {error}")
    per_op = phase["layers"]
    metrics = {name: sum(m[name] for m in per_op) / len(per_op)
               for name in per_op[0]} if per_op else {}
    metrics.update(harness)
    if phase["times"] and phase["traced_times"]:
        metrics["trace.overhead"] = (statistics.median(phase["traced_times"])
                                     / statistics.median(phase["times"]))
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, f"trace-{wl.spec.name}-seed{args.seed}.json")
    events = tracer.write_chrome(path, {"workload": wl.spec.name,
                                        "seed": args.seed})
    return phase, metrics, {"chrome_trace": path, "chrome_events": events,
                            "units": layers.PER_LAYER_UNITS}


def print_result(rec):
    units = rec.get("units", END_TO_END_UNITS)
    print(f"workload {rec['workload']}  seed {rec['stamp']['seed']}  "
          f"trace {rec['trace']}  attempted {rec['attempted']}  "
          f"failed {rec['failed']}")
    for name in units:
        if name not in rec["metrics"]:
            print(f"  {name:34s} {'missing':>14s}")
            continue
        value = rec["metrics"][name]
        note = ""
        if name == "op_ms_tail":
            note = (f"  (p{rec['tail_percentile']} of "
                    f"{rec['tail_samples']} samples)")
        print(f"  {name:34s} {value:14.6g} {units[name]}{note}")
    print(f"  {'failed_frac':34s} {rec['failed_frac']:14.6g} ratio  "
          f"({rec['failed']} of {rec['attempted']})")
    for error in rec["errors"]:
        print(f"  error: {error}")
    if "chrome_trace" in rec:
        print(f"  chrome trace: {rec['chrome_trace']} "
              f"({rec['chrome_events']} events)")
    print("  stamp: " + json.dumps(rec["stamp"], sort_keys=True))


def result_line(rec):
    units = rec.get("units", END_TO_END_UNITS)
    got = rec["metrics"]
    correct = rec["failed"] == 0 and all(n in got for n in units)
    return {"correct": correct, "attempted": rec["attempted"],
            "failed": rec["failed"],
            "metrics": {n: {"value": got[n], "unit": units[n]}
                        for n in units if n in got}}


def run_all(args):
    """Each workload in its own process, so RSS is its own."""
    results = {}
    ok = True
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        if args.out:
            cmd += ["--out", args.out]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.rstrip("\n").split("\n")
        print("\n".join(lines[:-1]))
        try:
            results[name] = json.loads(lines[-1])
        except json.JSONDecodeError:
            results[name] = None
        ok = ok and proc.returncode == 0 and bool(results[name])
    print(json.dumps(results))
    return 0 if ok else 1


def prepare():
    """Pin BLAS to one thread and put the checkout's sources first on the
    path; False when the checkout holds no dualseg sources."""
    # two shared cores: a second BLAS thread would measure the scheduler
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    if not os.path.isfile(os.path.join(SRC, "dualseg", "__init__.py")):
        print(f"no dualseg sources under {SRC}", file=sys.stderr)
        return False
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    return True


def main(argv=None):
    args = parse_args(argv)
    if not prepare():
        return 2
    if args.workload == "all":
        return run_all(args)
    rec = run_workload(args)
    if args.out:
        with open(args.out, "a", encoding="ascii") as f:
            f.write(json.dumps(rec, sort_keys=True) + "\n")
    print_result(rec)
    line = result_line(rec)
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
