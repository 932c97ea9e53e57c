"""Smoke test of the benchmark itself, at minimal run length.

    python3 perfbench/smoke.py

Exits 0 only when, for every workload, the untraced and the traced run
pass every output check and report exactly the end-to-end / per-layer
names and units of BENCHMARK.json with finite values (end-to-end ones
nonzero), and the layers that should be idle or busy on that workload
are; when an untraced run changes no dualseg attribute and `uninstall`
restores every attribute `install` replaced; and when the benchmark, copied
without the sources, exits nonzero without printing a result.
"""

import json
import math
import os
import shutil
import subprocess
import sys
import tempfile
from types import SimpleNamespace

import run

SECONDS = "2"
# per workload: (metric, predicate) pairs the traced values must satisfy
LAYER_EXPECTATIONS = {
    "train_step": (("autodiff.backward_ms", lambda v: v > 0),
                   ("model.adam_ms", lambda v: v > 0),
                   ("tiling.tiles", lambda v: v == 9),
                   ("model.tile_passes", lambda v: v == 1)),
    "infer_patch": (("autodiff.backward_ms", lambda v: v == 0),
                    ("autodiff.tape_records", lambda v: v == 0),
                    ("tiling.tiles", lambda v: v == 64),
                    ("model.tile_passes", lambda v: v == 2),
                    ("metrics.accumulate_ms", lambda v: v > 0)),
    "infer_global": (("autodiff.backward_ms", lambda v: v == 0),
                     ("tiling.tiles", lambda v: v == 1),
                     ("attention.mask_kept_frac", lambda v: v == 1.0),
                     ("model.self_attention.fwd_ms", lambda v: v > 0)),
}


def bench_run(workload, trace, cwd=run.ROOT):
    cmd = [sys.executable, os.path.join(cwd, "perfbench", "run.py"),
           "--workload", workload, "--seed", "0", "--seconds", SECONDS,
           "--trace", str(trace)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=180)


def check_result(workload, trace, specs, problems):
    proc = bench_run(workload, trace)
    tag = f"{workload} trace {trace}"
    try:
        line = json.loads(proc.stdout.strip().split("\n")[-1])
    except (json.JSONDecodeError, IndexError):
        problems.append(f"{tag}: no result line (exit {proc.returncode}) "
                        f"{proc.stderr.strip()[-300:]}")
        return
    if set(line) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{tag}: result keys {sorted(line)}")
    if proc.returncode != 0 or not line["correct"] or line["failed"]:
        problems.append(f"{tag}: exit {proc.returncode}, correct "
                        f"{line['correct']}, failed {line['failed']}")
    got = line["metrics"]
    if list(got) != [s["name"] for s in specs]:
        problems.append(f"{tag}: names differ from BENCHMARK.json: "
                        f"{sorted(set(got) ^ {s['name'] for s in specs})}")
    for s in specs:
        m = got.get(s["name"])
        if m is None:
            continue
        v = m["value"]
        if m["unit"] != s["unit"] or not isinstance(v, (int, float)) \
                or not math.isfinite(v) or (not trace and v == 0):
            problems.append(f"{tag}: {s['name']} = {m}")
    if trace:
        for name, ok in LAYER_EXPECTATIONS[workload]:
            if name in got and not ok(got[name]["value"]):
                problems.append(f"{tag}: {name} = {got[name]['value']}")


def snapshot():
    """Identity of every callable attribute of the dualseg modules, of the
    classes they define, and of the allocation ledger instance."""
    from dualseg.memory import LEDGER

    def callables(ns):
        return {k: id(v) for k, v in vars(ns).items()
                if callable(v) or isinstance(v, (classmethod, staticmethod))}

    ids = {("LEDGER", k): v for k, v in callables(LEDGER).items()}
    for name, mod in list(sys.modules.items()):
        if not name.startswith("dualseg"):
            continue
        ids.update({(name, k): v for k, v in callables(mod).items()})
        for attr, value in vars(mod).items():
            if isinstance(value, type) and value.__module__ == name:
                ids.update({(name, attr, k): v
                            for k, v in callables(value).items()})
    return ids


def check_wrappers(problems):
    import workloads  # noqa: F401  (imports every dualseg module used)
    before = snapshot()
    args = SimpleNamespace(workload="infer_patch", seed=0, seconds=0.5,
                           trace=0, out=None)
    rec = run.run_workload(args)
    if rec["failed"] or "layers" in sys.modules or snapshot() != before:
        problems.append("untraced run failed or changed dualseg attributes")
    import layers
    import spans
    inst = layers.Instrumentation(spans.Tracer())
    inst.install()
    changed = sum(1 for k, v in snapshot().items() if before.get(k) != v)
    inst.uninstall()
    if not changed or snapshot() != before:
        problems.append(f"install changed {changed} attributes; uninstall "
                        f"did not restore them all")


def check_without_sources(problems):
    os.makedirs(run.OUT_DIR, exist_ok=True)
    tmp = tempfile.mkdtemp(prefix="bare-", dir=run.OUT_DIR)
    try:
        shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp)
        shutil.copytree(run.BENCH_DIR, os.path.join(tmp, "perfbench"),
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
        proc = bench_run("train_step", 0, cwd=tmp)
        if proc.returncode == 0 or "{" in proc.stdout:
            problems.append(f"bare copy: exit {proc.returncode}, "
                            f"stdout {proc.stdout[-200:]!r}")
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def main():
    if not run.prepare():
        return 2
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), "r",
              encoding="ascii") as f:
        bench = json.load(f)
    problems = []
    for w in bench["workloads"]:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            check_result(w["name"], trace, bench[key], problems)
    check_wrappers(problems)
    check_without_sources(problems)
    for p in problems:
        print("FAIL", p)
    print("smoke:", "FAIL" if problems else "ok")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
