"""Record the references the benchmark's output checks compare against.

    python3 perfbench/reference.py --seeds 0-63

For every seed, runs each workload's set-up (which ends with one op) and
stores the first training step's loss and gradient norm and each
inference workload's class map in reference.json. Record only from a
commit whose outputs are known good: later commits are held to them.
"""

import argparse
import json
import os
import shutil
import sys

import run


def parse_seeds(text):
    lo, _, hi = text.partition("-")
    return range(int(lo), int(hi or lo) + 1)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    ap.add_argument("--seeds", default="0-63", help="inclusive range, e.g. 0-63")
    args = ap.parse_args(argv)
    if not run.prepare():
        return 2
    import workloads

    doc = {"config": "preset_convergence", "commit": run._commit()}
    workdir = os.path.join(run.OUT_DIR, f"work-reference-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        for name, spec in workloads.WORKLOADS.items():
            entries = doc.setdefault(name, {})
            for seed in parse_seeds(args.seeds):
                wl = workloads.Workload(spec, seed, workdir, reference=None)
                _, error, out = wl.setup()
                if error:
                    print(f"{name} seed {seed}: {error}", file=sys.stderr)
                    return 1
                if spec.mode is None:
                    entries[str(seed)] = {"loss": out[0], "grad_norm": out[1]}
                else:
                    entries[str(seed)] = {"map": workloads.pack_map(out[0])}
            print(f"{name}: {len(entries)} seeds")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    with open(workloads.REFERENCE_PATH, "w", encoding="ascii") as f:
        json.dump(doc, f, indent=1, sort_keys=True)
        f.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
