"""Compare two sets of benchmark results against BENCHMARK.json's bounds.

    python3 perfbench/compare.py BASE.jsonl CHANGE.jsonl

Each file holds result records appended by ``run.py --out`` (untraced
runs; traced records are skipped). For every workload x end-to-end
metric it prints both sides' median and quartiles, the change of the
median as a share of the base median (positive = worse), the base spread
(interquartile distance over median) and a verdict:

- unresolved: either side's spread exceeds the bound, and not every
  change run reads better than every base run;
- regressed:  the change median is worse than the base median by more
  than the bound;
- unchanged:  otherwise (a better median is reported as unchanged).

More failed ops on the change side than on the base side also counts as
a regression.

Stamps must agree on numpy version and BLAS thread count, or the
comparison is refused (exit 2). Exit 1 when anything regressed.
"""

import argparse
import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
STAMP_KEYS = ("numpy", "blas_threads")


def load(path):
    with open(path, "r", encoding="ascii") as f:
        recs = [json.loads(line) for line in f if line.strip()]
    return [r for r in recs if not r["trace"]]


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(base, change, bound, better):
    sign = 1 if better == "lower" else -1
    b1, bm, b3 = quartiles(base)
    c1, cm, c3 = quartiles(change)
    worse = sign * (cm - bm) / bm
    spread = max((b3 - b1) / bm, (c3 - c1) / cm)
    if spread > bound:
        all_better = (max(change) < min(base) if better == "lower"
                      else min(change) > max(base))
        return worse, spread, "unchanged" if all_better else "unresolved"
    return worse, spread, "regressed" if worse > bound else "unchanged"


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    ap.add_argument("base")
    ap.add_argument("change")
    args = ap.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json"), "r", encoding="ascii") as f:
        bench = json.load(f)
    base, change = load(args.base), load(args.change)
    if not base or not change:
        print("compare: a result set holds no untraced records", file=sys.stderr)
        return 2
    for key in STAMP_KEYS:
        seen = {json.dumps(r["stamp"].get(key)) for r in base + change}
        if len(seen) > 1:
            print(f"compare: stamps differ in {key}: {sorted(seen)}; refusing",
                  file=sys.stderr)
            return 2

    regressed = False
    print(f"{'workload':13s} {'metric':13s} {'base q1/med/q3':>30s} "
          f"{'change q1/med/q3':>30s} {'worse':>8s} {'spread':>7s} "
          f"{'bound':>6s}  verdict")
    for w in bench["workloads"]:
        for m in bench["end_to_end"]:
            name = m["name"]
            b = [r["metrics"][name] for r in base
                 if r["workload"] == w["name"] and name in r["metrics"]]
            c = [r["metrics"][name] for r in change
                 if r["workload"] == w["name"] and name in r["metrics"]]
            if not b or not c:
                continue
            worse, spread, v = verdict(b, c, m["bound"], m["better"])
            regressed |= v == "regressed"
            fmt = "{:.4g}/{:.4g}/{:.4g}"
            print(f"{w['name']:13s} {name:13s} "
                  f"{fmt.format(*quartiles(b)):>30s} "
                  f"{fmt.format(*quartiles(c)):>30s} {worse:+8.2%} "
                  f"{spread:7.2%} {m['bound']:6.2f}  {v}")
        fb = sum(r["failed"] for r in base if r["workload"] == w["name"])
        fc = sum(r["failed"] for r in change if r["workload"] == w["name"])
        if fb or fc:
            print(f"{w['name']:13s} failed ops: base {fb}, change {fc}"
                  + ("  regressed" if fc > fb else ""))
            regressed |= fc > fb
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
