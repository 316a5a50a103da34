#!/usr/bin/env python3
"""Diff two benchmark ledgers per (metric, workload) against the bounds.

    python3 perfbench/compare.py parent.jsonl change.jsonl
    python3 perfbench/compare.py parent.jsonl change.jsonl --trace 1

Ledgers are the JSON-lines files run.py --ledger and sweep.py append to;
each side should hold several runs (seeds) of every workload. For each
end-to-end metric the verdict compares medians against the metric's bound
from BENCHMARK.json:

  WORSE       the change's median is worse than the parent's by more
              than the bound
  better      the change's median is better by more than the parent's own
              spread (inter-quartile distance / median)
  same        neither
  unresolved  the parent's own spread exceeds the bound, so a difference
              within it cannot be told from noise; reported as "better"
              only when every change run beats every parent run

With --trace 1 the per-layer metrics are listed with their medians and
the parent's spread; they have no bound and get no verdict. A change whose
ledger holds a run with failed output checks or failed operations is
INCORRECT, whatever its speed. Exit status is 1 when the change is
INCORRECT or any end-to-end verdict is WORSE.
"""
import argparse
import sys

sys.dont_write_bytecode = True
import ledger  # noqa: E402


def verdict(parent, change, better, bound):
    pm = ledger.quartiles(parent)[1]
    cm = ledger.quartiles(change)[1]
    worse = ledger.worse_by(pm, cm, better)
    spread = ledger.spread(parent)
    if spread > bound:
        beats = (max(change) < min(parent) if better == "lower"
                 else min(change) > max(parent))
        return "better" if beats else "unresolved"
    if worse > bound:
        return "WORSE"
    if -worse > spread:
        return "better"
    return "same"


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("parent")
    ap.add_argument("change")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    spec = ledger.spec()
    table = spec["per_layer" if args.trace else "end_to_end"]
    bad = ledger.incorrect(args.change)
    if bad:
        print("INCORRECT: output checks or operations failed on "
              + ", ".join(f"{w} seed {s}" for w, s in bad))
        return 1
    parent = ledger.load(args.parent, args.trace)
    change = ledger.load(args.change, args.trace)
    print(f"{'workload':14} {'metric':38} {'parent':>13} {'change':>13} "
          f"{'delta':>8} {'spread':>7} {'bound':>6}  verdict")
    worse = False
    for w in spec["workloads"]:
        name = w["name"]
        if name not in parent or name not in change:
            print(f"{name:14} (missing from one ledger)")
            continue
        for m in table:
            p = parent[name].get(m["name"], [])
            c = change[name].get(m["name"], [])
            if not p or not c:
                continue
            pm = ledger.quartiles(p)[1]
            cm = ledger.quartiles(c)[1]
            delta = (cm - pm) / pm * 100 if pm else 0.0
            bound = m.get("bound")
            v = verdict(p, c, m["better"], bound) if bound is not None else "-"
            worse |= v == "WORSE"
            print(f"{name:14} {m['name']:38} {pm:13.6g} {cm:13.6g} "
                  f"{delta:+7.2f}% {ledger.spread(p) * 100:6.2f}% "
                  f"{'' if bound is None else f'{bound * 100:5.1f}%':>6}  {v}"
                  f"  (n={len(p)}/{len(c)})")
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())
