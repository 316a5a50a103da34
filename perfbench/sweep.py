#!/usr/bin/env python3
"""Run workloads over several seeds and report each metric's spread.

    python3 perfbench/sweep.py --seeds 1-10 --ledger runs.jsonl
    python3 perfbench/sweep.py --seeds 1-5 --workloads sim-16k

Each run goes through run.py with BENCHMARK.json's run_seconds (or
--seconds), and its result is appended to the ledger (compare.py's input).
The report covers the runs of this invocation only. For every end-to-end
metric the report gives the median, the quartiles (statistics.quantiles,
n=4) and their distance as a share of the median, next to the metric's
bound: "steady" below a third of the bound, "ok" below the bound, "WIDE"
above it (set-up time is exempt from the spread rule). The "measured"
column is the spread of the same timings before reference-speed scaling
(record-lulesh, the one workload that scales them).
Exit status is 1 if a run fails or a spread other than set-up time is
WIDE.
"""
import argparse
import json
import subprocess
import sys
from pathlib import Path

sys.dont_write_bytecode = True
import ledger  # noqa: E402


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def report(runs, spec):
    ok = True
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    print(f"{'workload':14} {'metric':14} {'median':>14} {'q1':>14} "
          f"{'q3':>14} {'spread':>8} {'measured':>8} {'bound':>6}  verdict")
    for workload, metrics in runs.items():
        for name, m in bounds.items():
            values = metrics.get(name, [])
            if not values:
                continue
            q1, med, q3 = ledger.quartiles(values)
            s = ledger.spread(values)
            raw = metrics.get("measured " + name)
            raw = f"{ledger.spread(raw):8.4f}" if raw else f"{'':8}"
            b = m["bound"]
            verdict = "steady" if s < b / 3 else "ok" if s <= b else "WIDE"
            if name == "setup_s":
                verdict += " (exempt)"
            elif verdict == "WIDE":
                ok = False
            print(f"{workload:14} {name:14} {med:14.6g} {q1:14.6g} "
                  f"{q3:14.6g} {s:8.4f} {raw} {b:6.3f}  {verdict}")
    return ok


def main():
    spec = ledger.spec()
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 3,5,8")
    ap.add_argument("--workloads",
                    default=",".join(w["name"] for w in spec["workloads"]))
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    ap.add_argument("--ledger", default=str(ledger.ROOT / ".bench_build" /
                                            "sweep.jsonl"))
    args = ap.parse_args()

    run_py = Path(__file__).resolve().parent / "run.py"
    runs = {}
    for workload in args.workloads.split(","):
        for seed in parse_seeds(args.seeds):
            cmd = [sys.executable, str(run_py), "--workload", workload,
                   "--seed", str(seed), "--seconds", str(args.seconds),
                   "--trace", "0", "--ledger", args.ledger]
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                                  cwd=ledger.ROOT)
            res = json.loads(proc.stdout.splitlines()[-1]) \
                if proc.returncode == 0 else None
            if res is None or not res["correct"] or res["failed"]:
                print(f"sweep.py: {workload} seed {seed} failed",
                      file=sys.stderr)
                return 1
            metrics = runs.setdefault(workload, {})
            for name, m in res["metrics"].items():
                metrics.setdefault(name, []).append(m["value"])
            for name, v in ledger.parse_measured(
                    proc.stdout.splitlines()).items():
                metrics.setdefault("measured " + name, []).append(v)
            print(f"  {workload} seed {seed} done", file=sys.stderr)
    return 0 if report(runs, spec) else 1


if __name__ == "__main__":
    sys.exit(main())
