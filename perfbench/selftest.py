#!/usr/bin/env python3
"""Self-test of the benchmark: exact counts repeat, and follow the seed.

    python3 perfbench/selftest.py                 # every workload
    python3 perfbench/selftest.py --workloads record-lulesh --seeds 3,4

For each workload this makes three traced runs (run.py --trace 1): two with
the first seed and one with the second. The exact counts below must be
identical between the two runs of the first seed, and the set of them must
differ on the second seed (the seed must reach the program's inputs). The
channel-queue high-water mark per rank is printed with its drift between
the two runs: it depends on scheduling, so it is not held to exactness.
Every run must also pass its output checks with no failed operation.
Exit status is 1 on any violation.
"""
import argparse
import json
import subprocess
import sys
from pathlib import Path

EXACT = [
    "trace.events",
    "codec.ratio",
    "mpisim.calls_per_rank_step",
    "mpisim.msgs_per_rank_step",
    "mpisim.bytes_per_rank_step",
    "mpisim.colls_per_rank_step",
    "minomp.regions_per_rank_step",
    "toolstack.events",
]
# The channel-queue high-water mark is counted exactly, but what it counts
# depends on scheduling: how many messages wait unmatched depends on which
# rank a worker ran first. Its drift is printed, not failed on.
SCHEDULED = ["mpisim.mem.bytes_per_rank"]
WORKLOADS = ["sim-16k", "record-lulesh", "whatif-serve"]


def traced_run(workload, seed, seconds):
    run_py = Path(__file__).resolve().parent / "run.py"
    proc = subprocess.run(
        [sys.executable, str(run_py), "--workload", workload, "--seed",
         str(seed), "--seconds", str(seconds), "--trace", "1"],
        stdout=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        return None
    return json.loads(proc.stdout.splitlines()[-1])


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workloads", default=",".join(WORKLOADS))
    ap.add_argument("--seeds", default="11,12", help="first,second seed")
    ap.add_argument("--seconds", type=float, default=1.0)
    args = ap.parse_args()
    a, b = (int(s) for s in args.seeds.split(","))

    ok = True
    for w in args.workloads.split(","):
        runs = [traced_run(w, seed, args.seconds) for seed in (a, a, b)]
        if any(r is None or not r["correct"] or r["failed"] for r in runs):
            print(f"{w}: FAIL a run failed or its output checks failed")
            ok = False
            continue
        vals = [{m: r["metrics"][m]["value"] for m in EXACT + SCHEDULED}
                for r in runs]
        drift = [m for m in EXACT if vals[0][m] != vals[1][m]]
        moved = [m for m in EXACT if vals[0][m] != vals[2][m]]
        if drift:
            print(f"{w}: FAIL not exact across two runs of seed {a}: "
                  + ", ".join(f"{m} {vals[0][m]!r} vs {vals[1][m]!r}"
                              for m in drift))
            ok = False
        if not moved:
            print(f"{w}: FAIL exact counts identical on seeds {a} and {b}")
            ok = False
        if not drift and moved:
            print(f"{w}: ok ({len(EXACT)} counts repeat; seed {b} moves "
                  + ", ".join(moved) + ")")
        for m in SCHEDULED:
            a0, a1 = vals[0][m], vals[1][m]
            rel = abs(a1 - a0) / a0 * 100 if a0 else 0.0
            print(f"{w}: {m} {a0:.6g} vs {a1:.6g} on seed {a} "
                  f"({rel:.2f}% apart; scheduling-dependent)")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
