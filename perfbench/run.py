#!/usr/bin/env python3
"""Run one mpisect benchmark workload and print its result.

    python3 perfbench/run.py --workload sim-16k --seed 1 --seconds 20 --trace 0

Run it from the root of a checkout. It first builds the driver
(perfbench/CMakeLists.txt, which compiles the library sources under src/)
into $CARGO_TARGET_DIR, or .bench_build when that is unset; an up-to-date
build costs about a second. Then it runs the named workload and passes its
report through. The last line of standard output is the JSON result:

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

--trace 0 prints the end-to-end metrics of BENCHMARK.json, --trace 1 the
per-layer ones (the traced run: span log, probe tools, scheduler timing).
The traced run's span log is kept as <build>/spans/<workload>-seed<N>.json.

The driver prints a "digest <name> <hex>" line for each output it checks
(sim-16k final virtual times, .mpstz and telemetry CSV bytes, the served
trace). When perfbench/digests.json holds digests for the workload and
seed, every one of them must match, or the result is incorrect.
--update-digests stores the run's digests there instead: do that only when
a change is meant to alter the outputs, and say so.

--ledger FILE appends {"workload", "seed", "trace", "result"} as one JSON
line to FILE, the input of sweep.py and compare.py.

Exit status is non-zero, with no result printed, when the build fails, the
driver fails, or its result does not name exactly the metrics that
BENCHMARK.json lists. It is also non-zero when an output check fails: the
result is printed with "correct": false and is not added to the ledger.
"""
import argparse
import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

sys.dont_write_bytecode = True
import ledger  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent
DIGESTS = BENCH_DIR / "digests.json"
RUN_TIMEOUT_S = 170
DIGEST_LINE = re.compile(r"^digest (\S+) ([0-9a-f]{16})$")


def build_dir():
    return ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")


def build(out):
    """Configure (first time) and build the driver; returns its path."""
    out.mkdir(parents=True, exist_ok=True)
    log_path = out / "perfbench-build.log"
    with open(log_path, "w") as log:
        if not any((out / f).exists() for f in ("build.ninja", "Makefile")):
            cmd = ["cmake", "-S", str(BENCH_DIR), "-B", str(out),
                   "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
            if shutil.which("ninja"):
                cmd += ["-G", "Ninja"]
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                              cwd=ROOT).returncode != 0:
                return None
        cmd = ["cmake", "--build", str(out), "--target", "mpisect_perfbench",
               "-j", str(len(os.sched_getaffinity(0)))]
        if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                          cwd=ROOT).returncode != 0:
            return None
    return out / "mpisect_perfbench"


def expected_metrics(trace):
    table = ledger.spec()["per_layer" if trace else "end_to_end"]
    return {m["name"]: m["unit"] for m in table}


def check_result(line, trace):
    """Parse the driver's last line; None if it breaks the contract."""
    try:
        res = json.loads(line)
    except json.JSONDecodeError:
        return None
    if set(res) != {"correct", "attempted", "failed", "metrics"}:
        return None
    want = expected_metrics(trace)
    got = {k: v.get("unit") for k, v in res["metrics"].items()}
    if got != want:
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        print(f"run.py: metrics differ from BENCHMARK.json "
              f"(missing {missing}, extra {extra}, or units differ)",
              file=sys.stderr)
        return None
    return res


def check_digests(lines, workload, seed, update):
    """Compare the run's digest lines with the stored ones for the seed;
    returns report lines, one "CHECK FAILED" line per mismatch. With
    `update`, store the run's digests instead."""
    got = dict(m.groups() for m in map(DIGEST_LINE.match, lines) if m)
    table = json.loads(DIGESTS.read_text()) if DIGESTS.exists() else {}
    if update:
        table.setdefault(workload, {})[str(seed)] = got
        DIGESTS.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
        return []
    want = table.get(workload, {}).get(str(seed))
    if want is None:
        return [f"digests: none stored for {workload} seed {seed}"]
    bad = [f"CHECK FAILED: digest {name} is {got.get(name)}, stored {value}"
           for name, value in sorted(want.items()) if got.get(name) != value]
    return bad or [f"digests: {len(want)} match the stored ones"]


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--ledger", help="append the result to this JSONL file")
    ap.add_argument("--update-digests", action="store_true",
                    help="store this run's output digests for its seed")
    args = ap.parse_args()

    out = build_dir()
    exe = build(out)
    if exe is None:
        log = out / "perfbench-build.log"
        tail = log.read_text().splitlines()[-20:] if log.exists() else []
        print("run.py: build failed\n" + "\n".join(tail), file=sys.stderr)
        return 1

    work = out / f"work-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        cmd = [str(exe), "--workload", args.workload, "--seed",
               str(args.seed), "--seconds", str(args.seconds), "--trace",
               str(args.trace), "--workdir", str(work)]
        try:
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                                  timeout=RUN_TIMEOUT_S, cwd=ROOT)
        except subprocess.TimeoutExpired:
            print(f"run.py: {args.workload} exceeded {RUN_TIMEOUT_S} s",
                  file=sys.stderr)
            return 1
        lines = proc.stdout.rstrip("\n").split("\n")
        if proc.returncode != 0 or not lines:
            sys.stdout.write(proc.stdout)
            print(f"run.py: driver exited with {proc.returncode}",
                  file=sys.stderr)
            return 1
        res = check_result(lines[-1], args.trace == 1)
        if res is None:
            print("\n".join(lines[:-1]))
            return 1
        for span_file in work.glob("*.spans.json"):
            spans = out / "spans"
            spans.mkdir(exist_ok=True)
            shutil.copy(span_file, spans / f"{args.workload}-seed{args.seed}.json")
    finally:
        shutil.rmtree(work, ignore_errors=True)

    report = check_digests(lines[:-1], args.workload, args.seed,
                           args.update_digests and res["correct"])
    if any(line.startswith("CHECK FAILED") for line in report):
        res["correct"] = False
    print("\n".join(lines[:-1] + report))
    print(json.dumps(res, separators=(",", ":")))
    if not res["correct"]:
        print("run.py: an output check failed", file=sys.stderr)
        return 1
    if args.ledger:
        rec = {"workload": args.workload, "seed": args.seed,
               "trace": args.trace, "result": res,
               "measured": ledger.parse_measured(lines)}
        with open(args.ledger, "a") as f:
            f.write(json.dumps(rec) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
