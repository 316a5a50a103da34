"""Shared helpers of the benchmark scripts: BENCHMARK.json, ledgers, spreads.

A ledger is a JSON-lines file; run.py --ledger appends one line per run:
    {"workload": ..., "seed": ..., "trace": 0|1, "result": {...},
     "measured": {"setup_s": ..., "work_per_s": ..., "op_ms_p50": ...}}
"measured" holds the end-to-end timings before reference-speed scaling
(the driver's "as measured:" report line).
"""
import json
import statistics
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def parse_measured(lines):
    """{metric: value} from the "as measured: name=value ..." line."""
    for line in lines:
        if line.startswith("as measured: "):
            return {k: float(v) for k, v in
                    (kv.split("=") for kv in line.split()[2:])}
    return {}


def records(path):
    with open(path) as f:
        return [json.loads(line) for line in f if line.strip()]


def incorrect(path):
    """(workload, seed) of every run whose output checks or operations
    failed."""
    return [(r["workload"], r["seed"]) for r in records(path)
            if not r["result"]["correct"] or r["result"]["failed"]]


def load(path, trace=0):
    """{workload: {metric: [values in run order]}} for runs of one mode."""
    out = {}
    for rec in records(path):
        if rec["trace"] == trace:
            metrics = out.setdefault(rec["workload"], {})
            for name, m in rec["result"]["metrics"].items():
                metrics.setdefault(name, []).append(m["value"])
    return out


def quartiles(values):
    """(q1, median, q3) as statistics.quantiles(values, n=4) gives them."""
    if len(values) < 2:
        v = values[0] if values else 0.0
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values):
    """Inter-quartile distance as a share of the median."""
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / med if med else 0.0


def worse_by(parent, change, better):
    """How much worse `change` is than `parent`, as a share of `parent`
    (negative = better)."""
    if not parent:
        return 0.0
    d = (change - parent) / parent
    return d if better == "lower" else -d
