"""Repeat the benchmark over several seeds and summarise each metric's spread.

Run from the root of a checkout::

    python3 perfbench/collect.py --seeds 0-9 --out perfbench/baseline.json

For every workload it runs ``run.py`` once per seed (untraced), then once
traced at the default seed, and reports each end-to-end metric's median
and quartile spread (``statistics.quantiles(values, n=4)``, as a share of
the median) against the metric's bound in ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run as bench  # noqa: E402
import workloads  # noqa: E402


def _seeds(text: str) -> list:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def _once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def spread(values: list) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "iqr_share": (q3 - q1) / statistics.median(values)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workloads", default=",".join(bench.WORK_UNIT))
    parser.add_argument("--seeds", default="0-9")
    parser.add_argument("--seconds", type=int, default=None,
                        help="default: run_seconds from BENCHMARK.json")
    parser.add_argument("--no-trace", action="store_true")
    parser.add_argument("--out", default=None)
    args = parser.parse_args(argv)
    with open("BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    seconds = args.seconds or spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    summary, ok = {}, True
    for workload in args.workloads.split(","):
        runs = {seed: _once(workload, seed, seconds, 0) for seed in _seeds(args.seeds)}
        entry = {"runs": runs, "metrics": {}}
        for name, bound in bounds.items():
            stats = spread([r["metrics"][name]["value"] for r in runs.values()])
            stats["bound"] = bound
            entry["metrics"][name] = stats
            flag = "" if name == "setup_s" or stats["iqr_share"] < bound / 3 else "  WIDE"
            ok = ok and not flag
            print(f"{workload:16s} {name:12s} median {stats['median']:12.6g} "
                  f"spread {stats['iqr_share']:7.4f} (bound {bound}){flag}", flush=True)
        rate = entry["metrics"]["work_per_s"]["median"]
        print(f"{workload:16s} {bench.WORK_UNIT[workload] + '_per_s':12s} median {rate:12.6g}")
        failed = sum(r["failed"] for r in runs.values())
        attempted = sum(r["attempted"] for r in runs.values())
        print(f"{workload:16s} error_rate   {failed / attempted:.6g} ({failed} of {attempted} calls)")
        ok = ok and failed == 0
        if not args.no_trace:
            entry["traced"] = _once(workload, workloads.DEFAULT_SEED, seconds, 1)
        summary[workload] = entry

    if args.out:
        document = {
            "seconds": seconds,
            "seeds": _seeds(args.seeds),
            "machine": bench.machine_facts(),
            "source": bench.source_facts(),
            "workloads": summary,
        }
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(document, fh, indent=1, sort_keys=True)
            fh.write("\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
