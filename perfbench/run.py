"""sqglab benchmark: run one workload and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload sim-256-sparse --seed 3 --seconds 27 --trace 0

Every workload process is a fresh single-threaded Python with ``src`` on
``PYTHONPATH`` (the package need not be installed) that calls
``sqglab.cli.main`` with configs generated from ``--seed``; processes run
one after another, never side by side.

* ``--trace 0`` measures the end-to-end metrics: three timed processes,
  a third of ``--seconds`` each, whose set-ups are the set-up samples.
  Times are scaled to a reference host speed measured between calls (see
  ``worker.HostSpeed``); the unscaled times are kept in the full result.
* ``--trace 1`` measures the per-layer metrics: one untraced and one traced
  process, each for half of ``--seconds``; their ratio gives the tracing
  overhead.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The full result,
with machine facts and every timing, goes to
``.perfbench_work/<workload>-seed<seed>-trace<trace>/result.json``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORK_ROOT = ".perfbench_work"
#: The end-to-end run splits its time over this many fresh processes, one
#: after another.  Each gives a set-up sample, and their timed rounds are
#: pooled, since speed can differ from process to process as well.
PROCESSES = 3
#: Every process of one run must end within this many seconds.
TIME_LIMIT_S = 170.0
#: Workload times move as the host-speed factor to this power.  The
#: calibration kernel reacts more than the workloads do; 0.7 gave the
#: smallest worst spread over all four workloads (README.md, "Steadiness").
SPEED_EXPONENT = 0.7

#: Unit of work counted by ``work_per_s`` on each workload.
WORK_UNIT = {
    "sim-256-sparse": "steps",
    "sim-128-dense": "steps",
    "verify-all": "samples",
    "iterate-sweeps": "steps",
}

#: Grid sizes the workloads run at, for the computed working-set figures.
GRIDS = (128, 256)

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def _read(path: str) -> str:
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except OSError:
        return ""


def machine_facts() -> dict:
    """Host facts recorded beside every result."""
    model = next((line.split(":", 1)[1].strip()
                  for line in _read("/proc/cpuinfo").splitlines()
                  if line.startswith("model name")), platform.processor() or "unknown")
    caches = {}
    base = "/sys/devices/system/cpu/cpu0/cache"
    for entry in sorted(os.listdir(base)) if os.path.isdir(base) else ():
        level = _read(os.path.join(base, entry, "level")).strip()
        kind = _read(os.path.join(base, entry, "type")).strip()
        size = _read(os.path.join(base, entry, "size")).strip()
        if level in ("2", "3") and kind in ("Unified", "Data"):
            caches[f"L{level}"] = size
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "caches": caches,
        "platform": platform.platform(),
        # Computed from array shapes, not measured bandwidth: one n x n
        # complex128 coefficient array, the unit the solver copies.
        "working_set_computed_bytes": {
            f"{n}x{n}_complex128": 16 * n * n for n in GRIDS
        },
    }


def source_facts() -> dict:
    """Identify the code under test, with or without git."""
    digest = hashlib.sha256()
    for root, dirs, files in os.walk("src"):
        dirs.sort()
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(root, name)
                digest.update(path.encode())
                with open(path, "rb") as fh:
                    digest.update(fh.read())
    commit = "unknown (not a git checkout)"
    if os.path.isdir(".git") and shutil.which("git"):
        proc = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True)
        if proc.returncode == 0:
            commit = proc.stdout.strip()
    return {"git_commit": commit, "src_sha256": digest.hexdigest()}


def _spawn(workload, seed, seconds, mode, work_dir, tag, deadline) -> dict:
    """Run one worker process to completion and return its result."""
    os.makedirs(work_dir, exist_ok=True)
    result_path = os.path.join(work_dir, f"{tag}.json")
    env = dict(os.environ)
    env["PYTHONPATH"] = "src" + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in THREAD_VARS:
        env[var] = "1"
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--mode", mode, "--work-dir", work_dir, "--result", result_path]
    spawned_at = time.perf_counter()
    proc = subprocess.Popen(cmd + ["--spawned-at", repr(spawned_at)], env=env,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    try:
        _, stderr = proc.communicate(timeout=max(deadline - spawned_at, 1.0))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise RuntimeError(f"{tag} process ran past the {TIME_LIMIT_S:.0f} s limit")
    if proc.returncode != 0:
        raise RuntimeError(f"{tag} process exited {proc.returncode}:\n{stderr[-2000:]}")
    with open(result_path, encoding="utf-8") as fh:
        return json.load(fh)


def at_reference_speed(seconds: float, factor: float) -> float:
    """Scale a time measured at host-speed ``factor`` to the reference speed."""
    return seconds / factor**SPEED_EXPONENT


def scaled_rounds(run: dict) -> list:
    """Seconds each round of ``run`` took, at the reference host speed.

    Each call's time is scaled by the mean of the host-speed factors
    measured just before and just after it (``worker.HostSpeed``); see
    README.md, "Steadiness".
    """
    speed = iter(run["host_speed"])
    before = next(speed)
    rounds = []
    for r in run["rounds"]:
        total = 0.0
        for seconds in r["times"]:
            after = next(speed)
            total += at_reference_speed(seconds, (before + after) / 2.0)
            before = after
        rounds.append(total)
    return rounds


def round_wall(runs: list) -> float:
    """Mean seconds per round at the reference speed, over all ``runs``.

    The mean over rounds repeated better than a median or a minimum."""
    rounds = [t for run in runs for t in scaled_rounds(run)]
    return sum(rounds) / len(rounds)


def raw_round_wall(runs: list) -> float:
    """Mean measured seconds per round, not scaled to the reference speed."""
    rounds = [sum(r["times"]) for run in runs for r in run["rounds"]]
    return sum(rounds) / len(rounds)


def end_to_end(spawn, seconds) -> tuple:
    """Timed processes one after another: the end-to-end metrics."""
    processes = {f"run{i}": spawn(seconds / PROCESSES, "run", f"run{i}")
                 for i in range(PROCESSES)}
    runs = list(processes.values())
    wall = round_wall(runs)
    work = statistics.mean(r["work"] for run in runs for r in run["rounds"])
    setups = [at_reference_speed(p["setup_s"], p["setup_host_speed"]) for p in runs]
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "wall_s": (wall, "s"),
        "work_per_s": (work / wall, "1/s"),
        "peak_rss_mb": (statistics.median(p["peak_rss_mb"] for p in runs), "MB"),
    }
    return metrics, processes


def per_layer(spawn, seconds) -> tuple:
    """An untraced and a traced process, half the time each: per-layer metrics."""
    plain = spawn(seconds / 2.0, "run", "untraced")
    traced = spawn(seconds / 2.0, "trace", "traced")
    with open("BENCHMARK.json", encoding="utf-8") as fh:
        units = {m["name"]: m["unit"] for m in json.load(fh)["per_layer"]}
    layers = dict(traced["layers"])
    layers["trace.overhead"] = round_wall([traced]) / round_wall([plain]) - 1.0
    metrics = {name: (layers[name], unit) for name, unit in units.items()}
    return metrics, {"untraced": plain, "traced": traced}


def main(argv=None) -> int:
    deadline = time.perf_counter() + TIME_LIMIT_S
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(WORK_UNIT))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join("src", "sqglab", "cli.py")):
        print("error: run from the root of an sqglab checkout (src/sqglab not found)",
              file=sys.stderr)
        return 2

    work_dir = os.path.join(WORK_ROOT, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    shutil.rmtree(work_dir, ignore_errors=True)

    def spawn(seconds, mode, tag):
        return _spawn(args.workload, args.seed, seconds, mode, work_dir, tag, deadline)

    measure = per_layer if args.trace else end_to_end
    try:
        metrics, processes = measure(spawn, args.seconds)
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    timed = list(processes.values())
    attempted = sum(p["attempted"] for p in timed)
    failures = [f for p in timed for f in p["failures"]]
    failed = len(failures)
    full = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "work_unit": WORK_UNIT[args.workload],
        "machine": machine_facts(),
        "source": source_facts(),
        "versions": timed[0]["versions"],
        "threads_env": timed[0]["threads_env"],
        "error_rate": failed / attempted,
        "raw_wall_s": raw_round_wall(timed),
        "raw_setup_s": {tag: p["setup_s"] for tag, p in processes.items()},
        "failures": failures,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "processes": processes,
    }
    with open(os.path.join(work_dir, "result.json"), "w", encoding="utf-8") as fh:
        json.dump(full, fh, indent=1)

    for failure in failures[:10]:
        print(f"FAILED round {failure['round']} {failure['call']}: "
              f"{'; '.join(failure['reasons'])}")
    for name, (value, unit) in metrics.items():
        print(f"{name:44s} {value:14.6g} {unit}")
    if not args.trace:
        rate_name = f"{WORK_UNIT[args.workload]}_per_s"
        print(f"{rate_name:44s} {metrics['work_per_s'][0]:14.6g} 1/s")
        print(f"{'wall_s, not scaled to the reference speed':44s} "
              f"{full['raw_wall_s']:14.6g} s")
    print(f"{'error_rate':44s} {failed / attempted:14.6g} ratio ({failed} of {attempted} calls)")
    print(f"full result: {os.path.join(work_dir, 'result.json')}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": full["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
