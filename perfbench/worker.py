"""One benchmark process: import sqglab, warm up, run timed rounds, gate them.

Started by ``run.py`` as a fresh single-threaded Python with ``src`` on
``PYTHONPATH``; it calls ``sqglab.cli.main`` in a closed loop (one call at a
time, the next starting when the previous returns) and writes its findings
as JSON to ``--result``.  Modes:

* ``run``: set up, then repeat the workload's round of calls until
  ``--seconds`` have passed;
* ``trace``: as ``run``, with the span recorder installed.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import spans  # noqa: E402  (needs HERE on sys.path)
import workloads  # noqa: E402


def _call(main, call, recorder=None) -> tuple:
    """Run one CLI call; returns (exit code, seconds, stderr text).

    With a recorder, spans are recorded for this call only, so the gate's
    own reads of the outputs stay out of the trace.
    """
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            if recorder is not None:
                recorder.active = True
            try:
                rc = main(call.argv)
            finally:
                if recorder is not None:
                    recorder.active = False
    except Exception:  # a crash is a failed unit, not a failed benchmark
        rc = -1
        err.write(traceback.format_exc())
    return rc, time.perf_counter() - start, err.getvalue()


class HostSpeed:
    """How slow the host runs right now, relative to a reference speed.

    The host's speed drifts by tens of percent over seconds to minutes
    (other tenants share its cores and caches).  ``factor()`` times two
    fixed kernels, numpy complex FFT round trips at 256^2 and a pure-Python
    loop, and returns their mean time relative to the reference host, so
    1.0 is the reference speed and 1.2 means the kernels ran 20 % slower.
    Timed between calls, it lets run.py scale each call to the reference
    speed; see README.md, "Steadiness".
    """

    #: Kernel seconds on the reference host (2-vCPU Xeon VM, family 6,
    #: model 207), medians of 80 samples.
    FFT_REF_S = 0.023
    PY_REF_S = 0.0098

    def __init__(self):
        import numpy as np

        self._fft2, self._ifft2 = np.fft.fft2, np.fft.ifft2
        self._field = np.exp(1j * np.arange(256 * 256, dtype=float).reshape(256, 256) / 7.0)
        self.factor()  # the first call also builds the FFT plan; discard it

    def factor(self) -> float:
        fft2, ifft2 = self._fft2, self._ifft2
        start = time.perf_counter()
        field = self._field
        for _ in range(10):
            field = ifft2(fft2(field))
        mid = time.perf_counter()
        total = 0
        for i in range(60000):
            total += i * i % 7
        end = time.perf_counter()
        return ((mid - start) / self.FFT_REF_S + (end - mid) / self.PY_REF_S) / 2.0


def _gate(call, rc, stderr, reference, first_digest) -> tuple:
    """Failure reasons of one finished call, plus its output digest."""
    try:
        failures = call.check(rc, stderr)
        digest = call.output_digest()
        if first_digest is not None and digest != first_digest:
            failures.append("outputs differ from the first round (not deterministic)")
        if reference is not None:
            failures += compare_reference(call.observe(), reference.get(call.name, {}))
    except Exception:  # unreadable outputs fail the unit
        failures = [f"gate error: {traceback.format_exc(limit=2).strip()[-300:]}"]
        digest = None
    return failures, digest


def compare_reference(observed: dict, reference: dict) -> list:
    """Mismatches between observed values and their pinned references."""
    rtol, atol = workloads.RTOL, workloads.ATOL
    if not reference:
        return ["no reference values stored for this call"]
    failures = []
    for name, want in sorted(reference.items()):
        got = observed.get(name)
        if got is None:
            failures.append(f"reference value {name} not produced")
        elif not abs(got - want) <= rtol * abs(want) + atol:
            failures.append(f"{name} = {got!r}, reference {want!r}")
    return failures


def load_reference(seed: int, workload: str):
    """Pinned values for ``workload``, or None off the default seed."""
    if seed != workloads.DEFAULT_SEED:
        return None
    with open(os.path.join(HERE, "reference.json"), encoding="utf-8") as fh:
        return json.load(fh)["workloads"].get(workload, {})


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", required=True, choices=("run", "trace"))
    parser.add_argument("--spawned-at", type=float, required=True,
                        help="parent's time.perf_counter() when it started this process")
    parser.add_argument("--work-dir", required=True)
    parser.add_argument("--result", required=True)
    args = parser.parse_args(argv)

    recorder = None
    if args.mode == "trace":
        recorder = spans.Recorder()
        spans.install_fft(recorder)
        spans.install_sqglab(recorder)
    import numpy
    import scipy
    import sqglab.cli

    calls, warmup = workloads.WORKLOADS[args.workload](args.seed, args.work_dir)
    for call in warmup:
        rc, _, stderr = _call(sqglab.cli.main, call)
        if rc == -1:
            print(f"warm-up crashed:\n{stderr}", file=sys.stderr)
            return 1
    setup_s = time.perf_counter() - args.spawned_at
    host = HostSpeed()
    result = {
        "setup_s": setup_s,
        "setup_host_speed": (host.factor() + host.factor()) / 2.0,
        "versions": {"numpy": numpy.__version__, "scipy": scipy.__version__,
                     "sqglab": sqglab.__version__, "python": sys.version.split()[0]},
        "threads_env": {k: v for k, v in os.environ.items() if k.endswith("_NUM_THREADS")},
    }
    reference = load_reference(args.seed, args.workload)
    result.update(timed_rounds(args, calls, reference, sqglab.cli, recorder, host))
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1)
    return 0


def timed_rounds(args, calls, reference, cli, recorder=None, host=None) -> dict:
    """Repeat the round of ``calls`` for ``args.seconds``, gating every call
    (against ``reference`` too, unless it is None)."""
    digests = [None] * len(calls)
    rounds, failures = [], []
    io_bytes = sqgf_bytes = 0
    if recorder is not None:
        cache_before = spans.symbol_cache_info()
    host = host or HostSpeed()
    speed = [host.factor()]
    start = time.perf_counter()
    last = 0.0
    # Start another round only while it would end within half a round of
    # the deadline, so a run lasts about --seconds however long a round is.
    while not rounds or time.perf_counter() - start + last / 2.0 < args.seconds:
        round_start = time.perf_counter()
        times, work = [], 0.0
        if recorder is not None:
            recorder.round = len(rounds)
        for k, call in enumerate(calls):
            rc, seconds, stderr = _call(cli.main, call, recorder)
            speed.append(host.factor())
            reasons, digest = _gate(call, rc, stderr, reference, digests[k])
            if digests[k] is None:
                digests[k] = digest
            if reasons:
                failures.append({"round": len(rounds), "call": call.name,
                                 "reasons": reasons})
            else:
                work += call.work()
            times.append(seconds)
            io_bytes += call.output_bytes()
            sqgf_bytes += call.output_bytes(".sqgf")
        last = time.perf_counter() - round_start
        rounds.append({"times": times, "work": work})
    out = {
        "calls": [c.name for c in calls],
        "rounds": rounds,
        "host_speed": speed,
        "attempted": len(rounds) * len(calls),
        "failed": len(failures),
        "failures": failures,
    }
    if recorder is not None:
        hits, misses = (a - b for a, b in zip(spans.symbol_cache_info(), cache_before))
        n = len(rounds)
        layer = spans.layer_metrics(recorder.spans, n, workloads.VERIFY_IDS)
        layer["spectral.symbol_cache_misses"] = misses / n
        layer["spectral.symbol_cache_hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
        layer["spectral.io_mb"] = sqgf_bytes / 2**20 / n
        layer["cli.io_mb"] = io_bytes / 2**20 / n
        out["layers"] = layer
        recorder.write(os.path.join(args.work_dir, "spans.csv.gz"))
    return out


if __name__ == "__main__":
    sys.exit(main())
