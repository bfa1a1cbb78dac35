"""Regenerate reference.json: one gated round of every workload at the default seed.

Run from the root of a checkout::

    python3 perfbench/make_reference.py

Only regenerate when a change is meant to alter results beyond round-off,
and say so in the change's description.
"""

from __future__ import annotations

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, "src"]

import run  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402


def main() -> int:
    import sqglab.cli

    pinned = {}
    for name, build in workloads.WORKLOADS.items():
        work_dir = os.path.join(run.WORK_ROOT, "reference", name)
        calls, _ = build(workloads.DEFAULT_SEED, work_dir)
        pinned[name] = {}
        for call in calls:
            rc, _, stderr = worker._call(sqglab.cli.main, call)
            failures = call.check(rc, stderr)
            if failures:
                print(f"{name} {call.name} fails its gate: {failures}", file=sys.stderr)
                return 1
            pinned[name][call.name] = call.observe()
    document = {
        "seed": workloads.DEFAULT_SEED,
        "source": run.source_facts(),
        "rtol": workloads.RTOL,
        "atol": workloads.ATOL,
        "workloads": pinned,
    }
    with open(os.path.join(HERE, "reference.json"), "w", encoding="utf-8") as fh:
        json.dump(document, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
