"""The benchmark's own tests: its correctness gate can fail.

Run from the root of a checkout::

    python3 -m pytest -q perfbench/test_gate.py
"""

from __future__ import annotations

import argparse
import copy
import json
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import sqglab.cli  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402


def _reference(workload: str) -> dict:
    with open(os.path.join(HERE, "reference.json"), encoding="utf-8") as fh:
        return json.load(fh)["workloads"][workload]


def _one_round(tmp_path, workload: str, reference: dict) -> dict:
    calls, _ = workloads.WORKLOADS[workload](workloads.DEFAULT_SEED, str(tmp_path))
    args = argparse.Namespace(seconds=0.0)
    return worker.timed_rounds(args, calls, reference, sqglab.cli)


@pytest.fixture(scope="module")
def dense_reference():
    return _reference("sim-128-dense")


def test_unit_passes_against_its_reference(tmp_path, dense_reference):
    result = _one_round(tmp_path, "sim-128-dense", dense_reference)
    assert (result["attempted"], result["failed"]) == (1, 0), result["failures"]


def test_roundoff_drift_is_accepted(tmp_path, dense_reference):
    drifted = copy.deepcopy(dense_reference)
    for values in drifted.values():
        for name in values:
            values[name] *= 1.0 + 1e-12
    result = _one_round(tmp_path, "sim-128-dense", drifted)
    assert result["failed"] == 0, result["failures"]


def test_perturbed_reference_counts_as_failure(tmp_path, dense_reference):
    perturbed = copy.deepcopy(dense_reference)
    perturbed["sim"]["final_row.l2"] *= 1.0 + 1e-6
    result = _one_round(tmp_path, "sim-128-dense", perturbed)
    assert (result["attempted"], result["failed"]) == (1, 1)
    (failure,) = result["failures"]
    assert any("final_row.l2" in reason for reason in failure["reasons"])


def test_missing_reference_counts_as_failure(tmp_path):
    result = _one_round(tmp_path, "sim-128-dense", {})
    assert result["failed"] == 1


# Known defects at the commit that introduced the benchmark: these two
# lemma ids fail at their CLI defaults, so verify-all leaves them out.  The
# marks are strict, so a fix turns them into failures here, which is the
# cue to add the ids back to workloads.VERIFY_IDS.
@pytest.mark.xfail(strict=True, reason="1e-12 slack is below the round-off of "
                   "heavy-tailed samples; the default seed's verdict fails")
def test_ab_pointwise_passes_at_cli_defaults(tmp_path):
    assert sqglab.cli.main(["verify", "ab_pointwise", "--output-dir", str(tmp_path)]) == 0


@pytest.mark.xfail(strict=True, reason="the CLI builds data whose mass above "
                   "n0 is below eps0, which the check rejects as a usage error")
def test_spectral_mass_contraction_runs_at_cli_defaults(tmp_path):
    code = sqglab.cli.main(
        ["verify", "spectral_mass_contraction", "--output-dir", str(tmp_path)]
    )
    assert code == 0
