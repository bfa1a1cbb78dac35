"""Artifact layer: reports, rate fits, traces, manifests."""

import hashlib
import json
import math

import numpy as np
import pytest

from sqglab.errors import UsageError
from sqglab.inequalities import LEMMAS
from sqglab.reports import (
    InequalityReport,
    IterateTrace,
    RunManifest,
    field_from_witness,
    fit_log2,
    manifest_from_json,
    report_from_json,
    sha256_of_file,
    witness_from_field,
    write_timeseries_csv,
)
from sqglab.sampling import band_limited_field
from sqglab.spectral import GridSpec


def sample_report(**overrides):
    base = dict(
        lemma_id="heat_decay",
        parameters={"gamma": 0.5, "j": 3},
        n_samples=10,
        measured_constant=0.88,
        theoretical_bound="unknown",
        verdict=True,
        seed=101,
        details={"c_by_block": [0.9, 0.88]},
    )
    base.update(overrides)
    return InequalityReport(**base)


def test_lemma_id_enum_is_closed(tmp_path):
    assert "heat_decay" in LEMMAS
    assert len(LEMMAS) == 11
    with pytest.raises(UsageError):
        sample_report(lemma_id="not_a_lemma")
    # A report read from disk is refused too.
    path = tmp_path / "r.json"
    sample_report().write_json(str(path))
    path.write_text(path.read_text().replace('"heat_decay"', '"not_a_lemma"'))
    with pytest.raises(UsageError, match="unknown lemma_id 'not_a_lemma'"):
        report_from_json(str(path))


def test_report_roundtrip(tmp_path):
    report = sample_report()
    path = tmp_path / "r.json"
    report.write_json(str(path))
    loaded = report_from_json(str(path))
    assert loaded.lemma_id == report.lemma_id
    assert loaded.verdict is True
    assert loaded.measured_constant == report.measured_constant
    assert loaded.details == {"c_by_block": [0.9, 0.88]}
    raw = json.loads(path.read_text())
    assert raw["verdict"] == "pass"
    assert raw["schema_version"] == 1


def test_report_serializes_numpy_and_inf(tmp_path):
    report = sample_report(
        measured_constant=float(np.float64(1.5)),
        details={"horizon": math.inf, "count": np.int64(3)},
    )
    path = tmp_path / "r.json"
    report.write_json(str(path))
    raw = json.loads(path.read_text())
    assert raw["details"]["horizon"] == "inf"
    assert raw["details"]["count"] == 3


def test_witness_field_roundtrip():
    rng = np.random.default_rng(0)
    field = band_limited_field(GridSpec(32), 6.0, rng)
    witness = witness_from_field(field, j=3)
    assert witness["j"] == 3
    back = field_from_witness(witness)
    assert back.grid == field.grid
    assert np.array_equal(back.coeffs, field.coeffs)


def test_fit_log2_recovers_slope():
    scales = np.array([4.0, 8.0, 16.0, 32.0])
    values = 3.0 * scales**-1.5
    fit = fit_log2(scales, values)
    assert fit.slope == pytest.approx(-1.5, abs=1e-12)
    assert fit.r_squared == pytest.approx(1.0)
    assert fit.intercept == pytest.approx(math.log2(3.0), abs=1e-12)


def test_fit_log2_rejects_bad_input():
    with pytest.raises(UsageError):
        fit_log2([2.0], [1.0])
    with pytest.raises(UsageError):
        fit_log2([2.0, 4.0], [1.0, -1.0])


def test_iterate_trace_outputs(tmp_path):
    fit = fit_log2([2.0, 4.0, 8.0], [1.0, 0.5, 0.25])
    trace = IterateTrace(
        scheme="galerkin",
        indices=[3, 4, 5],
        norms={"l2": [1.0, 1.1, 1.2]},
        diffs={"l2": [0.5, 0.25]},
        fits={"l2": fit},
        parameters={"gamma": 0.5},
    )
    csv_path = tmp_path / "t.csv"
    json_path = tmp_path / "t.json"
    trace.write_csv(str(csv_path))
    trace.write_json(str(json_path))
    lines = csv_path.read_text().strip().splitlines()
    assert lines[0].split(",")[0] == "index"
    assert len(lines) == 4
    raw = json.loads(json_path.read_text())
    assert raw["scheme"] == "galerkin"
    assert raw["fits"]["l2"]["slope"] == pytest.approx(-1.0)


def test_iterate_trace_writes_final_rows(tmp_path):
    trace = IterateTrace(
        scheme="picard",
        indices=[0, 1],
        norms={"l2": [1.0, 1.1]},
        diffs={"l2": [0.5]},
        final_norms={"l2": [0.9, 0.95]},
        final_diffs={"l2": [0.25]},
    )
    csv_path = tmp_path / "t.csv"
    json_path = tmp_path / "t.json"
    trace.write_csv(str(csv_path))
    trace.write_json(str(json_path))
    assert csv_path.read_text().splitlines() == [
        "index,l2,diff_l2,final_l2,final_diff_l2",
        "0,1,0.5,0.90000000000000002,0.25",
        "1,1.1000000000000001,,0.94999999999999996,",
    ]
    raw = json.loads(json_path.read_text())
    assert raw["final_norms"] == {"l2": [0.9, 0.95]}
    assert raw["final_diffs"] == {"l2": [0.25]}
    assert raw["norms"] == {"l2": [1.0, 1.1]} and raw["diffs"] == {"l2": [0.5]}


def test_timeseries_csv_rejects_ragged(tmp_path):
    with pytest.raises(UsageError):
        write_timeseries_csv(str(tmp_path / "x.csv"), {"t": [0, 1], "v": [1.0]})


def test_manifest_hashes_outputs(tmp_path):
    data = tmp_path / "out.bin"
    data.write_bytes(b"hello world")
    manifest = RunManifest(
        command=["simulate", "cfg.json"],
        config={"schema_version": 1},
        seed=7,
        artifact_version="0.1.0",
    )
    manifest.add_output(str(data))
    path = tmp_path / "m.json"
    manifest.write(str(path))
    loaded = manifest_from_json(str(path))
    entry = loaded["outputs"][0]
    assert entry["path"] == "out.bin"
    assert entry["bytes"] == 11
    assert entry["sha256"] == hashlib.sha256(b"hello world").hexdigest()
    assert sha256_of_file(str(data)) == entry["sha256"]
