"""Structured results: inequality reports, rate fits, run manifests.

Every container serializes to JSON with a schema version so downstream
tooling can detect format drift.  Numbers are written with full precision;
rerunning a seeded check must reproduce the JSON byte for byte (timestamps
are allowed only in run manifests).
"""

from __future__ import annotations

import base64
import hashlib
import json
import math
import os
from dataclasses import dataclass, field

import numpy as np

from .errors import UsageError

SCHEMA_VERSION = 1


def _jsonable(value):
    """Coerce numpy scalars/arrays to plain python for json.dumps."""
    if isinstance(value, (np.floating, np.integer)):
        return value.item()
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, float) and math.isinf(value):
        # JSON has no Infinity literal; keep output standard.
        return "inf" if value > 0 else "-inf"
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    return value


def witness_from_field(field_obj, **extra) -> dict:
    """Serialize an extremal sample alongside the value it achieved."""
    from .spectral import field_to_bytes

    payload = {"field_b64": base64.b64encode(field_to_bytes(field_obj)).decode("ascii")}
    payload.update(extra)
    return payload


def field_from_witness(witness: dict):
    from .spectral import field_from_bytes

    if "field_b64" not in witness:
        raise UsageError("witness carries no serialized field")
    return field_from_bytes(base64.b64decode(witness["field_b64"]), origin="<witness>")


@dataclass(frozen=True)
class InequalityReport:
    """Outcome of one numerical inequality check.

    ``measured_constant`` is the extremal (usually worst-case) value of the
    quantity the check monitors; ``theoretical_bound`` is the constant the
    verdict compares against, or ``"unknown"`` when the underlying estimate
    only asserts an implicit constant.
    """

    lemma_id: str
    parameters: dict
    n_samples: int
    measured_constant: float
    theoretical_bound: float | str
    verdict: bool
    seed: int | None = None
    details: dict = field(default_factory=dict)
    witness: dict | None = None

    def __post_init__(self) -> None:
        from .inequalities import LEMMAS  # imported here: it imports this module

        if self.lemma_id not in LEMMAS:
            raise UsageError(f"unknown lemma_id {self.lemma_id!r}")

    def to_dict(self) -> dict:
        return {
            "schema_version": SCHEMA_VERSION,
            "lemma_id": self.lemma_id,
            "parameters": _jsonable(self.parameters),
            "n_samples": int(self.n_samples),
            "measured_constant": _jsonable(self.measured_constant),
            "theoretical_bound": _jsonable(self.theoretical_bound),
            "verdict": "pass" if self.verdict else "fail",
            "seed": self.seed,
            "details": _jsonable(self.details),
            "witness": _jsonable(self.witness) if self.witness is not None else None,
        }

    def write_json(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")


def report_from_json(path: str) -> InequalityReport:
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    if data.get("schema_version") != SCHEMA_VERSION:
        raise UsageError(f"{path}: unsupported report schema")
    return InequalityReport(
        lemma_id=data["lemma_id"],
        parameters=data["parameters"],
        n_samples=data["n_samples"],
        measured_constant=data["measured_constant"],
        theoretical_bound=data["theoretical_bound"],
        verdict=data["verdict"] == "pass",
        seed=data["seed"],
        details=data.get("details", {}),
        witness=data.get("witness"),
    )


@dataclass(frozen=True)
class RateFit:
    """Least-squares fit of log2(value) against log2(scale)."""

    slope: float
    intercept: float
    r_squared: float
    log2_x: tuple
    log2_y: tuple

    def to_dict(self) -> dict:
        return {
            "slope": self.slope,
            "intercept": self.intercept,
            "r_squared": self.r_squared,
            "log2_x": list(self.log2_x),
            "log2_y": list(self.log2_y),
        }


def fit_log2(scales, values) -> RateFit:
    """Fit values ~ C * scale^slope; scales and values must be positive."""
    xs = np.asarray(scales, dtype=np.float64)
    ys = np.asarray(values, dtype=np.float64)
    if xs.shape != ys.shape or xs.ndim != 1 or xs.size < 2:
        raise UsageError("rate fit needs two 1-d arrays of equal length >= 2")
    if np.any(xs <= 0.0) or np.any(ys <= 0.0):
        raise UsageError("rate fit requires positive scales and values")
    lx = np.log2(xs)
    ly = np.log2(ys)
    slope, intercept = np.polyfit(lx, ly, 1)
    pred = slope * lx + intercept
    ss_res = float(np.sum((ly - pred) ** 2))
    ss_tot = float(np.sum((ly - np.mean(ly)) ** 2))
    r_sq = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return RateFit(float(slope), float(intercept), r_sq, tuple(lx), tuple(ly))


@dataclass
class IterateTrace:
    """Per-iterate norm tables from an approximation scheme.

    ``norms[label][i]`` is the named norm of iterate i; ``diffs[label][i]``
    the norm of the difference between iterates i+1 and i.  Both are sups
    over the stored times; ``final_norms`` and ``final_diffs`` hold the same
    norms at the final time alone, which see the time stepping even when
    every sup is taken at t = 0.  Rate fits are attached by the producing
    routine.
    """

    scheme: str
    indices: list
    norms: dict = field(default_factory=dict)
    diffs: dict = field(default_factory=dict)
    fits: dict = field(default_factory=dict)
    parameters: dict = field(default_factory=dict)
    final_norms: dict = field(default_factory=dict)
    final_diffs: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "schema_version": SCHEMA_VERSION,
            "scheme": self.scheme,
            "indices": list(self.indices),
            "norms": _jsonable(self.norms),
            "diffs": _jsonable(self.diffs),
            "fits": {k: v.to_dict() for k, v in self.fits.items()},
            "parameters": _jsonable(self.parameters),
            "final_norms": _jsonable(self.final_norms),
            "final_diffs": _jsonable(self.final_diffs),
        }

    def write_json(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")

    def write_csv(self, path: str) -> None:
        columns = [
            (f"{prefix}{lab}", table[lab])
            for prefix, table in (("", self.norms), ("diff_", self.diffs),
                                  ("final_", self.final_norms),
                                  ("final_diff_", self.final_diffs))
            for lab in sorted(table)
        ]
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(",".join(["index"] + [name for name, _ in columns]) + "\n")
            for row, idx in enumerate(self.indices):
                cells = [str(idx)] + [
                    "%.17g" % col[row] if row < len(col) else "" for _, col in columns
                ]
                fh.write(",".join(cells) + "\n")


def sha256_of_file(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


@dataclass
class RunManifest:
    """Provenance record for one CLI run; written last, atomically.

    The manifest is the completion marker: consumers may treat any run
    directory without one as aborted.  Wall-clock fields and ``timings``
    are the only outputs allowed to differ between reruns of the same
    seeded command; ``timings`` also holds the run's cache hit and miss
    counts, which depend on what ran before it in the same process.
    """

    command: list
    config: dict
    seed: int | None
    artifact_version: str
    outputs: list = field(default_factory=list)
    timings: dict = field(default_factory=dict)
    started_at: str = ""
    finished_at: str = ""

    def add_output(self, path: str) -> None:
        self.outputs.append(
            {
                "path": os.path.basename(path),
                "bytes": os.path.getsize(path),
                "sha256": sha256_of_file(path),
            }
        )

    def to_dict(self) -> dict:
        return {
            "schema_version": SCHEMA_VERSION,
            "command": list(self.command),
            "config": _jsonable(self.config),
            "seed": self.seed,
            "artifact_version": self.artifact_version,
            "outputs": self.outputs,
            "timings": _jsonable(self.timings),
            "started_at": self.started_at,
            "finished_at": self.finished_at,
        }

    def write(self, path: str) -> None:
        tmp = path + ".tmp"
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump(self.to_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")
        os.replace(tmp, path)


def write_timeseries_csv(path: str, columns: dict) -> None:
    """Write named columns of equal length; first key is the leading column."""
    keys = list(columns)
    if not keys:
        raise UsageError("no columns to write")
    length = len(columns[keys[0]])
    for k in keys:
        if len(columns[k]) != length:
            raise UsageError(f"column {k!r} length mismatch")
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(keys) + "\n")
        for i in range(length):
            fh.write(",".join("%.17g" % float(columns[k][i]) for k in keys) + "\n")


def manifest_from_json(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    if data.get("schema_version") != SCHEMA_VERSION:
        raise UsageError(f"{path}: unsupported manifest schema")
    return data
