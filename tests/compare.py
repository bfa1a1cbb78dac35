"""Compare two output trees file by file.

Usage, from the root of a checkout with ``src`` on ``PYTHONPATH``::

    python -m tests.compare A B

Prints one line per file of either tree: ``identical`` when the bytes are
the same, ``differs`` or ``only in A``/``only in B`` otherwise.  For a
differing CSV, JSON or ``.sqgf`` file it adds the largest relative gap
``|a - b| / max(|a|, |b|)`` of each CSV column, each numeric JSON leaf or
the ``.sqgf`` coefficients, and notes when the values are equal and only
the signs of zeros differ.  A JSON file is compared without the run
manifests' wall-clock keys (:data:`VOLATILE_KEYS`), so two manifests of the
same run compare identical.  Exits 0 when every file compares identical,
else 1.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
import sys
from dataclasses import dataclass, field

import numpy as np

from sqglab.spectral import _HEADER

#: Manifest keys that hold wall-clock data, dropped at any depth.
VOLATILE_KEYS = ("started_at", "finished_at", "timings")


@dataclass
class FileReport:
    """How one relative path compares: ``status`` is ``identical``,
    ``differs``, ``only in A`` or ``only in B``; ``gaps`` maps each column,
    leaf or part with a nonzero relative gap to its largest gap (``inf``
    for text that differs); ``notes`` says what else differs."""

    path: str
    status: str
    gaps: dict = field(default_factory=dict)
    notes: list = field(default_factory=list)


def relative_gap(a: float, b: float) -> float:
    """``|a - b| / max(|a|, |b|)``: 0 for equal values (and for two NaNs),
    ``inf`` when only one side is finite or NaN."""
    if a == b or (math.isnan(a) and math.isnan(b)):
        return 0.0
    if not (math.isfinite(a) and math.isfinite(b)):
        return math.inf
    return abs(a - b) / max(abs(a), abs(b))


def _value_gap(x, y) -> float:
    """:func:`relative_gap` of two cells or leaves that read as numbers,
    else 0 or ``inf`` as they are equal or not."""
    try:
        if isinstance(x, bool) or isinstance(y, bool):
            raise TypeError
        return relative_gap(float(x), float(y))
    except (TypeError, ValueError):
        return 0.0 if x == y else math.inf


def _csv_gaps(a: bytes, b: bytes, report: FileReport) -> None:
    rows_a = list(csv.reader(io.StringIO(a.decode())))
    rows_b = list(csv.reader(io.StringIO(b.decode())))
    if len(rows_a) != len(rows_b) or (rows_a and rows_a[0] != rows_b[0]):
        report.notes.append(f"header or row count differs ({len(rows_a)} vs {len(rows_b)} rows)")
        return
    header = rows_a[0] if rows_a else []
    for row_a, row_b in zip(rows_a[1:], rows_b[1:]):
        if len(row_a) != len(row_b):
            report.notes.append("a row has a different number of cells")
            return
        for i, (x, y) in enumerate(zip(row_a, row_b)):
            name = header[i] if i < len(header) else f"column {i}"
            gap = _value_gap(x, y)
            if gap > report.gaps.get(name, 0.0):
                report.gaps[name] = gap


def _strip(value):
    if isinstance(value, dict):
        return {k: _strip(v) for k, v in value.items() if k not in VOLATILE_KEYS}
    if isinstance(value, list):
        return [_strip(v) for v in value]
    return value


def _leaves(value, path: str = ""):
    if isinstance(value, dict):
        for k, v in value.items():
            yield from _leaves(v, f"{path}.{k}" if path else str(k))
    elif isinstance(value, list):
        for i, v in enumerate(value):
            yield from _leaves(v, f"{path}[{i}]")
    else:
        yield path, value


def _json_gaps(a: bytes, b: bytes, report: FileReport) -> bool:
    """Fill the gaps of two JSON documents; whether they are the same once
    the volatile keys are dropped."""
    doc_a, doc_b = _strip(json.loads(a)), _strip(json.loads(b))
    if json.dumps(doc_a, sort_keys=True) == json.dumps(doc_b, sort_keys=True):
        return True
    leaves_a, leaves_b = dict(_leaves(doc_a)), dict(_leaves(doc_b))
    if leaves_a.keys() != leaves_b.keys():
        report.notes.append("the documents hold different keys")
    for leaf in leaves_a.keys() & leaves_b.keys():
        gap = _value_gap(leaves_a[leaf], leaves_b[leaf])
        if gap > 0.0:
            report.gaps[leaf] = gap
    return False


def _sqgf_gaps(a: bytes, b: bytes, report: FileReport) -> None:
    size = _HEADER.size
    if a[:size] != b[:size]:
        report.gaps["header"] = math.inf
    if len(a) != len(b) or (len(a) - size) % 16:
        report.notes.append(f"payload sizes differ ({len(a)} vs {len(b)} bytes)")
        return
    # The modes' relative gaps, over those whose values differ.
    ca = np.frombuffer(a[size:], np.complex128)
    cb = np.frombuffer(b[size:], np.complex128)
    differ = (ca != cb) & ~(np.isnan(ca) & np.isnan(cb))
    if differ.any():
        x, y = ca[differ], cb[differ]
        with np.errstate(invalid="ignore"):
            gaps = np.abs(x - y) / np.maximum(np.abs(x), np.abs(y))
        report.gaps["coefficients"] = float(np.max(np.where(np.isnan(gaps), np.inf, gaps)))


def compare_file(path: str, a: bytes, b: bytes) -> FileReport:
    """The report on one file present in both trees."""
    if a == b:
        return FileReport(path, "identical")
    report = FileReport(path, "differs")
    suffix = os.path.splitext(path)[1]
    if suffix == ".json":
        if _json_gaps(a, b, report):
            report.status = "identical"
            report.notes.append("once the wall-clock keys are dropped")
            return report
    elif suffix == ".csv":
        _csv_gaps(a, b, report)
    elif suffix == ".sqgf":
        _sqgf_gaps(a, b, report)
    else:
        return report
    if not report.gaps and not report.notes:
        report.notes.append("the values are equal: only the signs of zeros differ")
    return report


def _files(root: str) -> set:
    found = set()
    for folder, _, names in os.walk(root):
        for name in names:
            found.add(os.path.relpath(os.path.join(folder, name), root))
    return found


def compare_trees(a: str, b: str) -> list:
    """A :class:`FileReport` for every relative path under either root."""
    files_a, files_b = _files(a), _files(b)
    reports = []
    for path in sorted(files_a | files_b):
        if path not in files_b:
            reports.append(FileReport(path, "only in A"))
        elif path not in files_a:
            reports.append(FileReport(path, "only in B"))
        else:
            with open(os.path.join(a, path), "rb") as fa, open(os.path.join(b, path), "rb") as fb:
                reports.append(compare_file(path, fa.read(), fb.read()))
    return reports


def main(argv: list | None = None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 2 or not all(os.path.isdir(arg) for arg in args):
        print("usage: python -m tests.compare A B  (two directories)", file=sys.stderr)
        return 2
    reports = compare_trees(*args)
    for report in reports:
        notes = f" ({'; '.join(report.notes)})" if report.notes else ""
        print(f"{report.status:<10} {report.path}{notes}")
        for name, gap in sorted(report.gaps.items(), key=lambda item: -item[1]):
            print(f"    {name}: largest relative gap {gap:.3e}")
    same = sum(report.status == "identical" for report in reports)
    print(f"{same} of {len(reports)} files identical")
    return 0 if same == len(reports) else 1


if __name__ == "__main__":
    sys.exit(main())
