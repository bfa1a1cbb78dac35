"""The output-tree comparison tool, ``python -m tests.compare A B``."""

import json
import shutil

import numpy as np
import pytest

from sqglab.cli import main as sqglab_main
from sqglab.spectral import _HEADER

from compare import compare_trees, main


def test_compare_finds_reruns_identical_and_reports_a_mode_gap(tmp_path, monkeypatch, capsys):
    # Both runs write to the same relative directory, so their manifests
    # record the same command and differ only in wall-clock keys.
    monkeypatch.chdir(tmp_path)
    config = {"schema_version": 1, "grid": {"n": 64}, "solver": {"t_final": 0.008},
              "initial_data": {"seed": 0}}
    (tmp_path / "sim.json").write_text(json.dumps(config))
    for name in ("a", "b"):
        assert sqglab_main(["simulate", "sim.json", "--output-dir", "out"]) == 0
        shutil.move("out", name)
    assert {r.status for r in compare_trees("a", "b")} == {"identical"}
    assert main(["a", "b"]) == 0

    shutil.copytree("b", "c")
    final = tmp_path / "c" / "run_final.sqgf"
    blob = final.read_bytes()
    coeffs = np.frombuffer(blob[_HEADER.size :], np.complex128).copy()
    big = int(np.argmax(np.abs(coeffs)))
    coeffs[big] *= 1.0 + 1e-6
    zero = int(np.flatnonzero(coeffs == 0.0)[0])
    final.write_bytes(blob[: _HEADER.size] + coeffs.tobytes())
    (report,) = [r for r in compare_trees("a", "c") if r.status != "identical"]
    assert report.path == "run_final.sqgf"
    assert report.gaps == {"coefficients": pytest.approx(1e-6, rel=1e-5)}
    capsys.readouterr()
    assert main(["a", "c"]) == 1
    assert "coefficients: largest relative gap 1.000e-06" in capsys.readouterr().out

    coeffs[big] = np.frombuffer(blob[_HEADER.size :], np.complex128)[big]
    coeffs[zero] = -coeffs[zero]
    final.write_bytes(blob[: _HEADER.size] + coeffs.tobytes())
    (report,) = [r for r in compare_trees("a", "c") if r.status != "identical"]
    assert not report.gaps and "only the signs of zeros differ" in report.notes[0]
