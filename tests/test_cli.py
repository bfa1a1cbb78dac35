"""Command-line harness: exit codes, artifacts, determinism, precedence."""

import json
import subprocess
import sys

import pytest

from sqglab.cli import main
from sqglab.reports import manifest_from_json, sha256_of_file


def write_config(path, **overrides):
    config = {
        "schema_version": 1,
        "grid": {"n": 32},
        "solver": {
            "nu": 1.0,
            "gamma": 0.5,
            "dt": 2e-3,
            "t_final": 0.01,
            "output_stride": 1,
        },
        "initial_data": {
            "kind": "power_law",
            "alpha": 2.7,
            "seed": 11,
            "normalize": "l2",
            "amplitude": 0.5,
        },
        "output": {"prefix": "run"},
    }
    for key, value in overrides.items():
        if isinstance(value, dict):
            config.setdefault(key, {}).update(value)
        else:
            config[key] = value
    path.write_text(json.dumps(config))
    return path


def test_simulate_writes_artifacts(tmp_path):
    cfg = write_config(tmp_path / "sim.json")
    out = tmp_path / "out"
    assert main(["simulate", str(cfg), "--output-dir", str(out)]) == 0
    series = out / "run_series.csv"
    final = out / "run_final.sqgf"
    manifest_path = out / "run_manifest.json"
    assert series.exists() and final.exists() and manifest_path.exists()
    manifest = manifest_from_json(str(manifest_path))
    by_name = {entry["path"]: entry for entry in manifest["outputs"]}
    assert by_name["run_series.csv"]["sha256"] == sha256_of_file(str(series))
    assert by_name["run_final.sqgf"]["sha256"] == sha256_of_file(str(final))
    assert manifest["config"]["aborted"] is False


def test_simulate_determinism_except_manifest(tmp_path):
    cfg = write_config(tmp_path / "sim.json")
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    assert main(["simulate", str(cfg), "--output-dir", str(out_a)]) == 0
    assert main(["simulate", str(cfg), "--output-dir", str(out_b)]) == 0
    for name in ("run_series.csv", "run_final.sqgf"):
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()
    ma = json.loads((out_a / "run_manifest.json").read_text())
    mb = json.loads((out_b / "run_manifest.json").read_text())
    # command records argv, so the two output dirs make it differ by design
    for key in ("started_at", "finished_at", "timings", "command"):
        ma.pop(key), mb.pop(key)
    assert ma == mb


def test_flags_override_config(tmp_path):
    cfg = write_config(tmp_path / "sim.json")
    out = tmp_path / "out"
    code = main(
        ["simulate", str(cfg), "--output-dir", str(out),
         "--grid", "16", "--gamma", "1.0", "--seed", "99"]
    )
    assert code == 0
    manifest = json.loads((out / "run_manifest.json").read_text())
    resolved = manifest["config"]["resolved"]
    assert resolved["grid"]["n"] == 16
    assert resolved["solver"]["gamma"] == 1.0
    assert resolved["seed"] == 99


def test_manifest_records_galerkin_n_and_j0(tmp_path):
    cfg = write_config(tmp_path / "sim.json", solver={"galerkin_n": 3, "j0": 2})
    out = tmp_path / "out"
    assert main(["simulate", str(cfg), "--output-dir", str(out)]) == 0
    manifest = json.loads((out / "run_manifest.json").read_text())
    solver = manifest["config"]["resolved"]["solver"]
    assert solver["galerkin_n"] == 3
    assert solver["j0"] == 2
    plain = write_config(tmp_path / "plain.json")
    assert main(["simulate", str(plain), "--output-dir", str(tmp_path / "p")]) == 0
    manifest = json.loads((tmp_path / "p" / "run_manifest.json").read_text())
    solver = manifest["config"]["resolved"]["solver"]
    assert solver["galerkin_n"] is None and solver["j0"] is None


def test_output_dir_from_environment(tmp_path, monkeypatch):
    cfg = write_config(tmp_path / "sim.json")
    env_dir = tmp_path / "from_env"
    monkeypatch.setenv("SQGLAB_OUTPUT_DIR", str(env_dir))
    assert main(["simulate", str(cfg)]) == 0
    assert (env_dir / "run_series.csv").exists()


def test_gamma_out_of_range_exits_one(tmp_path, capsys):
    cfg = write_config(tmp_path / "sim.json", solver={"gamma": 3.0})
    assert main(["simulate", str(cfg), "--output-dir", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert "(0, 2]" in err


def test_overflow_guard_exits_two(tmp_path, capsys):
    cfg = write_config(
        tmp_path / "sim.json",
        solver={"gamma": 1.0, "dt": 0.01, "t_final": 1000.0},
    )
    assert main(["simulate", str(cfg), "--output-dir", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert "OverflowGuardError" in err


def test_cfl_abort_exits_two_with_partial_series(tmp_path, capsys):
    cfg = write_config(
        tmp_path / "sim.json",
        solver={"nu": 0.001, "dt": 0.01, "t_final": 0.1},
        initial_data={"amplitude": 200.0, "normalize": "l2"},
    )
    out = tmp_path / "out"
    assert main(["simulate", str(cfg), "--output-dir", str(out)]) == 2
    assert "CFL" in capsys.readouterr().err
    assert (out / "run_series.csv").exists()
    manifest = json.loads((out / "run_manifest.json").read_text())
    assert manifest["config"]["aborted"] is True


def test_config_file_errors_exit_one(tmp_path, capsys):
    assert main(["simulate", str(tmp_path / "missing.json")]) == 1
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["simulate", str(bad)]) == 1
    wrong = tmp_path / "wrong.json"
    wrong.write_text(json.dumps({"schema_version": 99}))
    assert main(["simulate", str(wrong)]) == 1
    capsys.readouterr()


def test_verify_passing_lemmas(tmp_path):
    out = str(tmp_path)
    assert main(["verify", "coercivity_q", "--q", "4", "--gamma", "1",
                 "--n-samples", "40", "--output-dir", out]) == 0
    assert main(["verify", "counterexample_gamma2", "--output-dir", out]) == 0
    assert main(["verify", "phase_lower_bound", "--gamma", "1",
                 "--output-dir", out]) == 0
    report = json.loads((tmp_path / "verify_coercivity_q.json").read_text())
    assert report["verdict"] == "pass"
    assert report["lemma_id"] == "coercivity_q"


def test_verify_failing_verdict_exits_one(tmp_path):
    # gamma=2 power kink is under-resolved on a 64 grid: ordering slack trips
    code = main(["verify", "coercivity_q", "--q", "8", "--gamma", "2",
                 "--grid", "64", "--n-samples", "40",
                 "--output-dir", str(tmp_path)])
    assert code == 1
    report = json.loads((tmp_path / "verify_coercivity_q.json").read_text())
    assert report["verdict"] == "fail"


def test_verify_j_flag_reaches_coercivity(tmp_path):
    args = ["verify", "coercivity_q", "--grid", "32", "--n-samples", "3",
            "--output-dir", str(tmp_path)]
    path = tmp_path / "verify_coercivity_q.json"
    main(args + ["--j", "3"])
    assert json.loads(path.read_text())["parameters"]["j"] == 3
    main(args)
    assert json.loads(path.read_text())["parameters"]["j"] == 2


def test_verify_unknown_lemma_exits_one(capsys):
    assert main(["verify", "definitely_not_a_lemma"]) == 1
    assert "unknown lemma id" in capsys.readouterr().err


def test_iterate_writes_trace(tmp_path):
    cfg = write_config(
        tmp_path / "it.json",
        iterate={"n_min": 1, "n_max": 3},
        output={"prefix": "sweep"},
    )
    out = tmp_path / "out"
    assert main(["iterate", "galerkin", str(cfg), "--output-dir", str(out)]) == 0
    assert (out / "sweep_trace.csv").exists()
    trace = json.loads((out / "sweep_trace.json").read_text())
    assert trace["scheme"] == "galerkin"
    assert trace["indices"] == [1, 2, 3]
    manifest = json.loads((out / "sweep_manifest.json").read_text())
    assert {e["path"] for e in manifest["outputs"]} == {
        "sweep_trace.csv", "sweep_trace.json"
    }


def test_iterate_guard_exits_one(tmp_path, capsys):
    cfg = write_config(tmp_path / "it.json", iterate={"n_min": 1, "n_max": 9})
    assert main(["iterate", "galerkin", str(cfg), "--output-dir", str(tmp_path)]) == 1
    assert "dyadic range" in capsys.readouterr().err


def test_norms_reads_field(tmp_path, capsys):
    cfg = write_config(tmp_path / "sim.json")
    out = tmp_path / "out"
    assert main(["simulate", str(cfg), "--output-dir", str(out)]) == 0
    capsys.readouterr()
    assert main(["norms", str(out / "run_final.sqgf"), "--gamma", "0.5"]) == 0
    table = json.loads(capsys.readouterr().out)
    assert table["grid_n"] == 32
    assert table["l2"] > 0.0
    assert table["h_crit"] > table["l2"]


def test_bad_subcommand_exits_one(capsys):
    assert main(["explode"]) == 1
    capsys.readouterr()


def test_module_entrypoint_help():
    proc = subprocess.run(
        [sys.executable, "-m", "sqglab.cli", "--help"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "simulate" in proc.stdout and "verify" in proc.stdout
