"""Command-line harness: exit codes, artifacts, determinism, precedence."""

import inspect
import json
import math
import os
import pathlib
import subprocess
import sys

import pytest

from sqglab.cli import VERIFY_CHECKS, build_parser, main
from sqglab.reports import LEMMA_IDS, manifest_from_json, sha256_of_file
from sqglab.solver import _factor_tables
from sqglab.spectral import _dealias_block


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


@pytest.mark.parametrize("key", ["galerkin_n", "j0"])
def test_a_block_index_past_the_partition_exits_one(tmp_path, capsys, key):
    for value, relation in ((2000, "<="), (-2000, ">=")):
        cfg = write_config(tmp_path / "sim.json", grid={"n": 16}, solver={key: value})
        assert main(["simulate", str(cfg), "--output-dir", str(tmp_path)]) == 1
        assert f"{key} must be {relation}" in capsys.readouterr().err


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
    wrong.write_text(json.dumps({"schema_version": 1, "grid": 5}))
    assert main(["simulate", str(wrong)]) == 1
    assert "'grid' must be a JSON object" in capsys.readouterr().err


# One misspelt key per section; "config" is the top level.
@pytest.mark.parametrize("section, key", [
    ("config", "sovler"), ("grid", "dealias"), ("solver", "t_finl"),
    ("initial_data", "amplitdue"), ("iterate", "n_maximum"), ("output", "save_snapshot"),
])
def test_unknown_config_keys_exit_one(tmp_path, capsys, section, key):
    override = {key: {}} if section == "config" else {section: {key: 0.5}}
    cfg = write_config(tmp_path / "cfg.json", **override)
    for command in (["simulate", str(cfg)], ["iterate", "galerkin", str(cfg)]):
        assert main([*command, "--output-dir", str(tmp_path)]) == 1
        assert f"unknown {section} keys: ['{key}']" in capsys.readouterr().err
    assert not list(tmp_path.glob("*_manifest.json"))


# Per kind, a key that only other kinds read: it would be ignored.
@pytest.mark.parametrize("kind, key, value", [
    ("power_law", "k_max", 5.0), ("band_limited", "alpha", 2.7), ("block", "mode", [1, 1]),
    ("low_pass", "k_cut", 4.0), ("single_mode", "j", 3),
])
def test_initial_data_keys_the_kind_does_not_read_exit_one(tmp_path, capsys, kind, key,
                                                            value):
    cfg = write_config(tmp_path / "cfg.json")
    config = json.loads(cfg.read_text())
    config["initial_data"] = {"kind": kind, "seed": 3, "normalize": "l2", "amplitude": 0.5}
    cfg.write_text(json.dumps(config))
    out = tmp_path / "out"
    assert main(["simulate", str(cfg), "--output-dir", str(out)]) == 0
    config["initial_data"][key] = value
    cfg.write_text(json.dumps(config))
    out = tmp_path / "stray"
    assert main(["simulate", str(cfg), "--output-dir", str(out)]) == 1
    assert f"unknown initial_data keys: ['{key}']" in capsys.readouterr().err
    assert not out.exists()


def test_unknown_initial_data_kind_exits_one(tmp_path, capsys):
    cfg = write_config(tmp_path / "cfg.json", initial_data={"kind": "spiral"})
    assert main(["simulate", str(cfg), "--output-dir", str(tmp_path / "out")]) == 1
    assert "unknown initial_data kind 'spiral'" in capsys.readouterr().err


# One value of the wrong type per section.
@pytest.mark.parametrize("section, key, value", [
    ("grid", "n", "abc"), ("solver", "nu", "x"), ("initial_data", "alpha", "x"),
    ("iterate", "n_min", "x"),
])
def test_wrong_config_value_types_exit_one(tmp_path, capsys, section, key, value):
    cfg = write_config(tmp_path / "cfg.json", **{section: {key: value}})
    command = ["iterate", "galerkin"] if section == "iterate" else ["simulate"]
    assert main([*command, str(cfg), "--output-dir", str(tmp_path)]) == 1
    assert f"config {section}.{key} must be" in capsys.readouterr().err
    assert not list(tmp_path.glob("*_manifest.json"))


# An int key takes no bool and no number with a fractional part.
@pytest.mark.parametrize("section, key, value", [
    ("grid", "n", 16.9), ("solver", "output_stride", 1.7), ("grid", "n", True),
    ("initial_data", "seed", False),
])
def test_int_config_keys_reject_fractions_and_bools(tmp_path, capsys, section, key, value):
    cfg = write_config(tmp_path / "cfg.json", **{section: {key: value}})
    out = tmp_path / "out"
    assert main(["simulate", str(cfg), "--output-dir", str(out)]) == 1
    assert f"config {section}.{key} must be int, got {value!r}" in capsys.readouterr().err
    assert not out.exists()


# A float key takes no bool and no NaN, as the JSON literal or as a string.
@pytest.mark.parametrize("section, key, value", [
    ("solver", "nu", True), ("grid", "period", True), ("initial_data", "alpha", False),
    ("solver", "nu", math.nan), ("solver", "dt", "nan"), ("grid", "period", "NaN"),
    ("iterate", "s0", math.nan), ("iterate", "s0", True),
])
def test_float_config_keys_reject_bools_and_nan(tmp_path, capsys, section, key, value):
    cfg = write_config(tmp_path / "cfg.json", **{section: {key: value}})
    command = ["iterate", "galerkin"] if section == "iterate" else ["simulate"]
    out = tmp_path / "out"
    assert main([*command, str(cfg), "--output-dir", str(out)]) == 1
    assert f"config {section}.{key} must be float, got {value!r}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("value", ["inf", "Infinity", math.inf])
def test_float_config_keys_take_infinity(tmp_path, value):
    # Picard's q = inf is the sup-norm row the benchmark's config asks for.
    cfg = write_config(tmp_path / "cfg.json",
                       iterate={"n_min": 0, "n_max": 1, "p": value, "q": value})
    out = tmp_path / "out"
    assert main(["iterate", "picard", str(cfg), "--output-dir", str(out)]) == 0
    resolved = json.loads((out / "run_manifest.json").read_text())["config"]["resolved"]
    assert resolved["iterate"]["p"] == resolved["iterate"]["q"] == "inf"


# Keys that only mean something finite refuse an infinity where their
# object is built, with a usage error naming the key: an infinite dt would
# run no step, t_final and s0 would end in a traceback or an inf column, and
# amplitude would multiply the data into NaN, with numpy warnings.
@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("command, section, key", [
    ("simulate", "solver", "dt"), ("simulate", "solver", "t_final"),
    ("iterate", "solver", "t_final"), ("simulate", "solver", "nu"),
    ("simulate", "grid", "period"), ("iterate", "iterate", "s0"),
    ("simulate", "initial_data", "amplitude"), ("iterate", "initial_data", "amplitude"),
])
def test_keys_that_need_a_finite_value_exit_one_on_infinity(tmp_path, capsys, command,
                                                           section, key):
    sections = {"grid": {"n": 16}, "iterate": {"n_min": 0, "n_max": 1}}
    sections.setdefault(section, {})[key] = "inf"
    cfg = write_config(tmp_path / "cfg.json", **sections)
    argv = ["simulate"] if command == "simulate" else ["iterate", "galerkin"]
    assert main([*argv, str(cfg), "--output-dir", str(tmp_path)]) == 1
    assert f"{key} must be" in capsys.readouterr().err


def test_a_grid_past_max_grid_n_exits_one_naming_it(tmp_path, capsys):
    cfg = write_config(tmp_path / "cfg.json", grid={"n": 4096})
    assert main(["simulate", str(cfg), "--output-dir", str(tmp_path)]) == 1
    assert "grid.n must be even in 8..MAX_GRID_N = 1024, got 4096" in capsys.readouterr().err
    assert not (tmp_path / "run_manifest.json").exists()


# An amplitude of 1e300 would overflow where a diagnostics row squares the
# state; the row's amplitude guard aborts the run first, with no numpy
# warning on the way.
@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("command", ["simulate", "iterate"])
def test_a_huge_amplitude_aborts_at_the_guard_before_any_overflow(tmp_path, capsys,
                                                                  command):
    cfg = write_config(tmp_path / "cfg.json", grid={"n": 16},
                       initial_data={"amplitude": 1e300},
                       iterate={"n_min": 0, "n_max": 1})
    argv = ["simulate"] if command == "simulate" else ["iterate", "galerkin"]
    assert main([*argv, str(cfg), "--output-dir", str(tmp_path)]) == 2
    assert "OverflowGuardError" in capsys.readouterr().err


def test_int_config_keys_accept_integral_floats(tmp_path):
    cfg = write_config(tmp_path / "cfg.json", grid={"n": 16.0},
                       solver={"output_stride": 2.0})
    out = tmp_path / "out"
    assert main(["simulate", str(cfg), "--output-dir", str(out)]) == 0
    resolved = json.loads((out / "run_manifest.json").read_text())["config"]["resolved"]
    assert resolved["grid"]["n"] == 16 and isinstance(resolved["grid"]["n"], int)
    assert resolved["solver"]["output_stride"] == 2
    assert isinstance(resolved["solver"]["output_stride"], int)


# prefix must be a non-empty string, the save flags JSON booleans; each
# command checks them before it writes anything.
@pytest.mark.parametrize("key, value", [
    ("prefix", None), ("prefix", ""), ("prefix", 3), ("save_final_state", "no"),
    ("save_snapshots", 1),
])
def test_wrong_output_value_types_exit_one(tmp_path, capsys, key, value):
    cfg = write_config(tmp_path / "cfg.json", output={key: value},
                       iterate={"n_min": 0, "n_max": 1})
    out = tmp_path / "out"
    for command in (["simulate"], ["iterate", "galerkin"], ["iterate", "picard"]):
        assert main([*command, str(cfg), "--output-dir", str(out)]) == 1
        assert f"config output.{key} must be" in capsys.readouterr().err
        assert not out.exists()


@pytest.mark.parametrize("key", ["p", "q"])
def test_iterate_p_and_q_apply_to_picard_only(tmp_path, capsys, key):
    # Galerkin rows take their Besov indices from the solver section, so a
    # set iterate.p or iterate.q would be recorded but never used.
    cfg = write_config(tmp_path / "it.json", iterate={"n_min": 0, "n_max": 1, key: 1.0})
    out = tmp_path / "out"
    assert main(["iterate", "galerkin", str(cfg), "--output-dir", str(out)]) == 1
    assert "apply to picard only" in capsys.readouterr().err
    assert not list(out.glob("*_manifest.json"))
    assert main(["iterate", "picard", str(cfg), "--output-dir", str(out)]) == 0
    manifest = json.loads((out / "run_manifest.json").read_text())
    assert manifest["config"]["resolved"]["iterate"][key] == 1.0


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


def test_every_lemma_id_has_a_verify_route():
    assert set(VERIFY_CHECKS) == set(LEMMA_IDS)


def test_every_verify_flag_names_a_parameter_of_its_check():
    for lemma_id, (check, flags) in VERIFY_CHECKS.items():
        args = build_parser().parse_args(["verify", lemma_id])
        params = inspect.signature(check).parameters
        for flag in flags.split():
            assert hasattr(args, flag), (lemma_id, flag)
            assert flag in params, (lemma_id, flag)


# The ids the benchmark times; its warm-up runs each with one sample.  The
# phase and counterexample checks take neither flag and ignore both.
@pytest.mark.parametrize("lemma_id", [
    "heat_decay", "coercivity_q", "sign_integral_q1", "max_point_bound",
    "gagliardo_equiv", "lq_semigroup_decay", "phase_lower_bound",
    "counterexample_gamma2", "bilinear_ratio",
])
def test_verify_one_sample(tmp_path, lemma_id):
    assert main(["verify", lemma_id, "--n-samples", "1", "--seed", "3",
                 "--output-dir", str(tmp_path)]) == 0
    report = json.loads((tmp_path / f"verify_{lemma_id}.json").read_text())
    assert report["seed"] in (3, None)


def test_bilinear_ratio_refuses_a_grid_too_small_for_its_regime(tmp_path, capsys):
    # The diagonal regime's block-5 fields reach |k| = 37.3, past the 64^2
    # dealias block (K = 21): refused before any draw, naming the grid and
    # the smallest one the regime runs on, where it passes.
    out = str(tmp_path)
    assert main(["verify", "bilinear_ratio", "--grid", "64", "--regime", "diagonal",
                 "--output-dir", out]) == 1
    err = capsys.readouterr().err
    assert "grid 64" in err and "smallest grid it runs on is 112" in err
    assert not (tmp_path / "verify_bilinear_ratio.json").exists()
    assert main(["verify", "bilinear_ratio", "--grid", "112", "--regime", "diagonal",
                 "--output-dir", out]) == 0
    report = json.loads((tmp_path / "verify_bilinear_ratio.json").read_text())
    assert report["parameters"]["regime"] == "diagonal"


def test_verify_rejects_zero_samples(tmp_path, capsys):
    assert main(["verify", "heat_decay", "--n-samples", "0",
                 "--output-dir", str(tmp_path)]) == 1
    assert "--n-samples" in capsys.readouterr().err
    assert not (tmp_path / "verify_heat_decay.json").exists()


# numpy.random.default_rng takes no negative seed; each way in rejects one as
# a usage error before any output is written.
@pytest.mark.parametrize("command, seed", [("verify", "-1"), ("simulate", "-2"),
                                           ("verify", "x")])
def test_bad_seed_flag_exits_one(tmp_path, capsys, command, seed):
    argv = (["verify", "heat_decay"] if command == "verify"
            else ["simulate", str(write_config(tmp_path / "cfg.json"))])
    out = tmp_path / "out"
    assert main([*argv, "--seed", seed, "--output-dir", str(out)]) == 1
    assert f"seed must be a non-negative integer, got {seed}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", [["simulate"], ["iterate", "galerkin"]])
def test_negative_config_seed_exits_one(tmp_path, capsys, command):
    cfg = write_config(tmp_path / "cfg.json", initial_data={"seed": -3})
    out = tmp_path / "out"
    assert main([*command, str(cfg), "--output-dir", str(out)]) == 1
    assert ("config initial_data.seed must be a non-negative integer, got -3"
            in capsys.readouterr().err)
    assert not out.exists()


# The sha256 of each block sweep's verify report at 8 samples and the default
# seed, with its measured_constant: the report bytes, witness field included,
# as the per-sample sweep wrote them.
REPORT_DIGESTS = {
    "heat_decay": (
        "145b419be9c6985411fafbd02d1f5b9ebc5d7eb02c3dd7a455ec48e9fabb53e3",
        0.860959421261619),
    "lq_semigroup_decay": (
        "2422ceda442dc57a31977730949c7e7ab0b6b53aef7d786a563d67adfb3d9fc7",
        0.8839388000304279),
    "coercivity_q": (
        "c2fbb3282f56dd9d4557f4eb2da040465ff6c91fbfc09d8208114bf5e4561148",
        0.9103940403557507),
    "sign_integral_q1": (
        "478918ea4530e0dec861096abf1bdfa17921cd4f1539ca1799d6dfe1ce0202d9",
        0.9076264217411553),
    "max_point_bound": (
        "53bec808d5b14b303cb3a2612474da08a477416228904a4ccdfb007f7920e72c",
        0.7748492035372837),
}


@pytest.mark.parametrize("lemma_id", sorted(REPORT_DIGESTS))
def test_block_sweep_reports_keep_their_bytes(tmp_path, lemma_id):
    digest, pinned = REPORT_DIGESTS[lemma_id]
    assert main(["verify", lemma_id, "--n-samples", "8",
                 "--output-dir", str(tmp_path)]) == 0
    path = tmp_path / f"verify_{lemma_id}.json"
    measured = json.loads(path.read_text())["measured_constant"]
    assert sha256_of_file(str(path)) == digest, (
        f"report bytes changed: measured_constant {measured!r}, pinned {pinned!r}")


# The sha256 of the trace JSON and CSV of small seed-0 iterate sweeps at 64^2,
# four steps with a stored state every two, under each integrator: the trace
# bytes as the lockstep sweeps wrote them.  ``perfbench/reference.json`` pins
# the 256^2 sweeps' values only to a relative 1e-8.
ITERATE_DIGESTS = {
    ("galerkin", "if_rk4"): (
        "4666f7924657cf54e1d2882947cbb85f149620cf199ce55bce49dc9a162cd92e",
        "3c404f0e539b8de7d3288f83c107d00d90fe8ddb8df89361ec239a0aef3e7586"),
    ("galerkin", "etd_rk2"): (
        "71012fc6845c0920f294b6ade2e4a63adcf1f8228fc576d1d8906a59d98b3132",
        "6ca78e675e02e0c75d44167e91dc9a73ab1962fdf386fac3f2a629986f7c0ab3"),
    ("picard", "if_rk4"): (
        "2cc5e1969f4de8996e1d3b259d0348693c0449c0d27e424d59863c634052fdf4",
        "b61cbeadad6c14fc2b24e6c01160ba73cf0a640fc9a94df55aa193d8389a7201"),
    ("picard", "etd_rk2"): (
        "7079ce512d2ee15c89fff109640ddb3837ae16622f4f2c51f9c211f4171463e9",
        "bff073d0a6e7aa9d3076390ec679ccb6cd2dd10f9df2fddccda415e95ab8797d"),
}


@pytest.mark.parametrize("scheme, integrator", sorted(ITERATE_DIGESTS))
def test_iterate_traces_keep_their_bytes(tmp_path, scheme, integrator):
    iterate = ({"n_min": 1, "n_max": 3} if scheme == "galerkin"
               else {"n_min": 0, "n_max": 2, "p": 2.0, "q": "inf"})
    cfg = write_config(
        tmp_path / "it.json",
        grid={"n": 64},
        solver={"t_final": 0.008, "output_stride": 2, "integrator": integrator},
        initial_data={"seed": 0},
        iterate=iterate,
        output={"prefix": "pin"},
    )
    assert main(["iterate", scheme, str(cfg), "--output-dir", str(tmp_path)]) == 0
    got = tuple(sha256_of_file(str(tmp_path / f"pin_trace.{ext}"))
                for ext in ("json", "csv"))
    assert got == ITERATE_DIGESTS[scheme, integrator]


#: sha256 of the series CSV and the final ``.sqgf`` of seed-0 ``simulate``
#: runs at 64^2, 4 steps: plain, with ``j0``, with ``galerkin_n`` 3 (a 16^2
#: step grid) and with ``galerkin_n`` 6, whose projection reaches past the
#: dealias block but is 1 on it, so it steps as the plain run does.
SIMULATE_DIGESTS = {
    ("plain", "if_rk4"): (
        "78863eea2fe06d54d6424438a2fb25dffdff1f19e779161c2a597487967d53bd",
        "d19a9804d197211e476c529fc963cd4bbdd9fb584b29020428c4dda9778505a4"),
    ("plain", "etd_rk2"): (
        "8219b71a54f50312572e80b3902b96f39d674f09e834c6d8d8ba6aaa8b43ea92",
        "38f6539d5cb1b1442b6c42257d72ba6061795a43de52c9a940d3fbf4fd27b371"),
    ("j0", "if_rk4"): (
        "d463320e664cdd056b938e3af69f7aa05e9fd2a5f65d95883bad4bd63606fdc5",
        "d19a9804d197211e476c529fc963cd4bbdd9fb584b29020428c4dda9778505a4"),
    ("j0", "etd_rk2"): (
        "43f0905fdb1576ded1d5becc57ccb6b29051faea5739aef5d17e6252d702a81e",
        "38f6539d5cb1b1442b6c42257d72ba6061795a43de52c9a940d3fbf4fd27b371"),
    ("galerkin3", "if_rk4"): (
        "f78553bf86fba981c2587b8b103134a0df316c394129ba09779805e3acb820c1",
        "b4702f64e5879679fb295acd6b1e5ac1f1a741714e1d2801f668d671bdb1cfc2"),
    ("galerkin3", "etd_rk2"): (
        "37b178d6d5a73fe2c83bacc16226fc83649404544ff948f3d759c106ae9ad905",
        "a23c8d8866d627433c2b44c1c998ece5b8a85693feebe4ae458b56ae79177483"),
    ("galerkin6", "if_rk4"): (
        "78863eea2fe06d54d6424438a2fb25dffdff1f19e779161c2a597487967d53bd",
        "d19a9804d197211e476c529fc963cd4bbdd9fb584b29020428c4dda9778505a4"),
    ("galerkin6", "etd_rk2"): (
        "8219b71a54f50312572e80b3902b96f39d674f09e834c6d8d8ba6aaa8b43ea92",
        "38f6539d5cb1b1442b6c42257d72ba6061795a43de52c9a940d3fbf4fd27b371"),
}
SIMULATE_KEYS = {"plain": {}, "j0": {"j0": 3}, "galerkin3": {"galerkin_n": 3},
                 "galerkin6": {"galerkin_n": 6}}


@pytest.mark.parametrize("run, integrator", sorted(SIMULATE_DIGESTS))
def test_simulate_outputs_keep_their_bytes(tmp_path, run, integrator):
    cfg = write_config(
        tmp_path / "sim.json",
        grid={"n": 64},
        solver={"t_final": 0.008, "integrator": integrator, **SIMULATE_KEYS[run]},
        initial_data={"seed": 0},
        output={"prefix": "pin"},
    )
    assert main(["simulate", str(cfg), "--output-dir", str(tmp_path)]) == 0
    got = tuple(sha256_of_file(str(tmp_path / f"pin_{name}"))
                for name in ("series.csv", "final.sqgf"))
    assert got == SIMULATE_DIGESTS[run, integrator]


#: The lemma ids whose verdict fails at their CLI defaults (perfbench/README.md,
#: "Known defects").  The marks are strict, so a fix shows here as a failure too.
FAILING_AT_DEFAULTS = {
    "ab_pointwise": "1e-12 slack is below the round-off of heavy-tailed samples; "
                    "the default seed's verdict fails",
    "spectral_mass_contraction": "the CLI builds data whose mass above n0 is below "
                                 "eps0, which the check rejects as a usage error",
}


@pytest.mark.parametrize("lemma_id", [
    pytest.param(lemma_id, marks=pytest.mark.xfail(strict=True, reason=reason))
    if (reason := FAILING_AT_DEFAULTS.get(lemma_id)) else lemma_id
    for lemma_id in VERIFY_CHECKS
])
def test_every_lemma_id_passes_at_its_cli_defaults(tmp_path, lemma_id):
    assert main(["verify", lemma_id, "--output-dir", str(tmp_path)]) == 0


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
    resolved = manifest["config"]["resolved"]
    assert resolved["grid"]["n"] == 32
    assert resolved["solver"]["dt"] == 2e-3 and resolved["solver"]["j0"] is None
    assert resolved["seed"] == 11
    assert resolved["iterate"] == {"n_min": 1, "n_max": 3, "s0": 0.05}
    assert manifest["config"]["input"]["iterate"] == {"n_min": 1, "n_max": 3}


def test_iterate_manifest_records_step_grids(tmp_path):
    # 32^2, cutoffs 1..3: projections 0, 1 and 2 step on 8^2, 8^2 and 16^2.
    # Picard steps every iterate on the full grid and records none.
    for scheme, iterate, grids in (("galerkin", {"n_min": 1, "n_max": 3}, [8, 8, 16]),
                                   ("picard", {"n_min": 0, "n_max": 1}, None)):
        cfg = write_config(tmp_path / f"{scheme}.json", iterate=iterate)
        out = tmp_path / scheme
        assert main(["iterate", scheme, str(cfg), "--output-dir", str(out)]) == 0
        manifest = json.loads((out / "run_manifest.json").read_text())
        assert manifest["config"]["resolved"].get("step_grids") == grids


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


NORMS_FIELD = str(pathlib.Path(__file__).parent / "data" / "power_law_16.sqgf")


@pytest.mark.parametrize("flag", [["--grid", "64"], ["--seed", "3"], ["--output-dir", "zzz"]])
def test_norms_rejects_flags_it_would_ignore(tmp_path, capsys, monkeypatch, flag):
    monkeypatch.chdir(tmp_path)
    assert main(["norms", NORMS_FIELD, *flag]) == 1
    assert f"unrecognized arguments: {' '.join(flag)}" in capsys.readouterr().err
    assert not (tmp_path / "zzz").exists()


# gamma outside the (0, 2] that simulate enforces: 5 printed an order -3
# "h_crit", nan printed NaN, which is not JSON.
@pytest.mark.parametrize("gamma", ["5", "nan", "0"])
def test_norms_rejects_gamma_outside_solver_range(capsys, gamma):
    assert main(["norms", NORMS_FIELD, "--gamma", gamma]) == 1
    err = capsys.readouterr().err
    assert "argument --gamma: must lie in (0, 2]" in err


# A value that is no number at all: argparse named the private type
# function ("invalid _count value: 'x'").
@pytest.mark.parametrize("argv, message", [
    (["verify", "heat_decay", "--n-samples", "x"],
     "argument --n-samples: must be an integer of at least 1, got x"),
    (["verify", "heat_decay", "--n-samples", "2.5"],
     "argument --n-samples: must be an integer of at least 1, got 2.5"),
    (["norms", NORMS_FIELD, "--gamma", "x"], "argument --gamma: must lie in (0, 2], got x"),
])
def test_malformed_flag_values_name_the_flag(capsys, argv, message):
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert message in err
    assert "invalid" not in err and "_count" not in err and "_gamma" not in err


# The gamma-dependent entries as the table printed them before gamma was
# range-checked; at gamma = 2 h_crit is the L2 norm.
@pytest.mark.parametrize("gamma, h_crit, besov_crit", [
    ("0.5", 5.419998828127361, 6.867932670486005),
    ("2", 1.1312828837774427, 1.1019023354445034),
])
def test_norms_table_at_gamma_in_range(capsys, gamma, h_crit, besov_crit):
    assert main(["norms", NORMS_FIELD, "--gamma", gamma]) == 0
    table = json.loads(capsys.readouterr().out)
    assert table["gamma"] == float(gamma)
    assert table["h_crit"] == pytest.approx(h_crit, rel=1e-12)
    assert table["besov_crit"] == pytest.approx(besov_crit, rel=1e-12)
    assert table["l2"] == pytest.approx(1.1312828837774427, rel=1e-12)


def single_mode_config(path, **initial_data):
    cfg = write_config(path, grid={"n": 16})
    config = json.loads(cfg.read_text())
    config["initial_data"] = {"kind": "single_mode", **initial_data}
    cfg.write_text(json.dumps(config))
    return cfg


# A fractional wave number samples a cos(k.x) that is not periodic on the
# torus: [1.5, 1] ran with the Gibbs overshoot linf 1.146 at t = 0, and
# [1.5, 0] failed as "field must be mean-free".
@pytest.mark.parametrize("mode", [[1.5, 1], [1.5, 0], [2, True]])
def test_single_mode_rejects_non_integer_wave_numbers(tmp_path, capsys, mode):
    cfg = single_mode_config(tmp_path / "cfg.json", mode=mode)
    out = tmp_path / "out"
    assert main(["simulate", str(cfg), "--output-dir", str(out)]) == 1
    assert "config initial_data.mode must be int, got" in capsys.readouterr().err
    assert not out.exists()


# Integral wave numbers, as ints or as integral floats, and the default mode
# [3, 2] run the same wave as before.
@pytest.mark.parametrize("mode, same", [([2, 1], [2.0, 1.0]), (None, [3, 2])])
def test_single_mode_integral_wave_numbers(tmp_path, mode, same):
    series = []
    for name, pair in (("a", mode), ("b", same)):
        initial = {} if pair is None else {"mode": pair}
        cfg = single_mode_config(tmp_path / f"{name}.json", **initial)
        assert main(["simulate", str(cfg), "--output-dir", str(tmp_path / name)]) == 0
        series.append((tmp_path / name / "run_series.csv").read_bytes())
    assert series[0] == series[1]


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


_COLD_START = """
import json, sys, threading
from sqglab import cli

heavy = ("scipy.integrate", "scipy.optimize", "scipy.special", "numpy.ma",
         "concurrent.futures")


def loaded():
    return [m for m in sys.modules if ".".join(m.split(".")[:2]) in heavy]


config, picard, out = sys.argv[1:]
runs = [("simulate", ["simulate", config]), ("iterate", ["iterate", "galerkin", config]),
        ("iterate picard", ["iterate", "picard", picard])]
for lemma_id, (_, flags) in cli.VERIFY_CHECKS.items():
    if lemma_id != "spectral_mass_contraction":
        fewer = ["--n-samples", "1"] if "n_samples" in flags.split() else []
        runs.append((lemma_id, ["verify", lemma_id, *fewer]))
seen = {"import": (0, loaded(), threading.active_count())}
for name, argv in runs:
    rc = cli.main([*argv, "--output-dir", out])
    seen[name] = (rc, loaded(), threading.active_count())
print(json.dumps(seen))
"""


@pytest.fixture(scope="module")
def cold_start(tmp_path_factory):
    """``{command: (exit code, heavy modules loaded, live threads)}`` after
    the import and after each command, in one fresh interpreter (this test
    session has scipy loaded already)."""
    import sqglab

    tmp_path = tmp_path_factory.mktemp("cold")
    src = os.path.dirname(os.path.dirname(os.path.abspath(sqglab.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    cfg = write_config(tmp_path / "cfg.json", grid={"n": 16},
                       iterate={"n_min": 0, "n_max": 1})
    # Picard's data cutoffs n + 2 need a 32^2 grid for two iterates.
    picard = write_config(tmp_path / "picard.json", grid={"n": 32},
                          iterate={"n_min": 0, "n_max": 1})
    proc = subprocess.run(
        [sys.executable, "-c", _COLD_START, str(cfg), str(picard), str(tmp_path / "out")],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 0, proc.stderr
    seen = json.loads(proc.stdout.splitlines()[-1])
    assert set(seen) == {"import", "simulate", "iterate", "iterate picard"} | (
        set(VERIFY_CHECKS) - {"spectral_mass_contraction"})
    return seen


def test_commands_load_no_scipy_integrate_optimize_special_or_numpy_ma(cold_start):
    # scipy.integrate and scipy.optimize are imported inside the functions
    # that call them, which no command reaches here, so neither they nor the
    # scipy.special they pull in may load.  No command takes a median with
    # np.median, which would import numpy.ma.  Only spectral_mass_contraction
    # can reach brentq; the verify ids run one sample where they take a count.
    # The helper thread of the block sweeps and of the iterate lockstep
    # (sqglab._helper) comes from threading and queue alone:
    # concurrent.futures cost about 7 ms of every command's start.
    for name, (rc, modules, _) in cold_start.items():
        assert (rc, modules) == (0, []), name


def test_no_thread_outlives_a_command(cold_start):
    # The block sweeps join their draw-ahead helper before they return, and
    # the iterate sweeps their lockstep helper.
    for name, (_, _, threads) in cold_start.items():
        assert threads == 1, name


COUNTED_CACHES = {"_factor_tables", "grid_arrays", "k_power", "sobolev_weights",
                  "_dealias_block", "block_power_weights"}


def test_manifests_record_cache_counts(tmp_path):
    # 100 steps of dt: the last step reuses the run's factor tables.
    cfg = write_config(tmp_path / "sim.json",
                       solver={"dt": 1e-3, "t_final": 0.1, "output_stride": 50})
    _factor_tables.cache_clear()
    _dealias_block.cache_clear()
    assert main(["simulate", str(cfg), "--output-dir", str(tmp_path)]) == 0
    caches = json.loads((tmp_path / "run_manifest.json").read_text())["timings"]["caches"]
    assert set(caches) == COUNTED_CACHES
    assert caches["_factor_tables"] == {"hits": 99, "misses": 1}
    # The dealiased run steps on the grid's dealias block alone, which the
    # row core, the stepper and the factor tables each take once.
    assert caches["_dealias_block"] == {"hits": 2, "misses": 1}
    cfg = write_config(tmp_path / "it.json", iterate={"n_min": 0, "n_max": 1},
                       output={"prefix": "sweep"})
    _dealias_block.cache_clear()
    assert main(["iterate", "picard", str(cfg), "--output-dir", str(tmp_path)]) == 0
    caches = json.loads((tmp_path / "sweep_manifest.json").read_text())["timings"]["caches"]
    assert set(caches) == COUNTED_CACHES
    assert all(c["hits"] >= 0 and c["misses"] >= 0 for c in caches.values())
    assert caches["_factor_tables"]["hits"] + caches["_factor_tables"]["misses"] > 0
    assert caches["_dealias_block"]["misses"] == 1 and caches["_dealias_block"]["hits"] > 0
