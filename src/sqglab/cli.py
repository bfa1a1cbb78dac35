"""Command-line harness: simulate / verify / iterate / norms.

Configuration is a single versioned JSON document; command-line flags
override file values, which override built-in defaults.  Exit codes: 0 on
success (for ``verify``, a passing verdict), 1 on usage or configuration
errors and failing verdicts, 2 on guard aborts (CFL, overflow, NaN).  The
output directory resolves from --output-dir, then the SQGLAB_OUTPUT_DIR
environment variable, then the working directory.  Every run writes its
manifest last; a missing manifest marks an aborted run.
"""

from __future__ import annotations

import argparse
import datetime
import json
import math
import os
import sys
import time

import numpy as np

from . import __version__
from . import inequalities as lab
from .dyadic import besov_norm, default_partition
from .errors import GuardError, UsageError
from .iterates import galerkin_sequence, picard_besov_sequence
from .reports import RunManifest
from .sampling import (
    band_limited_field,
    gaussian_block_field,
    low_pass_field,
    power_law_field,
)
from .solver import SolverConfig, run_simulation
from .spectral import (
    GridSpec,
    SpectralField,
    field_lp_norm,
    forward_transform,
    load_field,
    save_field,
    sobolev_norm,
)

CONFIG_SCHEMA_VERSION = 1


class _Parser(argparse.ArgumentParser):
    """argparse that reports usage problems through the exit-code contract."""

    def error(self, message: str) -> None:  # noqa: A003 - argparse hook
        raise UsageError(message)


def _load_config(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except FileNotFoundError:
        raise UsageError(f"config file not found: {path}")
    except json.JSONDecodeError as exc:
        raise UsageError(f"config file {path} is not valid JSON: {exc}")
    if not isinstance(data, dict):
        raise UsageError(f"config file {path} must hold a JSON object")
    version = data.get("schema_version")
    if version != CONFIG_SCHEMA_VERSION:
        raise UsageError(
            f"config schema_version must be {CONFIG_SCHEMA_VERSION}, got {version!r}"
        )
    return data


def _grid_from_config(config: dict, args) -> GridSpec:
    section = dict(config.get("grid", {}))
    if getattr(args, "grid", None) is not None:
        section["n"] = args.grid
    return GridSpec(
        n=int(section.get("n", 128)),
        period=float(section.get("period", 2.0 * math.pi)),
        dealias_fraction=float(section.get("dealias_fraction", 2.0 / 3.0)),
    )


def _solver_from_config(config: dict, grid: GridSpec, args) -> SolverConfig:
    section = dict(config.get("solver", {}))
    if getattr(args, "gamma", None) is not None:
        section["gamma"] = args.gamma
    known = {
        "nu",
        "gamma",
        "dt",
        "t_final",
        "integrator",
        "gevrey_epsilon0",
        "besov_p",
        "besov_q",
        "galerkin_n",
        "j0",
        "output_stride",
        "snapshot_stride",
    }
    unknown = set(section) - known
    if unknown:
        raise UsageError(f"unknown solver keys: {sorted(unknown)}")
    return SolverConfig(grid=grid, **section)


def _initial_field(config: dict, grid: GridSpec, args) -> tuple[SpectralField, int]:
    section = dict(config.get("initial_data", {}))
    seed = int(section.get("seed", 0))
    if getattr(args, "seed", None) is not None:
        seed = args.seed
    rng = np.random.default_rng(seed)
    kind = section.get("kind", "power_law")
    if kind == "power_law":
        field = power_law_field(
            grid,
            float(section.get("alpha", 2.7)),
            rng,
            k_cut=section.get("k_cut"),
        )
    elif kind == "band_limited":
        field = band_limited_field(grid, float(section.get("k_max", 20.0)), rng)
    elif kind == "block":
        field = gaussian_block_field(grid, int(section.get("j", 3)), rng)
    elif kind == "low_pass":
        field = low_pass_field(grid, int(section.get("j", 3)), rng)
    elif kind == "single_mode":
        mode = section.get("mode", [3, 2])
        x = grid.axis_points()
        xx, yy = np.meshgrid(x, x, indexing="ij")
        k1 = mode[0] * grid.freq_scale
        k2 = mode[1] * grid.freq_scale
        field = forward_transform(np.cos(k1 * xx + k2 * yy), grid)
    else:
        raise UsageError(f"unknown initial_data kind {kind!r}")
    normalize = section.get("normalize")
    if normalize == "l2":
        field = field.with_coeffs(field.coeffs / sobolev_norm(field, 0.0))
    elif normalize == "h_crit":
        gamma = float(config.get("solver", {}).get("gamma", 0.5))
        if getattr(args, "gamma", None) is not None:
            gamma = args.gamma
        field = field.with_coeffs(field.coeffs / sobolev_norm(field, 2.0 - gamma))
    elif normalize not in (None, "none"):
        raise UsageError(f"unknown normalize mode {normalize!r}")
    amplitude = float(section.get("amplitude", 1.0))
    if amplitude != 1.0:
        field = field.with_coeffs(field.coeffs * amplitude)
    return field, seed


def _output_dir(args) -> str:
    directory = getattr(args, "output_dir", None)
    if directory is None:
        directory = os.environ.get("SQGLAB_OUTPUT_DIR", ".")
    os.makedirs(directory, exist_ok=True)
    return directory


def _now() -> str:
    return datetime.datetime.now(datetime.timezone.utc).isoformat()


def cmd_simulate(args, argv: list) -> int:
    config = _load_config(args.config)
    grid = _grid_from_config(config, args)
    solver = _solver_from_config(config, grid, args)
    theta0, seed = _initial_field(config, grid, args)
    out = _output_dir(args)
    prefix = config.get("output", {}).get("prefix", "run")
    started = _now()
    t0 = time.perf_counter()

    manifest = RunManifest(
        command=argv,
        config=config,
        seed=seed,
        artifact_version=__version__,
        started_at=started,
    )
    series = run_simulation(theta0, solver)
    run_seconds = time.perf_counter() - t0

    series_path = os.path.join(out, f"{prefix}_series.csv")
    series.write_csv(series_path)
    manifest.add_output(series_path)
    out_section = config.get("output", {})
    if out_section.get("save_final_state", True) and series.final_state is not None:
        final_path = os.path.join(out, f"{prefix}_final.sqgf")
        save_field(series.final_state, final_path)
        manifest.add_output(final_path)
    if out_section.get("save_snapshots", False):
        for idx, (ts, snap) in enumerate(series.snapshots):
            snap_path = os.path.join(out, f"{prefix}_snap_{idx:04d}.sqgf")
            save_field(snap, snap_path)
            manifest.add_output(snap_path)
    manifest.timings = {"run_seconds": run_seconds}
    manifest.config = {
        "input": config,
        "resolved": {
            "grid": {"n": grid.n, "period": grid.period,
                     "dealias_fraction": grid.dealias_fraction},
            "solver": {k: getattr(solver, k) for k in (
                "nu", "gamma", "dt", "t_final", "integrator",
                "gevrey_epsilon0", "besov_p", "besov_q", "galerkin_n", "j0",
                "output_stride", "snapshot_stride")},
            "seed": seed,
        },
        "cfl_max": series.cfl_max,
        "aborted": series.aborted,
        "abort_reason": series.abort_reason,
    }
    manifest.finished_at = _now()
    manifest.write(os.path.join(out, f"{prefix}_manifest.json"))
    if series.aborted:
        print(f"guard abort: {series.abort_reason}", file=sys.stderr)
        return 2
    print(f"simulate: wrote {series_path} ({run_seconds:.2f} s)")
    return 0


_VERIFY_BUILDERS = {}


def _verify(lemma_id):
    def register(fn):
        _VERIFY_BUILDERS[lemma_id] = fn
        return fn

    return register


@_verify("heat_decay")
def _build_heat_decay(args):
    return lab.check_heat_decay(
        grid=GridSpec(args.grid or 128),
        j=args.j if args.j is not None else 3,
        gamma=args.gamma if args.gamma is not None else 0.5,
        q=args.q if args.q is not None else math.inf,
        n_samples=args.n_samples or 200,
        seed=args.seed if args.seed is not None else 101,
    )


@_verify("coercivity_q")
def _build_coercivity(args):
    return lab.check_coercivity(
        grid=GridSpec(args.grid or 128),
        j=args.j if args.j is not None else 2,
        gamma=args.gamma if args.gamma is not None else 1.0,
        q=args.q if args.q is not None else 4.0,
        n_samples=args.n_samples or 500,
        seed=args.seed if args.seed is not None else 202,
    )


@_verify("sign_integral_q1")
def _build_sign_integral(args):
    return lab.check_sign_integral(
        grid=GridSpec(args.grid or 128),
        j=args.j if args.j is not None else 3,
        gamma=args.gamma if args.gamma is not None else 0.5,
        n_samples=args.n_samples or 200,
        seed=args.seed if args.seed is not None else 303,
    )


@_verify("max_point_bound")
def _build_max_point(args):
    return lab.check_max_point(
        grid=GridSpec(args.grid or 128),
        j=args.j if args.j is not None else 3,
        gamma=args.gamma if args.gamma is not None else 0.9,
        n_samples=args.n_samples or 200,
        seed=args.seed if args.seed is not None else 303,
    )


@_verify("counterexample_gamma2")
def _build_counterexample(args):
    return lab.counterexample_gamma2_q1()


@_verify("gagliardo_equiv")
def _build_gagliardo(args):
    return lab.check_gagliardo_equivalence(
        n_samples=args.n_samples or 3,
        seed=args.seed if args.seed is not None else 404,
    )


@_verify("ab_pointwise")
def _build_ab(args):
    return lab.check_ab_inequality(
        q=args.q if args.q is not None else 4.0,
        sample_count=args.n_samples or 1_000_000,
        seed=args.seed if args.seed is not None else 505,
    )


@_verify("spectral_mass_contraction")
def _build_spectral_mass(args):
    grid = GridSpec(args.grid or 128)
    eps0 = args.eps0
    n0 = args.n0
    rng = np.random.default_rng(args.seed if args.seed is not None else 808)
    high = gaussian_block_field(grid, max(3, int(math.log2(max(n0, 2.0)))), rng)
    low = low_pass_field(grid, 1, rng)
    # Scale the split so the high-frequency fraction strictly clears eps0.
    target = min(0.5 * (eps0 + 1.0), 0.99)
    high = high.with_coeffs(high.coeffs / sobolev_norm(high, 0.0) * math.sqrt(target))
    low = low.with_coeffs(
        low.coeffs / sobolev_norm(low, 0.0) * math.sqrt(1.0 - target)
    )
    g = high.with_coeffs(high.coeffs + low.coeffs)
    return lab.check_spectral_mass_contraction(
        g, n0, eps0, args.gamma if args.gamma is not None else 0.5
    )


@_verify("lq_semigroup_decay")
def _build_lq_decay(args):
    return lab.check_lq_semigroup_decay(
        grid=GridSpec(args.grid or 128),
        j=args.j if args.j is not None else 3,
        gamma=args.gamma if args.gamma is not None else 0.5,
        n_samples=args.n_samples or 100,
        seed=args.seed if args.seed is not None else 606,
    )


@_verify("phase_lower_bound")
def _build_phase(args):
    return lab.check_phase_bounds(args.gamma if args.gamma is not None else 0.5)


@_verify("bilinear_ratio")
def _build_bilinear(args):
    return lab.check_trilinear_bounds(
        grid=GridSpec(args.grid or 128),
        gamma=args.gamma if args.gamma is not None else 0.5,
        regime=args.regime,
        n_samples=args.n_samples or 8,
        seed=args.seed if args.seed is not None else 707,
    )


def cmd_verify(args, argv: list) -> int:
    builder = _VERIFY_BUILDERS.get(args.lemma_id)
    if builder is None:
        raise UsageError(
            f"unknown lemma id {args.lemma_id!r}; known: {sorted(_VERIFY_BUILDERS)}"
        )
    out = _output_dir(args)
    report = builder(args)
    path = os.path.join(out, f"verify_{args.lemma_id}.json")
    report.write_json(path)
    verdict = "pass" if report.verdict else "fail"
    print(
        f"verify {args.lemma_id}: {verdict} "
        f"(measured {report.measured_constant:.6g}, wrote {path})"
    )
    return 0 if report.verdict else 1


def cmd_iterate(args, argv: list) -> int:
    config = _load_config(args.config)
    grid = _grid_from_config(config, args)
    solver = _solver_from_config(config, grid, args)
    theta0, seed = _initial_field(config, grid, args)
    section = dict(config.get("iterate", {}))
    n_min = int(section.get("n_min", 3))
    n_max = int(section.get("n_max", 6))
    s0 = float(section.get("s0", 0.05))
    out = _output_dir(args)
    prefix = config.get("output", {}).get("prefix", args.scheme)
    started = _now()
    t0 = time.perf_counter()
    if args.scheme == "galerkin":
        trace = galerkin_sequence(theta0, range(n_min, n_max + 1), solver, s0=s0)
    else:
        trace = picard_besov_sequence(
            theta0,
            range(n_min, n_max + 1),
            float(section.get("p", 2.0)),
            float(section.get("q", 2.0)),
            solver,
            s0=s0,
        )
    run_seconds = time.perf_counter() - t0
    manifest = RunManifest(
        command=argv,
        config=config,
        seed=seed,
        artifact_version=__version__,
        started_at=started,
        timings={"run_seconds": run_seconds},
    )
    csv_path = os.path.join(out, f"{prefix}_trace.csv")
    json_path = os.path.join(out, f"{prefix}_trace.json")
    trace.write_csv(csv_path)
    trace.write_json(json_path)
    manifest.add_output(csv_path)
    manifest.add_output(json_path)
    manifest.finished_at = _now()
    manifest.write(os.path.join(out, f"{prefix}_manifest.json"))
    fitted = {k: round(v.slope, 4) for k, v in trace.fits.items()}
    print(f"iterate {args.scheme}: fits {fitted}, wrote {csv_path}")
    return 0


def cmd_norms(args, argv: list) -> int:
    field = load_field(args.field)
    gamma = args.gamma if args.gamma is not None else 0.5
    partition = default_partition(field.grid)
    table = {
        "grid_n": field.grid.n,
        "period": field.grid.period,
        "l1": field_lp_norm(field, 1.0),
        "l2": field_lp_norm(field, 2.0),
        "l4": field_lp_norm(field, 4.0),
        "linf": field_lp_norm(field, math.inf),
        "h_crit": sobolev_norm(field, 2.0 - gamma),
        "h_neg_half": sobolev_norm(field, -0.5, homogeneous=True),
        "besov_crit": besov_norm(
            field, 1.0 - gamma + 2.0 / 2.0, 2.0, 2.0, partition=partition
        ),
        "gamma": gamma,
    }
    text = json.dumps(table, indent=2, sort_keys=True)
    print(text)
    if args.json is not None:
        with open(args.json, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    return 0


def build_parser() -> _Parser:
    parser = _Parser(prog="sqglab", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--seed", type=int, default=None, help="override RNG seed")
        p.add_argument("--grid", type=int, default=None, help="override grid size n")
        p.add_argument("--gamma", type=float, default=None, help="override gamma")
        p.add_argument(
            "--output-dir",
            default=None,
            help="output directory (default: $SQGLAB_OUTPUT_DIR or '.')",
        )

    p_sim = sub.add_parser("simulate", help="run a time integration from a config")
    p_sim.add_argument("config", help="JSON config path")
    common(p_sim)

    p_ver = sub.add_parser("verify", help="run one inequality check")
    p_ver.add_argument("lemma_id", help="which estimate to check")
    p_ver.add_argument("--q", type=float, default=None)
    p_ver.add_argument("--j", type=int, default=None)
    p_ver.add_argument("--n-samples", type=int, default=None, dest="n_samples")
    p_ver.add_argument("--eps0", type=float, default=0.5)
    p_ver.add_argument("--n0", type=float, default=8.0)
    p_ver.add_argument("--regime", default="random", choices=lab.TRILINEAR_REGIMES)
    common(p_ver)

    p_it = sub.add_parser("iterate", help="run an approximation-scheme sweep")
    p_it.add_argument("scheme", choices=("galerkin", "picard"))
    p_it.add_argument("config", help="JSON config path")
    common(p_it)

    p_no = sub.add_parser("norms", help="norm table of a stored field")
    p_no.add_argument("field", help="binary field container path")
    p_no.add_argument("--json", default=None, help="also write the table here")
    common(p_no)

    return parser


def main(argv: list | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "simulate":
            return cmd_simulate(args, argv)
        if args.command == "verify":
            return cmd_verify(args, argv)
        if args.command == "iterate":
            return cmd_iterate(args, argv)
        if args.command == "norms":
            return cmd_norms(args, argv)
        raise UsageError(f"unknown command {args.command!r}")
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except GuardError as exc:
        print(f"guard: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
