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
import dataclasses
import datetime
import json
import math
import os
import sys
import time

import numpy as np

from . import __version__
from . import inequalities as lab
from .dyadic import besov_norm, block_power_weights
from .errors import GuardError, UsageError
from .iterates import DEFAULT_S0, galerkin_sequence, picard_besov_sequence
from .reports import RunManifest
from .sampling import (
    band_limited_field,
    gaussian_block_field,
    low_pass_field,
    power_law_field,
)
from .solver import SolverConfig, _factor_tables, run_simulation, stepping_grid
from .spectral import (
    GridSpec,
    SpectralField,
    _dealias_block,
    field_lp_norm,
    forward_transform,
    grid_arrays,
    k_power,
    load_field,
    save_field,
    sobolev_norm,
    sobolev_weights,
)

CONFIG_SCHEMA_VERSION = 1

#: Keys of the config's "solver" section, every SolverConfig field but the
#: grid, with the type each is read as and whether it may be null.
_SOLVER_TYPES = {
    f.name: ({"float": float, "int": int, "str": str}[f.type.split(" | ")[0]],
             f.type.endswith("| None"))
    for f in dataclasses.fields(SolverConfig) if f.name != "grid"
}

#: The keys each config section knows (``initial_data``: the keys every kind
#: reads).  Any other key, there or at the top level, is a usage error.
_SECTION_KEYS = {
    "grid": ("n", "period", "dealias_fraction"),
    "solver": tuple(_SOLVER_TYPES),
    "initial_data": ("kind", "seed", "normalize", "amplitude"),
    "iterate": ("n_min", "n_max", "s0", "p", "q"),
    "output": ("prefix", "save_final_state", "save_snapshots"),
}

#: The ``initial_data`` keys each kind reads besides those every kind reads.
_KIND_KEYS = {
    "power_law": ("alpha", "k_cut"),
    "band_limited": ("k_max",),
    "block": ("j",),
    "low_pass": ("j",),
    "single_mode": ("mode",),
}


#: The per-grid caches whose hits and misses a run's manifest records.  Bound
#: once here, so rebinding the module attributes later cannot hide them.
_COUNTED_CACHES = {
    fn.__name__: fn
    for fn in (_factor_tables, grid_arrays, k_power, sobolev_weights,
               _dealias_block, block_power_weights)
}


def _cache_counts() -> dict:
    return {name: fn.cache_info() for name, fn in _COUNTED_CACHES.items()}


def _cache_deltas(before: dict) -> dict:
    """Hits and misses of each counted cache since ``before``."""
    return {
        name: {"hits": now.hits - before[name].hits,
               "misses": now.misses - before[name].misses}
        for name, now in _cache_counts().items()
    }


class _Parser(argparse.ArgumentParser):
    """argparse that reports usage problems through the exit-code contract."""

    def error(self, message: str) -> None:  # noqa: A003 - argparse hook
        raise UsageError(message)


def _reject_unknown(where: str, keys, known) -> None:
    unknown = set(keys) - set(known)
    if unknown:
        raise UsageError(f"unknown {where} keys: {sorted(unknown)}")


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
    _reject_unknown("config", data, ("schema_version", *_SECTION_KEYS))
    for name, known in _SECTION_KEYS.items():
        section = data.get(name, {})
        if not isinstance(section, dict):
            raise UsageError(f"config section {name!r} must be a JSON object")
        if name == "initial_data":
            kind = section.get("kind", "power_law")
            if not isinstance(kind, str) or kind not in _KIND_KEYS:
                raise UsageError(f"unknown initial_data kind {kind!r}")
            known += _KIND_KEYS[kind]
        _reject_unknown(name, section, known)
    return data


def _read(where: str, key: str, value, kind: type, nullable: bool = False):
    """The config value ``where.key`` as a ``kind`` (None stays None when
    ``nullable``); a usage error naming the key when it is not one.  An
    ``int`` key takes no bool and no number with a fractional part, a
    ``float`` key no bool and no NaN (an infinity, as ``"inf"``, it takes;
    the fields that need a finite value refuse one where they are built)."""
    if nullable and value is None:
        return None
    try:
        if kind in (int, float) and isinstance(value, bool):
            raise ValueError
        if kind is int and isinstance(value, float) and not value.is_integer():
            raise ValueError
        result = kind(value)
        if kind is float and math.isnan(result):
            raise ValueError
        return result
    except (TypeError, ValueError, OverflowError):
        raise UsageError(
            f"config {where}.{key} must be {kind.__name__}, got {value!r}"
        ) from None


def _output_options(config: dict, default_prefix: str) -> tuple[str, bool, bool]:
    """The ``output`` section's prefix, save_final_state and save_snapshots;
    a usage error naming the key when one has the wrong type."""
    section = config.get("output", {})
    prefix = section.get("prefix", default_prefix)
    if not isinstance(prefix, str) or not prefix:
        raise UsageError(f"config output.prefix must be a non-empty string, got {prefix!r}")
    flags = {"save_final_state": section.get("save_final_state", True),
             "save_snapshots": section.get("save_snapshots", False)}
    for key, value in flags.items():
        if not isinstance(value, bool):
            raise UsageError(f"config output.{key} must be true or false, got {value!r}")
    return prefix, flags["save_final_state"], flags["save_snapshots"]


def _grid_from_config(config: dict, args) -> GridSpec:
    section = dict(config.get("grid", {}))
    if getattr(args, "grid", None) is not None:
        section["n"] = args.grid
    n = _read("grid", "n", section.pop("n", 128), int)
    # period and dealias_fraction, when given; GridSpec holds their defaults.
    return GridSpec(n, **{key: _read("grid", key, value, float)
                          for key, value in section.items()})


def _solver_from_config(config: dict, args) -> SolverConfig:
    section = {key: _read("solver", key, value, *_SOLVER_TYPES[key])
               for key, value in config.get("solver", {}).items()}
    if getattr(args, "gamma", None) is not None:
        section["gamma"] = args.gamma
    return SolverConfig(grid=_grid_from_config(config, args), **section)


def _initial_field(config: dict, solver: SolverConfig, args) -> tuple[SpectralField, int]:
    grid = solver.grid
    section = dict(config.get("initial_data", {}))

    def read(key, default, kind, nullable=False):
        return _read("initial_data", key, section.get(key, default), kind, nullable)

    seed = read("seed", 0, int)
    if seed < 0:
        raise UsageError(f"config initial_data.seed must be a non-negative integer, "
                         f"got {seed}")
    if getattr(args, "seed", None) is not None:
        seed = args.seed
    rng = np.random.default_rng(seed)
    kind = section.get("kind", "power_law")
    if kind == "power_law":
        field = power_law_field(
            grid,
            read("alpha", 2.7, float),
            rng,
            k_cut=read("k_cut", None, float, nullable=True),
        )
    elif kind == "band_limited":
        field = band_limited_field(grid, read("k_max", 20.0, float), rng)
    elif kind == "block":
        field = gaussian_block_field(grid, read("j", 3, int), rng)
    elif kind == "low_pass":
        field = low_pass_field(grid, read("j", 3, int), rng)
    else:  # single_mode, the last kind _load_config lets through
        mode = section.get("mode", [3, 2])
        if not isinstance(mode, list) or len(mode) != 2:
            raise UsageError(f"config initial_data.mode must be a pair, got {mode!r}")
        x = grid.axis_points()
        xx, yy = np.meshgrid(x, x, indexing="ij")
        k1, k2 = (_read("initial_data", "mode", m, int) * grid.freq_scale
                  for m in mode)
        field = forward_transform(np.cos(k1 * xx + k2 * yy), grid)
    normalize = section.get("normalize")
    if normalize == "l2":
        field = field.with_coeffs(field.coeffs / sobolev_norm(field, 0.0))
    elif normalize == "h_crit":
        field = field.with_coeffs(
            field.coeffs / sobolev_norm(field, 2.0 - solver.gamma)
        )
    elif normalize not in (None, "none"):
        raise UsageError(f"unknown normalize mode {normalize!r}")
    amplitude = read("amplitude", 1.0, float)
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


def _resolved(solver: SolverConfig, seed: int, **sections) -> dict:
    """The manifest's ``config.resolved`` block: grid, solver, seed and extras."""
    grid = solver.grid
    return {
        "grid": {"n": grid.n, "period": grid.period,
                 "dealias_fraction": grid.dealias_fraction},
        "solver": {k: getattr(solver, k) for k in _SOLVER_TYPES},
        "seed": seed,
        **sections,
    }


def cmd_simulate(args, argv: list) -> int:
    config = _load_config(args.config)
    prefix, save_final_state, save_snapshots = _output_options(config, "run")
    solver = _solver_from_config(config, args)
    theta0, seed = _initial_field(config, solver, args)
    out = _output_dir(args)
    started = _now()
    t0 = time.perf_counter()

    manifest = RunManifest(
        command=argv,
        config=config,
        seed=seed,
        artifact_version=__version__,
        started_at=started,
    )
    before = _cache_counts()
    series = run_simulation(theta0, solver)
    run_seconds = time.perf_counter() - t0
    caches = _cache_deltas(before)

    series_path = os.path.join(out, f"{prefix}_series.csv")
    series.write_csv(series_path)
    manifest.add_output(series_path)
    if save_final_state and series.final_state is not None:
        final_path = os.path.join(out, f"{prefix}_final.sqgf")
        save_field(series.final_state, final_path)
        manifest.add_output(final_path)
    if save_snapshots:
        for idx, (ts, snap) in enumerate(series.snapshots):
            snap_path = os.path.join(out, f"{prefix}_snap_{idx:04d}.sqgf")
            save_field(snap, snap_path)
            manifest.add_output(snap_path)
    manifest.timings = {"run_seconds": run_seconds, "caches": caches}
    manifest.config = {
        "input": config,
        "resolved": _resolved(solver, seed),
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


def _spectral_mass_contraction(
    grid: GridSpec = lab.DEFAULT_GRID,
    eps0: float = 0.5,
    n0: float = 8.0,
    gamma: float = 0.5,
    seed: int = 808,
):
    """Build a field whose high-frequency mass fraction clears eps0, then check it."""
    rng = np.random.default_rng(seed)
    high = gaussian_block_field(grid, max(3, int(math.log2(max(n0, 2.0)))), rng)
    low = low_pass_field(grid, 1, rng)
    # Scale the split so the high-frequency fraction strictly clears eps0.
    target = min(0.5 * (eps0 + 1.0), 0.99)
    high = high.with_coeffs(high.coeffs / sobolev_norm(high, 0.0) * math.sqrt(target))
    low = low.with_coeffs(
        low.coeffs / sobolev_norm(low, 0.0) * math.sqrt(1.0 - target)
    )
    g = high.with_coeffs(high.coeffs + low.coeffs)
    return lab.check_spectral_mass_contraction(g, n0, eps0, gamma)


#: Lemma id -> (check, the verify flags it takes).  Only flags the user set
#: are passed, so each check's signature supplies its defaults; flags a
#: check does not take are ignored.
VERIFY_CHECKS = {
    "heat_decay": (lab.check_heat_decay, "grid j gamma q n_samples seed"),
    "coercivity_q": (lab.check_coercivity, "grid j gamma q n_samples seed"),
    "sign_integral_q1": (lab.check_sign_integral, "grid j gamma n_samples seed"),
    "max_point_bound": (lab.check_max_point, "grid j gamma n_samples seed"),
    "lq_semigroup_decay": (
        lab.check_lq_semigroup_decay, "grid j gamma n_samples seed"
    ),
    "bilinear_ratio": (
        lab.check_trilinear_bounds, "grid gamma regime n_samples seed"
    ),
    "gagliardo_equiv": (lab.check_gagliardo_equivalence, "n_samples seed"),
    "ab_pointwise": (lab.check_ab_inequality, "q n_samples seed"),
    "spectral_mass_contraction": (
        _spectral_mass_contraction, "grid eps0 n0 gamma seed"
    ),
    "phase_lower_bound": (lab.check_phase_bounds, "gamma"),
    "counterexample_gamma2": (lab.counterexample_gamma2_q1, ""),
}


def _set_flags(args, flags: str) -> dict:
    """Keyword arguments for the flags in ``flags`` that the user set."""
    kwargs = {}
    for flag in flags.split():
        value = getattr(args, flag)
        if value is not None:
            kwargs[flag] = GridSpec(value) if flag == "grid" else value
    return kwargs


def cmd_verify(args, argv: list) -> int:
    if args.lemma_id not in VERIFY_CHECKS:
        raise UsageError(
            f"unknown lemma id {args.lemma_id!r}; known: {sorted(VERIFY_CHECKS)}"
        )
    check, flags = VERIFY_CHECKS[args.lemma_id]
    out = _output_dir(args)
    report = check(**_set_flags(args, flags))
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
    prefix = _output_options(config, args.scheme)[0]
    solver = _solver_from_config(config, args)
    theta0, seed = _initial_field(config, solver, args)
    section = dict(config.get("iterate", {}))
    defaults = {"n_min": (3, int), "n_max": (6, int), "s0": (DEFAULT_S0, float)}
    if args.scheme == "picard":
        defaults.update(p=(2.0, float), q=(2.0, float))
    elif {"p", "q"} & set(section):
        raise UsageError("config iterate.p and iterate.q apply to picard only; "
                         "galerkin uses solver.besov_p and solver.besov_q")
    iterate = {key: _read("iterate", key, section.get(key, default), kind)
               for key, (default, kind) in defaults.items()}
    n_range = range(iterate["n_min"], iterate["n_max"] + 1)
    out = _output_dir(args)
    started = _now()
    t0 = time.perf_counter()
    before = _cache_counts()
    extra = {}
    if args.scheme == "galerkin":
        trace = galerkin_sequence(theta0, n_range, solver, s0=iterate["s0"])
        extra["step_grids"] = [stepping_grid(solver.grid, n - 1).n for n in n_range]
    else:
        trace = picard_besov_sequence(
            theta0, n_range, iterate["p"], iterate["q"], solver, s0=iterate["s0"]
        )
    run_seconds = time.perf_counter() - t0
    caches = _cache_deltas(before)
    manifest = RunManifest(
        command=argv,
        config={"input": config,
                "resolved": _resolved(solver, seed, iterate=iterate, **extra)},
        seed=seed,
        artifact_version=__version__,
        started_at=started,
        timings={"run_seconds": run_seconds, "caches": caches},
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
    gamma = args.gamma
    table = {
        "grid_n": field.grid.n,
        "period": field.grid.period,
        "l1": field_lp_norm(field, 1.0),
        "l2": field_lp_norm(field, 2.0),
        "l4": field_lp_norm(field, 4.0),
        "linf": field_lp_norm(field, math.inf),
        "h_crit": sobolev_norm(field, 2.0 - gamma),
        "h_neg_half": sobolev_norm(field, -0.5, homogeneous=True),
        "besov_crit": besov_norm(field, 1.0 - gamma + 2.0 / 2.0, 2.0, 2.0),
        "gamma": gamma,
    }
    text = json.dumps(table, indent=2, sort_keys=True)
    print(text)
    if args.json is not None:
        with open(args.json, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    return 0


def _count(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be an integer of at least 1, got {text}")
    return value


def _seed(text: str) -> int:
    # numpy.random.default_rng takes no negative seed.
    try:
        value = int(text)
    except ValueError:
        value = -1
    if value < 0:
        raise argparse.ArgumentTypeError(
            f"seed must be a non-negative integer, got {text}")
    return value


def _gamma(text: str) -> float:
    # The (0, 2] that SolverConfig enforces; NaN fails the comparison too.
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not 0.0 < value <= 2.0:
        raise argparse.ArgumentTypeError(f"must lie in (0, 2], got {text}")
    return value


def build_parser() -> _Parser:
    parser = _Parser(prog="sqglab", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--seed", type=_seed, default=None, help="override RNG seed")
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
    p_ver.add_argument("--n-samples", type=_count, default=None, dest="n_samples")
    p_ver.add_argument("--eps0", type=float, default=None)
    p_ver.add_argument("--n0", type=float, default=None)
    p_ver.add_argument("--regime", default=None, choices=lab.TRILINEAR_REGIMES)
    common(p_ver)

    p_it = sub.add_parser("iterate", help="run an approximation-scheme sweep")
    p_it.add_argument("scheme", choices=("galerkin", "picard"))
    p_it.add_argument("config", help="JSON config path")
    common(p_it)

    p_no = sub.add_parser("norms", help="norm table of a stored field")
    p_no.add_argument("field", help="binary field container path")
    p_no.add_argument("--json", default=None, help="also write the table here")
    p_no.add_argument("--gamma", type=_gamma, default=0.5,
                      help="gamma of the critical norms (default 0.5)")

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
