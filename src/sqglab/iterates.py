"""Approximation schemes: dyadic Galerkin truncations and Picard sweeps.

Both schemes reuse the solver's steppers.  A Galerkin iterate integrates the
frequency-truncated tendency with truncated data; a Picard iterate solves a
linear advection-diffusion problem whose advecting velocity is frozen from
the previous iterate's stored trajectory (interpolated linearly in time
within each step).  Traces record per-iterate norms and successive
differences so the contraction rates asserted by the well-posedness argument
can be fitted rather than assumed.
"""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np

from .dyadic import besov_norm, default_partition, half_besov_norm
from .errors import UsageError
from .reports import IterateTrace, fit_log2
from .solver import SolverConfig, Stepper
from .spectral import (
    MultiplierSpec,
    PROFILE_OUTER,
    SpectralField,
    gevrey_half_weight,
    grid_arrays,
    half_power,
    sobolev_weights,
    weighted_norm,
)

DEFAULT_S0 = 0.05

NORM_LABELS = (
    "l2",
    "h_crit",
    "besov_s0",
    "gevrey_l2",
    "gevrey_h_crit",
    "gevrey_besov_s0",
)


def _norm_row(coeffs: np.ndarray, t: float, config: SolverConfig, s0: float) -> dict:
    """Every norm of one state from its half-spectrum power and Gevrey weight."""
    grid = config.grid
    partition = default_partition(grid)
    half = coeffs[:, : grid.n // 2 + 1]
    power = half_power(grid, half)
    warm = gevrey_half_weight(grid, config.gevrey_epsilon0, t, config.gamma, half)
    warm_power = power * warm
    warm_power *= warm
    w_l2 = sobolev_weights(grid, 0.0, False)
    w_crit = sobolev_weights(grid, 2.0 - config.gamma, False)
    p = config.besov_p
    return {
        "l2": weighted_norm(grid, w_l2, power),
        "h_crit": weighted_norm(grid, w_crit, power),
        "besov_s0": half_besov_norm(partition, half, s0, p, math.inf, power=power),
        "gevrey_l2": weighted_norm(grid, w_l2, warm_power),
        "gevrey_h_crit": weighted_norm(grid, w_crit, warm_power),
        "gevrey_besov_s0": half_besov_norm(
            partition, half * warm, s0, p, math.inf, power=warm_power
        ),
    }


def _sup_rows(rows: list) -> dict:
    return {label: max(row[label] for row in rows) for label in NORM_LABELS}


def _check_steps(config: SolverConfig) -> int:
    n_steps = int(round(config.t_final / config.dt))
    if abs(n_steps * config.dt - config.t_final) > 1e-9 * config.t_final:
        raise UsageError("t_final must be an integer number of steps for iterates")
    return n_steps


def galerkin_sequence(
    theta0: SpectralField, n_range, config: SolverConfig, s0: float = DEFAULT_S0
) -> IterateTrace:
    """Truncated systems d/dt theta = -P(u . grad theta) - nu D^gamma theta.

    The cutoff P at level n keeps blocks <= n-1 and is applied to both the
    tendency and the data, so each iterate's spectrum stays inside the cutoff
    annulus; the trace records the worst relative mass found outside it.
    Differences between consecutive iterates are sups over the output
    cadence, and the geometric rate is fitted against 2^n.
    """
    grid = config.grid
    if theta0.grid != grid:
        raise UsageError("initial data grid does not match config grid")
    n_values = list(n_range)
    if len(n_values) < 2 or any(
        b - a != 1 for a, b in zip(n_values, n_values[1:])
    ):
        raise UsageError("n_range must be consecutive integers, length >= 2")
    partition = default_partition(grid)
    if n_values[-1] - 1 > partition.j_max_verified:
        raise UsageError(
            "cutoff exceeds the grid's fully resolved dyadic range "
            f"(max n = {partition.j_max_verified + 1})"
        )
    n_steps = _check_steps(config)
    stride = config.output_stride
    ka = grid_arrays(grid)

    trace = IterateTrace(
        scheme="galerkin",
        indices=n_values,
        norms={label: [] for label in NORM_LABELS},
        diffs={label: [] for label in NORM_LABELS},
        parameters={
            "gamma": config.gamma,
            "nu": config.nu,
            "dt": config.dt,
            "t_final": config.t_final,
            "s0": s0,
            "cutoff_rule": "blocks <= n-1",
        },
    )

    previous = None
    worst_leak = 0.0
    for n in n_values:
        cutoff = n - 1
        support_radius = PROFILE_OUTER * 2.0**cutoff
        low = MultiplierSpec.low_pass(cutoff).symbol_on(grid)
        stepper = Stepper(config, projection=cutoff)
        # Stepper.step returns a fresh array, so states are stored as is.
        coeffs = theta0.coeffs * ka.dealias_mask * low
        stored = [(0.0, coeffs)]
        t = 0.0
        for k in range(1, n_steps + 1):
            coeffs = stepper.step(coeffs)
            t += config.dt
            if k % stride == 0 or k == n_steps:
                stored.append((t, coeffs))
        outside = ka.k_abs > support_radius
        for _, c in stored:
            total = float(np.sum(np.abs(c) ** 2))
            if total > 0.0:
                leak = float(np.sum(np.abs(c[outside]) ** 2)) / total
                worst_leak = max(worst_leak, leak)
        rows = [_norm_row(c, ts, config, s0) for ts, c in stored]
        sups = _sup_rows(rows)
        for label in NORM_LABELS:
            trace.norms[label].append(sups[label])
        if previous is not None:
            diff_rows = []
            for (ts, c_new), (_, c_old) in zip(stored, previous):
                diff_rows.append(_norm_row(c_new - c_old, ts, config, s0))
            dsup = _sup_rows(diff_rows)
            for label in NORM_LABELS:
                trace.diffs[label].append(dsup[label])
        previous = stored

    trace.parameters["max_support_leak"] = worst_leak
    mids = [2.0**n for n in n_values[1:]]
    for label in NORM_LABELS:
        vals = trace.diffs[label]
        if len(vals) >= 2 and all(v > 0.0 for v in vals):
            trace.fits[label] = fit_log2(mids, vals)
    return trace


def picard_besov_sequence(
    theta0: SpectralField,
    n_range,
    p: float,
    q: float,
    config: SolverConfig,
    s0: float = DEFAULT_S0,
) -> IterateTrace:
    """Linearized iteration with frozen advecting field and growing data cutoff.

    Iterate k solves d/dt theta = -u^{(k-1)} . grad theta - nu D^gamma theta
    from data P_{<= n_k + 2} theta0, where u^{(k-1)} derives from the stored
    previous trajectory (theta^{(0)} = 0, so the first iterate is the pure
    linear flow).  On the periodic box the spatial cutoff that the scheme
    would use on the plane is identically 1 and only the frequency cutoff
    remains.  The trace's ``data_rate`` fit measures the cutoff-increment
    norms ||data_{k+1} - data_k||_{B^{s0}_{p,inf}} against 2^{n}.
    """
    grid = config.grid
    if theta0.grid != grid:
        raise UsageError("initial data grid does not match config grid")
    n_values = list(n_range)
    if len(n_values) < 2 or any(
        b - a != 1 for a, b in zip(n_values, n_values[1:])
    ):
        raise UsageError("n_range must be consecutive integers, length >= 2")
    partition = default_partition(grid)
    if n_values[-1] + 2 > partition.j_max_verified:
        raise UsageError(
            "data cutoff exceeds the grid's fully resolved dyadic range "
            f"(max n = {partition.j_max_verified - 2})"
        )
    n_steps = _check_steps(config)
    stride = config.output_stride
    ka = grid_arrays(grid)
    run_config = config
    if config.besov_p != p or config.besov_q != q:
        run_config = replace(config, besov_p=p, besov_q=q)

    trace = IterateTrace(
        scheme="picard",
        indices=n_values,
        norms={label: [] for label in NORM_LABELS},
        diffs={label: [] for label in NORM_LABELS},
        parameters={
            "gamma": config.gamma,
            "nu": config.nu,
            "dt": config.dt,
            "t_final": config.t_final,
            "p": p,
            "q": q,
            "s0": s0,
            "data_cutoff_rule": "blocks <= n+2",
            "spatial_cutoff": "identically 1 on the torus",
        },
    )

    data_fields = []
    for n in n_values:
        low = MultiplierSpec.low_pass(n + 2).symbol_on(grid)
        data_fields.append(theta0.coeffs * ka.dealias_mask * low)
    data_diffs = []
    for older, newer in zip(data_fields, data_fields[1:]):
        gap = SpectralField(grid, newer - older)
        data_diffs.append(besov_norm(gap, s0, p, math.inf, partition=partition))
    trace.parameters["data_diffs_besov_s0"] = data_diffs
    if len(data_diffs) >= 2 and all(v > 0.0 for v in data_diffs):
        trace.fits["data_rate"] = fit_log2(
            [2.0**n for n in n_values[1:]], data_diffs
        )

    # Zero advecting field of the first iterate: pure linear flow.
    zero = np.zeros((grid.n, grid.n), dtype=np.complex128)
    previous_traj = None  # trajectory of theta^{(k-1)} at every step
    previous_stored = None
    for idx, n in enumerate(n_values):
        stepper = Stepper(run_config)
        # Stepper.step neither mutates nor returns its input, so the
        # trajectory and the stored rows share the states without copies.
        coeffs = data_fields[idx]
        traj = [coeffs]
        stored = [(0.0, coeffs)]
        t = 0.0
        for k in range(1, n_steps + 1):
            if previous_traj is None:
                adv0 = adv1 = zero
            else:
                adv0 = previous_traj[k - 1]
                adv1 = previous_traj[k]
            coeffs = stepper.step(coeffs, advect_coeffs=adv0, advect_coeffs_end=adv1)
            t += config.dt
            traj.append(coeffs)
            if k % stride == 0 or k == n_steps:
                stored.append((t, coeffs))
        rows = [_norm_row(c, ts, run_config, s0) for ts, c in stored]
        sups = _sup_rows(rows)
        for label in NORM_LABELS:
            trace.norms[label].append(sups[label])
        if previous_stored is not None:
            diff_rows = []
            for (ts, c_new), (_, c_old) in zip(stored, previous_stored):
                diff_rows.append(_norm_row(c_new - c_old, ts, run_config, s0))
            dsup = _sup_rows(diff_rows)
            for label in NORM_LABELS:
                trace.diffs[label].append(dsup[label])
        previous_traj = traj
        previous_stored = stored

    ratios = []
    vals = trace.diffs["besov_s0"]
    for a, b in zip(vals, vals[1:]):
        ratios.append(b / a if a > 0.0 else math.inf)
    trace.parameters["contraction_ratios_besov_s0"] = ratios
    mids = [2.0**n for n in n_values[1:]]
    for label in NORM_LABELS:
        dvals = trace.diffs[label]
        if len(dvals) >= 2 and all(v > 0.0 for v in dvals):
            trace.fits[label] = fit_log2(mids, dvals)
    return trace
