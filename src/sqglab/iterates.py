"""Approximation schemes: dyadic Galerkin truncations and Picard sweeps.

Both schemes reuse the solver's steppers and run on one engine that
advances all iterates together, one step at a time, each held as its rfft
half spectrum, the later iterates as jobs of one helper thread
(``_helper._Helper``).  A Galerkin iterate integrates the
frequency-truncated tendency with truncated data; a Picard iterate solves a
linear advection-diffusion problem whose advecting velocity is frozen from
the previous iterate (interpolated linearly in time within each step).
Traces record per-iterate norms and successive differences so the
contraction rates asserted by the well-posedness argument can be fitted
rather than assumed.
"""

from __future__ import annotations

import math
from dataclasses import replace
from functools import partial

import numpy as np

from ._helper import _Helper
from .dyadic import _RowCore, besov_norm, default_partition
from .errors import UsageError
from .reports import IterateTrace, fit_log2
from .solver import SolverConfig, Stepper, _Lane
from .spectral import (
    PROFILE_OUTER,
    SpectralField,
    Velocity,
    _dealias_block,
    _velocity_on,
    grid_arrays,
    low_pass_symbol,
    velocity,
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


def _norm_core(config: SolverConfig) -> _RowCore:
    """The row core of a sweep's norm rows: orders 0 and critical, one
    Gevrey rate."""
    orders = ((0.0, False), (2.0 - config.gamma, False))
    return _RowCore(config.grid, config.gamma, orders, (config.gevrey_epsilon0,))


def _norm_row(half: np.ndarray, t: float, config: SolverConfig, s0: float,
              core: _RowCore, minus: np.ndarray | None = None) -> dict:
    """Every norm of one half-spectrum state, or of ``half - minus``, from
    one table product of its power and Gevrey-weighted power on the dealias
    block (:class:`~sqglab.dyadic._RowCore`, the sweep's ``core``)."""
    sums = core.row(half, t, minus)
    norms = np.sqrt(sums[:2])
    p = config.besov_p
    return {
        "l2": float(norms[0, 0]),
        "h_crit": float(norms[1, 0]),
        "besov_s0": core.besov(sums, 0, s0, p, math.inf),
        "gevrey_l2": float(norms[0, 1]),
        "gevrey_h_crit": float(norms[1, 1]),
        "gevrey_besov_s0": core.besov(sums, 1, s0, p, math.inf),
    }


def _fold_sup(sup: dict | None, row: dict) -> dict:
    """Running per-label maximum; the first row seeds it."""
    if sup is None:
        return row
    return {label: max(sup[label], row[label]) for label in NORM_LABELS}


def _validated(theta0: SpectralField, n_range, config: SolverConfig, s0: float,
               offset: int, what: str) -> tuple[list, int]:
    """Shared checks; ``n + offset`` is the highest block iterate n touches."""
    grid = config.grid
    if theta0.grid != grid:
        raise UsageError("initial data grid does not match config grid")
    if not math.isfinite(s0):
        raise UsageError(f"s0 must be finite, got {s0}")
    n_values = list(n_range)
    if len(n_values) < 2 or any(
        b - a != 1 for a, b in zip(n_values, n_values[1:])
    ):
        raise UsageError("n_range must be consecutive integers, length >= 2")
    j_max = default_partition(grid).j_max_verified
    if n_values[-1] + offset > j_max:
        raise UsageError(
            f"{what} exceeds the grid's fully resolved dyadic range "
            f"(max n = {j_max - offset})"
        )
    n_steps = int(round(config.t_final / config.dt))
    if abs(n_steps * config.dt - config.t_final) > 1e-9 * config.t_final:
        raise UsageError("t_final must be an integer number of steps for iterates")
    return n_values, n_steps


def _cut_data(theta0: SpectralField, cutoff: int) -> np.ndarray:
    """Half spectrum of the dealiased data restricted to blocks <= cutoff."""
    grid = theta0.grid
    low = low_pass_symbol(grid, cutoff)
    return theta0.coeffs * grid_arrays(grid).dealias_mask * low


def _split(costs) -> int:
    """The first index ``m`` at which the iterates before ``m`` carry half
    the total cost, clamped to ``1..N-1``."""
    total, prefix, m = sum(costs), 0, 0
    while 2 * prefix < total:
        prefix += costs[m]
        m += 1
    return min(max(m, 1), len(costs) - 1)


def _lockstep(
    scheme: str,
    n_values: list,
    states: list,
    advance,
    costs: list,
    n_steps: int,
    config: SolverConfig,
    s0: float,
    parameters: dict,
    fits: dict | None = None,
    audit=None,
) -> IterateTrace:
    """Advance every iterate together, one step at a time, on two threads.

    ``states`` holds each iterate's initial half spectrum; the engine
    empties the list, so that each state lives only until it is stepped.
    ``advance(i, state, previous, lane)`` returns iterate i's state at step
    k from its state at step k-1 and ``previous``, iterate i-1's state at
    step k (None for i = 0), stepping with ``lane``'s copies of its steppers
    (``solver._Lane``, one per thread).

    The iterates split into two contiguous groups of about equal cost
    (:func:`_split` of ``costs``, one number per iterate, such as the points
    of its step grid).  The front group, ``0..m-1``, steps on the calling
    thread; the back group, ``m..N-1``, on one helper thread
    (``_helper._Helper``) in scratch of its own, one step behind, since its
    first iterate at step k reads iterate m-1 at step k.  So wave w steps
    the front group to step w while the back group steps to w-1: one job
    handed to the helper, and its result taken.  After each wave the
    calling thread settles the back lane (its CFL peaks and advisories) and
    raises the back group's error, records the rows of step w-1, then
    settles the front lane and raises the front group's error: the order of
    a sequential run, whose every output, warning and error this engine
    reproduces.  The helper is
    joined before the engine returns or raises.

    At every stored time each state's norm row, and the row of its
    difference from the previous iterate, is folded into running sups, and
    ``audit(i, power)`` sees the state's power on the dealias block, flat,
    as its row formed it; memory therefore grows with the number of
    iterates, not of steps.  The rows of the last stored time, t_final, are
    kept as the final rows.  Differences are fitted geometrically against
    2^n.
    """
    core = _norm_core(config)
    norms = [None] * len(states)
    diffs = [None] * (len(states) - 1)
    final_norms = [None] * len(states)
    final_diffs = [None] * (len(states) - 1)

    def record(t, states):
        for i, coeffs in enumerate(states):
            final_norms[i] = _norm_row(coeffs, t, config, s0, core)
            if audit is not None:
                audit(i, core.powers[0])
            norms[i] = _fold_sup(norms[i], final_norms[i])
            if i:
                final_diffs[i - 1] = _norm_row(coeffs, t, config, s0, core, states[i - 1])
                diffs[i - 1] = _fold_sup(diffs[i - 1], final_diffs[i - 1])

    def step_group(lo, group, previous, lane):
        stepped = []
        for i, state in enumerate(group, lo):
            previous = advance(i, state, previous, lane)
            stepped.append(previous)
        return stepped

    t = 0.0
    record(t, states)
    m = _split(costs)
    front, back = states[:m], states[m:]
    states.clear()
    front_lane, back_lane = _Lane(), _Lane(own_scratch=True)
    with _Helper("sqglab-lockstep") as helper:
        for wave in range(1, n_steps + 2):
            k = wave - 1  # the back group's step
            if k:
                helper.hand(partial(step_group, m, back, front[-1], back_lane))
            error = None
            if wave <= n_steps:
                try:
                    stepped = step_group(0, front, None, front_lane)
                except Exception as exc:  # raised below, in sequential order
                    error = exc
            if k:
                back, back_error = helper.take()
                back_lane.settle()
                if back_error is not None:
                    raise back_error
                t += config.dt
                if k % config.output_stride == 0 or k == n_steps:
                    record(t, front + back)
            front_lane.settle()
            if error is not None:
                raise error
            if wave <= n_steps:
                front = stepped

    def columns(rows):
        return {label: [row[label] for row in rows] for label in NORM_LABELS}

    trace = IterateTrace(
        scheme=scheme,
        indices=n_values,
        norms=columns(norms),
        diffs=columns(diffs),
        fits=fits or {},
        parameters=parameters,
        final_norms=columns(final_norms),
        final_diffs=columns(final_diffs),
    )
    mids = [2.0**n for n in n_values[1:]]
    for label in NORM_LABELS:
        vals = trace.diffs[label]
        if len(vals) >= 2 and all(v > 0.0 for v in vals):
            trace.fits[label] = fit_log2(mids, vals)
    return trace


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
    n_values, n_steps = _validated(theta0, n_range, config, s0, -1, "cutoff")
    grid = config.grid
    block = _dealias_block(grid)
    k_abs = block.restrict(grid_arrays(grid).k_abs, np.empty(block.shape)).ravel()
    outside = [k_abs > PROFILE_OUTER * 2.0 ** (n - 1) for n in n_values]
    steppers = [Stepper(config, projection=n - 1) for n in n_values]
    worst_leak = 0.0

    def audit(i, power):
        nonlocal worst_leak
        total = float(np.sum(power))
        if total > 0.0:
            leak = float(np.sum(power[outside[i]])) / total
            worst_leak = max(worst_leak, leak)

    trace = _lockstep(
        "galerkin",
        n_values,
        [_cut_data(theta0, n - 1) for n in n_values],
        lambda i, state, previous, lane: lane.stepper(steppers[i]).step(state),
        [stepper.step_grid.n ** 2 for stepper in steppers],
        n_steps,
        config,
        s0,
        parameters={
            "gamma": config.gamma,
            "nu": config.nu,
            "dt": config.dt,
            "t_final": config.t_final,
            "s0": s0,
            "cutoff_rule": "blocks <= n-1",
        },
        audit=audit,
    )
    trace.parameters["max_support_leak"] = worst_leak
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
    from data P_{<= n_k + 2} theta0, where u^{(k-1)} derives from the
    previous iterate, advanced in lockstep (theta^{(0)} = 0, so the first
    iterate is the pure linear flow).  On the periodic box the spatial cutoff
    that the scheme would use on the plane is identically 1 and only the
    frequency cutoff remains.  The trace's ``data_rate`` fit measures the
    cutoff-increment norms ||data_{k+1} - data_k||_{B^{s0}_{p,inf}} against
    2^{n}.
    """
    n_values, n_steps = _validated(theta0, n_range, config, s0, 2, "data cutoff")
    grid = config.grid
    run_config = config
    if config.besov_p != p or config.besov_q != q:
        run_config = replace(config, besov_p=p, besov_q=q)

    data_fields = [_cut_data(theta0, n + 2) for n in n_values]
    data_diffs = [
        besov_norm(SpectralField(grid, newer - older), s0, p, math.inf)
        for older, newer in zip(data_fields, data_fields[1:])
    ]
    fits = {}
    if len(data_diffs) >= 2 and all(v > 0.0 for v in data_diffs):
        fits["data_rate"] = fit_log2([2.0**n for n in n_values[1:]], data_diffs)

    # Every iterate has the same config and no projection, so one stepper
    # serves them all, on both threads of the lockstep.  The first iterate
    # advects with the zero field, whose velocity holds no samples and costs
    # no transform; iterate i's velocity ramps linearly from that of
    # iterate i-1's state at step k-1 to that at step k.  The ramp's end
    # velocity is the next step's start velocity, so it is handed over
    # instead of synthesized again: one velocity per iterate is held between
    # steps.
    stepper = Stepper(run_config)
    still = np.broadcast_to(0.0, (grid.n, grid.n))
    zero = Velocity(still, still, 0.0)
    starts = [zero] + [velocity(grid, d) for d in data_fields[:-1]]

    def advance(i, state, previous, lane):
        own = lane.stepper(stepper)
        end = _velocity_on(own.block, previous) if i else zero
        out = own.step(state, advect=(starts[i], end))
        starts[i] = end
        return out

    # The lockstep empties data_fields: no state of step 0 outlives its step.
    trace = _lockstep(
        "picard",
        n_values,
        data_fields,
        advance,
        [0] + [grid.n ** 2] * (len(n_values) - 1),
        n_steps,
        run_config,
        s0,
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
            "data_diffs_besov_s0": data_diffs,
        },
        fits=fits,
    )
    vals = trace.diffs["besov_s0"]
    trace.parameters["contraction_ratios_besov_s0"] = [
        b / a if a > 0.0 else math.inf for a, b in zip(vals, vals[1:])
    ]
    return trace
