"""Time integration: exactness, order, guards, conservation, mild form."""

import math
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest

from sqglab.dyadic import default_partition
from sqglab.errors import CflGuardError, GuardError, OverflowGuardError, UsageError
from sqglab.sampling import power_law_field
from sqglab.solver import (
    INTEGRATORS,
    MAX_STEPS,
    _emit_core,
    _factor_tables,
    _phi1,
    _phi2,
    SolverConfig,
    Stepper,
    conservation_report,
    gevrey_safe_horizon,
    mild_residual,
    nonlinear_term,
    run_simulation,
    stepping_grid,
)
from sqglab import spectral
from sqglab.spectral import (
    GridSpec,
    SpectralField,
    Velocity,
    block_symbol,
    field_to_bytes,
    forward_transform,
    full_spectrum,
    grid_arrays,
    low_pass_symbol,
    lp_norm,
    sobolev_norm,
    transport,
    velocity,
)

from oracles import (
    besov_sample_oracle,
    complex_samples,
    full,
    full_k_power,
    full_lattice,
    full_profile,
    full_sobolev_norm,
    gevrey_warm,
    half,
    nonlinear_term_divergence,
)

GRID = GridSpec(64)
HALF = GRID.n // 2 + 1  # columns of the rfft half spectrum


def single_mode(grid, k1, k2, amp=1.0):
    x = grid.axis_points()
    xx, yy = np.meshgrid(x, x, indexing="ij")
    return forward_transform(amp * np.cos(k1 * xx + k2 * yy), grid)


def small_random(grid, seed=5, amp=0.05):
    rng = np.random.default_rng(seed)
    field = power_law_field(grid, 2.7, rng)
    return field.with_coeffs(field.coeffs * amp)


def test_config_bounds_galerkin_n_and_j0_by_the_partition():
    # Past these bounds the projection and the split are the identity on
    # every mode; from about 1025 on, 2.0 ** j overflowed inside the run.
    grid = GridSpec(16)
    j_max = default_partition(grid).j_max
    theta = small_random(grid, amp=0.3)
    for key, bound in (("galerkin_n", j_max + 1), ("j0", j_max)):
        series = run_simulation(theta, SolverConfig(grid=grid, t_final=2e-3, **{key: bound}))
        assert not series.aborted
        for bad in (bound + 1, 2000):
            with pytest.raises(UsageError, match=f"{key} must be <= {bound}"):
                SolverConfig(grid=grid, **{key: bad})
    # At j_min - 1 the low part of the mean-free state is already exactly 0;
    # far below it 2.0 ** j underflows into 0 / 0 in the low-pass symbol.
    floor = default_partition(grid).j_min - 1
    series = run_simulation(theta, SolverConfig(grid=grid, t_final=2e-3, j0=floor))
    assert not series.aborted and not np.any(series.columns["split_low_l2"])
    for bad in (floor - 1, -2000):
        with pytest.raises(UsageError, match=f"j0 must be >= {floor}"):
            SolverConfig(grid=grid, j0=bad)


def test_config_validation_messages():
    with pytest.raises(UsageError, match=r"\(0, 2\]"):
        SolverConfig(grid=GRID, gamma=3.0)
    with pytest.raises(UsageError):
        SolverConfig(grid=GRID, dt=0.0)
    with pytest.raises(UsageError):
        SolverConfig(grid=GRID, nu=-1.0)
    with pytest.raises(UsageError):
        SolverConfig(grid=GRID, integrator="leapfrog")
    with pytest.raises(UsageError):
        SolverConfig(grid=GRID, gevrey_epsilon0=1.0)
    with pytest.raises(UsageError):
        SolverConfig(grid=GRID, output_stride=0)
    with pytest.raises(UsageError):
        SolverConfig(grid=GRID, galerkin_n=0)
    for key in ("nu", "dt", "t_final"):
        for value in (math.inf, math.nan):
            with pytest.raises(UsageError, match=f"{key} must be finite"):
                SolverConfig(grid=GRID, **{key: value})
    with pytest.raises(UsageError, match="besov_p and besov_q"):
        SolverConfig(grid=GRID, besov_p=math.nan)
    assert SolverConfig(grid=GRID, besov_p=math.inf, besov_q=math.inf).besov_q == math.inf


def test_a_step_count_past_max_steps_is_refused_at_construction():
    # Refused where the config is built, so no such run is ever started
    # here; dt 1e-300 to t_final 2e-3 would be about 2e297 steps.  The bound
    # itself is allowed, and an infinite quotient is refused, not an error.
    for dt, t_final in ((1e-300, 2e-3), (0.5, (MAX_STEPS + 1) * 0.5), (5e-324, 1e300)):
        with pytest.raises(UsageError, match="solver.dt"):
            SolverConfig(grid=GRID, dt=dt, t_final=t_final)
    assert SolverConfig(grid=GRID, dt=0.5, t_final=MAX_STEPS * 0.5).dt == 0.5


def test_nonlinear_term_single_mode_vanishes():
    # one plane-wave pair: the velocity is parallel to the level lines
    field = single_mode(GRID, 3, 2)
    out = nonlinear_term(field)
    assert np.max(np.abs(out.coeffs)) < 1e-14


def test_nonlinear_forms_agree(rng):
    theta = small_random(GRID, amp=1.0)
    a = full(nonlinear_term(theta))
    b = nonlinear_term_divergence(theta)
    scale = np.max(np.abs(a))
    assert np.max(np.abs(a - b)) < 1e-10 * scale


@pytest.mark.parametrize("n", [32, 96, 128, 256])
def test_nonlinear_term_keeps_both_quadratic_invariants(n):
    # On dealiased data the truncated product is exact, so N = nonlinear_term
    # is orthogonal to theta (energy) and to Lambda^{-1} theta (SQG's
    # Hamiltonian, the H^{-1/2} norm).
    grid = GridSpec(n)
    for seed in range(3):
        theta = power_law_field(grid, 2.5, np.random.default_rng(seed))
        th, nl = full(theta), full(nonlinear_term(theta))
        scale = np.linalg.norm(th) * np.linalg.norm(nl)
        assert abs(np.vdot(th, nl).real) <= 1e-14 * scale, seed
        assert abs(np.vdot(th * full_lattice(grid).inv_k_abs, nl).real) <= 1e-14 * scale, seed


def test_nonlinear_term_pins_mean():
    theta = small_random(GRID, amp=1.0)
    out = nonlinear_term(theta)
    assert out.coeffs[0, 0] == 0.0


def test_nonlinear_term_requires_mean_free():
    c = single_mode(GRID, 2, 1).coeffs.copy()
    c[0, 0] = 1.0
    with pytest.raises(UsageError):
        nonlinear_term(SpectralField(GRID, c))


def test_linear_flow_is_exact_per_mode():
    # pure dissipation of an eigenmode: the integrating factor is exact
    field = single_mode(GRID, 3, 2)
    cfg = SolverConfig(grid=GRID, nu=1.0, gamma=0.5, dt=1e-2, t_final=0.5)
    series = run_simulation(field, cfg)
    decay = math.exp(-0.5 * 13.0**0.25)
    expected = sobolev_norm(field, 0.0) * decay
    got = series.column("l2")[-1]
    assert got == pytest.approx(expected, rel=1e-12)


@pytest.mark.parametrize("integrator, floor", [("if_rk4", 3.8), ("etd_rk2", 1.8)])
def test_richardson_order(integrator, floor):
    theta = small_random(GRID, amp=0.4)
    errs = []
    dts = (4e-3, 2e-3, 1e-3)
    ref_cfg = SolverConfig(
        grid=GRID, nu=0.1, gamma=0.5, dt=2.5e-4, t_final=0.04, integrator=integrator
    )
    ref = run_simulation(theta, ref_cfg).final_state.coeffs
    for dt in dts:
        cfg = SolverConfig(
            grid=GRID, nu=0.1, gamma=0.5, dt=dt, t_final=0.04, integrator=integrator
        )
        out = run_simulation(theta, cfg).final_state.coeffs
        errs.append(float(np.linalg.norm(out - ref)))
    orders = [math.log2(errs[i] / errs[i + 1]) for i in range(len(errs) - 1)]
    assert min(orders) >= floor, orders


def test_inviscid_l2_conservation():
    theta = small_random(GRID, amp=0.3)
    cfg = SolverConfig(grid=GRID, nu=0.0, gamma=0.5, dt=1e-3, t_final=0.05)
    series = run_simulation(theta, cfg)
    l2 = series.column("l2")
    assert abs(l2[-1] - l2[0]) / l2[0] < 1e-10


def test_viscous_monotonicity_and_energy_balance():
    theta = small_random(GRID, amp=0.3)
    cfg = SolverConfig(grid=GRID, nu=1.0, gamma=0.5, dt=1e-3, t_final=0.05)
    series = run_simulation(theta, cfg)
    report = conservation_report(series)
    assert report["l2_monotone"]
    assert report["linf_monotone"]
    assert report["h_neg_half_monotone"]
    assert report["energy_balance_residual"] < 1e-6


def test_mean_invariance_exact():
    theta = small_random(GRID, amp=0.3)
    cfg = SolverConfig(grid=GRID, nu=0.5, gamma=0.5, dt=1e-3, t_final=0.02)
    series = run_simulation(theta, cfg)
    assert series.final_state.coeffs[0, 0] == 0.0


def test_dissipation_strength_ordering():
    # more viscosity, faster L2 decay, pointwise in time
    theta = small_random(GRID, amp=0.3)
    runs = []
    for nu in (0.5, 1.0, 2.0):
        cfg = SolverConfig(grid=GRID, nu=nu, gamma=0.5, dt=1e-3, t_final=0.03)
        runs.append(run_simulation(theta, cfg).column("l2"))
    assert np.all(runs[0][1:] > runs[1][1:])
    assert np.all(runs[1][1:] > runs[2][1:])


def test_gevrey_weight_monotone_in_epsilon0():
    theta = small_random(GRID, amp=0.3)
    vals = []
    for eps0 in (0.25, 0.5, 0.75):
        cfg = SolverConfig(
            grid=GRID, nu=1.0, gamma=0.5, dt=1e-3, t_final=0.03, gevrey_epsilon0=eps0
        )
        vals.append(run_simulation(theta, cfg).column("gevrey_h_crit")[-1])
    assert vals[0] < vals[1] < vals[2]


def test_overflow_guard_blocks_long_runs():
    theta = small_random(GRID, amp=0.3)
    horizon = gevrey_safe_horizon(GRID, 1.0, 0.5)
    cfg = SolverConfig(grid=GRID, nu=1.0, gamma=1.0, dt=1e-2, t_final=2.0 * horizon)
    with pytest.raises(OverflowGuardError, match="safe horizon"):
        run_simulation(theta, cfg)


def test_cfl_warning_then_abort():
    fast = small_random(GRID, seed=8, amp=12.0)
    # lands in the warn band (1, 2]: measured CFL ~ 1.5 on the first step
    cfg = SolverConfig(grid=GRID, nu=0.001, gamma=0.5, dt=1.2e-3, t_final=0.02)
    with pytest.warns(RuntimeWarning, match="CFL"):
        series = run_simulation(fast, cfg)
    assert 1.0 < series.cfl_max <= 2.0
    assert not series.aborted

    blowup = small_random(GRID, seed=8, amp=40.0)
    cfg2 = SolverConfig(grid=GRID, nu=0.001, gamma=0.5, dt=5e-3, t_final=0.05)
    series2 = run_simulation(blowup, cfg2)
    assert series2.aborted
    assert "CFL" in series2.abort_reason
    assert series2.final_state is None
    assert len(series2.column("t")) >= 1  # partial series survives


def test_stepper_rejects_direct_cfl_breach():
    blowup = small_random(GRID, seed=8, amp=40.0)
    cfg = SolverConfig(grid=GRID, nu=0.001, gamma=0.5, dt=5e-3, t_final=0.05)
    stepper = Stepper(cfg)
    with pytest.raises(CflGuardError):
        coeffs = blowup.coeffs * grid_arrays(GRID).dealias_mask
        for _ in range(10):
            coeffs = stepper.step(coeffs)


@pytest.mark.parametrize("integrator", ["if_rk4", "etd_rk2"])
def test_cfl_guard_checks_every_stage(integrator):
    # Frozen advection ramping from zero: the first stage's velocity is 0,
    # so only the later stages see the breach.
    mask = grid_arrays(GRID).dealias_mask
    theta = small_random(GRID, amp=0.3).coeffs * mask
    fast = small_random(GRID, seed=8, amp=40.0).coeffs * mask
    cfg = SolverConfig(grid=GRID, nu=0.001, gamma=0.5, dt=5e-3, t_final=0.05,
                       integrator=integrator)
    stepper = Stepper(cfg)
    advect = (velocity(GRID, np.zeros_like(theta)), velocity(GRID, fast))
    with pytest.raises(CflGuardError):
        stepper.step(theta, advect=advect)
    assert stepper.cfl_max > 2.0


@pytest.mark.parametrize("integrator", INTEGRATORS)
def test_zero_ramp_step_is_the_heat_flow_and_keeps_the_nan_guard(
        integrator, count_transforms):
    # The iterate-0 Picard step: frozen advection by the zero field.  Its
    # tendencies are exactly zero and cost no transform, but a NaN in the
    # state must still stop the step.
    mask = grid_arrays(GRID).dealias_mask
    coeffs = small_random(GRID, amp=0.3).coeffs * mask
    zero = velocity(GRID, np.zeros_like(coeffs))
    cfg = SolverConfig(grid=GRID, nu=1.0, gamma=0.5, dt=1e-3, integrator=integrator)
    stepper = Stepper(cfg)
    out, calls = count_transforms(stepper.step, coeffs, advect=(zero, zero))
    assert calls == 0
    heat = half(GRID, np.exp(-cfg.nu * cfg.dt * full_k_power(GRID, cfg.gamma)))
    np.testing.assert_allclose(out, heat * coeffs, rtol=1e-14, atol=0.0)
    assert stepper.cfl_max == 0.0
    coeffs[3, 2] = np.nan
    with pytest.raises(GuardError, match="NaN guard"):
        stepper.step(coeffs, advect=(zero, zero))


@pytest.mark.parametrize("wide", [False, True])
def test_ramp_mid_velocity_is_the_velocity_of_the_mid_field(wide):
    # R_perp and the synthesis are linear, so the mean of the end velocities
    # is the velocity of the mean field up to rounding, in every sample and
    # in the peak speed the CFL guard reads.  With ``wide`` the end field
    # has modes outside the dealias block, so its velocity is synthesized
    # on the whole half spectrum.
    mask = grid_arrays(GRID).dealias_mask
    start = small_random(GRID, seed=6, amp=0.5).coeffs * mask
    if wide:
        end = power_law_field(GRID, 2.7, np.random.default_rng(7), k_cut=GRID.n).coeffs
    else:
        end = small_random(GRID, seed=7, amp=0.5).coeffs * mask
    stepper = Stepper(SolverConfig(grid=GRID))
    ends = (velocity(GRID, start), velocity(GRID, end))
    v0, mid, v1 = stepper._ramp(ends, True)
    want = velocity(GRID, 0.5 * (start + end))
    assert want.umax > 0.0
    for got, ref in ((mid.u1, want.u1), (mid.u2, want.u2)):
        assert np.max(np.abs(got - ref)) <= 1e-14 * want.umax
    assert mid.umax == pytest.approx(want.umax, rel=1e-14, abs=0.0)
    # The end velocities are the pair's, and ETD-RK2's ramp has no mid
    # stage.
    assert (v0, v1) == ends
    assert stepper._ramp(ends, False) == ends


@pytest.mark.parametrize("integrator, transforms", [("if_rk4", 20), ("etd_rk2", 10)])
def test_autonomous_step_transform_budget(integrator, transforms, count_transforms):
    # Five transforms per stage: two for the velocity, two for the gradient
    # and one back; no step may add more unnoticed.
    mask = grid_arrays(GRID).dealias_mask
    coeffs = small_random(GRID, amp=0.3).coeffs * mask
    cfg = SolverConfig(grid=GRID, nu=1.0, gamma=0.5, dt=1e-3, integrator=integrator)
    for projection in (None, 3):
        stepper = Stepper(cfg, projection=projection)
        state = coeffs if projection is None else coeffs * low_pass_symbol(GRID, projection)
        _, calls = count_transforms(stepper.step, state)
        assert calls == transforms



@pytest.mark.parametrize("integrator", INTEGRATORS)
def test_warm_step_allocates_little_beyond_its_result(integrator):
    # The stages run in the dealias block's buffers, on contiguous arrays
    # and complex tables, so a warm step's traced peak is its returned state
    # and no NumPy iterator or cast buffer (1.01x here).  Fresh stage arrays
    # read 9.9x the state's bytes (IF-RK4) and 7.9x (ETD-RK2); full-width
    # stages with column-slice operands 3.0x.
    grid = GridSpec(128)
    field = power_law_field(grid, 2.7, np.random.default_rng(3))
    mask = grid_arrays(grid).dealias_mask
    coeffs = field.coeffs / sobolev_norm(field, 0.0) * mask
    stepper = Stepper(SolverConfig(grid=grid, dt=2e-4, integrator=integrator))
    coeffs = stepper.step(coeffs)
    tracemalloc.start()
    try:
        stepper.step(coeffs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.25 * coeffs.nbytes, peak / coeffs.nbytes


@pytest.mark.parametrize("t_final, misses", [(0.1, 1), (0.1005, 2)])
def test_last_step_within_round_off_of_dt_is_a_full_step(t_final, misses):
    # 100 steps of 1e-3 leave 0.0009999999999999315 for the last step; it
    # runs as dt and reuses the run's factor tables.  A genuinely short last
    # step (t_final 0.1005) builds its own.
    theta = small_random(GRID, amp=0.3)
    cfg = SolverConfig(grid=GRID, nu=1.0, gamma=0.5, dt=1e-3, t_final=t_final,
                       output_stride=50)
    _factor_tables.cache_clear()
    series = run_simulation(theta, cfg)
    assert _factor_tables.cache_info().misses == misses
    assert series.column("t")[-1] == t_final


def test_galerkin_truncation_support_invariant():
    theta = small_random(GRID, amp=0.3)
    cfg = SolverConfig(grid=GRID, nu=0.2, gamma=0.5, dt=1e-3, t_final=0.03,
                       galerkin_n=4)
    series = run_simulation(theta, cfg)
    ka = grid_arrays(GRID)
    outside = np.abs(series.final_state.coeffs)[ka.k_abs > 7.0 / 6.0 * 8.0]
    assert np.max(outside) == 0.0


def test_j0_split_columns():
    theta = small_random(GRID, amp=0.3)
    cfg = SolverConfig(grid=GRID, nu=0.2, gamma=0.5, dt=1e-3, t_final=0.01, j0=3)
    series = run_simulation(theta, cfg)
    low = series.column("split_low_l2")
    high = series.column("split_high_l2")
    total = series.column("l2")
    # Pythagoras up to the profile overlap: split pieces bound the total
    assert np.all(np.sqrt(low**2 + high**2) <= total * 1.5)
    assert np.all(low > 0.0) and np.all(high > 0.0)


def test_determinism_bitwise():
    theta = small_random(GRID, amp=0.3)
    cfg = SolverConfig(grid=GRID, nu=1.0, gamma=0.5, dt=1e-3, t_final=0.02)
    a = run_simulation(theta, cfg)
    b = run_simulation(theta, cfg)
    assert np.array_equal(a.final_state.coeffs, b.final_state.coeffs)
    for name in a.columns:
        assert a.columns[name] == b.columns[name]


def test_mild_residual_linear_flow():
    field = single_mode(GRID, 3, 2)
    cfg = SolverConfig(
        grid=GRID, nu=1.0, gamma=0.5, dt=1e-3, t_final=0.05, snapshot_stride=5
    )
    series = run_simulation(field, cfg)
    assert mild_residual(series, 0.0, 0.05) < 1e-10


def test_mild_residual_nonlinear_refines():
    theta = small_random(GRID, amp=0.5)
    residuals = []
    for stride in (25, 5):
        cfg = SolverConfig(
            grid=GRID, nu=1.0, gamma=0.5, dt=1e-3, t_final=0.05,
            snapshot_stride=stride,
        )
        series = run_simulation(theta, cfg)
        residuals.append(mild_residual(series, 0.0, 0.05))
    assert residuals[0] < 1e-4
    assert residuals[1] < residuals[0]


def test_mild_residual_needs_bracketing_snapshots():
    theta = small_random(GRID, amp=0.3)
    cfg = SolverConfig(grid=GRID, nu=1.0, gamma=0.5, dt=1e-3, t_final=0.02,
                       snapshot_stride=5)
    series = run_simulation(theta, cfg)
    with pytest.raises(UsageError):
        mild_residual(series, 0.0, 0.5)


def test_grid_mismatch_rejected():
    theta = small_random(GridSpec(32), amp=0.3)
    cfg = SolverConfig(grid=GRID)
    with pytest.raises(UsageError):
        run_simulation(theta, cfg)


def old_emit_columns(config, states):
    """The diagnostics rows of ``states`` [(t, field)], column by column.

    The row formula the solver used before the half-spectrum power rows:
    complex inverse FFT samples, one field copy per column, Besov norms
    from block samples, Sobolev sums over the full lattice.
    """
    grid = config.grid
    partition = default_partition(grid)
    s_crit = 2.0 - config.gamma
    cols = {}
    integral, last_t, last_sq = 0.0, None, None

    def put(name, value):
        cols.setdefault(name, []).append(value)

    for t, f in states:
        samples = complex_samples(full(f))
        put("t", t)
        for p, name in ((1.0, "l1"), (2.0, "l2"), (4.0, "l4"), (math.inf, "linf")):
            put(name, lp_norm(samples, p, grid.cell_area))
        put("h_neg_half", full_sobolev_norm(f, -0.5, homogeneous=True))
        put("h_crit", full_sobolev_norm(f, s_crit))
        warm = gevrey_warm(f, config.gevrey_epsilon0, t, config.gamma)
        put("gevrey_h_crit", full_sobolev_norm(warm, s_crit))
        half_warm = gevrey_warm(f, 0.5, t, config.gamma)
        put("besov_weighted", besov_sample_oracle(
            half_warm, 1.0 - config.gamma + 2.0 / config.besov_p,
            config.besov_p, config.besov_q, partition=partition,
        ))
        put("dissipation", full_sobolev_norm(f, config.gamma / 2.0, homogeneous=True) ** 2)
        warm_mid = full_sobolev_norm(warm, 2.0 - config.gamma / 2.0) ** 2
        if last_t is not None:
            integral += 0.5 * (last_sq + warm_mid) * (t - last_t)
        last_t, last_sq = t, warm_mid
        put("gevrey_dissipation_integral", integral)
        for j in partition.block_indices():
            block = full(f) * full_profile(grid, "block", j)
            put(f"block_{j}_l2", full_sobolev_norm(SpectralField(grid, half(grid, block)), 0.0))
        if config.j0 is not None:
            split = full_profile(grid, "low_pass", config.j0)
            low = SpectralField(grid, half(grid, full(f) * split))
            high = SpectralField(grid, half(grid, full(f) * (1.0 - split)))
            put("split_low_l2", full_sobolev_norm(low, 0.0))
            put("split_high_l2", full_sobolev_norm(high, 0.0))
    return cols


@pytest.mark.parametrize("grid, besov_p, besov_q, eps0", [
    (GridSpec(64), 2.0, 2.0, 0.5),
    (GridSpec(64, period=3.0), 4.0, math.inf, 0.3),
    (GridSpec(128), 1.0, 1.0, 0.7),
])
def test_emit_rows_match_old_emit(grid, besov_p, besov_q, eps0):
    theta = power_law_field(grid, 2.2, np.random.default_rng(8))
    theta = theta.with_coeffs(theta.coeffs * 0.5 / sobolev_norm(theta, 0.0))
    cfg = SolverConfig(grid=grid, nu=0.5, gamma=0.5, dt=2e-3, t_final=0.02,
                       integrator="etd_rk2", gevrey_epsilon0=eps0,
                       besov_p=besov_p, besov_q=besov_q, j0=3,
                       output_stride=1, snapshot_stride=1)
    series = run_simulation(theta, cfg)
    assert not series.aborted
    want = old_emit_columns(cfg, series.snapshots)
    assert set(want) == set(series.columns)
    for name, values in want.items():
        np.testing.assert_allclose(series.column(name), values, rtol=1e-12, atol=0.0,
                                   err_msg=name)


def test_run_simulation_adds_no_symbol_cache_entries():
    theta = small_random(GRID, amp=0.3)
    cfg = SolverConfig(grid=GRID, nu=1.0, gamma=0.5, dt=1e-3, t_final=0.02,
                       output_stride=1, j0=3)
    caches = (low_pass_symbol, block_symbol)
    for cache in caches:
        cache.cache_clear()
    run_simulation(theta, replace(cfg, t_final=1e-3))  # fills the t-free symbols
    infos = [cache.cache_info() for cache in caches]
    series = run_simulation(theta, cfg)
    assert len(series.column("t")) == 21
    for cache, before in zip(caches, infos):
        after = cache.cache_info()
        assert after.currsize == before.currsize
        assert after.misses == before.misses


@pytest.mark.parametrize("integrator", INTEGRATORS)
def test_step_neither_mutates_nor_aliases_input(integrator):
    cfg = SolverConfig(grid=GRID, nu=1.0, gamma=0.5, dt=1e-3, t_final=0.01,
                       integrator=integrator)
    stepper = Stepper(cfg)
    coeffs = small_random(GRID, amp=0.3).coeffs.copy()
    advect = small_random(GRID, seed=6, amp=0.3).coeffs.copy()
    before, advect_before = coeffs.copy(), advect.copy()
    vel = velocity(GRID, advect)
    for kwargs in ({}, {"advect": (vel, vel)}):
        out = stepper.step(coeffs, **kwargs)
        assert np.array_equal(coeffs, before)
        assert np.array_equal(advect, advect_before)
        assert not np.shares_memory(out, coeffs)
        assert not np.shares_memory(out, advect)


# -- the half-spectrum state against the full-lattice stepper it replaced ----


def hermitian_extension(grid, half):
    """Full-lattice coefficients of a half spectrum, extended as transport
    used to extend its product."""
    n = grid.n
    m = n // 2 + 1
    out = np.empty((n, n), dtype=np.complex128)
    out[:, :m] = half
    np.conjugate(half[0, n // 2 - 1 : 0 : -1], out=out[0, m:])
    np.conjugate(half[:0:-1, n // 2 - 1 : 0 : -1], out=out[1:, m:])
    return out


class FullLatticeStepper:
    """The stepper as it was before the half-spectrum state: full (n, n)
    arrays, every transport product extended to the full lattice, every RK
    stage done on all n^2 modes.  Guards left out.  A frozen advecting
    field ramps as the stepper's does: its end velocities are synthesized,
    and its mid velocity is their mean in samples."""

    def __init__(self, config, projection=None):
        self.config = config
        self.grid = config.grid
        self.half = self.grid.n // 2 + 1
        self.low = None
        if projection is not None:
            self.low = full_profile(self.grid, "low_pass", projection)
        self.symbol = config.nu * full_k_power(self.grid, config.gamma)

    def factors(self, dt):
        z = -self.symbol * dt
        if self.config.integrator == "if_rk4":
            e_half = np.exp(0.5 * z)
            return e_half, e_half * e_half
        return np.exp(z), _phi1(z), _phi2(z)

    def product(self, source, target):
        """The transport product of two full arrays, extended."""
        m = self.half
        return hermitian_extension(self.grid, transport(self.grid, source[:, :m],
                                                        target[:, :m])[0])

    def advect(self, vel, target):
        """The transport product of a full array by a sampled velocity,
        extended."""
        half = target[:, : self.half]
        block = spectral._block_of(self.grid, half)
        target = block.restrict(half, block.operand)
        product = spectral._block_advect(block, vel, target, block.operand)
        return hermitian_extension(self.grid, block.embed(product, np.zeros_like(half)))

    def ramp(self, adv0, adv1):
        """Velocities at times 0, 1/2 and 1 of the step."""
        if adv0 is None:
            return None, None, None
        v0, v1 = (velocity(self.grid, adv[:, : self.half]) for adv in (adv0, adv1))
        u = 0.5 * (np.stack([v0.u1, v0.u2]) + np.stack([v1.u1, v1.u2]))
        return v0, Velocity(u[0], u[1], float(np.hypot(u[0], u[1]).max())), v1

    def rhs(self, coeffs, vel):
        if vel is not None:
            return -self.advect(vel, coeffs)
        if self.low is None:
            return -self.product(coeffs, coeffs)
        coeffs = coeffs * self.low
        out = self.product(coeffs, coeffs)
        out *= -self.low
        return out

    def step(self, coeffs, adv0=None, adv1=None):
        dt = self.config.dt
        v0, vh, v1 = self.ramp(adv0, adv1)
        if self.config.integrator == "if_rk4":
            e1, e2 = self.factors(dt)
            m1 = self.rhs(coeffs, v0)
            m2 = self.rhs(e1 * (coeffs + 0.5 * dt * m1), vh)
            m3 = self.rhs(e1 * coeffs + 0.5 * dt * m2, vh)
            m4 = self.rhs(e2 * coeffs + dt * e1 * m3, v1)
            return e2 * coeffs + (dt / 6.0) * (e2 * m1 + 2.0 * e1 * (m2 + m3) + m4)
        ez, p1, p2 = self.factors(dt)
        n0 = self.rhs(coeffs, v0)
        predictor = ez * coeffs + dt * p1 * n0
        n1 = self.rhs(predictor, v1)
        return predictor + dt * p2 * (n1 - n0)


def lattice_rows(n, size):
    """Rows (and columns) of an n^2 full lattice that a size^2 grid holds:
    ``m`` in ``[-size/2, size/2)``, in FFT order."""
    return np.r_[0 : size // 2, n - size // 2 : n]


@pytest.mark.parametrize("mode", ["plain", "galerkin", "picard_ramp"])
@pytest.mark.parametrize("integrator", INTEGRATORS)
def test_half_state_steps_match_full_lattice_stepper(integrator, mode):
    cfg = SolverConfig(grid=GRID, nu=0.1, gamma=0.5, dt=2e-3, t_final=0.02,
                       integrator=integrator)
    projection = 3 if mode == "galerkin" else None
    mask = full_lattice(GRID).dealias_mask
    # Dealiased, and under the projection projected: the state lies in the
    # step grid's dealias block.
    wide_state = full(small_random(GRID, amp=0.5)) * mask
    if projection is not None:
        wide_state = wide_state * full_profile(GRID, "low_pass", projection)
    adv0 = adv1 = None
    if mode == "picard_ramp":
        adv0 = full(small_random(GRID, seed=6, amp=0.5)) * mask
        adv1 = full(small_random(GRID, seed=7, amp=0.5)) * mask
    stepper = Stepper(cfg, projection)
    sub = stepper.step_grid
    assert sub.n == (32 if projection is not None else GRID.n)
    # The step grid's modes follow the oracle on that grid; every other mode
    # is empty and carries no tendency, as in the full-grid oracle.
    rows = lattice_rows(GRID.n, sub.n)
    width = sub.n // 2 + 1
    half = wide_state[:, :HALF]
    state = hermitian_extension(sub, half[rows, :width])
    oracle = FullLatticeStepper(replace(cfg, grid=sub), projection)
    wide = FullLatticeStepper(cfg, projection)
    kwargs = {}
    if adv0 is not None:
        kwargs = {"advect": (velocity(GRID, adv0[:, :HALF]), velocity(GRID, adv1[:, :HALF]))}
    outside = np.ones((GRID.n, HALF), dtype=bool)
    outside[np.ix_(rows, np.arange(width))] = False
    assert not np.any(half[outside])
    for _ in range(6):
        state = oracle.step(state, adv0, adv1)
        wide_state = wide.step(wide_state, adv0, adv1)
        half = stepper.step(half, **kwargs)
        assert half.shape == (GRID.n, HALF)
        assert np.array_equal(half[rows, :width], state[:, :width])
        assert np.array_equal(half[outside], wide_state[:, :HALF][outside])
    # the data are exactly Hermitian, so the full state is the half's extension
    assert np.array_equal(hermitian_extension(sub, half[rows, :width]), state)


@pytest.mark.parametrize("integrator", INTEGRATORS)
def test_dealiased_steps_run_on_the_dealias_block(integrator, monkeypatch):
    # Under the 2/3 rule a 64^2 tendency lives on |m1| <= K, m2 <= K, K = 21:
    # a (43, 22) block, 171 x 86 = 14,706 of 33,024 modes at 256^2.  Every
    # inverse pass of a dealiased step reads K + 1 columns of a spectrum
    # whose gap rows K+1..n-K-1 are zero.
    n, k = GRID.n, 21
    assert spectral._dealias_block(GRID, False).shape == (2 * k + 1, k + 1)
    assert spectral._dealias_block(GridSpec(256), False).shape == (171, 86)
    passes, inverse_pass = [], spectral._inverse_pass

    def spy(spec, columns, out):
        passes.append((spec.shape[1], not spec[k + 1 : n - k].any()))
        return inverse_pass(spec, columns, out)

    monkeypatch.setattr(spectral, "_inverse_pass", spy)
    stepper = Stepper(SolverConfig(grid=GRID, nu=0.1, dt=2e-3, integrator=integrator))
    coeffs = small_random(GRID, amp=0.5).coeffs * grid_arrays(GRID).dealias_mask
    assert np.any(coeffs[k]) and np.any(coeffs[:, k])
    stepper.step(coeffs)
    assert passes and passes == [(k + 1, True)] * len(passes)


@pytest.mark.parametrize("projection", [None, 3])
def test_step_rejects_a_state_outside_the_dealias_block(projection):
    # One mode a row or a column past the step grid's dealias block (the
    # 64^2 grid's K = 21, or K = 10 on projection 3's 32^2 step grid);
    # column 0 takes its partner too.
    stepper = Stepper(SolverConfig(grid=GRID, nu=0.1, dt=2e-3), projection)
    n, k = GRID.n, stepper.block.width - 1
    coeffs = small_random(GRID, amp=0.5).coeffs * grid_arrays(GRID).dealias_mask
    if projection is not None:
        coeffs = coeffs * low_pass_symbol(GRID, projection)
    stepper.step(coeffs)
    for rows, col in (([k + 1, n - k - 1], 0), ([0], k + 1), ([n - k - 1], 5)):
        wide = coeffs.copy()
        wide[rows, col] = 1e-3
        with pytest.raises(UsageError, match="outside the .* dealias block"):
            stepper.step(wide)
    # A NaN counts as nonzero there, so the NaN guard, which reads only the
    # stepped block, never meets one outside it; one inside trips it.
    for (row, col), error, message in (((0, k + 1), UsageError, "outside the .* dealias block"),
                                       ((1, 1), GuardError, "NaN guard")):
        bad = coeffs.copy()
        bad[row, col] = np.nan
        with pytest.raises(error, match=message):
            stepper.step(bad)


# (grid, {projection: step grid size}) for the reduced-grid agreement tests.
STEP_GRID_CASES = {
    "256": (GridSpec(256), {0: 8, 1: 8, 2: 16, 3: 32, 4: 64, 5: 128, 6: 256}),
    "96": (GridSpec(96), {0: 8, 1: 8, 2: 16, 3: 32, 4: 64}),
    "period_3": (GridSpec(128, period=3.0), {0: 8, 1: 8, 2: 8, 3: 16, 4: 32, 5: 64}),
    "dealias_1": (GridSpec(64, dealias_fraction=1.0), {0: 8, 1: 8, 2: 16, 3: 32, 4: 64}),
    # The mask keeps N/4 here, so N grows past 3R until N/4 >= R; at p = 3
    # that reaches n: the fallback.
    "dealias_0.5": (GridSpec(64, dealias_fraction=0.5), {0: 8, 1: 16, 2: 32, 3: 64}),
}


@pytest.mark.parametrize("case", list(STEP_GRID_CASES))
@pytest.mark.parametrize("integrator", INTEGRATORS)
def test_reduced_grid_steps_agree_with_full_grid_steps(integrator, case):
    grid, sizes = STEP_GRID_CASES[case]
    width = grid.n // 2 + 1
    field = power_law_field(grid, 2.0, np.random.default_rng(3))
    field = field.with_coeffs(field.coeffs * 2.0 / sobolev_norm(field, 0.0))
    cfg = SolverConfig(grid=grid, nu=0.1, gamma=0.5, dt=2e-3, integrator=integrator)
    dealiased = full(field) * full_lattice(grid).dealias_mask
    heat = np.exp(-cfg.nu * (4 * cfg.dt) * full_k_power(grid, cfg.gamma))
    for projection, size in sizes.items():
        stepper = Stepper(cfg, projection)
        assert stepper.step_grid.n == size
        assert (stepper.step_grid is grid) == (size == grid.n)
        state = dealiased * full_profile(grid, "low_pass", projection)
        oracle = FullLatticeStepper(cfg, projection)
        linear = (heat * state)[:, :width]
        half = state[:, :width]
        for _ in range(4):
            state = oracle.step(state)
            half = stepper.step(half)
        want = state[:, :width]
        scale = np.max(np.abs(want))
        if scale == 0.0:  # no mode inside the support (period 3, projection 0)
            assert not np.any(half)
            continue
        assert np.max(np.abs(half - want)) <= 1e-14 * scale, (projection, size)
        if size >= 16:  # the transport term moved the state well past round-off
            assert np.max(np.abs(want - linear)) > 1e-6 * scale


def test_stepping_grid_edge_cases():
    small = GridSpec(8)
    assert stepping_grid(GRID, None) is GRID
    assert stepping_grid(small, 0) is small  # N = 8 is not below n
    assert stepping_grid(GridSpec(12), 1) == GridSpec(8)  # n need not be 2^k
    assert stepping_grid(GRID, 40) is GRID


def test_step_grid_samples_the_peak_speed_at_most_15_percent_low():
    # The CFL guard reads max |u| from the samples of the grid it steps on.
    # A step grid N ~ 3.4 R samples the band-limited velocity more coarsely
    # than the full grid, so it can read low; pin how far on rough and
    # smooth power-law data (worst here 0.851 of the full grid's read, at
    # p = 1 on 8^2, alpha 1).
    grid = GridSpec(128)
    width = grid.n // 2 + 1
    mask = grid_arrays(grid).dealias_mask
    cfg = SolverConfig(grid=grid, dt=1e-3)
    ratios = []
    for projection in range(5):
        stepper = Stepper(cfg, projection)
        assert stepper.step_grid.n == max(8, 2 ** (projection + 2))
        low = low_pass_symbol(grid, projection)
        for alpha in (1.0, 2.7):
            for seed in range(40):
                half = power_law_field(grid, alpha, np.random.default_rng(seed)).coeffs
                half = half * mask
                stepper.cfl_max = 0.0
                block = stepper.block
                state = block.restrict(half, np.empty(block.shape, np.complex128))
                stepper._rhs(state, None, cfg.dt, state)
                full_grid = cfg.dt * grid.dealias_radius * velocity(grid, half * low).umax
                ratios.append(stepper.cfl_max / full_grid)
    assert min(ratios) >= 0.85, min(ratios)


def test_frozen_advection_rejects_a_projection():
    stepper = Stepper(SolverConfig(grid=GRID), projection=3)
    half = small_random(GRID, amp=0.3).coeffs
    vel = velocity(GRID, half)
    with pytest.raises(UsageError, match="projection"):
        stepper.step(half, advect=(vel, vel))


def test_saved_final_state_is_byte_identical_to_full_lattice_run():
    # Shaped like the sim-256-sparse benchmark: 256^2, IF-RK4, dt 2e-4, 40
    # steps, power-law data L2-normalised by division and scaled to 0.5, as
    # the CLI builds them.  Division leaves every empty mode at +0.0.
    grid = GridSpec(256)
    field = power_law_field(grid, 2.7, np.random.default_rng(0))
    theta0 = field.with_coeffs(field.coeffs / sobolev_norm(field, 0.0) * 0.5)
    cfg = SolverConfig(grid=grid, nu=1.0, gamma=0.5, dt=2e-4, t_final=40 * 2e-4,
                       output_stride=40)
    oracle = FullLatticeStepper(cfg)
    mask = full_lattice(grid).dealias_mask
    saved = []
    for data in (theta0, field.with_coeffs(field.coeffs * 0.1)):
        series = run_simulation(data, cfg)
        assert len(series.column("t")) == 2
        coeffs = full(data) * mask
        for _ in range(40):
            coeffs = oracle.step(coeffs)
        assert np.array_equal(full(series.final_state), coeffs)
        saved.append((field_to_bytes(series.final_state)[-coeffs.nbytes :],
                      coeffs.tobytes()))
    # The normalised data agree bytewise: the saved payload is the
    # full-lattice run's state.  A product with 0.0 (the second data) can
    # leave -0.0 on empty modes, whose sign the full-lattice arithmetic
    # carries and the half state does not: there only the values agree.
    assert saved[0][0] == saved[0][1]


@pytest.mark.parametrize("integrator", INTEGRATORS)
def test_steppers_share_read_only_factor_tables(integrator):
    cfg = SolverConfig(grid=GRID, nu=0.3, gamma=0.5, dt=1e-3, integrator=integrator)
    a = Stepper(cfg, projection=3)
    b = Stepper(replace(cfg, t_final=0.5), projection=3)
    tables_a, tables_b = a._factor_set(cfg.dt), b._factor_set(cfg.dt)
    assert len(tables_a) == (2 if integrator == "if_rk4" else 3)
    # Projection 3 steps on 32^2, so the tables are that grid's dealias
    # block: 2K + 1 rows and K + 1 columns, K = 10.
    assert a.step_grid == b.step_grid == GridSpec(32)
    for ta, tb in zip(tables_a, tables_b):
        assert ta is tb
        assert ta.shape == (21, 11)
        assert not ta.flags.writeable
    assert a.block is b.block
    assert np.array_equal(a._low_block, b._low_block) and not a._low_block.flags.writeable
    other = Stepper(replace(cfg, nu=0.2), projection=3)._factor_set(cfg.dt)
    assert all(x is not y for x, y in zip(other, tables_a))


@pytest.mark.parametrize("which", ["coeffs"])
def test_step_rejects_arrays_that_are_not_half_spectra(which):
    stepper = Stepper(SolverConfig(grid=GRID))
    full_state = full_spectrum(GRID, small_random(GRID, amp=0.3).coeffs)
    half = full_state[:, :HALF]
    vel = velocity(GRID, half)
    for bad in (full_state, full_state[:, : HALF + 1], full_state[: GRID.n - 1, :HALF],
                half[0]):
        for advect in (None, (vel, vel)):
            with pytest.raises(UsageError, match="half spectra"):
                stepper.step(**{which: bad}, advect=advect)


def test_step_rejects_velocities_sampled_on_another_grid():
    # Either end of the pair sampled on 32^2 instead of the stepper's 64^2.
    stepper = Stepper(SolverConfig(grid=GRID))
    half = small_random(GRID, amp=0.3).coeffs * grid_arrays(GRID).dealias_mask
    coarse_grid = GridSpec(GRID.n // 2)
    coarse = velocity(coarse_grid, small_random(coarse_grid, amp=0.3).coeffs)
    fine = velocity(GRID, half)
    for advect in ((coarse, coarse), (fine, coarse), (coarse, fine)):
        with pytest.raises(UsageError, match="sampled on the stepper's grid"):
            stepper.step(half, advect=advect)


def test_gevrey_overflow_aborts_a_run_before_any_warning():
    # A steady inviscid mode at |k| = 10 on 32^2: within the safe horizon
    # the exponent stays under the cap, but the weighted power leaves double
    # range at t = 7.5; the row guard must stop the run first.
    grid = GridSpec(32)
    theta0 = single_mode(grid, 10, 0, amp=1e-2)
    cfg = SolverConfig(grid=grid, nu=0.0, gamma=2.0, dt=0.5, t_final=8.5)
    assert cfg.t_final < gevrey_safe_horizon(grid, 2.0, 0.5)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        series = run_simulation(theta0, cfg)
    assert series.aborted
    assert series.abort_reason.startswith("OverflowGuardError")
    assert np.all(np.isfinite(series.column("gevrey_h_crit")))


def test_a_guard_abort_keeps_whole_rows(tmp_path):
    # The row guard fires before any column of its row is appended, so the
    # aborted series keeps columns of one length and can be written.  A row
    # appended column by column left "t" one entry ahead of
    # "gevrey_h_crit", and `simulate` then failed to write its series.
    grid = GridSpec(32)
    theta0 = single_mode(grid, 10, 0, amp=1e-2)
    cfg = SolverConfig(grid=grid, nu=0.0, gamma=2.0, dt=0.5, t_final=8.5)
    series = run_simulation(theta0, cfg)
    assert series.aborted and series.abort_reason.startswith("OverflowGuardError")
    assert {len(values) for values in series.columns.values()} == {14}
    series.write_csv(str(tmp_path / "series.csv"))


def test_nan_velocity_reaches_the_cfl_guard_and_stops_the_step(monkeypatch):
    mask = grid_arrays(GRID).dealias_mask
    coeffs = small_random(GRID, amp=0.3).coeffs * mask
    coeffs[2, 3] = np.nan
    seen = []
    check = Stepper._check_cfl
    monkeypatch.setattr(Stepper, "_check_cfl",
                        lambda self, dt, umax: seen.append(umax) or check(self, dt, umax))
    stepper = Stepper(SolverConfig(grid=GRID))
    with pytest.raises(GuardError, match="NaN guard"):
        stepper.step(coeffs)
    assert seen and all(math.isnan(umax) for umax in seen)


@pytest.mark.parametrize("integrator, per_step", [("if_rk4", 20), ("etd_rk2", 10)])
def test_a_simulate_row_makes_one_transform(integrator, per_step, count_transforms):
    # Every column but the L^p ones is a Parseval sum of the row's table
    # product; the L^p columns share one inverse transform.
    theta = small_random(GRID, amp=0.3)
    cfg = SolverConfig(grid=GRID, nu=1.0, gamma=0.5, dt=1e-3, t_final=5e-3,
                       integrator=integrator, gevrey_epsilon0=0.3, j0=3)
    series, calls = count_transforms(run_simulation, theta, cfg)
    rows = len(series.column("t"))
    assert rows == 6
    assert calls == 5 * per_step + rows


def test_warm_row_allocates_less_than_the_state():
    # The row restricts the state, forms its powers and weights, and
    # synthesizes its samples in buffers built with the core; before them
    # a row's fresh samples, |s| copies and zeroed columns read several
    # times the state's bytes.
    grid = GridSpec(128)
    field = power_law_field(grid, 2.7, np.random.default_rng(3))
    coeffs = field.coeffs / sobolev_norm(field, 0.0) * grid_arrays(grid).dealias_mask
    cfg = SolverConfig(grid=grid, gevrey_epsilon0=0.3, j0=4)
    core = _emit_core(cfg)

    def row(t):
        sums = core.row(coeffs, t)
        core.lp_norms()
        return core.besov(sums, 2, 1.5, 2.0, 2.0)

    row(0.01)
    tracemalloc.start()
    try:
        row(0.02)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < coeffs.nbytes, peak / coeffs.nbytes


def test_row_weights_pass_the_guards_as_gevrey_half_weight_does():
    # The row takes each weight from gevrey_half_weight on the block, whose
    # fast exit skips the guards where bounds rule both out.  On both sides
    # of the cap of the block's corner modes the weight must be the guarded
    # one, and the row's weighted power its product, to the bit.  Data up
    # to |k| = 8 keep the weighted amplitude in range past that cap.
    grid = GridSpec(64)
    coeffs = power_law_field(grid, 2.7, np.random.default_rng(5), k_cut=8.0).coeffs
    cfg = SolverConfig(grid=grid, gamma=1.0, gevrey_epsilon0=0.3, j0=3)
    core = _emit_core(cfg)
    block = spectral._dealias_block(grid, False)
    restricted = block.restrict(coeffs, np.empty(block.shape, np.complex128))
    power = spectral.half_power(grid, restricted)
    kpow = block.restrict(spectral.k_power(grid, 1.0), np.empty(block.shape))
    corner = float(kpow.max())
    for t in (0.0, 0.5, 0.9 * 500.0 / (0.5 * corner), 1.1 * 500.0 / (0.5 * corner)):
        sums = core.row(coeffs, t)
        for col, lam in enumerate(core.lams, start=1):
            weight = spectral.gevrey_half_weight(grid, lam, t, 1.0, restricted, kpow)
            guarded, _ = spectral._capped_gevrey_weight(kpow, lam, t, restricted)
            assert np.array_equal(weight, guarded), (t, lam)
            warm = power * weight
            warm *= weight
            stack = core.stack
            want = grid.period ** 2 * (stack @ np.stack([power.ravel(), warm.ravel()]).T)
            assert np.array_equal(sums[:, col], want[:, 1]), (t, lam)
