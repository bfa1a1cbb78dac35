"""Time integration: exactness, order, guards, conservation, mild form."""

import math

import numpy as np
import pytest

from sqglab.errors import CflGuardError, OverflowGuardError, UsageError
from sqglab.sampling import power_law_field
from sqglab.solver import (
    SolverConfig,
    Stepper,
    conservation_report,
    gevrey_safe_horizon,
    mild_residual,
    nonlinear_term,
    run_simulation,
)
from sqglab.spectral import (
    GridSpec,
    MultiplierSpec,
    SpectralField,
    forward_transform,
    grid_arrays,
    riesz_perp,
    sobolev_norm,
)

GRID = GridSpec(64)


def nonlinear_term_divergence(theta, projection=None):
    """-dealias(div(u theta)) with complex FFTs on the full spectrum.

    An oracle independent of the solver's transport code: conservative
    instead of advective form, built from ``numpy.fft`` directly.
    """
    grid = theta.grid
    n = grid.n
    ka = grid_arrays(grid)
    coeffs = theta.coeffs
    if projection is not None:
        coeffs = coeffs * MultiplierSpec.low_pass(projection).symbol_on(grid)
    u1c, u2c = (u.coeffs for u in riesz_perp(SpectralField(grid, coeffs)))

    def samples(c):
        return np.fft.ifft2(c).real * (n * n)

    th, u1, u2 = samples(coeffs), samples(u1c), samples(u2c)
    f1 = np.fft.fft2(u1 * th) / (n * n) * ka.dealias_mask
    f2 = np.fft.fft2(u2 * th) / (n * n) * ka.dealias_mask
    out = -(1j * ka.k1 * f1 + 1j * ka.k2 * f2)
    if projection is not None:
        out = out * MultiplierSpec.low_pass(projection).symbol_on(grid)
    out[0, 0] = 0.0
    return SpectralField(grid, out)


def single_mode(grid, k1, k2, amp=1.0):
    x = grid.axis_points()
    xx, yy = np.meshgrid(x, x, indexing="ij")
    return forward_transform(amp * np.cos(k1 * xx + k2 * yy), grid)


def small_random(grid, seed=5, amp=0.05):
    rng = np.random.default_rng(seed)
    field = power_law_field(grid, 2.7, rng)
    return field.with_coeffs(field.coeffs * amp)


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


def test_nonlinear_term_single_mode_vanishes():
    # one plane-wave pair: the velocity is parallel to the level lines
    field = single_mode(GRID, 3, 2)
    out = nonlinear_term(field)
    assert np.max(np.abs(out.coeffs)) < 1e-14


def test_nonlinear_forms_agree(rng):
    theta = small_random(GRID, amp=1.0)
    for projection in (None, 3):
        a = nonlinear_term(theta, projection).coeffs
        b = nonlinear_term_divergence(theta, projection).coeffs
        scale = np.max(np.abs(a))
        assert np.max(np.abs(a - b)) < 1e-10 * scale


def test_nonlinear_term_pins_mean():
    theta = small_random(GRID, amp=1.0)
    out = nonlinear_term(theta)
    assert out.coeffs[0, 0] == 0.0


def test_nonlinear_term_requires_mean_free():
    c = single_mode(GRID, 2, 1).coeffs.copy()
    c[0, 0] = 1.0
    with pytest.raises(UsageError):
        nonlinear_term(SpectralField(GRID, c))


def test_nonlinear_projection_confines_support():
    theta = small_random(GRID, amp=1.0)
    out = nonlinear_term(theta, projection=2)
    ka = grid_arrays(GRID)
    outer = np.abs(out.coeffs)[ka.k_abs > 7.0 / 6.0 * 4.0]
    assert np.max(outer) == 0.0


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
    with pytest.raises(CflGuardError):
        stepper.step(theta, advect_coeffs=np.zeros_like(theta),
                     advect_coeffs_end=fast)
    assert stepper.cfl_max > 2.0


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
