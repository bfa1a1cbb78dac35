"""Exact solutions of the nonlinear equation as solver oracles.

A real field whose modes all lie on one lattice circle |k| = r is an exact
solution: there Lambda theta = r theta, so u = R_perp theta = r^-1 grad_perp
theta and u . grad theta vanishes identically.  With dissipation it decays
as the heat flow, theta(t) = e^{-nu r^gamma t} theta(0), however large it
is, so every diagnostics column has a closed form.  Unlike a single mode,
such a field has pairwise products that do not vanish one by one: only
their sum cancels, and only for the velocity R_perp theta.

The equation's scaling is an oracle too: if theta solves it, so does
theta_lam(x, t) = lam^{gamma-1} theta(lam x, lam^gamma t).  On the lattice
(lam n)^2, with dt and t_final divided by lam^gamma, data moved to the modes
lam k meet the same integrating factors, dealias mask and CFL numbers as on
n^2, so a run there is the n^2 run, mode for mode, to round-off.
"""

import math
from dataclasses import replace

import numpy as np
import pytest

from sqglab.iterates import (
    DEFAULT_S0,
    NORM_LABELS,
    _cut_data,
    _norm_core,
    _norm_row,
    picard_besov_sequence,
)
from sqglab.sampling import power_law_field
from sqglab.solver import BESOV_GEVREY_WEIGHT, INTEGRATORS, SolverConfig, run_simulation
from sqglab.spectral import GridSpec, SpectralField, grid_arrays, sobolev_norm, velocity

#: (grid size, |m|^2 of the shell): 8 half-spectrum modes of |m|^2 = 65 on
#: 64^2, 12 of |m|^2 = 325 on 128^2, none on an axis.
SHELLS = [(64, 65), (128, 325)]


def shell_field(grid, r_sq, cfl, dt, seed=0):
    """Random amplitudes on the half-spectrum modes of the lattice circle
    ``|m|^2 = r_sq`` with ``m2 > 0``, scaled so that a step of ``dt`` reads
    the CFL number ``cfl``."""
    ga = grid_arrays(grid)
    on = (ga.m1 ** 2 + ga.m2 ** 2 == r_sq) & (ga.m2 > 0)
    rng = np.random.default_rng(seed)
    coeffs = np.zeros(on.shape, np.complex128)
    coeffs[on] = rng.standard_normal(on.sum()) + 1j * rng.standard_normal(on.sum())
    umax = velocity(grid, coeffs).umax
    return SpectralField(grid, coeffs * (cfl / (dt * umax * grid.dealias_radius)))


def closed_forms(series, config, r_sq):
    """Each column of ``series`` as its t = 0 value times its heat-flow
    factor: ``e^{-nu r^gamma t}`` for a norm, squared for the dissipation,
    times ``e^{w t r^gamma}`` for a norm under the Gevrey weight w."""
    t = series.column("t")
    rate = config.grid.freq_scale ** config.gamma * r_sq ** (config.gamma / 2.0)
    decay = np.exp(-config.nu * rate * t)
    factors = {
        "dissipation": decay * decay,
        "gevrey_h_crit": decay * np.exp(config.gevrey_epsilon0 * rate * t),
        "besov_weighted": decay * np.exp(BESOV_GEVREY_WEIGHT * rate * t),
    }
    skip = {"t", "gevrey_dissipation_integral"}
    return {name: series.column(name)[0] * factors.get(name, decay)
            for name in series.columns if name not in skip}


@pytest.mark.parametrize("n, r_sq", SHELLS)
@pytest.mark.parametrize("integrator, cfl", [("if_rk4", 0.98), ("etd_rk2", 0.95)])
def test_shell_solution_rows_follow_the_heat_flow(n, r_sq, integrator, cfl):
    grid = GridSpec(n)
    cfg = SolverConfig(grid=grid, nu=0.5, gamma=0.5, dt=1e-3, t_final=0.1,
                       integrator=integrator, gevrey_epsilon0=0.3, j0=3,
                       output_stride=10)
    theta0 = shell_field(grid, r_sq, cfl, cfg.dt)
    series = run_simulation(theta0, cfg)
    assert not series.aborted
    # The transport term is large: the CFL number is near the warning.
    assert cfl * (1.0 - 1e-9) <= series.cfl_max <= 1.0
    # A column that is zero at t = 0 (a block off the shell) may hold
    # round-off later: its bound is relative to the L2 norm.
    floor = 1e-12 * series.column("l2")[0]
    for name, want in closed_forms(series, cfg, r_sq).items():
        got = series.column(name)
        assert np.all(np.abs(got - want) <= np.maximum(1e-12 * np.abs(want), floor)), name


def test_two_shells_leave_the_heat_flow():
    # Control: the sum of two shell fields of the same size is no exact
    # solution, so the closed forms miss it by far.
    grid = GridSpec(64)
    cfg = SolverConfig(grid=grid, nu=0.5, gamma=0.5, dt=1e-3, t_final=0.1,
                       output_stride=100)
    one = shell_field(grid, 65, 0.5, cfg.dt)
    two = shell_field(grid, 25 + 100, 0.5, cfg.dt, seed=1)
    mixed = one.with_coeffs(one.coeffs + two.coeffs)
    series = run_simulation(mixed, cfg)
    final = SpectralField(grid, series.final_state.coeffs * one.coeffs.astype(bool))
    heat = math.exp(-cfg.nu * math.sqrt(65) ** cfg.gamma * cfg.t_final)
    gap = np.max(np.abs(final.coeffs - heat * one.coeffs)) / np.max(np.abs(one.coeffs))
    assert gap > 1e-3


@pytest.mark.parametrize("integrator", INTEGRATORS)
def test_picard_iterates_of_shell_data_are_the_heat_flow(integrator):
    # Every iterate's data is the shell field times its low-pass profile at
    # |k| = r, and so is every advecting field: each iterate advects by a
    # multiple of its own velocity, so it is its data's heat flow.
    grid, r_sq = GridSpec(64), 65
    cfg = SolverConfig(grid=grid, nu=0.5, gamma=0.5, dt=2e-3, t_final=0.04,
                       integrator=integrator, output_stride=5)
    theta0 = shell_field(grid, r_sq, 0.9, cfg.dt)
    n_values = [0, 1, 2]
    trace = picard_besov_sequence(theta0, n_values, 2.0, 2.0, cfg)
    heat = math.exp(-cfg.nu * r_sq ** (cfg.gamma / 2.0) * cfg.t_final)
    states = [heat * _cut_data(theta0, n + 2) for n in n_values]
    # cutoff 2 misses the shell, cutoff 3 cuts it (profile 0.99...), cutoff 4
    # keeps it whole
    assert not states[0].any() and states[1].any() and states[2].any()
    core = _norm_core(cfg)
    rows = [_norm_row(state, cfg.t_final, cfg, DEFAULT_S0, core) for state in states]
    diffs = [_norm_row(b - a, cfg.t_final, cfg, DEFAULT_S0, core)
             for a, b in zip(states, states[1:])]
    for label in NORM_LABELS:
        scale = rows[-1][label]
        np.testing.assert_allclose(trace.final_norms[label], [r[label] for r in rows],
                                   rtol=1e-12, atol=1e-12 * scale, err_msg=label)
        np.testing.assert_allclose(trace.final_diffs[label], [d[label] for d in diffs],
                                   rtol=1e-12, atol=1e-12 * scale, err_msg=label)


def on_finer_lattice(coeffs, lam, factor):
    """``factor`` times the ``(n, n/2 + 1)`` half spectrum ``coeffs``, moved
    to the modes ``lam k`` of the ``(lam n)^2`` lattice: the half spectrum
    of ``factor * f(lam x)`` for the field f of ``coeffs``.  Every other
    mode is 0."""
    n = coeffs.shape[0]
    out = np.zeros((lam * n, lam * n // 2 + 1), np.complex128)
    rows = lam * np.fft.fftfreq(n, 1.0 / n).astype(int) % (lam * n)
    out[np.ix_(rows, lam * np.arange(n // 2 + 1))] = factor * coeffs
    return out


@pytest.mark.parametrize("gamma", [0.3, 0.5, 0.9, 1.5])
@pytest.mark.parametrize("integrator", INTEGRATORS)
def test_lattice_scaling_maps_a_run_onto_a_run(integrator, gamma):
    # Power-law data of L2 norm 3 on 32^2, and the same data on the modes
    # 2k of 64^2, times 2^{gamma-1}, run for dt and t_final divided by
    # 2^gamma: the final states agree to round-off, the modes off 2Z^2
    # stay exactly 0, and so do the CFL numbers.  A dissipation exponent
    # of gamma + 0.01 breaks the match by 7e-5, a dealias radius one unit
    # larger by 3.5e-5 to 4.9e-5.
    small, large = GridSpec(32), GridSpec(64)
    field = power_law_field(small, 2.7, np.random.default_rng(21))
    theta0 = field.with_coeffs(field.coeffs * 3.0 / sobolev_norm(field, 0.0))
    factor, speedup = 2.0 ** (gamma - 1.0), 2.0 ** gamma
    cfg = SolverConfig(grid=small, nu=0.5, gamma=gamma, dt=2e-3, t_final=0.02,
                       integrator=integrator, output_stride=10)
    fine = replace(cfg, grid=large, dt=cfg.dt / speedup, t_final=cfg.t_final / speedup)
    coarse_run = run_simulation(theta0, cfg)
    fine_run = run_simulation(
        SpectralField(large, on_finer_lattice(theta0.coeffs, 2, factor)), fine)
    assert not coarse_run.aborted and not fine_run.aborted
    want = on_finer_lattice(coarse_run.final_state.coeffs, 2, factor)
    got = fine_run.final_state.coeffs
    on = on_finer_lattice(np.ones_like(theta0.coeffs), 2, 1.0) != 0
    assert not got[~on].any()
    assert np.max(np.abs(got - want)) <= 4e-15 * np.max(np.abs(want))
    assert math.isclose(fine_run.cfl_max, coarse_run.cfl_max, rel_tol=1e-15)


@pytest.mark.parametrize("lam", [2.0, 1.7, 0.37])
@pytest.mark.parametrize("integrator", INTEGRATORS)
def test_period_scaling_maps_a_run_onto_a_run(integrator, lam):
    # The period form of the same symmetry: on the box of period 2 pi / lam
    # the same n^2 samples stand for f(lam x).  The data times
    # lam^{gamma-1}, run for dt and t_final divided by lam^gamma, give the
    # 2 pi run times lam^{gamma-1}, mode for mode, and the same CFL numbers.
    gamma = 0.5
    grid = GridSpec(32)
    field = power_law_field(grid, 2.7, np.random.default_rng(21))
    theta0 = field.with_coeffs(field.coeffs * 3.0 / sobolev_norm(field, 0.0))
    factor, speedup = lam ** (gamma - 1.0), lam ** gamma
    cfg = SolverConfig(grid=grid, nu=0.5, gamma=gamma, dt=2e-3, t_final=0.02,
                       integrator=integrator, output_stride=10)
    box = replace(cfg, grid=GridSpec(32, period=2.0 * math.pi / lam),
                  dt=cfg.dt / speedup, t_final=cfg.t_final / speedup)
    run = run_simulation(theta0, cfg)
    scaled = run_simulation(SpectralField(box.grid, factor * theta0.coeffs), box)
    assert not run.aborted and not scaled.aborted
    assert len(scaled.column("t")) == len(run.column("t"))
    want = factor * run.final_state.coeffs
    gap = np.max(np.abs(scaled.final_state.coeffs - want)) / np.max(np.abs(want))
    assert gap <= 4e-15
    assert math.isclose(scaled.cfl_max, run.cfl_max, rel_tol=4e-15)
