"""Headline checks at frozen settings.

Each test exercises one published guarantee end to end and records a single
pass/fail line through the ``acceptance`` fixture; the collected lines are
printed after the run.  Tolerances and grid sizes here are contract values,
so they are written out literally instead of being shared through helpers.
"""

import itertools
import json
import time

import numpy as np

from sqglab import (
    GridSpec,
    SolverConfig,
    check_ab_inequality,
    check_coercivity,
    check_heat_decay,
    check_phase_bounds,
    counterexample_gamma2_q1,
    field_lp_norm,
    forward_transform,
    galerkin_sequence,
    low_pass_symbol,
    lp_norm,
    picard_besov_sequence,
    power_law_field,
    run_simulation,
    sobolev_norm,
)
from sqglab.cli import main as cli_main
from sqglab.dyadic import block_commutator
from sqglab.solver import conservation_report, gevrey_safe_horizon
from sqglab.spectral import gevrey_half_weight, grid_arrays, k_power

from oracles import riesz_perp


def unit_l2(field, target=1.0):
    return field.with_coeffs(field.coeffs * (target / field_lp_norm(field, 2)))


def test_gevrey_heat_roundtrip_identity(acceptance, rng):
    grid = GridSpec(128)
    theta0 = power_law_field(grid, alpha=2.0, rng=rng)
    scale = field_lp_norm(theta0, 2)
    worst = 0.0
    for gamma in (0.3, 0.5, 0.9):
        t = 30.0 / grid.dealias_radius**gamma
        cooled = theta0.coeffs * np.exp(-t * k_power(grid, gamma))
        back = cooled * gevrey_half_weight(grid, 1.0, t, gamma, cooled)
        gap = theta0.with_coeffs(back - theta0.coeffs)
        worst = max(worst, field_lp_norm(gap, 2) / scale)
    assert acceptance.record(
        "gevrey heat roundtrip",
        worst <= 1e-9,
        f"max relative L2 error {worst:.3e} over gamma in (0.3, 0.5, 0.9), tol 1e-9",
    )


def test_single_mode_viscous_decay_exact(acceptance):
    grid = GridSpec(128)
    pts = grid.axis_points()
    x, y = np.meshgrid(pts, pts, indexing="ij")
    samples = np.cos(3.0 * x + 2.0 * y)
    theta0 = forward_transform(samples, grid)
    config = SolverConfig(
        grid, nu=1.0, gamma=0.5, dt=1e-3, t_final=1.0, output_stride=250
    )
    series = run_simulation(theta0, config)
    exact = samples * np.exp(-np.sqrt(np.hypot(3.0, 2.0)) * 1.0)
    got = series.final_state.to_samples()
    err = lp_norm(got - exact, 2, grid.cell_area) / lp_norm(
        exact, 2, grid.cell_area
    )
    assert acceptance.record(
        "single-mode viscous decay",
        err <= 1e-8,
        f"relative L2 error {err:.3e} after 1000 steps, tol 1e-8",
    )


def test_signed_diffusion_coercivity_constant(acceptance):
    # gamma=2 is the equality case: the signed power is kinked there and its
    # quadrature noise at 128^2 exceeds the slack over 500 draws, so that
    # column runs on the finer grid.
    grids = {0.5: GridSpec(128), 1.0: GridSpec(128), 2.0: GridSpec(256)}
    worst = np.inf
    combos = itertools.product((1.5, 2.0, 4.0, 8.0), (0.5, 1.0, 2.0))
    for i, (q, gamma) in enumerate(combos):
        report = check_coercivity(
            grids[gamma], j=2, gamma=gamma, q=q, n_samples=500, seed=202 + i
        )
        worst = min(
            worst,
            report.details["min_ratio_signed"],
            report.details["min_ratio_plain"],
        )
    ok = worst >= 1.0 - 1e-6
    assert acceptance.record(
        "signed coercivity constant",
        ok,
        f"6000 block samples, min ratio/constant {worst:.9f}, slack 1e-6",
    )


def test_pointwise_power_difference_inequality(acceptance):
    # q below 2 needs negative powers of near-zero floats; their round-off
    # noise is itself a few 1e-12, so the 1e-12-slack sweep stays at q >= 2
    # (the module suite covers small q at looser tolerances)
    q_values = (2.0, 2.5, 3.0, 4.0, 5.0, 6.0, 8.0, 12.0)
    worst = np.inf
    verdicts = True
    for i, q in enumerate(q_values):
        report = check_ab_inequality(q, n_samples=125_000, seed=505 + i)
        worst = min(worst, report.details["min_lhs_over_rhs"])
        verdicts = verdicts and bool(report.verdict)
    ok = verdicts and worst >= 1.0 - 1e-12
    assert acceptance.record(
        "pointwise power-difference bound",
        ok,
        f"10^6 (a, b, q) triples, min LHS/RHS {worst:.12f}, slack 1e-12",
    )


def test_second_derivative_sign_cancellation_1d(acceptance):
    report = counterexample_gamma2_q1()
    cancel = abs(report.details["laplace_sign_integral"])
    cancel /= report.details["l1_norm"]
    half = report.details["half_power_ratio"]
    ok = bool(report.verdict) and cancel < 1e-6 and half > 0.01
    assert acceptance.record(
        "sign-pairing breakdown at second order",
        ok,
        f"second-order pairing {cancel:.3e} (tol 1e-6), "
        f"order-1.5 analogue {half:.4f} (floor 0.01)",
    )


def test_two_point_dissipation_phase_floor(acceptance):
    low = check_phase_bounds(0.5)
    degenerate = check_phase_bounds(1.0)
    inf_low = low.details["grid_infimum"]
    cone = degenerate.details["cone_max_ratio"]
    ok = (
        bool(low.verdict)
        and inf_low >= 0.29
        and low.details["scan_agreement"] is True
        and bool(degenerate.verdict)
        and cone <= 1e-3
    )
    assert acceptance.record(
        "dissipation phase floor",
        ok,
        f"gamma=0.5 infimum {inf_low:.4f} (floor 0.29, 1d scan agrees), "
        f"gamma=1 collinear cone {cone:.2e} (tol 1e-3)",
    )


def test_block_heat_decay_rate_stability(acceptance):
    grid = GridSpec(128)
    min_c = np.inf
    worst_spread = 0.0
    verdicts = True
    combos = itertools.product((0.5, 1.0), (1.0, 1.5, 2.0, 3.0, 6.0, np.inf))
    for i, (gamma, q) in enumerate(combos):
        report = check_heat_decay(
            grid, j=3, gamma=gamma, q=q, n_samples=200, seed=101 + i
        )
        rates = np.array(list(report.details["c_by_block"].values()))
        med = np.median(rates)
        min_c = min(min_c, rates.min())
        worst_spread = max(worst_spread, np.abs(rates - med).max() / med)
        verdicts = verdicts and bool(report.verdict)
    ok = verdicts and min_c > 0.0 and worst_spread <= 0.5
    assert acceptance.record(
        "blockwise heat decay rates",
        ok,
        f"12 (gamma, q) pairs x 200 samples: min c {min_c:.3f} > 0, "
        f"worst cross-block spread {worst_spread:.1%} (limit 50%)",
    )


def low_passed(field, j):
    return field.with_coeffs(field.coeffs * low_pass_symbol(field.grid, j))


def test_distant_block_commutator_vanishes(acceptance):
    grid = GridSpec(256, period=2.0 * np.pi / 32.0)
    arrays = grid_arrays(grid)
    rng = np.random.default_rng(77)
    j0 = 4
    worst = 0.0
    for _ in range(50):
        f = low_passed(power_law_field(grid, alpha=1.0, rng=rng), j0 + 2)
        g = low_passed(power_law_field(grid, alpha=1.0, rng=rng), j0 + 4)
        for t in (0.0, 0.05):
            cool = np.exp(-t * k_power(grid, 0.5))
            fc = f.with_coeffs(f.coeffs * cool)
            gc = g.with_coeffs(g.coeffs * cool)
            u1, u2 = riesz_perp(fc)
            gx = gc.with_coeffs(1j * arrays.k1 * gc.coeffs)
            gy = gc.with_coeffs(1j * arrays.k2 * gc.coeffs)
            product = u1.to_samples() * gx.to_samples()
            product += u2.to_samples() * gy.to_samples()
            scale = lp_norm(product, 2, grid.cell_area)
            for j in (j0 + 7, j0 + 8):
                com = block_commutator(f, g, j, t, gamma=0.5)
                # the commutator is round-off noise here; take its L2 norm
                # from the coefficients (Parseval)
                residual = sobolev_norm(com, 0.0)
                worst = max(worst, residual / scale)
    assert acceptance.record(
        "distant block commutator",
        worst <= 1e-11,
        f"50 pairs, blocks 11 and 12, t in (0, 0.05): "
        f"max residual/advection {worst:.3e}, tol 1e-11",
    )


def test_conservation_and_energy_balance(acceptance):
    grid = GridSpec(256)
    theta0 = unit_l2(
        power_law_field(grid, alpha=2.7, rng=np.random.default_rng(9)), 0.5
    )

    inviscid = SolverConfig(
        grid, nu=0.0, gamma=0.5, dt=1e-3, t_final=0.5, output_stride=10
    )
    drift = conservation_report(run_simulation(theta0, inviscid))[
        "l2_relative_drift"
    ]

    viscous = SolverConfig(
        grid, nu=1.0, gamma=0.5, dt=1e-3, t_final=0.1, output_stride=1
    )
    monotone = conservation_report(run_simulation(theta0, viscous))
    mono_ok = (
        monotone["l2_monotone"]
        and monotone["linf_monotone"]
        and monotone["h_neg_half_monotone"]
    )

    # halving needs every step recorded, or the quadrature error dominates
    small = GridSpec(128)
    data = unit_l2(
        power_law_field(small, alpha=2.7, rng=np.random.default_rng(42)), 4.0
    )
    residuals = []
    for dt in (8e-3, 4e-3, 2e-3):
        config = SolverConfig(
            small, nu=1.0, gamma=0.5, dt=dt, t_final=0.08, output_stride=1
        )
        residuals.append(
            conservation_report(run_simulation(data, config))[
                "energy_balance_residual"
            ]
        )
    ratios = [residuals[i] / residuals[i + 1] for i in range(2)]
    halving_ok = all(11.2 <= r <= 20.8 for r in ratios)

    ok = drift <= 1e-6 and mono_ok and halving_ok
    assert acceptance.record(
        "conservation and energy balance",
        ok,
        f"inviscid L2 drift {drift:.3e} (tol 1e-6), norms monotone {mono_ok}, "
        f"residual halving x{ratios[0]:.2f}/x{ratios[1]:.2f} (16 +/- 30%)",
    )


def test_dyadic_truncation_convergence(acceptance):
    grid = GridSpec(256)
    theta0 = unit_l2(
        power_law_field(grid, alpha=2.7, rng=np.random.default_rng(21))
    )
    config = SolverConfig(grid, nu=1.0, gamma=0.5, dt=1e-3, t_final=0.05)
    trace = galerkin_sequence(theta0, range(3, 8), config)
    fit = trace.fits["l2"]
    ok = fit.slope <= -0.8 and fit.r_squared >= 0.9
    assert acceptance.record(
        "truncation convergence rate",
        ok,
        f"cutoffs 3..7: sup-L2 difference slope {fit.slope:.3f} "
        f"(limit -0.8), R^2 {fit.r_squared:.4f} (floor 0.9)",
    )


def test_picard_iteration_contraction(acceptance):
    grid = GridSpec(256)
    theta0 = unit_l2(
        power_law_field(grid, alpha=2.7, rng=np.random.default_rng(34))
    )
    config = SolverConfig(grid, nu=1.0, gamma=0.5, dt=2e-3, t_final=0.02)
    trace = picard_besov_sequence(theta0, range(0, 5), 2.0, np.inf, config)
    slope = trace.fits["data_rate"].slope
    ratios = trace.parameters["contraction_ratios_besov_s0"]
    tail = ratios[-2:]
    ok = slope <= -1.35 and all(r <= 0.75 for r in tail)
    assert acceptance.record(
        "mild iteration contraction",
        ok,
        f"data-rate slope {slope:.3f} (limit -1.35), "
        f"tail contraction ratios {[round(r, 3) for r in tail]} (limit 0.75)",
    )


def test_gevrey_norm_tracking_window(acceptance):
    grid = GridSpec(128)
    ok = True
    parts = []
    # Unit critical norm (the first three cases) decays from the start, so
    # they read growth 1.00.  The large-data case (critical norm 100) lets
    # nonlinear transfer raise both weighted norms above their initial
    # values, so the 3x limit can bind; at norm 150 the same run reads
    # growth above 3 and fails it.
    for gamma, size in ((0.3, 1.0), (0.5, 1.0), (0.9, 1.0), (0.5, 100.0)):
        rng = np.random.default_rng(int(100 * gamma))
        theta0 = power_law_field(grid, alpha=2.7, rng=rng)
        theta0 = theta0.with_coeffs(
            size * theta0.coeffs / sobolev_norm(theta0, 2.0 - gamma)
        )
        dt = 1e-3
        horizon = gevrey_safe_horizon(grid, gamma, 0.5)
        t_final = min(1.0, np.floor(0.98 * horizon / dt) * dt)
        config = SolverConfig(
            grid,
            nu=1.0,
            gamma=gamma,
            dt=dt,
            t_final=t_final,
            gevrey_epsilon0=0.5,
            besov_p=2.0,
            besov_q=2.0,
            output_stride=5,
        )
        series = run_simulation(theta0, config)
        tracked = series.columns["gevrey_h_crit"]
        weighted = series.columns["besov_weighted"]
        growth_h = max(tracked) / tracked[0]
        growth_b = max(weighted) / weighted[0]
        ok = ok and growth_h <= 3.0 and growth_b <= 3.0
        if size > 1.0:
            # the binding case must keep reading growth, or the gate is vacuous
            ok = ok and max(growth_h, growth_b) > 1.1
        label = f"gamma={gamma}" + (f", norm {size:g}" if size > 1.0 else "")
        parts.append(
            f"{label}: T={t_final:.2f}, growth {growth_h:.2f}/{growth_b:.2f}"
        )
    assert acceptance.record(
        "weighted norm tracking",
        ok,
        "; ".join(parts) + " (limit 3x initial)",
    )


def test_integrator_throughput_floor(acceptance, tmp_path):
    config = {
        "schema_version": 1,
        "grid": {"n": 256},
        "solver": {
            "nu": 1.0,
            "gamma": 0.5,
            "dt": 2e-4,
            "t_final": 0.2,
            "output_stride": 100,
        },
        "initial_data": {
            "kind": "power_law",
            "alpha": 2.7,
            "seed": 5,
            "normalize": "l2",
            "amplitude": 0.5,
        },
        "output": {"prefix": "perf"},
    }
    path = tmp_path / "perf.json"
    path.write_text(json.dumps(config))
    start = time.perf_counter()
    code = cli_main(["simulate", str(path), "--output-dir", str(tmp_path)])
    wall = time.perf_counter() - start
    manifest = json.loads((tmp_path / "perf_manifest.json").read_text())
    recorded = manifest["timings"]["run_seconds"]
    ok = code == 0 and wall <= 60.0 and recorded <= 60.0
    assert acceptance.record(
        "integrator throughput",
        ok,
        f"1000 steps at 256^2 in {wall:.1f} s wall "
        f"({recorded:.1f} s recorded), limit 60 s",
    )
