"""Approximation sweeps: truncation confinement, contraction, rate fits."""

import math
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest

import sqglab.iterates as iterates_module
from sqglab.dyadic import besov_norm
from sqglab.errors import CflGuardError, OverflowGuardError, UsageError
from sqglab.iterates import (
    DEFAULT_S0,
    NORM_LABELS,
    _norm_row,
    galerkin_sequence,
    picard_besov_sequence,
)
from sqglab.reports import IterateTrace, fit_log2
from sqglab.sampling import power_law_field
from sqglab.solver import SolverConfig, Stepper
from sqglab.spectral import (
    PROFILE_OUTER,
    GridSpec,
    _block_of,
    SpectralField,
    forward_transform,
    full_spectrum,
    grid_arrays,
    low_pass_symbol,
    sobolev_norm,
)

from oracles import (
    besov_sample_oracle,
    full_k_power,
    full_lattice,
    full_sobolev_norm,
    gevrey_warm,
    half,
)

GRID = GridSpec(64)


def data_field(seed=21, amp=1.0):
    rng = np.random.default_rng(seed)
    field = power_law_field(GRID, 2.7, rng)
    return field.with_coeffs(field.coeffs * amp / sobolev_norm(field, 0.0))


def single_mode(k1, k2):
    x = GRID.axis_points()
    xx, yy = np.meshgrid(x, x, indexing="ij")
    return forward_transform(np.cos(k1 * xx + k2 * yy), GRID)


CFG = SolverConfig(grid=GRID, nu=1.0, gamma=0.5, dt=2e-3, t_final=0.02)


def test_galerkin_single_mode_all_diffs_zero():
    # |k| = 1 sits inside every cutoff and self-advects trivially, so all
    # truncations produce the same trajectory up to FFT round-off noise
    # (the pseudospectral product is zero only to machine precision)
    theta0 = single_mode(1, 0)
    scale = sobolev_norm(theta0, 0.0)
    trace = galerkin_sequence(theta0, range(1, 4), CFG)
    for label, vals in trace.diffs.items():
        assert all(v <= 1e-13 * scale for v in vals), (label, vals)
    assert trace.parameters["max_support_leak"] <= 1e-28


def test_galerkin_support_confinement():
    trace = galerkin_sequence(data_field(), range(2, 5), CFG)
    assert trace.parameters["max_support_leak"] <= 1e-11


def test_galerkin_differences_shrink():
    trace = galerkin_sequence(data_field(), range(2, 5), CFG)
    diffs = trace.diffs["l2"]
    assert len(diffs) == 2
    assert diffs[1] < diffs[0]
    assert "l2" in trace.fits
    assert trace.fits["l2"].slope < 0.0


def test_galerkin_cutoff_guard():
    # 64^2: blocks above j_max_verified = 4 are not fully resolved
    with pytest.raises(UsageError, match="max n = 5"):
        galerkin_sequence(data_field(), range(4, 7), CFG)


def test_galerkin_rejects_non_consecutive():
    with pytest.raises(UsageError):
        galerkin_sequence(data_field(), [2, 4, 5], CFG)
    with pytest.raises(UsageError):
        galerkin_sequence(data_field(), [3], CFG)


def test_iterates_require_integral_step_count():
    bad = SolverConfig(grid=GRID, nu=1.0, gamma=0.5, dt=3e-3, t_final=0.02)
    with pytest.raises(UsageError, match="integer number of steps"):
        galerkin_sequence(data_field(), range(2, 4), bad)


def test_picard_first_iterate_is_linear_flow():
    # iterate 0 advects with the zero field; the integrating factor then
    # reproduces e^{-nu t D^gamma} exactly, so every recorded sup-norm must
    # match the heat flow of the truncated data evaluated on the same grid
    theta0 = data_field()
    trace = picard_besov_sequence(theta0, range(0, 2), 2.0, 2.0, CFG)
    ka = grid_arrays(GRID)
    data0 = theta0.coeffs * ka.dealias_mask * low_pass_symbol(GRID, 2)
    times = [k * CFG.dt for k in range(0, 11)]
    sup_l2 = 0.0
    sup_gevrey = 0.0
    k_gamma = half(GRID, full_k_power(GRID, CFG.gamma))
    for t in times:
        heat = np.exp(-CFG.nu * t * k_gamma)
        state = SpectralField(GRID, data0 * heat)
        sup_l2 = max(sup_l2, sobolev_norm(state, 0.0))
        warm = np.exp(CFG.gevrey_epsilon0 * t * k_gamma)
        sup_gevrey = max(sup_gevrey, sobolev_norm(SpectralField(GRID, state.coeffs * warm), 0.0))
    assert trace.norms["l2"][0] == pytest.approx(sup_l2, rel=1e-12)
    assert trace.norms["gevrey_l2"][0] == pytest.approx(sup_gevrey, rel=1e-12)


def test_picard_contraction_ratios():
    trace = picard_besov_sequence(data_field(), range(0, 3), 2.0, 2.0, CFG)
    ratios = trace.parameters["contraction_ratios_besov_s0"]
    assert len(ratios) == 1
    assert ratios[0] < 0.75
    assert "data_rate" in trace.fits
    assert trace.fits["data_rate"].slope < -1.0


def test_picard_data_cutoff_guard():
    with pytest.raises(UsageError, match="max n = 2"):
        picard_besov_sequence(data_field(), range(0, 4), 2.0, 2.0, CFG)


def test_picard_respects_requested_besov_indices():
    trace = picard_besov_sequence(data_field(), range(0, 2), 4.0, 1.0, CFG)
    assert trace.parameters["p"] == 4.0
    assert trace.parameters["q"] == 1.0


def test_grid_mismatch_rejected():
    wrong = power_law_field(GridSpec(32), 2.7, np.random.default_rng(0))
    with pytest.raises(UsageError):
        galerkin_sequence(wrong, range(2, 4), CFG)
    with pytest.raises(UsageError):
        picard_besov_sequence(wrong, range(0, 2), 2.0, 2.0, CFG)


def assert_norm_row_matches_oracle(field, p):
    grid = field.grid
    cfg = SolverConfig(grid=grid, nu=1.0, gamma=0.5, dt=2e-3, t_final=0.02,
                       gevrey_epsilon0=0.3, besov_p=p)
    t, s0 = 0.7, 0.05
    warm = gevrey_warm(field, 0.3, t, 0.5)
    want = {
        "l2": full_sobolev_norm(field, 0.0),
        "h_crit": full_sobolev_norm(field, 1.5),
        "besov_s0": besov_sample_oracle(field, s0, p, math.inf),
        "gevrey_l2": full_sobolev_norm(warm, 0.0),
        "gevrey_h_crit": full_sobolev_norm(warm, 1.5),
        "gevrey_besov_s0": besov_sample_oracle(warm, s0, p, math.inf),
    }
    got = _norm_row(field.coeffs, t, cfg, s0)
    assert set(got) == set(want)
    for label, value in want.items():
        assert got[label] == pytest.approx(value, rel=1e-12), label


@pytest.mark.parametrize("p", [2.0, 4.0])
def test_norm_row_matches_oracle(p):
    grid = GridSpec(64, period=3.0)
    field = power_law_field(grid, 2.2, np.random.default_rng(4))
    assert not _block_of(grid, field.coeffs).wide
    assert_norm_row_matches_oracle(field, p)


@pytest.mark.parametrize("p", [2.0, 4.0])
def test_norm_row_of_undealiased_data_matches_oracle(p):
    # Modes up to the Nyquist lines, outside the dealias block: the row
    # must take the whole half spectrum, not drop them.
    grid = GridSpec(64, period=3.0)
    field = power_law_field(grid, 2.2, np.random.default_rng(4), k_cut=grid.n)
    assert _block_of(grid, field.coeffs).wide
    assert_norm_row_matches_oracle(field, p)


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
def test_norm_rows_keep_the_overflow_guard():
    # Inviscid data kept at every populated mode while the Gevrey exponent
    # eps0 * t * |k|^2 passes the cap there: the sweeps must refuse.
    grid = GridSpec(32)
    theta0 = power_law_field(grid, 2.7, np.random.default_rng(3))
    theta0 = theta0.with_coeffs(theta0.coeffs * 1e-3)
    cfg = SolverConfig(grid=grid, nu=0.0, gamma=2.0, dt=1.0, t_final=20.0)
    with pytest.raises(OverflowGuardError, match="exceeds cap"):
        galerkin_sequence(theta0, [3, 4], cfg)
    with pytest.raises(OverflowGuardError, match="exceeds cap"):
        picard_besov_sequence(theta0, [0, 1], 2.0, 2.0, cfg)
    with pytest.raises(OverflowGuardError, match="exceeds cap"):
        _norm_row(theta0.coeffs, 20.0, cfg, 0.05)
    # the same exponent where no data lives gives weight 0, not an error
    low = np.zeros((GRID.n, GRID.n // 2 + 1), dtype=np.complex128)
    low[1, 0] = low[-1, 0] = 0.5  # cos(x), with exact zeros elsewhere
    row = _norm_row(low, 20.0, SolverConfig(grid=GRID, gamma=2.0), 0.05)
    assert row["gevrey_l2"] == pytest.approx(
        math.exp(0.5 * 20.0) * row["l2"], rel=1e-12
    )


def test_weighted_power_overflow_raises_before_any_warning():
    # Inviscid Galerkin sweep on 32^2 with small data: the Gevrey-weighted
    # power of the populated modes leaves double range (near exponent 382)
    # long before the exponent passes the cap (at 510).  The guard must
    # raise before numpy overflows into inf.
    grid = GridSpec(32)
    theta0 = power_law_field(grid, 2.7, np.random.default_rng(0))
    theta0 = theta0.with_coeffs(theta0.coeffs * (1e-4 / np.max(np.abs(theta0.coeffs))))
    cfg = SolverConfig(grid=grid, nu=0.0, gamma=2.0, dt=1.0, t_final=20.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(OverflowGuardError, match="double range"):
            galerkin_sequence(theta0, range(1, 5), cfg)


def test_a_norm_row_makes_no_transform(count_transforms):
    # At p = 2 every column, the Besov ones too, is a Parseval sum.
    cfg = replace(CFG, gevrey_epsilon0=0.3)
    a, b = data_field().coeffs, data_field(seed=22).coeffs
    core = iterates_module._norm_core(cfg)
    for minus in (None, b):
        _, calls = count_transforms(_norm_row, a, 0.5, cfg, DEFAULT_S0, core, minus)
        assert calls == 0


@pytest.mark.parametrize("p", [2.0, 4.0])
@pytest.mark.parametrize("rough", [None, "half", "minus"])
def test_difference_rows_subtract_on_the_block(p, rough):
    # The row of a - b subtracts the restricted blocks: the row of the
    # difference to the bit when both stay on the dealias block, and on the
    # whole half spectrum when either leaves it.
    grid = GridSpec(64, period=3.0)
    cfg = SolverConfig(grid=grid, gamma=0.5, gevrey_epsilon0=0.3, besov_p=p)
    mask = grid_arrays(grid).dealias_mask
    a = power_law_field(grid, 2.2, np.random.default_rng(4)).coeffs * mask
    b = 0.5 * power_law_field(grid, 2.2, np.random.default_rng(5)).coeffs * mask
    wide = power_law_field(grid, 2.2, np.random.default_rng(6), k_cut=grid.n).coeffs
    if rough == "half":
        a = a + 0.1 * wide
    elif rough == "minus":
        b = b + 0.1 * wide
    core = iterates_module._norm_core(cfg)
    got = _norm_row(a, 0.7, cfg, DEFAULT_S0, core, b)
    assert core._loaded.block.wide == (rough is not None)
    want = _norm_row(a - b, 0.7, cfg, DEFAULT_S0)
    if rough is None:
        assert got == want
    else:
        for label in NORM_LABELS:
            assert got[label] == pytest.approx(want[label], rel=1e-14, abs=0.0), label


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
def test_a_round_off_mode_past_double_range_reads_inf_not_nan():
    # A mode far below the support threshold escapes both guards, yet its
    # Gevrey-weighted power w^2 P passes double range (e^800 here).  Its
    # weighted columns read inf through the sums masked to each table row's
    # support; none reads NaN, and the unweighted columns keep their values.
    grid = GridSpec(32)
    coeffs = np.zeros((grid.n, grid.n // 2 + 1), dtype=np.complex128)
    coeffs[1, 0] = coeffs[-1, 0] = 0.5    # cos(x)
    coeffs[8, 6] = 1e-16                 # |k|^2 = 100: exponent 0.5 * 8 * 100
    cfg = SolverConfig(grid=grid, nu=0.0, gamma=2.0, gevrey_epsilon0=0.5)
    row = _norm_row(coeffs, 8.0, cfg, DEFAULT_S0)
    field = SpectralField(grid, coeffs)
    for label in ("gevrey_l2", "gevrey_h_crit", "gevrey_besov_s0"):
        assert row[label] == math.inf, label
    assert row["l2"] == pytest.approx(full_sobolev_norm(field, 0.0), rel=1e-12)
    assert row["h_crit"] == pytest.approx(full_sobolev_norm(field, 0.0), rel=1e-12)
    assert row["besov_s0"] == pytest.approx(
        besov_sample_oracle(field, DEFAULT_S0, 2.0, math.inf), rel=1e-12)
    # The block rows that miss the mode stay finite.
    core = iterates_module._norm_core(cfg)
    sums = core.row(coeffs, 8.0)
    assert not np.isnan(sums).any()
    blocks = sums[core.blocks, 1]
    assert np.isinf(blocks).any() and np.isfinite(blocks).any()


# -- sequential oracle ---------------------------------------------------------

# The sweeps as they were before the lockstep engine: each iterate runs to
# the end before the next starts, and Picard keeps the previous iterate's
# state at every step.  Same arithmetic, so the traces must agree bitwise.


def _sup_rows(rows):
    return {label: max(row[label] for row in rows) for label in NORM_LABELS}


def _fit_diffs(trace, n_values):
    mids = [2.0**n for n in n_values[1:]]
    for label in NORM_LABELS:
        vals = trace.diffs[label]
        if len(vals) >= 2 and all(v > 0.0 for v in vals):
            trace.fits[label] = fit_log2(mids, vals)


def _fold_stored(trace, stored, previous, config, s0):
    # Sups over the stored times, and the rows of the last one (t_final).
    rows = [_norm_row(c, ts, config, s0) for ts, c in stored]
    sups = _sup_rows(rows)
    for label in NORM_LABELS:
        trace.norms[label].append(sups[label])
        trace.final_norms.setdefault(label, []).append(rows[-1][label])
    if previous is not None:
        diff_rows = [
            _norm_row(c_new - c_old, ts, config, s0)
            for (ts, c_new), (_, c_old) in zip(stored, previous)
        ]
        dsup = _sup_rows(diff_rows)
        for label in NORM_LABELS:
            trace.diffs[label].append(dsup[label])
            trace.final_diffs.setdefault(label, []).append(diff_rows[-1][label])


def sequential_galerkin(theta0, n_values, config, s0=DEFAULT_S0):
    grid = config.grid
    n_steps = int(round(config.t_final / config.dt))
    ka = grid_arrays(grid)
    trace = IterateTrace(
        scheme="galerkin",
        indices=list(n_values),
        norms={label: [] for label in NORM_LABELS},
        diffs={label: [] for label in NORM_LABELS},
        parameters={"gamma": config.gamma, "nu": config.nu, "dt": config.dt,
                    "t_final": config.t_final, "s0": s0,
                    "cutoff_rule": "blocks <= n-1"},
    )
    previous = None
    worst_leak = 0.0
    for n in n_values:
        low = low_pass_symbol(grid, n - 1)
        stepper = Stepper(config, projection=n - 1)
        coeffs = theta0.coeffs * ka.dealias_mask * low
        stored = [(0.0, coeffs)]
        t = 0.0
        for k in range(1, n_steps + 1):
            coeffs = stepper.step(coeffs)
            t += config.dt
            if k % config.output_stride == 0 or k == n_steps:
                stored.append((t, coeffs))
        outside = full_lattice(grid).k_abs > PROFILE_OUTER * 2.0 ** (n - 1)
        for _, c in stored:
            c = full_spectrum(grid, c)  # the leak as a full-lattice sum
            total = float(np.sum(np.abs(c) ** 2))
            if total > 0.0:
                leak = float(np.sum(np.abs(c[outside]) ** 2)) / total
                worst_leak = max(worst_leak, leak)
        _fold_stored(trace, stored, previous, config, s0)
        previous = stored
    trace.parameters["max_support_leak"] = worst_leak
    _fit_diffs(trace, n_values)
    return trace


def sequential_picard(theta0, n_values, p, q, config, s0=DEFAULT_S0):
    grid = config.grid
    n_steps = int(round(config.t_final / config.dt))
    ka = grid_arrays(grid)
    run_config = replace(config, besov_p=p, besov_q=q)
    trace = IterateTrace(
        scheme="picard",
        indices=list(n_values),
        norms={label: [] for label in NORM_LABELS},
        diffs={label: [] for label in NORM_LABELS},
        parameters={"gamma": config.gamma, "nu": config.nu, "dt": config.dt,
                    "t_final": config.t_final, "p": p, "q": q, "s0": s0,
                    "data_cutoff_rule": "blocks <= n+2",
                    "spatial_cutoff": "identically 1 on the torus"},
    )
    data_fields = [
        theta0.coeffs * ka.dealias_mask * low_pass_symbol(grid, n + 2)
        for n in n_values
    ]
    data_diffs = [
        besov_norm(SpectralField(grid, b - a), s0, p, math.inf)
        for a, b in zip(data_fields, data_fields[1:])
    ]
    trace.parameters["data_diffs_besov_s0"] = data_diffs
    if len(data_diffs) >= 2 and all(v > 0.0 for v in data_diffs):
        trace.fits["data_rate"] = fit_log2([2.0**n for n in n_values[1:]], data_diffs)
    # Spectra only: the stepper synthesizes every ramp velocity afresh, so
    # the bitwise match checks the lockstep engine's velocity handover.
    zero = np.zeros((grid.n, grid.n // 2 + 1), dtype=np.complex128)
    previous_traj = previous_stored = None
    for idx in range(len(n_values)):
        stepper = Stepper(run_config)
        coeffs = data_fields[idx]
        traj = [coeffs]
        stored = [(0.0, coeffs)]
        t = 0.0
        for k in range(1, n_steps + 1):
            if previous_traj is None:
                adv0 = adv1 = zero
            else:
                adv0, adv1 = previous_traj[k - 1], previous_traj[k]
            coeffs = stepper.step(coeffs, advect_coeffs=adv0, advect_coeffs_end=adv1)
            t += config.dt
            traj.append(coeffs)
            if k % config.output_stride == 0 or k == n_steps:
                stored.append((t, coeffs))
        _fold_stored(trace, stored, previous_stored, run_config, s0)
        previous_traj, previous_stored = traj, stored
    vals = trace.diffs["besov_s0"]
    trace.parameters["contraction_ratios_besov_s0"] = [
        b / a if a > 0.0 else math.inf for a, b in zip(vals, vals[1:])
    ]
    _fit_diffs(trace, n_values)
    return trace


@pytest.mark.parametrize("stride", [2, 3])  # 3 does not divide the 10 steps
@pytest.mark.parametrize("scheme", ["galerkin", "picard"])
def test_lockstep_matches_sequential_loops(scheme, stride):
    # With nu below the Gevrey rate eps0 = 0.5 the weighted norms grow, so
    # their sups come from late stored states and depend on every step; at
    # nu = 1 each sup would be the t = 0 value.
    cfg = replace(CFG, nu=0.1, output_stride=stride)
    theta0 = data_field(amp=3.0)
    if scheme == "galerkin":
        got = galerkin_sequence(theta0, range(2, 5), cfg)
        want = sequential_galerkin(theta0, [2, 3, 4], cfg)
    else:
        got = picard_besov_sequence(theta0, range(0, 3), 4.0, math.inf, cfg)
        want = sequential_picard(theta0, [0, 1, 2], 4.0, math.inf, cfg)
    assert got.to_dict() == want.to_dict()
    assert len(got.fits) > 2


def test_lockstep_picard_cfl_max_matches_sequential_steppers(monkeypatch):
    # The handed-over velocities go through the CFL guard at every stage,
    # as the sequential oracle's freshly synthesized ones do.
    made = []

    class Recording(Stepper):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            made.append(self)

    monkeypatch.setattr(iterates_module, "Stepper", Recording)
    monkeypatch.setitem(globals(), "Stepper", Recording)
    cfg = replace(CFG, nu=0.1)
    theta0 = data_field(amp=3.0)
    picard_besov_sequence(theta0, range(0, 3), 4.0, math.inf, cfg)
    (lockstep,) = made
    made.clear()
    sequential_picard(theta0, [0, 1, 2], 4.0, math.inf, cfg)
    assert len(made) == 3
    assert lockstep.cfl_max > 0.0
    assert lockstep.cfl_max == max(s.cfl_max for s in made)


@pytest.mark.parametrize("integrator, per_step", [("if_rk4", 14), ("etd_rk2", 8)])
def test_picard_transform_budget(integrator, per_step, count_transforms):
    # Iterate 0 advects with the zero field: no transform.  Every later
    # iterate synthesizes its first start velocity, then per step its end
    # velocity (handed over as the next start) and three transforms per
    # stage; IF-RK4's mid velocity is the mean of the two end velocities,
    # formed in samples.  With p = 2 the norm rows make none.
    cfg = replace(CFG, integrator=integrator)
    steps = int(round(cfg.t_final / cfg.dt))
    iterates = 3  # cutoffs 0..2, the most a 64^2 grid resolves
    _, calls = count_transforms(picard_besov_sequence, data_field(),
                                range(0, iterates), 2.0, 2.0, cfg)
    assert calls == (iterates - 1) * (per_step * steps + 2)


def test_picard_memory_does_not_grow_with_steps():
    # The lockstep engine keeps two states per iterate, so the traced peak
    # is the same at 12 and 48 steps (the per-step trajectory read 2x).
    grid = GridSpec(128)
    rng = np.random.default_rng(5)
    theta0 = power_law_field(grid, 2.7, rng)
    theta0 = theta0.with_coeffs(theta0.coeffs / sobolev_norm(theta0, 0.0))

    def peak(steps):
        cfg = SolverConfig(grid=grid, nu=1.0, gamma=0.5, dt=1e-3,
                           t_final=steps * 1e-3, output_stride=4)
        tracemalloc.start()
        try:
            picard_besov_sequence(theta0, range(0, 4), 2.0, 2.0, cfg)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(4)  # builds the per-grid caches outside the measured runs
    short, long = peak(12), peak(48)
    assert long <= 1.2 * short, (short / 2**20, long / 2**20)


def test_galerkin_path_keeps_the_cfl_guard():
    # Full-grid stepping reads CFL 2.70 on the first step of cutoff 2; its
    # 8^2 step grid samples the peak speed at fewer points and reads 2.47,
    # still past the hard limit with the full grid's dealias radius as kmax.
    cfg = SolverConfig(grid=GRID, nu=0.001, gamma=0.5, dt=5e-3, t_final=0.05)
    with pytest.raises(CflGuardError, match="hard limit"):
        galerkin_sequence(data_field(amp=100.0), range(2, 5), cfg)


def test_galerkin_transform_points_budget(count_transforms):
    # Cutoffs 3..7 at 256^2 step on 16^2, 32^2, 64^2, 128^2 and 256^2: 20
    # transforms per IF-RK4 step each, as before, but 3.75x fewer points
    # than five 256^2 steppers.  The norm rows and the audit transform
    # nothing, and the states stay inside their cutoffs.
    grid = GridSpec(256)
    field = power_law_field(grid, 2.7, np.random.default_rng(0))
    theta0 = field.with_coeffs(field.coeffs / sobolev_norm(field, 0.0))
    steps = 2
    cfg = SolverConfig(grid=grid, nu=1.0, gamma=0.5, dt=1e-3, t_final=steps * 1e-3)
    trace, calls = count_transforms(galerkin_sequence, theta0, range(3, 8), cfg)
    sizes = (16, 32, 64, 128, 256)
    assert calls == 20 * steps * len(sizes)
    assert calls.points == 20 * steps * sum(n * n for n in sizes)
    assert 3.75 < 5 * 256**2 / sum(n * n for n in sizes) < 3.76
    assert trace.parameters["max_support_leak"] <= 1e-20


def test_final_rows_see_the_picard_ramp(monkeypatch):
    # At nu = 1 >= eps0 the sups come from t = 0, so they cannot tell a ramp
    # frozen at the step start from the true one; the final-time rows can.
    theta0 = data_field()
    good = picard_besov_sequence(theta0, range(0, 3), 2.0, 2.0, CFG)
    step = Stepper.step

    def frozen(self, coeffs, dt=None, advect_coeffs=None, advect_coeffs_end=None,
               advect_velocities=None):
        return step(self, coeffs, dt, advect_coeffs, advect_coeffs)

    monkeypatch.setattr(Stepper, "step", frozen)
    bad = picard_besov_sequence(theta0, range(0, 3), 2.0, 2.0, CFG)
    assert bad.norms == good.norms and bad.diffs == good.diffs
    for label in NORM_LABELS:
        assert bad.final_norms[label][0] == good.final_norms[label][0]
        assert bad.final_norms[label][2] != good.final_norms[label][2]
        assert bad.final_diffs[label] != good.final_diffs[label]
