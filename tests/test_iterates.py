"""Approximation sweeps: truncation confinement, contraction, rate fits."""

import math

import numpy as np
import pytest

from sqglab.errors import OverflowGuardError, UsageError
from sqglab.iterates import _norm_row, galerkin_sequence, picard_besov_sequence
from sqglab.sampling import power_law_field
from sqglab.solver import SolverConfig
from sqglab.spectral import (
    GridSpec,
    MultiplierSpec,
    SpectralField,
    forward_transform,
    grid_arrays,
    sobolev_norm,
)

from oracles import besov_sample_oracle, full_sobolev_norm, gevrey_warm

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
    data0 = theta0.coeffs * ka.dealias_mask * MultiplierSpec.low_pass(2).symbol_on(GRID)
    times = [k * CFG.dt for k in range(0, 11)]
    sup_l2 = 0.0
    sup_gevrey = 0.0
    for t in times:
        heat = MultiplierSpec.heat(CFG.nu, t, CFG.gamma).symbol_on(GRID)
        state = SpectralField(GRID, data0 * heat)
        sup_l2 = max(sup_l2, sobolev_norm(state, 0.0))
        warm = MultiplierSpec.gevrey(CFG.gevrey_epsilon0, t, CFG.gamma).symbol_on(GRID)
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


@pytest.mark.parametrize("p", [2.0, 4.0])
def test_norm_row_matches_oracle(p):
    grid = GridSpec(64, period=3.0)
    cfg = SolverConfig(grid=grid, nu=1.0, gamma=0.5, dt=2e-3, t_final=0.02,
                       gevrey_epsilon0=0.3, besov_p=p)
    field = power_law_field(grid, 2.2, np.random.default_rng(4))
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
    low = np.zeros((GRID.n, GRID.n), dtype=np.complex128)
    low[1, 0] = low[-1, 0] = 0.5  # cos(x), with exact zeros elsewhere
    row = _norm_row(low, 20.0, SolverConfig(grid=GRID, gamma=2.0), 0.05)
    assert row["gevrey_l2"] == pytest.approx(
        math.exp(0.5 * 20.0) * row["l2"], rel=1e-12
    )
