"""Estimate checkers: closed-form anchors plus seeded sweep verdicts.

Each checker gets at least one input with a hand-computable answer and one
frozen-seed sweep whose verdict (and rough constant) is pinned.
"""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from sqglab.errors import UsageError
from sqglab.inequalities import (
    DECAY_TAU_GRID,
    check_ab_inequality,
    check_coercivity,
    check_gagliardo_equivalence,
    check_heat_decay,
    check_lq_semigroup_decay,
    check_max_point,
    check_phase_bounds,
    check_sign_integral,
    check_spectral_mass_contraction,
    check_trilinear_bounds,
    collinear_phase_infimum,
    counterexample_gamma2_q1,
    dissipation_phase,
    fitted_decay_rate,
    fractional_seminorm_sq,
    spectral_mass_horizon,
)
from sqglab.sampling import OneDGrid, bump_field_1d, gaussian_block_field
from sqglab.spectral import (
    GridSpec,
    MultiplierSpec,
    apply_multiplier,
    field_lp_norm,
    forward_transform,
    sobolev_norm,
)

GRID = GridSpec(64)


def single_mode(grid, k1, k2):
    x = grid.axis_points()
    xx, yy = np.meshgrid(x, x, indexing="ij")
    return forward_transform(np.cos(k1 * xx + k2 * yy), grid)


# -- heat decay --------------------------------------------------------------


def test_decay_rate_exact_on_eigenmode():
    # ||e^{-tD^g} cos(k.x)||_q decays at exactly |k|^g for every q
    field = single_mode(GRID, 8, 0)
    for q in (1.5, 2.0, math.inf):
        c = fitted_decay_rate(field, 0.5, q, (0.1, 0.2, 0.4), scale=8.0**0.5)
        assert c == pytest.approx(1.0, abs=1e-8)


def per_time_decay_rate(field, gamma, q, t_values, scale):
    """Independent oracle: one heat multiplier and one guarded L^q norm per t."""
    base = field_lp_norm(field, q)
    worst = math.inf
    for t in t_values:
        cooled = apply_multiplier(field, MultiplierSpec.heat(1.0, float(t), gamma))
        ratio = field_lp_norm(cooled, q) / base
        if ratio > 0.0:
            worst = min(worst, -math.log(ratio) / (float(t) * scale))
    return worst


@pytest.mark.parametrize("q", [1.0, 1.5, 2.0, 3.0, 6.0, math.inf])
def test_fitted_decay_rate_matches_per_time_oracle(q, rng):
    grid = GridSpec(128)
    for j, gamma in ((3, 0.5), (4, 0.9)):
        scale = 2.0 ** (j * gamma)
        t_values = [tau / scale for tau in DECAY_TAU_GRID]
        field = gaussian_block_field(grid, j, rng)
        assert fitted_decay_rate(field, gamma, q, t_values, scale) == pytest.approx(
            per_time_decay_rate(field, gamma, q, t_values, scale), rel=1e-12
        )


def test_heat_decay_sweep():
    report = check_heat_decay(grid=GRID, j=3, n_samples=40)
    assert report.verdict
    assert 0.7 < report.measured_constant < 1.0
    assert set(report.details["c_by_block"]) == {"3", "4", "5"}
    assert report.witness is not None


def test_heat_decay_scale_invariance():
    # same dimensionless constant when the block index shifts
    c3 = check_heat_decay(grid=GRID, j=2, n_samples=30).measured_constant
    c5 = check_heat_decay(grid=GRID, j=4, n_samples=30).measured_constant
    assert 0.5 < c3 / c5 < 2.0


def test_lq_semigroup_decay_sweep():
    report = check_lq_semigroup_decay(grid=GRID, n_samples=25)
    assert report.verdict
    assert report.details["q_uniform"]
    values = list(report.details["c_by_q"].values())
    assert max(values) / min(values) < 2.0


def test_lq_semigroup_rejects_endpoint_q():
    with pytest.raises(UsageError):
        check_lq_semigroup_decay(grid=GRID, q_values=(1.0,))


# -- coercivity and scalar inequality ----------------------------------------


def test_coercivity_q2_is_parseval_identity():
    # q = 2: int (D^g f) f dx = ||D^{g/2} f||_2^2 exactly
    report = check_coercivity(grid=GRID, q=2.0, n_samples=10)
    assert report.verdict
    assert report.measured_constant == pytest.approx(
        report.theoretical_bound, rel=1e-9
    )


def test_coercivity_sweep_q4():
    report = check_coercivity(grid=GRID, q=4.0, gamma=1.0, n_samples=60)
    assert report.verdict
    assert report.theoretical_bound == pytest.approx(0.75)
    assert report.measured_constant >= report.theoretical_bound * (1.0 - 1e-6)


def test_coercivity_gamma2_variant_equality():
    # At gamma = 2 the signed and unsigned variants agree analytically.
    # The 1e-6 slack assumes the contract grid (128): coarser grids
    # under-resolve the kink of |f|^{q/2} and exceed it.
    report = check_coercivity(grid=GridSpec(128), q=8.0, gamma=2.0, n_samples=40)
    assert report.verdict
    assert report.details["variant_ordered"]
    gap = report.details["min_ratio_signed"] / report.details["min_ratio_plain"]
    assert gap == pytest.approx(1.0, abs=1e-6)


def test_ab_pointwise_closed_form_p4():
    # a=1, b=-1, q=4: lhs = 4, rhs = (4*3/16) * 4 = 3
    a, b, q = 1.0, -1.0, 4.0
    lhs = (a - b) * (abs(a) ** (q - 2) * a - abs(b) ** (q - 2) * b)
    rhs = 4.0 * (q - 1.0) / q**2 * (a - b) ** 2
    assert lhs == 4.0 and rhs == 3.0
    report = check_ab_inequality(q=4.0, sample_count=10_000)
    assert report.verdict
    assert report.measured_constant >= -1e-12


@given(st.floats(min_value=1.1, max_value=12.0))
def test_ab_pointwise_many_q(q):
    report = check_ab_inequality(q=q, sample_count=5_000)
    assert report.verdict


def test_ab_rejects_q1():
    with pytest.raises(UsageError):
        check_ab_inequality(q=1.0)


# -- L^1 sign integrals and the gamma = 2 failure -----------------------------


def test_sign_integral_single_mode_positive():
    report = check_sign_integral(grid=GRID, j=3, n_samples=25)
    assert report.verdict
    assert report.measured_constant > 0.3
    assert report.details["min_c3"] > 0.0


def test_max_point_sweep():
    report = check_max_point(grid=GRID, j=3, n_samples=25)
    assert report.verdict
    assert report.measured_constant > 0.3


def test_counterexample_gamma2():
    report = counterexample_gamma2_q1()
    assert report.verdict
    assert report.details["laplace_sign_integral"] < 1e-6 * report.details["l1_norm"]
    assert report.details["half_power_ratio"] > 0.01
    assert report.details["mass_in_window"] >= 0.999


def test_counterexample_rejects_signed_envelope():
    with pytest.raises(UsageError):
        counterexample_gamma2_q1(envelope_amplitude=1.5)


# -- Gagliardo seminorm -------------------------------------------------------


def test_seminorm_refinement_invariance():
    coarse = OneDGrid(2**11, 64.0 * math.pi)
    fine = OneDGrid(2**12, 64.0 * math.pi)
    rng = np.random.default_rng(9)
    f_c = bump_field_1d(coarse, rng)
    # same field on the finer grid via spectral zero-padding
    pad = np.zeros(fine.n, dtype=complex)
    c = coarse.coeffs(f_c)
    half = coarse.n // 2
    pad[:half] = c[:half]
    pad[-half:] = c[-half:]
    f_f = fine.samples(pad)
    s = 0.35
    v_c, _, _ = fractional_seminorm_sq(coarse, f_c, s)
    v_f, _, _ = fractional_seminorm_sq(fine, f_f, s)
    assert v_f == pytest.approx(v_c, rel=1e-2)


def test_seminorm_amplitude_covariance():
    grid = OneDGrid(2**11, 64.0 * math.pi)
    rng = np.random.default_rng(10)
    f = bump_field_1d(grid, rng)
    v1, _, _ = fractional_seminorm_sq(grid, f, 0.4)
    v3, _, _ = fractional_seminorm_sq(grid, 3.0 * f, 0.4)
    assert v3 == pytest.approx(9.0 * v1, rel=1e-10)


def test_seminorm_matches_spectral_at_half():
    # R(s) = seminorm^2 s(1-s) / ||D^s g||^2 stays within the frozen window
    grid = OneDGrid(2**12, 64.0 * math.pi)
    rng = np.random.default_rng(11)
    f = bump_field_1d(grid, rng)
    semi, delta, core = fractional_seminorm_sq(grid, f, 0.5)
    spec = grid.l2_sq(grid.fractional(f, 0.5))
    ratio = semi * 0.5 * 0.5 / spec
    assert 0.25 < ratio < 4.0
    assert core < 1e-3


def test_gagliardo_equivalence_sweep():
    report = check_gagliardo_equivalence(n_samples=2, s_values=(0.3, 0.5, 0.7))
    assert report.verdict
    assert report.measured_constant < 2.0  # worst window factor, frozen ~1.75
    assert report.witness["core_fraction"] < 1e-3


# -- spectral mass contraction -------------------------------------------------


def test_horizon_closed_cases():
    assert spectral_mass_horizon(1.0, 8.0, 0.5) == math.inf
    h = spectral_mass_horizon(0.5, 8.0, 0.5)
    assert 0.0 < h < math.inf
    # dimensionless gap equation: (1-e) + e exp(-2 tau) = exp(-e tau)
    tau = h * 0.5 * 8.0**0.5 / (0.5 * 0.5)  # invert scaling used internally
    # only sanity: the reported horizon is below the scan cap
    assert h < 10.0


def test_contraction_all_high_field():
    rng = np.random.default_rng(12)
    g = gaussian_block_field(GRID, 4, rng)
    report = check_spectral_mass_contraction(g, 8.0, 1.0, 0.5)
    assert report.verdict
    assert report.details["high_fraction"] == pytest.approx(1.0)
    assert report.details["conservative_horizon"] == "inf"
    assert not report.details["crossover_found"]


def test_contraction_split_field_crossover():
    # 80% of mass on block 5 (|k| >= 16), 20% on |k| = 1.  The claimed rate
    # eps0 N0^gamma / 2 = 1.2 beats the slowest mode's rate 1, so the bound
    # holds on the conservative grid but must fail far beyond the horizon.
    rng = np.random.default_rng(13)
    high = gaussian_block_field(GRID, 5, rng)
    low = single_mode(GRID, 1, 0)
    hn = sobolev_norm(high, 0.0)
    ln = sobolev_norm(low, 0.0)
    g = high.with_coeffs(
        high.coeffs / hn * math.sqrt(0.8) + low.coeffs / ln * math.sqrt(0.2)
    )
    report = check_spectral_mass_contraction(g, 16.0, 0.6, 0.5)
    assert report.details["high_fraction"] == pytest.approx(0.8, abs=1e-12)
    assert report.verdict  # holds on the conservative grid
    assert report.details["crossover_found"]  # but fails eventually
    assert report.measured_constant > report.details["grid_max_t"]


def test_contraction_rejects_low_mass():
    g = single_mode(GRID, 1, 0)
    with pytest.raises(UsageError):
        check_spectral_mass_contraction(g, 8.0, 0.5, 0.5)


# -- dissipation phase ---------------------------------------------------------


def test_phase_antidiagonal_value():
    xi = np.array([3.0, 4.0])
    assert dissipation_phase(xi, -xi, 0.5) == pytest.approx(2.0 * 5.0**0.5)


def test_phase_infimum_positive_below_one():
    inf_half = collinear_phase_infimum(0.5)
    assert 0.5 < inf_half < 0.7  # frozen scan value ~ 0.586
    assert collinear_phase_infimum(0.9) > 0.0
    assert collinear_phase_infimum(1.0) < 1e-3


def test_phase_bounds_gamma_half():
    report = check_phase_bounds(0.5)
    assert report.verdict
    assert 0.5 < report.measured_constant < 0.7
    consts = report.details["derivative_constants"]
    assert all(np.isfinite(v) for v in consts.values())


def test_phase_bounds_gamma_one_degenerates():
    report = check_phase_bounds(1.0)
    assert report.verdict
    assert report.measured_constant < 1e-3


def test_phase_bounds_rejects_supercritical():
    with pytest.raises(UsageError):
        check_phase_bounds(1.5)


# -- trilinear estimates ---------------------------------------------------------


@pytest.mark.parametrize(
    "regime", ["random", "low_g_high_f", "high_g_low_f", "diagonal", "localized"]
)
def test_trilinear_regimes(regime):
    report = check_trilinear_bounds(
        grid=GRID, regime=regime, j_values=(2, 3), n_samples=3
    )
    assert report.verdict, report.details
    assert report.details["growth"] <= report.details["growth_limit"]


def test_trilinear_rejects_gamma_one():
    with pytest.raises(UsageError):
        check_trilinear_bounds(grid=GRID, gamma=1.0)


def test_trilinear_rejects_unknown_regime():
    with pytest.raises(UsageError):
        check_trilinear_bounds(grid=GRID, regime="sideways")


# -- regression pin ------------------------------------------------------------

# measured_constant of each block sweep at its CLI defaults (128^2 grid,
# default seeds), as computed by the earlier per-quantity complex-FFT sweeps.
PINNED_DEFAULTS = {
    "heat_decay": (check_heat_decay, 0.8324015352423284),
    "coercivity_q": (check_coercivity, 0.9076379728499409),
    "sign_integral_q1": (check_sign_integral, 0.888913574946089),
    "max_point_bound": (check_max_point, 0.7627159566438645),
    "lq_semigroup_decay": (check_lq_semigroup_decay, 0.8705754337673036),
}


@pytest.mark.parametrize("lemma_id", sorted(PINNED_DEFAULTS))
def test_block_sweeps_reproduce_pinned_defaults(lemma_id):
    check, pinned = PINNED_DEFAULTS[lemma_id]
    report = check()
    assert report.lemma_id == lemma_id
    assert report.parameters["j"] == (2 if lemma_id == "coercivity_q" else 3)
    assert report.verdict
    assert report.measured_constant == pytest.approx(pinned, rel=1e-12)
