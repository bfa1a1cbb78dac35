"""Estimate checkers: closed-form anchors plus seeded sweep verdicts.

Each checker gets at least one input with a hand-computable answer and one
frozen-seed sweep whose verdict (and rough constant) is pinned.
"""

import copy
import gc
import math
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from sqglab import inequalities
from sqglab.errors import UsageError
from sqglab.reports import field_from_witness
from sqglab.inequalities import (
    DECAY_TAU_GRID,
    _block_sweep,
    _decay_rate,
    _decay_sweep,
    _median,
    _operator_stack,
    _phase_fd_constants,
    _within_decay_spread,
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
from sqglab.sampling import (
    OneDGrid,
    _block_buffers,
    bump_field_1d,
    draw_coeffs,
    gaussian_block_field,
)
from sqglab.spectral import (
    GridSpec,
    SpectralField,
    _support_box,
    block_symbol,
    field_lp_norm,
    field_to_bytes,
    forward_transform,
    grid_arrays,
    k_power,
    low_pass_symbol,
    sobolev_norm,
)

from oracles import (
    block_sweep_oracle,
    full_k_power,
    half,
    pointwise_phase_fd_constants,
    quad_seminorm_sq,
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
        heat = np.exp(-float(t) * half(field.grid, full_k_power(field.grid, gamma)))
        cooled = field.with_coeffs(field.coeffs * heat)
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


@pytest.mark.parametrize("values, within", [
    ([0.8, 1.0, 1.4], True),
    ([0.6, 0.9, 1.0, 1.2], True),
    ([1.0, 1.0, 1.6], False),  # one value 60 % above the median
    ([0.4, 1.0, 1.0, 1.0], False),  # one 60 % below it, among a q sweep's four
    ([0.0, 0.0, 0.0], False),  # zero median, every value on it
    ([-0.2, 0.0, 0.3], False),  # zero median
    ([-1.0, -0.9, -0.8], False),  # negative median, every value within 50 % of it
])
def test_decay_spread_gate(values, within):
    # The gate behind heat_decay's "stable" and lq_semigroup_decay's
    # "q_uniform": both can read False.
    assert _within_decay_spread(values) is within


@pytest.mark.parametrize("values", [
    [0.3, 1.2, 0.7], [1 / 3, 2 / 3, 0.1 + 0.2], [0.6, 1.2, 0.9, 1.0],
    [1 / 3, 0.1 + 0.2, 7 / 9, 2 / 3],
    [0.0, 0.008215500510444285, 2.4475606623645962, 3.0],
])
def test_median_is_numpy_median(values):
    # The lengths heat_decay (three j) and lq_semigroup_decay (four q) pass.
    # In the last, a + (b - a) / 2 would round differently from (a + b) / 2.
    assert _median(values) == float(np.median(values))


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
    report = check_ab_inequality(q=4.0, n_samples=10_000)
    assert report.verdict
    assert report.measured_constant >= -1e-12


@given(st.floats(min_value=1.1, max_value=12.0))
def test_ab_pointwise_many_q(q):
    report = check_ab_inequality(q=q, n_samples=5_000)
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


@pytest.mark.parametrize("check, name", [(check_sign_integral, "c2"),
                                         (check_max_point, "c3"),
                                         (check_heat_decay, "fitted_c"),
                                         (check_coercivity, "ratio")])
def test_sign_sweep_witness_reproduces_measured_constant(check, name):
    # CLI defaults, where the c2 and c3 minima come from different samples.
    # Coercivity's witness carries the signed ratio, the measured constant
    # over 4(q-1)/q^2.
    report = check()
    measured = report.measured_constant
    if name == "ratio":
        measured = report.details["min_ratio_signed"]
    assert report.witness[name] == measured
    field = field_from_witness(report.witness)
    grid = field.grid
    j, gamma = report.parameters["j"], report.parameters["gamma"]
    f = field.to_samples()
    dgf = field.with_coeffs(field.coeffs * k_power(grid, gamma)).to_samples()
    scale = 2.0 ** (j * gamma)
    if name == "c2":
        l1 = np.sum(np.abs(f)) * grid.cell_area
        value = np.sum(dgf * np.sign(f)) * grid.cell_area / (scale * l1)
    elif name == "c3":
        idx = np.unravel_index(np.argmax(np.abs(f)), f.shape)
        value = np.sign(f[idx]) * dgf[idx] / (scale * np.abs(f[idx]))
    elif name == "fitted_c":
        t_values = [tau / scale for tau in DECAY_TAU_GRID]
        value = fitted_decay_rate(field, gamma, report.parameters["q"], t_values, scale)
    else:
        q = report.parameters["q"]
        lhs = np.sum(dgf * np.sign(f) * np.abs(f) ** (q - 1.0)) * grid.cell_area
        w = forward_transform(np.sign(f) * np.abs(f) ** (q / 2.0), grid)
        rhs = sobolev_norm(w, gamma / 2.0, homogeneous=True) ** 2
        value = lhs / (report.theoretical_bound * rhs)
    assert value == pytest.approx(measured, rel=1e-12)


def test_counterexample_gamma2():
    report = counterexample_gamma2_q1()
    assert report.verdict
    assert report.details["laplace_sign_integral"] < 1e-6 * report.details["l1_norm"]
    assert report.details["half_power_ratio"] > 0.01
    assert report.details["mass_in_window"] >= 0.999


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
    report = check_gagliardo_equivalence(n_samples=2)
    assert report.verdict
    assert report.measured_constant < 2.0  # worst window factor, frozen ~1.75
    assert report.witness["core_fraction"] < 1e-3


S_VALUES = (0.1, 0.3, 0.5, 0.7, 0.9)


@pytest.mark.parametrize("n", [2**12, 2**11])
def test_seminorm_rule_matches_adaptive_quad(n):
    # The Gauss-Legendre rule against adaptive quad at epsrel 1e-13, for the
    # bumps of check_gagliardo_equivalence on its box and at half its grid.
    grid = OneDGrid(n, 64.0 * math.pi)
    for seed in range(8):
        g = bump_field_1d(grid, np.random.default_rng(seed))
        semi, delta, core = fractional_seminorm_sq(grid, g, S_VALUES)
        for i, s in enumerate(S_VALUES):
            want = quad_seminorm_sq(grid, g, s)
            assert semi[i] == pytest.approx(want[0], rel=1e-12), (seed, s)
            assert delta[i] == pytest.approx(want[1], rel=1e-9), (seed, s)
            assert core[i] == pytest.approx(want[2], rel=1e-9), (seed, s)
        one = fractional_seminorm_sq(grid, g, 0.3)
        assert all(isinstance(v, float) for v in one)
        assert one[0] == pytest.approx(semi[1], rel=1e-14)


def test_seminorm_guard_fires_on_a_coarse_rule(monkeypatch):
    # One panel per range leaves the far range's oscillation unresolved.
    grid = OneDGrid(2**11, 64.0 * math.pi)
    g = bump_field_1d(grid, np.random.default_rng(0))
    monkeypatch.setattr(inequalities, "_even_edges", lambda a, b, n, rate: np.array([a, b]))
    with pytest.raises(UsageError, match="did not converge"):
        fractional_seminorm_sq(grid, g, 0.5)


# details.ratios_by_s of check_gagliardo_equivalence at its defaults, as
# adaptive quad (default tolerances) computed them.
PINNED_GAGLIARDO_RATIOS = {
    "0.1": [1.2526003180835699, 1.2854200816624233, 1.205758949011367],
    "0.3": [1.7365276612631269, 1.747897906352354, 1.718350821253678],
    "0.5": [1.5618688665871945, 1.563693605648439, 1.5586026444854924],
    "0.7": [1.312282021881212, 1.3124752016656673, 1.3118950280073116],
    "0.9": [1.0915084873603529, 1.0915184059335716, 1.0914862553352398],
}


def test_gagliardo_equivalence_reproduces_pinned_ratios():
    ratios = check_gagliardo_equivalence().details["ratios_by_s"]
    assert list(ratios) == list(PINNED_GAGLIARDO_RATIOS)
    for s, pinned in PINNED_GAGLIARDO_RATIOS.items():
        assert ratios[s] == pytest.approx(pinned, rel=1e-12), s


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
    assert report.n_samples == 24  # the checked time grid
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


def test_contraction_high_fraction_counts_conjugate_partners():
    # Two single modes with set amplitudes: a cos(x) at |k| = 1 < N0, whose
    # two coefficients sit in column 0 of the half spectrum, and
    # b cos(5x + 7y) at |k| = sqrt(74) > N0, whose one half-spectrum
    # coefficient stands for its partner too.  The high fraction is
    # b^2 / (a^2 + b^2) = 0.9; an unweighted half-spectrum sum reads
    # b^2 / (2 a^2 + b^2) = 9/11, below eps0.
    a, b, eps0 = 1.0, 3.0, 0.9
    coeffs = np.zeros((GRID.n, GRID.n // 2 + 1), dtype=complex)
    coeffs[1, 0] = coeffs[-1, 0] = 0.5 * a
    coeffs[5, 7] = 0.5 * b
    g = SpectralField(GRID, coeffs)
    assert sobolev_norm(g, 0.0) ** 2 == pytest.approx(
        GRID.period**2 * 0.5 * (a * a + b * b), rel=1e-15)
    report = check_spectral_mass_contraction(g, 8.0, eps0, 0.5)
    assert abs(report.details["high_fraction"] - b * b / (a * a + b * b)) <= 1e-14
    # The decay test weighs the modes the same way: the claimed rate
    # eps0 N0^gamma / 2 beats the |k| = 1 mode's rate 1, so the bound fails
    # from the time the closed form gives.
    rate = 0.5 * eps0 * 8.0**0.5

    def holds(t):
        decayed = a * a * math.exp(-2.0 * t) + b * b * math.exp(-2.0 * t * 74.0**0.25)
        return math.sqrt(decayed / (a * a + b * b)) <= math.exp(-rate * t)

    assert report.verdict and report.details["crossover_found"]
    assert holds(report.measured_constant)
    step = report.details["conservative_horizon"] * 20.0 / 399
    assert not holds(report.measured_constant + step)


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


@pytest.mark.parametrize("gamma", [0.3, 0.5, 0.9, 1.0])
def test_phase_fd_constants_match_pointwise_stencil(gamma):
    # All sample points per stencil evaluation, bit for bit what one point
    # at a time gives.
    assert _phase_fd_constants(gamma) == pointwise_phase_fd_constants(gamma)


@pytest.mark.parametrize("gamma, calls", [(0.5, 290), (1.0, 291)])
def test_phase_bounds_phase_budget(monkeypatch, gamma, calls):
    # One call for the lower-bound sweep, 289 for the nine derivative
    # constants (17 x 17 stencil evaluations over all points at once) and,
    # at gamma = 1, one for the aligned cone.  One point at a time made 5 203.
    counted = [0]

    def phase(xi, eta, g):
        counted[0] += 1
        return dissipation_phase(xi, eta, g)

    monkeypatch.setattr(inequalities, "dissipation_phase", phase)
    check_phase_bounds(gamma)
    assert counted[0] == calls


# -- trilinear estimates ---------------------------------------------------------


@pytest.mark.parametrize(
    "regime", ["random", "low_g_high_f", "high_g_low_f", "diagonal", "localized"]
)
def test_trilinear_regimes(regime):
    # 128^2 holds every regime's transported fields in its dealias block.
    report = check_trilinear_bounds(grid=GridSpec(128), regime=regime, n_samples=3)
    assert report.verdict, report.details
    assert report.details["growth"] <= report.details["growth_limit"]


def transported_supports(grid, regime, j):
    """The support tables of the fields ``check_trilinear_bounds`` puts
    through the transport at block ``j``, from the samplers' profiles."""
    k_abs = grid_arrays(grid).k_abs
    if regime == "random":
        return [(k_abs > 0.0) & (k_abs <= grid.dealias_radius / 2.0)]
    if regime == "localized":
        return [(k_abs > 0.0) & (k_abs <= 2.0 ** j)]
    if regime == "diagonal":
        return [block_symbol(grid, j) != 0.0]
    return [block_symbol(grid, j) != 0.0, low_pass_symbol(grid, j - 2) != 0.0]


@pytest.mark.parametrize("period, fraction", [(2.0 * math.pi, 2.0 / 3.0), (3.0, 0.5),
                                              (10.0, 0.9), (2.0 * math.pi, 1.0)],
                         ids=["2pi-2/3", "3-1/2", "10-0.9", "2pi-1"])
def test_trilinear_grid_check_reads_the_samplers_supports(period, fraction):
    # A grid is refused exactly when some transported support has a mode
    # outside the dealias block's box, and the error names the smallest grid
    # that holds them all: read off the supports, with no draw.
    grids = range(8, 132, 2)
    for regime in inequalities.TRILINEAR_REGIMES:
        refused = {}
        for n in grids:
            grid = GridSpec(n, period, fraction)
            top, bottom, width = _support_box(grid_arrays(grid).dealias_mask)
            leaves = any(table[:, width:].any() or table[top : n - bottom].any()
                         for j in inequalities.TRILINEAR_J_VALUES
                         for table in transported_supports(grid, regime, j))
            try:
                inequalities._check_trilinear_grid(grid, regime)
            except UsageError as exc:
                refused[n] = str(exc)
            assert leaves == (n in refused), (regime, n)
        smallest = {int(message.rsplit(" ", 1)[1]) for message in refused.values()}
        assert len(smallest) <= 1
        for n, message in refused.items():
            assert message.startswith(f"grid {n} is too small for the {regime} regime")
        # Every grid from the smallest on holds the regime, none below it.
        stop = min(smallest | {grids.stop}) if refused else grids.start
        assert list(refused) == list(range(grids.start, stop, 2))


def test_trilinear_rejects_gamma_one():
    with pytest.raises(UsageError):
        check_trilinear_bounds(grid=GRID, gamma=1.0)


def test_trilinear_rejects_unknown_regime():
    with pytest.raises(UsageError):
        check_trilinear_bounds(grid=GRID, regime="sideways")


# -- sample counts -------------------------------------------------------------


@pytest.mark.parametrize("check", [
    check_heat_decay, check_lq_semigroup_decay, check_coercivity,
    check_sign_integral, check_max_point, check_gagliardo_equivalence,
    check_trilinear_bounds,
])
def test_sampled_checks_reject_zero_samples(check):
    # A sweep over no sample measures nothing; it must not pass vacuously.
    with pytest.raises(UsageError, match="n_samples"):
        check(n_samples=0)


# -- regression pin ------------------------------------------------------------

# measured_constant of each block sweep at its CLI defaults (128^2 grid,
# default seeds), to the bit.  The earlier per-quantity complex-FFT sweeps
# read coercivity_q two ulps lower (0.9076379728499409) and max_point_bound
# one ulp lower (0.7627159566438645).
PINNED_DEFAULTS = {
    "heat_decay": (check_heat_decay, 0.8324015352423284),
    "coercivity_q": (check_coercivity, 0.9076379728499411),
    "sign_integral_q1": (check_sign_integral, 0.888913574946089),
    "max_point_bound": (check_max_point, 0.7627159566438646),
    "lq_semigroup_decay": (check_lq_semigroup_decay, 0.8705754337673036),
}


@pytest.mark.parametrize("lemma_id", sorted(PINNED_DEFAULTS))
def test_block_sweeps_reproduce_pinned_defaults(lemma_id):
    check, pinned = PINNED_DEFAULTS[lemma_id]
    report = check()
    assert report.lemma_id == lemma_id
    assert report.parameters["j"] == (2 if lemma_id == "coercivity_q" else 3)
    assert report.verdict
    # Exact: the sweeps' samples, transforms and norms reproduce these bytes.
    assert report.measured_constant == pinned


# measured_constant of the other sound checks at their CLI defaults
# (phase_lower_bound at gamma 0.5), as read while their tolerances, grids
# and windows were still keyword settings.
PINNED_OTHER_DEFAULTS = {
    "gagliardo_equiv": (check_gagliardo_equivalence, 1.747897906352354),
    "phase_lower_bound": (check_phase_bounds, 0.5880312055098539),
    "counterexample_gamma2": (counterexample_gamma2_q1, 4.412058705568059e-07),
    "bilinear_ratio": (check_trilinear_bounds, 0.00020248226473274512),
}


@pytest.mark.parametrize("lemma_id", sorted(PINNED_OTHER_DEFAULTS))
def test_other_checks_reproduce_pinned_defaults(lemma_id):
    check, pinned = PINNED_OTHER_DEFAULTS[lemma_id]
    report = check()
    assert report.lemma_id == lemma_id
    assert report.verdict
    assert report.measured_constant == pytest.approx(pinned, rel=1e-12)


# The report fields that each check's fixed settings feed, with keyword
# arguments that keep the call short; the sample count does not move them.
PINNED_FIELDS = {
    "heat_decay": (check_heat_decay, {"n_samples": 1},
                   {"parameters.tau_grid": [0.25, 0.5, 1.0, 2.0]}),
    "coercivity_q": (check_coercivity, {"n_samples": 1}, {"details.slack": 1e-6}),
    "ab_pointwise": (check_ab_inequality, {"n_samples": 4000},
                     {"details.slack": 1e-12}),
    "gagliardo_equiv": (check_gagliardo_equivalence, {"n_samples": 1},
                        {"details.window": 10.0, "theoretical_bound": 10.0,
                         "parameters.n": 4096, "parameters.period": 64.0 * math.pi}),
    "phase_lower_bound": (check_phase_bounds, {},
                          {"details.infimum_floor": 0.01, "details.cone_tol": 1e-3,
                           "n_samples": 40 * 12 * 48}),
    "counterexample_gamma2": (counterexample_gamma2_q1, {},
                              {"parameters.envelope_mode": 1,
                               "details.zero_tol": 1e-6,
                               "details.positive_threshold": 0.01}),
    "bilinear_ratio": (check_trilinear_bounds, {"n_samples": 1},
                       {"parameters.t": 0.0, "details.growth_limit": 20.0}),
}


@pytest.mark.parametrize("lemma_id", sorted(PINNED_FIELDS))
def test_reports_record_pinned_settings(lemma_id):
    check, kwargs, pinned = PINNED_FIELDS[lemma_id]
    report = check(**kwargs).to_dict()
    for path, value in pinned.items():
        found = report
        for key in path.split("."):
            found = found[key]
        assert found == value, path


# -- the block-sweep engine ----------------------------------------------------

# At 128^2: block 3's box is 19 rows by 10 columns, block 5's 75 by 38, and
# blocks 6 and 7 fill the half spectrum; block 7 has no mode on row 0, which
# the box keeps.  At 16^2 block 3 fills it too.
@pytest.mark.parametrize("n, j, rows, width", [
    (128, 0, 3, 2), (128, 3, 19, 10), (128, 5, 75, 38), (128, 6, 128, 65),
    (128, 7, 128, 65), (16, 3, 16, 9),
])
def test_support_box_holds_the_block(n, j, rows, width):
    table = block_symbol(GridSpec(n), j)
    top, bottom, w = _support_box(table)
    assert (top + bottom, w) == (rows, width)
    outside = np.ones(table.shape, bool)
    outside[:top, :w] = outside[n - bottom :, :w] = False
    assert not table[outside].any()


#: The five checks whose statistics run through ``_block_sweep``.
SWEEP_CHECKS = {
    "heat_decay": check_heat_decay,
    "lq_semigroup_decay": check_lq_semigroup_decay,
    "coercivity_q": check_coercivity,
    "sign_integral_q1": check_sign_integral,
    "max_point_bound": check_max_point,
}

#: (grid n, j): the default block, blocks 5-7 at 128^2, block 3 at 16^2,
#: whose box is the whole half spectrum, and j_min = 0 at 128^2.  heat_decay
#: sweeps j, j + 1 and j + 2, so it takes j = 5 for blocks 5-7 and j = 1 for
#: block 3 at 16^2.
SWEEP_CASES = [(128, None), (128, 5), (128, 6), (128, 7), (16, 3), (128, 0)]


def _sweep_cases():
    for lemma_id in sorted(SWEEP_CHECKS):
        for n, j in SWEEP_CASES:
            if lemma_id == "heat_decay":
                if j in (6, 7):
                    continue
                j = 1 if n == 16 else j
            yield lemma_id, n, j


@pytest.mark.parametrize("lemma_id, n, j", list(_sweep_cases()))
def test_block_sweep_matches_the_oracle(monkeypatch, lemma_id, n, j):
    # Every _block_sweep call also runs the oracle, on a copy of its
    # generator: the same minima, and witnesses with the same bytes.
    pairs = []

    def both(grid, block, ops, statistic, n_samples, rng):
        want = block_sweep_oracle(grid, block, ops, statistic, n_samples,
                                  copy.deepcopy(rng))
        got = _block_sweep(grid, block, ops, statistic, n_samples, rng)
        pairs.append((got, want))
        return got

    monkeypatch.setattr(inequalities, "_block_sweep", both)
    kwargs = {"grid": GridSpec(n), "n_samples": 5}
    if j is not None:
        kwargs["j"] = j
    SWEEP_CHECKS[lemma_id](**kwargs)
    assert pairs
    for got, want in pairs:
        assert got.keys() == want.keys()
        for name, (value, field) in got.items():
            assert value == want[name][0], name
            assert field_to_bytes(field) == field_to_bytes(want[name][1]), name


def test_block_sweep_transform_budget(count_transforms):
    # One inverse transform per row of the operator stack and sample; the
    # coercivity sweep adds one analyze call, two transforms, per sample.
    grid = GridSpec(128)
    kg = k_power(grid, 0.5)
    ops = _operator_stack([np.exp(-t * kg) for t in (0.1, 0.2, 0.4)])
    _, transforms = count_transforms(
        _block_sweep, grid, 3, ops, lambda stack: {"x": float(stack[0, 0, 0])}, 7,
        np.random.default_rng(0))
    assert transforms == 4 * 7
    _, transforms = count_transforms(check_coercivity, n_samples=6)
    assert transforms == 2 * 6 + 2 * 6


def test_block_sweep_memory_does_not_grow_with_samples():
    def peak(n_samples):
        tracemalloc.start()
        try:
            _decay_sweep(GridSpec(128), 3, 0.5, math.inf, n_samples,
                         np.random.default_rng(0))
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(2)  # builds the per-grid caches outside the measured runs
    short, long = peak(20), peak(200)
    assert long <= 1.2 * short, (short / 2**20, long / 2**20)


@pytest.mark.parametrize("n_samples", [1, 6])
def test_block_sweep_leaves_the_generator_where_sequential_draws_do(n_samples):
    # heat_decay runs three sweeps on one generator: a draw made ahead past
    # the last sample would move every later sweep.
    grid = GridSpec(32)
    rng = np.random.default_rng(11)
    twin = copy.deepcopy(rng)
    ops = _operator_stack([k_power(grid, 0.5)])
    _block_sweep(grid, 2, ops, lambda stack: {"x": float(stack[1, 0, 0])}, n_samples, rng)
    buffers = _block_buffers(grid, 2)
    for _ in range(n_samples):
        draw_coeffs(buffers, twin)
    assert rng.bit_generator.state == twin.bit_generator.state


def test_a_statistic_that_raises_mid_sweep_joins_the_draw_helper():
    grid = GridSpec(32)
    ops = _operator_stack([np.exp(-0.1 * k_power(grid, 0.5))])
    calls = []

    def statistic(stack):
        calls.append(None)
        cooled = np.zeros_like(stack) if len(calls) == 3 else stack
        return {"c": _decay_rate(cooled, 2.0, [0.1], 1.0, grid.cell_area)}

    before = threading.active_count()
    with pytest.raises(UsageError, match="degenerate sample"):
        _block_sweep(grid, 2, ops, statistic, 10, np.random.default_rng(0))
    assert len(calls) == 3
    assert threading.active_count() == before


@pytest.mark.parametrize("check", [check_sign_integral, check_coercivity])
def test_a_block_sweep_leaves_no_reference_cycle(check):
    # The draw-ahead helper, its thread and its queues must go with the
    # sweep, not wait in a reference cycle for the collector: a thread
    # whose target held the helper would make one until it ran.
    check(n_samples=20)
    gc.collect()
    gc.disable()
    try:
        check(n_samples=20)
        assert gc.collect() == 0
    finally:
        gc.enable()
