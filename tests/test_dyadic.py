"""Dyadic layer: partitions, Besov norms, weighted operators, and the
FFT-free bilinear oracle the transport is checked against."""

import math

import numpy as np
import pytest

from sqglab.dyadic import (
    DyadicPartition,
    _besov_sum,
    _block_l2_norms,
    _RowCore,
    besov_norm,
    block_commutator,
    block_power_weights,
    default_partition,
    trilinear_form,
)
from sqglab.errors import OverflowGuardError, UsageError
from sqglab.inequalities import dissipation_phase
from sqglab.spectral import (
    GridSpec,
    SpectralField,
    block_symbol,
    forward_transform,
    grid_arrays,
    half_power,
    low_pass_symbol,
    sobolev_norm,
)

from oracles import (
    BilinearSymbol,
    apply_bilinear_symbol,
    besov_sample_oracle,
    complex_samples,
    full,
    full_lattice,
)

GRID = GridSpec(64)


def random_field(grid, rng):
    return forward_transform(rng.standard_normal((grid.n, grid.n)), grid)


def single_mode(grid, k1, k2):
    x = grid.axis_points()
    xx, yy = np.meshgrid(x, x, indexing="ij")
    s = grid.freq_scale
    return forward_transform(np.cos(s * (k1 * xx + k2 * yy)), grid)


def test_partition_indices_unit_period_scale():
    part = default_partition(GridSpec(128))
    assert part.j_min == 0
    assert part.j_max == 7  # corner at 64 sqrt(2) ~ 90.5
    assert part.j_max_verified == 5
    assert default_partition(GridSpec(256)).j_max_verified == 6


def test_partition_scales_with_period():
    # period 2pi/32 multiplies every physical frequency by 32
    part = default_partition(GridSpec(256, period=2.0 * math.pi / 32.0))
    assert part.j_min == 5  # lowest frequency is 32
    assert part.j_max_verified == 11


def test_telescoping_partition_of_unity():
    for grid in (GRID, GridSpec(128), GridSpec(96, period=0.7)):
        part = default_partition(grid)
        total = low_pass_symbol(grid, part.j_min - 1).copy()
        for j in part.block_indices():
            total = total + block_symbol(grid, j)
        assert np.max(np.abs(total - 1.0)) < 1e-12


def test_low_pass_recursion(rng):
    field = random_field(GRID, rng)
    for j in (1, 3, 5):
        lhs = field.coeffs * low_pass_symbol(GRID, j)
        low = field.coeffs * low_pass_symbol(GRID, j - 1)
        rhs = low + field.coeffs * block_symbol(GRID, j)
        assert np.max(np.abs(lhs - rhs)) < 1e-13


def test_blocks_two_apart_are_disjoint(rng):
    field = random_field(GRID, rng)
    a = field.coeffs * block_symbol(GRID, 2)
    b = field.coeffs * block_symbol(GRID, 4)
    assert np.max(np.abs(a) * np.abs(b)) == 0.0


def test_besov_single_block_mode():
    # |k| = 4 sits where the j=2 profile is 1 and every other block vanishes
    field = single_mode(GRID, 4, 0)
    l2 = sobolev_norm(field, 0.0)
    for q in (1.0, 2.0, math.inf):
        assert besov_norm(field, 1.5, 2.0, q) == pytest.approx(
            2.0 ** (2 * 1.5) * l2, rel=1e-12
        )


def test_besov_q_monotonicity(rng):
    field = random_field(GRID, rng)
    norms = [besov_norm(field, 0.5, 2.0, q) for q in (1.0, 2.0, math.inf)]
    assert norms[0] >= norms[1] >= norms[2]


def test_besov_matches_sobolev_at_p2(rng):
    # p = q = 2 with the block weights comparable to (1 + |k|^2)^(s/2)
    field = random_field(GRID, rng)
    b = besov_norm(field, 0.5, 2.0, 2.0)
    h = sobolev_norm(field, 0.5)
    assert 0.6 < b / h < 1.5


@pytest.mark.parametrize("n, period", [
    (64, 3.0), (128, 3.0),
    (64, 2.0 * math.pi),  # j_min = 0: block 0 sits under the low-pass term
    (64, 1.0),            # j_min = 3: blocks 1 and 2 are empty
])
@pytest.mark.parametrize("p", [2.0, 1.0, 4.0, math.inf])
@pytest.mark.parametrize("q", [1.0, 2.0, math.inf])
@pytest.mark.parametrize("from_row", [False, True])
def test_besov_norm_matches_sample_oracle(n, period, p, q, from_row, rng):
    grid = GridSpec(n, period=period)
    # white noise: every block and the mean carry data
    field = random_field(grid, rng)
    # A diagnostics row takes its Besov columns from its row core: at p = 2
    # from the block sums of its table product (here of the unweighted
    # power, column 0), else from the synthesized blocks of its state.
    core = _RowCore(grid, 1.0, (), (1.0,))
    sums = core.row(field.coeffs, 0.0)
    for s in (-0.5, 0.05, 1.5):
        want = besov_sample_oracle(field, s, p, q)
        if from_row:
            got = core.besov(sums, 0, s, p, q)
        else:
            got = besov_norm(field, s, p, q)
        assert got == pytest.approx(want, rel=1e-12)


def besov_of_power(part, power, s, q):
    """The p = 2 Besov norm from a power array, through the block sums."""
    norms = _block_l2_norms(part, power)[max(1, part.j_min) - part.j_min :]
    return _besov_sum(part, norms, s, q)


def test_besov_p2_skips_empty_blocks_of_an_overflowed_power(rng):
    # A Gevrey-weighted power can pass double range at a few modes while
    # under the exponent cap; blocks that do not reach those modes stay
    # finite, and no 0 * inf turns into NaN.
    grid = GridSpec(64)
    part = default_partition(grid)
    field = random_field(grid, rng)
    power = half_power(grid, field.coeffs)
    power[32, 32] = np.inf  # the corner, |k| = 32 sqrt(2): block 6 only
    assert part.j_max == 6
    assert besov_of_power(part, power, 0.5, 2.0) == math.inf
    sup_all = besov_of_power(part, power, 0.5, math.inf)
    assert sup_all == math.inf
    # the norm over the blocks below |k| = 32 sqrt(2) is finite
    part_lo = DyadicPartition(grid, part.j_min, 5)
    low = besov_of_power(part_lo, power, 0.5, math.inf)
    assert math.isfinite(low)
    assert low == pytest.approx(
        besov_sample_oracle(field, 0.5, 2.0, math.inf, part_lo), rel=1e-12
    )


def test_block_power_weights_read_only_and_square_the_profiles():
    grid = GridSpec(64, period=3.0)
    part = default_partition(grid)
    stack = block_power_weights(part)
    assert not stack.flags.writeable
    assert len(stack) == len(part.block_indices()) + 1
    j = part.j_max - 1
    block = block_symbol(grid, j)
    assert np.array_equal(stack[j - part.j_min], block**2)
    low = low_pass_symbol(grid, 0)
    assert np.array_equal(stack[-1], low**2)


def test_besov_rejects_bad_q(rng):
    with pytest.raises(UsageError):
        besov_norm(random_field(GRID, rng), 0.5, 2.0, 0.5)


def test_bilinear_identity_symbol_is_convolution(rng):
    # band-limited inputs: direct double sum == FFT product, no aliasing
    mask8 = low_pass_symbol(GRID, 3)
    f = SpectralField(GRID, random_field(GRID, rng).coeffs * mask8)
    g = SpectralField(GRID, random_field(GRID, rng).coeffs * mask8)
    direct = apply_bilinear_symbol(BilinearSymbol.one(), f, g)
    fft_prod = np.fft.fft2(complex_samples(full(f)) * complex_samples(full(g))) / GRID.n**2
    assert np.max(np.abs(direct.coeffs - fft_prod[:, : GRID.n // 2 + 1])) < 1e-12


def test_bilinear_sum_must_be_a_real_field(rng):
    # An odd real symbol turns two real fields into an imaginary one, which
    # no half spectrum holds: refused instead of half kept.
    mask = low_pass_symbol(GRID, 3)
    f = SpectralField(GRID, random_field(GRID, rng).coeffs * mask)
    g = SpectralField(GRID, random_field(GRID, rng).coeffs * mask)
    odd = BilinearSymbol(lambda xi, eta: xi[..., 0] + 0.5 * eta[..., 1])
    with pytest.raises(UsageError, match="conjugate-symmetric"):
        apply_bilinear_symbol(odd, f, g)
    # i times an odd symbol is a real-field product: i k . the gradient
    grad = BilinearSymbol(lambda xi, eta: 1j * eta[..., 0])
    got = apply_bilinear_symbol(grad, f, g)
    ga = full_lattice(GRID)
    want = np.fft.fft2(complex_samples(full(f)) * complex_samples(1j * ga.k1 * full(g)))
    want = want[:, : GRID.n // 2 + 1] / GRID.n**2
    assert np.max(np.abs(got.coeffs - want)) < 1e-12 * np.max(np.abs(want))


def test_bilinear_band_restriction(rng):
    # A symbol that is the indicator of |xi| <= 2 sums f's modes in that band.
    mask = low_pass_symbol(GRID, 3)
    f = SpectralField(GRID, random_field(GRID, rng).coeffs * mask)
    g = SpectralField(GRID, random_field(GRID, rng).coeffs * mask)
    sym = BilinearSymbol(lambda xi, eta: (np.hypot(xi[..., 0], xi[..., 1]) <= 2.0) * 1.0)
    restricted = apply_bilinear_symbol(sym, f, g)
    f_low = SpectralField(GRID, np.where(_kabs(GRID) <= 2.0, f.coeffs, 0.0))
    direct = apply_bilinear_symbol(BilinearSymbol.one(), f_low, g)
    assert np.max(np.abs(restricted.coeffs - direct.coeffs)) < 1e-13


def _kabs(grid):
    return grid_arrays(grid).k_abs


def test_bilinear_pair_guard(rng):
    big = GridSpec(128)
    f = random_field(big, rng)
    g = random_field(big, rng)
    with pytest.raises(UsageError):
        apply_bilinear_symbol(BilinearSymbol.one(), f, g)


def test_dissipation_phase_values():
    xi = np.array([[3.0, 4.0]])
    # eta = -xi: |xi|^g + |xi|^g - 0 = 2 |xi|^g
    assert dissipation_phase(xi, -xi, 0.5)[0] == pytest.approx(2.0 * 5.0**0.5)
    # eta = xi: (2 - 2^g) |xi|^g
    assert dissipation_phase(xi, xi, 0.5)[0] == pytest.approx((2.0 - 2.0**0.5) * 5.0**0.5)


def test_commutator_vanishes_on_self_advection():
    # a single mode advects itself trivially, so both terms are zero
    field = single_mode(GRID, 3, 2)
    out = block_commutator(field, field, 2, 0.1, 0.5)
    assert np.max(np.abs(out.coeffs)) < 1e-13


def test_commutator_is_linear_in_transported_field(rng):
    f = random_field(GRID, rng)
    g1 = random_field(GRID, rng)
    g2 = random_field(GRID, rng)
    combo = SpectralField(GRID, 2.0 * g1.coeffs - 3.0 * g2.coeffs)
    lhs = block_commutator(f, combo, 3, 0.05, 0.5).coeffs
    rhs = (
        2.0 * block_commutator(f, g1, 3, 0.05, 0.5).coeffs
        - 3.0 * block_commutator(f, g2, 3, 0.05, 0.5).coeffs
    )
    assert np.max(np.abs(lhs - rhs)) < 1e-10 * max(np.max(np.abs(rhs)), 1e-30)


def test_commutator_weight_guard(rng):
    f = random_field(GRID, rng)
    with pytest.raises(OverflowGuardError):
        block_commutator(f, f, 4, 1e4, 1.0)


def test_trilinear_zero_for_constant_first_slot(rng):
    g = SpectralField(GRID, np.zeros((64, 33), dtype=complex))
    c = g.coeffs.copy()
    c[0, 0] = 2.5
    g = g.with_coeffs(c)
    f = random_field(GRID, rng)
    assert trilinear_form(g, f, f, 0.0, 0.5) == 0.0


def test_trilinear_antisymmetry_unweighted(rng):
    # integral (u . grad f) f dx = 0 for divergence-free u at t = 0 and
    # s = 2 - gamma = 0, so gamma = 2.  Inputs must sit inside the dealias
    # radius so the projected product is the exact one (2/3 rule); otherwise
    # aliasing spoils the cancellation.
    mask = grid_arrays(GRID).dealias_mask
    g = SpectralField(GRID, random_field(GRID, rng).coeffs * mask)
    f = SpectralField(GRID, random_field(GRID, rng).coeffs * mask)
    scale = abs(trilinear_form(g, f, f, 0.0, 1.0))  # s = 1
    value = trilinear_form(g, f, f, 0.0, 2.0)
    assert abs(value) < 1e-10 * max(scale, 1.0)


def test_trilinear_linear_in_each_slot(rng):
    g = random_field(GRID, rng)
    f = random_field(GRID, rng)
    h = random_field(GRID, rng)
    base = trilinear_form(g, f, h, 0.1, 0.5)
    doubled = trilinear_form(g.with_coeffs(2.0 * g.coeffs), f, h, 0.1, 0.5)
    assert doubled == pytest.approx(2.0 * base, rel=1e-12)


def test_trilinear_rejects_negative_time(rng):
    f = random_field(GRID, rng)
    with pytest.raises(UsageError):
        trilinear_form(f, f, f, -0.1, 0.5)
