"""Dyadic layer: partitions, Besov norms, paraproducts, weighted operators."""

import math

import numpy as np
import pytest

from sqglab.dyadic import (
    BilinearSymbol,
    DyadicPartition,
    apply_bilinear_symbol,
    besov_norm,
    block_commutator,
    block_power_weights,
    half_besov_norm,
    default_partition,
    paraproduct_decompose,
    project_block,
    project_low,
    trilinear_form,
)
from sqglab.errors import OverflowGuardError, UsageError
from sqglab.spectral import (
    GridSpec,
    MultiplierSpec,
    SpectralField,
    forward_transform,
    half_power,
    inverse_transform,
    sobolev_norm,
)

from oracles import besov_sample_oracle

GRID = GridSpec(64)


def random_field(grid, rng):
    return forward_transform(rng.standard_normal((grid.n, grid.n)), grid)


def single_mode(grid, k1, k2):
    x = grid.axis_points()
    xx, yy = np.meshgrid(x, x, indexing="ij")
    s = grid.freq_scale
    return forward_transform(np.cos(s * (k1 * xx + k2 * yy)), grid)


def test_partition_indices_unit_period_scale():
    part = DyadicPartition.for_grid(GridSpec(128))
    assert part.j_min == 0
    assert part.j_max == 7  # corner at 64 sqrt(2) ~ 90.5
    assert part.j_max_verified == 5
    assert DyadicPartition.for_grid(GridSpec(256)).j_max_verified == 6


def test_partition_scales_with_period():
    # period 2pi/32 multiplies every physical frequency by 32
    part = DyadicPartition.for_grid(GridSpec(256, period=2.0 * math.pi / 32.0))
    assert part.j_min == 5  # lowest frequency is 32
    assert part.j_max_verified == 11


def test_telescoping_partition_of_unity():
    for grid in (GRID, GridSpec(128), GridSpec(96, period=0.7)):
        part = default_partition(grid)
        total = MultiplierSpec.low_pass(part.j_min - 1).symbol_on(grid).copy()
        for j in part.block_indices():
            total = total + MultiplierSpec.block(j).symbol_on(grid)
        assert np.max(np.abs(total - 1.0)) < 1e-12


def test_low_pass_recursion(rng):
    field = random_field(GRID, rng)
    for j in (1, 3, 5):
        lhs = project_low(field, j).coeffs
        rhs = project_low(field, j - 1).coeffs + project_block(field, j).coeffs
        assert np.max(np.abs(lhs - rhs)) < 1e-13


def test_blocks_two_apart_are_disjoint(rng):
    field = random_field(GRID, rng)
    a = project_block(field, 2).coeffs
    b = project_block(field, 4).coeffs
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
    # p = q = 2 with the block weights comparable to |k|^s
    field = random_field(GRID, rng)
    b = besov_norm(field, 0.5, 2.0, 2.0, homogeneous=True)
    h = sobolev_norm(field, 0.5, homogeneous=True)
    assert 0.6 < b / h < 1.5


@pytest.mark.parametrize("n, period", [
    (64, 3.0), (128, 3.0),
    (64, 2.0 * math.pi),  # j_min = 0: block 0 sits under the low-pass term
    (64, 1.0),            # j_min = 3: blocks 1 and 2 are empty
])
@pytest.mark.parametrize("p", [2.0, 1.0, 4.0, math.inf])
@pytest.mark.parametrize("q", [1.0, 2.0, math.inf])
@pytest.mark.parametrize("homogeneous", [False, True])
def test_besov_norm_matches_sample_oracle(n, period, p, q, homogeneous, rng):
    grid = GridSpec(n, period=period)
    # white noise: every block and the mean carry data
    field = random_field(grid, rng)
    for s in (-0.5, 0.05, 1.5):
        want = besov_sample_oracle(field, s, p, q, homogeneous)
        got = besov_norm(field, s, p, q, homogeneous=homogeneous)
        assert got == pytest.approx(want, rel=1e-12)


def test_besov_p2_skips_empty_blocks_of_an_overflowed_power(rng):
    # A Gevrey-weighted power can pass double range at a few modes while
    # under the exponent cap; blocks that do not reach those modes stay
    # finite, and no 0 * inf turns into NaN.
    grid = GridSpec(64)
    part = default_partition(grid)
    field = random_field(grid, rng)
    power = half_power(grid, field.coeffs)
    power[0, 2] = np.inf  # |k| = 2: blocks 1 and 2 only
    assert half_besov_norm(part, field.coeffs, 0.5, 2.0, 2.0, power=power) == math.inf
    sup_all = half_besov_norm(part, field.coeffs, 0.5, 2.0, math.inf,
                              homogeneous=True, power=power)
    assert sup_all == math.inf
    # the homogeneous sup over the blocks above |k| = 2 * 7/6 is finite
    part_hi = DyadicPartition(grid, 3, part.j_max)
    high = half_besov_norm(part_hi, field.coeffs, 0.5, 2.0, math.inf,
                           homogeneous=True, power=power)
    assert math.isfinite(high)
    assert high == pytest.approx(
        besov_sample_oracle(field, 0.5, 2.0, math.inf, True, part_hi), rel=1e-12
    )


def test_block_power_weights_read_only_and_square_the_profiles():
    grid = GridSpec(64, period=3.0)
    part = default_partition(grid)
    stack = block_power_weights(part)
    assert not stack.flags.writeable
    assert len(stack) == len(part.block_indices()) + 1
    m = grid.n // 2 + 1
    j = part.j_max - 1
    block = MultiplierSpec.block(j).symbol_on(grid)[:, :m]
    assert np.array_equal(stack[j - part.j_min], block**2)
    low = MultiplierSpec.low_pass(0).symbol_on(grid)[:, :m]
    assert np.array_equal(stack[-1], low**2)


def test_besov_rejects_bad_q(rng):
    with pytest.raises(UsageError):
        besov_norm(random_field(GRID, rng), 0.5, 2.0, 0.5)


def test_paraproduct_reconstructs_product(rng):
    f = random_field(GRID, rng)
    g = random_field(GRID, rng)
    parts = paraproduct_decompose(f, g)
    prod = inverse_transform(f) * inverse_transform(g)
    expected = forward_transform(prod, GRID).coeffs
    mask = MultiplierSpec.low_pass(100).symbol_on(GRID)  # identity; no clipping
    from sqglab.spectral import grid_arrays

    expected = expected * grid_arrays(GRID).dealias_mask
    got = parts.total().coeffs
    assert np.max(np.abs(got - expected)) < 1e-12 * np.max(np.abs(expected))
    assert mask.shape == got.shape


def test_paraproduct_separated_supports(rng):
    # f only in block 5, g only below block 2: the g-high-f-low part vanishes
    f = project_block(random_field(GRID, rng), 5)
    g = project_low(random_field(GRID, rng), 2)
    parts = paraproduct_decompose(f, g)
    assert np.max(np.abs(parts.low_high.coeffs)) < 1e-14
    total = parts.total().coeffs
    prod = inverse_transform(f) * inverse_transform(g)
    from sqglab.spectral import grid_arrays

    expected = forward_transform(prod, GRID).coeffs * grid_arrays(GRID).dealias_mask
    assert np.max(np.abs(total - expected)) < 1e-12 * max(np.max(np.abs(expected)), 1e-30)


def test_paraproduct_needs_matching_grids(rng):
    with pytest.raises(UsageError):
        paraproduct_decompose(random_field(GRID, rng), random_field(GridSpec(32), rng))


def test_bilinear_identity_symbol_is_convolution(rng):
    # band-limited inputs: direct double sum == FFT product, no aliasing
    mask8 = MultiplierSpec.low_pass(3).symbol_on(GRID)
    f = SpectralField(GRID, random_field(GRID, rng).coeffs * mask8)
    g = SpectralField(GRID, random_field(GRID, rng).coeffs * mask8)
    direct = apply_bilinear_symbol(BilinearSymbol.one(), f, g)
    fft_prod = forward_transform(
        inverse_transform(f) * inverse_transform(g), GRID
    ).coeffs
    assert np.max(np.abs(direct.coeffs - fft_prod)) < 1e-12


def test_bilinear_band_restriction(rng):
    mask = MultiplierSpec.low_pass(3).symbol_on(GRID)
    f = SpectralField(GRID, random_field(GRID, rng).coeffs * mask)
    g = SpectralField(GRID, random_field(GRID, rng).coeffs * mask)
    sym = BilinearSymbol(lambda xi, eta: np.ones(xi.shape[:-1]), xi_band=(0.0, 2.0))
    restricted = apply_bilinear_symbol(sym, f, g)
    f_low = SpectralField(GRID, np.where(_kabs(GRID) <= 2.0, f.coeffs, 0.0))
    direct = apply_bilinear_symbol(BilinearSymbol.one(), f_low, g)
    assert np.max(np.abs(restricted.coeffs - direct.coeffs)) < 1e-13


def _kabs(grid):
    from sqglab.spectral import grid_arrays

    return grid_arrays(grid).k_abs


def test_bilinear_pair_guard(rng):
    big = GridSpec(128)
    f = random_field(big, rng)
    g = random_field(big, rng)
    with pytest.raises(UsageError):
        apply_bilinear_symbol(BilinearSymbol.one(), f, g)


def test_dissipation_phase_values():
    sym = BilinearSymbol.dissipation_phase(0.5)
    xi = np.array([[3.0, 4.0]])
    # eta = -xi: |xi|^g + |xi|^g - 0 = 2 |xi|^g
    assert sym.fn(xi, -xi)[0] == pytest.approx(2.0 * 5.0**0.5)
    # eta = xi: (2 - 2^g) |xi|^g
    assert sym.fn(xi, xi)[0] == pytest.approx((2.0 - 2.0**0.5) * 5.0**0.5)


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
    g = SpectralField(GRID, np.zeros((64, 64), dtype=complex))
    c = g.coeffs.copy()
    c[0, 0] = 2.5
    g = g.with_coeffs(c)
    f = random_field(GRID, rng)
    assert trilinear_form(g, f, f, 0.0, 0.5) == 0.0


def test_trilinear_antisymmetry_unweighted(rng):
    # integral (u . grad f) f dx = 0 for divergence-free u, s = 0, t = 0.
    # Inputs must sit inside the dealias radius so the projected product is
    # the exact one (2/3 rule); otherwise aliasing spoils the cancellation.
    from sqglab.spectral import grid_arrays

    mask = grid_arrays(GRID).dealias_mask
    g = SpectralField(GRID, random_field(GRID, rng).coeffs * mask)
    f = SpectralField(GRID, random_field(GRID, rng).coeffs * mask)
    scale = abs(trilinear_form(g, f, f, 0.0, 0.5, s=1.0))
    value = trilinear_form(g, f, f, 0.0, 0.5, s=0.0)
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


def test_export_profile(tmp_path):
    part = default_partition(GRID)
    path = tmp_path / "profile.csv"
    part.export_profile(str(path), n_points=64)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "r,low_pass,band"
    assert len(lines) == 65
