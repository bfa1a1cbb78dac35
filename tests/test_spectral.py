"""Transform layer: grids, multipliers, norms, field containers."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from sqglab.dyadic import BilinearSymbol, apply_bilinear_symbol
from sqglab.errors import OverflowGuardError, SymmetryError, UsageError
from sqglab.sampling import band_limited_field, gaussian_block_field, power_law_field
from sqglab.spectral import (
    GEVREY_EXPONENT_CAP,
    PROFILE_OUTER,
    GridSpec,
    MultiplierSpec,
    SpectralField,
    analyze,
    apply_multiplier,
    conjugate_flip,
    field_from_bytes,
    field_lp_norm,
    field_to_bytes,
    forward_transform,
    gevrey_half_weight,
    grid_arrays,
    half_power,
    hermitian_symmetrize,
    inverse_transform,
    k_power,
    load_field,
    lp_norm,
    parseval_columns,
    radial_profile,
    riesz_perp,
    save_field,
    sobolev_norm,
    sobolev_weights,
    synthesize,
    transport,
    weighted_norm,
)

from oracles import full_sobolev_norm

GRID = GridSpec(64)


def single_mode(grid: GridSpec, k1: int, k2: int, phase: float = 0.0) -> SpectralField:
    x = grid.axis_points()
    xx, yy = np.meshgrid(x, x, indexing="ij")
    s = grid.freq_scale
    return forward_transform(np.cos(s * (k1 * xx + k2 * yy) + phase), grid)


def random_field(grid: GridSpec, rng) -> SpectralField:
    return forward_transform(rng.standard_normal((grid.n, grid.n)), grid)


def test_grid_validation():
    with pytest.raises(UsageError):
        GridSpec(7)
    with pytest.raises(UsageError):
        GridSpec(64, period=-1.0)
    with pytest.raises(UsageError):
        GridSpec(64, dealias_fraction=1.5)


def test_grid_derived_quantities():
    g = GridSpec(128)
    assert g.freq_scale == pytest.approx(1.0)
    assert g.dealias_radius == pytest.approx(128.0 / 3.0)
    small = GridSpec(128, period=2.0 * math.pi / 32.0)
    assert small.freq_scale == pytest.approx(32.0)
    assert small.dealias_radius == pytest.approx(32.0 * 128.0 / 3.0)


def test_transform_roundtrip(rng):
    samples = rng.standard_normal((64, 64))
    field = forward_transform(samples, GRID)
    back = inverse_transform(field)
    assert np.max(np.abs(back - samples)) < 1e-13


def test_forward_rejects_bad_input(rng):
    with pytest.raises(UsageError):
        forward_transform(np.zeros((32, 64)), GRID)
    with pytest.raises(UsageError):
        forward_transform(np.zeros((64, 64), dtype=complex), GRID)


def test_inverse_rejects_asymmetric_coeffs():
    coeffs = np.zeros((64, 64), dtype=complex)
    coeffs[1, 2] = 1.0  # no conjugate partner
    with pytest.raises(SymmetryError):
        inverse_transform(SpectralField(GRID, coeffs))


def test_parseval(rng):
    samples = rng.standard_normal((64, 64))
    field = forward_transform(samples, GRID)
    physical = lp_norm(samples, 2.0, GRID.cell_area)
    spectral = GRID.period * math.sqrt(np.sum(np.abs(field.coeffs) ** 2))
    assert physical == pytest.approx(spectral, rel=1e-12)


@pytest.mark.parametrize("s", [0.25, 0.5, 1.0, 1.7])
def test_fractional_laplacian_eigenmode(s):
    # D^s cos(k.x) = |k|^s cos(k.x)
    field = single_mode(GRID, 3, 4)
    out = apply_multiplier(field, MultiplierSpec.fractional_laplacian(s))
    expected = field.coeffs * 5.0**s
    assert np.max(np.abs(out.coeffs - expected)) < 1e-12


def test_fractional_laplacian_composes():
    field = single_mode(GRID, 2, 7, phase=0.3)
    half = MultiplierSpec.fractional_laplacian(0.35)
    twice = apply_multiplier(apply_multiplier(field, half), half)
    once = apply_multiplier(field, MultiplierSpec.fractional_laplacian(0.7))
    assert np.max(np.abs(twice.coeffs - once.coeffs)) < 1e-12


def test_heat_multiplier_matches_scalar_decay():
    field = single_mode(GRID, 3, 4)
    out = apply_multiplier(field, MultiplierSpec.heat(0.7, 0.9, 0.5))
    factor = math.exp(-0.7 * 0.9 * 5.0**0.5)
    assert np.max(np.abs(out.coeffs - factor * field.coeffs)) < 1e-14


def test_heat_rejects_negative_time():
    with pytest.raises(UsageError):
        MultiplierSpec.heat(1.0, -0.1, 0.5)


def test_gevrey_inverts_heat():
    field = single_mode(GRID, 5, 1)
    cooled = apply_multiplier(field, MultiplierSpec.heat(1.0, 0.2, 1.0))
    warmed = apply_multiplier(cooled, MultiplierSpec.gevrey(1.0, 0.2, 1.0))
    assert np.max(np.abs(warmed.coeffs - field.coeffs)) < 1e-12


def test_gevrey_overflow_guard(rng):
    field = random_field(GRID, rng)
    # weight * t * kmax^gamma far beyond the cap on occupied modes
    t_bad = 2.0 * GEVREY_EXPONENT_CAP / GRID.dealias_radius
    with pytest.raises(OverflowGuardError):
        apply_multiplier(field, MultiplierSpec.gevrey(1.0, t_bad, 1.0))


def test_gevrey_guard_is_support_aware():
    # Only mode |k|=1 occupied: the cap check must use the occupied radius,
    # not the grid's maximum frequency.
    field = single_mode(GRID, 1, 0)
    t = 0.9 * GEVREY_EXPONENT_CAP  # exponent 0.9*cap at |k|=1
    out = apply_multiplier(field, MultiplierSpec.gevrey(1.0, t, 1.0))
    assert np.all(np.isfinite(out.coeffs))


def test_riesz_perp_is_divergence_free(rng):
    field = random_field(GRID, rng)
    u1, u2 = riesz_perp(field)
    ka = grid_arrays(GRID)
    div = ka.k1 * u1.coeffs + ka.k2 * u2.coeffs
    assert np.max(np.abs(div)) < 1e-12


def test_riesz_perp_on_single_mode():
    # theta = cos(k.x): R_j theta = -(k_j/|k|) sin(k.x), so
    # u = (-R_2, R_1) theta = (k2, -k1)/|k| * sin(k.x)
    field = single_mode(GRID, 3, 4)
    u1, u2 = riesz_perp(field)
    x = GRID.axis_points()
    xx, yy = np.meshgrid(x, x, indexing="ij")
    s = np.sin(3.0 * xx + 4.0 * yy)
    assert np.max(np.abs(inverse_transform(u1) - (4.0 / 5.0) * s)) < 1e-12
    assert np.max(np.abs(inverse_transform(u2) - (-3.0 / 5.0) * s)) < 1e-12


def test_riesz_zeroes_mean_and_nyquist(rng):
    field = random_field(GRID, rng)
    u1, u2 = riesz_perp(field)
    n2 = GRID.n // 2
    for u in (u1, u2):
        assert u.coeffs[0, 0] == 0.0
        assert np.max(np.abs(u.coeffs[n2, :])) == 0.0
        assert np.max(np.abs(u.coeffs[:, n2])) == 0.0


def band_limited(grid: GridSpec, rng, radius: float) -> np.ndarray:
    field = random_field(grid, rng)
    return field.coeffs * (grid_arrays(grid).k_abs <= radius)


def complex_fft_transport(grid: GridSpec, source: np.ndarray,
                          target: np.ndarray) -> np.ndarray:
    """dealias(R_perp source . grad target) with full complex FFTs."""
    n = grid.n
    ka = grid_arrays(grid)
    k1 = np.where(ka.nyquist, 0.0, ka.k1)
    k2 = np.where(ka.nyquist, 0.0, ka.k2)
    u1, u2 = riesz_perp(SpectralField(grid, source))

    def samples(c):
        return np.fft.ifft2(c).real * (n * n)

    prod = samples(u1.coeffs) * samples(1j * k1 * target)
    prod += samples(u2.coeffs) * samples(1j * k2 * target)
    out = np.fft.fft2(prod) / (n * n) * ka.dealias_mask
    out[0, 0] = 0.0
    return out


def test_transport_matches_direct_bilinear_sum(rng):
    def sigma(xi, eta):
        mag = np.sqrt(np.sum(xi * xi, axis=-1))
        cross = xi[..., 1] * eta[..., 0] - xi[..., 0] * eta[..., 1]
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.where(mag > 0.0, cross / mag, 0.0)

    # |xi|, |eta| <= 10, so every sum lies inside the dealias radius 64/3
    f = band_limited(GRID, rng, 10.0)
    g = band_limited(GRID, rng, 10.0)
    out, umax = transport(GRID, f, g)
    direct = apply_bilinear_symbol(
        BilinearSymbol(sigma), SpectralField(GRID, f), SpectralField(GRID, g)
    ).coeffs * grid_arrays(GRID).dealias_mask
    assert np.max(np.abs(out - direct)) <= 1e-12 * np.max(np.abs(direct))
    u1, u2 = riesz_perp(SpectralField(GRID, f))
    speed = np.hypot(inverse_transform(u1), inverse_transform(u2))
    assert umax == pytest.approx(float(np.max(speed)), rel=1e-12)


def test_transport_output_exactly_hermitian(rng):
    for n in (16, 64, 96):
        grid = GridSpec(n)
        f = random_field(grid, rng).coeffs
        g = random_field(grid, rng).coeffs
        out, _ = transport(grid, f, g)
        assert np.array_equal(out, conjugate_flip(out))
        assert out[0, 0] == 0.0


@pytest.mark.parametrize("n", [128, 256])
def test_transport_matches_complex_fft_formula(n, rng):
    grid = GridSpec(n)
    mask = grid_arrays(grid).dealias_mask
    f = random_field(grid, rng).coeffs * mask
    g = random_field(grid, rng).coeffs * mask
    out, _ = transport(grid, f, g)
    ref = complex_fft_transport(grid, f, g)
    assert np.max(np.abs(out - ref)) <= 1e-13 * np.max(np.abs(ref))


SAMPLERS = {
    "block": lambda grid, rng: gaussian_block_field(grid, 4, rng),
    "band_limited": lambda grid, rng: band_limited_field(grid, grid.n / 4.0, rng),
    "power_law": lambda grid, rng: power_law_field(grid, 1.5, rng),
}


@pytest.mark.parametrize("n", [128, 256])
@pytest.mark.parametrize("kind", sorted(SAMPLERS))
def test_synthesize_matches_inverse_transform(kind, n, rng):
    # Sampler output is exactly Hermitian, so the half spectrum loses
    # nothing the guarded full inverse transform would have checked.
    grid = GridSpec(n)
    field = SAMPLERS[kind](grid, rng)
    half = field.coeffs[:, : n // 2 + 1]
    ref = inverse_transform(field)
    scale = np.max(np.abs(ref))
    assert np.max(np.abs(synthesize(grid, half) - ref)) <= 1e-13 * scale
    stacked = synthesize(grid, np.stack([half, -2.0 * half]))
    assert stacked.shape == (2, n, n)
    assert np.max(np.abs(stacked[0] - ref)) <= 1e-13 * scale
    assert np.max(np.abs(stacked[1] + 2.0 * ref)) <= 2e-13 * scale


def test_analyze_is_half_of_forward_transform(rng):
    samples = rng.standard_normal((3, GRID.n, GRID.n))
    half = analyze(GRID, samples)
    assert half.shape == (3, GRID.n, GRID.n // 2 + 1)
    for got, s in zip(half, samples):
        ref = forward_transform(s, GRID).coeffs[:, : GRID.n // 2 + 1]
        assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))


@pytest.mark.parametrize("grid", [GridSpec(128), GridSpec(64, period=3.0)])
@pytest.mark.parametrize("r", [0.0, 0.25, 0.5, 1.0])
def test_half_spectrum_parseval_matches_sobolev_norm(grid, r, rng):
    # w = sgn f |f|^2 and |f|^2 are not band-limited: every column, the
    # Nyquist ones included, carries data.
    f = inverse_transform(gaussian_block_field(grid, 3, rng))
    m = grid.n // 2 + 1
    weight = grid_arrays(grid).k_abs[:, :m] ** (2.0 * r)
    for w in (np.sign(f) * np.abs(f) ** 2, np.abs(f) ** 2):
        half = analyze(grid, w)
        mass = parseval_columns(grid) * weight * np.abs(half) ** 2
        total = grid.period**2 * np.sum(mass)
        ref = sobolev_norm(forward_transform(w, grid), r, homogeneous=True) ** 2
        assert total == pytest.approx(ref, rel=1e-12)


def test_sobolev_norm_single_mode():
    # ||cos(k.x)||_{L^2}^2 = (2 pi)^2 / 2 on the 2pi torus
    field = single_mode(GRID, 3, 4)
    l2 = math.sqrt(0.5) * 2.0 * math.pi
    assert sobolev_norm(field, 0.0) == pytest.approx(l2, rel=1e-12)
    assert sobolev_norm(field, 1.5, homogeneous=True) == pytest.approx(
        5.0**1.5 * l2, rel=1e-12
    )
    assert sobolev_norm(field, 1.5) == pytest.approx(
        (1.0 + 25.0) ** 0.75 * l2, rel=1e-12
    )


def test_homogeneous_negative_order_needs_mean_free():
    field = single_mode(GRID, 2, 0)
    coeffs = field.coeffs.copy()
    coeffs[0, 0] = 1.0
    with pytest.raises(UsageError):
        sobolev_norm(field.with_coeffs(coeffs), -0.5, homogeneous=True)


def test_lp_norms(rng):
    samples = rng.standard_normal((64, 64))
    assert lp_norm(samples, math.inf) == pytest.approx(np.max(np.abs(samples)))
    vol = GRID.cell_area
    assert lp_norm(samples, 1.0, vol) == pytest.approx(np.sum(np.abs(samples)) * vol)
    with pytest.raises(UsageError):
        lp_norm(samples, 0.5)



def test_field_lp_matches_sample_lp(rng):
    field = random_field(GRID, rng)
    samples = inverse_transform(field)
    for p in (1.0, 2.0, 4.0, math.inf):
        assert field_lp_norm(field, p) == pytest.approx(
            lp_norm(samples, p, GRID.cell_area), rel=1e-12
        )


@given(st.integers(min_value=-20, max_value=20), st.integers(min_value=-20, max_value=20))
def test_mode_l2_independent_of_wavevector(k1, k2):
    if k1 == 0 and k2 == 0:
        return
    field = single_mode(GRID, k1, k2)
    assert sobolev_norm(field, 0.0) == pytest.approx(
        math.sqrt(0.5) * 2.0 * math.pi, rel=1e-10
    )


def test_radial_profile_shape():
    r = np.array([0.0, 0.5, 1.0, 1.05, PROFILE_OUTER, 2.0])
    vals = radial_profile(r)
    assert vals[0] == 1.0 and vals[2] == 1.0
    assert 0.0 < vals[3] < 1.0
    assert vals[4] == 0.0 and vals[5] == 0.0
    # smooth join: profile stays within [0, 1]
    fine = radial_profile(np.linspace(0.0, 1.5, 2000))
    assert np.all((fine >= 0.0) & (fine <= 1.0))


def test_field_container_roundtrip(tmp_path, rng):
    field = random_field(GridSpec(32, period=3.7), rng)
    path = tmp_path / "f.sqgf"
    save_field(field, str(path))
    back = load_field(str(path))
    assert back.grid == field.grid
    assert np.array_equal(back.coeffs, field.coeffs)


def test_field_bytes_reject_corruption(rng):
    field = random_field(GridSpec(16), rng)
    blob = field_to_bytes(field)
    assert field_from_bytes(blob).grid.n == 16
    with pytest.raises(UsageError):
        field_from_bytes(b"XXXX" + blob[4:])
    with pytest.raises(UsageError):
        field_from_bytes(blob[: len(blob) - 8])


def test_apply_multiplier_does_not_mutate_input(rng):
    field = random_field(GRID, rng)
    before = field.coeffs.copy()
    apply_multiplier(field, MultiplierSpec.fractional_laplacian(0.5))
    assert np.array_equal(field.coeffs, before)


# -- symbols, flips and weight tables against the formulas they replaced ----


def old_conjugate_flip(coeffs):
    return np.conj(np.roll(coeffs[::-1, ::-1], (1, 1), axis=(0, 1)))


@pytest.mark.parametrize("n", [64, 128])
def test_conjugate_flip_matches_roll_formula_bitwise(n, rng):
    coeffs = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    assert np.array_equal(conjugate_flip(coeffs), old_conjugate_flip(coeffs))
    assert np.array_equal(
        hermitian_symmetrize(coeffs), 0.5 * (coeffs + old_conjugate_flip(coeffs))
    )
    assert not np.shares_memory(conjugate_flip(coeffs), coeffs)


@pytest.mark.parametrize("gamma", [0.3, 0.5, 1.0, 2.0])
def test_heat_and_gevrey_symbols_match_old_formula_bitwise(gamma):
    grid = GridSpec(128, period=3.0)
    k_abs = grid_arrays(grid).k_abs
    for nu, t in ((1.0, 0.013), (0.7, 0.9)):
        old = np.exp(-nu * t * k_abs ** gamma)
        assert np.array_equal(MultiplierSpec.heat(nu, t, gamma).symbol_on(grid), old)
    # the last (lam, t) pushes the exponent past the cap on part of the grid
    t_over = 1.5 * GEVREY_EXPONENT_CAP / float(k_abs.max()) ** gamma
    for lam, t in ((0.5, 0.013), (1.0, 0.9), (1.0, t_over)):
        expo = lam * t * k_abs ** gamma
        assert t != t_over or np.any(expo > GEVREY_EXPONENT_CAP)
        old = np.where(expo <= GEVREY_EXPONENT_CAP,
                       np.exp(np.minimum(expo, GEVREY_EXPONENT_CAP)), 0.0)
        sym = MultiplierSpec.gevrey(lam, t, gamma).symbol_on(grid)
        assert np.array_equal(sym, old)
        assert not sym.flags.writeable


def test_weight_tables_are_read_only():
    grid = GridSpec(64, period=3.0)
    tables = [
        k_power(grid, 0.5),
        sobolev_weights(grid, 0.0, False),
        sobolev_weights(grid, -0.5, True),
        sobolev_weights(grid, 1.5, True),
        parseval_columns(grid),
    ]
    for table in tables:
        assert not table.flags.writeable
        with pytest.raises(ValueError):
            table[0, ...] = 1.0


@pytest.mark.parametrize("grid", [GridSpec(64, period=3.0), GridSpec(128)])
@pytest.mark.parametrize("r, homogeneous", [
    (0.0, False), (1.5, False), (-0.5, True), (0.25, True), (0.0, True),
])
def test_sobolev_norm_matches_full_lattice_sum(grid, r, homogeneous, rng):
    field = power_law_field(grid, 1.5, rng)
    full = full_sobolev_norm(field, r, homogeneous)
    assert sobolev_norm(field, r, homogeneous) == pytest.approx(full, rel=1e-12)
    power = half_power(grid, field.coeffs)
    assert weighted_norm(grid, sobolev_weights(grid, r, homogeneous), power) == (
        sobolev_norm(field, r, homogeneous)
    )


def test_gevrey_half_weight_matches_symbol_and_guard(rng):
    grid = GridSpec(64)
    m = grid.n // 2 + 1
    field = power_law_field(grid, 2.0, rng)  # data up to the dealias radius
    t = 0.3
    weight = gevrey_half_weight(grid, 0.5, t, 0.5, field.coeffs)
    sym = MultiplierSpec.gevrey(0.5, t, 0.5).symbol_on(grid)
    assert np.array_equal(weight, sym[:, :m])
    # exponent past the cap on populated modes: the same error as applying it
    t_bad = 2.0 * GEVREY_EXPONENT_CAP / grid.dealias_radius
    with pytest.raises(OverflowGuardError):
        apply_multiplier(field, MultiplierSpec.gevrey(1.0, t_bad, 1.0))
    with pytest.raises(OverflowGuardError):
        gevrey_half_weight(grid, 1.0, t_bad, 1.0, field.coeffs)
    # past the cap only where no data lives: weight 0 there, no error
    low = single_mode(grid, 1, 0)
    weight = gevrey_half_weight(grid, 1.0, t_bad, 1.0, low.coeffs)
    expo = t_bad * grid_arrays(grid).k_abs[:, :m]
    assert np.all(weight[expo > GEVREY_EXPONENT_CAP] == 0.0)
    assert np.all(weight[expo <= GEVREY_EXPONENT_CAP] > 0.0)
