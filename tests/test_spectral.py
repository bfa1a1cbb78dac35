"""Transform layer: grids, multipliers, norms, field containers."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.integrate import simpson

from sqglab.dyadic import block_commutator, trilinear_form
from sqglab.errors import OverflowGuardError, SymmetryError, UsageError
from sqglab.sampling import band_limited_field, gaussian_block_field, power_law_field
from sqglab.solver import SolverConfig, mild_residual, nonlinear_term, run_simulation
from sqglab.spectral import (
    MAX_GRID_N,
    GEVREY_EXPONENT_CAP,
    PROFILE_INNER,
    PROFILE_OUTER,
    GridSpec,
    SpectralField,
    analyze,
    block_symbol,
    field_from_bytes,
    field_lp_norm,
    field_to_bytes,
    forward_transform,
    full_spectrum,
    gevrey_half_weight,
    grid_arrays,
    half_power,
    k_power,
    load_field,
    low_pass_symbol,
    lp_norm,
    parseval_columns,
    radial_profile,
    save_field,
    sobolev_norm,
    sobolev_weights,
    synthesize,
    transport,
    velocity,
    _dealias_block,
    _forward_pass,
    _inverse_pass,
    _peak_speed,
    _weighted_amplitude_limit,
    weighted_norm,
)

from oracles import (
    BilinearSymbol,
    apply_bilinear_symbol,
    complex_fft_transport,
    complex_samples,
    conjugate_flip,
    full,
    full_lattice,
    full_sobolev_norm,
    half,
    riesz_perp,
    scipy_transport,
    whole_array_profile,
)

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
    for period in (math.inf, math.nan):
        with pytest.raises(UsageError, match="period must be positive and finite"):
            GridSpec(64, period=period)
    with pytest.raises(UsageError):
        GridSpec(64, dealias_fraction=1.5)


def test_a_grid_past_max_grid_n_is_refused_at_construction():
    # Only specs are built here, and no table: the refusal comes first.
    # Bytes per grid point fall as n grows, so the count at 64^2 with the
    # widest block (dealias_fraction 1) bounds every grid up to MAX_GRID_N.
    grid = GridSpec(64, dealias_fraction=1.0)
    tables = vars(grid_arrays(grid)).values()
    buffers = [a for a in vars(_dealias_block(grid)).values() if isinstance(a, np.ndarray)]
    per_point = sum(a.nbytes for a in [*tables, *buffers]) / grid.n ** 2
    assert per_point * MAX_GRID_N ** 2 < 256 * 2 ** 20
    assert MAX_GRID_N >= 512  # the largest grid the tests build
    assert GridSpec(MAX_GRID_N).n == MAX_GRID_N
    for n in (MAX_GRID_N + 2, 2 ** 40):
        with pytest.raises(UsageError, match=f"grid.n must be even in .*, got {n}"):
            GridSpec(n)


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
    assert field.coeffs.shape == (64, 33)
    back = field.to_samples()
    assert np.max(np.abs(back - samples)) < 1e-13


def test_forward_rejects_bad_input(rng):
    with pytest.raises(UsageError):
        forward_transform(np.zeros((32, 64)), GRID)
    with pytest.raises(UsageError):
        forward_transform(np.zeros((64, 64), dtype=complex), GRID)


def test_field_holds_the_half_spectrum_only(rng):
    with pytest.raises(UsageError, match="half spectrum"):
        SpectralField(GRID, np.zeros((64, 64), dtype=complex))
    field = SpectralField(GRID, np.zeros((64, 33)))
    assert field.coeffs.dtype == np.complex128 and not field.coeffs.flags.writeable


def payload(blob, n):
    """The full-lattice coefficients a ``.sqgf`` blob holds."""
    return np.frombuffer(blob[-16 * n * n :], dtype=np.complex128).reshape(n, n)


def test_field_from_bytes_rejects_unpartnered_mode():
    # Foreign data enter only through field_from_bytes: a mode whose partner
    # c(-k) does not hold its conjugate describes no real field.
    blob = field_to_bytes(SpectralField(GRID, np.zeros((64, 33))))
    coeffs = np.zeros((64, 64), dtype=complex)
    coeffs[1, 2] = 1.0  # no conjugate partner at (-1, -2)
    header = blob[: len(blob) - coeffs.nbytes]
    with pytest.raises(SymmetryError):
        field_from_bytes(header + coeffs.tobytes())
    # a partner off by more than round-off is no partner either
    coeffs[-1, -2] = 1.0 + 1e-6
    with pytest.raises(SymmetryError):
        field_from_bytes(header + coeffs.tobytes())
    coeffs[-1, -2] = 1.0
    back = field_from_bytes(header + coeffs.tobytes())
    assert back.coeffs[1, 2] == 1.0 and np.count_nonzero(back.coeffs) == 1


def test_parseval(rng):
    samples = rng.standard_normal((64, 64))
    field = forward_transform(samples, GRID)
    physical = lp_norm(samples, 2.0, GRID.cell_area)
    spectral = GRID.period * math.sqrt(np.sum(np.abs(full(field)) ** 2))
    assert physical == pytest.approx(spectral, rel=1e-12)


@pytest.mark.parametrize("s", [0.25, 0.5, 1.0, 1.7])
def test_fractional_laplacian_eigenmode(s):
    # D^s cos(k.x) = |k|^s cos(k.x)
    field = single_mode(GRID, 3, 4)
    out = field.coeffs * k_power(GRID, s)
    expected = field.coeffs * 5.0**s
    assert np.max(np.abs(out - expected)) < 1e-12


def test_fractional_laplacian_composes():
    field = single_mode(GRID, 2, 7, phase=0.3)
    half = k_power(GRID, 0.35)
    twice = field.coeffs * half * half
    once = field.coeffs * k_power(GRID, 0.7)
    assert np.max(np.abs(twice - once)) < 1e-12


def test_heat_multiplier_matches_scalar_decay():
    # The heat factor the callers build from k_power: one mode decays by
    # the scalar factor.
    field = single_mode(GRID, 3, 4)
    out = field.coeffs * np.exp(-0.7 * 0.9 * k_power(GRID, 0.5))
    factor = math.exp(-0.7 * 0.9 * 5.0**0.5)
    assert np.max(np.abs(out - factor * field.coeffs)) < 1e-14


def test_heat_rejects_negative_time(rng):
    # The operators that apply a heat factor refuse a backward time.
    field = random_field(GRID, rng)
    with pytest.raises(UsageError, match="t >= 0"):
        block_commutator(field, field, 2, -0.1, 0.5)
    with pytest.raises(UsageError, match="t >= 0"):
        trilinear_form(field, field, field, -0.1, 0.5)


def test_gevrey_inverts_heat():
    field = single_mode(GRID, 5, 1)
    cooled = field.coeffs * np.exp(-0.2 * k_power(GRID, 1.0))
    warmed = cooled * gevrey_half_weight(GRID, 1.0, 0.2, 1.0, cooled)
    assert np.max(np.abs(warmed - field.coeffs)) < 1e-12


def test_gevrey_amplitude_guard_fires_below_the_exponent_cap(rng):
    # Huge data under a modest exponent: the fast exit's exponent bound
    # holds, so only its amplitude bound keeps the weighted power in range,
    # on the half spectrum and on the block alike.
    field = random_field(GRID, rng)
    coeffs = field.coeffs * (1e-3 * _weighted_amplitude_limit(GRID) / np.abs(field.coeffs).max())
    kpow = k_power(GRID, 1.0)
    assert np.array_equal(gevrey_half_weight(GRID, 1.0, 0.0, 1.0, coeffs), np.ones(kpow.shape))
    block = _dealias_block(GRID)
    t = 20.0 / float(kpow.max())
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(OverflowGuardError, match="double range"):
            gevrey_half_weight(GRID, 1.0, t, 1.0, coeffs)
        with pytest.raises(OverflowGuardError, match="double range"):
            gevrey_half_weight(GRID, 1.0, t, 1.0,
                               block.restrict(coeffs, np.empty(block.shape, complex)),
                               block.restrict(kpow, np.empty(block.shape)),
                               np.empty(block.shape))


def test_gevrey_overflow_guard(rng):
    field = random_field(GRID, rng)
    # weight * t * kmax^gamma far beyond the cap on occupied modes
    t_bad = 2.0 * GEVREY_EXPONENT_CAP / GRID.dealias_radius
    with pytest.raises(OverflowGuardError, match="exceeds cap"):
        trilinear_form(field, field, field, t_bad, 1.0)
    with pytest.raises(OverflowGuardError, match="exceeds cap"):
        gevrey_half_weight(GRID, 1.0, t_bad, 1.0, field.coeffs)


def test_gevrey_guard_is_support_aware():
    # Only mode |k|=1 occupied: the cap check must use the occupied radius,
    # not the grid's maximum frequency.
    field = single_mode(GRID, 1, 0)
    t = 0.9 * GEVREY_EXPONENT_CAP  # exponent 0.9*cap at |k|=1
    value = trilinear_form(field, field, field, t, 1.0)
    assert math.isfinite(value)


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
    assert np.max(np.abs(u1.to_samples() - (4.0 / 5.0) * s)) < 1e-12
    assert np.max(np.abs(u2.to_samples() - (-3.0 / 5.0) * s)) < 1e-12


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


def transport_symbol(xi, eta):
    """The symbol of ``R_perp f . grad g``: ``i xi_perp / |xi| . i eta`` with
    ``xi_perp = (-xi2, xi1)``."""
    mag = np.sqrt(np.sum(xi * xi, axis=-1))
    cross = xi[..., 1] * eta[..., 0] - xi[..., 0] * eta[..., 1]
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(mag > 0.0, cross / mag, 0.0)


def direct_transport(grid, f, g):
    """The alias-free transport of two half spectra, times the mask."""
    return apply_bilinear_symbol(
        BilinearSymbol(transport_symbol), SpectralField(grid, f), SpectralField(grid, g)
    ).coeffs * grid_arrays(grid).dealias_mask


def test_transport_matches_direct_bilinear_sum(rng):
    # |xi|, |eta| <= 10, so every sum lies inside the dealias radius 64/3
    f = band_limited(GRID, rng, 10.0)
    g = band_limited(GRID, rng, 10.0)
    out, umax = transport(GRID, f, g)
    direct = direct_transport(GRID, f, g)
    assert out.shape == (GRID.n, GRID.n // 2 + 1)
    assert np.max(np.abs(out - direct)) <= 1e-12 * np.max(np.abs(direct))
    u1, u2 = riesz_perp(SpectralField(GRID, f))
    speed = np.hypot(u1.to_samples(), u2.to_samples())
    assert umax == pytest.approx(float(np.max(speed)), rel=1e-12)


@pytest.mark.parametrize("n", [32, 64])
def test_transport_takes_exactly_the_dealias_block(n, rng):
    # Data of the dealias radius K give the alias-free product, and their
    # velocity is R_perp's; data of radius K + 1 leave the block and are
    # refused, by velocity and by transport in either slot.  So are modes
    # in the corners of the block's box, off the radial mask, on this grid
    # and at 96^2 (K = 32), where the pair (32, 5) and (-32, 5) sums to
    # (64, 0), which the lattice folds onto (-32, 0), inside the mask.
    grid = GridSpec(n)
    radius = grid.dealias_radius
    f, g = band_limited(grid, rng, radius), band_limited(grid, rng, radius)
    out, umax = transport(grid, f, g)
    direct = direct_transport(grid, f, g)
    assert np.max(np.abs(out - direct)) <= 1e-13 * np.max(np.abs(direct))
    vel = velocity(grid, f)
    for got, want in zip((vel.u1, vel.u2), riesz_perp(SpectralField(grid, f))):
        want = want.to_samples()
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))
    assert umax == vel.umax
    wide = band_limited(grid, rng, radius + 1.0)
    for call, args in ((velocity, (wide,)), (transport, (wide, g)), (transport, (f, wide))):
        with pytest.raises(UsageError, match="outside the .* dealias block"):
            call(grid, *args)
    for grid in (grid, GridSpec(96)):
        n, top = grid.n, _dealias_block(grid).top - 1
        corners = np.zeros((2, n, n // 2 + 1), np.complex128)
        corners[0, top, 5] = corners[1, n - top, 5] = 0.5
        assert not grid_arrays(grid).dealias_mask[[top, n - top], 5].any()
        for call, args in ((velocity, (corners[0],)), (transport, tuple(corners)),
                           (transport, (corners[0] * 0.0, corners[1]))):
            with pytest.raises(UsageError, match="outside the .* dealias block"):
                call(grid, *args)


def test_transport_output_exactly_hermitian(rng):
    for n in (16, 64, 96):
        grid = GridSpec(n)
        mask = grid_arrays(grid).dealias_mask
        f = random_field(grid, rng).coeffs * mask
        g = random_field(grid, rng).coeffs * mask
        out = full_spectrum(grid, transport(grid, f, g)[0])
        assert np.array_equal(out, conjugate_flip(out))
        assert out[0, 0] == 0.0


@pytest.mark.parametrize("n", [128, 256])
def test_transport_matches_complex_fft_formula(n, rng):
    grid = GridSpec(n)
    mask = grid_arrays(grid).dealias_mask
    f = random_field(grid, rng).coeffs * mask
    g = random_field(grid, rng).coeffs * mask
    out, _ = transport(grid, f, g)
    ref = complex_fft_transport(grid, f, g)[:, : n // 2 + 1]
    assert np.max(np.abs(out - ref)) <= 1e-13 * np.max(np.abs(ref))


def test_transport_is_advect_by_velocity(rng, count_transforms):
    # The velocity costs two transforms; transport adds the three of the
    # advection to them, and reports the same peak speed.
    grid = GridSpec(64)
    mask = grid_arrays(grid).dealias_mask
    f = random_field(grid, rng).coeffs * mask
    g = random_field(grid, rng).coeffs * mask
    vel, calls = count_transforms(velocity, grid, f)
    assert calls == 2
    assert not vel.u1.flags.writeable and not vel.u2.flags.writeable
    (_, umax), calls = count_transforms(transport, grid, f, g)
    assert calls == 5 and umax == vel.umax


def test_zero_velocity_costs_no_transform(rng, count_transforms):
    grid = GridSpec(64)
    zero = np.zeros((grid.n, grid.n // 2 + 1), dtype=np.complex128)
    g = random_field(grid, rng).coeffs * grid_arrays(grid).dealias_mask
    vel, calls = count_transforms(velocity, grid, zero)
    assert calls == 0 and vel.umax == 0.0
    assert vel.u1.shape == (grid.n, grid.n) and not vel.u1.any() and not vel.u2.any()
    (out, umax), calls = count_transforms(transport, grid, zero, g)
    assert calls == 0 and umax == 0.0
    assert out.shape == zero.shape and out.dtype == np.complex128 and not out.any()
    ref = complex_fft_transport(grid, np.zeros_like(g), g)
    assert np.array_equal(out, ref[:, : grid.n // 2 + 1])
    # a NaN is a nonzero entry: it reaches the samples and the speed
    bad = zero.copy()
    bad[1, 2] = np.nan
    assert math.isnan(velocity(grid, bad).umax)


@pytest.mark.parametrize("n", [8, 64, 128, 256])
def test_peak_speed_rounds_each_square_and_their_sum(n, rng):
    # u1 * u1 + u2 * u2 to the bit, with no fused multiply-add on any build.
    scratch = np.empty((n, n))
    for scale in (1e-3, 1.0, 1e3):
        u = scale * rng.standard_normal((2, n, n))
        want = math.sqrt(float((u[0] * u[0] + u[1] * u[1]).max()))
        assert _peak_speed(u, scratch) == want
    u[1, n - 1, 0] = np.nan
    assert math.isnan(_peak_speed(u, scratch))


BAND_GRIDS = [GridSpec(n, dealias_fraction=frac)
              for n in (8, 16, 32, 128, 256, 512) for frac in (0.5, 2.0 / 3.0, 1.0)]


@pytest.mark.parametrize("grid", BAND_GRIDS, ids=lambda g: f"{g.n}-{g.dealias_fraction:.3f}")
def test_band_passes_equal_scipy_2d_transforms(grid):
    # The column passes skip the columns past the dealias band; the result is
    # bitwise what the whole-array scipy.fft transforms give.
    import scipy.fft

    n, m = grid.n, grid.n // 2 + 1
    band = _dealias_block(grid).width
    radius = grid.n * grid.dealias_fraction / 2
    assert band == (m if grid.dealias_fraction == 1.0 else int(radius) + 1)
    rng = np.random.default_rng(n)
    half = rng.standard_normal((n, m)) + 1j * rng.standard_normal((n, m))
    half[:, band:] = 0.0
    samples = np.empty((n, n))
    columns = np.zeros((n, m), dtype=np.complex128)
    _inverse_pass(np.ascontiguousarray(half[:, :band]), columns, samples)
    assert np.array_equal(samples, scipy.fft.irfft2(half, s=(n, n), norm="forward"))
    out = np.empty((n, band), dtype=np.complex128)
    _forward_pass(samples, np.empty((n, m), dtype=np.complex128), out)
    assert np.array_equal(out, scipy.fft.rfft2(samples, norm="forward")[:, :band])


def test_band_passes_at_a_grid_that_is_not_a_power_of_two():
    # Two 1/96 scalings round differently from one 1/96^2: the forward pass
    # agrees to a rounding, the unscaled inverse pass bitwise.
    import scipy.fft

    grid = GridSpec(96)
    n, m = grid.n, grid.n // 2 + 1
    band = _dealias_block(grid).width
    rng = np.random.default_rng(96)
    half = rng.standard_normal((n, m)) + 1j * rng.standard_normal((n, m))
    half[:, band:] = 0.0
    samples = np.empty((n, n))
    _inverse_pass(half[:, :band], np.zeros((n, m), dtype=np.complex128), samples)
    assert np.array_equal(samples, scipy.fft.irfft2(half, s=(n, n), norm="forward"))
    out = _forward_pass(samples, np.empty((n, m), dtype=np.complex128),
                        np.empty((n, band), dtype=np.complex128))
    ref = scipy.fft.rfft2(samples, norm="forward")[:, :band]
    assert np.max(np.abs(out - ref)) <= 1e-15 * np.max(np.abs(ref))


@pytest.mark.parametrize("grid", [GridSpec(64), GridSpec(128, dealias_fraction=0.5),
                                  GridSpec(64, dealias_fraction=1.0)],
                         ids=lambda g: f"{g.n}-{g.dealias_fraction:.3f}")
def test_transport_equals_whole_array_transport(grid, rng, monkeypatch):
    # Dealiased fields take the band passes and give the whole-array
    # transport bitwise.  A field with modes off the mask is refused in
    # either slot, before any transform, also where the block's box is the
    # whole half spectrum (dealias_fraction 1): its corners lie off the mask.
    from sqglab import spectral

    mask = grid_arrays(grid).dealias_mask
    raw = [random_field(grid, rng).coeffs for _ in range(2)]
    band = _dealias_block(grid).width
    widths = []

    def spy(spec, columns, out):
        widths.append(spec.shape[-1])
        return _inverse_pass(spec, columns, out)

    monkeypatch.setattr(spectral, "_inverse_pass", spy)
    cases = [(raw[0] * mask, raw[1] * mask), (raw[0], raw[1] * mask),
             (raw[0] * mask, raw[1]), (raw[0], raw[0])]
    for i, (source, target) in enumerate(cases):
        widths.clear()
        if i:
            with pytest.raises(UsageError, match="outside the .* dealias block"):
                transport(grid, source, target)
            assert widths == []
            continue
        ref, ref_umax = scipy_transport(grid, source, target)
        out, umax = transport(grid, source, target)
        assert widths == [band] * 4
        assert np.array_equal(out, ref) and umax == ref_umax


SAMPLERS = {
    "block": lambda grid, rng: gaussian_block_field(grid, 4, rng),
    "band_limited": lambda grid, rng: band_limited_field(grid, grid.n / 4.0, rng),
    "power_law": lambda grid, rng: power_law_field(grid, 1.5, rng),
}


@pytest.mark.parametrize("n", [128, 256])
@pytest.mark.parametrize("kind", sorted(SAMPLERS))
def test_synthesize_matches_inverse_transform(kind, n, rng):
    # Against the complex inverse FFT of the full lattice.
    grid = GridSpec(n)
    field = SAMPLERS[kind](grid, rng)
    half = field.coeffs
    ref = complex_samples(full(field))
    scale = np.max(np.abs(ref))
    assert np.max(np.abs(synthesize(grid, half) - ref)) <= 1e-13 * scale
    stacked = synthesize(grid, np.stack([half, -2.0 * half]))
    assert stacked.shape == (2, n, n)
    assert np.max(np.abs(stacked[0] - ref)) <= 1e-13 * scale
    assert np.max(np.abs(stacked[1] + 2.0 * ref)) <= 2e-13 * scale


def _column_cases(n, rng):
    """Half spectra whose last occupied column varies: none, column 0, a band
    with signed zeros past it (as the samplers leave them), the Nyquist
    column, every column."""
    m = n // 2 + 1

    def noise():
        return rng.standard_normal((n, m)) + 1j * rng.standard_normal((n, m))

    zero = np.zeros((n, m), np.complex128)
    column0 = zero.copy()
    column0[:, 0] = noise()[:, 0]
    band = noise()
    band[:, m // 3:] = -0.0
    band[1::2, m // 3:] = 0.0
    nyquist = zero.copy()
    nyquist[:, [1, m - 1]] = noise()[:, :2]
    return {"zero": zero, "column0": column0, "band": band, "nyquist": nyquist,
            "full": noise()}


@pytest.mark.parametrize("n", [8, 16, 96, 128])
def test_synthesize_is_irfft2_bit_for_bit(n, rng):
    # The column pass of each field stops at its last occupied column; the
    # samples are still bitwise those of the whole-array inverse transform,
    # field by field and for a stack whose fields end at different columns.
    grid = GridSpec(n)
    cases = _column_cases(n, rng)
    for name, half in cases.items():
        want = np.fft.irfft2(half, s=(n, n), norm="forward")
        assert synthesize(grid, half).tobytes() == want.tobytes(), name
    stack = np.stack(list(cases.values()))
    want = np.fft.irfft2(stack, s=(n, n), norm="forward")
    got = synthesize(grid, stack)
    assert got.shape == (len(cases), n, n)
    assert got.tobytes() == want.tobytes()
    nested = synthesize(grid, stack.reshape(1, len(cases), n, n // 2 + 1))
    assert nested.tobytes() == want.tobytes()


def test_analyze_is_half_of_forward_transform(rng):
    samples = rng.standard_normal((3, GRID.n, GRID.n))
    half = analyze(GRID, samples)
    assert half.shape == (3, GRID.n, GRID.n // 2 + 1)
    for got, s in zip(half, samples):
        ref = np.fft.fft2(s)[:, : GRID.n // 2 + 1] / GRID.n**2
        assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))
        # forward_transform is analyze, with columns 0 and n/2 made exactly
        # conjugate-symmetric
        field = forward_transform(s, GRID)
        assert np.max(np.abs(field.coeffs - got)) <= 1e-15 * np.max(np.abs(got))
        assert np.array_equal(field.coeffs[:, 1:-1], got[:, 1:-1])


@pytest.mark.parametrize("grid", [GridSpec(128), GridSpec(64, period=3.0)])
@pytest.mark.parametrize("r", [0.0, 0.25, 0.5, 1.0])
def test_half_spectrum_parseval_matches_sobolev_norm(grid, r, rng):
    # w = sgn f |f|^2 and |f|^2 are not band-limited: every column, the
    # Nyquist ones included, carries data.
    f = gaussian_block_field(grid, 3, rng).to_samples()
    weight = grid_arrays(grid).k_abs ** (2.0 * r)
    for w in (np.sign(f) * np.abs(f) ** 2, np.abs(f) ** 2):
        half = analyze(grid, w)
        mass = parseval_columns(grid) * weight * np.abs(half) ** 2
        total = grid.period**2 * np.sum(mass)
        ref = full_sobolev_norm(forward_transform(w, grid), r, homogeneous=True) ** 2
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


SUP_CASES = {
    "random": lambda rng: rng.standard_normal((16, 16)),
    "all_negative": lambda rng: -np.abs(rng.standard_normal((16, 16))) - 1.0,
    "all_negative_zero": lambda rng: np.full((8, 8), -0.0),
    "nan": lambda rng: np.where(np.arange(64).reshape(8, 8) == 37, np.nan,
                                rng.standard_normal((8, 8))),
    "negative_nan": lambda rng: np.where(np.arange(64).reshape(8, 8) == 5, -np.nan,
                                         rng.standard_normal((8, 8))),
    "empty": lambda rng: np.empty((0, 8)),
}


@pytest.mark.parametrize("case", sorted(SUP_CASES))
def test_sup_norm_is_max_abs_bit_for_bit(case, rng):
    # The sup norm is read from the two extremes, without an |x| copy; it must
    # be max |x| to the bit: +0.0 for -0.0 samples, a NaN with its sign
    # cleared when one is present, 0.0 for no samples.
    x = SUP_CASES[case](rng)
    want = float(np.abs(x).max()) if x.size else 0.0
    got = lp_norm(x, math.inf, GRID.cell_area)
    assert isinstance(got, float)
    assert np.float64(got).tobytes() == np.float64(want).tobytes()



def test_field_lp_matches_sample_lp(rng):
    field = random_field(GRID, rng)
    samples = complex_samples(full(field))
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
    r = np.array([0.0, 0.5, PROFILE_INNER, 1.05, PROFILE_OUTER, 2.0])
    vals = radial_profile(r)
    assert vals[0] == 1.0 and vals[2] == 1.0
    assert 0.0 < vals[3] < 1.0
    assert vals[4] == 0.0 and vals[5] == 0.0
    # t is exactly 0 at PROFILE_INNER and exactly 1 at PROFILE_OUTER, where
    # the polynomial gives exactly the 1.0 and 0.0 written outside the band.
    t = (r - PROFILE_INNER) / (PROFILE_OUTER - PROFILE_INNER)
    assert t[2] == 0.0 and t[4] == 1.0
    assert vals.tobytes() == whole_array_profile(r).tobytes()
    # smooth join: profile stays within [0, 1]
    fine = radial_profile(np.linspace(0.0, 1.5, 2000))
    assert np.all((fine >= 0.0) & (fine <= 1.0))


@pytest.mark.parametrize("n", [8, 16, 32, 64, 128, 256, 512])
def test_symbol_tables_equal_whole_array_profile(n):
    # radial_profile runs the smoothstep on the transition band only and
    # writes exact 1.0 and 0.0 outside it; the tables are bitwise the ones
    # the polynomial gives on the whole half spectrum.
    grid = GridSpec(n)
    k_abs = grid_arrays(grid).k_abs
    for j in range(-2, 12):
        low = whole_array_profile(k_abs / 2.0**j)
        assert radial_profile(k_abs / 2.0**j).tobytes() == low.tobytes()
        assert low_pass_symbol(grid, j).tobytes() == low.tobytes()
        block = low - whole_array_profile(k_abs / 2.0 ** (j - 1))
        assert block_symbol(grid, j).tobytes() == block.tobytes()


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


# -- weight tables and time-dependent factors against the old formulas ------


def old_heat(grid, nu, t, gamma):
    """The heat symbol ``exp(-nu t |k|^gamma)`` as the multiplier built it,
    on the half spectrum."""
    return np.exp(-nu * t * half(grid, full_lattice(grid).k_abs) ** gamma)


def old_gevrey(grid, lam, t, gamma):
    expo = lam * t * half(grid, full_lattice(grid).k_abs) ** gamma
    return np.where(expo <= GEVREY_EXPONENT_CAP,
                    np.exp(np.minimum(expo, GEVREY_EXPONENT_CAP)), 0.0)


@pytest.mark.parametrize("gamma", [0.3, 0.5, 1.0, 2.0])
def test_heat_and_gevrey_symbols_match_old_formula_bitwise(gamma):
    # The three operators that scale k_power by t give bitwise what the heat
    # and Gevrey multipliers they used to apply gave.
    grid = GridSpec(64, period=3.0)
    rng = np.random.default_rng(11)
    f, g = (power_law_field(grid, 2.0, rng) for _ in range(2))
    for t in (0.013, 0.2):
        j = 3
        block = block_symbol(grid, j)
        heat = old_heat(grid, 1.0, t, gamma)
        prod, _ = transport(grid, f.coeffs * heat, g.coeffs * heat)
        grow = np.where(block != 0.0, old_gevrey(grid, 1.0, t, gamma), 0.0)
        want = block * grow * prod - transport(grid, f.coeffs * heat, block * g.coeffs)[0]
        assert np.array_equal(block_commutator(f, g, j, t, gamma).coeffs, want)

        # The trilinear form cools its first two slots by the same factor.
        pair = prod * np.conj(g.coeffs * old_gevrey(grid, 1.0, t, gamma))
        w2s = sobolev_weights(grid, 2.0 - gamma, homogeneous=True) * parseval_columns(grid)
        want = grid.period**2 * float(np.vdot(w2s, pair.real))
        assert trilinear_form(f, g, g, t, gamma) == want

    # mild_residual: heat-propagated data plus the cooled Duhamel integrand
    cfg = SolverConfig(grid=grid, nu=0.8, gamma=gamma, dt=1e-3, t_final=4e-3,
                       snapshot_stride=2)
    data = f.with_coeffs(f.coeffs * 0.3 / sobolev_norm(f, 0.0))
    series = run_simulation(data, cfg)
    times = np.array([ts for ts, _ in series.snapshots])
    rebuilt = series.snapshots[0][1].coeffs * old_heat(grid, 0.8, 4e-3, gamma)
    integrand = np.stack([nonlinear_term(state).coeffs * old_heat(grid, 0.8, 4e-3 - ts, gamma)
                          for ts, state in series.snapshots])
    rebuilt = rebuilt + simpson(integrand, x=times, axis=0)
    target = series.snapshots[-1][1]
    gap = SpectralField(grid, target.coeffs - rebuilt)
    want = field_lp_norm(gap, 2.0) / field_lp_norm(target, 2.0)
    assert mild_residual(series, 0.0, 4e-3) == want


def test_weight_tables_are_read_only():
    grid = GridSpec(64, period=3.0)
    tables = [
        k_power(grid, 0.5),
        low_pass_symbol(grid, 3),
        block_symbol(grid, 3),
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
    field = power_law_field(grid, 2.0, rng)  # data up to the dealias radius
    t = 0.3
    weight = gevrey_half_weight(grid, 0.5, t, 0.5, field.coeffs)
    assert np.array_equal(weight, old_gevrey(grid, 0.5, t, 0.5))
    # exponent past the cap on populated modes: the same error the Gevrey
    # weight of the trilinear form raises
    t_bad = 2.0 * GEVREY_EXPONENT_CAP / grid.dealias_radius
    with pytest.raises(OverflowGuardError):
        trilinear_form(field, field, field, t_bad, 1.0)
    with pytest.raises(OverflowGuardError):
        gevrey_half_weight(grid, 1.0, t_bad, 1.0, field.coeffs)
    # past the cap only where no data lives: weight 0 there, no error
    low = single_mode(grid, 1, 0)
    weight = gevrey_half_weight(grid, 1.0, t_bad, 1.0, low.coeffs)
    expo = t_bad * grid_arrays(grid).k_abs
    assert np.all(weight[expo > GEVREY_EXPONENT_CAP] == 0.0)
    assert np.all(weight[expo <= GEVREY_EXPONENT_CAP] > 0.0)


# -- the .sqgf boundary: full lattice on disk, half spectrum in memory ------


@pytest.mark.parametrize("grid", [GridSpec(16), GridSpec(32, period=3.7), GridSpec(96)],
                         ids=lambda g: f"{g.n}")
def test_save_load_save_is_byte_identical(grid, tmp_path, rng):
    for field in (random_field(grid, rng), power_law_field(grid, 1.5, rng)):
        first = field_to_bytes(field)
        assert np.array_equal(payload(first, grid.n), full(field))
        path = tmp_path / "f.sqgf"
        save_field(field, str(path))
        back = load_field(str(path))
        assert np.array_equal(back.coeffs, field.coeffs)
        assert field_to_bytes(back) == first == path.read_bytes()


def test_state_saved_in_the_full_layout_loads_to_the_same_half_spectrum():
    # power_law_16.sqgf was written by the package while it still held full
    # (n, n) arrays in memory: save_field(power_law_field(GridSpec(16,
    # period=3.0), 2.5, default_rng(3)), path).
    import pathlib

    blob = (pathlib.Path(__file__).parent / "data" / "power_law_16.sqgf").read_bytes()
    loaded = field_from_bytes(blob)
    grid = GridSpec(16, period=3.0)
    assert loaded.grid == grid
    assert np.array_equal(loaded.coeffs, payload(blob, 16)[:, :9])
    assert field_to_bytes(loaded) == blob
    # the sampler draws the same field today
    again = power_law_field(grid, 2.5, np.random.default_rng(3))
    assert np.array_equal(again.coeffs, loaded.coeffs)
