"""Fourier-side core for periodic 2D scalar fields.

Everything downstream (dyadic analysis, inequality checks, the flow solver)
goes through this module.  Conventions, fixed once:

* Domain is the square torus ``[0, period)^2`` sampled on an ``n x n``
  uniform grid, ``x_i = i * period / n``.
* Frequencies are ``k = (2*pi/period) * m`` with integer lattice
  ``m in {-n/2, ..., n/2 - 1}^2`` stored in FFT (``fftfreq``) order.
* Coefficients follow the Fourier-series convention
  ``f(x) = sum_k c(k) * exp(i k.x)``, i.e. ``c = fft2(samples) / n**2``.
  A pure mode ``cos(k0.x)`` therefore has coefficients 1/2 at ``+-k0``.
* With this convention Parseval reads
  ``integral |f|^2 dx = period**2 * sum_k |c(k)|**2``.

Real fields correspond to conjugate-symmetric coefficient arrays; that
symmetry is an invariant all operators here preserve (odd symbols are
zeroed on the unpaired Nyquist line to keep it exact).
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from functools import lru_cache
from types import SimpleNamespace

import numpy as np
import scipy.fft

from .errors import OverflowGuardError, SymmetryError, UsageError

__all__ = [
    "GridSpec",
    "SpectralField",
    "MultiplierSpec",
    "forward_transform",
    "inverse_transform",
    "apply_multiplier",
    "riesz_perp",
    "synthesize",
    "analyze",
    "parseval_columns",
    "half_power",
    "k_power",
    "sobolev_weights",
    "gevrey_half_weight",
    "weighted_norm",
    "transport",
    "sobolev_norm",
    "lp_norm",
    "field_lp_norm",
    "smoothstep",
    "radial_profile",
    "conjugate_flip",
    "hermitian_symmetrize",
    "save_field",
    "load_field",
]

#: Default cap on analyticity-weight exponents; exp(500) is near the top of
#: double range and anything close to it is numerically meaningless anyway.
GEVREY_EXPONENT_CAP = 500.0

#: Coefficients with relative magnitude below this are treated as absent
#: when the overflow guard decides whether a weight may be applied.
SUPPORT_THRESHOLD = 1e-13


@dataclass(frozen=True)
class GridSpec:
    """Uniform periodic grid: points per dimension, box size, dealias cut.

    ``dealias_fraction`` is the fraction of the Nyquist radius retained
    after nonlinear operations (2/3 rule by default, applied radially).
    """

    n: int
    period: float = 2.0 * math.pi
    dealias_fraction: float = 2.0 / 3.0

    def __post_init__(self) -> None:
        if self.n < 8 or self.n % 2 != 0:
            raise UsageError(f"grid size must be even and >= 8, got {self.n}")
        if not (self.period > 0.0):
            raise UsageError(f"period must be positive, got {self.period}")
        if not (0.0 < self.dealias_fraction <= 1.0):
            raise UsageError(
                f"dealias_fraction must lie in (0, 1], got {self.dealias_fraction}"
            )

    @property
    def freq_scale(self) -> float:
        """Spacing of the physical frequency lattice, 2*pi/period."""
        return 2.0 * math.pi / self.period

    @property
    def cell_area(self) -> float:
        return (self.period / self.n) ** 2

    @property
    def dealias_radius(self) -> float:
        """Largest physical |k| kept by the dealias mask."""
        return self.dealias_fraction * (self.n / 2) * self.freq_scale

    def axis_points(self) -> np.ndarray:
        return np.arange(self.n) * (self.period / self.n)


@lru_cache(maxsize=32)
def _grid_arrays(grid: GridSpec) -> SimpleNamespace:
    """Precomputed frequency arrays for a grid (cached per GridSpec)."""
    n = grid.n
    m = np.fft.fftfreq(n, d=1.0 / n)  # integer lattice in FFT order
    m1 = m[:, None] * np.ones((1, n))
    m2 = np.ones((n, 1)) * m[None, :]
    k1 = grid.freq_scale * m1
    k2 = grid.freq_scale * m2
    k_sq = k1 * k1 + k2 * k2
    k_abs = np.sqrt(k_sq)
    dealias_mask = k_abs <= grid.dealias_radius + 1e-12 * grid.freq_scale
    # The -n/2 column has no +n/2 partner; odd symbols must vanish there.
    nyquist = (m1 == -n // 2) | (m2 == -n // 2)
    # Riesz factor 1/|k|: zero at the origin and on the Nyquist lines.
    with np.errstate(divide="ignore"):
        inv_k_abs = np.where((k_abs > 0.0) & ~nyquist, 1.0 / k_abs, 0.0)
    arrays = (m1, m2, k1, k2, k_sq, k_abs, inv_k_abs, dealias_mask, nyquist)
    for arr in arrays:
        arr.flags.writeable = False
    return SimpleNamespace(
        m1=m1, m2=m2, k1=k1, k2=k2, k_sq=k_sq, k_abs=k_abs, inv_k_abs=inv_k_abs,
        dealias_mask=dealias_mask, nyquist=nyquist,
    )


def grid_arrays(grid: GridSpec) -> SimpleNamespace:
    """Public accessor for the cached frequency arrays of ``grid``."""
    return _grid_arrays(grid)


@lru_cache(maxsize=32)
def k_power(grid: GridSpec, gamma: float) -> np.ndarray:
    """Read-only ``|k|^gamma`` on the full lattice, cached per (grid, gamma).

    The one source of the dissipation exponent: heat and Gevrey symbols,
    the overflow guard and the diagnostics rows scale it by ``t`` on the
    fly, so no cache entry is keyed on a time value.
    """
    table = _grid_arrays(grid).k_abs ** gamma
    table.flags.writeable = False
    return table


@dataclass(frozen=True)
class SpectralField:
    """A scalar field held as Fourier coefficients on a grid.

    Treat instances as immutable; operations return new fields.
    """

    grid: GridSpec
    coeffs: np.ndarray

    def __post_init__(self) -> None:
        c = np.asarray(self.coeffs)
        if c.shape != (self.grid.n, self.grid.n):
            raise UsageError(
                f"coefficient array shape {c.shape} does not match grid n={self.grid.n}"
            )
        if c.dtype != np.complex128:
            c = c.astype(np.complex128)
        if c.flags.writeable:
            c = c.copy()
            c.flags.writeable = False
        object.__setattr__(self, "coeffs", c)

    def with_coeffs(self, coeffs: np.ndarray) -> "SpectralField":
        return SpectralField(self.grid, coeffs)

    def to_samples(self) -> np.ndarray:
        return inverse_transform(self)


def forward_transform(samples: np.ndarray, grid: GridSpec) -> SpectralField:
    """Real samples on the grid -> coefficient field (series convention)."""
    s = np.asarray(samples)
    if s.shape != (grid.n, grid.n):
        raise UsageError(f"sample array shape {s.shape} does not match grid n={grid.n}")
    if np.iscomplexobj(s):
        raise UsageError("forward_transform expects a real sample array")
    coeffs = np.fft.fft2(s) / (grid.n * grid.n)
    return SpectralField(grid, coeffs)


def inverse_transform(field: SpectralField) -> np.ndarray:
    """Coefficients -> real samples; errors if the field is not real.

    Imaginary residue below 1e-10 (relative) is round-off and is dropped;
    anything larger means the coefficients were not conjugate-symmetric.
    """
    n = field.grid.n
    z = np.fft.ifft2(field.coeffs) * (n * n)
    scale = float(np.max(np.abs(z)))
    if scale > 0.0:
        resid = float(np.max(np.abs(z.imag))) / scale
        if resid > 1e-10:
            raise SymmetryError(
                f"imaginary residue {resid:.3e} relative; coefficients are not "
                "conjugate-symmetric, no real field exists"
            )
    return np.ascontiguousarray(z.real)


def real_samples_unchecked(field: SpectralField) -> np.ndarray:
    """Real part of the inverse transform, skipping the symmetry guard.

    For internal compositions of even/odd symbols on real fields, where
    symmetry holds by construction and intermediate pieces may consist of
    round-off junk that would trip the relative-residue check.
    """
    n = field.grid.n
    return np.ascontiguousarray(np.fft.ifft2(field.coeffs).real) * (n * n)


def conjugate_flip(coeffs: np.ndarray) -> np.ndarray:
    """Return the array ``c~(k) = conj(c(-k))`` in FFT index order."""
    # Index -m is (n - m) % n: row and column 0 stay put, the rest reverse.
    out = np.empty_like(coeffs)
    out[0, 0] = coeffs[0, 0]
    out[0, 1:] = coeffs[0, :0:-1]
    out[1:, 0] = coeffs[:0:-1, 0]
    out[1:, 1:] = coeffs[:0:-1, :0:-1]
    return np.conjugate(out, out=out)


def hermitian_symmetrize(coeffs: np.ndarray) -> np.ndarray:
    """Project onto conjugate-symmetric arrays (the real-field subspace)."""
    out = conjugate_flip(coeffs)
    out += coeffs
    out *= 0.5
    return out


# ---------------------------------------------------------------------------
# Dyadic cutoff profile.
#
# The radial profile used by every projection in the package: identically 1
# for r <= 1, identically 0 for r >= 7/6, a polynomial smoothstep between.
# It is frozen here (order-8 smoothstep) so that all modules agree on the
# same partition of unity.
# ---------------------------------------------------------------------------

PROFILE_INNER = 1.0
PROFILE_OUTER = 7.0 / 6.0
PROFILE_ORDER = 8


def smoothstep(x: np.ndarray, order: int = PROFILE_ORDER) -> np.ndarray:
    """Polynomial smoothstep of the given order on [0, 1].

    Rises from 0 to 1 with the first ``order`` derivatives vanishing at
    both endpoints.
    """
    x = np.clip(np.asarray(x, dtype=float), 0.0, 1.0)
    acc = np.zeros_like(x)
    for k in range(order + 1):
        coeff = math.comb(order + k, k) * math.comb(2 * order + 1, order - k)
        acc = acc + coeff * (-x) ** k
    # The alternating sum cancels to ~1e-10 noise near x = 1; clip so the
    # profile (and every dyadic block built from differences of it) stays
    # inside [0, 1].
    return np.clip(x ** (order + 1) * acc, 0.0, 1.0)


def radial_profile(r: np.ndarray, order: int = PROFILE_ORDER) -> np.ndarray:
    """Low-pass profile: 1 for r <= 1, 0 for r >= 7/6, smooth in between."""
    r = np.asarray(r, dtype=float)
    t = (r - PROFILE_INNER) / (PROFILE_OUTER - PROFILE_INNER)
    return 1.0 - smoothstep(t)


# ---------------------------------------------------------------------------
# Fourier multipliers.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MultiplierSpec:
    """A radial (or Riesz) Fourier multiplier with validated parameters.

    Kinds and their symbols:

    * ``fractional_laplacian(s)``:      |k|^s        (zero mode -> 0)
    * ``heat(nu, t, gamma)``:           exp(-nu t |k|^gamma)
    * ``gevrey(lam, t, gamma)``:        exp(+lam t |k|^gamma), guarded
    * ``riesz_component(axis)``:        i k_axis / |k|  (0 at the origin)
    * ``low_pass(j)``:                  profile(|k| / 2^j)
    * ``block(j)``:                     profile(|k|/2^j) - profile(|k|/2^(j-1))

    The gevrey kind grows without bound, so applying it is guarded: modes
    whose exponent exceeds ``cap`` must carry no data (relative magnitude
    below 1e-13), otherwise the apply raises ``OverflowGuardError``.
    """

    kind: str
    params: tuple = ()
    cap: float = GEVREY_EXPONENT_CAP

    # -- factories ---------------------------------------------------------

    @staticmethod
    def fractional_laplacian(s: float) -> "MultiplierSpec":
        return MultiplierSpec("fractional_laplacian", (float(s),))

    @staticmethod
    def heat(nu: float, t: float, gamma: float) -> "MultiplierSpec":
        if nu * t < 0.0:
            raise UsageError("heat multiplier needs nu * t >= 0 (else use gevrey)")
        _check_gamma(gamma)
        return MultiplierSpec("heat", (float(nu), float(t), float(gamma)))

    @staticmethod
    def gevrey(lam: float, t: float, gamma: float,
               cap: float = GEVREY_EXPONENT_CAP) -> "MultiplierSpec":
        if lam * t < 0.0:
            raise UsageError("gevrey multiplier needs lam * t >= 0 (else use heat)")
        _check_gamma(gamma)
        return MultiplierSpec("gevrey", (float(lam), float(t), float(gamma)), cap)

    @staticmethod
    def riesz_component(axis: int) -> "MultiplierSpec":
        if axis not in (0, 1):
            raise UsageError(f"riesz axis must be 0 or 1, got {axis}")
        return MultiplierSpec("riesz_component", (axis,))

    @staticmethod
    def low_pass(j: int) -> "MultiplierSpec":
        return MultiplierSpec("low_pass", (int(j),))

    @staticmethod
    def block(j: int) -> "MultiplierSpec":
        return MultiplierSpec("block", (int(j),))

    # -- evaluation --------------------------------------------------------

    def symbol_on(self, grid: GridSpec) -> np.ndarray:
        """Symbol values on the grid's frequency lattice.

        For the gevrey kind, entries past the exponent cap are set to 0;
        the guard in :func:`apply_multiplier` ensures such entries never
        multiply actual data.  Heat and gevrey symbols depend on ``t`` and
        are built from the cached ``|k|^gamma`` table on every call; the
        other kinds are cached per (spec, grid).
        """
        if self.kind == "heat":
            nu, t, gamma = self.params
            sym = np.exp(-nu * t * k_power(grid, gamma))
        elif self.kind == "gevrey":
            lam, t, gamma = self.params
            expo = lam * t * k_power(grid, gamma)
            sym = np.where(expo <= self.cap, np.exp(np.minimum(expo, self.cap)), 0.0)
        else:
            return _symbol_cached(self, grid)
        sym.flags.writeable = False
        return sym


def _check_gamma(gamma: float) -> None:
    if not (0.0 < gamma <= 2.0):
        raise UsageError(f"dissipation exponent gamma must lie in (0, 2], got {gamma}")


@lru_cache(maxsize=64)
def _symbol_cached(mult: MultiplierSpec, grid: GridSpec) -> np.ndarray:
    ga = _grid_arrays(grid)
    kind, p = mult.kind, mult.params
    if kind == "fractional_laplacian":
        (s,) = p
        with np.errstate(divide="ignore", invalid="ignore"):
            sym = np.where(ga.k_abs > 0.0, ga.k_abs ** s, 0.0)
    elif kind == "riesz_component":
        (axis,) = p
        comp = ga.k1 if axis == 0 else ga.k2
        with np.errstate(divide="ignore", invalid="ignore"):
            sym = np.where(ga.k_abs > 0.0, comp / ga.k_abs, 0.0)
        sym = np.where(ga.nyquist, 0.0, sym) * 1j
    elif kind == "low_pass":
        (j,) = p
        sym = radial_profile(ga.k_abs / 2.0 ** j)
    elif kind == "block":
        (j,) = p
        sym = radial_profile(ga.k_abs / 2.0 ** j) - radial_profile(ga.k_abs / 2.0 ** (j - 1))
    else:
        raise UsageError(f"unknown multiplier kind {kind!r}")
    sym = np.asarray(sym)
    sym.flags.writeable = False
    return sym


def apply_multiplier(field: SpectralField, mult: MultiplierSpec) -> SpectralField:
    """Multiply coefficients by the symbol; guarded for growing symbols."""
    if mult.kind == "gevrey":
        _gevrey_guard(field, mult)
    sym = mult.symbol_on(field.grid)
    return SpectralField(field.grid, field.coeffs * sym)


def _gevrey_guard(field: SpectralField, mult: MultiplierSpec) -> None:
    lam, t, gamma = mult.params
    _check_exponents(lam * t * k_power(field.grid, gamma), field.coeffs, mult.cap)


def _check_exponents(expo: np.ndarray, coeffs: np.ndarray, cap: float) -> None:
    """Raise if a mode whose weight exponent exceeds ``cap`` carries data.

    ``expo`` and ``coeffs`` cover the same modes: the full lattice, or the
    half spectrum of a real field (which holds every magnitude).
    """
    over = expo > cap
    if not np.any(over):
        return
    mag = np.abs(coeffs)
    floor = SUPPORT_THRESHOLD * float(mag.max())
    if np.any(over & (mag > floor)):
        worst = float(np.max(expo[mag > floor]))
        raise OverflowGuardError(
            f"analyticity weight exponent {worst:.1f} exceeds cap {cap:.0f} "
            "on populated modes; shorten the time horizon or reduce the weight"
        )


def riesz_perp(field: SpectralField) -> tuple[SpectralField, SpectralField]:
    """Divergence-free velocity from a scalar: u = (-R2 f, R1 f).

    In symbols: ``u^(k) = i k_perp / |k| * f^(k)`` with ``k_perp = (-k2, k1)``.
    """
    ga = _grid_arrays(field.grid)
    c = field.coeffs
    u1 = SpectralField(field.grid, (-1j) * ga.k2 * ga.inv_k_abs * c)
    u2 = SpectralField(field.grid, (+1j) * ga.k1 * ga.inv_k_abs * c)
    return u1, u2


# ---------------------------------------------------------------------------
# The rfft half spectrum: columns 0..n/2 of a real field's coefficients.
# ---------------------------------------------------------------------------


def synthesize(grid: GridSpec, half: np.ndarray) -> np.ndarray:
    """Half-spectrum coefficients -> real samples, over the last two axes.

    ``half`` holds columns ``0..n/2`` of full coefficient arrays of real
    fields (any leading stack axes); the missing columns are implied by
    conjugate symmetry.  No symmetry guard runs: callers pass half spectra
    of real fields, which are real by construction.
    """
    if half.ndim > 2:
        # One irfft2 per field: a single call on a stack of five measured
        # 1.6-1.8x slower per field at 128^2 and 256^2 (2-vCPU host, one
        # thread), and no faster on a stack of two.
        return np.stack([synthesize(grid, h) for h in half])
    n = grid.n
    return scipy.fft.irfft2(half, s=(n, n), norm="forward")


def analyze(grid: GridSpec, samples: np.ndarray) -> np.ndarray:
    """Real samples -> half-spectrum coefficients, over the last two axes.

    Same series convention as :func:`forward_transform`, columns ``0..n/2``.
    """
    return scipy.fft.rfft2(samples, norm="forward")


@lru_cache(maxsize=32)
def parseval_columns(grid: GridSpec) -> np.ndarray:
    """Column weights turning a half-spectrum sum into the full-lattice sum.

    For a real field and an even weight g(k), ``sum_k g |c|^2`` over the
    full lattice equals the half-spectrum sum with each column ``0 < m2 <
    n/2`` counted twice (it stands for its conjugate partner ``-m2`` too);
    columns 0 and n/2 are their own partners and count once.
    """
    weights = np.full(grid.n // 2 + 1, 2.0)
    weights[0] = weights[-1] = 1.0
    weights.flags.writeable = False
    return weights


def half_power(grid: GridSpec, coeffs: np.ndarray) -> np.ndarray:
    """Parseval mass of each half-spectrum mode of a real field.

    ``parseval_columns * |c|^2`` over columns ``0..n/2`` of ``coeffs`` (full
    or half), so that for any even weight g, ``period^2 * sum(g * P)`` is
    the full-lattice sum ``period^2 * sum_k g |c(k)|^2``.
    """
    half = coeffs[:, : grid.n // 2 + 1]
    power = half.real * half.real
    power += half.imag * half.imag
    power *= parseval_columns(grid)
    return power


@lru_cache(maxsize=32)
def sobolev_weights(grid: GridSpec, r: float, homogeneous: bool = False) -> np.ndarray:
    """Read-only Sobolev weights of order ``r`` on the half spectrum.

    Homogeneous: ``|k|^(2r)`` with 0 at the origin (1 everywhere for
    ``r = 0``); inhomogeneous: ``(1 + |k|^2)^r``.
    """
    ga = _grid_arrays(grid)
    if homogeneous:
        if r == 0.0:
            weights = np.ones_like(ga.k_abs)
        else:
            with np.errstate(divide="ignore", invalid="ignore"):
                weights = np.where(ga.k_abs > 0.0, ga.k_abs ** (2.0 * r), 0.0)
    else:
        weights = (1.0 + ga.k_sq) ** r
    weights = np.ascontiguousarray(weights[:, : grid.n // 2 + 1])
    weights.flags.writeable = False
    return weights


def weighted_norm(grid: GridSpec, weights: np.ndarray, power: np.ndarray) -> float:
    """``sqrt(period^2 * sum(weights * power))`` for a :func:`half_power` array."""
    return math.sqrt(grid.period ** 2 * float(np.vdot(weights, power)))


def gevrey_half_weight(grid: GridSpec, lam: float, t: float, gamma: float,
                       coeffs: np.ndarray) -> np.ndarray:
    """Gevrey weight ``exp(lam t |k|^gamma)`` on the half spectrum.

    Same guard as applying :meth:`MultiplierSpec.gevrey` to the real field
    with coefficients ``coeffs`` (full or half): modes past the exponent
    cap get weight 0 if they carry no data, and raise
    ``OverflowGuardError`` if they do.
    """
    m = grid.n // 2 + 1
    cap = GEVREY_EXPONENT_CAP
    expo = lam * t * k_power(grid, gamma)[:, :m]
    _check_exponents(expo, coeffs[:, :m], cap)
    return np.where(expo <= cap, np.exp(np.minimum(expo, cap)), 0.0)


# ---------------------------------------------------------------------------
# Transport: the dealiased advective product on the rfft half spectrum.
# ---------------------------------------------------------------------------


@lru_cache(maxsize=32)
def _transport_operator(grid: GridSpec) -> SimpleNamespace:
    """Stacked ``[R_perp_1, R_perp_2, i k1, i k2]`` on the rfft half spectrum.

    The odd symbols are zeroed on the unpaired Nyquist lines, so every
    operator maps real fields to real fields exactly.  Also holds the half
    dealias mask and the row permutation ``m1 -> -m1``.
    """
    ga = _grid_arrays(grid)
    n = grid.n
    half = slice(0, n // 2 + 1)
    k1 = np.where(ga.nyquist, 0.0, ga.k1)[:, half]
    k2 = np.where(ga.nyquist, 0.0, ga.k2)[:, half]
    inv = ga.inv_k_abs[:, half]
    stack = np.stack([(-1j) * k2 * inv, (+1j) * k1 * inv, 1j * k1, 1j * k2])
    mask = ga.dealias_mask[:, half].astype(np.float64)
    rows = (-np.arange(n)) % n
    for arr in (stack, mask, rows):
        arr.flags.writeable = False
    return SimpleNamespace(stack=stack, mask=mask, rows=rows)


def transport(grid: GridSpec, source: np.ndarray,
              target: np.ndarray) -> tuple[np.ndarray, float]:
    """Dealiased advection of ``target`` by the velocity of ``source``.

    Returns ``(dealias(R_perp source . grad target), max |R_perp source|)``:
    full-spectrum coefficients of the product, exactly conjugate-symmetric
    and with the mean mode pinned to 0 (the product of a divergence-free
    velocity with a gradient has zero mean), plus the largest sampled
    speed.  Both inputs are full coefficient arrays of real fields; only
    their rfft half spectra (columns ``0..n/2``) are read.  Four ``irfft2``
    and one ``rfft2`` per call.
    """
    op = _transport_operator(grid)
    n = grid.n
    m = n // 2 + 1
    spec = np.empty((4, n, m), dtype=np.complex128)
    np.multiply(op.stack[:2], source[:, :m], out=spec[:2])
    np.multiply(op.stack[2:], target[:, :m], out=spec[2:])
    # Slice by slice: the outputs are used apart, so skip the stacking copy.
    u1, u2, gx, gy = (synthesize(grid, c) for c in spec)
    speed_sq = u1 * u1
    speed_sq += u2 * u2
    umax = math.sqrt(float(speed_sq.max()))
    u1 *= gx
    u2 *= gy
    u1 += u2
    half = analyze(grid, u1)
    half *= op.mask
    # Columns 0 and n/2 are their own conjugate partners; symmetrize them so
    # the extension below is exactly Hermitian.
    edge = half[:, :: n // 2]
    half[:, :: n // 2] = 0.5 * (edge + np.conj(edge[op.rows]))
    half[0, 0] = 0.0
    # Hermitian extension: c(m1, m2) = conj(c(-m1, -m2)) for m2 < 0.
    out = np.empty((n, n), dtype=np.complex128)
    out[:, :m] = half
    np.conjugate(half[0, n // 2 - 1 : 0 : -1], out=out[0, m:])
    np.conjugate(half[:0:-1, n // 2 - 1 : 0 : -1], out=out[1:, m:])
    return out, umax


# ---------------------------------------------------------------------------
# Norms.
# ---------------------------------------------------------------------------


def sobolev_norm(field: SpectralField, r: float, homogeneous: bool = False) -> float:
    """Sobolev norm of order ``r`` via Parseval.

    Homogeneous: ``(period^2 * sum_{k!=0} |k|^(2r) |c|^2)^(1/2)``; negative
    ``r`` requires a mean-free field.  Inhomogeneous uses ``(1+|k|^2)^r``.
    The sum runs over the half spectrum (:func:`half_power`).
    """
    c = field.coeffs
    if homogeneous and r < 0.0:
        mean_mag = abs(c[0, 0])
        scale = float(np.max(np.abs(c)))
        if scale > 0.0 and mean_mag > 1e-12 * scale:
            raise UsageError(
                "homogeneous norm of negative order requires a mean-free field"
            )
    grid = field.grid
    return weighted_norm(grid, sobolev_weights(grid, r, homogeneous), half_power(grid, c))


def lp_norm(samples: np.ndarray, p: float, cell_volume: float = 1.0) -> float:
    """L^p norm of a sample array with uniform-cell quadrature weight."""
    if p < 1.0:
        raise UsageError(f"L^p norm needs p >= 1, got {p}")
    a = np.abs(np.asarray(samples, dtype=float))
    if math.isinf(p):
        return float(a.max()) if a.size else 0.0
    if p == 1.0:
        return float(a.sum()) * cell_volume
    if p == 2.0:
        return math.sqrt(float(np.sum(a * a)) * cell_volume)
    return float(np.sum(a ** p) * cell_volume) ** (1.0 / p)


def field_lp_norm(field: SpectralField, p: float) -> float:
    """L^p norm of the real field represented by ``field``."""
    return lp_norm(inverse_transform(field), p, field.grid.cell_area)


# ---------------------------------------------------------------------------
# Serialization: a small binary container.
# ---------------------------------------------------------------------------

_MAGIC = b"SQGF"
_LAYOUT = b"ri-rowmajor\x00"  # interleaved re/im doubles, row-major, FFT order
_HEADER = struct.Struct("<4sIIdd12s")


def field_to_bytes(field: SpectralField) -> bytes:
    """Binary container form: fixed header followed by the raw coefficients."""
    g = field.grid
    header = _HEADER.pack(_MAGIC, 1, g.n, g.period, g.dealias_fraction, _LAYOUT)
    payload = np.ascontiguousarray(field.coeffs).view(np.float64).tobytes()
    return header + payload


def field_from_bytes(blob: bytes, origin: str = "<bytes>") -> SpectralField:
    """Inverse of :func:`field_to_bytes`."""
    if len(blob) < _HEADER.size:
        raise UsageError(f"{origin}: truncated field header")
    magic, version, n, period, frac, layout = _HEADER.unpack(blob[: _HEADER.size])
    if magic != _MAGIC:
        raise UsageError(f"{origin}: not a field container (bad magic)")
    if version != 1:
        raise UsageError(f"{origin}: unsupported container version {version}")
    if layout != _LAYOUT:
        raise UsageError(f"{origin}: unknown payload layout {layout!r}")
    data = np.frombuffer(blob[_HEADER.size :], dtype=np.float64)
    if data.size != 2 * n * n:
        raise UsageError(f"{origin}: payload size mismatch for n={n}")
    coeffs = data.view(np.complex128).reshape(n, n)
    return SpectralField(GridSpec(n, period, frac), coeffs)


def save_field(field: SpectralField, path: str) -> None:
    """Write a field to the binary container format."""
    with open(path, "wb") as fh:
        fh.write(field_to_bytes(field))


def load_field(path: str) -> SpectralField:
    """Read a field written by :func:`save_field`."""
    with open(path, "rb") as fh:
        blob = fh.read()
    return field_from_bytes(blob, origin=path)
