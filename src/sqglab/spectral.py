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

Fields are real, so their coefficients are conjugate-symmetric,
``c(-k) = conj(c(k))``, and the rfft half spectrum, columns ``0..n/2`` of
the lattice (an ``(n, n/2 + 1)`` array), holds every one of them.  It is
the only layout in memory: :class:`SpectralField`, every operator and every
per-grid table use it.  The full ``(n, n)`` lattice appears only at the
``.sqgf`` boundary (:func:`field_to_bytes`, :func:`field_from_bytes`) and
in :func:`full_spectrum`.  Odd symbols are zeroed on the unpaired Nyquist
lines, so every operator maps real fields to real fields exactly.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from functools import lru_cache
from types import SimpleNamespace
from typing import NamedTuple, Optional

import numpy as np

from .errors import OverflowGuardError, SymmetryError, UsageError

__all__ = [
    "GridSpec",
    "SpectralField",
    "forward_transform",
    "riesz_perp",
    "synthesize",
    "analyze",
    "parseval_columns",
    "half_power",
    "k_power",
    "sobolev_weights",
    "gevrey_half_weight",
    "weighted_norm",
    "velocity",
    "transport",
    "full_spectrum",
    "sobolev_norm",
    "lp_norm",
    "field_lp_norm",
    "smoothstep",
    "radial_profile",
    "low_pass_symbol",
    "block_symbol",
    "save_field",
    "load_field",
]

#: Default cap on analyticity-weight exponents; exp(500) is near the top of
#: double range and anything close to it is numerically meaningless anyway.
GEVREY_EXPONENT_CAP = 500.0

#: Coefficients with relative magnitude below this are treated as absent
#: when the overflow guard decides whether a weight may be applied.
SUPPORT_THRESHOLD = 1e-13

#: Largest gap, relative to the largest coefficient, between a loaded mode
#: and the conjugate of its partner that is taken for round-off.
SYMMETRY_TOLERANCE = 1e-10


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
def grid_arrays(grid: GridSpec) -> SimpleNamespace:
    """Read-only frequency arrays on the grid's half spectrum, cached per grid.

    Rows run over ``m1`` in FFT order, columns over ``m2 = 0..n/2 - 1`` and
    then the Nyquist column, which FFT order labels ``-n/2``.  ``negated``
    is the index of ``-m`` for each FFT-order index ``m``: it pairs each
    mode with its conjugate partner.
    """
    n = grid.n
    m = np.fft.fftfreq(n, d=1.0 / n)  # integer lattice in FFT order
    m1 = m[:, None] * np.ones((1, n // 2 + 1))
    m2 = np.ones((n, 1)) * m[None, : n // 2 + 1]
    k1 = grid.freq_scale * m1
    k2 = grid.freq_scale * m2
    k_sq = k1 * k1 + k2 * k2
    k_abs = np.sqrt(k_sq)
    dealias_mask = k_abs <= grid.dealias_radius + 1e-12 * grid.freq_scale
    # The -n/2 row and column have no +n/2 partner; odd symbols must vanish
    # there.
    nyquist = (m1 == -n // 2) | (m2 == -n // 2)
    # Riesz factor 1/|k|: zero at the origin and on the Nyquist lines.
    with np.errstate(divide="ignore"):
        inv_k_abs = np.where((k_abs > 0.0) & ~nyquist, 1.0 / k_abs, 0.0)
    negated = (-np.arange(n)) % n
    arrays = (m1, m2, k1, k2, k_sq, k_abs, inv_k_abs, dealias_mask, nyquist, negated)
    for arr in arrays:
        arr.flags.writeable = False
    return SimpleNamespace(
        m1=m1, m2=m2, k1=k1, k2=k2, k_sq=k_sq, k_abs=k_abs, inv_k_abs=inv_k_abs,
        dealias_mask=dealias_mask, nyquist=nyquist, negated=negated,
    )


@lru_cache(maxsize=32)
def k_power(grid: GridSpec, gamma: float) -> np.ndarray:
    """Read-only ``|k|^gamma`` on the half spectrum, cached per (grid, gamma).

    The one source of the dissipation exponent: heat and Gevrey factors,
    the overflow guard and the diagnostics rows scale it by ``t`` on the
    fly, so no cache entry is keyed on a time value.
    """
    table = grid_arrays(grid).k_abs ** gamma
    table.flags.writeable = False
    return table


@dataclass(frozen=True)
class SpectralField:
    """A real scalar field held as its rfft half spectrum on a grid.

    ``coeffs`` is the ``(n, n/2 + 1)`` array of columns ``0..n/2`` of the
    field's Fourier coefficients; the others follow from conjugate symmetry
    (:func:`full_spectrum`).  Treat instances as immutable; operations
    return new fields.
    """

    grid: GridSpec
    coeffs: np.ndarray

    def __post_init__(self) -> None:
        c = np.asarray(self.coeffs)
        n = self.grid.n
        if c.shape != (n, n // 2 + 1):
            raise UsageError(
                f"coefficient array shape {c.shape} is not the half spectrum "
                f"{(n, n // 2 + 1)} of grid n={n}"
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
        """The field's real samples on the grid."""
        return synthesize(self.grid, self.coeffs)


def forward_transform(samples: np.ndarray, grid: GridSpec) -> SpectralField:
    """Real samples on the grid -> coefficient field (series convention)."""
    s = np.asarray(samples)
    if s.shape != (grid.n, grid.n):
        raise UsageError(f"sample array shape {s.shape} does not match grid n={grid.n}")
    if np.iscomplexobj(s):
        raise UsageError("forward_transform expects a real sample array")
    half = analyze(grid, s)
    _symmetrize_edges(half[:, :: grid.n // 2], grid_arrays(grid).negated)
    return SpectralField(grid, half)


def _symmetrize_edges(edge: np.ndarray, rows: np.ndarray,
                      scratch: np.ndarray | None = None) -> None:
    """Make the columns ``edge`` of a half spectrum exactly
    conjugate-symmetric, in place.

    Columns 0 and n/2 are their own conjugate partners,
    ``c(-m1) = conj(c(m1))`` with ``rows`` the permutation ``m1 -> -m1``; a
    transform leaves them symmetric only to round-off.  ``scratch``, shaped
    like ``edge``, holds the flipped columns.
    """
    flip = np.take(edge, rows, axis=0, out=scratch, mode="wrap")
    np.conjugate(flip, out=flip)
    flip += edge
    flip *= 0.5
    edge[...] = flip


# ---------------------------------------------------------------------------
# Dyadic cutoff profile and its symbols.
#
# The radial profile used by every projection in the package: identically 1
# for r <= 1, identically 0 for r >= 7/6, a polynomial smoothstep between.
# It is frozen here (order-8 smoothstep) so that all modules agree on the
# same partition of unity.  The Littlewood-Paley low-pass S_j and block P_j
# are this profile at scale 2^j, one cached function each.
# ---------------------------------------------------------------------------

PROFILE_INNER = 1.0
PROFILE_OUTER = 7.0 / 6.0
PROFILE_ORDER = 8


def smoothstep(x: np.ndarray) -> np.ndarray:
    """Polynomial smoothstep of order ``PROFILE_ORDER`` on [0, 1].

    Rises from 0 to 1 with the first ``PROFILE_ORDER`` derivatives vanishing
    at both endpoints.
    """
    x = np.clip(np.asarray(x, dtype=float), 0.0, 1.0)
    acc = np.zeros_like(x)
    for k in range(PROFILE_ORDER + 1):
        coeff = math.comb(PROFILE_ORDER + k, k) * math.comb(
            2 * PROFILE_ORDER + 1, PROFILE_ORDER - k)
        acc = acc + coeff * (-x) ** k
    # The alternating sum cancels to ~1e-10 noise near x = 1; clip so the
    # profile (and every dyadic block built from differences of it) stays
    # inside [0, 1].
    return np.clip(x ** (PROFILE_ORDER + 1) * acc, 0.0, 1.0)


def radial_profile(r: np.ndarray) -> np.ndarray:
    """Low-pass profile: 1 for r <= 1, 0 for r >= 7/6, smooth in between."""
    r = np.asarray(r, dtype=float)
    t = (r - PROFILE_INNER) / (PROFILE_OUTER - PROFILE_INNER)
    # smoothstep is exactly 0 for t <= 0 and exactly 1 for t >= 1 (there its
    # alternating sum adds exact integers), so only the transition band
    # needs the polynomial; the table is bitwise 1 - smoothstep(t).
    below, above = t <= 0.0, t >= 1.0
    out = np.where(below, 1.0, 0.0)
    band = ~(below | above)
    out[band] = 1.0 - smoothstep(t[band])
    return out


@lru_cache(maxsize=32)
def low_pass_symbol(grid: GridSpec, j: int) -> np.ndarray:
    """Read-only low-pass ``S_j`` symbol ``profile(|k| / 2^j)`` on the half
    spectrum, cached per (grid, j)."""
    table = radial_profile(grid_arrays(grid).k_abs / 2.0 ** j)
    table.flags.writeable = False
    return table


@lru_cache(maxsize=32)
def block_symbol(grid: GridSpec, j: int) -> np.ndarray:
    """Read-only dyadic block ``P_j`` symbol
    ``profile(|k| / 2^j) - profile(|k| / 2^(j-1))`` on the half spectrum,
    cached per (grid, j)."""
    k_abs = grid_arrays(grid).k_abs
    table = radial_profile(k_abs / 2.0 ** j) - radial_profile(k_abs / 2.0 ** (j - 1))
    table.flags.writeable = False
    return table


# ---------------------------------------------------------------------------
# Fourier multipliers.
# ---------------------------------------------------------------------------


def _capped_gevrey_weight(kpow: np.ndarray, lam: float, t: float,
                          coeffs: np.ndarray) -> tuple:
    """``(exp(lam t |k|^gamma), lam t |k|^gamma)`` with ``kpow`` the table of
    ``|k|^gamma`` on the modes of ``coeffs``.

    A mode whose exponent exceeds ``GEVREY_EXPONENT_CAP`` gets weight 0 if
    it carries no data in ``coeffs``; if it does, raise.
    """
    cap = GEVREY_EXPONENT_CAP
    expo = lam * t * kpow
    over = expo > cap
    if np.any(over):
        mag = np.abs(coeffs)
        floor = SUPPORT_THRESHOLD * float(mag.max())
        if np.any(over & (mag > floor)):
            worst = float(np.max(expo[mag > floor]))
            raise OverflowGuardError(
                f"analyticity weight exponent {worst:.1f} exceeds cap {cap:.0f} "
                "on populated modes; shorten the time horizon or reduce the weight"
            )
    return np.where(expo <= cap, np.exp(np.minimum(expo, cap)), 0.0), expo


def riesz_perp(field: SpectralField) -> tuple[SpectralField, SpectralField]:
    """Divergence-free velocity from a scalar: u = (-R2 f, R1 f).

    In symbols: ``u^(k) = i k_perp / |k| * f^(k)`` with ``k_perp = (-k2, k1)``.
    """
    ga = grid_arrays(field.grid)
    c = field.coeffs
    u1 = SpectralField(field.grid, (-1j) * ga.k2 * ga.inv_k_abs * c)
    u2 = SpectralField(field.grid, (+1j) * ga.k1 * ga.inv_k_abs * c)
    return u1, u2


# ---------------------------------------------------------------------------
# The rfft half spectrum: columns 0..n/2 of a real field's coefficients.
# ---------------------------------------------------------------------------


def _inverse_pass(spec: np.ndarray, columns: np.ndarray, out: np.ndarray) -> np.ndarray:
    """One 2-D inverse transform: the seam every sample synthesis goes through.

    ``spec`` holds columns ``0..w-1`` of a half spectrum whose later columns
    are zero.  A column pass (``ifft`` along axis 0) writes them into
    ``columns[:, :w]``, an ``(n, n/2 + 1)`` array whose columns from ``w`` on
    must already be zero, and a row pass (``irfft`` along axis 1) writes the
    real samples into ``out``.  Both passes are unscaled, as ``irfft2`` with
    ``norm="forward"``, which they equal bitwise.  An ``irfft`` row pass that
    pads a narrow input itself ran 1.4x slower than on the zero tail.
    """
    w = spec.shape[-1]
    np.fft.ifft(spec, axis=-2, norm="forward", out=columns[..., :w])
    return np.fft.irfft(columns, n=out.shape[-1], axis=-1, norm="forward", out=out)


def _forward_pass(samples: np.ndarray, rows: np.ndarray, out: np.ndarray) -> np.ndarray:
    """One 2-D forward transform: the seam every sample analysis goes through.

    A row pass (``rfft`` along axis 1) writes the ``(n, n/2 + 1)`` array
    ``rows``, and a column pass (``fft`` along axis 0) writes its columns
    ``0..w-1`` into ``out``, of width ``w``.  Each pass scales by ``1/n``, so
    the result is ``rfft2(samples, norm="forward")``, bitwise when ``n`` is a
    power of two and within a rounding of it otherwise.
    """
    np.fft.rfft(samples, axis=-1, norm="forward", out=rows)
    return np.fft.fft(rows[..., : out.shape[-1]], axis=-2, norm="forward", out=out)


def synthesize(grid: GridSpec, half: np.ndarray) -> np.ndarray:
    """Half-spectrum coefficients -> real samples, over the last two axes.

    ``half`` holds the ``(n, n/2 + 1)`` half spectra of real fields (any
    leading stack axes); the missing columns are implied by conjugate
    symmetry, so the samples are real by construction.  The column pass of
    each field stops at its last column holding a nonzero value: past it,
    the pass would only write zeros.
    """
    n = grid.n
    out = np.empty(half.shape[:-1] + (n,))
    # One transform per field, so that each column pass stops at its own
    # width.  One call on a stack of equal widths is faster: five fields at
    # 128^2 took 0.22 ms as one call against 0.24 ms field by field at 10
    # columns, and 0.35 against 0.38 ms at all 65 (numpy 2.4.6, 2-vCPU host,
    # one thread), with bitwise-equal samples; _SupportSynthesis makes that
    # one call.
    for spec, samples in zip(half.reshape((-1,) + half.shape[-2:]), out.reshape(-1, n, n)):
        occupied = spec.any(axis=0).nonzero()[0]
        w = occupied[-1] + 1 if occupied.size else 0
        _inverse_pass(spec[:, :w], np.zeros(spec.shape, np.complex128), samples)
    return out


def _support_box(table: np.ndarray) -> tuple[int, int, int]:
    """``(top, bottom, width)``: the rows ``0..top-1`` and ``n-bottom..n-1``
    by the columns ``0..width-1`` of an ``(n, n/2 + 1)`` half-spectrum table
    hold all its nonzero entries.

    ``top`` ends after the last nonzero row of the upper half (rows
    ``0..n/2``), ``bottom`` starts at the first nonzero row of the lower
    half, and ``width`` ends after the last nonzero column.  So the box
    keeps the rows near ``m1 = 0`` where an outer annulus, such as block 7
    at 128^2, has no support: the first zero row does not end it.
    """
    n = table.shape[0]
    rows = np.flatnonzero(table.any(axis=1))
    cols = np.flatnonzero(table.any(axis=0))
    upper, lower = rows[rows <= n // 2], rows[rows > n // 2]
    top = int(upper[-1]) + 1 if upper.size else 0
    bottom = n - int(lower[0]) if lower.size else 0
    width = int(cols[-1]) + 1 if cols.size else 0
    return top, bottom, width


class _SupportSynthesis:
    """The samples of ``ops * coeffs`` for a fixed stack ``ops`` of ``k``
    half-spectrum tables and half spectra ``coeffs`` that vanish off the
    support box of ``support`` (:func:`_support_box`), in buffers allocated
    once and overwritten by each call (single-threaded use):

    * ``ops``, ``(k, rows, width)``: the stack gathered on the box;
    * ``spectrum``, ``(k, n, width)``: the product, whose rows off the box
      stay zero;
    * ``columns``, ``(k, n, n/2 + 1)``: the column pass, zero from
      ``width`` on;
    * ``samples``, ``(k, n, n)``: the result of the last call.

    The whole stack goes through one inverse pass (see :func:`synthesize`).
    Off the box ``coeffs`` may hold zeros of either sign, which a product of
    the whole arrays would pass to the column pass; here those rows stay
    ``+0``, which changes no sample that is not itself zero.
    """

    def __init__(self, grid: GridSpec, ops: np.ndarray, support: np.ndarray):
        n = grid.n
        self.top, self.bottom, width = _support_box(support)
        rows = np.r_[0 : self.top, n - self.bottom : n]
        self.ops = np.ascontiguousarray(ops[:, rows, :width])
        self.spectrum = np.zeros((len(ops), n, width), np.complex128)
        self.columns = np.zeros(ops.shape, np.complex128)
        self.samples = np.empty((len(ops), n, n))

    def __call__(self, coeffs: np.ndarray) -> np.ndarray:
        top, spec = self.top, self.spectrum
        width, lower = spec.shape[-1], spec.shape[-2] - self.bottom
        np.multiply(self.ops[:, :top], coeffs[:top, :width], out=spec[:, :top])
        np.multiply(self.ops[:, top:], coeffs[lower:, :width], out=spec[:, lower:])
        return _inverse_pass(spec, self.columns, self.samples)


def analyze(grid: GridSpec, samples: np.ndarray) -> np.ndarray:
    """Real samples -> half-spectrum coefficients, over the last two axes.

    Same series convention as :func:`forward_transform`, columns ``0..n/2``.
    """
    shape = samples.shape[:-1] + (grid.n // 2 + 1,)
    rows = np.empty(shape, np.complex128)
    return _forward_pass(samples, rows, np.empty(shape, np.complex128))


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

    ``parseval_columns * |c|^2`` over the half spectrum ``coeffs``, so that
    for any even weight g, ``period^2 * sum(g * P)`` is the full-lattice sum
    ``period^2 * sum_k g |c(k)|^2``.  ``coeffs`` may also be a field
    restricted to a block (:class:`_Block`), whose columns are the first
    ones of the half spectrum; the sums then run over the block.
    """
    power = coeffs.real * coeffs.real
    power += coeffs.imag * coeffs.imag
    power *= parseval_columns(grid)[: coeffs.shape[-1]]
    return power


@lru_cache(maxsize=32)
def sobolev_weights(grid: GridSpec, r: float, homogeneous: bool = False) -> np.ndarray:
    """Read-only Sobolev weights of order ``r`` on the half spectrum.

    Homogeneous: ``|k|^(2r)`` with 0 at the origin (1 everywhere for
    ``r = 0``); inhomogeneous: ``(1 + |k|^2)^r``.
    """
    ga = grid_arrays(grid)
    if homogeneous:
        if r == 0.0:
            weights = np.ones_like(ga.k_abs)
        else:
            with np.errstate(divide="ignore", invalid="ignore"):
                weights = np.where(ga.k_abs > 0.0, ga.k_abs ** (2.0 * r), 0.0)
    else:
        weights = (1.0 + ga.k_sq) ** r
    weights.flags.writeable = False
    return weights


def weighted_norm(grid: GridSpec, weights: np.ndarray, power: np.ndarray) -> float:
    """``sqrt(period^2 * sum(weights * power))`` for a :func:`half_power` array."""
    return math.sqrt(grid.period ** 2 * float(np.vdot(weights, power)))


def gevrey_half_weight(grid: GridSpec, lam: float, t: float, gamma: float,
                       coeffs: np.ndarray, kpow: Optional[np.ndarray] = None,
                       out: Optional[np.ndarray] = None) -> np.ndarray:
    """Gevrey weight ``exp(lam t |k|^gamma)`` on the modes of ``coeffs``,
    into ``out`` when given.

    ``kpow`` is the ``|k|^gamma`` table on those modes: the half spectrum's
    (:func:`k_power`) when not given, or a block's (:class:`_Block`) for
    ``coeffs`` restricted to it.  Guarded for the real field with half
    spectrum ``coeffs`` (or with that block, zero outside it): modes past
    the exponent cap get weight 0 if they carry no data, and raise
    ``OverflowGuardError`` if they do.  A second guard keeps the weighted
    power of the populated modes inside double range, with room for the
    Parseval sums taken of it (``_weighted_amplitude_limit``), so the norms
    built from it raise instead of overflowing into ``inf``.
    """
    if kpow is None:
        kpow = k_power(grid, gamma)
    if out is None:
        out = np.empty(kpow.shape)
    limit = _weighted_amplitude_limit(grid)
    lt = lam * t
    # Neither guard can fire when the largest exponent, lt max|k|^gamma to
    # the bit, is at or below the cap and a bound on the amplitudes times
    # the largest weight stays under the limit: the weight is then exp of
    # the exponents, with no copy and no mask.  |c| <= sqrt(2) times the
    # largest |Re c| or |Im c|, read off the extremes of the parts; 1.5
    # covers sqrt(2) and the rounding of |c|.
    if lt * float(kpow.max()) <= GEVREY_EXPONENT_CAP:
        parts = np.ascontiguousarray(coeffs).view(np.float64)
        amplitude = 1.5 * max(float(parts.max()), -float(parts.min()))
        np.exp(np.multiply(kpow, lt, out=out), out=out)
        if amplitude * float(out.max()) <= limit:
            return out
    weight, expo = _capped_gevrey_weight(kpow, lam, t, coeffs)
    mag = np.abs(coeffs)
    populated = mag > SUPPORT_THRESHOLD * float(mag.max())
    with np.errstate(over="ignore"):
        peak = float(np.max(mag * weight, where=populated, initial=0.0))
    if peak > limit:
        worst = float(np.max(expo[populated]))
        raise OverflowGuardError(
            f"Gevrey-weighted amplitude {peak:.3g} exceeds cap {limit:.3g} "
            f"of double range on populated modes (weight exponent up to "
            f"{worst:.1f}); shorten the time horizon or reduce the weight"
        )
    out[...] = weight
    return out


@lru_cache(maxsize=32)
def _weighted_amplitude_limit(grid: GridSpec) -> float:
    """Largest weighted amplitude ``|c| w`` whose Parseval norms stay finite.

    Its power ``2 (|c| w)^2`` times the largest factor a Parseval norm puts
    on one mode's power stays below ``DBL_MAX``.  That factor is
    ``period^2``, times the ``n (n/2 + 1)`` half-spectrum terms of the sum,
    times Sobolev weights up to ``(1 + |k|^2)^2`` (order 2, the highest the
    diagnostics use).
    """
    k_max_sq = float(grid_arrays(grid).k_sq.max())
    log_factor = (
        math.log(2.0)
        + 2.0 * math.log(grid.period)
        + math.log(grid.n * (grid.n // 2 + 1))
        + 2.0 * math.log1p(k_max_sq)
    )
    return math.exp(0.5 * (math.log(np.finfo(np.float64).max) - log_factor))


# ---------------------------------------------------------------------------
# Transport: the dealiased advective product on the rfft half spectrum.
# ---------------------------------------------------------------------------


class _Block:
    """The modes a dealiased product can occupy, held as one contiguous array.

    The radial dealias mask keeps ``|m1| <= K`` and ``m2 <= K`` at most
    (``K = n/3`` under the 2/3 rule), so every dealiased product vanishes
    outside rows ``0..K`` and ``n-K..n-1`` and columns ``0..K`` of the half
    spectrum.  The dealias block stacks those rows, top then bottom, into a
    ``(2K + 1, K + 1)`` array.  Its rows are the FFT order of ``2K + 1``
    points, so ``m1 -> -m1`` is ``i -> -i mod 2K + 1`` there.  The wide block
    is the whole ``(n, n/2 + 1)`` half spectrum, for a field with a nonzero
    mode outside the dealias block; the dealias block is the whole too when
    the mask keeps every row (``2K + 1 > n``).

    Holds the transport tables on the block, and the buffers its passes and
    the solver's stages write (single-threaded use; each is dead once the
    call that wrote it returns):

    * ``stack``, ``(4, *shape)``: ``[R_perp_1, R_perp_2, i k1, i k2]``,
      the odd symbols zeroed on the unpaired Nyquist lines, so every
      operator maps real fields to real fields exactly; and ``mask``, the
      dealias mask.  Both are complex and contiguous, so no product with
      them runs on a column slice or through a cast buffer;
    * ``spectrum``, ``(n, width)``: one symbol times a field, or a
      diagnostics row's state, the input of an inverse pass; its gap rows
      ``top..n-bottom-1`` stay zero;
    * ``columns``, ``(n, n/2 + 1)``: that pass's output, zero from column
      ``width`` on;
    * ``forward``, ``(n, width)``: the forward pass's output, whose block
      rows are gathered back;
    * ``flip``: the flipped self-conjugate columns of a product;
    * ``operand``: a field restricted by the public transport, or the
      state a diagnostics row subtracts (``dyadic._RowCore``);
    * ``halves``, ``(6, *shape)``: the stepper's stage buffers.

    Buffers are allocated empty or zeroed; the pages of one that is never
    written never become resident.
    """

    def __init__(self, grid: GridSpec, wide: bool):
        n = grid.n
        ga = grid_arrays(grid)
        k = int(np.flatnonzero(ga.dealias_mask.any(axis=0))[-1])
        if wide or 2 * k + 1 > n:
            self.top, self.bottom, self.width = n // 2, n // 2, n // 2 + 1
        else:
            self.top, self.bottom, self.width = k + 1, k, k + 1
        self.grid, self.wide = grid, wide
        self.rows = np.r_[0 : self.top, n - self.bottom : n]
        self.shape = (self.rows.size, self.width)
        rows, cols = self.rows, slice(0, self.width)
        nyquist, inv = ga.nyquist[rows, cols], ga.inv_k_abs[rows, cols]
        k1 = np.where(nyquist, 0.0, ga.k1[rows, cols])
        k2 = np.where(nyquist, 0.0, ga.k2[rows, cols])
        self.stack = np.stack([(-1j) * k2 * inv, (+1j) * k1 * inv, 1j * k1, 1j * k2])
        self.stack.flags.writeable = False
        self.mask = self.gather(ga.dealias_mask)
        self.negated = (-np.arange(self.shape[0])) % self.shape[0]
        # Columns 0 and n/2 are their own conjugate partners.
        has_nyquist = self.width > n // 2
        self.edges = slice(0, None, n // 2) if has_nyquist else slice(0, 1)
        self.spectrum = np.zeros((n, self.width), np.complex128)
        self.columns = np.zeros((n, n // 2 + 1), np.complex128)
        self.forward = np.empty((n, self.width), np.complex128)
        self.flip = np.empty((self.shape[0], 2 if has_nyquist else 1), np.complex128)
        self.operand = np.empty(self.shape, np.complex128)
        self.halves = np.empty((6,) + self.shape, np.complex128)

    def gather(self, table: np.ndarray) -> np.ndarray:
        """A read-only complex copy of a half-spectrum table on the block."""
        out = table[self.rows, : self.width].astype(np.complex128)
        out.flags.writeable = False
        return out

    def outside(self, coeffs: np.ndarray) -> bool:
        """Whether ``coeffs``, a half spectrum of this grid or a larger one,
        has a nonzero mode outside the block."""
        gap = slice(self.top, coeffs.shape[0] - self.bottom)
        return bool(coeffs[:, self.width :].any() or coeffs[gap].any())

    def restrict(self, coeffs: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """The block of ``coeffs`` (as :meth:`outside`, over the last two
        axes), fresh or into ``out``."""
        if out is None:
            out = np.empty(self.shape, np.complex128)
        out[..., : self.top, :] = coeffs[..., : self.top, : self.width]
        out[..., self.top :, :] = coeffs[..., coeffs.shape[-2] - self.bottom :, : self.width]
        return out

    def embed(self, block: np.ndarray, out: np.ndarray) -> np.ndarray:
        """Write ``block`` back into its modes of the half spectrum ``out``."""
        out[: self.top, : self.width] = block[: self.top]
        out[out.shape[0] - self.bottom :, : self.width] = block[self.top :]
        return out


@lru_cache(maxsize=16)
def _dealias_block(grid: GridSpec, wide: bool) -> _Block:
    """The dealias block of ``grid``, or its wide block, built once (two per
    grid, so twice as many entries as :func:`_workspace`)."""
    return _Block(grid, wide)


def _block_of(grid: GridSpec, coeffs: np.ndarray) -> _Block:
    """The dealias block of ``grid``, widened when ``coeffs`` leaves it."""
    block = _dealias_block(grid, False)
    return _dealias_block(grid, True) if block.outside(coeffs) else block


class _Workspace:
    """The writable buffers of one grid that no block owns (single-threaded
    use, like :class:`_Block`'s).  Fresh arrays there cost a warm 256^2
    IF-RK4 step about 800 minor page faults (glibc trims and regrows its
    heap).

    * ``samples``, ``(3, n, n)``: a velocity, then the advective product;
      between steps, a diagnostics row's samples and their scratch;
    * ``rows``, ``(n, n/2 + 1)``: the row pass of the forward transform;
    * ``mid_velocity``, ``(2, n, n)``: the mid-step velocity of a Picard
      step, the mean of its two end velocities;
    * ``finite``, ``(n, n + 2)`` booleans: the stepper's NaN guard, over
      the real and imaginary parts of a half spectrum.
    """

    def __init__(self, grid: GridSpec):
        n = grid.n
        shape = (n, n // 2 + 1)
        self.samples = np.empty((3, n, n))
        self.rows = np.empty(shape, np.complex128)
        self.mid_velocity = np.empty((2, n, n))
        self.finite = np.empty((n, n + 2), dtype=bool)


@lru_cache(maxsize=8)
def _workspace(grid: GridSpec) -> _Workspace:
    """The :class:`_Workspace` of ``grid``, built once."""
    return _Workspace(grid)


def _synthesize_product(block: _Block, symbol: np.ndarray, coeffs: np.ndarray,
                        out: np.ndarray) -> np.ndarray:
    """Samples of ``symbol * coeffs``, two arrays on ``block``, into ``out``."""
    spec, top = block.spectrum, block.top
    np.multiply(symbol[:top], coeffs[:top], out=spec[:top])
    np.multiply(symbol[top:], coeffs[top:], out=spec[spec.shape[0] - block.bottom :])
    return _inverse_pass(spec, block.columns, out)


def _block_samples(block: _Block, coeffs: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Samples of ``coeffs``, an array on ``block``, into ``out``."""
    return _inverse_pass(block.embed(coeffs, block.spectrum), block.columns, out)


def _peak_speed(u: np.ndarray, scratch: np.ndarray) -> float:
    """``max sqrt(u1^2 + u2^2)`` over the ``(2, n, n)`` velocity stack ``u``,
    NaN if any sample is NaN; ``scratch``, ``(n, n)``, holds the squares.

    Taken over the two row halves in turn, so that one scratch holds both
    squares.  Each square and their sum are rounded apart, the bits of
    ``u1 * u1 + u2 * u2`` on every build: an ``einsum`` over the stack
    would accumulate with a fused multiply-add wherever numpy's SIMD
    baseline has one.
    """
    h = u.shape[1] // 2
    top, bottom = scratch[:h], scratch[h:]
    peak = np.float64(0.0)
    for rows in (slice(0, h), slice(h, None)):
        np.multiply(u[0, rows], u[0, rows], out=top)
        np.multiply(u[1, rows], u[1, rows], out=bottom)
        top += bottom
        peak = np.maximum(peak, top.max())
    return math.sqrt(float(peak))


class Velocity(NamedTuple):
    """Sampled velocity ``R_perp f`` of a real field, with its peak speed."""

    u1: np.ndarray
    u2: np.ndarray
    umax: float


def _block_velocity(block: _Block, source: np.ndarray, out: np.ndarray) -> Velocity:
    """:func:`velocity` of ``source``, an array on ``block``, into ``out``."""
    if not source.any():
        out.fill(0.0)
        return Velocity(out[0], out[1], 0.0)
    _synthesize_product(block, block.stack[0], source, out[0])
    _synthesize_product(block, block.stack[1], source, out[1])
    return Velocity(out[0], out[1], _peak_speed(out, _workspace(block.grid).samples[2]))


def _block_advect(block: _Block, vel: Velocity, target: np.ndarray,
                  out: np.ndarray) -> np.ndarray:
    """Dealiased ``vel . grad target``, with ``target`` an array on
    ``block``, into ``out`` on the block (which may be ``target``).

    The forward pass's block rows are gathered back times the mask; the
    second gradient is synthesized over ``samples[0]``.
    """
    if vel.umax == 0.0:
        out.fill(0.0)
        return out
    ws = _workspace(block.grid)
    product, gy = ws.samples[2], ws.samples[0]
    _synthesize_product(block, block.stack[2], target, product)
    product *= vel.u1
    _synthesize_product(block, block.stack[3], target, gy)
    gy *= vel.u2
    product += gy
    forward, top = _forward_pass(product, ws.rows, block.forward), block.top
    np.multiply(forward[:top], block.mask[:top], out=out[:top])
    np.multiply(forward[forward.shape[0] - block.bottom :], block.mask[top:],
                out=out[top:])
    _symmetrize_edges(out[:, block.edges], block.negated, block.flip)
    out[0, 0] = 0.0
    return out


def velocity(grid: GridSpec, source: np.ndarray) -> Velocity:
    """Samples of ``R_perp source`` and ``max |R_perp source|``.

    ``source`` is the half spectrum of a real field; only its dealias block
    is read when it is zero outside it (:class:`_Block`).  Two transforms
    per call, none when ``source`` has no nonzero entry (then the samples
    are zero).  The samples are fresh and read-only, so the solver can
    advect several stages by one velocity.
    """
    u = np.empty((2, grid.n, grid.n))
    block = _block_of(grid, source)
    umax = _block_velocity(block, block.restrict(source, block.operand), u).umax
    u.flags.writeable = False
    return Velocity(u[0], u[1], umax)


def transport(grid: GridSpec, source: np.ndarray,
              target: np.ndarray) -> tuple[np.ndarray, float]:
    """Dealiased advection of ``target`` by the velocity of ``source``.

    Returns ``(dealias(R_perp source . grad target), max |R_perp source|)``
    as a fresh rfft half spectrum (columns ``0..n/2``), with columns 0 and
    n/2 exactly conjugate-symmetric and the mean mode pinned to 0 (the
    product of a divergence-free velocity with a gradient has zero mean).
    ``source`` and ``target`` are read like :func:`velocity`'s source.  Five
    transforms per call, the velocity held in the workspace samples; none
    past the velocity's when it is zero, where the result is an exact zero
    half spectrum.  The forward transform computes only the block's
    columns: the mask zeroes the rest.
    """
    block = _block_of(grid, source)
    vel = _block_velocity(block, block.restrict(source, block.operand),
                          _workspace(grid).samples[:2])
    out = np.zeros(target.shape, dtype=np.complex128)
    if vel.umax == 0.0:
        return out, vel.umax
    block = _block_of(grid, target)
    product = _block_advect(block, vel, block.restrict(target, block.operand),
                            block.operand)
    return block.embed(product, out), vel.umax


def full_spectrum(grid: GridSpec, half: np.ndarray) -> np.ndarray:
    """Hermitian extension of a half spectrum to the full ``(n, n)`` lattice.

    Fills ``c(m1, m2) = conj(c(-m1, -m2))`` for ``m2 < 0``.  Exactly
    conjugate-symmetric when columns 0 and n/2 of ``half`` are, as every
    :class:`SpectralField` the package builds has them.  For the ``.sqgf``
    boundary and for oracles that sum over the full lattice.
    """
    n = grid.n
    m = n // 2 + 1
    out = np.empty((n, n), dtype=np.complex128)
    out[:, :m] = half
    out[0, m:] = half[0, n // 2 - 1 : 0 : -1]
    out[1:, m:] = half[:0:-1, n // 2 - 1 : 0 : -1]
    # Conjugate as 0 - im, not -im, so an empty (+0.0) mode stays +0.0 on
    # both sides of the lattice instead of turning into -0.0i on this one.
    ext = out[:, m:].imag
    np.subtract(0.0, ext, out=ext)
    return out


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
    a = np.asarray(samples, dtype=float)
    if math.isinf(p):
        # max |x| from the two extremes, without an |x| copy; abs() turns
        # -0.0 into +0.0 and keeps a NaN either extreme carries.
        return max(abs(float(a.max())), abs(float(a.min()))) if a.size else 0.0
    return _magnitude_lp_norm(np.abs(a), p, cell_volume)


def _magnitude_lp_norm(mag: np.ndarray, p: float, cell_volume: float) -> float:
    """:func:`lp_norm` for finite ``p`` of samples whose magnitudes ``|x|``
    are ``mag``."""
    if p == 1.0:
        return float(mag.sum()) * cell_volume
    if p == 2.0:
        return math.sqrt(float(np.sum(mag * mag)) * cell_volume)
    return float(np.sum(mag ** p) * cell_volume) ** (1.0 / p)


def field_lp_norm(field: SpectralField, p: float) -> float:
    """L^p norm of the real field represented by ``field``."""
    return lp_norm(field.to_samples(), p, field.grid.cell_area)


# ---------------------------------------------------------------------------
# Serialization: a small binary container.
# ---------------------------------------------------------------------------

_MAGIC = b"SQGF"
_LAYOUT = b"ri-rowmajor\x00"  # interleaved re/im doubles, row-major, FFT order
_HEADER = struct.Struct("<4sIIdd12s")


def field_to_bytes(field: SpectralField) -> bytes:
    """Binary container form: fixed header followed by the coefficients of
    the full ``(n, n)`` lattice, extended from the half spectrum."""
    g = field.grid
    header = _HEADER.pack(_MAGIC, 1, g.n, g.period, g.dealias_fraction, _LAYOUT)
    payload = full_spectrum(g, field.coeffs).view(np.float64).tobytes()
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
    grid = GridSpec(n, period, frac)
    full = data.view(np.complex128).reshape(n, n)
    # Foreign data enter here: they must describe a real field, so each
    # mode's partner c(-k) must hold its conjugate, up to round-off.
    negated = grid_arrays(grid).negated
    partner = np.conjugate(full[np.ix_(negated, negated)])
    scale = float(np.max(np.abs(full)))
    gap = float(np.max(np.abs(full - partner)))
    if gap > SYMMETRY_TOLERANCE * scale:
        raise SymmetryError(
            f"{origin}: coefficients are not conjugate-symmetric (a mode differs "
            f"from its partner's conjugate by {gap / scale:.3e} relative); "
            "no real field exists"
        )
    half = full[:, : n // 2 + 1].copy()
    half.flags.writeable = False
    return SpectralField(grid, half)


def save_field(field: SpectralField, path: str) -> None:
    """Write a field to the binary container format."""
    with open(path, "wb") as fh:
        fh.write(field_to_bytes(field))


def load_field(path: str) -> SpectralField:
    """Read a field written by :func:`save_field`."""
    with open(path, "rb") as fh:
        blob = fh.read()
    return field_from_bytes(blob, origin=path)
