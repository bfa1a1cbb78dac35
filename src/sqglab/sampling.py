"""Seeded random field generators used by sweeps and tests.

All samplers take a ``numpy.random.Generator`` so every sweep is
reproducible from a single integer seed.  Each sampler draws complex
Gaussian noise on the full lattice, as one ``(2, n, n)`` array of its real
and imaginary planes, shapes it by a radial profile and keeps the real part
of the resulting field, as a half spectrum built from the planes with
slices: no full-lattice complex array is formed.  All of them go through
one draw, :func:`draw_coeffs`, into a :class:`SampleBuffers`; a block sweep
reuses one set of buffers for all its samples.  Fields are mean-free
unless stated otherwise.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from .errors import UsageError
from .spectral import (
    GridSpec,
    SpectralField,
    block_symbol,
    grid_arrays,
    low_pass_symbol,
)

__all__ = [
    "SampleBuffers",
    "draw_coeffs",
    "gaussian_block_field",
    "band_limited_field",
    "low_pass_field",
    "power_law_field",
    "OneDGrid",
    "bump_field_1d",
]


class SampleBuffers:
    """What one draw of a field shaped by ``profile`` fills, allocated once:
    each draw overwrites them (single-threaded use).

    * ``noise``, ``(2, n, n)``: the real and imaginary planes of the
      complex Gaussian draw;
    * ``coeffs``, ``(n, n/2 + 1)``: the field's half spectrum;
    * ``ahead``, ``(n, n/2 + 1)``: :func:`_finish`'s scratch.
    """

    def __init__(self, grid: GridSpec, profile: np.ndarray):
        n = grid.n
        shape = (n, n // 2 + 1)
        self.grid, self.profile = grid, profile
        self.noise = np.empty((2, n, n))
        self.coeffs = np.empty(shape, np.complex128)
        self.ahead = np.empty(shape, np.complex128)


def _finish(buffers: SampleBuffers) -> np.ndarray:
    """The mean-free real part of ``noise * profile``, as a half spectrum,
    written into ``buffers.coeffs`` and returned.

    ``noise`` holds the real and imaginary planes of complex noise on the
    full ``(n, n)`` lattice, and ``profile``, an even table, covers the half
    spectrum.  Each half-spectrum mode k gets
    ``0.5 * (conj(noise(-k) profile(k)) + noise(k) profile(k))``.
    """
    n = buffers.grid.n
    m = n // 2 + 1
    # c = noise(-k) and ahead = noise(k), filled plane by plane with slices:
    # on either axis the index of -i is 0 for i = 0 and n - i otherwise.
    c, ahead = buffers.coeffs, buffers.ahead
    for plane, flipped, kept in zip(buffers.noise, (c.real, c.imag),
                                    (ahead.real, ahead.imag)):
        flipped[0, 0] = plane[0, 0]
        flipped[0, 1:] = plane[0, : n - m : -1]
        flipped[1:, 0] = plane[:0:-1, 0]
        flipped[1:, 1:] = plane[:0:-1, : n - m : -1]
        kept[...] = plane[:, :m]
    # Multiply, then conjugate: the other order gives equal values with other
    # zero signs, so the saved bytes of a field would change.
    c *= buffers.profile
    np.conjugate(c, out=c)
    ahead *= buffers.profile
    c += ahead
    c *= 0.5
    c[0, 0] = 0.0
    return c


def draw_coeffs(buffers: SampleBuffers, rng: np.random.Generator) -> np.ndarray:
    """One draw into ``buffers``: its half spectrum, ``buffers.coeffs``,
    which the next draw overwrites.

    The noise is one ``(2, n, n)`` fill, the same bytes as two ``(n, n)``
    draws in turn.
    """
    rng.standard_normal(out=buffers.noise)
    return _finish(buffers)


def _field(buffers: SampleBuffers, rng: np.random.Generator) -> SpectralField:
    """One draw as a field; ``buffers`` must be fresh, as the field keeps
    their half spectrum, read-only, as it is."""
    coeffs = draw_coeffs(buffers, rng)
    coeffs.flags.writeable = False
    return SpectralField(buffers.grid, coeffs)


def _block_buffers(grid: GridSpec, j: int) -> SampleBuffers:
    """The :class:`SampleBuffers` of block-``j`` draws on ``grid``; errors
    if the block misses the lattice entirely.  Private, so that a traced run
    counts only the draws as ``sampling`` calls."""
    sym = block_symbol(grid, j)
    if not np.any(sym != 0.0):
        raise UsageError(f"block {j} does not intersect the frequency lattice")
    return SampleBuffers(grid, sym)


def gaussian_block_field(grid: GridSpec, j: int,
                         rng: np.random.Generator) -> SpectralField:
    """Random field living on dyadic block ``j``.

    Complex Gaussian coefficients on the block annulus shaped by the block
    profile, so the result is exactly the block projection of a random
    field.  Errors if the block misses the lattice entirely.
    """
    return _field(_block_buffers(grid, j), rng)


def band_limited_field(grid: GridSpec, k_max: float,
                       rng: np.random.Generator) -> SpectralField:
    """Flat Gaussian spectrum on 0 < |k| <= k_max."""
    ga = grid_arrays(grid)
    mask = (ga.k_abs > 0.0) & (ga.k_abs <= k_max)
    if not np.any(mask):
        raise UsageError(f"no lattice frequencies below k_max={k_max}")
    return _field(SampleBuffers(grid, mask), rng)


def low_pass_field(grid: GridSpec, j: int,
                   rng: np.random.Generator) -> SpectralField:
    """Random field shaped by the low-pass profile at scale ``2^j``."""
    sym = low_pass_symbol(grid, j)
    return _field(SampleBuffers(grid, sym), rng)


def power_law_field(grid: GridSpec, alpha: float, rng: np.random.Generator,
                    k_cut: Optional[float] = None) -> SpectralField:
    """Random field with coefficient magnitudes ~ |k|^(-alpha).

    The radial shell energy then scales like ``k^(1 - 2*alpha + 2)``; pick
    ``alpha > s + 1`` for membership in the Sobolev space of order ``s``.
    Support is cut at the dealias radius by default.
    """
    ga = grid_arrays(grid)
    cut = grid.dealias_radius if k_cut is None else k_cut
    mask = (ga.k_abs > 0.0) & (ga.k_abs <= cut)
    with np.errstate(divide="ignore"):
        shape = np.where(mask, ga.k_abs ** (-alpha), 0.0)
    return _field(SampleBuffers(grid, shape), rng)


# ---------------------------------------------------------------------------
# One-dimensional helpers (used by the line-integral checks).
# ---------------------------------------------------------------------------


class OneDGrid:
    """Uniform periodic 1D grid with the same coefficient convention as 2D."""

    def __init__(self, n: int, period: float):
        if n < 8 or n % 2 != 0:
            raise UsageError(f"1D grid size must be even and >= 8, got {n}")
        self.n = n
        self.period = float(period)
        self.dx = self.period / n
        self.x = np.arange(n) * self.dx
        self.k = np.fft.fftfreq(n, d=1.0 / n) * (2.0 * math.pi / self.period)

    def coeffs(self, samples: np.ndarray) -> np.ndarray:
        return np.fft.fft(samples) / self.n

    def samples(self, coeffs: np.ndarray) -> np.ndarray:
        return np.fft.ifft(coeffs).real * self.n

    def derivative(self, samples: np.ndarray, order: int = 1) -> np.ndarray:
        c = self.coeffs(samples) * (1j * self.k) ** order
        half = self.n // 2
        c[half] = 0.0  # unpaired Nyquist mode carries no odd-symbol data
        return self.samples(c)

    def fractional(self, samples: np.ndarray, s: float) -> np.ndarray:
        mag = np.abs(self.k)
        with np.errstate(divide="ignore"):
            mult = np.where(mag > 0.0, mag ** s, 0.0)
        return self.samples(self.coeffs(samples) * mult)

    def l2_sq(self, samples: np.ndarray) -> float:
        return float(np.sum(samples * samples)) * self.dx


def bump_field_1d(grid: OneDGrid, rng: np.random.Generator) -> np.ndarray:
    """Concentrated, effectively band-limited bump on a wide 1D box.

    Built from a Gaussian coefficient envelope (random width and a mild
    random spectral modulation) with phases aligned to the box center, so
    the field decays like a Gaussian away from it.  Returned as samples.
    """
    sigma = 2.0 + 2.0 * rng.random()   # spectral width
    mod = 0.5 * rng.random()
    k0 = rng.random() * sigma
    k = grid.k
    prof = np.exp(-((k - k0) / sigma) ** 2) + np.exp(-((k + k0) / sigma) ** 2)
    prof = prof * (1.0 + mod * np.cos(math.pi * k / (sigma * 4.0)))
    x0 = grid.period / 2.0
    c = prof * np.exp(-1j * k * x0)
    c[grid.n // 2] = 0.0
    samples = grid.samples(0.5 * (c + np.conj(np.roll(c[::-1], 1))))
    return samples
