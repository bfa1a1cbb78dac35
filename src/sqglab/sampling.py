"""Seeded random field generators used by sweeps and tests.

All samplers take a ``numpy.random.Generator`` so every sweep is
reproducible from a single integer seed.  Each sampler draws complex
Gaussian noise on the full lattice, as one ``(2, n, n)`` array of its real
and imaginary planes, shapes it by a radial profile and keeps the real part
of the resulting field, as a half spectrum built from the planes with
slices: no full-lattice complex array is formed.  Fields are mean-free
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
    "gaussian_block_field",
    "band_limited_field",
    "low_pass_field",
    "power_law_field",
    "OneDGrid",
    "bump_field_1d",
]


def _finish(grid: GridSpec, noise: np.ndarray, profile: np.ndarray) -> SpectralField:
    """The mean-free real part of ``noise * profile``, as a half spectrum.

    ``noise`` holds the real and imaginary planes of complex noise on the
    full ``(n, n)`` lattice, as one ``(2, n, n)`` array, and ``profile``, an
    even table, covers the half spectrum.  Each half-spectrum mode k gets
    ``0.5 * (conj(noise(-k) profile(k)) + noise(k) profile(k))``.
    """
    n = grid.n
    m = n // 2 + 1
    # c = noise(-k) and ahead = noise(k), filled plane by plane with slices:
    # on either axis the index of -i is 0 for i = 0 and n - i otherwise.
    c = np.empty((n, m), np.complex128)
    ahead = np.empty((n, m), np.complex128)
    for plane, flipped, kept in zip(noise, (c.real, c.imag), (ahead.real, ahead.imag)):
        flipped[0, 0] = plane[0, 0]
        flipped[0, 1:] = plane[0, : n - m : -1]
        flipped[1:, 0] = plane[:0:-1, 0]
        flipped[1:, 1:] = plane[:0:-1, : n - m : -1]
        kept[...] = plane[:, :m]
    # Multiply, then conjugate: the other order gives equal values with other
    # zero signs, so the saved bytes of a field would change.
    c *= profile
    np.conjugate(c, out=c)
    ahead *= profile
    c += ahead
    c *= 0.5
    c[0, 0] = 0.0
    # c is a fresh array: hand it over read-only so the field keeps it as is.
    c.flags.writeable = False
    return SpectralField(grid, c)


def _noise(grid: GridSpec, rng: np.random.Generator) -> np.ndarray:
    """The real and imaginary planes of one complex Gaussian draw, as one
    ``(2, n, n)`` array: the same bytes as two ``(n, n)`` draws in turn."""
    return rng.standard_normal((2, grid.n, grid.n))


def gaussian_block_field(grid: GridSpec, j: int,
                         rng: np.random.Generator) -> SpectralField:
    """Random field living on dyadic block ``j``.

    Complex Gaussian coefficients on the block annulus shaped by the block
    profile, so the result is exactly the block projection of a random
    field.  Errors if the block misses the lattice entirely.
    """
    sym = block_symbol(grid, j)
    if not np.any(sym != 0.0):
        raise UsageError(f"block {j} does not intersect the frequency lattice")
    return _finish(grid, _noise(grid, rng), sym)


def band_limited_field(grid: GridSpec, k_max: float,
                       rng: np.random.Generator) -> SpectralField:
    """Flat Gaussian spectrum on 0 < |k| <= k_max."""
    ga = grid_arrays(grid)
    mask = (ga.k_abs > 0.0) & (ga.k_abs <= k_max)
    if not np.any(mask):
        raise UsageError(f"no lattice frequencies below k_max={k_max}")
    return _finish(grid, _noise(grid, rng), mask)


def low_pass_field(grid: GridSpec, j: int,
                   rng: np.random.Generator) -> SpectralField:
    """Random field shaped by the low-pass profile at scale ``2^j``."""
    sym = low_pass_symbol(grid, j)
    return _finish(grid, _noise(grid, rng), sym)


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
    return _finish(grid, _noise(grid, rng), shape)


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
