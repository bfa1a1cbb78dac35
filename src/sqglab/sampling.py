"""Seeded random field generators used by sweeps and tests.

All samplers take a ``numpy.random.Generator`` so every sweep is
reproducible from a single integer seed.  Each sampler draws complex
Gaussian noise on the full lattice, as one ``(2, n, n)`` array of its real
and imaginary planes, shapes it by a radial profile and keeps the real part
of the resulting field, as a half spectrum built from the planes with
slices: no full-lattice complex array is formed.  All of them go through
one draw, :func:`draw_coeffs`: the noise fill, then :func:`_finish`, into a
:class:`SampleBuffers`.  A block sweep fills its noise through
:class:`_DrawAhead` instead: the same fills, each after the first queued
to one helper thread (``_helper._Helper``) and made while an earlier sample
is in use; the sweeping thread finishes each sample itself, on the support
box of its block.  Fields are mean-free unless stated otherwise.
"""

from __future__ import annotations

import math
from functools import partial
from typing import Optional

import numpy as np

from ._helper import _Helper
from .errors import UsageError
from .spectral import (
    GridSpec,
    SpectralField,
    _on_box,
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
    each draw overwrites them.  The draw's field is finished on ``box``, a
    support box ``(top, bottom, width)`` of the half spectrum
    (``spectral._support_box``), by default the whole of it.  Each buffer
    has one owner thread at a time: a block sweep lends ``noise`` to
    :class:`_DrawAhead` as a lane and keeps the others on its own thread.

    * ``noise``, ``(2, n, n)``: the real and imaginary planes of the
      complex Gaussian draw;
    * ``box_profile``, ``(top + bottom, width)``: ``profile`` on the box,
      its upper rows, then its lower rows (``spectral._on_box``);
    * ``coeffs``, shaped like ``box_profile``: the field's modes on the
      box, which by default are the ``(n, n/2 + 1)`` half spectrum;
    * ``ahead``, shaped like ``coeffs``: :func:`_finish`'s scratch.
    """

    def __init__(self, grid: GridSpec, profile: np.ndarray,
                 box: Optional[tuple[int, int, int]] = None):
        n = grid.n
        self.grid, self.profile = grid, profile
        self.box = box or (n // 2, n // 2, n // 2 + 1)
        self.box_profile = _on_box(profile, self.box)
        self.noise = np.empty((2, n, n))
        self.coeffs = np.empty(self.box_profile.shape, np.complex128)
        self.ahead = np.empty(self.box_profile.shape, np.complex128)


def _finish(buffers: SampleBuffers, noise: np.ndarray) -> np.ndarray:
    """The mean-free real part of ``noise * profile`` on ``buffers.box``,
    written into ``buffers.coeffs`` and returned.

    ``noise`` holds the real and imaginary planes of complex noise on the
    full ``(n, n)`` lattice, and ``profile``, an even table, covers the half
    spectrum.  Each mode k of the box gets
    ``0.5 * (conj(noise(-k) profile(k)) + noise(k) profile(k))``, and the
    mean mode, which the box must hold (``top >= 1``, as on the support box
    of any nonzero radial table), gets 0.  The operations are elementwise
    and the same on every box, so a mode's bytes do not depend on the box it
    is finished on.
    """
    n = noise.shape[-1]
    top, bottom, width = buffers.box
    c, ahead = buffers.coeffs, buffers.ahead
    # c = noise(-k) and ahead = noise(k), filled plane by plane with slices.
    # On either axis the index of -i is 0 for i = 0 and n - i otherwise, so
    # the box's rows 0, 1..top-1 and n-bottom..n-1 flip to row 0, rows
    # n-1..n-top+1 and rows bottom..1.
    runs = [(slice(0, 1), slice(0, 1)), (slice(1, top), slice(n - 1, n - top, -1)),
            (slice(top, None), slice(bottom, 0, -1))]
    for plane, flipped, kept in zip(noise, (c.real, c.imag), (ahead.real, ahead.imag)):
        kept[:top] = plane[:top, :width]
        kept[top:] = plane[n - bottom :, :width]
        for rows, negated in runs:
            flipped[rows, 0] = plane[negated, 0]
            flipped[rows, 1:] = plane[negated, n - 1 : n - width : -1]
    # Multiply, then conjugate: the other order gives equal values with other
    # zero signs, so the saved bytes of a field would change.
    c *= buffers.box_profile
    np.conjugate(c, out=c)
    ahead *= buffers.box_profile
    c += ahead
    c *= 0.5
    c[0, 0] = 0.0
    return c


def draw_coeffs(buffers: SampleBuffers, rng: np.random.Generator) -> np.ndarray:
    """One draw into ``buffers``: its modes on the box, ``buffers.coeffs``
    (by default the half spectrum), which the next draw overwrites.

    The noise is one ``(2, n, n)`` fill, the same bytes as two ``(n, n)``
    draws in turn.
    """
    rng.standard_normal(out=buffers.noise)
    return _finish(buffers, buffers.noise)


class _DrawAhead:
    """``n_samples`` noise fills shaped like ``noise``, each made while the
    previous sample is in use: a context manager whose iteration yields
    each sample's noise in turn, for the iterating thread to finish
    (:func:`_finish`).

    Sample ``i`` is lane ``i % 2`` (lane 0 is ``noise``), owned by the
    iterating thread until it asks for sample ``i + 1``; lane 1 exists only
    with more than one sample.  ``__enter__`` fills sample 0 on the calling
    thread, then queues sample 1's fill to a helper thread
    (``_helper._Helper``).
    Once sample ``i`` is done, the iteration queues sample ``i + 2``'s fill
    into its lane, then takes sample ``i + 1``: the helper goes straight
    from one fill to the next.  A fill is one ``rng.standard_normal(out=lane)``
    call, which releases the GIL, so it overlaps the work done on the
    previous sample; it is the helper's only work.  The fills are those of
    :func:`draw_coeffs`, in the same order, and never more than
    ``n_samples``, so ``rng`` ends where sequential draws leave it; nothing
    else may use it until ``__exit__``, which joins the helper, also when
    the iterating code raises.  A fill that raises on the helper is raised
    by the iteration, in place of its sample, and no later fill is made.
    The helper calls no public function of the package, so a recorder that
    wraps them sees no call from it.
    """

    def __init__(self, noise: np.ndarray, rng: np.random.Generator, n_samples: int):
        self.lanes = [noise, np.empty_like(noise)] if n_samples > 1 else [noise]
        self.rng, self.n_samples = rng, n_samples
        self.helper = _Helper("sqglab-draw-ahead") if n_samples > 1 else None

    def _hand(self, i: int) -> None:
        if i < self.n_samples:
            self.helper.hand(partial(self.rng.standard_normal, out=self.lanes[i % 2]))

    def __enter__(self) -> "_DrawAhead":
        self.rng.standard_normal(out=self.lanes[0])
        if self.helper is not None:
            self.helper.__enter__()
            self._hand(1)
        return self

    def __iter__(self):
        yield self.lanes[0]
        for i in range(1, self.n_samples):
            self._hand(i + 1)
            error = self.helper.take()[1]
            if error is not None:
                raise error
            yield self.lanes[i % 2]

    def __exit__(self, *exc_info) -> None:
        if self.helper is not None:
            self.helper.__exit__(*exc_info)


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
