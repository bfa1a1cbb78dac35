"""Dyadic frequency calculus on the torus.

Littlewood-Paley projections built from the frozen radial profile in
:mod:`sqglab.spectral`, Besov norms, the Bony product splitting, a direct
(double-sum) bilinear symbol evaluator used as an FFT-free oracle, and the
two composite operators the analysis side of the package revolves around:
a heat-weighted block commutator and a weighted trilinear pairing.

Block ``j`` lives on the annulus ``2^(j-1) <= |k| <= (7/6) 2^j`` in
physical frequency, so blocks two or more indices apart are exactly
disjoint and the telescoping sum of blocks over a low-pass cutoff
reconstructs the identity to round-off.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import OverflowGuardError, UsageError
from .spectral import (
    GridSpec,
    SpectralField,
    GEVREY_EXPONENT_CAP,
    PROFILE_OUTER,
    _capped_gevrey_weight,
    block_symbol,
    forward_transform,
    full_spectrum,
    grid_arrays,
    half_power,
    k_power,
    low_pass_symbol,
    lp_norm,
    parseval_columns,
    sobolev_weights,
    synthesize,
    transport,
)

__all__ = [
    "DyadicPartition",
    "default_partition",
    "project_block",
    "project_low",
    "besov_norm",
    "block_power_weights",
    "half_besov_norm",
    "ParaproductParts",
    "paraproduct_decompose",
    "BilinearSymbol",
    "apply_bilinear_symbol",
    "block_commutator",
    "trilinear_form",
]

#: Above this many (mode, mode) pairs the direct double sum emits a warning;
#: ten times more is a hard error.  Direct summation is a desk-scale oracle.
PAIR_WARN_LIMIT = 10_000_000


@dataclass(frozen=True)
class DyadicPartition:
    """Dyadic block bookkeeping for one grid.

    ``j_min`` is the lowest block index that touches the frequency lattice,
    ``j_max`` the cutoff index whose low-pass already equals 1 on the whole
    lattice, so ``S_(j_min - 1) + sum(P_j for j_min <= j <= j_max)`` is the
    identity (:func:`low_pass_symbol`, :func:`block_symbol`).
    """

    grid: GridSpec
    j_min: int
    j_max: int

    @property
    def j_max_verified(self) -> int:
        """Largest block fully inside the dealias radius.

        Quantitative claims (decay rates, operator ratios) are only
        exercised for blocks up to this index.
        """
        return math.floor(math.log2(self.grid.dealias_radius / PROFILE_OUTER))

    def block_indices(self) -> range:
        return range(self.j_min, self.j_max + 1)


def default_partition(grid: GridSpec) -> DyadicPartition:
    """The dyadic partition of ``grid``'s frequency lattice."""
    kmin = grid.freq_scale
    corner = grid.freq_scale * (grid.n / 2) * math.sqrt(2.0)
    j_max = math.ceil(math.log2(corner))
    # lowest j whose annulus (2^(j-1), (7/6) 2^j) contains |k| = kmin
    j_min = j_max
    j = math.floor(math.log2(kmin)) - 1
    while j <= j_max:
        if 2.0 ** (j - 1) < kmin < PROFILE_OUTER * 2.0 ** j:
            j_min = j
            break
        j += 1
    return DyadicPartition(grid, j_min, j_max)


def project_block(field: SpectralField, j: int) -> SpectralField:
    """Dyadic block ``P_j``: multiply by the band profile at scale ``2^j``."""
    return SpectralField(field.grid, field.coeffs * block_symbol(field.grid, j))


def project_low(field: SpectralField, j: int) -> SpectralField:
    """Low-pass ``P_{<=j}``: multiply by the profile at scale ``2^j``."""
    return SpectralField(field.grid, field.coeffs * low_pass_symbol(field.grid, j))


@lru_cache(maxsize=16)
def block_power_weights(partition: DyadicPartition) -> np.ndarray:
    """Read-only ``|phi_j|^2`` stack on the half spectrum, cached per partition.

    One row per block ``j_min..j_max``, then a last row with the squared
    low-pass(0) profile.  With a :func:`~sqglab.spectral.half_power` array
    ``P``, ``period^2 * (stack @ P)`` is every block's squared L^2 norm.
    """
    grid = partition.grid
    syms = [block_symbol(grid, j) for j in partition.block_indices()]
    syms.append(low_pass_symbol(grid, 0))
    stack = np.stack([sym ** 2 for sym in syms])
    stack.flags.writeable = False
    return stack


def besov_norm(field: SpectralField, s: float, p: float, q: float,
               homogeneous: bool = False,
               partition: Optional[DyadicPartition] = None) -> float:
    """Besov norm from block L^p norms.

    Inhomogeneous: ``|P_{<=0} f|_p + (sum_{j>=1} (2^{js} |P_j f|_p)^q)^(1/q)``.
    Homogeneous: the block sum over every nonempty block, no low-pass term
    (the mean is invisible to it).  ``q = inf`` takes the sup over blocks.
    See :func:`half_besov_norm` for how the block norms are evaluated.
    """
    part = partition or default_partition(field.grid)
    return half_besov_norm(part, field.coeffs, s, p, q, homogeneous)


def half_besov_norm(partition: DyadicPartition, coeffs: np.ndarray, s: float,
                    p: float, q: float, homogeneous: bool = False,
                    power: Optional[np.ndarray] = None) -> float:
    """Besov norm of the real field with half spectrum ``coeffs``.

    With ``p == 2`` every block norm comes from Parseval: one product of the
    :func:`block_power_weights` stack with the field's half-spectrum power
    (``power``, computed from ``coeffs`` when not given).  Otherwise the
    block half spectra are synthesized as one stack and measured in L^p.
    """
    if q < 1.0:
        raise UsageError(f"Besov norm needs q >= 1, got {q}")
    grid = partition.grid
    # Blocks below j_min are empty: their zero terms change no sum or sup.
    j_lo = partition.j_min if homogeneous else max(1, partition.j_min)
    blocks = range(j_lo, partition.j_max + 1)
    if p == 2.0:
        if power is None:
            power = half_power(grid, coeffs)
        flat = power.ravel()
        stack = block_power_weights(partition).reshape(-1, flat.size)
        if np.all(np.isfinite(flat)):
            sq = stack @ flat
        else:
            # A Gevrey-weighted power past double range: sum only where the
            # block profile is nonzero, so 0 * inf adds nothing.
            sq = np.array([np.sum(row[row > 0.0] * flat[row > 0.0]) for row in stack])
        norms = np.sqrt(grid.period ** 2 * sq)
        block_norms = norms[j_lo - partition.j_min : -1]
    else:
        syms = [block_symbol(grid, j) for j in blocks]
        if not homogeneous:
            syms.append(low_pass_symbol(grid, 0))
        pieces = synthesize(grid, np.stack([sym * coeffs for sym in syms]))
        norms = [lp_norm(piece, p, grid.cell_area) for piece in pieces]
        block_norms = norms[: len(blocks)]
    low_term = 0.0 if homogeneous else float(norms[-1])
    terms = [2.0 ** (j * s) * float(b) for j, b in zip(blocks, block_norms)]
    if not terms:
        tail = 0.0
    elif math.isinf(q):
        tail = max(terms)
    else:
        tail = float(np.sum(np.asarray(terms) ** q)) ** (1.0 / q)
    return low_term + tail


# ---------------------------------------------------------------------------
# Bony product splitting.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ParaproductParts:
    """The three dealiased pieces of a product: f*g = high_low + low_high + diagonal.

    ``high_low`` pairs each block of ``f`` with strictly lower frequencies
    of ``g`` (two indices down), ``low_high`` the reverse, ``diagonal`` the
    comparable-frequency interactions (block index distance <= 1).
    """

    high_low: SpectralField
    low_high: SpectralField
    diagonal: SpectralField

    def total(self) -> SpectralField:
        return SpectralField(
            self.high_low.grid,
            self.high_low.coeffs + self.low_high.coeffs + self.diagonal.coeffs,
        )


def _dealias(coeffs: np.ndarray, grid: GridSpec) -> np.ndarray:
    return coeffs * grid_arrays(grid).dealias_mask


def paraproduct_decompose(f: SpectralField, g: SpectralField) -> ParaproductParts:
    """Split the (dealiased) pointwise product of two fields Bony-style.

    The mean is treated as the block below ``j_min`` so the three parts sum
    exactly to the dealiased product.
    """
    if f.grid != g.grid:
        raise UsageError("paraproduct needs both fields on the same grid")
    grid = f.grid
    part = default_partition(grid)
    base = part.j_min - 1  # index of the low-pass "block" that holds the mean
    top = part.j_max
    idx = range(base, top + 1)

    def blocks_of(field: SpectralField) -> dict[int, np.ndarray]:
        out = {}
        for i in idx:
            if i == base:
                piece = project_low(field, base)
            else:
                piece = project_block(field, i)
            out[i] = piece.to_samples()
        return out

    def lows_of(field: SpectralField) -> dict[int, np.ndarray]:
        return {
            i: project_low(field, i).to_samples()
            for i in range(base, top - 1)  # only S_{i-2} with i <= top is needed
        }

    fb, gb = blocks_of(f), blocks_of(g)
    fl, gl = lows_of(f), lows_of(g)

    n = grid.n
    hi_lo = np.zeros((n, n))
    lo_hi = np.zeros((n, n))
    diag = np.zeros((n, n))
    for i in idx:
        if i - 2 >= base:
            hi_lo += fb[i] * gl[i - 2]
            lo_hi += gb[i] * fl[i - 2]
        for i2 in (i - 1, i, i + 1):
            if base <= i2 <= top:
                diag += fb[i] * gb[i2]

    def pack(samples: np.ndarray) -> SpectralField:
        c = forward_transform(samples, grid).coeffs
        return SpectralField(grid, _dealias(c, grid))

    return ParaproductParts(pack(hi_lo), pack(lo_hi), pack(diag))


# ---------------------------------------------------------------------------
# Direct bilinear symbol evaluation (the FFT-free oracle).
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BilinearSymbol:
    """A two-frequency symbol ``sigma(xi, eta)`` with an optional ``xi`` band.

    ``fn`` is vectorized: it receives ``xi`` and ``eta`` arrays of shape
    ``(..., 2)`` (physical frequencies) and returns values of shape ``(...)``.
    ``xi_band`` is a closed magnitude interval restricting which modes of the
    first factor are summed at all; ``None`` means unrestricted.
    """

    fn: Callable[[np.ndarray, np.ndarray], np.ndarray]
    xi_band: Optional[tuple[float, float]] = None

    @staticmethod
    def one() -> "BilinearSymbol":
        return BilinearSymbol(lambda xi, eta: np.ones(xi.shape[:-1]))

    @staticmethod
    def dissipation_phase(gamma: float) -> "BilinearSymbol":
        """sigma(xi, eta) = |xi|^gamma + |eta|^gamma - |xi + eta|^gamma."""

        def fn(xi: np.ndarray, eta: np.ndarray) -> np.ndarray:
            return (
                _mag(xi) ** gamma + _mag(eta) ** gamma - _mag(xi + eta) ** gamma
            )

        return BilinearSymbol(fn)


def _mag(v: np.ndarray) -> np.ndarray:
    return np.sqrt(np.sum(v * v, axis=-1))


def apply_bilinear_symbol(sym: BilinearSymbol, f: SpectralField,
                          g: SpectralField) -> SpectralField:
    """Evaluate ``sum_{xi+eta=k} sigma(xi,eta) f^(xi) g^(eta)`` directly.

    A literal double sum over populated mode pairs of the full lattice, in
    coordinates built here: no FFT, no aliasing, no package table, exact up
    to round-off, with a fixed (hence deterministic) accumulation order.
    Output modes on or beyond the Nyquist lines are dropped, since their
    partners are not on the lattice.  The sum must be a real field: a
    symbol that breaks conjugate symmetry, such as an odd real one, raises
    ``UsageError``.  Intended for band-limited inputs; the pair count is
    guarded.
    """
    if f.grid != g.grid:
        raise UsageError("bilinear symbol needs both fields on the same grid")
    grid = f.grid
    n = grid.n
    lattice = np.fft.fftfreq(n, d=1.0 / n)
    scale = grid.freq_scale

    def populated(field: SpectralField, band) -> tuple[np.ndarray, np.ndarray]:
        """Integer coordinates and coefficients of the modes that carry data."""
        coeffs = full_spectrum(grid, field.coeffs)
        mag = np.abs(coeffs)
        top = float(mag.max())
        if top == 0.0:
            return np.empty((0, 2), dtype=np.int64), np.empty(0, dtype=np.complex128)
        rows, cols = np.nonzero(mag > 1e-16 * top)
        if band is not None:
            k1, k2 = scale * lattice[rows], scale * lattice[cols]
            k_abs = np.sqrt(k1 * k1 + k2 * k2)
            keep = (k_abs >= band[0]) & (k_abs <= band[1])
            rows, cols = rows[keep], cols[keep]
        coords = np.stack([lattice[rows], lattice[cols]], axis=1).astype(np.int64)
        return coords, coeffs[rows, cols]

    fm, cf = populated(f, sym.xi_band)
    gm, cg = populated(g, None)

    pairs = fm.shape[0] * gm.shape[0]
    if pairs > 10 * PAIR_WARN_LIMIT:
        raise UsageError(
            f"direct bilinear sum over {pairs} pairs refused; band-limit the inputs"
        )
    if pairs > PAIR_WARN_LIMIT:
        warnings.warn(
            f"direct bilinear sum over {pairs} pairs will be slow", stacklevel=2
        )

    out = np.zeros((n, n), dtype=np.complex128)
    magnitude = 0.0  # sum of |term| over the kept pairs, the round-off scale
    rows_per_chunk = max(1, 2_000_000 // max(1, gm.shape[0]))  # pairs per chunk
    reach = n // 2 - 1
    for start in range(0, fm.shape[0], rows_per_chunk):
        stop = min(start + rows_per_chunk, fm.shape[0])
        xi_int = fm[start:stop]                       # (a, 2)
        sums = xi_int[:, None, :] + gm[None, :, :]     # (a, b, 2) integer lattice
        vals = sym.fn(scale * xi_int[:, None, :].astype(float),
                      scale * gm[None, :, :].astype(float))
        vals = vals * cf[start:stop, None] * cg[None, :]
        keep = np.all(np.abs(sums) <= reach, axis=-1)
        if not np.any(keep):
            continue
        tgt = sums[keep]
        np.add.at(out, (tgt[:, 0] % n, tgt[:, 1] % n), vals[keep])
        magnitude += float(np.sum(np.abs(vals[keep])))
    flip = (-np.arange(n)) % n
    partner = np.conjugate(out[np.ix_(flip, flip)])
    if float(np.max(np.abs(out - partner))) > 1e-10 * magnitude:
        raise UsageError(
            "direct bilinear sum is not conjugate-symmetric, so it is not a real "
            "field; the symbol must satisfy sigma(-xi, -eta) = conj(sigma(xi, eta))"
        )
    out += partner
    out *= 0.5
    return SpectralField(grid, out[:, : n // 2 + 1])


# ---------------------------------------------------------------------------
# Heat-weighted block commutator and weighted trilinear pairing.
# ---------------------------------------------------------------------------


def block_commutator(f: SpectralField, g: SpectralField, j: int, t: float,
                     gamma: float) -> SpectralField:
    """Commutator of the weighted block projection with weighted advection.

    Computes ``P_j e^{tD^g} (e^{-tD^g} R_perp f . grad e^{-tD^g} g)
    - e^{-tD^g} R_perp f . grad P_j g`` pseudospectrally (products
    dealiased).  The growing weight ``e^{t|k|^gamma}`` is only ever
    evaluated on block-j frequencies, so its exponent is bounded by
    ``t * ((7/6) 2^j)^gamma``; that bound is checked against
    ``GEVREY_EXPONENT_CAP``.
    """
    if f.grid != g.grid:
        raise UsageError("block commutator needs both fields on the same grid")
    if t < 0.0:
        raise UsageError("block commutator needs t >= 0")
    grid = f.grid
    ga = grid_arrays(grid)
    cap = GEVREY_EXPONENT_CAP

    block_sym = block_symbol(grid, j)
    on_block = block_sym != 0.0
    if np.any(on_block):
        max_expo = t * float(np.max(ga.k_abs[on_block]) ** gamma)
        if max_expo > cap:
            raise OverflowGuardError(
                f"block-{j} weight exponent {max_expo:.1f} exceeds cap {cap:.0f}"
            )

    heat = np.exp(-t * k_power(grid, gamma))
    fh = f.coeffs * heat
    prod, _ = transport(grid, fh, g.coeffs * heat)
    expo = np.minimum(t * k_power(grid, gamma), cap)
    grow = np.where(on_block, np.exp(expo), 0.0)
    term1 = block_sym * grow * prod
    term2, _ = transport(grid, fh, block_sym * g.coeffs)
    return SpectralField(grid, term1 - term2)


def trilinear_form(g1: SpectralField, g2: SpectralField, g3: SpectralField,
                   t: float, gamma: float, s: Optional[float] = None,
                   weight: float = 1.0) -> float:
    """Weighted trilinear pairing of three fields.

    Evaluates ``integral D^s(R_perp e^{-tA} g1 . grad e^{-tA} g2)
    * D^s e^{tA} g3 dx`` with ``A = weight * D^gamma`` and default
    ``s = 2 - gamma``.  The advective product is pseudospectral and
    dealiased; the pairing is spectral (Parseval, on the half spectrum with
    :func:`~sqglab.spectral.parseval_columns`).  The growing weight on
    ``g3`` is guarded against the exponent cap, as in
    :func:`~sqglab.spectral.gevrey_half_weight`.
    """
    if not (g1.grid == g2.grid == g3.grid):
        raise UsageError("trilinear form needs all fields on the same grid")
    if t < 0.0:
        raise UsageError("trilinear form needs t >= 0")
    grid = g1.grid
    if s is None:
        s = 2.0 - gamma

    decay = np.exp(-weight * t * k_power(grid, gamma))
    prod, _ = transport(grid, g1.coeffs * decay, g2.coeffs * decay)

    grown = g3.coeffs * _capped_gevrey_weight(grid, weight, t, gamma, g3.coeffs)[0]
    # Real fields: each column 0 < m2 < n/2 stands for its conjugate partner
    # too, and the partner's term is the conjugate of this one.
    pair = prod * np.conj(grown)
    w2s = sobolev_weights(grid, s, homogeneous=True) * parseval_columns(grid)
    return grid.period ** 2 * float(np.vdot(w2s, pair.real))
