"""Dyadic frequency calculus on the torus.

Dyadic partitions of the frequency lattice, whose Littlewood-Paley symbols
are built from the frozen radial profile in :mod:`sqglab.spectral`, Besov
norms, and the two composite operators the analysis side of the package
revolves around: a heat-weighted block commutator and a weighted trilinear
pairing.

Block ``j`` lives on the annulus ``2^(j-1) <= |k| <= (7/6) 2^j`` in
physical frequency, so blocks two or more indices apart are exactly
disjoint and the telescoping sum of blocks over a low-pass cutoff
reconstructs the identity to round-off.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional

import numpy as np

from .errors import OverflowGuardError, UsageError
from .spectral import (
    GridSpec,
    SpectralField,
    GEVREY_EXPONENT_CAP,
    PROFILE_OUTER,
    _block_of,
    _capped_gevrey_weight,
    _dealias_block,
    block_symbol,
    gevrey_half_weight,
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
    "besov_norm",
    "block_power_weights",
    "half_besov_norm",
    "block_commutator",
    "trilinear_form",
]


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


def besov_norm(field: SpectralField, s: float, p: float, q: float) -> float:
    """Inhomogeneous Besov norm from block L^p norms.

    ``|P_{<=0} f|_p + (sum_{j>=1} (2^{js} |P_j f|_p)^q)^(1/q)``, the sup over
    blocks for ``q = inf``.  See :func:`half_besov_norm` for how the block
    norms are evaluated.
    """
    return half_besov_norm(default_partition(field.grid), field.coeffs, s, p, q)


def _block_l2_norms(partition: DyadicPartition, power: np.ndarray) -> np.ndarray:
    """``|P_j f|_2`` for every block ``j_min..j_max``, then ``|S_0 f|_2``.

    Parseval sums of the :func:`block_power_weights` stack with ``power``,
    a :func:`~sqglab.spectral.half_power` array on the half spectrum, or on
    the dealias block when it has fewer than ``n`` rows.
    """
    grid = partition.grid
    stack = block_power_weights(partition)
    if power.shape[0] < grid.n:
        stack = _dealias_block(grid, False).table(block_power_weights, partition)
    flat = power.ravel()
    stack = stack.reshape(len(stack), flat.size)
    if np.all(np.isfinite(flat)):
        sq = stack @ flat
    else:
        # A Gevrey-weighted power past double range: sum only where the
        # block profile is nonzero, so 0 * inf adds nothing.
        sq = np.array([np.sum(row[row > 0.0] * flat[row > 0.0]) for row in stack])
    return np.sqrt(grid.period ** 2 * sq)


def half_besov_norm(partition: DyadicPartition, coeffs: np.ndarray, s: float,
                    p: float, q: float,
                    power: Optional[np.ndarray] = None) -> float:
    """Besov norm of the real field with half spectrum ``coeffs``.

    With ``p == 2`` every block norm comes from Parseval
    (:func:`_block_l2_norms`) of the field's power: ``power`` when given,
    on the half spectrum or on the dealias block, and ``coeffs`` is then
    not read; else the power of ``coeffs``.  Otherwise the block half
    spectra are synthesized as one stack and measured in L^p.
    """
    if q < 1.0:
        raise UsageError(f"Besov norm needs q >= 1, got {q}")
    grid = partition.grid
    # Blocks below j_min are empty: their zero terms change no sum or sup.
    j_lo = max(1, partition.j_min)
    blocks = range(j_lo, partition.j_max + 1)
    if p == 2.0:
        if power is None:
            power = half_power(grid, coeffs)
        norms = _block_l2_norms(partition, power)
        block_norms = norms[j_lo - partition.j_min : -1]
    else:
        syms = [block_symbol(grid, j) for j in blocks]
        syms.append(low_pass_symbol(grid, 0))
        pieces = synthesize(grid, np.stack([sym * coeffs for sym in syms]))
        norms = [lp_norm(piece, p, grid.cell_area) for piece in pieces]
        block_norms = norms[: len(blocks)]
    terms = [2.0 ** (j * s) * float(b) for j, b in zip(blocks, block_norms)]
    if not terms:
        tail = 0.0
    elif math.isinf(q):
        tail = max(terms)
    else:
        tail = float(np.sum(np.asarray(terms) ** q)) ** (1.0 / q)
    return float(norms[-1]) + tail


class _BlockRow:
    """One state's diagnostics core: the norms of a row, taken on the modes
    of its block (:func:`~sqglab.spectral._block_of`).

    That is the dealias block for dealiased data and the whole half
    spectrum for data with a mode outside it.  ``power`` is the state's
    :func:`~sqglab.spectral.half_power` there; every weight table is
    gathered onto the block once per grid and order (or per grid and
    ``gamma``) by :meth:`~sqglab.spectral._Block.table`, none per ``t``.
    """

    def __init__(self, grid: GridSpec, gamma: float, half: np.ndarray):
        self.grid, self.gamma, self.half = grid, gamma, half
        self.partition = default_partition(grid)
        self.block = _block_of(grid, half)
        self.coeffs = self.block.restrict(half)
        self.power = half_power(grid, self.coeffs)

    def gevrey(self, lam: float, t: float) -> tuple:
        """``(w, w^2 power)`` for the Gevrey weight ``w = exp(lam t |k|^gamma)``
        on the block, with both guards of
        :func:`~sqglab.spectral.gevrey_half_weight`."""
        weight = gevrey_half_weight(self.grid, lam, t, self.gamma, self.coeffs)
        power = self.power * weight
        power *= weight
        return weight, power

    def sum(self, power: np.ndarray, r: float, homogeneous: bool = False) -> float:
        """``period^2 sum(w power)``, ``w`` the Sobolev weights of order ``r``."""
        weights = self.block.table(sobolev_weights, self.grid, r, homogeneous)
        return self.grid.period ** 2 * float(np.vdot(weights, power))

    def norm(self, power: np.ndarray, r: float, homogeneous: bool = False) -> float:
        """The Sobolev norm of order ``r`` of the field with ``power``."""
        return math.sqrt(self.sum(power, r, homogeneous))

    def besov(self, s: float, p: float, q: float, power: np.ndarray,
              weight: Optional[np.ndarray] = None) -> float:
        """Besov norm of the state times ``weight`` (a :meth:`gevrey` weight,
        or 1), whose power is ``power``: its block sums at ``p == 2``, else
        the synthesized blocks of the weighted half spectrum."""
        if p == 2.0:
            return half_besov_norm(self.partition, self.coeffs, s, p, q, power=power)
        coeffs = self.half
        if weight is not None:
            coeffs = self.block.embed(self.coeffs * weight, np.zeros_like(self.half))
        return half_besov_norm(self.partition, coeffs, s, p, q)


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
                   t: float, gamma: float) -> float:
    """Weighted trilinear pairing of three fields.

    Evaluates ``integral D^s(R_perp e^{-tD^gamma} g1 . grad e^{-tD^gamma} g2)
    * D^s e^{tD^gamma} g3 dx`` with ``s = 2 - gamma``.  The advective product
    is pseudospectral and dealiased; the pairing is spectral (Parseval, on
    the half spectrum with :func:`~sqglab.spectral.parseval_columns`).  The
    growing weight on ``g3`` is guarded against the exponent cap, as in
    :func:`~sqglab.spectral.gevrey_half_weight`.
    """
    if not (g1.grid == g2.grid == g3.grid):
        raise UsageError("trilinear form needs all fields on the same grid")
    if t < 0.0:
        raise UsageError("trilinear form needs t >= 0")
    grid = g1.grid
    s = 2.0 - gamma

    decay = np.exp(-t * k_power(grid, gamma))
    prod, _ = transport(grid, g1.coeffs * decay, g2.coeffs * decay)

    grown = g3.coeffs * _capped_gevrey_weight(k_power(grid, gamma), 1.0, t, g3.coeffs)[0]
    # Real fields: each column 0 < m2 < n/2 stands for its conjugate partner
    # too, and the partner's term is the conjugate of this one.
    pair = prod * np.conj(grown)
    w2s = sobolev_weights(grid, s, homogeneous=True) * parseval_columns(grid)
    return grid.period ** 2 * float(np.vdot(w2s, pair.real))
