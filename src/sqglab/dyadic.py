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
    _block_samples,
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


def _parseval_sums(stack: np.ndarray, columns: np.ndarray) -> np.ndarray:
    """``stack @ columns.T``: the sum of each weight row of ``stack``
    (``(rows, modes)``) against each power row of ``columns`` (``(modes,)``
    or ``(k, modes)``).

    A Gevrey-weighted power past double range makes a column's sums
    non-finite; that column is summed again only where each weight row is
    nonzero, so 0 * inf adds nothing.
    """
    with np.errstate(invalid="ignore"):
        sums = stack @ columns.T
    if not np.isfinite(sums).all():
        table, cols = sums.reshape(len(stack), -1), columns.reshape(-1, stack.shape[1])
        for c in np.flatnonzero(~np.isfinite(table).all(axis=0)):
            table[:, c] = [np.sum(row[row > 0.0] * cols[c][row > 0.0]) for row in stack]
    return sums


def _block_l2_norms(partition: DyadicPartition, power: np.ndarray) -> np.ndarray:
    """``|P_j f|_2`` for every block ``j_min..j_max``, then ``|S_0 f|_2``.

    Parseval sums of the :func:`block_power_weights` stack with ``power``,
    a :func:`~sqglab.spectral.half_power` array on the half spectrum.
    """
    grid = partition.grid
    flat = power.ravel()
    stack = block_power_weights(partition).reshape(-1, flat.size)
    return np.sqrt(grid.period ** 2 * _parseval_sums(stack, flat))


def _besov_sum(partition: DyadicPartition, norms, s: float, q: float) -> float:
    """The Besov norm from ``norms``: the L^p norm of each block
    ``max(1, j_min)..j_max``, then of the low-pass(0) part.

    Blocks below ``j_min`` are empty and blocks below 1 lie under the
    low-pass term, so neither has a term.
    """
    blocks = range(max(1, partition.j_min), partition.j_max + 1)
    terms = [2.0 ** (j * s) * float(b) for j, b in zip(blocks, norms[:-1])]
    if not terms:
        tail = 0.0
    elif math.isinf(q):
        tail = max(terms)
    else:
        tail = float(np.sum(np.asarray(terms) ** q)) ** (1.0 / q)
    return float(norms[-1]) + tail


def besov_norm(field: SpectralField, s: float, p: float, q: float) -> float:
    """Inhomogeneous Besov norm from block L^p norms.

    ``|P_{<=0} f|_p + (sum_{j>=1} (2^{js} |P_j f|_p)^q)^(1/q)``, the sup over
    blocks for ``q = inf``.  With ``p == 2`` every block norm comes from
    Parseval (:func:`_block_l2_norms`) of the field's power.  Otherwise the
    block half spectra are synthesized as one stack and measured in L^p.
    """
    if q < 1.0:
        raise UsageError(f"Besov norm needs q >= 1, got {q}")
    grid, coeffs = field.grid, field.coeffs
    partition = default_partition(grid)
    j_lo = max(1, partition.j_min)
    if p == 2.0:
        norms = _block_l2_norms(partition, half_power(grid, coeffs))[j_lo - partition.j_min :]
    else:
        syms = [block_symbol(grid, j) for j in range(j_lo, partition.j_max + 1)]
        syms.append(low_pass_symbol(grid, 0))
        pieces = synthesize(grid, np.stack([sym * coeffs for sym in syms]))
        norms = [lp_norm(piece, p, grid.cell_area) for piece in pieces]
    return _besov_sum(partition, norms, s, q)


class _RowCore:
    """The diagnostics rows of one run: every norm column of a state from
    one product of a table stack with its powers, on the dealias block.

    Built once per run (``simulate``'s, or an iterate sweep's) for its
    grid, ``gamma``, the Sobolev ``orders`` (``(r, homogeneous)`` pairs) of
    its columns, the Gevrey rates ``lams`` it weighs with (one at least;
    their guards run first in a row) and the split block ``j0`` (or None).
    A state runs on the grid's dealias block (``block``,
    :class:`~sqglab.spectral._Block`), where dealiased data and their steps
    live; :meth:`row` raises ``UsageError`` on a state with a nonzero mode
    outside it.  The core holds the read-only stack ``T`` there, one weight
    table per row:

    * the Sobolev weights of each order, in the order given;
    * the :func:`block_power_weights` rows: block ``j_min..j_max``, then the
      squared low-pass(0) profile (``blocks`` slices them out);
    * with ``j0``, ``low^2`` and ``(1 - low)^2`` for the low-pass ``low``
      of ``j0``, last;

    with the ``|k|^gamma`` table there and the buffers a row writes:
    ``coeffs``, the restricted state, ``powers``, ``[P, W_lam...]`` flat,
    and ``weights``, each rate's weight.  Nothing is keyed on ``t``.
    Single-threaded, like the block buffers it uses.
    """

    def __init__(self, grid: GridSpec, gamma: float, orders, lams, j0=None):
        self.grid, self.gamma, self.lams = grid, gamma, lams
        self.partition = default_partition(grid)
        self.block = block = _dealias_block(grid, False)
        tables = [sobolev_weights(grid, r, homogeneous) for r, homogeneous in orders]
        tables += list(block_power_weights(self.partition))
        self.blocks = slice(len(orders), len(tables))
        if j0 is not None:
            low = low_pass_symbol(grid, j0)
            high = 1.0 - low
            tables += [low * low, high * high]
        stack = np.empty((len(tables),) + block.shape)
        for table, row in zip(tables, stack):
            block.restrict(table, row)
        self.kpow = block.restrict(k_power(grid, gamma), np.empty(block.shape))
        for table in (stack, self.kpow):
            table.flags.writeable = False
        size = self.kpow.size
        self.stack = stack.reshape(len(tables), size)
        self.coeffs = np.empty(block.shape, np.complex128)
        self.powers = np.empty((1 + len(lams), size))
        self.weights = np.empty((len(lams),) + block.shape)

    def row(self, half: np.ndarray, t: float, minus: Optional[np.ndarray] = None) -> np.ndarray:
        """``period^2 T @ [P, W_lam...]``, ``(rows of T, 1 + len(lams))``.

        ``P`` is the :func:`~sqglab.spectral.half_power` of the state
        ``half`` (minus the state ``minus``) on the block, and
        ``W_lam = w^2 P`` for the Gevrey weight ``w = exp(lam t |k|^gamma)``
        of each rate, from :func:`~sqglab.spectral.gevrey_half_weight` and
        its two guards, which raise before any product that could overflow.
        The state stays loaded for :meth:`lp_norms` and :meth:`besov`.
        """
        grid, block, coeffs = self.grid, self.block, self.coeffs
        if block.outside(half) or (minus is not None and block.outside(minus)):
            raise UsageError(
                f"a diagnostics row takes states on the {block.shape} dealias "
                f"block of the {grid.n}^2 grid; this one has a nonzero mode outside it"
            )
        block.restrict(half, coeffs)
        if minus is not None:
            coeffs -= block.restrict(minus, block.operand)
        shape = block.shape
        # The weights first: their guards read the state's amplitudes, so
        # they raise before its squares could overflow.
        for lam, weight in zip(self.lams, self.weights):
            gevrey_half_weight(grid, lam, t, self.gamma, coeffs, self.kpow, weight)
        power, scratch = (row.reshape(shape) for row in self.powers[:2])
        np.multiply(coeffs.real, coeffs.real, out=power)
        power += np.multiply(coeffs.imag, coeffs.imag, out=scratch)
        power *= parseval_columns(grid)[: shape[1]]
        for weight, warm in zip(self.weights, self.powers[1:]):
            warm = warm.reshape(shape)
            np.multiply(power, weight, out=warm)
            warm *= weight
        return grid.period ** 2 * _parseval_sums(self.stack, self.powers)

    def lp_norms(self) -> tuple:
        """``(L^1, L^2, L^4, L^inf)`` of the loaded state: one inverse
        transform into the block's samples, one ``|s|`` pass and one square
        pass."""
        grid = self.grid
        samples, scratch = self.block.samples[:2]
        _block_samples(self.block, self.coeffs, samples)
        cell = grid.cell_area
        mag = np.abs(samples, out=scratch)
        l1, linf = float(mag.sum()) * cell, float(mag.max())
        square = np.multiply(samples, samples, out=scratch).reshape(-1)
        l2 = math.sqrt(float(square.sum()) * cell)
        l4 = float(np.dot(square, square) * cell) ** (1.0 / 4.0)
        return l1, l2, l4, linf

    def besov(self, sums: np.ndarray, col: int, s: float, p: float, q: float) -> float:
        """Besov norm of the loaded state times the weight of power column
        ``col`` of :meth:`row`'s ``sums`` (0: unweighted): from its block
        sums at ``p == 2``, else from its synthesized blocks."""
        if p == 2.0:
            j_min = self.partition.j_min
            norms = np.sqrt(sums[self.blocks, col])[max(1, j_min) - j_min :]
            return _besov_sum(self.partition, norms, s, q)
        grid = self.grid
        coeffs = self.coeffs if col == 0 else self.coeffs * self.weights[col - 1]
        half = self.block.embed(coeffs, np.zeros((grid.n, grid.n // 2 + 1), np.complex128))
        half.flags.writeable = False
        return besov_norm(SpectralField(grid, half), s, p, q)


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
