"""Reference formulas the fast norm paths are tested against.

Each one evaluates its norm the direct way: Sobolev sums over the full
n x n lattice, Besov block norms from the samples of each projected block
(one complex inverse FFT per block), Gevrey weights from ``|k|^gamma``
computed in place.  None of them reads the half-spectrum weight tables.
"""

import math

import numpy as np

from sqglab.dyadic import default_partition, project_block, project_low
from sqglab.spectral import (
    GEVREY_EXPONENT_CAP,
    SpectralField,
    grid_arrays,
    lp_norm,
    real_samples_unchecked,
)


def full_sobolev_norm(field, r, homogeneous=False):
    """Sobolev norm as a sum over the full coefficient lattice."""
    ga = grid_arrays(field.grid)
    if homogeneous and r != 0.0:
        with np.errstate(divide="ignore"):
            weights = np.where(ga.k_abs > 0.0, ga.k_abs ** (2.0 * r), 0.0)
    elif homogeneous:
        weights = np.ones_like(ga.k_abs)
    else:
        weights = (1.0 + ga.k_sq) ** r
    mag2 = np.abs(field.coeffs) ** 2
    return math.sqrt(field.grid.period**2 * float(np.sum(weights * mag2)))


def besov_sample_oracle(field, s, p, q, homogeneous=False, partition=None):
    """Besov norm from full-spectrum block samples, one inverse FFT per block."""
    part = partition or default_partition(field.grid)
    area = field.grid.cell_area
    low = 0.0
    j_lo = part.j_min
    if not homogeneous:
        j_lo = 1
        low = lp_norm(real_samples_unchecked(project_low(field, 0)), p, area)
    terms = [
        2.0 ** (j * s) * lp_norm(real_samples_unchecked(project_block(field, j)), p, area)
        for j in range(j_lo, part.j_max + 1)
    ]
    if math.isinf(q):
        return low + max(terms)
    return low + float(np.sum(np.asarray(terms) ** q)) ** (1.0 / q)


def gevrey_warm(field, lam, t, gamma, cap=GEVREY_EXPONENT_CAP):
    """``e^{lam t |k|^gamma} field`` on the full lattice (no guard)."""
    expo = lam * t * grid_arrays(field.grid).k_abs ** gamma
    weight = np.where(expo <= cap, np.exp(np.minimum(expo, cap)), 0.0)
    return SpectralField(field.grid, field.coeffs * weight)


def scipy_transport(grid, source, target):
    """``(dealias(R_perp source . grad target), max |R_perp source|)`` on the
    half spectrum with whole-array ``scipy.fft`` 2-D transforms over every
    column: the transport before the dealias-band passes, operation for
    operation."""
    import scipy.fft

    from sqglab.spectral import _transport_operator

    n = grid.n
    m = n // 2 + 1
    op = _transport_operator(grid)
    source, target = source[:, :m], target[:, :m]

    def samples(spec):
        return scipy.fft.irfft2(spec, s=(n, n), norm="forward")

    u1, u2 = samples(op.stack[0] * source), samples(op.stack[1] * source)
    umax = math.sqrt(float((u1 * u1 + u2 * u2).max()))
    product = samples(op.stack[2] * target) * u1
    product += samples(op.stack[3] * target) * u2
    half = scipy.fft.rfft2(product, norm="forward") * op.mask
    edge = half[:, :: n // 2]
    half[:, :: n // 2] = 0.5 * (edge + np.conj(edge[op.rows]))
    half[0, 0] = 0.0
    return half, umax
