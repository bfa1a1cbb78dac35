"""Reference formulas the fast paths are tested against.

Each one evaluates its quantity the direct way, on the full n x n lattice
with frequency tables built here: Sobolev sums over every mode, Besov block
norms from the samples of each projected block (one complex inverse FFT per
block), Gevrey weights from ``|k|^gamma`` computed in place, products with
complex FFTs or, in :func:`apply_bilinear_symbol`, as a literal double sum
over mode pairs.  Package fields hold half spectra; they enter through
:func:`full`, their Hermitian extension.  None of these reads the package's
frequency or weight tables, except :func:`scipy_transport`, which replays
the package's transport with whole-array transforms on the package's
``grid_arrays``, :func:`riesz_perp`, which applies the velocity symbol to
the whole half spectrum on those tables, and :func:`quad_seminorm_sq`, which integrates on a
package ``OneDGrid``.  :func:`pointwise_phase_fd_constants` replays the
phase-bound derivative stencil one sample point at a time, and
:func:`block_sweep_oracle` the block sweep one fresh field and one scanned
full-spectrum product at a time, with the package's sampler and
``synthesize``.
"""

import math
import warnings
from dataclasses import dataclass
from functools import lru_cache
from types import SimpleNamespace
from typing import Callable

import numpy as np

from sqglab.dyadic import default_partition
from sqglab.errors import UsageError
from sqglab.inequalities import dissipation_phase
from sqglab.sampling import gaussian_block_field
from sqglab.spectral import (
    GEVREY_EXPONENT_CAP,
    PROFILE_INNER,
    PROFILE_OUTER,
    SpectralField,
    full_spectrum,
    grid_arrays,
    lp_norm,
    smoothstep,
    synthesize,
)

#: Above this many (mode, mode) pairs the direct double sum emits a warning;
#: ten times more is a hard error.  Direct summation is a desk-scale oracle.
PAIR_WARN_LIMIT = 10_000_000


@lru_cache(maxsize=16)
def full_lattice(grid):
    """Frequency arrays of the full lattice in FFT order, by the formulas
    the package applies on the half spectrum."""
    n = grid.n
    m = np.fft.fftfreq(n, d=1.0 / n)
    m1 = m[:, None] * np.ones((1, n))
    m2 = np.ones((n, 1)) * m[None, :]
    k1 = grid.freq_scale * m1
    k2 = grid.freq_scale * m2
    k_sq = k1 * k1 + k2 * k2
    k_abs = np.sqrt(k_sq)
    dealias_mask = k_abs <= grid.dealias_radius + 1e-12 * grid.freq_scale
    nyquist = (m1 == -n // 2) | (m2 == -n // 2)
    with np.errstate(divide="ignore"):
        inv_k_abs = np.where((k_abs > 0.0) & ~nyquist, 1.0 / k_abs, 0.0)
    return SimpleNamespace(
        m1=m1, m2=m2, k1=k1, k2=k2, k_sq=k_sq, k_abs=k_abs, inv_k_abs=inv_k_abs,
        dealias_mask=dealias_mask, nyquist=nyquist,
    )


def riesz_perp(field):
    """Divergence-free velocity from a scalar: u = (-R2 f, R1 f).

    In symbols: ``u^(k) = i k_perp / |k| * f^(k)`` with ``k_perp = (-k2, k1)``,
    on the whole half spectrum, where ``spectral.velocity`` applies the
    symbol on a block.
    """
    ga = grid_arrays(field.grid)
    c = field.coeffs
    u1 = SpectralField(field.grid, (-1j) * ga.k2 * ga.inv_k_abs * c)
    u2 = SpectralField(field.grid, (+1j) * ga.k1 * ga.inv_k_abs * c)
    return u1, u2


def full(field):
    """The full-lattice coefficients of a package field."""
    return full_spectrum(field.grid, field.coeffs)


def half(grid, coeffs):
    """Columns ``0..n/2`` of a full-lattice array, as a fresh array."""
    return np.ascontiguousarray(coeffs[:, : grid.n // 2 + 1])


def conjugate_flip(coeffs):
    """``c~(k) = conj(c(-k))`` on the full lattice, in FFT index order."""
    return np.conj(np.roll(coeffs[::-1, ::-1], (1, 1), axis=(0, 1)))


def whole_array_profile(r):
    """The low-pass profile as ``1 - smoothstep(t)``, the polynomial taken at
    every point, inside the transition band and outside it."""
    t = (np.asarray(r, dtype=float) - PROFILE_INNER) / (PROFILE_OUTER - PROFILE_INNER)
    return 1.0 - smoothstep(t)


def full_profile(grid, kind, j):
    """The ``low_pass`` or ``block`` profile at scale ``2^j`` on the full lattice."""
    k_abs = full_lattice(grid).k_abs
    low = whole_array_profile(k_abs / 2.0**j)
    if kind == "low_pass":
        return low
    return low - whole_array_profile(k_abs / 2.0 ** (j - 1))


def full_k_power(grid, gamma):
    """``|k|^gamma`` on the full lattice."""
    return full_lattice(grid).k_abs ** gamma


def complex_samples(coeffs):
    """Real part of the complex inverse FFT of full-lattice coefficients."""
    n = coeffs.shape[-1]
    return np.ascontiguousarray(np.fft.ifft2(coeffs).real) * (n * n)


def full_sobolev_norm(field, r, homogeneous=False):
    """Sobolev norm as a sum over the full coefficient lattice."""
    ga = full_lattice(field.grid)
    if homogeneous and r != 0.0:
        with np.errstate(divide="ignore"):
            weights = np.where(ga.k_abs > 0.0, ga.k_abs ** (2.0 * r), 0.0)
    elif homogeneous:
        weights = np.ones_like(ga.k_abs)
    else:
        weights = (1.0 + ga.k_sq) ** r
    mag2 = np.abs(full(field)) ** 2
    return math.sqrt(field.grid.period**2 * float(np.sum(weights * mag2)))


def besov_sample_oracle(field, s, p, q, partition=None):
    """Inhomogeneous Besov norm from full-spectrum block samples, one inverse
    FFT per block, over the blocks ``1..j_max`` of ``partition``."""
    grid = field.grid
    part = partition or default_partition(grid)
    area = grid.cell_area
    coeffs = full(field)
    low = lp_norm(complex_samples(coeffs * full_profile(grid, "low_pass", 0)), p, area)
    terms = [
        2.0 ** (j * s)
        * lp_norm(complex_samples(coeffs * full_profile(grid, "block", j)), p, area)
        for j in range(1, part.j_max + 1)
    ]
    if math.isinf(q):
        return low + max(terms)
    return low + float(np.sum(np.asarray(terms) ** q)) ** (1.0 / q)


def gevrey_warm(field, lam, t, gamma, cap=GEVREY_EXPONENT_CAP):
    """``e^{lam t |k|^gamma} field``, weighted on the full lattice (no guard)."""
    expo = lam * t * full_k_power(field.grid, gamma)
    weight = np.where(expo <= cap, np.exp(np.minimum(expo, cap)), 0.0)
    return SpectralField(field.grid, half(field.grid, full(field) * weight))


def complex_fft_transport(grid, source, target):
    """dealias(R_perp source . grad target) with full complex FFTs.

    ``source`` and ``target`` are half spectra; the result is on the full
    lattice.
    """
    ga = full_lattice(grid)
    k1 = np.where(ga.nyquist, 0.0, ga.k1)
    k2 = np.where(ga.nyquist, 0.0, ga.k2)
    source, target = full_spectrum(grid, source), full_spectrum(grid, target)
    u1 = complex_samples((-1j) * k2 * ga.inv_k_abs * source)
    u2 = complex_samples((+1j) * k1 * ga.inv_k_abs * source)
    prod = u1 * complex_samples(1j * k1 * target)
    prod += u2 * complex_samples(1j * k2 * target)
    n = grid.n
    out = np.fft.fft2(prod) / (n * n) * ga.dealias_mask
    out[0, 0] = 0.0
    return out


def nonlinear_term_divergence(theta):
    """-dealias(div(u theta)) with complex FFTs on the full spectrum.

    An oracle independent of the solver's transport code: conservative
    instead of advective form, built from ``numpy.fft`` directly.  Returns
    the full-lattice coefficients.
    """
    grid = theta.grid
    n = grid.n
    ga = full_lattice(grid)
    coeffs = full(theta)
    th = complex_samples(coeffs)
    u1 = complex_samples((-1j) * ga.k2 * ga.inv_k_abs * coeffs)
    u2 = complex_samples((+1j) * ga.k1 * ga.inv_k_abs * coeffs)
    f1 = np.fft.fft2(u1 * th) / (n * n) * ga.dealias_mask
    f2 = np.fft.fft2(u2 * th) / (n * n) * ga.dealias_mask
    out = -(1j * ga.k1 * f1 + 1j * ga.k2 * f2)
    out[0, 0] = 0.0
    return out


@dataclass(frozen=True)
class BilinearSymbol:
    """A two-frequency symbol ``sigma(xi, eta)``.

    ``fn`` is vectorized: it receives ``xi`` and ``eta`` arrays of shape
    ``(..., 2)`` (physical frequencies) and returns values of shape ``(...)``.
    """

    fn: Callable[[np.ndarray, np.ndarray], np.ndarray]

    @staticmethod
    def one() -> "BilinearSymbol":
        return BilinearSymbol(lambda xi, eta: np.ones(xi.shape[:-1]))


def apply_bilinear_symbol(sym, f, g):
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

    def populated(field):
        """Integer coordinates and coefficients of the modes that carry data."""
        coeffs = full_spectrum(grid, field.coeffs)
        mag = np.abs(coeffs)
        top = float(mag.max())
        if top == 0.0:
            return np.empty((0, 2), dtype=np.int64), np.empty(0, dtype=np.complex128)
        rows, cols = np.nonzero(mag > 1e-16 * top)
        coords = np.stack([lattice[rows], lattice[cols]], axis=1).astype(np.int64)
        return coords, coeffs[rows, cols]

    fm, cf = populated(f)
    gm, cg = populated(g)

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


def parent_sampler_coeffs(grid, rng, profile):
    """The full-lattice coefficients the samplers drew before they kept the
    half spectrum: ``hermitian_symmetrize(noise * profile)`` with the mean
    zeroed, ``profile`` on the full lattice."""
    n = grid.n
    noise = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    coeffs = noise * profile
    out = conjugate_flip(coeffs)
    out += coeffs
    out *= 0.5
    out[0, 0] = 0.0
    return out


def scipy_transport(grid, source, target):
    """``(dealias(R_perp source . grad target), max |R_perp source|)`` on the
    half spectrum with whole-array ``scipy.fft`` 2-D transforms over every
    column: the transport before the dealias-band passes, operation for
    operation."""
    import scipy.fft

    n = grid.n
    ga = grid_arrays(grid)
    # R_perp and the gradient, the odd symbols zeroed on the Nyquist lines.
    k1 = np.where(ga.nyquist, 0.0, ga.k1)
    k2 = np.where(ga.nyquist, 0.0, ga.k2)
    stack = [(-1j) * k2 * ga.inv_k_abs, (+1j) * k1 * ga.inv_k_abs, 1j * k1, 1j * k2]

    def samples(spec):
        return scipy.fft.irfft2(spec, s=(n, n), norm="forward")

    u1, u2 = samples(stack[0] * source), samples(stack[1] * source)
    umax = math.sqrt(float((u1 * u1 + u2 * u2).max()))
    product = samples(stack[2] * target) * u1
    product += samples(stack[3] * target) * u2
    out = scipy.fft.rfft2(product, norm="forward") * ga.dealias_mask.astype(np.float64)
    edge = out[:, :: n // 2]
    out[:, :: n // 2] = 0.5 * (edge + np.conj(edge[ga.negated]))
    out[0, 0] = 0.0
    return out, umax


def quad_seminorm_sq(grid, samples, s):
    """``fractional_seminorm_sq`` at one s with adaptive ``scipy.integrate.quad``
    at ``epsabs=0, epsrel=1e-13``, one integrand call per node, every kept
    mode of ``+-k`` summed separately: the same log-substituted near range,
    linear far range, Taylor core and delta loop.  Returns
    ``(seminorm_sq, delta, core_fraction)``."""
    from scipy.integrate import quad

    c = grid.coeffs(samples)
    keep = np.abs(c) > 1e-16 * float(np.max(np.abs(c)))
    mag2 = np.abs(c[keep]) ** 2
    k = grid.k[keep]
    length = grid.period

    def h_sq(u):
        return 4.0 * length * float(np.sum(mag2 * np.sin(0.5 * k * u) ** 2))

    def integral(f, a, b):
        return quad(f, a, b, epsabs=0.0, epsrel=1e-13, limit=400)[0]

    grad_sq = grid.l2_sq(grid.derivative(samples, 1))
    split = min(0.1, length / 100.0)

    def tail_from(delta):
        near = integral(lambda v: h_sq(math.exp(v)) * math.exp(-2.0 * s * v),
                        math.log(delta), math.log(split))
        far = integral(lambda u: h_sq(u) * u ** (-1.0 - 2.0 * s), split, length / 2.0)
        return 2.0 * (near + far)

    core_target = 1e-3
    delta = 1e-4
    for _ in range(4):
        tail = tail_from(delta)
        core = 2.0 * delta ** (2.0 - 2.0 * s) / (2.0 - 2.0 * s) * grad_sq
        total = tail + core
        if core <= core_target * total:
            break
        delta = (0.5 * core_target * total * (2.0 - 2.0 * s) / (2.0 * grad_sq)) ** (
            1.0 / (2.0 - 2.0 * s)
        )
    return tail + core, delta, core / (tail + core)


def pointwise_phase_fd_constants(gamma):
    """``inequalities._phase_fd_constants`` one sample point at a time: the
    same points, steps and nested central differences, each stencil value a
    ``dissipation_phase`` call on ``(1, 2)`` arrays (5 202 calls in all)."""
    points = []
    for r in (1e-3, 1e-2, 1e-1):
        for phi in (0.0, 0.7, 2.1):
            xi = np.array([r * math.cos(phi), r * math.sin(phi)])
            for rho, psi in ((1.0, 0.3), (1.3, 1.9)):
                eta = np.array([rho * math.cos(psi), rho * math.sin(psi)])
                points.append((xi, eta))

    def f(x_pt, e_pt):
        return float(
            dissipation_phase(x_pt[np.newaxis, :], e_pt[np.newaxis, :], gamma)[0]
        )

    def central(fun, slot, step, h):
        """Central difference of ``fun`` along ``step`` (length ``h``) in its
        argument ``slot``: 0 for xi, 1 for eta."""

        def diff(*pt):
            plus, minus = list(pt), list(pt)
            plus[slot], minus[slot] = pt[slot] + step, pt[slot] - step
            return (fun(*plus) - fun(*minus)) / (2 * h)

        return diff

    def deriv(xi, eta, a, b) -> float:
        # Nested central differences, the xi-derivative of multi-index a
        # inside the eta-derivative of b; steps scale with |xi| to stay
        # in-regime.
        fun = f
        for slot, order, h in ((0, a, 1e-3 * float(np.linalg.norm(xi))), (1, b, 1e-3)):
            for axis, count in enumerate(order):
                step = np.zeros(2)
                step[axis] = h
                for _ in range(count):
                    fun = central(fun, slot, step, h)
        return fun(xi, eta)

    constants = {}
    for a_total in range(3):
        for b_total in range(3):
            worst = 0.0
            for a in [(i, a_total - i) for i in range(a_total + 1)]:
                for b in [(i, b_total - i) for i in range(b_total + 1)]:
                    for xi, eta in points:
                        val = abs(deriv(xi, eta, a, b))
                        norm = float(np.linalg.norm(xi)) ** (a_total - gamma)
                        worst = max(worst, val * norm)
            constants[f"|a|={a_total},|b|={b_total}"] = worst
    return constants



def block_sweep_oracle(grid, j, ops, statistic, n_samples, rng):
    """``inequalities._block_sweep`` with nothing reused between samples:
    each sample a fresh ``gaussian_block_field`` f, its stack
    ``synthesize(grid, ops * f.coeffs)`` over the whole half spectrum, and
    the first field attaining each minimum kept."""
    worst = {}
    for _ in range(n_samples):
        f = gaussian_block_field(grid, j, rng)
        for name, value in statistic(synthesize(grid, ops * f.coeffs)).items():
            if value < worst.setdefault(name, (math.inf, None))[0]:
                worst[name] = (value, f)
    return worst
