"""Numerical verification of the quantitative estimates behind the solver.

Each checker sweeps seeded random fields, measures the extremal constant of
one inequality, and returns an :class:`InequalityReport`.  Where an estimate
carries an explicit constant (the q-coercivity factor 4(q-1)/q^2, the
spectral-mass rate eps0*N0^gamma/2) the verdict uses that constant; for
implicit constants the verdict asserts positivity and cross-scale stability
only, and the measured value is recorded for the record, not gated.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.integrate import quad
from scipy.optimize import brentq

from .dyadic import trilinear_form
from .errors import UsageError
from .reports import InequalityReport, witness_from_field
from .sampling import (
    OneDGrid,
    band_limited_field,
    bump_field_1d,
    gaussian_block_field,
    low_pass_field,
)
from .spectral import (
    GridSpec,
    SpectralField,
    analyze,
    grid_arrays,
    lp_norm,
    parseval_columns,
    sobolev_norm,
    synthesize,
)

DEFAULT_GRID = GridSpec(128)

# Dimensionless times for decay fits, in units of 2^{-j*gamma}.
DECAY_TAU_GRID = (0.25, 0.5, 1.0, 2.0)

# Engineering stability windows; recorded in every report that uses one.
STABILITY_FACTOR_DECAY = 0.5
GAGLIARDO_WINDOW = 10.0
TRILINEAR_SPREAD = 20.0


def _check_gamma_range(gamma: float, upper: float = 2.0) -> None:
    if not 0.0 < gamma <= upper:
        raise UsageError(f"gamma must lie in (0, {upper}], got {gamma}")


def _half_powers(grid: GridSpec, gamma: float) -> np.ndarray:
    """|k|^gamma on the rfft half spectrum (0 at the origin)."""
    return grid_arrays(grid).k_abs[:, : grid.n // 2 + 1] ** gamma


def _heat_stack(grid: GridSpec, gamma: float, t_values) -> np.ndarray:
    """``[1, e^{-t_1 |k|^gamma}, ...]`` on the rfft half spectrum."""
    kg = _half_powers(grid, gamma)
    return np.stack([np.ones_like(kg)] + [np.exp(-float(t) * kg) for t in t_values])


def _dissipation_stack(grid: GridSpec, gamma: float) -> np.ndarray:
    """``[1, |k|^gamma]`` on the rfft half spectrum: f and D^gamma f at once."""
    kg = _half_powers(grid, gamma)
    return np.stack([np.ones_like(kg), kg])


def _stacked_decay_rate(field, stack, q, t_values, scale) -> float:
    """Min fitted c over ``t_values``, with ``stack`` from :func:`_heat_stack`.

    One stacked inverse transform gives f and every e^{-tD^gamma} f at once.
    """
    grid = field.grid
    cooled = synthesize(grid, stack * field.coeffs[:, : grid.n // 2 + 1])
    base, *norms = (lp_norm(samples, q, grid.cell_area) for samples in cooled)
    if base <= 0.0:
        raise UsageError("degenerate sample: zero field")
    worst = math.inf
    for t, norm in zip(t_values, norms):
        ratio = norm / base
        if ratio <= 0.0:
            continue
        worst = min(worst, -math.log(ratio) / (float(t) * scale))
    return worst


def fitted_decay_rate(
    field: SpectralField, gamma: float, q: float, t_values, scale: float
) -> float:
    """Fit c from ||e^{-t D^gamma} f||_q <= e^{-c t scale} ||f||_q.

    Returns the minimum fitted c over the time grid, the conservative choice:
    the decay bound then holds with that c at every sampled time.
    """
    stack = _heat_stack(field.grid, gamma, t_values)
    return _stacked_decay_rate(field, stack, q, t_values, scale)


def _decay_sweep(grid, j, gamma, q, tau_grid, n_samples, rng):
    """Min fitted decay constant over block-j samples."""
    scale = 2.0 ** (j * gamma)
    t_values = [tau / scale for tau in tau_grid]
    stack = _heat_stack(grid, gamma, t_values)
    worst = math.inf
    worst_field = None
    for _ in range(n_samples):
        f = gaussian_block_field(grid, j, rng)
        c = _stacked_decay_rate(f, stack, q, t_values, scale)
        if c < worst:
            worst = c
            worst_field = f
    return worst, worst_field


def check_heat_decay(
    grid: GridSpec | None = None,
    j: int = 3,
    gamma: float = 0.5,
    q: float = math.inf,
    t_grid=DECAY_TAU_GRID,
    n_samples: int = 200,
    seed: int = 101,
) -> InequalityReport:
    """Block heat decay ||e^{-tD^gamma}P_j f||_q <= e^{-c t 2^{j gamma}}||P_j f||_q.

    ``t_grid`` is dimensionless: each entry tau is evaluated at t = tau *
    2^{-j*gamma}, so the same grid probes the same decay fractions at every
    block.  Pass requires min fitted c > 0 and agreement within +-50% of the
    median across blocks {j, j+1, j+2}.
    """
    grid = grid or DEFAULT_GRID
    _check_gamma_range(gamma)
    if q < 1.0:
        raise UsageError(f"q must be >= 1, got {q}")
    rng = np.random.default_rng(seed)
    c_by_j = {}
    witness_field = None
    for jj in (j, j + 1, j + 2):
        c_min, f_min = _decay_sweep(grid, jj, gamma, q, t_grid, n_samples, rng)
        c_by_j[jj] = c_min
        if jj == j:
            witness_field = f_min
    values = np.array(sorted(c_by_j.values()))
    med = float(np.median(values))
    stable = med > 0.0 and bool(
        np.all(np.abs(values - med) <= STABILITY_FACTOR_DECAY * med)
    )
    measured = c_by_j[j]
    verdict = measured > 0.0 and stable
    return InequalityReport(
        lemma_id="heat_decay",
        parameters={"gamma": gamma, "q": q, "j": j, "tau_grid": list(t_grid)},
        n_samples=n_samples,
        measured_constant=measured,
        theoretical_bound="unknown",
        verdict=verdict,
        seed=seed,
        details={
            "c_by_block": {str(k): v for k, v in c_by_j.items()},
            "stability_factor": STABILITY_FACTOR_DECAY,
            "stable": stable,
        },
        witness=witness_from_field(witness_field, fitted_c=measured),
    )


def _signed_power(samples: np.ndarray, exponent: float) -> np.ndarray:
    """sign(x) * |x|^exponent, with sign(0) = 0."""
    return np.sign(samples) * np.abs(samples) ** exponent


def check_coercivity(
    grid: GridSpec | None = None,
    j: int = 2,
    gamma: float = 1.0,
    q: float = 4.0,
    n_samples: int = 500,
    seed: int = 202,
    slack: float = 1e-6,
) -> InequalityReport:
    """Pointwise-power coercivity of the fractional dissipation term.

    Checks int (D^gamma f) |f|^{q-2} f dx >= (4(q-1)/q^2) * ||D^{gamma/2} w||_2^2
    for both w = sign(f)|f|^{q/2} and w = |f|^{q/2} on block-j samples, up to a
    relative slack of 1e-6 absorbing quadrature round-off.  Also records
    LHS / (2^{j gamma} ||f||_q^q), the measured dissipation constant.
    """
    grid = grid or DEFAULT_GRID
    _check_gamma_range(gamma)
    if not 1.0 < q < math.inf:
        raise UsageError(f"q must lie in (1, inf), got {q}")
    rng = np.random.default_rng(seed)
    const = 4.0 * (q - 1.0) / (q * q)
    ops = _dissipation_stack(grid, gamma)
    # ||D^{gamma/2} w||_2^2 = period^2 sum |k|^gamma |w^|^2 over the full lattice.
    energy = grid.period ** 2 * parseval_columns(grid) * ops[1]
    min_ratio_signed = math.inf
    min_ratio_plain = math.inf
    min_c2 = math.inf
    variant_ordered = True
    worst = None
    for _ in range(n_samples):
        f = gaussian_block_field(grid, j, rng)
        samples, dgf = synthesize(grid, ops * f.coeffs[:, : grid.n // 2 + 1])
        lhs = float(np.sum(dgf * _signed_power(samples, q - 1.0))) * grid.cell_area
        plain = np.abs(samples) ** (q / 2.0)
        w_hat = analyze(grid, np.stack([np.sign(samples) * plain, plain]))
        mag2 = w_hat.real * w_hat.real + w_hat.imag * w_hat.imag
        rhs_signed, rhs_plain = np.sum(energy * mag2, axis=(-2, -1)).tolist()
        # At gamma=2 the variants agree analytically; allow the same slack.
        if rhs_plain > rhs_signed * (1.0 + slack):
            variant_ordered = False
        ratio_signed = lhs / (const * rhs_signed)
        ratio_plain = lhs / (const * rhs_plain)
        c2 = lhs / (2.0 ** (j * gamma) * lp_norm(samples, q, grid.cell_area) ** q)
        min_c2 = min(min_c2, c2)
        min_ratio_plain = min(min_ratio_plain, ratio_plain)
        if ratio_signed < min_ratio_signed:
            min_ratio_signed = ratio_signed
            worst = f
    witness = None
    if worst is not None:
        witness = witness_from_field(worst, ratio=min_ratio_signed)
    verdict = (
        min_ratio_signed >= 1.0 - slack
        and min_ratio_plain >= 1.0 - slack
        and variant_ordered
    )
    return InequalityReport(
        lemma_id="coercivity_q",
        parameters={"gamma": gamma, "q": q, "j": j},
        n_samples=n_samples,
        measured_constant=min_ratio_signed * const,
        theoretical_bound=const,
        verdict=verdict,
        seed=seed,
        details={
            "min_ratio_signed": min_ratio_signed,
            "min_ratio_plain": min_ratio_plain,
            "variant_ordered": variant_ordered,
            "measured_c2": min_c2,
            "slack": slack,
        },
        witness=witness,
    )


def _sign_integral_sweep(grid, j, gamma, n_samples, rng):
    ops = _dissipation_stack(grid, gamma)
    scale = 2.0 ** (j * gamma)
    min_c2 = math.inf
    min_c3 = math.inf
    worst = None
    for _ in range(n_samples):
        f = gaussian_block_field(grid, j, rng)
        samples, dgf = synthesize(grid, ops * f.coeffs[:, : grid.n // 2 + 1])
        l1 = lp_norm(samples, 1.0, grid.cell_area)
        c2 = float(np.sum(dgf * np.sign(samples))) * grid.cell_area / (scale * l1)
        flat = np.argmax(np.abs(samples))
        idx = np.unravel_index(flat, samples.shape)
        c3 = float(np.sign(samples[idx]) * dgf[idx]) / (scale * float(np.abs(samples[idx])))
        if c2 < min_c2:
            min_c2 = c2
            worst = f
        min_c3 = min(min_c3, c3)
    witness = None if worst is None else witness_from_field(worst, c2=min_c2)
    return min_c2, min_c3, witness


def check_sign_integral(
    grid: GridSpec | None = None,
    j: int = 3,
    gamma: float = 0.5,
    n_samples: int = 200,
    seed: int = 303,
) -> InequalityReport:
    """L^1-type dissipation: int (D^gamma P_j f) sgn(P_j f) dx >= c 2^{j gamma} ||P_j f||_1.

    sgn is taken pointwise on grid samples with sgn(0) = 0.  The companion
    maximum-point bound from the same sweep is reported by
    :func:`check_max_point`.
    """
    grid = grid or DEFAULT_GRID
    _check_gamma_range(gamma, upper=2.0)
    rng = np.random.default_rng(seed)
    min_c2, min_c3, worst = _sign_integral_sweep(grid, j, gamma, n_samples, rng)
    return InequalityReport(
        lemma_id="sign_integral_q1",
        parameters={"gamma": gamma, "j": j},
        n_samples=n_samples,
        measured_constant=min_c2,
        theoretical_bound="unknown",
        verdict=min_c2 > 0.0 and min_c3 > 0.0,
        seed=seed,
        details={"min_c3": min_c3},
        witness=worst,
    )


def check_max_point(
    grid: GridSpec | None = None,
    j: int = 3,
    gamma: float = 0.9,
    n_samples: int = 200,
    seed: int = 303,
) -> InequalityReport:
    """At a grid point maximizing |P_j f|: sgn(f(x0)) (D^gamma f)(x0) >= c 2^{j gamma} ||f||_inf."""
    grid = grid or DEFAULT_GRID
    _check_gamma_range(gamma, upper=2.0)
    rng = np.random.default_rng(seed)
    min_c2, min_c3, worst = _sign_integral_sweep(grid, j, gamma, n_samples, rng)
    return InequalityReport(
        lemma_id="max_point_bound",
        parameters={"gamma": gamma, "j": j},
        n_samples=n_samples,
        measured_constant=min_c3,
        theoretical_bound="unknown",
        verdict=min_c3 > 0.0,
        seed=seed,
        details={"min_c2": min_c2},
        witness=worst,
    )


def counterexample_gamma2_q1(
    grid: OneDGrid | None = None,
    envelope_amplitude: float = 0.5,
    envelope_mode: int = 1,
    zero_tol: float = 1e-6,
    positive_threshold: float = 0.01,
) -> InequalityReport:
    """The gamma=2, q=1 failure: smooth f with int f'' sgn(f) dx = 0.

    Builds f = (3 sin x - sin 3x)/4 modulated by a positive long-wave
    envelope; every zero of the base profile has third order, so the usual
    integration-by-parts gain vanishes identically for the Laplacian while
    the gamma=1.5 half-power analogue stays uniformly positive.
    """
    grid = grid or OneDGrid(2**14, 4.0 * math.pi)
    k_env = envelope_mode * 2.0 * math.pi / grid.period
    envelope = 1.0 + envelope_amplitude * np.cos(k_env * grid.x)
    if np.min(envelope) <= 0.0:
        raise UsageError("envelope must stay positive")
    base = 0.25 * (3.0 * np.sin(grid.x) - np.sin(3.0 * grid.x))
    f = base * envelope

    coeffs = grid.coeffs(f)
    mass = np.abs(coeffs) ** 2
    window = (np.abs(grid.k) >= 0.25) & (np.abs(grid.k) <= 4.0)
    in_window = float(np.sum(mass[window]) / np.sum(mass))
    if in_window < 0.999:
        raise UsageError("profile is not frequency-localized near |xi| ~ 1")

    sgn = np.sign(f)
    l1 = float(np.sum(np.abs(f))) * grid.dx
    second = grid.derivative(f, 2)
    i_laplace = float(np.sum(second * sgn)) * grid.dx
    i_frac = float(np.sum(grid.fractional(f, 1.5) * sgn)) * grid.dx

    cancel_ratio = abs(i_laplace) / l1
    frac_ratio = i_frac / l1
    verdict = cancel_ratio < zero_tol and frac_ratio > positive_threshold
    return InequalityReport(
        lemma_id="counterexample_gamma2",
        parameters={
            "n": grid.n,
            "period": grid.period,
            "envelope_amplitude": envelope_amplitude,
            "envelope_mode": envelope_mode,
        },
        n_samples=1,
        measured_constant=cancel_ratio,
        theoretical_bound=0.0,
        verdict=verdict,
        seed=None,
        details={
            "laplace_sign_integral": i_laplace,
            "half_power_ratio": frac_ratio,
            "l1_norm": l1,
            "mass_in_window": in_window,
            "zero_tol": zero_tol,
            "positive_threshold": positive_threshold,
        },
    )


def fractional_seminorm_sq(
    grid: OneDGrid, samples: np.ndarray, s: float, core_target: float = 1e-3
):
    """Difference-quotient seminorm int int |g(x)-g(y)|^2 / |x-y|^{1+2s} dx dy.

    Reduces the double integral over the periodic box to a single integral of
    h(u) = int |g(x+u)-g(x)|^2 dx = 4 L sum |c_k|^2 sin^2(k u / 2) against
    u^{-1-2s} du on (0, L/2], doubled for the sign of u.  The |u| < delta
    core is replaced by its first-order Taylor bound 2 delta^{2-2s}/(2-2s) *
    ||g'||_2^2; delta shrinks until that bound is below ``core_target`` of
    the total.  Returns (seminorm_sq, delta, core_fraction).
    """
    if not 0.0 < s < 1.0:
        raise UsageError(f"s must lie in (0, 1), got {s}")
    c = grid.coeffs(samples)
    keep = np.abs(c) > 1e-16 * float(np.max(np.abs(c)))
    mag2 = np.abs(c[keep]) ** 2
    k = grid.k[keep]
    length = grid.period

    def h_sq(u: float) -> float:
        return 4.0 * length * float(np.sum(mag2 * np.sin(0.5 * k * u) ** 2))

    grad_sq = grid.l2_sq(grid.derivative(samples, 1))
    split = min(0.1, length / 100.0)

    def tail_from(delta: float) -> float:
        # Log substitution tames the u^{-1-2s} weight near the core.
        near, near_err = quad(
            lambda v: h_sq(math.exp(v)) * math.exp(-2.0 * s * v),
            math.log(delta),
            math.log(split),
            limit=400,
        )
        far, far_err = quad(
            lambda u: h_sq(u) * u ** (-1.0 - 2.0 * s), split, length / 2.0, limit=400
        )
        total = near + far
        if total > 0.0 and (near_err + far_err) > 1e-6 * total:
            raise UsageError("quadrature for the difference seminorm did not converge")
        return 2.0 * (near + far)

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


def _support_width(grid: OneDGrid, samples: np.ndarray) -> float:
    live = np.abs(samples) > 1e-8 * float(np.max(np.abs(samples)))
    return float(np.count_nonzero(live)) * grid.dx


def check_gagliardo_equivalence(
    grid: OneDGrid | None = None,
    s_values=(0.1, 0.3, 0.5, 0.7, 0.9),
    n_samples: int = 3,
    seed: int = 404,
    window: float = GAGLIARDO_WINDOW,
) -> InequalityReport:
    """Difference-quotient vs spectral fractional norm, s(1-s)-normalized.

    For concentrated bumps on a large box, R(s) = seminorm^2 * s(1-s) /
    ||D^s g||_2^2 must land in [1/window, window] for every sample and every
    s; the s(1-s) factor absorbs the blow-up at both endpoints.
    """
    grid = grid or OneDGrid(2**12, 64.0 * math.pi)
    rng = np.random.default_rng(seed)
    ratios = {}
    worst_factor = 0.0
    worst = None
    for i in range(n_samples):
        g = bump_field_1d(grid, rng)
        if grid.period < 16.0 * _support_width(grid, g):
            raise UsageError("box must be >= 16x the sample support")
        c = grid.coeffs(g)
        for s in s_values:
            semi2, delta, core_frac = fractional_seminorm_sq(grid, g, s)
            spectral = float(np.sum(np.abs(grid.k) ** (2.0 * s) * np.abs(c) ** 2))
            spectral *= grid.period
            ratio = semi2 * s * (1.0 - s) / spectral
            ratios.setdefault(str(s), []).append(ratio)
            factor = max(ratio, 1.0 / ratio)
            if factor > worst_factor:
                worst_factor = factor
                worst = {
                    "sample_index": i,
                    "s": s,
                    "ratio": ratio,
                    "delta": delta,
                    "core_fraction": core_frac,
                }
    verdict = worst_factor <= window
    return InequalityReport(
        lemma_id="gagliardo_equiv",
        parameters={"s_values": list(s_values), "n": grid.n, "period": grid.period},
        n_samples=n_samples,
        measured_constant=worst_factor,
        theoretical_bound=window,
        verdict=verdict,
        seed=seed,
        details={"ratios_by_s": ratios, "window": window},
        witness=worst,
    )


def check_ab_inequality(
    q: float, sample_count: int = 1_000_000, seed: int = 505, slack: float = 1e-12
) -> InequalityReport:
    """Scalar convexity bound behind the coercivity estimate.

    (a-b)(|a|^{q-2}a - |b|^{q-2}b) >= (4(q-1)/q^2)(|a|^{q/2-1}a - |b|^{q/2-1}b)^2
    over a deterministic lattice plus seeded heavy-tailed samples.
    """
    if not 1.0 < q < math.inf:
        raise UsageError(f"q must lie in (1, inf), got {q}")
    rng = np.random.default_rng(seed)
    lattice = np.linspace(-3.0, 3.0, 61)
    aa, bb = np.meshgrid(lattice, lattice, indexing="ij")
    det_a = aa.ravel()
    det_b = bb.ravel()
    n_random = max(sample_count - det_a.size, 0)
    scales = 10.0 ** rng.uniform(-3.0, 3.0, size=n_random)
    rand_a = rng.standard_normal(n_random) * scales
    rand_b = rng.standard_normal(n_random) * scales
    a = np.concatenate([det_a, rand_a])
    b = np.concatenate([det_b, rand_b])

    const = 4.0 * (q - 1.0) / (q * q)
    lhs = (a - b) * (_signed_power(a, q - 1.0) - _signed_power(b, q - 1.0))
    diff = _signed_power(a, q / 2.0) - _signed_power(b, q / 2.0)
    rhs = const * diff * diff
    scale = np.maximum(np.maximum(np.abs(lhs), rhs), 1e-300)
    rel_slack = (lhs - rhs) / scale
    min_slack = float(np.min(rel_slack))
    live = rhs > 0.0
    min_ratio = float(np.min(lhs[live] / rhs[live])) if np.any(live) else math.inf
    worst_idx = int(np.argmin(rel_slack))
    verdict = min_slack >= -slack
    return InequalityReport(
        lemma_id="ab_pointwise",
        parameters={"q": q},
        n_samples=int(a.size),
        measured_constant=min_slack,
        theoretical_bound=0.0,
        verdict=verdict,
        seed=seed,
        details={"min_lhs_over_rhs": min_ratio, "slack": slack},
        witness={"a": float(a[worst_idx]), "b": float(b[worst_idx])},
    )


def spectral_mass_horizon(eps0: float, n0: float, gamma: float) -> float:
    """Conservative horizon below which the contraction bound is guaranteed.

    Worst case over admissible spectra splits the mass between frequency 0
    and frequency N0; the bound reduces to (1-eps0) + eps0 e^{-2 tau} <=
    e^{-eps0 tau} with tau = t N0^gamma, whose positive root caps tau.
    """
    if not 0.0 < eps0 <= 1.0:
        raise UsageError(f"eps0 must lie in (0, 1], got {eps0}")

    def gap(tau: float) -> float:
        return (1.0 - eps0) + eps0 * math.exp(-2.0 * tau) - math.exp(-eps0 * tau)

    if eps0 >= 1.0:
        return math.inf
    hi = 1.0
    while gap(hi) < 0.0 and hi < 1e6:
        hi *= 2.0
    if gap(hi) < 0.0:
        return math.inf
    tau_star = brentq(gap, 1e-12, hi)
    return tau_star / n0**gamma


def check_spectral_mass_contraction(
    g: SpectralField,
    n0: float,
    eps0: float,
    gamma: float,
    t_grid=None,
    scan_factor: float = 20.0,
) -> InequalityReport:
    """Heat contraction for fields with high-frequency mass fraction >= eps0.

    Verifies ||e^{-tD^gamma}g||_2 <= e^{-eps0 N0^gamma t / 2} ||g||_2 on the
    grid, then scans past the conservative horizon to locate the crossover
    time; the largest verified t is the measured constant.
    """
    _check_gamma_range(gamma)
    ka = grid_arrays(g.grid)
    mass = np.abs(g.coeffs) ** 2
    total = float(np.sum(mass))
    if total <= 0.0:
        raise UsageError("zero field")
    high = float(np.sum(mass[ka.k_abs >= n0]))
    high_fraction = high / total
    if high_fraction < eps0:
        raise UsageError(
            f"high-frequency mass fraction {high_fraction:.3g} below eps0={eps0}"
        )
    horizon = spectral_mass_horizon(eps0, n0, gamma)
    if t_grid is None:
        top = 0.9 * horizon if math.isfinite(horizon) else 1.0 / n0**gamma
        t_grid = np.linspace(0.0, top, 25)[1:]
    rate = 0.5 * eps0 * n0**gamma

    def holds(t: float) -> bool:
        decayed = float(np.sum(np.exp(-2.0 * t * ka.k_abs**gamma) * mass))
        return math.sqrt(decayed / total) <= math.exp(-rate * t)

    grid_ok = all(holds(float(t)) for t in t_grid)

    t_max = float(np.max(t_grid))
    scan_top = scan_factor * (horizon if math.isfinite(horizon) else t_max)
    scan = np.linspace(0.0, scan_top, 400)[1:]
    largest = 0.0
    crossed = False
    for t in scan:
        if holds(float(t)):
            largest = float(t)
        else:
            crossed = True
            break
    return InequalityReport(
        lemma_id="spectral_mass_contraction",
        parameters={"gamma": gamma, "N0": n0, "eps0": eps0},
        n_samples=int(len(t_grid)),
        measured_constant=largest,
        theoretical_bound="unknown",
        verdict=grid_ok,
        seed=None,
        details={
            "high_fraction": high_fraction,
            "conservative_horizon": horizon if math.isfinite(horizon) else "inf",
            "crossover_found": crossed,
            "grid_max_t": t_max,
        },
    )


def check_lq_semigroup_decay(
    grid: GridSpec | None = None,
    j: int = 3,
    gamma: float = 0.5,
    q_values=(1.5, 2.0, 3.0, 6.0),
    t_grid=DECAY_TAU_GRID,
    n_samples: int = 100,
    seed: int = 606,
) -> InequalityReport:
    """Same protocol as check_heat_decay, plus q-uniformity of the rate.

    The fitted decay constant must agree within +-50% of the median across
    the q sweep: the semigroup bound has a single rate for every 1 < q < inf.
    """
    grid = grid or DEFAULT_GRID
    _check_gamma_range(gamma)
    for q in q_values:
        if not 1.0 < q < math.inf:
            raise UsageError(f"q must lie in (1, inf), got {q}")
    rng = np.random.default_rng(seed)
    c_by_q = {}
    for q in q_values:
        c_min, _ = _decay_sweep(grid, j, gamma, q, t_grid, n_samples, rng)
        c_by_q[q] = c_min
    values = np.array(list(c_by_q.values()))
    med = float(np.median(values))
    uniform = med > 0.0 and bool(
        np.all(np.abs(values - med) <= STABILITY_FACTOR_DECAY * med)
    )
    measured = float(np.min(values))
    return InequalityReport(
        lemma_id="lq_semigroup_decay",
        parameters={"gamma": gamma, "j": j, "q_values": list(q_values)},
        n_samples=n_samples,
        measured_constant=measured,
        theoretical_bound="unknown",
        verdict=measured > 0.0 and uniform,
        seed=seed,
        details={
            "c_by_q": {str(q): c for q, c in c_by_q.items()},
            "stability_factor": STABILITY_FACTOR_DECAY,
            "q_uniform": uniform,
        },
    )


def dissipation_phase(xi: np.ndarray, eta: np.ndarray, gamma: float) -> np.ndarray:
    """sigma(xi, eta) = |xi|^gamma + |eta|^gamma - |xi+eta|^gamma, vectorized."""
    nx = np.linalg.norm(xi, axis=-1)
    ne = np.linalg.norm(eta, axis=-1)
    ns = np.linalg.norm(xi + eta, axis=-1)
    return nx**gamma + ne**gamma - ns**gamma


def collinear_phase_infimum(gamma: float, lo: float = 1e-6, hi: float = 1e3) -> float:
    """Infimum of (1 + x^gamma - (1+x)^gamma) / min(1, x^gamma) on a dense scan.

    The 2-d normalized phase ratio is minimized by aligned frequencies, so
    this 1-d reduction is the sharp reference value.
    """
    x = np.geomspace(lo, hi, 200001)
    ratio = (1.0 + x**gamma - (1.0 + x) ** gamma) / np.minimum(1.0, x**gamma)
    return float(np.min(ratio))


def _phase_fd_constants(gamma: float) -> dict:
    """Finite-difference derivative constants in the |xi| << 1, |eta| ~ 1 regime.

    For multi-indices |a|, |b| <= 2 measures max |d^a_xi d^b_eta sigma| *
    |xi|^{|a|-gamma} over sample points; finite values confirm the symbol
    derivative bounds without symbolic differentiation.
    """
    orders = [(0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2)]
    points = []
    for r in (1e-3, 1e-2, 1e-1):
        for phi in (0.0, 0.7, 2.1):
            xi = np.array([r * math.cos(phi), r * math.sin(phi)])
            for rho, psi in ((1.0, 0.3), (1.3, 1.9)):
                eta = np.array([rho * math.cos(psi), rho * math.sin(psi)])
                points.append((xi, eta))

    def deriv(xi, eta, a, b) -> float:
        # Nested central differences; steps scale with |xi| to stay in-regime.
        hx = 1e-3 * float(np.linalg.norm(xi))
        he = 1e-3

        def f(x_pt, e_pt):
            return float(
                dissipation_phase(x_pt[np.newaxis, :], e_pt[np.newaxis, :], gamma)[0]
            )

        # Build the xi-derivative of requested multi-index, then eta.
        def dx(fun, order):
            for axis, count in enumerate(order):
                for _ in range(count):
                    inner = fun
                    ei = np.zeros(2)
                    ei[axis] = hx
                    fun = (
                        lambda x_pt, e_pt, inner=inner, ei=ei: (
                            inner(x_pt + ei, e_pt) - inner(x_pt - ei, e_pt)
                        )
                        / (2 * hx)
                    )
            return fun

        def de(fun, order):
            for axis, count in enumerate(order):
                for _ in range(count):
                    inner = fun
                    ei = np.zeros(2)
                    ei[axis] = he
                    fun = (
                        lambda x_pt, e_pt, inner=inner, ei=ei: (
                            inner(x_pt, e_pt + ei) - inner(x_pt, e_pt - ei)
                        )
                        / (2 * he)
                    )
            return fun

        fun = de(dx(f, a), b)
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


def check_phase_bounds(
    gamma: float,
    xi_radii=None,
    eta_radii=None,
    n_angles: int = 48,
    cone_tol: float = 1e-3,
    infimum_floor: float = 0.01,
) -> InequalityReport:
    """Lower bound sigma(xi, eta) >= c * min(|xi|^gamma, |eta|^gamma) for gamma < 1.

    Sweeps |xi| log-spaced in [1e-3, 1], |eta| in [0.5, 2], all relative
    angles; by rotation invariance xi is pinned to the first axis.  For
    gamma = 1 the bound degenerates: sigma vanishes identically on the
    aligned cone xi = lambda eta, and the check certifies that instead.
    """
    _check_gamma_range(gamma, upper=1.0)
    if xi_radii is None:
        xi_radii = np.geomspace(1e-3, 1.0, 40)
    if eta_radii is None:
        eta_radii = np.linspace(0.5, 2.0, 12)
    angles = np.linspace(0.0, 2.0 * math.pi, n_angles, endpoint=False)

    rr, ss, tt = np.meshgrid(xi_radii, eta_radii, angles, indexing="ij")
    xi = np.stack([rr, np.zeros_like(rr)], axis=-1)
    eta = np.stack([ss * np.cos(tt), ss * np.sin(tt)], axis=-1)
    sigma = dissipation_phase(xi, eta, gamma)
    floor = np.minimum(rr**gamma, ss**gamma)
    ratios = sigma / floor
    grid_inf = float(np.min(ratios))

    if gamma < 1.0:
        scan_inf = collinear_phase_infimum(gamma)
        agreement = abs(grid_inf - scan_inf) <= 0.05 * max(scan_inf, 1e-12)
        verdict = grid_inf > infimum_floor
        measured = grid_inf
        cone_max = None
    else:
        lam = np.geomspace(1e-2, 1e2, 101)[:, np.newaxis]
        direction = np.array([[0.6, 0.8]])
        eta_c = np.repeat(direction, lam.size, axis=0)
        xi_c = lam * eta_c
        sigma_c = dissipation_phase(xi_c, eta_c, gamma)
        floor_c = np.minimum(
            np.linalg.norm(xi_c, axis=-1), np.linalg.norm(eta_c, axis=-1)
        )
        cone_max = float(np.max(np.abs(sigma_c) / floor_c**gamma))
        verdict = cone_max < cone_tol
        measured = cone_max
        scan_inf = None
        agreement = None

    details = {
        "grid_infimum": grid_inf,
        "collinear_scan_infimum": scan_inf,
        "scan_agreement": agreement,
        "cone_max_ratio": cone_max,
        "infimum_floor": infimum_floor,
        "cone_tol": cone_tol,
        "derivative_constants": _phase_fd_constants(gamma),
    }
    return InequalityReport(
        lemma_id="phase_lower_bound",
        parameters={"gamma": gamma},
        n_samples=int(ratios.size),
        measured_constant=measured,
        theoretical_bound="unknown",
        verdict=verdict,
        seed=None,
        details=details,
    )


TRILINEAR_REGIMES = ("random", "low_g_high_f", "high_g_low_f", "diagonal", "localized")


def _unit_l2(field: SpectralField) -> SpectralField:
    return field.with_coeffs(field.coeffs / sobolev_norm(field, 0.0))


def _trilinear_pair(grid, regime, j, rng):
    if regime == "random":
        k_cap = grid.dealias_radius / 2.0
        return band_limited_field(grid, k_cap, rng), band_limited_field(grid, k_cap, rng)
    if regime == "low_g_high_f":
        return low_pass_field(grid, j - 2, rng), gaussian_block_field(grid, j, rng)
    if regime == "high_g_low_f":
        # Pure low-pass f pairs to exactly zero against the high-frequency
        # product; a low+high mixture keeps this interaction non-vacuous.
        low = _unit_l2(low_pass_field(grid, j - 2, rng))
        high = _unit_l2(gaussian_block_field(grid, j, rng))
        mixed = low.with_coeffs(low.coeffs + high.coeffs)
        return gaussian_block_field(grid, j, rng), mixed
    if regime == "diagonal":
        return gaussian_block_field(grid, j, rng), gaussian_block_field(grid, j, rng)
    raise UsageError(f"unknown regime {regime!r}")


def check_trilinear_bounds(
    grid: GridSpec | None = None,
    gamma: float = 0.5,
    regime: str = "random",
    j_values=(2, 3, 4, 5),
    n_samples: int = 8,
    t: float = 0.0,
    seed: int = 707,
    spread: float = TRILINEAR_SPREAD,
) -> InequalityReport:
    """Ratio stability for the weighted transport trilinear form.

    For s = 2 - gamma measures |N(g, f, f)| / (||g||_{H^s} ||f||_{H^{s+g/2}}^2)
    (homogeneous norms) across frequency regimes and block scales j.  The
    estimate is an upper bound, so regimes with extra cancellation (the
    diagonal one in particular) legitimately produce ratios that shrink with
    j; the admissibility gate is therefore growth-only: ratios at higher
    blocks may not exceed ``spread`` times the coarsest-block level.  The
    "localized" regime instead measures
    |N(g, g, f)| against N0^{2s+2} ||g||_2^2 ||f||_2 for spectra confined to
    B(0, N0) and B(0, 2 N0).
    """
    grid = grid or DEFAULT_GRID
    if not 0.0 < gamma < 1.0:
        raise UsageError(f"gamma must lie in (0, 1), got {gamma}")
    if regime not in TRILINEAR_REGIMES:
        raise UsageError(f"regime must be one of {TRILINEAR_REGIMES}")
    s = 2.0 - gamma
    rng = np.random.default_rng(seed)
    ratios = []
    by_j = {}
    peak_by_j = []
    worst = None
    for j in j_values:
        local = []
        for i in range(n_samples):
            if regime == "localized":
                n0 = float(2**j)
                g = band_limited_field(grid, n0, rng)
                f = band_limited_field(grid, 2.0 * n0, rng)
                value = abs(trilinear_form(g, g, f, t, gamma, s=s))
                l2_g = sobolev_norm(g, 0.0)
                l2_f = sobolev_norm(f, 0.0)
                bound = n0 ** (2.0 * s + 2.0) * l2_g**2 * l2_f
            else:
                g, f = _trilinear_pair(grid, regime, j, rng)
                value = abs(trilinear_form(g, f, f, t, gamma, s=s))
                bound = (
                    sobolev_norm(g, s, homogeneous=True)
                    * sobolev_norm(f, s + gamma / 2.0, homogeneous=True) ** 2
                )
            ratio = value / bound
            local.append(ratio)
            if worst is None or ratio > worst["ratio"]:
                worst = {"ratio": ratio, "j": j, "sample_index": i}
        by_j[str(j)] = {"min": float(np.min(local)), "max": float(np.max(local))}
        peak_by_j.append(float(np.max(local)))
        ratios.extend(local)
    ratios = np.array(ratios)
    baseline = peak_by_j[0]
    growth = max(peak_by_j) / baseline if baseline > 0.0 else math.inf
    finite = bool(np.all(np.isfinite(ratios)))
    verdict = finite and growth <= spread
    return InequalityReport(
        lemma_id="bilinear_ratio",
        parameters={"gamma": gamma, "regime": regime, "j_values": list(j_values), "t": t},
        n_samples=n_samples * len(j_values),
        measured_constant=float(np.max(ratios)),
        theoretical_bound="unknown",
        verdict=verdict,
        seed=seed,
        details={"growth": growth, "growth_limit": spread, "by_j": by_j},
        witness=worst,
    )
