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
from functools import lru_cache

import numpy as np

from .dyadic import trilinear_form
from .errors import UsageError
from .reports import InequalityReport, witness_from_field
from .sampling import (
    OneDGrid,
    SampleBuffers,
    _block_buffers,
    _DrawAhead,
    _finish,
    band_limited_field,
    bump_field_1d,
    gaussian_block_field,
    low_pass_field,
)
from .spectral import (
    PROFILE_OUTER,
    GridSpec,
    SpectralField,
    _SupportSynthesis,
    _forward_pass,
    _magnitude_lp_norm,
    _support_box,
    grid_arrays,
    half_power,
    k_power,
    lp_norm,
    parseval_columns,
    sobolev_norm,
    synthesize,
)

DEFAULT_GRID = GridSpec(128)

# Dimensionless times for decay fits, in units of 2^{-j*gamma}.
DECAY_TAU_GRID = (0.25, 0.5, 1.0, 2.0)

# The swept values of the Gagliardo, L^q-semigroup and trilinear checks;
# each report records its sweep under ``parameters``.
GAGLIARDO_S_VALUES = (0.1, 0.3, 0.5, 0.7, 0.9)
LQ_DECAY_Q_VALUES = (1.5, 2.0, 3.0, 6.0)
TRILINEAR_J_VALUES = (2, 3, 4, 5)

# Engineering stability windows; recorded in every report that uses one.
STABILITY_FACTOR_DECAY = 0.5
GAGLIARDO_WINDOW = 10.0
TRILINEAR_SPREAD = 20.0


def _check_gamma_range(gamma: float, upper: float = 2.0) -> None:
    if not 0.0 < gamma <= upper:
        raise UsageError(f"gamma must lie in (0, {upper}], got {gamma}")


def _check_sample_count(n_samples: int) -> None:
    """A sampled check measures nothing, and so proves nothing, on no sample."""
    if n_samples < 1:
        raise UsageError(f"n_samples must be at least 1, got {n_samples}")


def _operator_stack(rows) -> np.ndarray:
    """``[1, *rows]`` as one complex table on the rfft half spectrum.

    ``synthesize(grid, stack * f.coeffs)`` then gives f and each row applied
    to it at once; complex, so the product with a sample casts nothing.
    """
    return np.stack([np.ones_like(rows[0]), *rows], dtype=np.complex128)


def _block_sweep(grid, j, ops, statistic, n_samples, rng) -> dict:
    """Minimum of each value ``statistic`` names, over block-j samples.

    Each sample f is drawn once and synthesized once, as the stack
    ``ops * f.coeffs``; ``statistic`` maps that stack to a dict of named
    values.  Returns ``{name: (minimum, field attaining it)}``, the first
    such field on ties; a value never below inf reads ``(inf, None)``.

    The noise, the finished modes, the product and the samples go to
    buffers allocated once per sweep.  A sample is finished and multiplied
    only on the support box of the block (``spectral._support_box``), and
    the box goes straight to the synthesis; its whole half spectrum is
    finished, into a field (a read-only copy), only when it sets a new
    minimum.  ``statistic`` must not keep the stack it is passed.

    The noise fills run ahead as queued jobs of one helper thread
    (:class:`_DrawAhead`, on ``_helper._Helper``), into the other of two
    noise lanes, while this thread finishes, synthesizes and scores the
    current sample; each lane has one owner at a time.  ``rng`` makes the
    draws of ``n_samples`` calls of ``draw_coeffs`` in turn, and a mode is
    finished alike on any box, so the minima and their fields are those of
    a sequential sweep.
    The helper is joined before this returns or raises.
    """
    _check_sample_count(n_samples)
    whole = _block_buffers(grid, j)
    boxed = SampleBuffers(grid, whole.profile, _support_box(whole.profile))
    stack_of = _SupportSynthesis(grid, ops, boxed.box)
    worst = {}
    with _DrawAhead(boxed.noise, rng, n_samples) as lanes:
        for noise in lanes:
            field = None
            for name, value in statistic(stack_of(_finish(boxed, noise))).items():
                if value < worst.setdefault(name, (math.inf, None))[0]:
                    if field is None:
                        field = SpectralField(grid, _finish(whole, noise))
                    worst[name] = (value, field)
    return worst


def _decay_rate(cooled, q, t_values, scale, cell_area, scratch=None) -> float:
    """Min fitted c over ``t_values``; ``cooled`` is f, then e^{-tD^gamma} f
    per t.  ``scratch``, shaped like one field, takes the finite-q norms'
    ``|f|`` and powers instead of new arrays."""
    base, *norms = (lp_norm(samples, q, cell_area, scratch) for samples in cooled)
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
    grid = field.grid
    kg = k_power(grid, gamma)
    ops = _operator_stack([np.exp(-float(t) * kg) for t in t_values])
    cooled = synthesize(grid, ops * field.coeffs)
    return _decay_rate(cooled, q, t_values, scale, grid.cell_area)


def _decay_sweep(grid, j, gamma, q, n_samples, rng):
    """(Min fitted decay constant, field attaining it) at ``DECAY_TAU_GRID``."""
    scale = 2.0 ** (j * gamma)
    t_values = [tau / scale for tau in DECAY_TAU_GRID]
    kg = k_power(grid, gamma)
    ops = _operator_stack([np.exp(-float(t) * kg) for t in t_values])
    scratch = np.empty((grid.n, grid.n))

    def statistic(cooled):
        return {"c": _decay_rate(cooled, q, t_values, scale, grid.cell_area, scratch)}

    return _block_sweep(grid, j, ops, statistic, n_samples, rng)["c"]


def _median(values) -> float:
    """What ``np.median`` gives, without the ``numpy.ma`` import it costs:
    the middle value, or ``(a + b) / 2`` of the middle two."""
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return float(ordered[mid])
    return float((ordered[mid - 1] + ordered[mid]) / 2)


def _within_decay_spread(values) -> bool:
    """Positive median, every value within ``STABILITY_FACTOR_DECAY`` of it."""
    med = _median(values)
    values = np.array(values)
    return med > 0.0 and bool(
        np.all(np.abs(values - med) <= STABILITY_FACTOR_DECAY * med)
    )


def check_heat_decay(
    grid: GridSpec | None = None,
    j: int = 3,
    gamma: float = 0.5,
    q: float = math.inf,
    n_samples: int = 200,
    seed: int = 101,
) -> InequalityReport:
    """Block heat decay ||e^{-tD^gamma}P_j f||_q <= e^{-c t 2^{j gamma}}||P_j f||_q.

    ``DECAY_TAU_GRID`` is dimensionless: each entry tau is evaluated at
    t = tau * 2^{-j*gamma}, so the same grid probes the same decay fractions
    at every block.  Pass requires min fitted c > 0 and agreement within +-50% of the
    median across blocks {j, j+1, j+2}.
    """
    grid = grid or DEFAULT_GRID
    _check_gamma_range(gamma)
    if q < 1.0:
        raise UsageError(f"q must be >= 1, got {q}")
    rng = np.random.default_rng(seed)
    sweeps = {jj: _decay_sweep(grid, jj, gamma, q, n_samples, rng)
              for jj in (j, j + 1, j + 2)}
    c_by_j = {jj: c_min for jj, (c_min, _) in sweeps.items()}
    stable = _within_decay_spread(list(c_by_j.values()))
    measured, witness_field = sweeps[j]
    verdict = measured > 0.0 and stable
    return InequalityReport(
        lemma_id="heat_decay",
        parameters={"gamma": gamma, "q": q, "j": j, "tau_grid": list(DECAY_TAU_GRID)},
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
    slack = 1e-6
    kg = k_power(grid, gamma)
    # ||D^{gamma/2} w||_2^2 = period^2 sum |k|^gamma |w^|^2 over the full lattice.
    energy = grid.period ** 2 * parseval_columns(grid) * kg

    # |f|, sign(f), a product, and the two fields [sign(f)|f|^{q/2}, |f|^{q/2}]
    # whose dissipation is the right-hand side; their transform (rows, then
    # w_hat), |w_hat|^2 and its energy terms: buffers of the sweep.
    mag, sign, work = np.empty((3, grid.n, grid.n))
    fields = np.empty((2, grid.n, grid.n))
    rows, w_hat = np.empty((2, 2, grid.n, grid.n // 2 + 1), np.complex128)
    mag2, terms = np.empty((2,) + w_hat.shape)

    def statistic(stack):
        samples, dgf = stack
        np.abs(samples, out=mag)
        np.sign(samples, out=sign)
        # Each power is the in-place form of the operator, so it takes the
        # same path as ``|f| ** e`` (np.square for e = 2).  The left side is
        # dgf times _signed_power(f, q - 1).
        np.copyto(work, mag)
        work[...] **= q - 1.0
        np.multiply(work, sign, out=work)
        np.multiply(work, dgf, out=work)
        lhs = float(np.sum(work)) * grid.cell_area
        np.copyto(fields[1], mag)
        fields[1] **= q / 2.0
        np.multiply(sign, fields[1], out=fields[0])
        _forward_pass(fields, rows, w_hat)
        np.multiply(w_hat.real, w_hat.real, out=mag2)
        np.add(mag2, np.multiply(w_hat.imag, w_hat.imag, out=terms), out=mag2)
        np.multiply(energy, mag2, out=terms)
        rhs_signed, rhs_plain = np.sum(terms, axis=(-2, -1)).tolist()
        return {
            "ratio_signed": lhs / (const * rhs_signed),
            "ratio_plain": lhs / (const * rhs_plain),
            "c2": lhs / (2.0 ** (j * gamma)
                         * _magnitude_lp_norm(mag, q, grid.cell_area, work) ** q),
            # At gamma=2 the variants agree analytically; allow the same slack.
            "order": rhs_signed * (1.0 + slack) - rhs_plain,
        }

    worst = _block_sweep(grid, j, _operator_stack([kg]), statistic, n_samples, rng)
    min_ratio_signed, witness_field = worst["ratio_signed"]
    min_ratio_plain = worst["ratio_plain"][0]
    variant_ordered = worst["order"][0] >= 0.0
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
            "measured_c2": worst["c2"][0],
            "slack": slack,
        },
        witness=(None if witness_field is None
                 else witness_from_field(witness_field, ratio=min_ratio_signed)),
    )


def _sign_sweep_report(lemma_id, measured, required, grid, j, gamma, n_samples, seed):
    """Report the minimum of ``measured`` ("c2" or "c3") over block-j samples.

    c2 is the L^1 sign integral, c3 the max-point value, each over 2^{j gamma}.
    The verdict needs every constant named in ``required`` positive; the
    witness is the field attaining the measured minimum.
    """
    grid = grid or DEFAULT_GRID
    _check_gamma_range(gamma, upper=2.0)
    rng = np.random.default_rng(seed)
    kg = k_power(grid, gamma)
    scale = 2.0 ** (j * gamma)

    # |f| and sign(f) D^gamma f: buffers of the sweep.
    mag, work = np.empty((2, grid.n, grid.n))

    def statistic(stack):
        samples, dgf = stack
        np.abs(samples, out=mag)
        l1 = _magnitude_lp_norm(mag, 1.0, grid.cell_area)
        np.multiply(dgf, np.sign(samples, out=work), out=work)
        c2 = float(np.sum(work)) * grid.cell_area / (scale * l1)
        idx = np.unravel_index(np.argmax(mag), samples.shape)
        c3 = float(np.sign(samples[idx]) * dgf[idx]) / (scale * float(np.abs(samples[idx])))
        return {"c2": c2, "c3": c3}

    worst = _block_sweep(grid, j, _operator_stack([kg]), statistic, n_samples, rng)
    other = "c3" if measured == "c2" else "c2"
    value, field = worst[measured]
    return InequalityReport(
        lemma_id=lemma_id,
        parameters={"gamma": gamma, "j": j},
        n_samples=n_samples,
        measured_constant=value,
        theoretical_bound="unknown",
        verdict=all(worst[name][0] > 0.0 for name in required),
        seed=seed,
        details={f"min_{other}": worst[other][0]},
        witness=None if field is None else witness_from_field(field, **{measured: value}),
    )


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
    return _sign_sweep_report(
        "sign_integral_q1", "c2", ("c2", "c3"), grid, j, gamma, n_samples, seed
    )


def check_max_point(
    grid: GridSpec | None = None,
    j: int = 3,
    gamma: float = 0.9,
    n_samples: int = 200,
    seed: int = 303,
) -> InequalityReport:
    """At a grid point maximizing |P_j f|: sgn(f(x0)) (D^gamma f)(x0) >= c 2^{j gamma} ||f||_inf."""
    return _sign_sweep_report(
        "max_point_bound", "c3", ("c3",), grid, j, gamma, n_samples, seed
    )


def counterexample_gamma2_q1() -> InequalityReport:
    """The gamma=2, q=1 failure: smooth f with int f'' sgn(f) dx = 0.

    Builds f = (3 sin x - sin 3x)/4 modulated by a positive long-wave
    envelope; every zero of the base profile has third order, so the usual
    integration-by-parts gain vanishes identically for the Laplacian while
    the gamma=1.5 half-power analogue stays uniformly positive.
    """
    grid = OneDGrid(2**14, 4.0 * math.pi)
    envelope_amplitude, envelope_mode = 0.5, 1
    k_env = envelope_mode * 2.0 * math.pi / grid.period
    envelope = 1.0 + envelope_amplitude * np.cos(k_env * grid.x)
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
    zero_tol, positive_threshold = 1e-6, 0.01
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


# Nodes per panel of the composite Gauss-Legendre rules of
# ``fractional_seminorm_sq``, on the far range in u and on the near range in
# v = log u.  An n-node panel of width w integrates cos(k u) to 1e-13 or
# better while k w <= 1.5 n (measured for n = 20 and 32), so the panels are
# that wide at the integrand's rate: the field's band edge.
SEMINORM_FAR_NODES = 32
SEMINORM_NEAR_NODES = 20
# Relative tolerance of the quadrature's convergence guard.
SEMINORM_RTOL = 1e-10
# Nodes per block of the sin^2 product: a block x modes array, under 0.5 MB
# at 4096 points.  Freeing a block above 1 MB raised glibc's dynamic mmap
# threshold for the rest of the process, which moved the page faults of
# every later verify call (measured: about 3700 per call to 3).
_NODE_BLOCK = 64


@lru_cache(maxsize=8)
def _gauss_legendre(n: int):
    """Nodes and weights of the n-point rule on [-1, 1], and the rows
    j >= 3n/4 of its Legendre transform a_j = (j + 1/2) sum_i w_i P_j(x_i) f_i."""
    from numpy.polynomial import legendre

    x, w = legendre.leggauss(n)
    top = np.arange(n - n // 4, n)
    return x, w, (legendre.legvander(x, n - 1)[:, top] * w[:, None] * (top + 0.5)).T


def _panel_rule(edges: np.ndarray, n: int):
    """Nodes and weights, shape (panels, n), of the composite n-point rule."""
    x, w, _ = _gauss_legendre(n)
    half = 0.5 * np.diff(edges)[:, None]
    return 0.5 * (edges[:-1] + edges[1:])[:, None] + half * x, half * w


def _even_edges(a: float, b: float, n: int, rate: float) -> np.ndarray:
    """Edges of equal n-node panels on [a, b] for an integrand of ``rate``."""
    return np.linspace(a, b, math.ceil((b - a) * rate / (1.5 * n)) + 1)


def _panel_sum(values, weights):
    """The composite rule's integral of ``values`` (panels, n, s) and a guard
    term, a bound on the integral of the top quarter of degrees of each
    panel's Legendre interpolant: small only where the panels resolve
    ``values``."""
    tail = _gauss_legendre(weights.shape[1])[2]
    top = np.abs(np.einsum("tn,pns->pts", tail, values)).sum(axis=1)
    return np.einsum("pn,pns->s", weights, values), weights.sum(axis=1) @ top


def fractional_seminorm_sq(grid: OneDGrid, samples: np.ndarray, s):
    """Difference-quotient seminorm int int |g(x)-g(y)|^2 / |x-y|^{1+2s} dx dy.

    Reduces the double integral over the periodic box to a single integral of
    h(u) = int |g(x+u)-g(x)|^2 dx = 4 L sum |c_k|^2 sin^2(k u / 2) against
    u^{-1-2s} du on (0, L/2], doubled for the sign of u.  The |u| < delta
    core is replaced by its first-order Taylor bound 2 delta^{2-2s}/(2-2s) *
    ||g'||_2^2; delta shrinks until that bound is below 1e-3 of the total.
    The integral is a composite Gauss-Legendre rule in v = log u on
    [delta, split] and in u on [split, L/2]; h is one sin^2 product over the
    folded modes +-k, shared by every s.  ``s`` is a number or a sequence;
    returns (seminorm_sq, delta, core_fraction), arrays for a sequence.
    """
    s_arr = np.atleast_1d(np.asarray(s, dtype=float))
    if not np.all((s_arr > 0.0) & (s_arr < 1.0)):
        raise UsageError(f"s must lie in (0, 1), got {s}")
    c = grid.coeffs(samples)
    keep = np.abs(c) > 1e-16 * float(np.max(np.abs(c)))
    keep[0] = False  # the mean drops out of every difference
    k_fold, where = np.unique(np.abs(grid.k[keep]), return_inverse=True)
    power = np.bincount(where, weights=np.abs(c[keep]) ** 2)
    # The band edge: modes past it carry under 1e-20 of the peak power, too
    # little for the rule to need to resolve them.
    band = float(k_fold[power > 1e-20 * power.max()][-1])
    length = grid.period

    def h_sq(u: np.ndarray) -> np.ndarray:
        flat = u.ravel()
        out = np.empty(flat.size)
        for lo in range(0, flat.size, _NODE_BLOCK):
            arg = np.multiply.outer(0.5 * flat[lo : lo + _NODE_BLOCK], k_fold)
            np.sin(arg, out=arg)
            out[lo : lo + _NODE_BLOCK] = np.square(arg, out=arg) @ power
        return 4.0 * length * out.reshape(u.shape)

    grad_sq = grid.l2_sq(grid.derivative(samples, 1))
    split = min(0.1, length / 100.0)

    def near(lo: float, hi: float, s_near: np.ndarray):
        # Log substitution tames the u^{-1-2s} weight near the core.  In v
        # the integrand oscillates at rate <= band * hi; panels are at most
        # 1 wide, across which e^v grows at most e-fold.
        rate = max(band * hi, 1.5 * SEMINORM_NEAR_NODES)
        edges = _even_edges(math.log(lo), math.log(hi), SEMINORM_NEAR_NODES, rate)
        v, w = _panel_rule(edges, SEMINORM_NEAR_NODES)
        return _panel_sum(h_sq(np.exp(v))[..., None] * np.exp(-2.0 * v[..., None] * s_near), w)

    # The far integrand behaves like u^{1-2s} near u = 0: from split, panels
    # double in width, each as far from 0 as it is wide, until they are as
    # wide as the even panels.
    edges = [split]
    while edges[-1] < min(1.5 * SEMINORM_FAR_NODES / band, length / 4.0):
        edges.append(2.0 * edges[-1])
    edges[-1:] = _even_edges(edges[-1], length / 2.0, SEMINORM_FAR_NODES, band)
    u, w = _panel_rule(np.array(edges), SEMINORM_FAR_NODES)
    far, far_err = _panel_sum(h_sq(u)[..., None] * u[..., None] ** (-1.0 - 2.0 * s_arr), w)
    delta0 = 1e-4
    near0, near0_err = near(delta0, split, s_arr)

    core_target = 1e-3
    out = np.empty((3, s_arr.size))
    for i, s_i in enumerate(s_arr):
        half_tail, err, delta = near0[i] + far[i], near0_err[i] + far_err[i], delta0
        for attempt in range(4):
            if attempt:
                piece, piece_err = near(delta, previous, s_arr[i : i + 1])
                half_tail, err = half_tail + piece[0], err + piece_err[0]
            if half_tail > 0.0 and err > SEMINORM_RTOL * half_tail:
                raise UsageError("quadrature for the difference seminorm did not converge")
            tail = 2.0 * half_tail
            core = 2.0 * delta ** (2.0 - 2.0 * s_i) / (2.0 - 2.0 * s_i) * grad_sq
            total = tail + core
            if core <= core_target * total:
                break
            previous = delta
            delta = (0.5 * core_target * total * (2.0 - 2.0 * s_i) / (2.0 * grad_sq)) ** (
                1.0 / (2.0 - 2.0 * s_i)
            )
        out[:, i] = tail + core, delta, core / (tail + core)
    return tuple(map(float, out[:, 0])) if np.ndim(s) == 0 else tuple(out)


def _support_width(grid: OneDGrid, samples: np.ndarray) -> float:
    live = np.abs(samples) > 1e-8 * float(np.max(np.abs(samples)))
    return float(np.count_nonzero(live)) * grid.dx


def check_gagliardo_equivalence(
    n_samples: int = 3,
    seed: int = 404,
) -> InequalityReport:
    """Difference-quotient vs spectral fractional norm, s(1-s)-normalized.

    For concentrated bumps on a large box, R(s) = seminorm^2 * s(1-s) /
    ||D^s g||_2^2 must land in [1/window, window], with window
    ``GAGLIARDO_WINDOW``, for every sample and every s; the s(1-s) factor
    absorbs the blow-up at both endpoints.
    """
    _check_sample_count(n_samples)
    grid = OneDGrid(2**12, 64.0 * math.pi)
    rng = np.random.default_rng(seed)
    ratios = {}
    worst_factor = 0.0
    worst = None
    for i in range(n_samples):
        g = bump_field_1d(grid, rng)
        if grid.period < 16.0 * _support_width(grid, g):
            raise UsageError("box must be >= 16x the sample support")
        c = grid.coeffs(g)
        seminorms = fractional_seminorm_sq(grid, g, GAGLIARDO_S_VALUES)
        for s, semi2, delta, core_frac in zip(GAGLIARDO_S_VALUES, *seminorms):
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
    verdict = worst_factor <= GAGLIARDO_WINDOW
    return InequalityReport(
        lemma_id="gagliardo_equiv",
        parameters={"s_values": list(GAGLIARDO_S_VALUES), "n": grid.n,
                    "period": grid.period},
        n_samples=n_samples,
        measured_constant=worst_factor,
        theoretical_bound=GAGLIARDO_WINDOW,
        verdict=verdict,
        seed=seed,
        details={"ratios_by_s": ratios, "window": GAGLIARDO_WINDOW},
        witness=worst,
    )


def check_ab_inequality(
    q: float = 4.0, n_samples: int = 1_000_000, seed: int = 505
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
    n_random = max(n_samples - det_a.size, 0)
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
    slack = 1e-12
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
    from scipy.optimize import brentq

    tau_star = brentq(gap, 1e-12, hi)
    return tau_star / n0**gamma


def check_spectral_mass_contraction(
    g: SpectralField,
    n0: float,
    eps0: float,
    gamma: float,
) -> InequalityReport:
    """Heat contraction for fields with high-frequency mass fraction >= eps0.

    Verifies ||e^{-tD^gamma}g||_2 <= e^{-eps0 N0^gamma t / 2} ||g||_2 on the
    grid, then scans past the conservative horizon to locate the crossover
    time; the largest verified t is the measured constant.
    """
    _check_gamma_range(gamma)
    # Parseval masses of the half spectrum: columns 0 < m2 < n/2 also stand
    # for their conjugate partners.
    mass = half_power(g.grid, g.coeffs)
    total = float(np.sum(mass))
    if total <= 0.0:
        raise UsageError("zero field")
    high = float(np.sum(mass[grid_arrays(g.grid).k_abs >= n0]))
    high_fraction = high / total
    if high_fraction < eps0:
        raise UsageError(
            f"high-frequency mass fraction {high_fraction:.3g} below eps0={eps0}"
        )
    horizon = spectral_mass_horizon(eps0, n0, gamma)
    top = 0.9 * horizon if math.isfinite(horizon) else 1.0 / n0**gamma
    t_grid = np.linspace(0.0, top, 25)[1:]
    rate = 0.5 * eps0 * n0**gamma
    kg = k_power(g.grid, gamma)

    def holds(t: float) -> bool:
        decayed = float(np.sum(np.exp(-2.0 * t * kg) * mass))
        return math.sqrt(decayed / total) <= math.exp(-rate * t)

    grid_ok = all(holds(float(t)) for t in t_grid)

    t_max = float(np.max(t_grid))
    scan_top = 20.0 * (horizon if math.isfinite(horizon) else t_max)
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


def _spectral_mass_contraction(
    grid: GridSpec = DEFAULT_GRID,
    eps0: float = 0.5,
    n0: float = 8.0,
    gamma: float = 0.5,
    seed: int = 808,
) -> InequalityReport:
    """Build a field whose high-frequency mass fraction clears eps0, then check it."""
    rng = np.random.default_rng(seed)
    high = gaussian_block_field(grid, max(3, int(math.log2(max(n0, 2.0)))), rng)
    low = low_pass_field(grid, 1, rng)
    # Scale the split so the high-frequency fraction strictly clears eps0.
    target = min(0.5 * (eps0 + 1.0), 0.99)
    high = high.with_coeffs(high.coeffs / sobolev_norm(high, 0.0) * math.sqrt(target))
    low = low.with_coeffs(
        low.coeffs / sobolev_norm(low, 0.0) * math.sqrt(1.0 - target)
    )
    g = high.with_coeffs(high.coeffs + low.coeffs)
    return check_spectral_mass_contraction(g, n0, eps0, gamma)


def check_lq_semigroup_decay(
    grid: GridSpec | None = None,
    j: int = 3,
    gamma: float = 0.5,
    n_samples: int = 100,
    seed: int = 606,
) -> InequalityReport:
    """Same protocol as check_heat_decay, plus q-uniformity of the rate.

    The fitted decay constant must agree within +-50% of the median across
    the q sweep: the semigroup bound has a single rate for every 1 < q < inf.
    """
    grid = grid or DEFAULT_GRID
    _check_gamma_range(gamma)
    rng = np.random.default_rng(seed)
    c_by_q = {q: _decay_sweep(grid, j, gamma, q, n_samples, rng)[0]
              for q in LQ_DECAY_Q_VALUES}
    values = list(c_by_q.values())
    uniform = _within_decay_spread(values)
    measured = float(np.min(values))
    return InequalityReport(
        lemma_id="lq_semigroup_decay",
        parameters={"gamma": gamma, "j": j, "q_values": list(LQ_DECAY_Q_VALUES)},
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


def collinear_phase_infimum(gamma: float) -> float:
    """Infimum of (1 + x^gamma - (1+x)^gamma) / min(1, x^gamma) on a dense scan.

    The 2-d normalized phase ratio is minimized by aligned frequencies, so
    this 1-d reduction is the sharp reference value.
    """
    x = np.geomspace(1e-6, 1e3, 200001)
    ratio = (1.0 + x**gamma - (1.0 + x) ** gamma) / np.minimum(1.0, x**gamma)
    return float(np.min(ratio))


def _phase_fd_constants(gamma: float) -> dict:
    """Finite-difference derivative constants in the |xi| << 1, |eta| ~ 1 regime.

    For multi-indices |a|, |b| <= 2 measures max |d^a_xi d^b_eta sigma| *
    |xi|^{|a|-gamma} over sample points; finite values confirm the symbol
    derivative bounds without symbolic differentiation.  Every stencil
    evaluation takes all sample points at once, as ``(points, 2)`` arrays:
    289 calls of :func:`dissipation_phase` for the nine constants.
    """
    xi_pts, eta_pts = [], []
    for r in (1e-3, 1e-2, 1e-1):
        for phi in (0.0, 0.7, 2.1):
            for rho, psi in ((1.0, 0.3), (1.3, 1.9)):
                xi_pts.append((r * math.cos(phi), r * math.sin(phi)))
                eta_pts.append((rho * math.cos(psi), rho * math.sin(psi)))
    xi, eta = np.array(xi_pts), np.array(eta_pts)
    # |xi| of each point as the 1-d norm (a dot product) rounds it.
    xi_abs = [float(np.linalg.norm(x)) for x in xi]

    def f(x, e):
        return dissipation_phase(x, e, gamma)

    def central(fun, slot, step, h):
        """Central difference of ``fun`` along ``step`` (length ``h``) in its
        argument ``slot``: 0 for xi, 1 for eta."""

        def diff(*pt):
            plus, minus = list(pt), list(pt)
            plus[slot], minus[slot] = pt[slot] + step, pt[slot] - step
            return (fun(*plus) - fun(*minus)) / (2 * h)

        return diff

    def deriv(a, b) -> list:
        # Nested central differences, the xi-derivative of multi-index a
        # inside the eta-derivative of b; xi-steps scale with each point's
        # |xi| to stay in-regime.
        fun = f
        for slot, order, h in ((0, a, 1e-3 * np.array(xi_abs)), (1, b, 1e-3)):
            for axis, count in enumerate(order):
                step = np.zeros_like(xi)
                step[:, axis] = h
                for _ in range(count):
                    fun = central(fun, slot, step, h)
        return np.abs(fun(xi, eta)).tolist()

    constants = {}
    for a_total in range(3):
        for b_total in range(3):
            weights = [x ** (a_total - gamma) for x in xi_abs]
            worst = 0.0
            for a in [(i, a_total - i) for i in range(a_total + 1)]:
                for b in [(i, b_total - i) for i in range(b_total + 1)]:
                    for val, weight in zip(deriv(a, b), weights):
                        worst = max(worst, val * weight)
            constants[f"|a|={a_total},|b|={b_total}"] = worst
    return constants


def check_phase_bounds(gamma: float = 0.5) -> InequalityReport:
    """Lower bound sigma(xi, eta) >= c * min(|xi|^gamma, |eta|^gamma) for gamma < 1.

    Sweeps |xi| log-spaced in [1e-3, 1], |eta| in [0.5, 2], all relative
    angles; by rotation invariance xi is pinned to the first axis.  For
    gamma = 1 the bound degenerates: sigma vanishes identically on the
    aligned cone xi = lambda eta, and the check certifies that instead.
    """
    _check_gamma_range(gamma, upper=1.0)
    xi_radii = np.geomspace(1e-3, 1.0, 40)
    eta_radii = np.linspace(0.5, 2.0, 12)
    angles = np.linspace(0.0, 2.0 * math.pi, 48, endpoint=False)
    cone_tol, infimum_floor = 1e-3, 0.01

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


def _check_trilinear_grid(grid: GridSpec, regime: str) -> None:
    """Refuse, before any draw, a grid whose dealias block (lattice indices up
    to ``floor(dealias_fraction n / 2)``, all at fraction 1) misses a field
    the regime transports at the top j: block-j and low-pass fields end at
    ``PROFILE_OUTER 2^j``, the localized band at ``2^j``; random ones (K/2) fit."""
    j = max(TRILINEAR_J_VALUES)
    radius = {"random": 0.0, "localized": 2.0**j}.get(regime, PROFILE_OUTER * 2.0**j)
    half_n = math.ceil((math.floor(radius / grid.freq_scale) - 1e-12) / grid.dealias_fraction)
    if grid.n < 2 * half_n and grid.dealias_fraction < 1.0:
        raise UsageError(f"grid {grid.n} is too small for the {regime} regime: its fields "
                         f"reach |k| = {radius:.4g} at j = {j}, past the dealias block; "
                         f"the smallest grid it runs on is {2 * half_n}")


def check_trilinear_bounds(
    grid: GridSpec | None = None,
    gamma: float = 0.5,
    regime: str = "random",
    n_samples: int = 8,
    seed: int = 707,
) -> InequalityReport:
    """Ratio stability for the weighted transport trilinear form.

    For s = 2 - gamma measures |N(g, f, f)| / (||g||_{H^s} ||f||_{H^{s+g/2}}^2)
    (homogeneous norms, the form taken at t = 0) across frequency regimes and
    block scales j.  The estimate is an upper bound, so regimes with extra
    cancellation (the diagonal one in particular) legitimately produce ratios
    that shrink with j; the admissibility gate is therefore growth-only:
    ratios at higher blocks may not exceed ``TRILINEAR_SPREAD`` times the
    coarsest-block level.  The "localized" regime instead measures
    |N(g, g, f)| against N0^{2s+2} ||g||_2^2 ||f||_2 for spectra confined to
    B(0, N0) and B(0, 2 N0).  A grid too small for the regime is refused
    before any draw (:func:`_check_trilinear_grid`).
    """
    grid = grid or DEFAULT_GRID
    if not 0.0 < gamma < 1.0:
        raise UsageError(f"gamma must lie in (0, 1), got {gamma}")
    if regime not in TRILINEAR_REGIMES:
        raise UsageError(f"regime must be one of {TRILINEAR_REGIMES}")
    _check_trilinear_grid(grid, regime)
    _check_sample_count(n_samples)
    s = 2.0 - gamma
    t = 0.0
    rng = np.random.default_rng(seed)
    ratios = []
    by_j = {}
    peak_by_j = []
    worst = None
    for j in TRILINEAR_J_VALUES:
        local = []
        for i in range(n_samples):
            if regime == "localized":
                n0 = float(2**j)
                g = band_limited_field(grid, n0, rng)
                f = band_limited_field(grid, 2.0 * n0, rng)
                value = abs(trilinear_form(g, g, f, t, gamma))
                l2_g = sobolev_norm(g, 0.0)
                l2_f = sobolev_norm(f, 0.0)
                bound = n0 ** (2.0 * s + 2.0) * l2_g**2 * l2_f
            else:
                g, f = _trilinear_pair(grid, regime, j, rng)
                value = abs(trilinear_form(g, f, f, t, gamma))
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
    verdict = finite and growth <= TRILINEAR_SPREAD
    return InequalityReport(
        lemma_id="bilinear_ratio",
        parameters={"gamma": gamma, "regime": regime,
                    "j_values": list(TRILINEAR_J_VALUES), "t": t},
        n_samples=n_samples * len(TRILINEAR_J_VALUES),
        measured_constant=float(np.max(ratios)),
        theoretical_bound="unknown",
        verdict=verdict,
        seed=seed,
        details={"growth": growth, "growth_limit": TRILINEAR_SPREAD, "by_j": by_j},
        witness=worst,
    )


#: Lemma id -> its check, which ``sqglab verify <id>`` runs with the flags
#: named by the check's parameters.  An InequalityReport refuses any other id.
LEMMAS = {
    "heat_decay": check_heat_decay,
    "coercivity_q": check_coercivity,
    "sign_integral_q1": check_sign_integral,
    "max_point_bound": check_max_point,
    "lq_semigroup_decay": check_lq_semigroup_decay,
    "bilinear_ratio": check_trilinear_bounds,
    "gagliardo_equiv": check_gagliardo_equivalence,
    "ab_pointwise": check_ab_inequality,
    "spectral_mass_contraction": _spectral_mass_contraction,
    "phase_lower_bound": check_phase_bounds,
    "counterexample_gamma2": counterexample_gamma2_q1,
}
