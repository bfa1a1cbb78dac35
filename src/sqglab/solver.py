"""Pseudospectral time integration of dissipative SQG transport.

The equation is theta_t + u . grad(theta) + nu D^gamma theta = 0 with
u = riesz_perp(theta) on the periodic box.  The stiff dissipation is applied
exactly through heat multipliers (integrating factor); only the transport
term is stepped explicitly, so the linear flow is reproduced to round-off
regardless of dt.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np
from scipy.integrate import simpson

from .dyadic import DyadicPartition, block_power_weights, default_partition, half_besov_norm
from .errors import CflGuardError, GuardError, OverflowGuardError, UsageError
from .reports import write_timeseries_csv
from .spectral import (
    GEVREY_EXPONENT_CAP,
    GridSpec,
    MultiplierSpec,
    SpectralField,
    apply_multiplier,
    field_lp_norm,
    gevrey_half_weight,
    grid_arrays,
    half_power,
    hermitian_symmetrize,
    k_power,
    lp_norm,
    sobolev_weights,
    synthesize,
    transport,
    weighted_norm,
)

INTEGRATORS = ("if_rk4", "etd_rk2")

CFL_WARN = 1.0
CFL_ERROR = 2.0

# Below this |z| the phi functions switch to series; expm1 alone is exact
# enough, but the z^2 division amplifies noise.
_PHI_SERIES_CUTOFF = 1e-5


@dataclass(frozen=True)
class SolverConfig:
    """Run parameters; validation happens at construction."""

    grid: GridSpec
    nu: float = 1.0
    gamma: float = 0.5
    dt: float = 1e-3
    t_final: float = 0.1
    integrator: str = "if_rk4"
    gevrey_epsilon0: float = 0.5
    besov_p: float = 2.0
    besov_q: float = 2.0
    galerkin_n: int | None = None
    j0: int | None = None
    output_stride: int = 1
    snapshot_stride: int = 0

    def __post_init__(self) -> None:
        if self.nu < 0.0:
            raise UsageError(f"nu must be nonnegative, got {self.nu}")
        if not 0.0 < self.gamma <= 2.0:
            raise UsageError(f"gamma must lie in (0, 2], got {self.gamma}")
        if self.dt <= 0.0:
            raise UsageError(f"dt must be positive, got {self.dt}")
        if self.t_final <= 0.0:
            raise UsageError(f"t_final must be positive, got {self.t_final}")
        if self.integrator not in INTEGRATORS:
            raise UsageError(f"integrator must be one of {INTEGRATORS}")
        if not 0.0 < self.gevrey_epsilon0 < 1.0:
            raise UsageError(
                f"gevrey_epsilon0 must lie in (0, 1), got {self.gevrey_epsilon0}"
            )
        if self.besov_p < 1.0 or self.besov_q < 1.0:
            raise UsageError("besov_p and besov_q must be >= 1")
        if self.galerkin_n is not None and self.galerkin_n < 1:
            raise UsageError("galerkin_n must be >= 1 when set")
        if self.output_stride < 1:
            raise UsageError("output_stride must be >= 1")
        if self.snapshot_stride < 0:
            raise UsageError("snapshot_stride must be >= 0")


def _require_mean_free(coeffs: np.ndarray) -> None:
    scale = float(np.max(np.abs(coeffs)))
    if scale > 0.0 and abs(coeffs[0, 0]) > 1e-12 * scale:
        raise UsageError("field must be mean-free")


def nonlinear_term(
    theta: SpectralField, projection: int | None = None
) -> SpectralField:
    """-dealias(u . grad(theta)), the advective right-hand side.

    With ``projection`` set, computes the frequency-truncated tendency
    -P_{<=proj}(R_perp(P_{<=proj} theta) . grad(P_{<=proj} theta)) used by the
    Galerkin scheme.
    """
    _require_mean_free(theta.coeffs)
    rhs, _ = _advective_rhs(theta.grid, theta.coeffs, projection)
    return SpectralField(theta.grid, rhs)


def _advective_rhs(grid: GridSpec, coeffs: np.ndarray, projection: int | None):
    """Core tendency shared by the steppers; returns (rhs coeffs, max |u|)."""
    if projection is None:
        out, umax = transport(grid, coeffs, coeffs)
        return np.negative(out, out=out), umax
    low = MultiplierSpec.low_pass(projection).symbol_on(grid)
    coeffs = coeffs * low
    out, umax = transport(grid, coeffs, coeffs)
    out *= -low
    return out, umax


def _phi1(z: np.ndarray) -> np.ndarray:
    small = np.abs(z) < _PHI_SERIES_CUTOFF
    safe = np.where(small, 1.0, z)
    out = np.expm1(safe) / safe
    series = 1.0 + z / 2.0 + z * z / 6.0
    return np.where(small, series, out)


def _phi2(z: np.ndarray) -> np.ndarray:
    small = np.abs(z) < _PHI_SERIES_CUTOFF
    safe = np.where(small, 1.0, z)
    out = (np.expm1(safe) - safe) / (safe * safe)
    series = 0.5 + z / 6.0 + z * z / 24.0
    return np.where(small, series, out)


class Stepper:
    """Advances coefficients by dt with the configured scheme.

    The advecting field may be overridden per step (``advect_coeffs``), which
    turns the update into the linear advection-diffusion flow used by the
    Picard scheme; the override is treated as frozen within the step.
    """

    def __init__(self, config: SolverConfig, projection: int | None = None):
        self.config = config
        self.projection = projection
        self.grid = config.grid
        self._symbol = config.nu * k_power(self.grid, config.gamma)
        self._kmax = self.grid.dealias_radius
        self._factors: dict[float, tuple] = {}
        self.cfl_max = 0.0
        self._warned = False

    def _factor_set(self, dt: float):
        cached = self._factors.get(dt)
        if cached is None:
            z = -self._symbol * dt
            if self.config.integrator == "if_rk4":
                e_half = np.exp(0.5 * z)
                cached = (e_half, e_half * e_half)
            else:
                cached = (np.exp(z), _phi1(z), _phi2(z))
            self._factors[dt] = cached
        return cached

    def _rhs(self, coeffs: np.ndarray, advect: np.ndarray | None, dt: float):
        """Stage tendency; every stage's velocity goes through the CFL guard."""
        if advect is None:
            out, umax = _advective_rhs(self.grid, coeffs, self.projection)
        else:
            # Frozen advecting field: advect the state with the override's
            # velocity.
            out, umax = transport(self.grid, advect, coeffs)
            np.negative(out, out=out)
        self._check_cfl(dt, umax)
        return out

    def _check_cfl(self, dt: float, umax: float) -> None:
        number = dt * umax * self._kmax
        self.cfl_max = max(self.cfl_max, number)
        if number > CFL_ERROR:
            raise CflGuardError(
                f"CFL number {number:.3g} exceeds hard limit {CFL_ERROR}"
            )
        if number > CFL_WARN and not self._warned:
            self._warned = True
            warnings.warn(
                f"CFL number {number:.3g} above advisory limit {CFL_WARN}",
                RuntimeWarning,
                stacklevel=4,
            )

    def step(
        self,
        coeffs: np.ndarray,
        dt: float | None = None,
        advect_coeffs: np.ndarray | None = None,
        advect_coeffs_end: np.ndarray | None = None,
    ) -> np.ndarray:
        """One step; with an override, stage fields interpolate linearly in t."""
        dt = self.config.dt if dt is None else dt
        if self.config.integrator == "if_rk4":
            return self._step_if_rk4(coeffs, dt, advect_coeffs, advect_coeffs_end)
        return self._step_etd_rk2(coeffs, dt, advect_coeffs, advect_coeffs_end)

    def _advect_at(self, start, end, frac):
        if start is None:
            return None
        if end is None:
            return start
        return (1.0 - frac) * start + frac * end

    def _step_if_rk4(self, coeffs, dt, adv0, adv1):
        e1, e2 = self._factor_set(dt)
        m1 = self._rhs(coeffs, self._advect_at(adv0, adv1, 0.0), dt)
        half = self._advect_at(adv0, adv1, 0.5)
        m2 = self._rhs(e1 * (coeffs + 0.5 * dt * m1), half, dt)
        m3 = self._rhs(e1 * coeffs + 0.5 * dt * m2, half, dt)
        m4 = self._rhs(e2 * coeffs + dt * e1 * m3, self._advect_at(adv0, adv1, 1.0), dt)
        out = e2 * coeffs + (dt / 6.0) * (e2 * m1 + 2.0 * e1 * (m2 + m3) + m4)
        if not np.all(np.isfinite(out)):
            raise GuardError("non-finite state after step (NaN guard)")
        return out

    def _step_etd_rk2(self, coeffs, dt, adv0, adv1):
        ez, p1, p2 = self._factor_set(dt)
        n0 = self._rhs(coeffs, self._advect_at(adv0, adv1, 0.0), dt)
        predictor = ez * coeffs + dt * p1 * n0
        n1 = self._rhs(predictor, self._advect_at(adv0, adv1, 1.0), dt)
        out = predictor + dt * p2 * (n1 - n0)
        if not np.all(np.isfinite(out)):
            raise GuardError("non-finite state after step (NaN guard)")
        return out


@dataclass
class TimeSeries:
    """Diagnostic columns plus optional state snapshots from one run."""

    config: SolverConfig
    columns: dict = field(default_factory=dict)
    snapshots: list = field(default_factory=list)
    final_state: SpectralField | None = None
    aborted: bool = False
    abort_reason: str = ""
    cfl_max: float = 0.0

    def write_csv(self, path: str) -> None:
        write_timeseries_csv(path, self.columns)

    def column(self, name: str) -> np.ndarray:
        return np.asarray(self.columns[name], dtype=np.float64)


def gevrey_safe_horizon(
    grid: GridSpec, gamma: float, weight: float, cap: float = GEVREY_EXPONENT_CAP
) -> float:
    """Largest t with weight * t * k^gamma <= cap on every retained mode."""
    if weight <= 0.0:
        return math.inf
    return cap / (weight * grid.dealias_radius**gamma)


def _series_columns(partition: DyadicPartition, j0: int | None) -> list:
    names = [
        "t",
        "l1",
        "l2",
        "l4",
        "linf",
        "h_neg_half",
        "h_crit",
        "gevrey_h_crit",
        "gevrey_dissipation_integral",
        "dissipation",
        "besov_weighted",
    ]
    names += [f"block_{j}_l2" for j in partition.block_indices()]
    if j0 is not None:
        names += ["split_low_l2", "split_high_l2"]
    return names


def run_simulation(theta0: SpectralField, config: SolverConfig) -> TimeSeries:
    """Integrate to t_final, emitting diagnostics every ``output_stride`` steps.

    The weighted diagnostics use the exponents from the analyticity
    estimates: e^{eps0 t D^gamma} in front of the critical Sobolev norm and
    e^{t D^gamma / 2} in front of the critical Besov norm.  A guard rejects
    configurations whose final-time weight would overflow.  On a NaN or CFL
    abort mid-run the partial series is returned with ``aborted`` set.

    With ``galerkin_n`` set the dyadically truncated system is integrated
    instead (data and tendency projected to blocks <= galerkin_n - 1); with
    ``j0`` set two extra columns report the L2 mass below and above the
    split frequency.
    """
    grid = config.grid
    if theta0.grid != grid:
        raise UsageError("initial data grid does not match config grid")
    _require_mean_free(theta0.coeffs)
    weight = max(config.gevrey_epsilon0, 0.5)
    horizon = gevrey_safe_horizon(grid, config.gamma, weight)
    if config.t_final > horizon:
        raise OverflowGuardError(
            f"gevrey weight exceeds exponent cap before t_final: "
            f"safe horizon {horizon:.6g}, requested {config.t_final:.6g}"
        )

    ka = grid_arrays(grid)
    partition = default_partition(grid)
    names = _series_columns(partition, config.j0)
    series = TimeSeries(config, columns={name: [] for name in names})
    cols = series.columns
    m = grid.n // 2 + 1
    s_crit = 2.0 - config.gamma
    s_besov = 1.0 - config.gamma + 2.0 / config.besov_p
    area = grid.period**2
    w_neg_half = sobolev_weights(grid, -0.5, True)
    w_crit = sobolev_weights(grid, s_crit, False)
    w_diss = sobolev_weights(grid, config.gamma / 2.0, True)
    w_mid = sobolev_weights(grid, 2.0 - config.gamma / 2.0, False)
    block_rows = block_power_weights(partition)[:-1].reshape(-1, grid.n * m)
    block_names = [f"block_{j}_l2" for j in partition.block_indices()]
    split_rows = None
    if config.j0 is not None:
        split_sym = MultiplierSpec.low_pass(config.j0).symbol_on(grid)[:, :m]
        split_rows = np.stack([split_sym**2, (1.0 - split_sym) ** 2]).reshape(2, -1)

    integral_state = {"value": 0.0, "last_t": None, "last_sq": None}

    def emit(t: float, coeffs: np.ndarray) -> None:
        """One diagnostics row: every column from one half-spectrum power."""
        half = coeffs[:, :m]
        power = half_power(grid, half)
        samples = synthesize(grid, half)
        cols["t"].append(t)
        for p, name in ((1.0, "l1"), (2.0, "l2"), (4.0, "l4"), (math.inf, "linf")):
            cols[name].append(lp_norm(samples, p, grid.cell_area))
        cols["h_neg_half"].append(weighted_norm(grid, w_neg_half, power))
        cols["h_crit"].append(weighted_norm(grid, w_crit, power))
        warm = gevrey_half_weight(grid, config.gevrey_epsilon0, t, config.gamma, half)
        warm_power = power * warm
        warm_power *= warm
        cols["gevrey_h_crit"].append(weighted_norm(grid, w_crit, warm_power))
        if config.gevrey_epsilon0 == 0.5:
            half_warm, half_warm_power = warm, warm_power
        else:
            half_warm = gevrey_half_weight(grid, 0.5, t, config.gamma, half)
            half_warm_power = power * half_warm
            half_warm_power *= half_warm
        cols["besov_weighted"].append(
            half_besov_norm(
                partition, half * half_warm, s_besov, config.besov_p,
                config.besov_q, power=half_warm_power,
            )
        )
        cols["dissipation"].append(area * float(np.vdot(w_diss, power)))
        warm_mid = area * float(np.vdot(w_mid, warm_power))
        if integral_state["last_t"] is not None:
            dt_out = t - integral_state["last_t"]
            integral_state["value"] += (
                0.5 * (integral_state["last_sq"] + warm_mid) * dt_out
            )
        integral_state["last_t"] = t
        integral_state["last_sq"] = warm_mid
        cols["gevrey_dissipation_integral"].append(integral_state["value"])
        flat = power.ravel()
        for name, sq in zip(block_names, block_rows @ flat):
            cols[name].append(math.sqrt(area * sq))
        if split_rows is not None:
            low_sq, high_sq = split_rows @ flat
            cols["split_low_l2"].append(math.sqrt(area * low_sq))
            cols["split_high_l2"].append(math.sqrt(area * high_sq))

    def snapshot(t: float, coeffs: np.ndarray) -> None:
        # SpectralField copies the writeable array it is given.
        series.snapshots.append((t, SpectralField(grid, coeffs)))

    projection = None if config.galerkin_n is None else config.galerkin_n - 1
    stepper = Stepper(config, projection=projection)
    coeffs = theta0.coeffs * ka.dealias_mask
    if projection is not None:
        coeffs = coeffs * MultiplierSpec.low_pass(projection).symbol_on(grid)
    n_steps = int(math.ceil(config.t_final / config.dt - 1e-12))
    emit(0.0, coeffs)
    if config.snapshot_stride > 0:
        snapshot(0.0, coeffs)
    t = 0.0
    try:
        for k in range(1, n_steps + 1):
            dt = min(config.dt, config.t_final - t)
            coeffs = stepper.step(coeffs, dt=dt)
            t += dt
            if k % config.output_stride == 0 or k == n_steps:
                emit(t, coeffs)
            if config.snapshot_stride > 0 and (
                k % config.snapshot_stride == 0 or k == n_steps
            ):
                snapshot(t, coeffs)
    except GuardError as guard:
        series.aborted = True
        series.abort_reason = f"{type(guard).__name__}: {guard}"
    else:
        series.final_state = SpectralField(grid, coeffs)
    series.cfl_max = stepper.cfl_max
    return series


def conservation_report(series: TimeSeries, slack: float = 1e-6) -> dict:
    """Monotonicity and energy-balance audit of a finished run.

    Checks per-output-row nonincrease (relative slack per row) of the L2,
    Linf and H^{-1/2} columns, and the discrete L2 energy balance
    ||theta(T)||^2 - ||theta(0)||^2 = -2 nu int ||D^{gamma/2} theta||^2 dt
    with the integral taken by Simpson's rule over the output grid.
    """
    t = series.column("t")
    report = {"nu": series.config.nu, "slack": slack}
    for name in ("l2", "linf", "h_neg_half"):
        vals = series.column(name)
        increases = np.diff(vals) / np.maximum(vals[:-1], 1e-300)
        worst = float(np.max(increases)) if increases.size else 0.0
        report[f"{name}_max_increase"] = worst
        report[f"{name}_monotone"] = bool(worst <= slack)
    l2 = series.column("l2")
    diss = series.column("dissipation")
    drop = l2[-1] ** 2 - l2[0] ** 2
    dissipated = 2.0 * series.config.nu * float(simpson(diss, x=t))
    residual = abs(drop + dissipated) / max(l2[0] ** 2, 1e-300)
    report["energy_balance_residual"] = residual
    report["l2_relative_drift"] = abs(l2[-1] - l2[0]) / max(l2[0], 1e-300)
    return report


def mild_residual(series: TimeSeries, t0: float, t1: float, p: float = 2.0) -> float:
    """Integral-form defect over stored snapshots in [t0, t1].

    Rebuilds theta(t1) from theta(t0) by propagating with the heat flow and
    adding the Duhamel integral of the transport term (Simpson over the
    snapshot grid), then returns the relative L^p gap against the stored
    theta(t1).
    """
    grid = series.config.grid
    nu = series.config.nu
    gamma = series.config.gamma
    nodes = [(ts, f) for ts, f in series.snapshots if t0 - 1e-12 <= ts <= t1 + 1e-12]
    if len(nodes) < 3:
        raise UsageError("mild_residual needs at least three stored snapshots")
    times = np.array([ts for ts, _ in nodes])
    if not math.isclose(times[0], t0, abs_tol=1e-10) or not math.isclose(
        times[-1], t1, abs_tol=1e-10
    ):
        raise UsageError("snapshots must bracket [t0, t1]")

    propagated = apply_multiplier(
        nodes[0][1], MultiplierSpec.heat(nu, t1 - t0, gamma)
    ).coeffs
    integrand = np.empty((len(nodes),) + propagated.shape, dtype=np.complex128)
    for i, (ts, state) in enumerate(nodes):
        tendency = nonlinear_term(state)
        cooled = apply_multiplier(
            tendency, MultiplierSpec.heat(nu, t1 - ts, gamma)
        )
        integrand[i] = cooled.coeffs
    duhamel = simpson(integrand, x=times, axis=0)
    rebuilt = propagated + duhamel
    target = nodes[-1][1]
    # The defect is tiny, so round-off conjugate asymmetry can be large
    # relative to the defect itself; symmetrize instead of rejecting.
    gap = SpectralField(grid, hermitian_symmetrize(target.coeffs - rebuilt))
    scale = field_lp_norm(target, p)
    return field_lp_norm(gap, p) / max(scale, 1e-300)
