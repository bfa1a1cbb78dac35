"""Pseudospectral time integration of dissipative SQG transport.

The equation is theta_t + u . grad(theta) + nu D^gamma theta = 0 with
u = R_perp theta on the periodic box.  The stiff dissipation is applied
exactly through heat factors (integrating factor); only the transport
term is stepped explicitly, so the linear flow is reproduced to round-off
regardless of dt.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .dyadic import _RowCore, default_partition
from .errors import CflGuardError, GuardError, OverflowGuardError, UsageError
from .reports import write_timeseries_csv
from .spectral import (
    GEVREY_EXPONENT_CAP,
    PROFILE_OUTER,
    GridSpec,
    SpectralField,
    Velocity,
    _block_advect,
    _block_velocity,
    _dealias_block,
    _peak_speed,
    field_lp_norm,
    grid_arrays,
    k_power,
    low_pass_symbol,
    transport,
)

INTEGRATORS = ("if_rk4", "etd_rk2")

CFL_WARN = 1.0
CFL_ERROR = 2.0

#: Most steps one run may take, ``ceil(t_final / dt)``: three to six
#: minutes at 16^2 (0.18 ms an ETD-RK2 step, 0.37 ms an IF-RK4 step, on a
#: 2-vCPU host), and ten times the 10^5 of the longest config the tests
#: build.  A config past it is refused before anything is allocated.
MAX_STEPS = 1_000_000

#: Weight w of the Gevrey factor e^{w t D^gamma} in front of the critical
#: Besov norm of the diagnostics rows.
BESOV_GEVREY_WEIGHT = 0.5

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
        for name in ("nu", "dt", "t_final"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise UsageError(f"{name} must be finite, got {value}")
        if self.nu < 0.0:
            raise UsageError(f"nu must be nonnegative, got {self.nu}")
        if not 0.0 < self.gamma <= 2.0:
            raise UsageError(f"gamma must lie in (0, 2], got {self.gamma}")
        if self.dt <= 0.0:
            raise UsageError(f"dt must be positive, got {self.dt}")
        if self.t_final <= 0.0:
            raise UsageError(f"t_final must be positive, got {self.t_final}")
        # ceil(x) > MAX_STEPS exactly when x > MAX_STEPS; an inf quotient too.
        steps = self.t_final / self.dt - 1e-12
        if steps > MAX_STEPS:
            raise UsageError(
                f"dt {self.dt:g} with t_final {self.t_final:g} asks for more than "
                f"the {MAX_STEPS} steps a run may take ({steps:.3g}); raise "
                "solver.dt or shorten solver.t_final"
            )
        if self.integrator not in INTEGRATORS:
            raise UsageError(f"integrator must be one of {INTEGRATORS}")
        if not 0.0 < self.gevrey_epsilon0 < 1.0:
            raise UsageError(
                f"gevrey_epsilon0 must lie in (0, 1), got {self.gevrey_epsilon0}"
            )
        if not (self.besov_p >= 1.0 and self.besov_q >= 1.0):
            raise UsageError("besov_p and besov_q must be >= 1")
        if self.galerkin_n is not None and self.galerkin_n < 1:
            raise UsageError("galerkin_n must be >= 1 when set")
        # Past these bounds the projection and the split are the identity on
        # every mode, and 2.0 ** j overflows for j of about 1025 or more.
        # Below j_min - 1 the low part of a mean-free field is already 0,
        # and 2.0 ** j underflows in the low-pass symbol.
        partition = default_partition(self.grid)
        j_min, j_max = partition.j_min, partition.j_max
        if self.galerkin_n is not None and self.galerkin_n > j_max + 1:
            raise UsageError(
                f"galerkin_n must be <= {j_max + 1} on this grid, got {self.galerkin_n}"
            )
        if self.j0 is not None and self.j0 > j_max:
            raise UsageError(f"j0 must be <= {j_max} on this grid, got {self.j0}")
        if self.j0 is not None and self.j0 < j_min - 1:
            raise UsageError(f"j0 must be >= {j_min - 1} on this grid, got {self.j0}")
        if self.output_stride < 1:
            raise UsageError("output_stride must be >= 1")
        if self.snapshot_stride < 0:
            raise UsageError("snapshot_stride must be >= 0")


def _require_mean_free(coeffs: np.ndarray) -> None:
    scale = float(np.max(np.abs(coeffs)))
    if scale > 0.0 and abs(coeffs[0, 0]) > 1e-12 * scale:
        raise UsageError("field must be mean-free")


def nonlinear_term(theta: SpectralField) -> SpectralField:
    """-dealias(u . grad(theta)), the advective right-hand side."""
    _require_mean_free(theta.coeffs)
    rhs, _ = transport(theta.grid, theta.coeffs, theta.coeffs)
    return SpectralField(theta.grid, np.negative(rhs, out=rhs))


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


@lru_cache(maxsize=16)
def _factor_tables(grid: GridSpec, nu: float, gamma: float, dt: float,
                   integrator: str) -> tuple:
    """Read-only exponential factors of ``-nu |k|^gamma dt`` on the dealias
    block of ``grid`` (``spectral._Block``).

    ``(e^{z/2}, e^z)`` for IF-RK4, ``(e^z, phi1(z), phi2(z))`` for ETD-RK2,
    evaluated in real arithmetic and stored complex with a zero imaginary
    part: a product with them is then the product with the real table, with
    no cast buffer.  Shared by every stepper with the same key, so sweeps
    that hold several steppers hold one copy.
    """
    block = _dealias_block(grid, False)
    z = -(nu * k_power(grid, gamma)[block.rows, : block.width]) * dt
    if integrator == "if_rk4":
        e_half = np.exp(0.5 * z)
        tables = (e_half, e_half * e_half)
    else:
        tables = (np.exp(z), _phi1(z), _phi2(z))
    tables = tuple(table.astype(np.complex128) for table in tables)
    for table in tables:
        table.flags.writeable = False
    return tables


def stepping_grid(grid: GridSpec, projection: int | None) -> GridSpec:
    """The smallest grid on which a step under ``projection`` is exact.

    The Galerkin low-pass at scale 2^p vanishes for |k| >= PROFILE_OUTER 2^p,
    a radius R = PROFILE_OUTER 2^p / freq_scale in lattice units, and the
    truncated tendency projects a product of two fields supported inside it.
    On N > 3R points every alias of that product lands past R, where the
    projection vanishes, and a dealias mask of radius
    N dealias_fraction / 2 >= R clips none of the support, so stepping there
    is exact.  The smallest such power of two N >= 8 is taken; ``grid``
    itself is kept when N is not below ``grid.n``.
    """
    if projection is None:
        return grid
    # A hair of margin so that a mode at round-off distance from R counts
    # as inside the support.
    radius = PROFILE_OUTER * 2.0**projection / grid.freq_scale * (1.0 + 1e-9)
    size = 8
    while size <= 3.0 * radius or grid.dealias_fraction * size / 2 < radius:
        size *= 2
    if size >= grid.n:
        return grid
    return GridSpec(size, grid.period, grid.dealias_fraction)


class Stepper:
    """Advances a half spectrum by dt with the configured scheme.

    States are rfft half spectra, ``(n, n/2 + 1)`` arrays: columns ``0..n/2``
    of a real field's coefficients.  A step may be handed the advecting
    velocity (``advect``, the :func:`spectral.velocity` of the advecting
    field at the step's start and end), which turns the update into the
    linear advection-diffusion flow used by the Picard scheme; the velocity
    is frozen within the step.  IF-RK4's mid-step velocity is the mean of
    the pair in samples (:meth:`_ramp`), so a ramped IF-RK4 step makes
    three transforms a stage, none for its velocities.

    The stages run on the step grid's dealias block (``spectral._Block``,
    ``block``), the ``(2K + 1, K + 1)`` modes a dealiased tendency can
    occupy: the state is restricted to it, stepped there, and embedded back
    into a copy of itself.  A state must lie in the block, and
    :meth:`step` raises ``UsageError`` on one with a nonzero mode outside
    it.  Dealiased data stay there, since every tendency is masked.

    With a ``projection`` the step grid is :func:`stepping_grid`'s, and the
    block is taken straight from the full grid's state, which must be
    projected (a projected tendency keeps it so).  The projection is
    gathered on the block once; where its support reaches past the block
    (a step grid that fell back to the full grid), the masked tendency
    vanishes anyway.  The CFL guard keeps the full grid's dealias radius as
    its ``kmax`` but reads the peak speed from the step grid's samples,
    which can fall below the full grid's.
    """

    def __init__(self, config: SolverConfig, projection: int | None = None):
        self.config = config
        self.projection = projection
        self.grid = config.grid
        self.step_grid = stepping_grid(self.grid, projection)
        self.block = _dealias_block(self.step_grid, False)
        self._shape = (self.grid.n, self.grid.n // 2 + 1)
        self._low_block = (None if projection is None
                           else self.block.gather(low_pass_symbol(self.step_grid, projection)))
        self._kmax = self.grid.dealias_radius
        self.cfl_max = 0.0
        self._warned = False

    def _factor_set(self, dt: float) -> tuple:
        """The factor tables on the block."""
        cfg = self.config
        return _factor_tables(self.step_grid, cfg.nu, cfg.gamma, dt, cfg.integrator)

    def _rhs(self, state: np.ndarray, vel: Velocity | None, dt: float,
             out: np.ndarray) -> np.ndarray:
        """Stage tendency of ``state``, an array on the block, into ``out``
        (which may be ``state``); every stage's velocity goes through the
        CFL guard.

        ``vel`` is the frozen advecting velocity, or None to advect the
        state by its own velocity.  ``-(x low)`` equals ``x (-low)`` up to
        the sign of zeros, so no negated table is needed.
        """
        block = self.block
        if vel is None:
            if self._low_block is not None:
                # The projected state goes to the stage buffer no stage uses.
                state = np.multiply(state, self._low_block, out=block.halves[3])
            vel = _block_velocity(block, state, block.samples[:2])
        _block_advect(block, vel, state, out)
        if self._low_block is not None:
            out *= self._low_block
        self._check_cfl(dt, vel.umax)
        # Negated as real pairs: the bits of a complex negation, at a fifth
        # of its cost.
        pairs = out.view(np.float64)
        np.negative(pairs, out=pairs)
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

    def step(self, coeffs: np.ndarray, dt: float | None = None,
             advect: tuple | None = None) -> np.ndarray:
        """One step of a half spectrum, advected by its own velocity or,
        with ``advect``, by a frozen one.

        ``advect`` is a ``(start, end)`` pair of :func:`spectral.velocity`
        results on the stepper's grid, the advecting field's velocities at
        the two ends of the step (the same velocity twice for a constant
        field); the stage velocities interpolate linearly in t between them.

        The stages run in the block's buffers (``halves``: 0-2 the stages,
        3 the projected state, 4 the restricted state, 5 its step), so the
        returned state is the one array a step allocates.
        """
        if np.shape(coeffs) != self._shape:
            raise UsageError(
                f"coeffs has shape {np.shape(coeffs)}; the stepper takes half "
                f"spectra of shape {self._shape}"
            )
        if advect is not None:
            samples = (self.grid.n, self.grid.n)
            if any(np.shape(u) != samples for vel in advect for u in (vel.u1, vel.u2)):
                raise UsageError(
                    f"advect takes velocities sampled on the stepper's grid, "
                    f"of shape {samples}"
                )
            if self.projection is not None:
                raise UsageError(
                    "a frozen advecting field does not combine with a projection: "
                    "its tendency would not be truncated"
                )
        block = self.block
        if block.outside(coeffs):
            raise UsageError(
                f"coeffs has a nonzero mode outside the {block.shape} dealias "
                f"block of the {self.step_grid.n}^2 step grid; the stepper takes "
                f"dealiased states, cut to the support of its projection if any"
            )
        dt = self.config.dt if dt is None else dt
        rk4 = self.config.integrator == "if_rk4"
        ramp = self._ramp(advect, rk4)
        state, out = block.restrict(coeffs, block.halves[4]), block.halves[5]
        if rk4:
            self._step_if_rk4(state, dt, ramp, out)
        else:
            self._step_etd_rk2(state, dt, ramp, out)
        if not np.isfinite(out.view(np.float64), out=block.finite).all():
            raise GuardError("non-finite state after step (NaN guard)")
        # Outside the block the state is zero, its own heat flow; the copy
        # keeps the signs of those zeros.
        return block.embed(out, coeffs.copy())

    def _ramp(self, advect, mid: bool) -> tuple:
        """Velocities at the stage times of a step: start, mid (if ``mid``)
        and end; all None without ``advect``, else its pair's.

        R_perp and the synthesis are linear, so the velocity of the mid field
        ``(start + end) / 2`` is the mean of the end velocities: it is
        formed in samples, in the block's ``mid_velocity``, with no
        transform, and its peak speed is read for the CFL guard like any
        other.  That block is on the full grid, since :meth:`step` refuses
        ``advect`` under a projection before it gets here.
        """
        if advect is None:
            return (None,) * (3 if mid else 2)
        v0, v1 = advect
        if not mid:
            return v0, v1
        block = self.block
        u = block.mid_velocity
        np.add(v0.u1, v1.u1, out=u[0])
        np.add(v0.u2, v1.u2, out=u[1])
        u *= 0.5
        return v0, Velocity(u[0], u[1], _peak_speed(u, block.samples[2])), v1

    # The stages below run in place, each operation in the order and with
    # the operands of the formula in its docstring, so the state is bitwise
    # the one the formula gives.  ``out`` serves as scratch until the last
    # line writes the result into it.

    def _step_if_rk4(self, coeffs, dt, ramp, out):
        """``m1 = N(c)``, ``m2 = N(e1 (c + dt/2 m1))``,
        ``m3 = N(e1 c + dt/2 m2)``, ``m4 = N(e2 c + dt e1 m3)``;
        ``e2 c + dt/6 (e2 m1 + 2 e1 (m2 + m3) + m4)``."""
        e1, e2 = self._factor_set(dt)
        v0, vh, v1 = ramp
        a, b, s = self.block.halves[:3]
        self._rhs(coeffs, v0, dt, a)                 # a = m1
        np.multiply(a, 0.5 * dt, out=b)
        b += coeffs
        b *= e1
        self._rhs(b, vh, dt, b)                      # b = m2
        a *= e2                                      # a = e2 m1
        np.multiply(e1, coeffs, out=s)
        np.multiply(b, 0.5 * dt, out=out)
        s += out
        self._rhs(s, vh, dt, s)                      # s = m3
        np.multiply(e1, dt, out=out)
        out *= s                                     # out = dt e1 m3
        b += s                                       # b = m2 + m3
        np.multiply(e2, coeffs, out=s)
        s += out
        self._rhs(s, v1, dt, s)                      # s = m4
        np.multiply(e1, 2.0, out=out)
        out *= b
        a += out
        a += s
        a *= dt / 6.0
        np.multiply(e2, coeffs, out=out)
        out += a
        return out

    def _step_etd_rk2(self, coeffs, dt, ramp, out):
        """``n0 = N(c)``, ``p = ez c + dt p1 n0``, ``n1 = N(p)``;
        ``p + dt p2 (n1 - n0)``."""
        ez, p1, p2 = self._factor_set(dt)
        v0, v1 = ramp
        a, p = self.block.halves[:2]
        self._rhs(coeffs, v0, dt, a)                 # a = n0
        np.multiply(ez, coeffs, out=p)
        np.multiply(p1, dt, out=out)
        out *= a
        p += out                                     # p = predictor
        self._rhs(p, v1, dt, out)                    # out = n1
        out -= a
        np.multiply(p2, dt, out=a)
        a *= out
        np.add(p, a, out=out)
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


def gevrey_safe_horizon(grid: GridSpec, gamma: float, weight: float) -> float:
    """Largest t with weight * t * k^gamma <= GEVREY_EXPONENT_CAP on retained modes."""
    if weight <= 0.0:
        return math.inf
    return GEVREY_EXPONENT_CAP / (weight * grid.dealias_radius**gamma)


#: Rows of a simulate row's table stack, one per Sobolev order of
#: :func:`_emit_core`: the ``h_neg_half`` and ``h_crit`` columns, the
#: dissipation and the Gevrey-weighted dissipation rate ``warm_mid``.
_H_NEG_HALF, _H_CRIT, _DISSIPATION, _WARM_MID = range(4)
#: Power columns of a row's sums: the state's power, then its power weighted
#: at ``gevrey_epsilon0``.  The Besov column's rate comes last.
_POWER, _EPS0_WEIGHTED = 0, 1


def _emit_core(config: SolverConfig) -> _RowCore:
    """The row core of :func:`run_simulation`'s diagnostics rows: the
    Sobolev orders of the rows ``_H_NEG_HALF``..``_WARM_MID``, and the
    Gevrey rates eps0, then the Besov column's when it differs."""
    gamma = config.gamma
    orders = ((-0.5, True), (2.0 - gamma, False), (gamma / 2.0, True),
              (2.0 - gamma / 2.0, False))
    lams = tuple(dict.fromkeys((config.gevrey_epsilon0, BESOV_GEVREY_WEIGHT)))
    return _RowCore(config.grid, gamma, orders, lams, config.j0)


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
    weight = max(config.gevrey_epsilon0, BESOV_GEVREY_WEIGHT)
    horizon = gevrey_safe_horizon(grid, config.gamma, weight)
    if config.t_final > horizon:
        raise OverflowGuardError(
            f"gevrey weight exceeds exponent cap before t_final: "
            f"safe horizon {horizon:.6g}, requested {config.t_final:.6g}"
        )

    ka = grid_arrays(grid)
    block_names = [f"block_{j}_l2" for j in default_partition(grid).block_indices()]
    split_names = [] if config.j0 is None else ["split_low_l2", "split_high_l2"]
    names = ["t", "l1", "l2", "l4", "linf", "h_neg_half", "h_crit", "gevrey_h_crit",
             "gevrey_dissipation_integral", "dissipation", "besov_weighted",
             *block_names, *split_names]
    series = TimeSeries(config, columns={name: [] for name in names})
    cols = series.columns
    s_besov = 1.0 - config.gamma + 2.0 / config.besov_p
    core = _emit_core(config)
    besov_col = len(core.lams)

    integral_state = {"value": 0.0, "last_t": None, "last_sq": None}

    def emit(t: float, half: np.ndarray) -> None:
        """One diagnostics row, appended once every column is computed; the
        rows of ``sums`` are the Sobolev orders, then the block and split
        rows."""
        sums = core.row(half, t)
        norms = np.sqrt(sums)
        row = dict(zip(("l1", "l2", "l4", "linf"), core.lp_norms()))
        row.update(
            t=t,
            h_neg_half=norms[_H_NEG_HALF, _POWER],
            h_crit=norms[_H_CRIT, _POWER],
            gevrey_h_crit=norms[_H_CRIT, _EPS0_WEIGHTED],
            dissipation=sums[_DISSIPATION, _POWER],
            besov_weighted=core.besov(sums, besov_col, s_besov, config.besov_p,
                                      config.besov_q),
        )
        # The last block row, the low-pass part, has no column.
        row.update(zip(block_names, norms[core.blocks, _POWER]))
        row.update(zip(split_names, norms[core.blocks.stop :, _POWER]))
        warm_mid = float(sums[_WARM_MID, _EPS0_WEIGHTED])
        if integral_state["last_t"] is not None:
            dt_out = t - integral_state["last_t"]
            integral_state["value"] += (
                0.5 * (integral_state["last_sq"] + warm_mid) * dt_out
            )
        integral_state["last_t"] = t
        integral_state["last_sq"] = warm_mid
        row["gevrey_dissipation_integral"] = integral_state["value"]
        for name, value in row.items():
            cols[name].append(float(value))

    projection = None if config.galerkin_n is None else config.galerkin_n - 1
    stepper = Stepper(config, projection=projection)
    # Every state is a fresh array that nothing writes to again, so the
    # snapshots and the final state wrap it read-only without a copy.
    coeffs = theta0.coeffs * ka.dealias_mask
    if projection is not None:
        coeffs = coeffs * low_pass_symbol(grid, projection)
    coeffs.flags.writeable = False
    n_steps = int(math.ceil(config.t_final / config.dt - 1e-12))
    emit(0.0, coeffs)
    if config.snapshot_stride > 0:
        series.snapshots.append((0.0, SpectralField(grid, coeffs)))
    t = 0.0
    try:
        for k in range(1, n_steps + 1):
            # A last step within round-off of dt is a full step, so it reuses
            # the run's factor tables instead of building its own.
            dt = config.t_final - t
            if dt > config.dt * (1.0 - 1e-9):
                dt = config.dt
            coeffs = stepper.step(coeffs, dt=dt)
            coeffs.flags.writeable = False
            t = config.t_final if k == n_steps else t + dt
            if k % config.output_stride == 0 or k == n_steps:
                emit(t, coeffs)
            if config.snapshot_stride > 0 and (
                k % config.snapshot_stride == 0 or k == n_steps
            ):
                series.snapshots.append((t, SpectralField(grid, coeffs)))
    except GuardError as guard:
        series.aborted = True
        series.abort_reason = f"{type(guard).__name__}: {guard}"
    else:
        series.final_state = SpectralField(grid, coeffs)
    series.cfl_max = stepper.cfl_max
    return series


def conservation_report(series: TimeSeries) -> dict:
    """Monotonicity and energy-balance audit of a finished run.

    Checks per-output-row nonincrease (relative slack per row) of the L2,
    Linf and H^{-1/2} columns, and the discrete L2 energy balance
    ||theta(T)||^2 - ||theta(0)||^2 = -2 nu int ||D^{gamma/2} theta||^2 dt
    with the integral taken by Simpson's rule over the output grid.
    """
    from scipy.integrate import simpson

    t = series.column("t")
    slack = 1e-6
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


def mild_residual(series: TimeSeries, t0: float, t1: float) -> float:
    """Integral-form defect over stored snapshots in [t0, t1].

    Rebuilds theta(t1) from theta(t0) by propagating with the heat flow and
    adding the Duhamel integral of the transport term (Simpson over the
    snapshot grid), then returns the relative L^2 gap against the stored
    theta(t1).
    """
    from scipy.integrate import simpson

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

    kg = k_power(grid, gamma)
    propagated = nodes[0][1].coeffs * np.exp(-nu * (t1 - t0) * kg)
    integrand = np.empty((len(nodes),) + propagated.shape, dtype=np.complex128)
    for i, (ts, state) in enumerate(nodes):
        integrand[i] = nonlinear_term(state).coeffs * np.exp(-nu * (t1 - ts) * kg)
    duhamel = simpson(integrand, x=times, axis=0)
    rebuilt = propagated + duhamel
    target = nodes[-1][1]
    gap = SpectralField(grid, target.coeffs - rebuilt)
    scale = field_lp_norm(target, 2.0)
    return field_lp_norm(gap, 2.0) / max(scale, 1e-300)
