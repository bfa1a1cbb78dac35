"""Spectral toolkit for dissipative surface quasi-geostrophic flow.

Layers, bottom up: periodic spectral fields and Fourier multipliers
(:mod:`sqglab.spectral`), dyadic frequency decompositions and Besov norms
(:mod:`sqglab.dyadic`), random field samplers (:mod:`sqglab.sampling`),
numerical verification of the analytic estimates (:mod:`sqglab.inequalities`),
the time integrator (:mod:`sqglab.solver`), approximation-scheme sweeps
(:mod:`sqglab.iterates`), and the command-line harness (:mod:`sqglab.cli`).
"""

__version__ = "0.1.0"

from .dyadic import (
    DyadicPartition,
    besov_norm,
    block_commutator,
    default_partition,
    trilinear_form,
)
from .errors import (
    CflGuardError,
    GuardError,
    OverflowGuardError,
    UsageError,
)
from .inequalities import (
    check_ab_inequality,
    check_coercivity,
    check_gagliardo_equivalence,
    check_heat_decay,
    check_lq_semigroup_decay,
    check_max_point,
    check_phase_bounds,
    check_sign_integral,
    check_spectral_mass_contraction,
    check_trilinear_bounds,
    counterexample_gamma2_q1,
)
from .iterates import galerkin_sequence, picard_besov_sequence
from .reports import (
    InequalityReport,
    IterateTrace,
    RateFit,
    RunManifest,
    fit_log2,
)
from .sampling import (
    OneDGrid,
    band_limited_field,
    bump_field_1d,
    gaussian_block_field,
    low_pass_field,
    power_law_field,
)
from .solver import (
    SolverConfig,
    Stepper,
    TimeSeries,
    conservation_report,
    mild_residual,
    nonlinear_term,
    run_simulation,
)
from .spectral import (
    GridSpec,
    SpectralField,
    block_symbol,
    field_lp_norm,
    forward_transform,
    full_spectrum,
    load_field,
    low_pass_symbol,
    lp_norm,
    save_field,
    sobolev_norm,
    transport,
)

__all__ = [
    "__version__",
    "CflGuardError",
    "DyadicPartition",
    "GridSpec",
    "GuardError",
    "InequalityReport",
    "IterateTrace",
    "OneDGrid",
    "OverflowGuardError",
    "RateFit",
    "RunManifest",
    "SolverConfig",
    "SpectralField",
    "Stepper",
    "TimeSeries",
    "UsageError",
    "band_limited_field",
    "besov_norm",
    "block_symbol",
    "block_commutator",
    "bump_field_1d",
    "check_ab_inequality",
    "check_coercivity",
    "check_gagliardo_equivalence",
    "check_heat_decay",
    "check_lq_semigroup_decay",
    "check_max_point",
    "check_phase_bounds",
    "check_sign_integral",
    "check_spectral_mass_contraction",
    "check_trilinear_bounds",
    "conservation_report",
    "counterexample_gamma2_q1",
    "default_partition",
    "field_lp_norm",
    "fit_log2",
    "forward_transform",
    "full_spectrum",
    "galerkin_sequence",
    "gaussian_block_field",
    "load_field",
    "low_pass_field",
    "low_pass_symbol",
    "lp_norm",
    "mild_residual",
    "nonlinear_term",
    "picard_besov_sequence",
    "power_law_field",
    "run_simulation",
    "save_field",
    "sobolev_norm",
    "transport",
    "trilinear_form",
]
