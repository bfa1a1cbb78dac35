"""One layout: every public producer of a SpectralField hands back a
read-only complex128 half spectrum, ``(n, n/2 + 1)``, whose Hermitian
extension is exactly conjugate-symmetric (a real field, with no round-off
left on the self-paired columns 0 and n/2).  The ``riesz_perp`` oracle's
fields feed the velocity and commutator checks, so they are held to the
same layout."""

import numpy as np
import pytest

from sqglab.dyadic import block_commutator
from sqglab.sampling import (
    band_limited_field,
    gaussian_block_field,
    low_pass_field,
    power_law_field,
)
from sqglab.solver import SolverConfig, nonlinear_term, run_simulation
from sqglab.spectral import (
    GridSpec,
    forward_transform,
    full_spectrum,
    load_field,
    save_field,
)

from oracles import conjugate_flip, riesz_perp

GRIDS = [GridSpec(32), GridSpec(48, period=3.0)]


def data(grid, rng):
    field = power_law_field(grid, 1.5, rng)
    return field.with_coeffs(field.coeffs * 0.3)


def loaded(grid, rng, tmp_path):
    path = str(tmp_path / "field.sqgf")
    save_field(forward_transform(rng.standard_normal((grid.n, grid.n)), grid), path)
    return load_field(path)


def simulation(grid, rng):
    cfg = SolverConfig(grid=grid, nu=0.5, gamma=0.5, dt=1e-3, t_final=3e-3,
                       snapshot_stride=2)
    return run_simulation(data(grid, rng), cfg)


PRODUCERS = {
    "gaussian_block_field": lambda g, rng, _: gaussian_block_field(g, 3, rng),
    "band_limited_field": lambda g, rng, _: band_limited_field(g, 6.0, rng),
    "low_pass_field": lambda g, rng, _: low_pass_field(g, 2, rng),
    "power_law_field": lambda g, rng, _: power_law_field(g, 2.0, rng),
    "forward_transform": lambda g, rng, _: forward_transform(
        rng.standard_normal((g.n, g.n)), g),
    "riesz_perp_1": lambda g, rng, _: riesz_perp(data(g, rng))[0],
    "riesz_perp_2": lambda g, rng, _: riesz_perp(data(g, rng))[1],
    "nonlinear_term": lambda g, rng, _: nonlinear_term(data(g, rng)),
    "block_commutator": lambda g, rng, _: block_commutator(
        data(g, rng), data(g, rng), 3, 0.05, 0.5),
    "load_field": loaded,
    "run_simulation_snapshot": lambda g, rng, _: simulation(g, rng).snapshots[1][1],
    "run_simulation_final_state": lambda g, rng, _: simulation(g, rng).final_state,
}


@pytest.mark.parametrize("grid", GRIDS, ids=lambda g: f"{g.n}")
@pytest.mark.parametrize("producer", list(PRODUCERS))
def test_every_producer_returns_a_read_only_exact_half_spectrum(producer, grid, tmp_path):
    field = PRODUCERS[producer](grid, np.random.default_rng(grid.n), tmp_path)
    coeffs = field.coeffs
    assert field.grid == grid
    assert coeffs.dtype == np.complex128
    assert coeffs.shape == (grid.n, grid.n // 2 + 1)
    assert not coeffs.flags.writeable
    assert np.any(coeffs)
    full = full_spectrum(grid, coeffs)
    assert np.array_equal(full, conjugate_flip(full))
