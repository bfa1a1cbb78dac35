"""Samplers: support, symmetry, reproducibility."""

import copy
import math
import sys
import threading

import numpy as np
import pytest

from sqglab import inequalities, sampling
from sqglab.inequalities import _block_sweep, _operator_stack
from sqglab.errors import UsageError
from sqglab.sampling import (
    OneDGrid,
    SampleBuffers,
    _block_buffers,
    _DrawAhead,
    _finish,
    band_limited_field,
    bump_field_1d,
    draw_coeffs,
    gaussian_block_field,
    low_pass_field,
    power_law_field,
)
from sqglab.spectral import (
    GridSpec,
    PROFILE_OUTER,
    _on_box,
    _support_box,
    block_symbol,
    full_spectrum,
    grid_arrays,
    k_power,
)

from oracles import conjugate_flip, full_lattice, full_profile, parent_sampler_coeffs

GRID = GridSpec(64)


@pytest.mark.parametrize(
    "maker, kwargs",
    [
        (gaussian_block_field, {"j": 3}),
        (band_limited_field, {"k_max": 10.0}),
        (low_pass_field, {"j": 2}),
        (power_law_field, {"alpha": 2.5}),
    ],
)
def test_fields_are_real_and_mean_free(maker, kwargs):
    rng = np.random.default_rng(7)
    field = maker(GRID, rng=rng, **kwargs)
    assert field.coeffs[0, 0] == 0.0
    assert field.coeffs.shape == (64, 33)
    full = full_spectrum(GRID, field.coeffs)
    assert np.array_equal(full, conjugate_flip(full))
    assert np.all(np.isfinite(field.to_samples()))


def test_block_field_support():
    rng = np.random.default_rng(7)
    field = gaussian_block_field(GRID, 3, rng)
    kabs = grid_arrays(GRID).k_abs
    occupied = np.abs(field.coeffs) > 0.0
    assert np.all(kabs[occupied] >= 4.0)  # 2^(j-1)
    assert np.all(kabs[occupied] <= PROFILE_OUTER * 8.0)


def test_block_field_rejects_empty_block():
    rng = np.random.default_rng(7)
    with pytest.raises(UsageError):
        gaussian_block_field(GRID, 40, rng)


def test_band_limited_support():
    rng = np.random.default_rng(7)
    field = band_limited_field(GRID, 5.0, rng)
    kabs = grid_arrays(GRID).k_abs
    assert np.all(kabs[np.abs(field.coeffs) > 0.0] <= 5.0)
    with pytest.raises(UsageError):
        band_limited_field(GRID, 0.5, rng)


def test_power_law_magnitude_decay():
    rng = np.random.default_rng(7)
    field = power_law_field(GRID, 3.0, rng)
    kabs = grid_arrays(GRID).k_abs
    # average magnitude on |k| ~ 4 vs |k| ~ 16 should drop by ~ 4^-3
    ring1 = np.abs(field.coeffs)[(kabs > 3.5) & (kabs < 4.5)]
    ring2 = np.abs(field.coeffs)[(kabs > 15.5) & (kabs < 16.5)]
    ratio = np.mean(ring2) / np.mean(ring1)
    assert 0.2 * 4.0**-3 < ratio < 5.0 * 4.0**-3
    # support cut at the dealias radius by default
    assert np.all(kabs[np.abs(field.coeffs) > 0.0] <= GRID.dealias_radius)


def test_sampler_determinism():
    a = power_law_field(GRID, 2.5, np.random.default_rng(42))
    b = power_law_field(GRID, 2.5, np.random.default_rng(42))
    assert np.array_equal(a.coeffs, b.coeffs)


def test_one_d_grid_derivative_exact():
    g = OneDGrid(128, 2.0 * math.pi)
    f = np.sin(3.0 * g.x)
    assert np.max(np.abs(g.derivative(f) - 3.0 * np.cos(3.0 * g.x))) < 1e-12


def test_one_d_fractional_eigenmode():
    g = OneDGrid(128, 2.0 * math.pi)
    f = np.cos(4.0 * g.x)
    assert np.max(np.abs(g.fractional(f, 0.5) - 2.0 * f)) < 1e-12


def test_one_d_parseval():
    g = OneDGrid(256, 5.0)
    rng = np.random.default_rng(3)
    f = rng.standard_normal(256)
    c = g.coeffs(f)
    assert g.l2_sq(f) == pytest.approx(g.period * float(np.sum(np.abs(c) ** 2)))


def test_one_d_grid_validation():
    with pytest.raises(UsageError):
        OneDGrid(9, 1.0)


def test_bump_field_concentrates():
    g = OneDGrid(2**12, 64.0 * math.pi)
    rng = np.random.default_rng(5)
    f = bump_field_1d(g, rng)
    peak = np.max(np.abs(f))
    # mass near the center, tiny at the box edge
    edge = np.max(np.abs(f[: g.n // 16]))
    assert edge < 1e-8 * peak


@pytest.mark.parametrize("n", [64, 128])
def test_block_field_is_byte_identical_to_roll_symmetrization(n):
    # The stream is pinned downstream (seeded reports, benchmark reference):
    # the sampled coefficients must equal the np.roll-based symmetrization
    # of the same noise bit for bit.
    grid = GridSpec(n)
    field = gaussian_block_field(grid, 3, np.random.default_rng(77))
    rng = np.random.default_rng(77)
    noise = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    c = noise * full_profile(grid, "block", 3)
    want = 0.5 * (c + np.conj(np.roll(c[::-1, ::-1], (1, 1), axis=(0, 1))))
    want[0, 0] = 0.0
    assert np.array_equal(full_spectrum(grid, field.coeffs), want)


def full_shape(grid, kind):
    """The full-lattice profile each sampler shapes its noise with."""
    k_abs = full_lattice(grid).k_abs
    if kind.startswith("block"):
        return full_profile(grid, "block", int(kind[-1]))
    if kind == "band_limited":
        return (k_abs > 0.0) & (k_abs <= 5.0)
    with np.errstate(divide="ignore"):
        return np.where((k_abs > 0.0) & (k_abs <= grid.dealias_radius), k_abs**-2.7, 0.0)


SAMPLER_CASES = {
    "block2": lambda grid, rng: gaussian_block_field(grid, 2, rng),
    "block3": lambda grid, rng: gaussian_block_field(grid, 3, rng),
    "block5": lambda grid, rng: gaussian_block_field(grid, 5, rng),
    "band_limited": lambda grid, rng: band_limited_field(grid, 5.0, rng),
    "power_law": lambda grid, rng: power_law_field(grid, 2.7, rng),
}


@pytest.mark.parametrize("n", [16, 128, 256])
@pytest.mark.parametrize("kind", list(SAMPLER_CASES))
def test_samplers_are_byte_identical_to_the_full_lattice_formula(kind, n):
    # The samplers finish on the half spectrum; extended to the full lattice
    # their fields are the bytes the full-lattice symmetrization of the same
    # noise gave, signed zeros included.
    grid = GridSpec(n)
    if kind == "block5" and n == 16:
        with pytest.raises(UsageError):  # block 5 lies past the 16^2 lattice
            SAMPLER_CASES[kind](grid, np.random.default_rng(n))
        return
    field = SAMPLER_CASES[kind](grid, np.random.default_rng(n))
    want = parent_sampler_coeffs(grid, np.random.default_rng(n), full_shape(grid, kind))
    assert full_spectrum(grid, field.coeffs).tobytes() == want.tobytes()


@pytest.mark.parametrize("n", [8, 64, 128])
def test_one_plane_pair_draw_is_two_square_draws(n):
    # The samplers fill their noise as one (2, n, n) buffer; the pinned stream
    # was two (n, n) draws in turn.  Same bytes, and the generator ends in the
    # same state.
    one, two = np.random.default_rng(n), np.random.default_rng(n)
    grid = GridSpec(n)
    buffers = SampleBuffers(grid, np.ones((n, n // 2 + 1)))
    draw_coeffs(buffers, one)
    planes = buffers.noise
    first, second = two.standard_normal((n, n)), two.standard_normal((n, n))
    assert planes[0].tobytes() == first.tobytes()
    assert planes[1].tobytes() == second.tobytes()
    assert one.bit_generator.state == two.bit_generator.state


class RecordingGenerator:
    """A generator whose ``standard_normal`` calls are recorded as
    ``(thread, out)`` pairs; the call numbered ``fail_at`` raises."""

    def __init__(self, seed, fail_at=None):
        self.rng, self.calls, self.fail_at = np.random.default_rng(seed), [], fail_at

    @property
    def bit_generator(self):
        return self.rng.bit_generator

    def standard_normal(self, *args, **kwargs):
        self.calls.append((threading.current_thread(), kwargs.get("out")))
        if len(self.calls) == self.fail_at:
            raise MemoryError(f"fill {self.fail_at}")
        return self.rng.standard_normal(*args, **kwargs)


def box_buffers(grid, j):
    """The whole-spectrum and the support-box buffers of block-j draws."""
    whole = _block_buffers(grid, j)
    return whole, SampleBuffers(grid, whole.profile, _support_box(whole.profile))


@pytest.mark.parametrize("n_samples", [1, 2, 5])
def test_draw_ahead_makes_the_sequential_draws_on_a_helper_thread(monkeypatch, n_samples):
    # A block sweep whose every sample sets a new minimum, so that each is
    # finished on its box and on the whole half spectrum.  Each finish equals
    # the draw_coeffs of a twin generator, to the byte, and runs on the
    # sweeping thread.  The generator ends where n_samples draws leave it,
    # not one fill further; its only calls are one standard_normal(out=lane)
    # per sample, sample 0 on the sweeping thread, every later one on the
    # helper, alternating between two noise lanes.
    grid = GridSpec(32)
    rng, twin = RecordingGenerator(3), np.random.default_rng(3)
    finish, finished = sampling._finish, []

    def recorded(buffers, noise):
        coeffs = finish(buffers, noise)
        finished.append((threading.current_thread(), buffers.box, coeffs.tobytes()))
        return coeffs

    monkeypatch.setattr(inequalities, "_finish", recorded)
    ops = _operator_stack([k_power(grid, 0.5)])
    scores = iter(range(n_samples, 0, -1))
    before = threading.active_count()
    _block_sweep(grid, 2, ops, lambda stack: {"x": next(scores)}, n_samples, rng)
    assert threading.active_count() == before
    monkeypatch.undo()

    twin_buffers, box = _block_buffers(grid, 2), _support_box(block_symbol(grid, 2))
    want = []
    for _ in range(n_samples):
        coeffs = draw_coeffs(twin_buffers, twin)
        want += [(box, _on_box(coeffs, box).tobytes()), (twin_buffers.box, coeffs.tobytes())]
    assert [(b, data) for _, b, data in finished] == want
    assert box != twin_buffers.box
    me = threading.current_thread()
    assert all(thread is me for thread, _, _ in finished)
    assert rng.bit_generator.state == twin.bit_generator.state
    threads, lanes = zip(*rng.calls)
    assert len(threads) == n_samples
    assert threads[0] is me and me not in threads[1:]
    assert all(lane.shape == (2, 32, 32) for lane in lanes)
    assert all(lane is lanes[i % 2] for i, lane in enumerate(lanes))
    assert n_samples == 1 or lanes[0] is not lanes[1]


def test_draw_ahead_under_stress_keeps_every_sample():
    # Four iterating threads, more than the cores, each with its own helper,
    # at a 1 us switch interval, each finishing its samples on the box and
    # on the whole half spectrum after some work on them: a lane filled
    # while in use, or a fill out of order, would change the bytes.
    grid, n_samples, seeds = GridSpec(32), 40, range(4)
    results = {}

    def sweep(seed):
        drawn = []
        whole, boxed = box_buffers(grid, 2)
        with _DrawAhead(boxed.noise, np.random.default_rng(seed), n_samples) as lanes:
            for noise in lanes:
                coeffs = _finish(boxed, noise)
                np.abs(coeffs).sum()
                drawn.append((coeffs.tobytes(), _finish(whole, noise).tobytes()))
        results[seed] = drawn

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        workers = [threading.Thread(target=sweep, args=(seed,)) for seed in seeds]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(worker.is_alive() for worker in workers)
    for seed in seeds:
        rng, (buffers, boxed) = np.random.default_rng(seed), box_buffers(grid, 2)
        want = []
        for _ in range(n_samples):
            coeffs = draw_coeffs(buffers, rng)
            want.append((_on_box(coeffs, boxed.box).tobytes(), coeffs.tobytes()))
        assert results[seed] == want, seed


def test_a_draw_that_raises_is_raised_by_the_iteration():
    # The third fill, made on the helper, raises: the iteration raises it
    # after two samples, and the helper is joined.
    rng = RecordingGenerator(0, fail_at=3)
    before, seen = threading.active_count(), 0
    with pytest.raises(MemoryError, match="fill 3"):
        with _DrawAhead(np.empty((2, 32, 32)), rng, 10) as lanes:
            for _ in lanes:
                seen += 1
    assert seen == 2
    assert len(rng.calls) == 3 and rng.calls[2][0] is not threading.current_thread()
    assert threading.active_count() == before


#: Grids whose every block the box finish is checked on: 16^2 (block 3's box
#: is the whole half spectrum), 32^2, 96^2 (n divisible by 3), 128^2 (blocks
#: 6 and 7 hold the Nyquist row and column), a period other than 2 pi, whose
#: blocks run from j = -1, and dealias_fraction 1.
FINISH_GRIDS = {
    "16": GridSpec(16),
    "32": GridSpec(32),
    "96": GridSpec(96),
    "128": GridSpec(128),
    "32-period-5": GridSpec(32, period=5.0 * math.pi),
    "32-fraction-1": GridSpec(32, dealias_fraction=1.0),
}


@pytest.mark.parametrize("name", list(FINISH_GRIDS))
def test_box_finish_is_the_whole_finish_and_the_parent_sampler_on_the_box(name):
    # Both oracles to the byte, so zero signs count: the whole-spectrum
    # finish gathered on the box, and the full-lattice formula the samplers
    # replaced, on the half spectrum's columns gathered on the box.  Every
    # block of the grid, on its support box and on boxes no radial table
    # has: the Nyquist row without the Nyquist column and the Nyquist column
    # without the Nyquist row; and on the whole half spectrum.
    grid = FINISH_GRIDS[name]
    n = grid.n
    blocks = [j for j in range(-4, 12) if block_symbol(grid, j).any()]
    assert -4 < blocks[0] and blocks[-1] < 11  # the range holds every block
    for j in blocks:
        table = block_symbol(grid, j)
        rng = np.random.default_rng(1000 + j)
        parent = parent_sampler_coeffs(grid, copy.deepcopy(rng), full_profile(grid, "block", j))
        noise = rng.standard_normal((2, n, n))
        whole = _finish(SampleBuffers(grid, table), noise)
        for box in (_support_box(table), (3, n // 2, 4), (2, 1, n // 2 + 1),
                    (n // 2, n // 2, n // 2 + 1)):
            got = _finish(SampleBuffers(grid, table, box), noise)
            assert got.shape == (box[0] + box[1], box[2]), (j, box)
            assert got.tobytes() == _on_box(whole, box).tobytes(), (j, box)
            assert got.tobytes() == _on_box(parent[:, : n // 2 + 1], box).tobytes(), (j, box)
