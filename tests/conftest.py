"""Shared fixtures plus the acceptance-summary hook.

Acceptance tests register one line each through the ``acceptance`` fixture;
the terminal summary prints them together so a run ends with a compact
pass/fail table for the headline checks.
"""

import sys

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

settings.register_profile(
    "sqglab",
    deadline=None,
    max_examples=25,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("sqglab")

_ACCEPTANCE_LINES = []


class _AcceptanceLog:
    def record(self, name: str, passed: bool, detail: str) -> bool:
        tag = "PASS" if passed else "FAIL"
        _ACCEPTANCE_LINES.append(f"[{tag}] {name}: {detail}")
        return passed


class Transforms(int):
    """A transform count that also carries ``points``: the real samples the
    transforms consumed (forward) or produced (inverse)."""

    points: int


@pytest.fixture
def count_transforms(monkeypatch):
    """``count_transforms(fn, *args, **kwargs)`` -> ``(result, transforms)``:
    the number of 2-D field transforms ``fn`` made, with the points they
    transformed as ``transforms.points``.

    Every transform of the package goes through ``spectral._inverse_pass``
    or ``spectral._forward_pass``, each run as two 1-D ``numpy.fft`` passes,
    so the count is taken there: one per field of the stack a call
    transforms, whatever the 1-D passes look like underneath.
    """
    from sqglab import spectral

    calls, points = [0], [0]

    def counting(original, samples_arg):
        def counted(*args):
            out = original(*args)
            samples = args[samples_arg]
            calls[0] += samples.size // samples.shape[-1] ** 2
            points[0] += samples.size
            return out

        return counted

    # The real samples are the inverse pass's output and the forward pass's
    # input.  Each module that imports a pass by name gets the counted one.
    for name, samples_arg in (("_inverse_pass", 2), ("_forward_pass", 0)):
        original = getattr(spectral, name)
        counted = counting(original, samples_arg)
        for module in list(sys.modules.values()):
            if (getattr(module, "__name__", "").startswith("sqglab")
                    and getattr(module, name, None) is original):
                monkeypatch.setattr(module, name, counted)

    def count(fn, *args, **kwargs):
        start, start_points = calls[0], points[0]
        result = fn(*args, **kwargs)
        transforms = Transforms(calls[0] - start)
        transforms.points = points[0] - start_points
        return result, transforms

    return count


@pytest.fixture
def acceptance():
    return _AcceptanceLog()


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _ACCEPTANCE_LINES:
        return
    terminalreporter.section("acceptance criteria")
    for line in _ACCEPTANCE_LINES:
        terminalreporter.write_line(line)


@pytest.fixture
def rng():
    return np.random.default_rng(1234)
