"""Shared fixtures plus the acceptance-summary hook.

Acceptance tests register one line each through the ``acceptance`` fixture;
the terminal summary prints them together so a run ends with a compact
pass/fail table for the headline checks.
"""

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
    transforms consumed (``rfft2``) or produced (``irfft2``)."""

    points: int


@pytest.fixture
def count_transforms(monkeypatch):
    """``count_transforms(fn, *args, **kwargs)`` -> ``(result, transforms)``:
    the number of ``scipy.fft`` ``rfft2``/``irfft2`` calls ``fn`` made, with
    the points they transformed as ``transforms.points``."""
    import scipy.fft

    calls, points = [0], [0]
    for name in ("rfft2", "irfft2"):
        def counted(*args, _original=getattr(scipy.fft, name), _name=name, **kwargs):
            out = _original(*args, **kwargs)
            calls[0] += 1
            points[0] += np.size(out if _name == "irfft2" else args[0])
            return out

        monkeypatch.setattr(scipy.fft, name, counted)

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
