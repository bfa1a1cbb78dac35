"""The helper thread of the two-thread sweeps: a FIFO of jobs."""

import threading
import time
from functools import partial

import pytest

from sqglab._helper import _Helper


def test_jobs_handed_ahead_run_without_waiting_for_a_take():
    # The second job runs before the first result is taken: a helper with
    # one job slot, which waits for each take before it runs the next job,
    # leaves the draw-ahead's helper idle between fills.
    second = threading.Event()

    def set_second():
        second.set()
        return "second"

    with _Helper("sqglab-test") as helper:
        helper.hand(lambda: "first")
        helper.hand(set_second)
        assert second.wait(timeout=10)
        assert helper.take() == ("first", None)
        assert helper.take() == ("second", None)
    assert not helper.thread.is_alive()


def test_a_job_that_raises_ends_the_thread():
    ran = []

    def fail():
        raise MemoryError("job 1")

    with _Helper("sqglab-test") as helper:
        assert helper.thread.name == "sqglab-test"
        helper.hand(fail)
        helper.hand(lambda: ran.append(2))
        result, error = helper.take()
        helper.thread.join(timeout=30)
        assert not helper.thread.is_alive()
    assert result is None and isinstance(error, MemoryError)
    assert ran == []


def test_exit_runs_the_queued_jobs_and_joins_when_the_caller_raises():
    # The caller raises while the first job runs and the second waits.
    ran = []

    def slow(i):
        time.sleep(0.05)
        ran.append(i)

    before = threading.active_count()
    with pytest.raises(KeyError):
        with _Helper("sqglab-test") as helper:
            helper.hand(partial(slow, 1))
            helper.hand(partial(slow, 2))
            raise KeyError("caller")
    assert ran == [1, 2]
    assert threading.active_count() == before
