"""One helper thread that runs the jobs handed to it, in order: the second
thread of the block sweeps' draw-ahead and of the iterate lockstep.

It comes from ``threading`` and ``queue`` alone: ``concurrent.futures``
would cost about 7 ms of every command's start.
"""

import queue
import threading


def _serve(jobs: queue.SimpleQueue, results: queue.SimpleQueue) -> None:
    """Put each job's ``(result, error)`` on ``results``, until a stop (None)
    or a job that raises."""
    while (job := jobs.get()) is not None:
        try:
            results.put((job(), None))
        except BaseException as exc:  # raised again by the taking thread
            results.put((None, exc))
            return
        finally:
            del job  # what it read may be freed while the next one is awaited


class _Helper:
    """A thread named ``name`` that runs a FIFO of jobs: :meth:`hand` queues
    a callable of no arguments, and :meth:`take` waits for the oldest result
    not yet taken, ``(result, error)``, with the exception the job raised
    (then the result is None).  Jobs may be handed ahead of their takes, so
    the thread goes from one job straight to the next.  A job that raises
    ends the thread: no later job runs.

    A context manager, whose exit queues a stop, lets the thread run what is
    still queued, and joins it, also when the calling thread raises.  The
    thread's target holds the queues, not the helper: no reference cycle.
    """

    def __init__(self, name: str):
        self.jobs, self.results = queue.SimpleQueue(), queue.SimpleQueue()
        self.thread = threading.Thread(target=_serve, args=(self.jobs, self.results),
                                       name=name, daemon=True)

    def hand(self, job) -> None:
        self.jobs.put(job)

    def take(self) -> tuple:
        return self.results.get()

    def __enter__(self) -> "_Helper":
        self.thread.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self.jobs.put(None)
        self.thread.join()
