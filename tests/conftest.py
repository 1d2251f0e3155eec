"""Shared test helpers."""

import contextlib
import signal

import pytest


@pytest.fixture
def time_limit():
    """Context manager factory: fail with TimeoutError after ``seconds``.

    Guards calls that once hung, so a regression fails instead of stalling
    the suite.  Uses SIGALRM, which the interpreter checks between bytecodes.
    """

    @contextlib.contextmanager
    def limit(seconds):
        def fail(signum, frame):
            raise TimeoutError(f"did not return within {seconds} s")

        previous = signal.signal(signal.SIGALRM, fail)
        signal.setitimer(signal.ITIMER_REAL, seconds)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    return limit
