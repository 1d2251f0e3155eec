"""Shared test helpers."""

import contextlib
import itertools
import operator
import signal

import pytest
from hypothesis import strategies as st


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


@st.composite
def monotone_tables(draw, nodes, gaps, ratios):
    """``(radii, values)`` of a tabulated kernel: radii from 0 spaced by
    ``gaps``, values from 1 each a ``ratios`` draw times the one before, on
    a ``nodes`` draw of nodes (each argument a strategy)."""
    n = draw(nodes)
    steps = draw(st.lists(gaps, min_size=n - 1, max_size=n - 1))
    factors = draw(st.lists(ratios, min_size=n - 1, max_size=n - 1))
    return ([0.0, *itertools.accumulate(steps)],
            [1.0, *itertools.accumulate(factors, operator.mul)])
