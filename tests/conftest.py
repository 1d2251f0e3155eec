"""Shared test helpers."""

import contextlib
import itertools
import math
import operator
import signal
import struct
from dataclasses import astuple

import numpy as np
import pytest
from hypothesis import strategies as st

from flockdde.diagnostics import DiagnosticsFrame, _max_speeds
from flockdde.kernel import TabulatedKernel


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


def radius_methods(kernel):
    """Reference (value, derivative) of a kernel on an array of radii:
    ``eval`` and ``eval_deriv`` of a Cucker-Smale kernel, and for a table
    scipy's ``PchipInterpolator`` through its nodes, clamped at the last
    radius, with derivative 0 from that radius on."""
    if not isinstance(kernel, TabulatedKernel):
        return kernel.eval, kernel.eval_deriv
    from scipy.interpolate import PchipInterpolator

    spline = PchipInterpolator(kernel.radii, kernel.values, extrapolate=False)
    slope, last = spline.derivative(), kernel.radii[-1]
    return (lambda r: spline(np.minimum(r, last)),
            lambda r: np.where(np.asarray(r) >= last, 0.0, slope(np.minimum(r, last))))


def max_speed(ens):
    """The largest |v| of one slice, with no square out of range: scaled by
    an exact power of two where the largest component is outside
    [2^-500, 2^500].  The reference for ``diagnostics._max_speeds``; beside
    an inf, squares above the float range overflow silently to inf."""
    speeds = np.abs(ens.velocities)
    top = float(speeds.max())
    if ens.dim == 1:
        return top
    e = math.frexp(top)[1] if 0 < top < math.inf and not 2**-500 <= top <= 2**500 else 0
    with np.errstate(over="ignore"):
        return float(np.ldexp(np.sqrt((np.ldexp(speeds, -e)**2).sum(axis=1)).max(), e))


def prehistory_r_v(buf):
    """R_V of a buffer: the largest speed over its slices at t <= 0."""
    return float(_max_speeds(buf.gather(buf.prehistory_clocks()).velocities).max())


def record_per_slice(ens, d_x, d_v, x, v, lyap, dets):
    """The diagnostics record of one slice, one reduction at a time: the
    reference for the records that frames reduce in batches."""
    vg = np.sqrt((ens.vel_gradients**2).sum(axis=(1, 2)))
    return DiagnosticsFrame(
        t=ens.time, d_X=d_x, d_V=d_v, max_speed=max_speed(ens), lyapunov=lyap,
        X_of_t=x, V_of_t=v, min_detJ=float(dets.min()),
        max_velgrad_norm=float(vg.max()),
        worst_node=int(np.where(np.isfinite(dets), dets, -np.inf).argmin()))


def float_bits(value):
    """The bits of a float, every NaN alike."""
    return "nan" if math.isnan(value) else struct.pack("<d", value)


def frame_bits(frame):
    """A frame's fields, each float as ``float_bits``."""
    return tuple(float_bits(v) if isinstance(v, float) else v for v in astuple(frame))
