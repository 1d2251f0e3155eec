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

from flockdde.diagnostics import DiagnosticsFrame, _max_norms, diameters
from flockdde.dynamics import _advance, _force
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


def cucker_smale(beta):
    """The profile ``(1 + r^2)^-beta`` and its derivative
    ``-2 beta r (1 + r^2)^(-beta - 1)``, written out, on floats or arrays:
    the reference for ``CuckerSmaleKernel``.  On plain floats the value is
    libm's ``pow``, that of ``profile`` at every beta but 1; on arrays, numpy's
    array ``pow``, that of ``eval_with_deriv_sq`` at every beta but 1.  At
    beta = 1 both methods take the correctly rounded reciprocal."""
    return (lambda r: (1.0 + r * r) ** -beta,
            lambda r: -2.0 * beta * r * (1.0 + r * r) ** (-beta - 1.0))


def radius_methods(kernel):
    """Reference (value, derivative) of a kernel on an array of radii: the
    closed forms ``cucker_smale`` of a Cucker-Smale kernel, and for a table
    scipy's ``PchipInterpolator`` through its nodes, clamped at the last
    radius, with derivative 0 from that radius on."""
    if not isinstance(kernel, TabulatedKernel):
        return cucker_smale(kernel.beta)
    from scipy.interpolate import PchipInterpolator

    spline = PchipInterpolator(kernel.radii, kernel.values, extrapolate=False)
    slope, last = spline.derivative(), kernel.radii[-1]
    return (lambda r: spline(np.minimum(r, last)),
            lambda r: np.where(np.asarray(r) >= last, 0.0, slope(np.minimum(r, last))))


def newest_force(buf, kernel):
    """``_force`` on the buffer's newest slot against the slot m steps
    before it: the stepper's first stage, as ``(accelerations,
    force_gradients, normalizers)``."""
    (pos, vel), (jac, _) = buf.slot(buf.clock), buf.tangent
    return _force(kernel, buf.masses, pos, vel, jac, *buf.slot(buf.clock - buf.m))


def slopes(buffer, kernel, n_steps):
    """Step a 1-d buffer up to ``n_steps`` times through the integrator's
    loop, ``dynamics._advance``: ``(times, w, event)``, with w = vel_gradient
    / jacobian of each node, a (K, N) array, at the K slots judged without
    an event, and ``event`` the run's ``BlowupEvent`` or None."""
    times, rows = [], []
    for _, event in _advance(buffer, kernel, n_steps):
        if event is None:
            jac, vgrad = buffer.tangent
            times.append(buffer.current_time)
            rows.append(vgrad[:, 0, 0] / jac[:, 0, 0])
    return np.array(times), np.reshape(rows, (len(times), buffer.masses.size)), event


def max_norm(entries):
    """The largest norm of a node's entry in one (N, ...) slice, the
    Euclidean norm of a velocity or the Frobenius norm of a gradient, with no
    square out of range: scaled by an exact power of two where the largest
    |component| is outside [2^-500, 2^500]; in 1-D the largest |value|.  The
    reference for ``diagnostics._max_norms``; beside an inf, squares above
    the float range overflow silently to inf."""
    mags = np.abs(entries)
    top = float(mags.max())
    if entries.shape[-1] == 1:
        return top
    e = math.frexp(top)[1] if 0 < top < math.inf and not 2**-500 <= top <= 2**500 else 0
    with np.errstate(over="ignore"):
        squares = np.ldexp(mags, -e)**2
        return float(np.ldexp(np.sqrt(squares.sum(axis=tuple(range(1, mags.ndim)))).max(), e))


def max_speed(ens):
    """The largest |v| of one slice: ``max_norm`` of its velocities."""
    return max_norm(ens.velocities)


def prehistory_r_v(buf):
    """R_V of a buffer: the largest speed over its slices at t <= 0."""
    _, _, velocities = buf.gather(buf.prehistory_clocks())
    return float(_max_norms(velocities).max())


def slice_diameters(positions, velocities):
    """``diameters`` of one (N, d) slice, reduced as a stack of one: two floats."""
    d_x, d_v = diameters(positions[None], velocities[None])
    return float(d_x[0]), float(d_v[0])


def record_per_slice(t, velocities, d_x, d_v, x, v, lyap, tangent=None):
    """The diagnostics record of one slice at time t, one reduction at a
    time: the reference for the records that frames reduce in batches.
    ``tangent`` is the slice's (det J, velocity gradients); a slice with no
    tangent flow, at t < 0, passes None and has NaN there."""
    dets, vel_gradients = (None, None) if tangent is None else tangent
    return DiagnosticsFrame(
        t=t, d_X=d_x, d_V=d_v, max_speed=max_norm(velocities), lyapunov=lyap,
        X=x, V=v, min_detJ=math.nan if dets is None else float(dets.min()),
        max_velgrad_norm=math.nan if dets is None else max_norm(vel_gradients))


def float_bits(value):
    """The bits of a float, every NaN alike."""
    return "nan" if math.isnan(value) else struct.pack("<d", value)


def frame_bits(frame):
    """A frame's fields, each float as ``float_bits``."""
    return tuple(float_bits(v) if isinstance(v, float) else v for v in astuple(frame))
