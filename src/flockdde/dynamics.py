"""Delayed alignment dynamics: force evaluation, RK4 stepping, run driver.

The velocity equation relaxes each node toward a kernel-weighted convex
combination of the delayed velocities; the normalization by the same weighted
mass makes the combination convex, which is what the maximum principle and
all diameter estimates lean on.  The tangent flow (position Jacobian and
velocity gradient with respect to labels) is integrated alongside, feeding
the Jacobian monitor and the one-dimensional slope dynamics.

Stepping is classical RK4 with the buffer's fixed step h, which divides the
delay, tau = m h, on an integer clock, so each stage's delayed time is a stored
step or exactly halfway between two: stages 1 and 4 read stored slots, and
one cubic-Hermite midpoint per step serves stages 2 and 3, which keeps the
overall order at four.  With zero delay the delayed argument is the current
stage state, which turns the system into the undelayed one.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from .diagnostics import (
    FlockingMonitor,
    _differences,
    _record,
    _row_blocks,
    _worst_node,
    diameters,
    prehistory_frames,
)
from .state import (HistoryBuffer, HistoryView, LagrangianEnsemble, _det, _grid_steps,
                    _rk4, discretize)

__all__ = [
    "ForceEvaluation",
    "BlowupSignal",
    "BlowupEvent",
    "SingularNormalizerError",
    "SimulationResult",
    "alignment_rhs",
    "step",
    "integrate",
    "simulate",
]

# Minimal Jacobian determinant at which a run counts as blown up.
DETJ_TOLERANCE = 1e-6


class SingularNormalizerError(Exception):
    """The kernel mass normalizer underflowed (kernel decayed past range)."""


class BlowupSignal(Exception):
    """Raised when the integrator detects a non-finite state.

    Carries the last finite time so the driver can retain all frames up to it.
    """

    def __init__(self, time, node=None, reason="non-finite state"):
        super().__init__(f"{reason} detected after t={time}")
        self.time = time
        self.node = node


class BlowupEvent(NamedTuple):
    """When and where a run met the blow-up rule; node is None if unknown."""

    time: float
    node: int | None


@dataclass
class ForceEvaluation:
    """Right-hand side pieces of the velocity and velocity-gradient equations.

    ``accelerations`` is the full dv/dt (convex combination minus current
    velocity); ``force_gradients`` is the label-space gradient of the
    combination term, i.e. its position-gradient composed with the tangent
    flow; ``normalizers`` are the kernel-weighted masses (strictly positive).
    """

    accelerations: np.ndarray   # (N, d)
    force_gradients: np.ndarray  # (N, d, d)
    normalizers: np.ndarray     # (N,)


def _force(kernel, masses, pos, vel, jac, d_pos, d_vel):
    """Core force kernel: O(N^2) pairwise in fixed row blocks, fixed order.

    Returns (accelerations, label-space force gradient, normalizers).  Pairs
    are visited one row block at a time (see ``_row_blocks``) on squared
    distances, so the temporaries hold O(_BLOCK_PAIRS d) values.  The
    kernel's ``eval_with_deriv_sq`` gives ``psi`` and ``psi'(r) / r``, whose
    product with the coordinate difference is ``psi'(r)`` times the unit
    vector; coincident pairs have profile value 1 and contribute nothing to
    the gradient (radial symmetry).  Every weighted sum is a moment of one
    (N, d + 1) matrix ``[m, m v(t - tau)]``, so a block makes one matrix
    product for ``s0`` and ``s1`` and one per coordinate for their gradients,
    and the quotient rule divides by ``s0`` once.  A flat kernel skips the
    pairs: every row then weighs all delayed nodes by their mass.
    """
    n, d = pos.shape
    # transient non-finite values are caught by the stepper's isfinite check
    # and turned into a blow-up signal, so FP warnings here are only noise
    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
        if kernel.is_flat:
            s0 = np.full(n, masses.sum())
            s1 = np.broadcast_to(masses @ d_vel, (n, d))
            grad_pos = np.zeros((n, d, d))
        else:
            mom = np.hstack([masses[:, None], masses[:, None] * d_vel])
            s = np.empty((n, d + 1))
            g = np.empty((n, d + 1, d))
            for rows in _row_blocks(n, len(d_pos)):
                diff, q = _differences(pos[rows], d_pos)
                w, wd = kernel.eval_with_deriv_sq(q)
                s[rows] = w @ mom
                # the differences are fresh arrays of this block, so they
                # are weighted in place
                for b, diff_b in enumerate(diff):
                    diff_b *= wd
                    g[rows, :, b] = diff_b @ mom
            s0, s1 = s[:, 0], s[:, 1:]
            # d(s1 / s0) = (ds1 - u ds0) / s0: one division, no s0^2 to underflow
            u = s1 / s0[:, None]
            grad_pos = (g[:, 1:] - u[:, :, None] * g[:, None, 0]) / s0[:, None, None]
        # NaN compares False here on purpose: a poisoned state must flow on to
        # the stepper's isfinite check, not masquerade as an underflow
        if s0.min() < 1e-300:
            raise SingularNormalizerError(
                "kernel-weighted mass underflowed below 1e-300; nodes are "
                "separated beyond the representable range of the kernel"
            )
        acc = s1 / s0[:, None] - vel
    return acc, grad_pos @ jac, s0


def alignment_rhs(current: LagrangianEnsemble, delayed: HistoryView,
                  kernel) -> ForceEvaluation:
    """Evaluate the delayed alignment force on one ensemble.

    ``delayed`` supplies the positions and velocities at time t - tau for the
    same nodes (same N, d, masses).
    """
    if delayed.positions.shape != current.positions.shape:
        raise ValueError("delayed view must match the ensemble shape")
    acc, fg, s0 = _force(kernel, current.masses, current.positions,
                         current.velocities, current.jacobians,
                         delayed.positions, delayed.velocities)
    return ForceEvaluation(accelerations=acc, force_gradients=fg, normalizers=s0)


def step(buffer: HistoryBuffer, kernel) -> None:
    """Advance the buffer by one RK4 step of its spacing ``buffer.h``.

    Stage offsets are {0, 1/2, 1/2, 1}; each stage reads the delayed state at
    its own time minus tau = m h: the slot m steps back, one Hermite midpoint
    for both middle stages, and the slot after it.  Appends the new state to
    the ring.  Raises BlowupSignal, before appending, if it is not finite.
    """
    m = buffer.m
    j = buffer.clock - m  # the delayed slot of stage 1

    def rhs(delayed, pos, vel, jac, vgrad):
        d_pos, d_vel = (pos, vel) if delayed is None else delayed[:2]
        acc, fg, _ = _force(kernel, buffer.masses, pos, vel, jac, d_pos, d_vel)
        return vel, acc, vgrad, fg - vgrad

    y0 = buffer.slot(buffer.clock)
    k1 = rhs(buffer.slot(j) if m else None, *y0)
    # the first stage is the exact state derivative at t: the Hermite slope
    # leaving this slot, which the midpoint reads when m = 1
    buffer.set_slope(k1[1])
    mid, end = (buffer.interpolate(j, 0.5), buffer.slot(j + 1)) if m else (None, None)
    new, k4 = _rk4(rhs, y0, buffer.h, k1, mid, end)
    if not all(np.isfinite(arr).all() for arr in new):
        raise BlowupSignal(time=buffer.current_time)
    buffer.append(*new, k4[1])


def _blowup_node(dets) -> int | None:
    """The node at which det J meets the blow-up rule, or None if it does not.

    The rule: a det J is non-finite or min det J <= DETJ_TOLERANCE.  The node
    is the frame's worst node: the first non-finite det J, else the argmin.
    """
    if np.isfinite(dets).all() and dets.min() > DETJ_TOLERANCE:
        return None
    return _worst_node(dets)


def _advance(buffer: HistoryBuffer, kernel, n_steps: int):
    """Step the buffer up to ``n_steps`` times: the one stepping loop, and the
    one place that decides how a run ends.

    Yields (det J, event) for the slot it starts at and for each new slot;
    the event is None until ``_blowup_node`` names a node, and the first one
    is the last yield.  A step's BlowupSignal yields one too, for the newest
    slot, which is the last finite one.
    """
    for k in range(n_steps + 1):
        if k:
            try:
                step(buffer, kernel)
            except BlowupSignal as sig:
                yield dets, BlowupEvent(sig.time, sig.node)
                return
        dets = _det(buffer.slot(buffer.clock)[2])
        node = _blowup_node(dets)
        yield dets, None if node is None else BlowupEvent(buffer.current_time, node)
        if node is not None:
            return


@dataclass
class SimulationResult:
    frames: list
    buffer: HistoryBuffer
    blowup: BlowupEvent | None
    r_v: float


def integrate(buffer: HistoryBuffer, kernel, *, t_end: float,
              output_every: float | None = None,
              prehistory: list | None = None) -> SimulationResult:
    """Drive the stepper from t = 0 to t_end, emitting diagnostics frames.

    Emits one frame per output step (the initial diagnostics count as the
    first frame, so t_end = 0 produces exactly one).  Stops early at the
    blow-up event of ``_advance``, which judges every slot, t = 0 included:
    the frames up to it are retained, the event's slot has a frame, and that
    last frame carries status "blowup".  Deterministic given its inputs.

    ``buffer`` must be at t = 0; its spacing is the step.  ``prehistory``
    must be ``prehistory_frames(buffer)`` of this buffer; it seeds the
    monitor, R_V and the start frame, and is computed here when omitted.
    """
    if buffer.clock != 0:
        raise ValueError(f"integrate needs a buffer at t = 0, not at t = {buffer.current_time}")
    h = buffer.h
    every = _grid_steps(h if output_every is None else output_every, h)
    if not every:
        raise ValueError("output_every must be a positive multiple of the step")
    n_steps = _grid_steps(t_end, h)
    if n_steps is None:
        raise ValueError("t_end must be a nonnegative multiple of the step")

    if prehistory is None:
        prehistory = prehistory_frames(buffer)
    r_v = max(f.max_speed for f in prehistory)
    monitor = FlockingMonitor(kernel, buffer.tau,
                              [f.t for f in prehistory],
                              [f.d_X for f in prehistory],
                              [f.d_V for f in prehistory], r_v)

    # X = d_X and V = d_V at t = 0: the last prehistory record, plus L
    frames = [replace(prehistory[-1], lyapunov=monitor.start()[2])]
    for k, (dets, event) in enumerate(_advance(buffer, kernel, n_steps)):
        # the t = 0 slot has its frame, and a BlowupSignal's event repeats a
        # slot that may have one
        if frames[-1].t != buffer.current_time and (
                event is not None or k % every == 0 or k == n_steps):
            ens = buffer.latest
            d_x, d_v = diameters(ens)
            frames.append(_record(ens, d_x, d_v, *monitor.observe(ens.time, d_v), dets))
    if event is not None:
        frames[-1].status = "blowup"
    return SimulationResult(frames, buffer, event, r_v)


def simulate(config) -> SimulationResult:
    """Run a scenario end to end from a configuration object.

    ``config`` provides kernel, datum, tau, step, t_end and output_every
    (see ``flockdde.config.RunConfig``).
    """
    buffer = discretize(config.datum, config.tau, config.step)
    return integrate(buffer, config.kernel, t_end=config.t_end,
                     output_every=config.output_every)
