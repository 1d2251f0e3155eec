"""Delayed alignment dynamics: force evaluation, RK4 stepping, run driver.

``integrate`` drives a discretized buffer from t = 0; ``cli.execute_run``,
the one run pipeline, builds that buffer and call from a ``RunConfig``.

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
    _block_rows,
    _records,
    _row_blocks,
    _sq_distances,
    _worst_node,
    diameters,
    prehistory_frames,
)
from .roots import brentq
from .state import HistoryBuffer, LagrangianEnsemble, _det, _hermite, _rk4, _run_steps

__all__ = [
    "BlowupSignal",
    "BlowupEvent",
    "SingularNormalizerError",
    "SimulationResult",
    "alignment_rhs",
    "step",
    "integrate",
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


def _force(kernel, masses, pos, vel, jac, d_pos, d_vel):
    """Core force kernel: O(N^2) pairwise in fixed row blocks, fixed order.

    Returns (accelerations, label-space force gradient, normalizers).  Pairs
    are visited one row block at a time (see ``_row_blocks``) on squared
    distances q, so the temporaries hold O(_BLOCK_PAIRS) values.  The
    kernel's ``eval_with_deriv_sq`` gives ``w = psi`` and ``wd = psi'(r) / r``,
    whose product with ``x_i - y_j`` is ``psi'(r)`` times the unit vector;
    coincident pairs have profile value 1 and contribute nothing to the
    gradient (radial symmetry).  Every weighted sum is a moment of one
    (N, d + 1) matrix ``M = [m, m v(t - tau)]``: a block makes one product
    ``w @ M`` for ``s0`` and ``s1``, one more for their gradients, and the
    quotient rule divides by ``s0`` once.  In 1-D that product weighs the
    difference, q's own input, by wd.  In d >= 2, q is one ``_sq_distances``
    pass, with the bits of the coordinate-order sum, and the product is
    ``wd @ [M, (y - c)_1 M, ..., (y - c)_d M]``, first moments about the
    delayed box's midpoint c; their cancellation leaves an error of a small
    multiple of eps |x - c| (|wd| @ |M|) in the gradient alone.  A flat
    kernel skips the pairs: every row then weighs all delayed nodes by mass.
    Transient non-finite values only feed the stepper's isfinite check, so
    callers silence FP warnings around it, once per step in ``step``.
    """
    n, d = pos.shape
    if kernel.is_flat:
        s0 = np.full(n, masses.sum())
        u = np.broadcast_to(masses @ d_vel, (n, d)) / s0[:, None]
        grad_pos = np.zeros((n, d, d))
    else:
        mom = np.empty((n, d + 1))
        mom[:, 0] = masses
        np.multiply(masses[:, None], d_vel, out=mom[:, 1:])
        s = np.empty((n, d + 1))
        g = np.empty((n, d + 1, 1 if d == 1 else d + 1))
        if d > 1:
            c = 0.5 * (d_pos.min(axis=0) + d_pos.max(axis=0))
            ext = (mom[:, :, None] * np.c_[np.ones(n), d_pos - c][:, None]).reshape(n, -1)
        for rows in _row_blocks(n):
            if d == 1:
                diff = pos[rows] - d_pos.T
                w, wd = kernel.eval_with_deriv_sq(diff * diff)
                diff *= wd  # a fresh array of this block
                g[rows, :, 0] = diff @ mom
            else:
                w, wd = kernel.eval_with_deriv_sq(_sq_distances(pos[rows], d_pos))
                g[rows] = (wd @ ext).reshape(-1, d + 1, d + 1)
            s[rows] = w @ mom
        if d > 1:
            # sum_j wd (x_i - y_j) M_j = (x_i - c) (wd @ M)_i - (wd @ ((y - c) M))_i
            g = (pos - c)[:, None] * g[:, :, :1] - g[:, :, 1:]
        s0, s1 = s[:, 0], s[:, 1:]
        # d(s1 / s0) = (ds1 - u ds0) / s0: one division, no s0^2 to underflow
        u = s1 / s0[:, None]  # the convex combination
        grad_pos = (g[:, 1:] - u[:, :, None] * g[:, None, 0]) / s0[:, None, None]
    # NaN compares False here on purpose: a poisoned state must flow on to
    # the stepper's isfinite check, not masquerade as an underflow
    if s0.min() < 1e-300:
        raise SingularNormalizerError(
            "kernel-weighted mass underflowed below 1e-300; nodes are "
            "separated beyond the representable range of the kernel"
        )
    # in 1-D the product of 1 x 1 matrices, with matmul's +0 for a -0 product
    fg = grad_pos * jac + 0.0 if d == 1 else grad_pos @ jac
    return u - vel, fg, s0


# only bench/spans.py and tests call alignment_rhs
def alignment_rhs(current: LagrangianEnsemble, delayed, kernel):
    """The delayed alignment force on one ensemble, as ``_force`` returns it.

    ``delayed`` is the ``(positions, velocities)`` pair at time t - tau of the
    same nodes, as ``HistoryBuffer.query`` returns it.  Returns
    ``(accelerations, force_gradients, normalizers)``: the full dv/dt (convex
    combination minus current velocity), the label-space gradient of the
    combination term (its position gradient composed with the tangent flow),
    and the kernel-weighted masses.
    """
    d_pos, d_vel = delayed
    if d_pos.shape != current.positions.shape:
        raise ValueError("delayed positions must match the ensemble shape")
    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
        return _force(kernel, current.masses, current.positions, current.velocities,
                      current.jacobians, d_pos, d_vel)


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
    # transient non-finite values are caught by the isfinite check below and
    # turned into a blow-up signal, so FP warnings here are only noise
    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
        k1 = rhs(buffer.slot(j) if m else None, *y0)
        # the first stage is the exact state derivative at t: the Hermite
        # slope leaving this slot, which the midpoint reads when m = 1
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
    return int(_worst_node(dets))


def _det_slope(jac, vgrad):
    """d det J / dt per node by Jacobi's formula, dJ/dt being vgrad: the sum
    over i of det J with its column i replaced by that of vgrad."""
    cols = np.arange(jac.shape[-1])
    return sum(_det(np.where(cols == i, vgrad, jac)) for i in cols)


def _first_crossing(h, y0, m0, y1, m1) -> float:
    """The earliest theta in [0, 1] at which the cubic Hermite of det J over a
    step h, from (y0, m0) above DETJ_TOLERANCE to (y1, m1) not, meets it: the
    first piece between turning points to end at or below it holds the root.
    An overflowed slope gives the step's end, theta = 1."""
    if not np.isfinite([m0, m1]).all():
        return 1.0
    shifted = (h, y0 - DETJ_TOLERANCE, m0, y1 - DETJ_TOLERANCE, m1)  # of det J - tolerance
    turns = np.roots([6 * (y0 - y1) + 3 * h * (m0 + m1),
                      6 * (y1 - y0) - 2 * h * (2 * m0 + m1), h * m0])
    ends = [0.0, *sorted(r.real for r in turns if r.imag == 0 and 0 < r.real < 1), 1.0]
    lo, hi = next((a, b) for a, b in zip(ends, ends[1:]) if _hermite(b, *shifted) <= 0)
    return brentq(_hermite, lo, hi, args=shifted, xtol=1e-300)


def _refined_event(buffer: HistoryBuffer, before, dets) -> BlowupEvent:
    """The event in the step to the newest slot, whose finite ``dets`` meet
    the rule, from the slot whose ``before`` do not: the earliest crossing of
    the nodes at or below the tolerance, the lowest node winning a tie."""
    m0, m1 = (_det_slope(*buffer.slot(i)[2:]) for i in (buffer.clock - 1, buffer.clock))
    theta, node = min((_first_crossing(buffer.h, before[i], m0[i], dets[i], m1[i]), i)
                      for i in np.flatnonzero(dets <= DETJ_TOLERANCE))
    return BlowupEvent((buffer.clock - 1 + theta) * buffer.h, int(node))


def _advance(buffer: HistoryBuffer, kernel, n_steps: int):
    """Step the buffer up to ``n_steps`` times: the one stepping loop, and the
    one place that decides how a run ends and when.

    Yields (det J, event) for the slot it starts at and for each new slot;
    the event is None until ``_blowup_node`` names a node, and the first one
    is the last yield.  After t = 0 and with finite dets, its time is the
    crossing that ``_refined_event`` finds, else the slot's.  A step's
    BlowupSignal yields one too, at the newest slot, the last finite one.
    """
    for k in range(n_steps + 1):
        if k:
            before = dets
            try:
                step(buffer, kernel)
            except BlowupSignal as sig:
                yield dets, BlowupEvent(sig.time, sig.node)
                return
        dets = _det(buffer.slot(buffer.clock)[2])
        node = _blowup_node(dets)
        if node is None:
            yield dets, None
            continue
        yield dets, (_refined_event(buffer, before, dets) if k and np.isfinite(dets).all()
                     else BlowupEvent(buffer.current_time, node))
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

    ``buffer`` must be at t = 0; its spacing is the step, and ``t_end`` and
    ``output_every`` (default: the step) must pass ``state._run_steps``, which
    raises ValueError before any step otherwise.  ``prehistory``
    must be ``prehistory_frames(buffer)`` of this buffer; it seeds the
    monitor, R_V and the start frame, and is computed here when omitted.
    """
    if buffer.clock != 0:
        raise ValueError(f"integrate needs a buffer at t = 0, not at t = {buffer.current_time}")
    _, n_steps, every = _run_steps(buffer.tau, buffer.h, t_end,
                                   buffer.h if output_every is None else output_every)

    if prehistory is None:
        prehistory = prehistory_frames(buffer)
    monitor = FlockingMonitor(kernel, prehistory)

    # X = d_X and V = d_V at t = 0: the last prehistory record, plus L
    frames = [replace(prehistory[-1], lyapunov=monitor.start()[2])]
    # (clock, det J) of the frames not yet reduced; a batch is reduced in one
    # pass before the next step reuses its oldest slot, at _block_rows(N)
    # frames, and at the end
    queue, last, cap = [], 0, _block_rows(len(buffer.masses))

    def reduce_queue():
        clocks, dets = zip(*queue)
        ens = buffer.gather(clocks)
        d_x, d_v = diameters(ens)
        frames.extend(_records(ens, d_x, d_v, np.array(dets),
                               lambda t, dx, dv: monitor.observe(t, dv)))
        queue.clear()

    for k, (dets, event) in enumerate(_advance(buffer, kernel, n_steps)):
        # the t = 0 slot has its frame, and a BlowupSignal's event repeats a
        # slot that may have one
        if buffer.clock != last and (event is not None or k % every == 0 or k == n_steps):
            queue.append((buffer.clock, dets))
            last = buffer.clock
        if queue and (len(queue) == cap or buffer.clock - queue[0][0] >= buffer.m + 2):
            reduce_queue()
    if queue:
        reduce_queue()
    if event is not None:
        frames[-1].status = "blowup"
    return SimulationResult(frames, buffer, event, monitor.r_v)
