"""Delayed alignment dynamics: force evaluation, RK4 stepping, run driver.

The velocity equation relaxes each node toward a kernel-weighted convex
combination of the delayed velocities; the normalization by the same weighted
mass makes the combination convex, which is what the maximum principle and
all diameter estimates lean on.  The tangent flow (position Jacobian and
velocity gradient with respect to labels) is integrated alongside, feeding
the Jacobian monitor and the one-dimensional slope dynamics.

Stepping is classical RK4 with a fixed step chosen to divide the delay, so
stage queries fall at worst half a step from stored slices and the dense
history interpolation keeps the overall order at four.  The delayed argument
always reads the interpolated history; with zero delay it reads the current
stage state, which turns the system into the undelayed one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .diagnostics import (
    DiagnosticsFrame,
    FlockingMonitor,
    _differences,
    _row_blocks,
    diameters,
    prehistory_frames,
)
from .state import HistoryBuffer, HistoryView, LagrangianEnsemble, discretize

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


@dataclass
class BlowupEvent:
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
    the gradient (radial symmetry).  The gradient is contracted as d row sums
    and d matrix products.  A flat kernel skips the pairs: every row then
    weighs all delayed nodes by their mass.
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
            s0 = np.empty(n)
            s1 = np.empty((n, d))
            g0 = np.empty((n, d))
            g1 = np.empty((n, d, d))
            for rows in _row_blocks(n, len(d_pos)):
                diff, q = _differences(pos[rows], d_pos)
                # the kernel's outputs and the differences are fresh arrays
                # of this block, so they are weighted in place
                w, wd = kernel.eval_with_deriv_sq(q)
                w *= masses
                s0[rows] = w.sum(axis=1)
                s1[rows] = w @ d_vel
                wd *= masses
                for b, wd_b in enumerate(diff):
                    wd_b *= wd
                    g0[rows, b] = wd_b.sum(axis=1)
                    g1[rows, :, b] = wd_b @ d_vel
            grad_pos = (g1 * s0[:, None, None] - s1[:, :, None] * g0[:, None, :]) \
                / (s0**2)[:, None, None]
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


def step(buffer: HistoryBuffer, kernel, h: float) -> LagrangianEnsemble:
    """Advance the buffer by one RK4 step of size ``h``.

    Stage offsets are {0, 1/2, 1/2, 1}; each stage reads the delayed state
    from the history at its own time minus tau.  Requires h <= tau when
    tau > 0 so delayed queries never leave the stored window.  Appends the
    new slice, prunes slices older than t - tau - 2h, and returns the new
    slice.  Raises BlowupSignal if the new state is not finite.
    """
    if h <= 0:
        raise ValueError("step size must be positive")
    tau = buffer.tau
    if tau > 0 and h > tau * (1 + 1e-12):
        raise ValueError("step size must not exceed the delay")
    cur = buffer.latest
    t = cur.time
    masses = cur.masses

    def rhs(t_stage, pos, vel, jac, vgrad):
        if tau == 0.0:
            d_pos, d_vel = pos, vel
        else:
            view = buffer.query(t_stage - tau)
            d_pos, d_vel = view.positions, view.velocities
        acc, fg, _ = _force(kernel, masses, pos, vel, jac, d_pos, d_vel)
        return vel, acc, vgrad, fg - vgrad

    y0 = (cur.positions, cur.velocities, cur.jacobians, cur.vel_gradients)
    k1 = rhs(t, *y0)
    # the first stage is the exact state derivative at t; cache it as the
    # Hermite slope of this slice before any interpolation can need it
    if cur.accel_fwd is None:
        cur.accel_fwd = k1[1].copy()
    if cur.accel_bwd is None:
        cur.accel_bwd = cur.accel_fwd
    k2 = rhs(t + h / 2, *(y + (h / 2) * k for y, k in zip(y0, k1)))
    k3 = rhs(t + h / 2, *(y + (h / 2) * k for y, k in zip(y0, k2)))
    k4 = rhs(t + h, *(y + h * k for y, k in zip(y0, k3)))
    new = tuple(y + (h / 6) * (a + 2 * b + 2 * c + d)
                for y, a, b, c, d in zip(y0, k1, k2, k3, k4))
    if not all(np.all(np.isfinite(arr)) for arr in new):
        raise BlowupSignal(time=t)
    ens = LagrangianEnsemble(
        time=t + h, positions=new[0], velocities=new[1], jacobians=new[2],
        vel_gradients=new[3], masses=masses, labels=cur.labels,
        cell_volumes=cur.cell_volumes,
    )
    buffer.append(ens)
    buffer.prune(t + h - tau - 2 * h)
    return ens


def _fill_latest_accel(buffer: HistoryBuffer, kernel) -> None:
    """Cache the RHS slope on the newest slice so its interval is queryable."""
    cur = buffer.latest
    if cur.accel_fwd is not None:
        return
    if buffer.tau == 0.0:
        view = HistoryView(cur.time, cur.positions, cur.velocities)
    else:
        view = buffer.query(cur.time - buffer.tau)
    cur.accel_fwd = alignment_rhs(cur, view, kernel).accelerations
    if cur.accel_bwd is None:
        cur.accel_bwd = cur.accel_fwd


@dataclass
class SimulationResult:
    frames: list
    buffer: HistoryBuffer
    blowup: BlowupEvent | None
    r_v: float

    @property
    def blew_up(self) -> bool:
        return self.blowup is not None


def _frame(ens, monitor, start=None, status="ok"):
    """Diagnostics record of ``ens``; ``start`` is its prehistory record at
    t = 0 for the first frame, whose diameters are reused."""
    if start is None:
        d_x, d_v = diameters(ens)
        x, v, lyap = monitor.observe(ens.time, d_x, d_v)
    else:
        d_x, d_v = start.d_X, start.d_V
        x, v, lyap = monitor.start()
    dets = ens.det_jacobians()
    vg = np.sqrt((ens.vel_gradients**2).sum(axis=(1, 2)))
    return DiagnosticsFrame(
        t=ens.time, d_X=d_x, d_V=d_v, max_speed=ens.max_speed(), lyapunov=lyap,
        X_of_t=x, V_of_t=v, min_detJ=float(dets.min()),
        max_velgrad_norm=float(vg.max()), worst_node=int(dets.argmin()),
        status=status,
    )


def integrate(buffer: HistoryBuffer, kernel, h: float, t_end: float,
              output_every: float | None = None,
              detj_tolerance: float = DETJ_TOLERANCE,
              prehistory: list | None = None) -> SimulationResult:
    """Drive the stepper from t = 0 to t_end, emitting diagnostics frames.

    Emits one frame per output step (the initial diagnostics count as the
    first frame, so t_end = 0 produces exactly one).  Stops early with a
    blow-up event when the minimal Jacobian determinant reaches
    ``detj_tolerance`` or the state leaves the finite range; frames up to the
    last finite time are retained and the terminal frame carries status
    "blowup".  Deterministic given its inputs.

    ``prehistory`` takes the ``prehistory_frames(buffer)`` records when the
    caller already has them (the buffer drops its prehistory once stepping
    starts); they seed the monitor and R_V and are computed here otherwise.
    """
    if t_end < 0:
        raise ValueError("t_end must be nonnegative")
    if output_every is None:
        output_every = h
    every = int(round(output_every / h))
    if every < 1 or abs(every * h - output_every) > 1e-9 * max(1.0, output_every):
        raise ValueError("output_every must be a positive multiple of the step")
    n_steps = int(round(t_end / h))
    if abs(n_steps * h - t_end) > 1e-9 * max(1.0, t_end):
        raise ValueError("t_end must be a multiple of the step")

    if prehistory is None:
        prehistory = prehistory_frames(buffer)
    r_v = max(f.max_speed for f in prehistory)
    monitor = FlockingMonitor(kernel, buffer.tau,
                              [f.t for f in prehistory],
                              [f.d_X for f in prehistory],
                              [f.d_V for f in prehistory], r_v)

    frames = [_frame(buffer.latest, monitor, start=prehistory[-1])]
    if frames[0].min_detJ <= detj_tolerance:
        frames[0].status = "blowup"
        event = BlowupEvent(time=frames[0].t, node=frames[0].worst_node)
        return SimulationResult(frames, buffer, event, r_v)

    event = None
    for k in range(1, n_steps + 1):
        try:
            ens = step(buffer, kernel, h)
        except BlowupSignal as sig:
            last = buffer.latest  # step raises before appending
            if math.isclose(frames[-1].t, last.time, abs_tol=1e-12):
                frames[-1].status = "blowup"
            else:
                frames.append(_frame(last, monitor, status="blowup"))
            event = BlowupEvent(time=last.time, node=sig.node)
            break
        dets = ens.det_jacobians()
        crossed = (not np.all(np.isfinite(dets))) or dets.min() <= detj_tolerance
        if crossed or k % every == 0 or k == n_steps:
            frames.append(_frame(ens, monitor,
                                 status="blowup" if crossed else "ok"))
        if crossed:
            event = BlowupEvent(time=ens.time, node=int(np.nanargmin(dets)))
            break
    else:
        _fill_latest_accel(buffer, kernel)
    return SimulationResult(frames, buffer, event, r_v)


def simulate(config) -> SimulationResult:
    """Run a scenario end to end from a configuration object.

    ``config`` provides kernel, datum, tau, step, t_end, output_every,
    interpolation, and optionally n_history_slices and detj_tolerance (see
    ``flockdde.config.RunConfig``).
    """
    tau = config.tau
    h = config.step
    n_hist = getattr(config, "n_history_slices", None)
    if n_hist is None:
        n_hist = int(round(tau / h)) + 1 if tau > 0 else 1
    buffer = discretize(config.datum, tau, n_hist,
                        getattr(config, "interpolation", "cubic-hermite"))
    return integrate(
        buffer, config.kernel, h=h, t_end=config.t_end,
        output_every=getattr(config, "output_every", None),
        detj_tolerance=getattr(config, "detj_tolerance", DETJ_TOLERANCE),
    )
