"""Flocking observables, the decay certificate, and run monitors.

Implements the spatial/velocity diameters, the comparison quantities X and V
maintained by exact one-step recurrences, the Lyapunov functional that the
certificate argument drives to be nonincreasing, the delayed-Gronwall rate
solver, and the sufficient-condition certificate with its predicted decay
rate.  All time integrals over emitted frames use the trapezoid rule at the
output cadence.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import brentq

__all__ = [
    "DiagnosticsFrame",
    "FlockingCertificate",
    "FlockingMonitor",
    "NotReadyError",
    "certify_flocking",
    "diameters",
    "fit_decay_rate",
    "gronwall_rate",
    "lyapunov",
    "prehistory_frames",
]


class NotReadyError(Exception):
    """Not enough recorded frames to evaluate the requested quantity."""


@dataclass
class DiagnosticsFrame:
    """Per-output-step record of the run observables.

    ``X_of_t`` and ``V_of_t`` are the integral comparison quantities (equal to
    d_X and d_V on the prehistory, where ``lyapunov`` is not defined and set
    to NaN).  ``worst_node`` is the first node with a non-finite det J, or
    else the node attaining ``min_detJ`` (see ``_worst_node``).
    """

    t: float
    d_X: float
    d_V: float
    max_speed: float
    lyapunov: float
    X_of_t: float
    V_of_t: float
    min_detJ: float
    max_velgrad_norm: float
    worst_node: int = 0
    status: str = "ok"


# Pairs per block of the pairwise layers (here and in the force): a block
# holds max(1, _BLOCK_PAIRS // N) rows against all N columns, so each of its
# temporaries holds at most 128 KB (for N <= _BLOCK_PAIRS) and stays in
# cache, instead of the O(N^2 d) arrays of a whole-matrix evaluation.  The
# partition depends on N alone, never on the machine, the worker count or
# BLAS threads.
_BLOCK_PAIRS = 16384


def _row_blocks(n_rows, n_cols):
    """Row slices of at most max(1, _BLOCK_PAIRS // n_cols) rows each."""
    rows = max(1, _BLOCK_PAIRS // max(1, n_cols))
    return [slice(lo, lo + rows) for lo in range(0, n_rows, rows)]


def _differences(a, b):
    """Per-coordinate differences ``a_i - b_j`` and their squared norms.

    Returns a list of d arrays of shape (len(a), len(b)) and the sum of their
    squares, added coordinate by coordinate.
    """
    diff = [a[:, k, None] - b[:, k] for k in range(a.shape[1])]
    q = diff[0] * diff[0]
    for diff_k in diff[1:]:
        q += diff_k * diff_k
    return diff, q


def _pairwise_diameter(arr: np.ndarray) -> float:
    # exact max over all pairs; diameters feed certified inequalities, so no
    # bounding-box shortcut (non-finite slices appear in terminal blow-up
    # frames, hence the silenced FP state).  Each row block meets the columns
    # from its first row on, which covers every unordered pair and the
    # diagonal.  sqrt is monotone and correctly rounded, so sqrt of the
    # largest square is the largest distance bit for bit; the squares add the
    # coordinates left to right, as numpy's sum does below 8 terms.  np.max
    # keeps NaN, as the blow-up frames need.
    with np.errstate(invalid="ignore", over="ignore"):
        block_max = [_differences(arr[rows], arr[rows.start:])[1].max()
                     for rows in _row_blocks(len(arr), len(arr))]
        return float(np.sqrt(np.max(block_max)))


def diameters(ensemble) -> tuple[float, float]:
    """Spatial and velocity diameters (exact O(N^2) pairwise maxima)."""
    return (_pairwise_diameter(ensemble.positions),
            _pairwise_diameter(ensemble.velocities))


def _worst_node(dets) -> int:
    """The first node with a non-finite det J (an overflowed +inf included),
    else the one with the least det J."""
    return int(np.where(np.isfinite(dets), dets, -np.inf).argmin())


def _record(ens, d_x, d_v, x, v, lyap, dets) -> DiagnosticsFrame:
    """Diagnostics record of ``ens`` from its diameters, (X, V, L) and det J."""
    vg = np.sqrt((ens.vel_gradients**2).sum(axis=(1, 2)))
    return DiagnosticsFrame(
        t=ens.time, d_X=d_x, d_V=d_v, max_speed=ens.max_speed(), lyapunov=lyap,
        X_of_t=x, V_of_t=v, min_detJ=float(dets.min()),
        max_velgrad_norm=float(vg.max()), worst_node=_worst_node(dets),
    )


def prehistory_frames(buffer) -> list[DiagnosticsFrame]:
    """Diagnostics records for the prescribed slices at times <= 0."""
    out = []
    for s in buffer.prehistory():
        d_x, d_v = diameters(s)
        out.append(_record(s, d_x, d_v, d_x, d_v, math.nan, s.det_jacobians()))
    return out


def _window_trapezoid(ts, vs, a, b):
    """Trapezoid of the piecewise-linear series between arbitrary endpoints."""
    inner = ts[(ts > a) & (ts < b)]
    pts = np.concatenate([[a], inner, [b]])
    return float(np.trapezoid(np.interp(pts, ts, vs), pts))


# Rows of the monitor's frame record.
_T, _D_V, _X, _V = range(4)


class FlockingMonitor:
    """Streaming evaluation of X(t), V(t) and the Lyapunov functional.

    Seeded with the prehistory series on [-tau, 0], where X := d_X and
    V := d_V.  For t > 0, X accumulates the trapezoid of d_V, and V advances
    by the exact exponential-decay recurrence

        V(t+dt) = V(t) e^{-dt} + trapezoid of (1 - psi(X(s-tau) + R_V tau))
                                 d_V(s-tau) e^{s-(t+dt)} over [t, t+dt].

    Once the frame at time t is recorded, nothing reads a time before
    t - tau - 1e-12 (the lower end of the Lyapunov window), so the monitor
    keeps only the frames from the last one at or before that time up to t.
    Interpolation reads only the two frames around its argument and the
    Lyapunov trapezoid only the frames inside its window, so the pruned
    record gives the same bits as the full one.  The record is one array,
    compacted or doubled in place, so each frame costs O(1) amortized plus
    one closed-form kernel integral and a trapezoid over the window, whose
    length depends on tau and the frame cadence, not on the run length.
    """

    def __init__(self, kernel, tau, pre_times, pre_d_x, pre_d_v, r_v):
        pre_times = [float(t) for t in pre_times]
        if not pre_times or abs(pre_times[-1]) > 1e-9:
            raise ValueError("prehistory series must end at t = 0")
        if tau > 0 and abs(pre_times[0] + tau) > 1e-9:
            raise ValueError("prehistory series must start at t = -tau")
        self.kernel = kernel
        self.tau = float(tau)
        self.r_v = float(r_v)
        n = len(pre_times)
        self._rows = np.empty((4, 2 * n + 16))
        self._rows[:, :n] = (pre_times, pre_d_v, pre_d_x, pre_d_v)
        self._lo, self._hi = 0, n  # the window is self._rows[:, lo:hi]
        # X(-tau) + R_V tau
        self._x_base = float(self._rows[_X, 0]) + self.r_v * self.tau

    def _series(self, row):
        return self._rows[row, self._lo:self._hi]

    def _latest(self, row):
        return float(self._rows[row, self._hi - 1])

    def _append(self, t, d_v, x):
        """Record a frame (its V is set by the caller), making room first."""
        capacity = self._rows.shape[1]
        if self._hi == capacity:
            n = self._hi - self._lo
            if 2 * n > capacity:
                grown = np.empty((4, 2 * capacity))
                grown[:, :n] = self._rows[:, self._lo:self._hi]
                self._rows = grown
            else:
                self._rows[:, :n] = self._rows[:, self._lo:self._hi]
            self._lo, self._hi = 0, n
        self._rows[:, self._hi] = (t, d_v, x, math.nan)
        self._hi += 1

    def _x_at(self, s):
        return float(np.interp(s, self._series(_T), self._series(_X)))

    def _d_v_at(self, s):
        return float(np.interp(s, self._series(_T), self._series(_D_V)))

    def _g(self, s):
        arg = self._x_at(s - self.tau) + self.r_v * self.tau
        return (1.0 - self.kernel.profile(arg)) * self._d_v_at(s - self.tau)

    def _lyapunov(self, t):
        if self.tau == 0.0:
            return self._latest(_V)
        times = self._series(_T)
        in_window = (np.searchsorted(times, t + 1e-12, "right")
                     - np.searchsorted(times, t - self.tau - 1e-12, "left"))
        if in_window < 2:
            raise NotReadyError(f"fewer than 2 recorded frames in [{t - self.tau}, {t}]")
        upper = self._x_at(t - self.tau) + self.r_v * self.tau
        middle = self.kernel.integral(self._x_base, upper)
        tail = _window_trapezoid(times, self._series(_V), t - self.tau, t)
        return self._latest(_V) + middle + tail

    def start(self):
        """(X, V, Lyapunov) at t = 0, before any dynamics frame."""
        return self._latest(_X), self._latest(_V), self._lyapunov(0.0)

    def observe(self, t, d_v):
        """Advance to the emitted frame at time ``t`` and return (X, V, L)."""
        t_prev = self._latest(_T)
        dt = t - t_prev
        if dt <= 0:
            raise ValueError("frames must advance in time")
        g_prev = self._g(t_prev)
        v_prev = self._latest(_V)
        x_new = self._latest(_X) + 0.5 * dt * (self._latest(_D_V) + d_v)
        self._append(t, d_v, x_new)
        # drop the frames before the last one at or before t - tau - 1e-12
        times = self._series(_T)
        self._lo += max(0, int(np.searchsorted(times, t - self.tau - 1e-12, "right")) - 1)
        decay = math.exp(-dt)
        v_new = v_prev * decay + 0.5 * dt * (decay * g_prev + self._g(t))
        self._rows[_V, self._hi - 1] = v_new
        return x_new, v_new, self._lyapunov(t)


def lyapunov(times, d_x_series, d_v_series, kernel, r_v, tau) -> float:
    """Lyapunov functional at the last time of a recorded frame history.

    Entries at times <= 0 seed the prehistory (X := d_X, V := d_V there);
    later entries are replayed through the streaming recurrences.
    """
    times = np.asarray(times, dtype=float)
    pre = times <= 1e-12
    if not pre.any():
        raise ValueError("frame history must include the prehistory on [-tau, 0]")
    mon = FlockingMonitor(kernel, tau, times[pre], np.asarray(d_x_series)[pre],
                          np.asarray(d_v_series)[pre], r_v)
    value = mon.start()[2]
    for t, dv in zip(times[~pre], np.asarray(d_v_series)[~pre]):
        value = mon.observe(t, dv)[2]
    return value


def gronwall_rate(a: float, tau: float) -> float:
    """Decay exponent of the delayed Gronwall inequality.

    Returns the unique root C in (0, min(1, a)) of
    ``1 - C = (1 - a) exp(C tau)``; for tau = 0 that is exactly ``a``.
    """
    if not 0.0 < a < 1.0:
        raise ValueError(f"contraction amount a must lie in (0, 1), got {a}")
    if tau < 0:
        raise ValueError("delay tau must be nonnegative")
    if tau == 0.0:
        return a
    # solved for x = C / a in (0, 1], the same at every scale of a: the residual
    # over a is 1 - x - (1 - a) x tau expm1(y) / y with y = a x tau (1 where y
    # underflows), decreasing from 1 and negative by y = 700, where the bracket
    # stops before expm1 overflows; the least xtol leaves rtol in charge
    def residual(x):
        y = a * x * tau
        return 1.0 - x - (1.0 - a) * x * tau * (math.expm1(y) / y if y else 1.0)

    return a * brentq(residual, 0.0, min(1.0, 700.0 / tau / a), xtol=math.ulp(0.0))


@dataclass
class FlockingCertificate:
    """Outcome of the sufficient-condition check on the prehistory.

    ``lhs`` is the initial velocity budget d_V(0) + integral of d_V over
    [-tau, 0]; ``rhs`` is the kernel tail integral from d_X(-tau) + R_V tau
    (may be infinite).  When satisfied, ``d_star`` absorbs the budget into the
    tail, ``psi_star`` is the kernel value there, and ``predicted_rate`` is
    the Gronwall exponent, a certified lower bound on the measured decay.
    """

    r_v: float
    lhs: float
    rhs: float
    satisfied: bool
    d_star: float | None = None
    psi_star: float | None = None
    predicted_rate: float | None = None

    def to_dict(self):
        return {
            "R_V": float(self.r_v),
            "lhs": float(self.lhs),
            "rhs": float(self.rhs),
            "satisfied": bool(self.satisfied),
            "d_star": self.d_star,
            "psi_star": self.psi_star,
            "predicted_rate": self.predicted_rate,
        }


def certify_flocking(frames, kernel) -> FlockingCertificate:
    """Evaluate the flocking sufficient condition on prehistory frames.

    ``frames`` must cover [-tau, 0] in increasing time order, carrying t,
    d_X, d_V, max_speed.  Raises UnsupportedKernelError (from the kernel) if
    the kernel has no tail model.
    """
    frames = sorted(frames, key=lambda f: f.t)
    if not frames or abs(frames[-1].t) > 1e-9:
        raise ValueError("prehistory frames must cover [-tau, 0] and end at 0")
    tau = -frames[0].t
    times = np.array([f.t for f in frames])
    d_v = np.array([f.d_V for f in frames])
    r_v = max(f.max_speed for f in frames)
    lhs = float(d_v[-1] + np.trapezoid(d_v, times))
    lower = frames[0].d_X + r_v * tau
    rhs = kernel.tail_integral(lower)
    satisfied = lhs < rhs
    if not satisfied:
        return FlockingCertificate(r_v=r_v, lhs=lhs, rhs=rhs, satisfied=False)
    d_star = kernel.budget_radius(lower, lhs)
    psi_star = float(kernel.eval(d_star))
    if psi_star >= 1.0:
        rate = 1.0  # flat-kernel / point-support limit of the Gronwall root
    elif psi_star == 0.0:
        rate = 0.0  # profile underflowed at d_star: the root's a -> 0 limit
    else:
        rate = gronwall_rate(psi_star, tau)
    return FlockingCertificate(r_v=r_v, lhs=lhs, rhs=rhs, satisfied=True,
                               d_star=d_star, psi_star=psi_star, predicted_rate=rate)


def fit_decay_rate(frames, t_start: float, t_end: float) -> float:
    """Least-squares decay exponent of d_V over [t_start, t_end].

    Frames with d_V below 1e-14 are ignored (log underflow); if they leave
    fewer than 3 usable points the series has collapsed and the rate is
    reported as +infinity.
    """
    pts = [(f.t, f.d_V) for f in frames if t_start - 1e-12 <= f.t <= t_end + 1e-12]
    if len(pts) < 3:
        raise NotReadyError("need at least 3 frames in the fitting window")
    usable = [(t, dv) for t, dv in pts if dv >= 1e-14]
    if len(usable) < 3:
        return math.inf
    ts = np.array([t for t, _ in usable])
    logs = np.log([dv for _, dv in usable])
    slope = np.polyfit(ts, logs, 1)[0]
    return float(-slope)
