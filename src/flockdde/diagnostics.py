"""Flocking observables, the decay certificate, and run monitors.

Implements the spatial/velocity diameters, the comparison quantities X and V,
the Lyapunov functional that the certificate argument drives to be
nonincreasing, the delayed-Gronwall rate solver, and the sufficient-condition
certificate with its predicted decay rate.  Every time integral over the
steps takes one two-point rule per gap, exact for constants and for e^{-t},
so the discrete Lyapunov functional telescopes as the continuous one does.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from functools import cache

import numpy as np

from .roots import brentq

__all__ = [
    "DiagnosticsFrame",
    "FlockingCertificate",
    "FlockingMonitor",
    "certify_flocking",
    "diameters",
    "fit_decay_rate",
    "gronwall_rate",
    "prehistory_frames",
]


@dataclass
class DiagnosticsFrame:
    """Per-output-step record of the run observables; the fields are the
    columns of ``frames.csv``, by name and in order.

    ``X`` and ``V`` are the integral comparison quantities X(t) and V(t)
    (equal to d_X and d_V on the prehistory, where ``lyapunov`` is not defined
    and set to NaN).  The tangent flow starts at t = 0, so ``min_detJ`` and
    ``max_velgrad_norm`` are NaN at t < 0 too.
    """

    t: float
    d_X: float
    d_V: float
    max_speed: float
    lyapunov: float
    X: float
    V: float
    min_detJ: float
    max_velgrad_norm: float
    status: str = "ok"


# Pairs per block of the pairwise layers (here and in the force): a block
# holds max(1, _BLOCK_PAIRS // N) rows against all N columns, so each of its
# temporaries holds at most 128 KB (for N <= _BLOCK_PAIRS) and stays in
# cache, instead of the O(N^2 d) arrays of a whole-matrix evaluation.  The
# partition depends on N alone, never on the machine, the worker count or
# BLAS threads.
_BLOCK_PAIRS = 16384


def _block_rows(n):
    """Rows of n values each that one block holds, max(1, _BLOCK_PAIRS // n):
    a row block's rows against n columns, or a frame batch's slices of n
    nodes."""
    return max(1, _BLOCK_PAIRS // max(1, n))


@cache
def _row_blocks(n):
    """Slices of n rows, each row meeting n columns: ``_block_rows(n)`` rows
    per slice."""
    rows = _block_rows(n)
    return tuple(slice(lo, lo + rows) for lo in range(0, n, rows))


_cdist = None


def _sq_distances(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Squared distances between the rows of ``a`` and of ``b``, each the
    coordinate-order sum of squared differences: ``cdist``'s, imported on
    the first call, so a 1-D run never loads ``scipy.spatial``."""
    global _cdist
    if _cdist is None:
        from scipy.spatial.distance import cdist as _cdist
    return _cdist(a, b, "sqeuclidean")


def _pairwise_diameter(arr: np.ndarray) -> float:
    # exact max over all pairs (non-finite slices appear in terminal blow-up
    # frames; cdist sets no FP flag on them).  Each row block meets the columns
    # from its first row on, which covers every unordered pair and the
    # diagonal.  sqrt is monotone and correctly rounded, so sqrt of the
    # largest square is the largest distance bit for bit; cdist adds the
    # squared coordinates left to right, as the force's distance pass does.
    # np.max keeps NaN, as the blow-up frames need.
    block_max = [_sq_distances(arr[rows], arr[rows.start:]).max()
                 for rows in _row_blocks(len(arr))]
    return float(np.sqrt(np.max(block_max)))


def _range_exponents(top: np.ndarray) -> np.ndarray:
    """Per entry of ``top`` >= 0, the e that brings a finite value outside
    [2^-500, 2^500] into [1/2, 1) as ``top * 2^-e``, else 0 (``frexp(0)`` is
    (0, 0)): norms of values scaled by 2^-e square nothing out of range."""
    return np.where((top < 2.0**-500) | ((top > 2.0**500) & (top < math.inf)),
                    np.frexp(top)[1], 0)


def _diameter(arr: np.ndarray) -> float:
    """The largest pairwise distance in d >= 2, exact, from the pairs that can hold it.

    A non-finite slice takes ``_pairwise_diameter``, so NaN propagates.  Else
    the pairs among the per-axis extreme points give a lower bound LB^2, and a
    point whose farthest bounding-box corner lies below it ends no diameter:
    rounding is monotone, so none of its computed squared distances exceeds
    the corner's, summed in the same order.  Both endpoints of the diameter
    survive, and ``_pairwise_diameter`` over the survivors forms their square
    by the same operations, so the maximum has its bits.  A box extent
    outside [2^-500, 2^500] is scaled by an exact power of two first, so no
    square under- or overflows (see ``_range_exponents``).
    """
    lo, hi = arr.min(axis=0), arr.max(axis=0)
    if not (math.isfinite(lo.min()) and math.isfinite(hi.max())):
        return _pairwise_diameter(arr)
    with np.errstate(over="ignore"):
        e = int(_range_exponents((hi - lo).max()))
        if e:
            # a constant axis adds exact zeros; zeroed, it cannot overflow
            flat = hi == lo
            arr, lo, hi = (np.ldexp(np.where(flat, 0.0, a), -e) for a in (arr, lo, hi))
        ends = arr[np.concatenate([arr.argmin(axis=0), arr.argmax(axis=0)])]
        lb_sq = _sq_distances(ends, ends).max()
        far = np.maximum(arr - lo, hi - arr)
        bound = far[:, 0] * far[:, 0]
        for k in range(1, far.shape[1]):
            bound += far[:, k] * far[:, k]
        return float(np.ldexp(_pairwise_diameter(arr[bound >= lb_sq * (1 - 1e-12)]), e))


def _diameters(arr: np.ndarray) -> np.ndarray:
    """The largest pairwise distance of each slice of a (K, N, d) stack.  In
    d >= 2 each slice takes ``_diameter``.  In 1-D every finite slice takes
    ``max - min`` at once: subtraction is monotone and correctly rounded, and
    ``sqrt(fl(x^2)) = |x|`` wherever the square is normal; a non-finite slice
    takes ``_pairwise_diameter``, so NaN propagates."""
    if arr.shape[2] > 1:
        return np.array([_diameter(a) for a in arr])
    lo, hi = arr.min(axis=1)[:, 0], arr.max(axis=1)[:, 0]
    with np.errstate(over="ignore", invalid="ignore"):
        out = hi - lo
    for k in np.flatnonzero(~(np.isfinite(lo) & np.isfinite(hi))):
        out[k] = _pairwise_diameter(arr[k])
    return out


def diameters(positions, velocities):
    """Spatial and velocity diameters of each slice of two (K, N, d) stacks
    (``HistoryBuffer.gather``'s), as two (K,) arrays: exact maxima of the
    pairwise distances (see ``_diameters``), without visiting every pair."""
    return _diameters(positions), _diameters(velocities)


def _max_norms(stack: np.ndarray) -> np.ndarray:
    """The largest norm of a node's (d,) or (d, d) entry, each slice of a
    (K, N, ...) stack scaled by its own power of two (``_range_exponents``)
    so no square is out of range; in 1-D |entry|, with no square.  A slice
    holding inf is not scaled: squares overflowing beside it keep its inf."""
    entries = np.abs(stack)
    top = entries.max(axis=tuple(range(1, stack.ndim)))
    if stack.shape[-1] == 1:
        return top
    e = _range_exponents(top)
    with np.errstate(over="ignore"):
        squares = np.ldexp(entries, -e.reshape(-1, *(1,) * (stack.ndim - 1)))**2
        norms = np.sqrt(squares.sum(axis=tuple(range(2, stack.ndim)))).max(axis=1)
        return np.ldexp(norms, e)


def _records(times, velocities, d_x, d_v, values, tangent=None) -> list[DiagnosticsFrame]:
    """Diagnostics records of K slices from their (K,) ``times``, (K, N, d)
    ``velocities``, diameters, ``values``, each slice's (X, V, L) in order (a
    slice whose value is None has no record), and ``tangent``, their (det J,
    velocity gradients) stacks, or None, which leaves ``min_detJ`` and
    ``max_velgrad_norm`` NaN.  Norms take ``_max_norms``."""
    tangent = ([math.nan] * len(values),) * 2 if tangent is None else (
        tangent[0].min(axis=1).tolist(), _max_norms(tangent[1]).tolist())
    columns = zip(times.tolist(), d_x.tolist(), d_v.tolist(),
                  _max_norms(velocities).tolist(), *tangent, values)
    return [DiagnosticsFrame(t=t, d_X=dx, d_V=dv, max_speed=speed, lyapunov=xvl[2],
                             X=xvl[0], V=xvl[1], min_detJ=lo,
                             max_velgrad_norm=g)
            for t, dx, dv, speed, lo, g, xvl in columns if xvl is not None]


def prehistory_frames(buffer) -> list[DiagnosticsFrame]:
    """Records of the prescribed slices at times <= 0 of a buffer at t = 0
    (else ValueError), ``_block_rows(N)`` at a time; ``lyapunov`` is NaN, and
    so are ``min_detJ`` and ``max_velgrad_norm`` before the tangent flow."""
    if buffer.clock != 0:
        raise ValueError(f"prehistory needs a buffer at t = 0, not at t = {buffer.current_time}")
    clocks = buffer.prehistory_clocks()
    batch = _block_rows(len(buffer.masses))
    out = []
    for lo in range(0, len(clocks), batch):
        times, pos, vel = buffer.gather(clocks[lo:lo + batch])
        d_x, d_v = diameters(pos, vel)
        out += _records(times, vel, d_x, d_v, [(dx, dv, math.nan)
                                               for dx, dv in zip(d_x.tolist(), d_v.tolist())])
    start = buffer.latest  # the last record's slot, at t = 0, the first with a tangent flow
    out[-1].min_detJ = float(start.det_jacobians().min())
    out[-1].max_velgrad_norm = float(_max_norms(start.vel_gradients[None])[0])
    return out


def _rule(dt):
    """Weights (a, b) of the rule a f(t) + b f(t + dt) for the integral over
    [t, t + dt]: exact for constants and for e^{-t}, both positive."""
    e = -math.expm1(-dt)
    b = (dt - e) / e
    return dt - b, b


class FlockingMonitor:
    """Streaming evaluation of X(t), V(t) and the Lyapunov functional.

    The one reduction of the m + 1 prehistory frames on [-tau, 0], where
    X := d_X and V := d_V: ``tau`` = -prehistory[0].t (their m h), ``r_v`` =
    R_V (the largest max_speed), ``lower`` = X(-tau) + R_V tau, and
    ``start()`` gives L(0); the flocking certificate is L(0) < integral of psi
    over [lower, inf).

    A run then steps it through every slot of the step grid, one prehistory
    spacing tau / m at a time, so t - tau is always a stored step: X, Y and W
    of the last m + 1 steps sit in rings whose first entry is at t - tau.
    Every time integral takes ``_rule`` on each step.  Y and W sum d_V and V
    by it (both sum d_V on the prehistory), X sums d_V for t > 0, and V
    advances implicitly: V(t+dt) = ((1 - a) V(t) + S) / (1 + b), exactly
    e^{-dt} V(t) when S = 0, where S = D - int_x^{x+D} psi with
    D = Y(t+dt-tau) - Y(t-tau) and x = X(t-tau) + R_V tau.  Then
    L(t) = V(t) + int_lower^{X(t-tau)+R_V tau} psi + W(t) - W(t-tau), which is
    V + int_{d_X(0)}^{X(t)} psi at tau = 0.  Past t = tau, a step changes L
    by the change of Y - W at t - tau, <= 0 where d_V <= V.
    """

    def __init__(self, kernel, prehistory):
        frames = sorted(prehistory, key=lambda f: f.t)
        if not frames or abs(frames[-1].t) > 1e-9:
            raise ValueError("prehistory frames must cover [-tau, 0] and end at t = 0")
        self.kernel = kernel
        self.tau = float(-frames[0].t)
        self.r_v = float(max(f.max_speed for f in frames))
        self.lower = frames[0].d_X + self.r_v * self.tau
        m = len(frames) - 1
        self._spacing = self.tau / m if m else None
        y = [0.0]
        for prev, f in zip(frames, frames[1:]):
            a, b = _rule(f.t - prev.t)
            y.append(y[-1] + (a * prev.d_V + b * f.d_V))
        self._x = deque((f.d_X for f in frames), m + 1)
        self._y, self._w = deque(y, m + 1), deque(y, m + 1)
        self._t, self._d_v, self._v = frames[-1].t, frames[-1].d_V, frames[-1].d_V

    def start(self):
        """(X, V, L) at the last step: at t = 0 before any ``advance``."""
        upper = self._x[0] + self.r_v * self.tau
        lyapunov = self._v + self.kernel.integral(self.lower, upper) + (self._w[-1] - self._w[0])
        return self._x[-1], self._v, lyapunov

    def advance(self, t, d_v) -> None:
        """Step to time ``t``, one prehistory spacing on (any step at tau =
        0), where the velocity diameter is ``d_v``."""
        dt = t - self._t
        if not dt > 0 or self._spacing and not math.isclose(dt, self._spacing, rel_tol=1e-6):
            raise ValueError(f"a step of {dt} from t = {self._t} is not the prehistory's spacing")
        a, b = _rule(dt)
        growth = a * self._d_v + b * d_v
        x, y_delayed = self._x[0] + self.r_v * self.tau, self._y[0]
        self._x.append(self._x[-1] + growth)
        self._y.append(self._y[-1] + growth)
        d = self._y[0] - y_delayed
        v = ((1.0 - a) * self._v + d - self.kernel.integral(x, x + d)) / (1.0 + b)
        self._w.append(self._w[-1] + (a * self._v + b * v))
        self._t, self._d_v, self._v = t, d_v, v

    def observe(self, t, d_v):
        """(X, V, L) at the frame at time ``t``: ``advance`` to it and read."""
        self.advance(t, d_v)
        return self.start()


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
    """Outcome of the sufficient-condition check on the prehistory; the
    fields are its keys in ``summary.json`` and in ``certify``'s output.

    ``lhs`` is the initial velocity budget L(0) = d_V(0) + integral of d_V
    over [-tau, 0], the integral by the monitor's rule; ``rhs`` is the kernel
    tail integral from d_X(-tau) + R_V tau (may be infinite), R_V the largest
    prehistory speed.  When satisfied, ``d_star`` absorbs the budget into the
    tail, ``psi_star`` is the kernel value there, and ``predicted_rate`` is
    the Gronwall exponent, a certified lower bound on the measured decay.
    """

    R_V: float
    lhs: float
    rhs: float
    satisfied: bool
    d_star: float | None = None
    psi_star: float | None = None
    predicted_rate: float | None = None


def certify_flocking(frames, kernel) -> FlockingCertificate:
    """Evaluate the flocking certificate L(0) < integral of psi over
    [X(-tau) + R_V tau, inf) on prehistory frames covering [-tau, 0], in any
    order: L(0) (``lhs``, a run's first-frame ``lyapunov`` bit for bit), R_V,
    tau (the frames' m h) and the limit are their ``FlockingMonitor``'s.
    Every kernel answers: ``rhs`` is ``inf`` (always satisfied) for a
    Cucker-Smale ``beta <= 1/2`` and for every tabulated kernel.
    """
    monitor = FlockingMonitor(kernel, frames)
    r_v, lower, lhs = monitor.r_v, monitor.lower, monitor.start()[2]
    rhs = kernel.tail_integral(lower)
    satisfied = lhs < rhs
    if not satisfied:
        return FlockingCertificate(R_V=r_v, lhs=lhs, rhs=rhs, satisfied=False)
    d_star = kernel.budget_radius(lower, lhs)
    psi_star = kernel.profile(d_star)
    if psi_star >= 1.0:
        rate = 1.0  # flat-kernel / point-support limit of the Gronwall root
    elif psi_star == 0.0:
        rate = 0.0  # profile underflowed at d_star: the root's a -> 0 limit
    else:
        rate = gronwall_rate(psi_star, monitor.tau)
    return FlockingCertificate(R_V=r_v, lhs=lhs, rhs=rhs, satisfied=True,
                               d_star=d_star, psi_star=psi_star, predicted_rate=rate)


def fit_decay_rate(frames, t_start: float, t_end: float) -> float | None:
    """Least-squares decay exponent of d_V over [t_start, t_end].

    None when fewer than 3 frames fall in the window.  Frames with d_V below
    1e-14 are ignored (log underflow); if they leave fewer than 3 usable
    points the series has collapsed and the rate is reported as +infinity.
    """
    pts = [(f.t, f.d_V) for f in frames if t_start - 1e-12 <= f.t <= t_end + 1e-12]
    if len(pts) < 3:
        return None
    usable = [(t, dv) for t, dv in pts if dv >= 1e-14]
    if len(usable) < 3:
        return math.inf
    ts = np.array([t for t, _ in usable])
    logs = np.log([dv for _, dv in usable])
    slope = np.polyfit(ts, logs, 1)[0]
    return float(-slope)
