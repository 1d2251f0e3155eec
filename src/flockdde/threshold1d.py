"""One-dimensional critical-threshold machinery and density reconstruction.

In one space dimension the velocity slope w along characteristics obeys a
perturbed Riccati equation whose forcing is bounded by a constant built from
the kernel's log-derivative bound and the prehistory speed bound.  That gives
a computable dichotomy: slopes above the subcritical root persist globally,
slopes below the supercritical root force the Jacobian to zero in finite
time.  Blow-up shows up numerically as the minimal Jacobian determinant
reaching a small tolerance, and the Eulerian density is reconstructed from
the tangent flow wherever the Jacobian is still invertible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.interpolate import PchipInterpolator

from .dynamics import DETJ_TOLERANCE, BlowupSignal, step
from .kernel import UnsupportedKernelError

__all__ = [
    "DETJ_TOLERANCE",
    "ThresholdVerdict",
    "WEvolution",
    "classify",
    "detect_blowup",
    "evolve_w",
    "reconstruct_density",
]

# Two constant conventions exist for this classification; the conservative
# one is used (C_psi = 2*beta, 4*C_bar under both radicals) and the verdict's
# note records the alternatives so downstream consumers can rescale.
_CONSTANTS_NOTE = (
    "classification uses C_psi = 2*beta and roots (-1 -/+ sqrt(1 -/+ 4*C_bar))/2; "
    "the sharper elementary bound |psi'| <= beta*psi would halve C_bar, and an "
    "alternative convention pairs sqrt(1 + C_bar) with the condition C_bar <= 1"
)


@dataclass
class ThresholdVerdict:
    """Classification of a 1-d initial slope against the Riccati thresholds."""

    c_bar: float
    w1_minus: float | None
    w2_minus: float
    verdict: str                    # global-existence | finite-time-blowup | indeterminate
    blowup_bound: float | None = None
    note: str = _CONSTANTS_NOTE

    def to_dict(self):
        return {
            "c_bar": self.c_bar,
            "w1_minus": self.w1_minus,
            "w2_minus": self.w2_minus,
            "verdict": self.verdict,
            "bound": self.blowup_bound,
            "note": self.note,
        }


def classify(w0_min: float, kernel, r_v: float) -> ThresholdVerdict:
    """Classify the minimal initial velocity slope.

    ``C_bar = 2 C_psi R_V`` bounds the slope forcing.  If ``4 C_bar <= 1``
    and the slope stays above the subcritical root the solution is global; if
    it lies below the supercritical root the Jacobian vanishes before
    ``1 / (w2_minus - w0_min)``; between the roots the analysis is silent.
    """
    w0_min = float(w0_min)
    r_v = float(r_v)
    if not math.isfinite(w0_min) or not math.isfinite(r_v) or r_v < 0:
        raise ValueError("w0_min must be finite and R_V a finite nonnegative real")
    c_psi = kernel.log_deriv_bound
    if c_psi is None:
        raise UnsupportedKernelError(
            "threshold classification needs a kernel with a log-derivative bound"
        )
    c_bar = 2.0 * c_psi * r_v
    w1_minus = (-1.0 - math.sqrt(1.0 - 4.0 * c_bar)) / 2.0 if 4.0 * c_bar <= 1.0 else None
    w2_minus = (-1.0 - math.sqrt(1.0 + 4.0 * c_bar)) / 2.0
    if w1_minus is not None and w0_min >= w1_minus:
        return ThresholdVerdict(c_bar, w1_minus, w2_minus, "global-existence")
    if w0_min < w2_minus:
        bound = 1.0 / (w2_minus - w0_min)
        return ThresholdVerdict(c_bar, w1_minus, w2_minus, "finite-time-blowup",
                                blowup_bound=bound)
    return ThresholdVerdict(c_bar, w1_minus, w2_minus, "indeterminate")


@dataclass
class WEvolution:
    """Per-node slope trajectories w_i(t) = vel_gradient_i / jacobian_i."""

    times: np.ndarray   # (K,)
    w: np.ndarray       # (K, N)
    blowup: tuple[float, int] | None = None


def evolve_w(buffer, kernel, h: float, t_end: float) -> WEvolution:
    """Advance a 1-d buffer and record the slope quotient at every step.

    Stops with a (time, node) blow-up record as soon as some Jacobian drops
    to zero or below; values already recorded stay valid.
    """
    if buffer.latest.dim != 1:
        raise ValueError("slope evolution is defined in one space dimension only")
    times = [buffer.current_time]
    w_rows = [buffer.latest.vel_gradients[:, 0, 0] / buffer.latest.jacobians[:, 0, 0]]
    blow = None
    n_steps = int(round((t_end - buffer.current_time) / h))
    for _ in range(n_steps):
        try:
            step(buffer, kernel, h)
        except BlowupSignal as sig:
            blow = (sig.time, sig.node if sig.node is not None else -1)
            break
        ens = buffer.latest
        jac = ens.jacobians[:, 0, 0]
        if jac.min() <= 0.0:
            blow = (ens.time, int(jac.argmin()))
            break
        times.append(ens.time)
        w_rows.append(ens.vel_gradients[:, 0, 0] / jac)
    return WEvolution(np.array(times), np.array(w_rows), blow)


def detect_blowup(frames, tolerance: float = DETJ_TOLERANCE):
    """First time the minimal Jacobian determinant reaches ``tolerance``.

    Returns (time, node) or None.  The crossing is refined between the
    bracketing frames by 40 bisection steps on a monotone cubic interpolant
    of the min-detJ series.
    """
    times = np.array([f.t for f in frames])
    mins = np.array([f.min_detJ for f in frames])
    hit = np.nonzero(mins <= tolerance)[0]
    if hit.size == 0:
        return None
    k = int(hit[0])
    node = frames[k].worst_node
    if k == 0:
        return float(times[0]), node
    lo_i = max(0, k - 3)
    hi_i = min(len(frames), k + 3)
    interp = PchipInterpolator(times[lo_i:hi_i], mins[lo_i:hi_i] - tolerance)
    lo, hi = float(times[k - 1]), float(times[k])
    for _ in range(40):
        mid = 0.5 * (lo + hi)
        if interp(mid) > 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi), node


def reconstruct_density(ensemble, tolerance: float = DETJ_TOLERANCE):
    """Eulerian density values carried by the nodes at their current positions.

    Each node reports ``density / det(jacobian)`` with density the initial
    mass per cell volume, so the reconstruction conserves mass exactly:
    sum(h * detJ * cell_volume) = sum(masses) = 1.
    """
    dets = ensemble.det_jacobians()
    if dets.min() <= tolerance:
        raise BlowupSignal(time=ensemble.time, node=int(dets.argmin()),
                           reason="non-invertible tangent flow")
    h_vals = (ensemble.masses / ensemble.cell_volumes) / dets
    return ensemble.positions.copy(), h_vals
