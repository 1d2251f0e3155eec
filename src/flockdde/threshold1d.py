"""One-dimensional critical-threshold machinery and density reconstruction.

In one space dimension the velocity slope w along characteristics obeys a
perturbed Riccati equation whose forcing is bounded by a constant built from
the kernel's log-derivative bound and the prehistory speed bound.  That gives
a computable dichotomy: slopes above the subcritical root persist globally,
slopes below the supercritical root force the Jacobian to zero in finite
time.  Blow-up shows up numerically by one rule: a Jacobian determinant is
non-finite or the minimal one reaches DETJ_TOLERANCE, or a step leaves the
finite range.  ``dynamics._advance`` applies it to every slot of a run, t = 0
included, for both the integrator and the slope evolution, and the density
reconstruction applies the same predicate to the slice it is given, so the
Eulerian density is reconstructed only where the rule is not met.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.interpolate import PchipInterpolator
from scipy.optimize import brentq

from .dynamics import DETJ_TOLERANCE, BlowupEvent, BlowupSignal, _advance, _blowup_node
from .kernel import UnsupportedKernelError
from .state import _grid_steps

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
    blowup: BlowupEvent | None = None


def evolve_w(buffer, kernel, *, t_end: float) -> WEvolution:
    """Advance a 1-d buffer to ``t_end`` and record the slope quotient at every step.

    Steps through the integrator's loop, so it stops under the same rule at
    the same slot, t = 0 included: the first whose det J meets the blow-up
    rule, with that (time, node) as the event, or the last finite one when a
    step leaves the finite range.  Rows are recorded for the slots before a
    blow-up slot.  ``t_end`` must lie on the buffer's step grid at or after
    its time, or ValueError is raised.
    """
    if buffer.latest.dim != 1:
        raise ValueError("slope evolution is defined in one space dimension only")
    n_steps = _grid_steps(t_end - buffer.current_time, buffer.h)
    if n_steps is None:
        raise ValueError(f"t_end = {t_end} is not a step of size {buffer.h} on or after "
                         f"t = {buffer.current_time}")

    times, w_rows = [], []
    for _, blowup in _advance(buffer, kernel, n_steps):
        if blowup is None:
            _, _, jac, vgrad = buffer.slot(buffer.clock)
            times.append(buffer.current_time)
            w_rows.append(vgrad[:, 0, 0] / jac[:, 0, 0])
    w = np.array(w_rows).reshape(len(times), buffer.masses.size)
    return WEvolution(np.array(times), w, blowup)


def detect_blowup(frames) -> BlowupEvent | None:
    """First time the minimal Jacobian determinant reaches DETJ_TOLERANCE.

    The crossing is refined between the bracketing frames by ``brentq`` on a
    monotone cubic interpolant of the min-detJ series; the node is the
    crossing frame's worst node.
    """
    times = np.array([f.t for f in frames])
    mins = np.array([f.min_detJ for f in frames])
    hit = np.nonzero(mins <= DETJ_TOLERANCE)[0]
    if hit.size == 0:
        return None
    k = int(hit[0])
    node = frames[k].worst_node
    if k == 0:
        return BlowupEvent(float(times[0]), node)
    interp = PchipInterpolator(times[max(0, k - 3):k + 3],
                               mins[max(0, k - 3):k + 3] - DETJ_TOLERANCE)
    return BlowupEvent(brentq(interp, times[k - 1], times[k], xtol=1e-300), node)


def reconstruct_density(ensemble):
    """Eulerian density values carried by the nodes at their current positions.

    Each node reports ``density / det(jacobian)`` with density the initial
    mass per cell volume, so the reconstruction conserves mass exactly:
    sum(h * detJ * cell_volume) = sum(masses) = 1.  Raises BlowupSignal, naming
    the node, where det J meets the blow-up rule: a det J is non-finite or min
    det J <= DETJ_TOLERANCE.
    """
    dets = ensemble.det_jacobians()
    node = _blowup_node(dets)
    if node is not None:
        raise BlowupSignal(time=ensemble.time, node=node, reason="non-invertible tangent flow")
    h_vals = (ensemble.masses / ensemble.cell_volumes) / dets
    return ensemble.positions.copy(), h_vals
