"""One-dimensional critical thresholds: the Riccati dichotomy.

In one space dimension the velocity slope w along characteristics obeys a
perturbed Riccati equation whose forcing is bounded by a constant built from
the kernel's log-derivative bound and the prehistory speed bound.  That gives
a computable dichotomy: slopes above the subcritical root persist globally,
slopes below the supercritical root force the Jacobian to zero in finite
time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = ["ThresholdVerdict", "classify"]

# Two constant conventions exist for this classification; the conservative
# one is used (4*C_bar under both radicals, and the kernel's C_psi) and the
# verdict's note records C_psi and the alternatives so downstream consumers
# can rescale.
def _constants_note(kernel) -> str:
    remark = f"{kernel.log_deriv_remark}, and " if kernel.log_deriv_remark else ""
    return (f"classification uses {kernel.log_deriv_note} and roots "
            f"(-1 -/+ sqrt(1 -/+ 4*C_bar))/2; {remark}an alternative convention pairs "
            "sqrt(1 + C_bar) with the condition C_bar <= 1")


@dataclass
class ThresholdVerdict:
    """Classification of a 1-d initial slope against the Riccati thresholds;
    the fields are its keys in ``summary.json`` and in ``threshold``'s output."""

    c_bar: float
    w1_minus: float | None
    w2_minus: float
    verdict: str                    # global-existence | finite-time-blowup | indeterminate
    bound: float | None             # blow-up time bound on finite-time-blowup
    note: str


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
    c_bar = 2.0 * kernel.log_deriv_bound * r_v
    w1_minus = (-1.0 - math.sqrt(1.0 - 4.0 * c_bar)) / 2.0 if 4.0 * c_bar <= 1.0 else None
    w2_minus = (-1.0 - math.sqrt(1.0 + 4.0 * c_bar)) / 2.0
    if w1_minus is not None and w0_min >= w1_minus:
        verdict, bound = "global-existence", None
    elif w0_min < w2_minus:
        verdict, bound = "finite-time-blowup", 1.0 / (w2_minus - w0_min)
    else:
        verdict, bound = "indeterminate", None
    return ThresholdVerdict(c_bar, w1_minus, w2_minus, verdict, bound,
                            _constants_note(kernel))
