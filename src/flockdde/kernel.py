"""Influence kernels: radial communication weights and their integrals.

A kernel is the nonincreasing, strictly positive radial profile that weighs
pairwise interactions by distance, normalized to 1 at distance zero.  Two
families are provided: the algebraic ``1/(1+r^2)^beta`` profile and a
tabulated profile interpolated monotonically from sample points.  Each has one
exact ``integral(a, b)`` of its profile, on which every kernel integral in the
package is built (both inherit the certificate's tail and budget radius from
it), and a log-derivative bound: every claim is answered for every family.
Kernels are immutable and all methods are pure, so instances are safe to
share across threads.
"""

from __future__ import annotations

import math

import numpy as np

from .roots import _WIDE_MAXITER, brentq

__all__ = [
    "CuckerSmaleKernel",
    "TabulatedKernel",
]

# From this radius on, (1 + r^2)^-beta = r^(-2 beta) (1 + O(beta / r^2)) in
# double precision, so the Cucker-Smale integrals take their power-law forms.
_FAR = 1e20
_ASINH_MAX = math.asinh(np.finfo(float).max)

_special = None


def _scipy_special():
    """``scipy.special``, imported on the first call, so a run at beta 0, 1/2
    or 1 never loads it.  Kept at module level, never on a kernel, which is
    pickled to sweep workers."""
    global _special
    if _special is None:
        from scipy import special as _special
    return _special


class _Kernel:
    """The certificate's two integrals, built on a family's ``integral``."""

    def tail_integral(self, R: float) -> float:
        """``integral(R, inf)``, ``math.inf`` where the tail diverges (the
        unconditional-flocking branch): Cucker-Smale with ``beta <= 1/2``, and
        every tabulated profile, whose constant tail is positive."""
        R = float(R)
        if not R >= 0:
            raise ValueError(f"tail integral lower limit must be nonnegative, got {R}")
        return self.integral(R, math.inf)

    def budget_radius(self, a: float, budget: float) -> float:
        """Smallest ``d >= a`` with ``integral(a, d) == budget``: one root in
        ``s = asinh d`` bracketed by the float range, ``math.inf`` when ``d``
        lies beyond it (as for a budget not below ``tail_integral(a)``)."""
        a, budget = float(a), float(budget)
        if budget <= 0.0:
            return a

        def excess(s):
            return self.integral(a, math.sinh(s)) - budget

        if excess(_ASINH_MAX) <= 0.0:
            return math.inf
        if excess(math.asinh(a)) >= 0.0:  # budget below the rounding of a
            return a
        return math.sinh(brentq(excess, math.asinh(a), _ASINH_MAX, xtol=1e-300,
                                maxiter=_WIDE_MAXITER))


class CuckerSmaleKernel(_Kernel):
    """Algebraic profile ``(1 + r^2)^{-beta}`` with ``beta >= 0``.

    ``beta = 0`` gives the flat kernel (identically 1).  The profile is
    normalized, nonincreasing and strictly positive, and its log-derivative
    is bounded: ``|d/dr psi| <= 2 beta psi`` everywhere.
    """

    # the threshold verdict's note names C_psi and a sharper bound, if one is known
    log_deriv_note = "C_psi = 2*beta"
    log_deriv_remark = "the sharper elementary bound |psi'| <= beta*psi would halve C_bar"

    def __init__(self, beta: float):
        beta = float(beta)
        if beta < 0 or not math.isfinite(beta):
            raise ValueError(f"beta must be a finite nonnegative real, got {beta}")
        self.beta = beta
        if beta > 0.5 and beta != 1.0:  # the profile integrates to _total, half of it below _median
            special = _scipy_special()
            q = beta - 0.5
            self._total = 0.5 * float(special.beta(0.5, q))
            u = float(special.betaincinv(q, 0.5, 0.5))
            self._median = math.sqrt((1.0 - u) / u) if u > 0.0 else math.inf

    def __repr__(self):
        return f"CuckerSmaleKernel(beta={self.beta})"

    @property
    def log_deriv_bound(self) -> float:
        """Constant C with ``|psi'| <= C psi``; 2*beta for this family."""
        return 2.0 * self.beta

    # only bench/spans.py names eval and eval_deriv, until item 9a
    def eval(self, r):
        """Profile value at radii ``r``, an array of their shape, in [0, 1]."""
        return self._radial(r)[0]

    def eval_deriv(self, r):
        """Radial derivative ``wd * r`` of the profile; NaN at r = inf."""
        return self._radial(r)[1]

    def _radial(self, r):
        # one eval_with_deriv_sq call on r * r, a 0-d radius read as shape (1,)
        r = np.asarray(r, dtype=float)[..., None]
        if np.any(r < 0):
            raise ValueError("kernel radius must be nonnegative")
        # r * r overflows to inf above about 1.3e154, where psi is 0 and wd -0
        with np.errstate(over="ignore", invalid="ignore"):
            psi, wd = self.eval_with_deriv_sq(r * r)
            return psi[..., 0], (wd * r)[..., 0]

    def profile(self, r: float) -> float:
        """Profile value at one radius ``r >= 0``, in plain floats.

        The power ``(1 + r * r)^-beta`` of ``eval_with_deriv_sq``: at beta = 1
        the same correctly rounded reciprocal, bit for bit, and at every other
        beta libm's ``pow``, whose last bit can differ from numpy's array
        ``pow``, which may take a SIMD path.
        """
        if self.beta == 0.0:
            return 1.0
        r = float(r)
        if self.beta == 1.0:
            return 1.0 / (1.0 + r * r)
        return (1.0 + r * r) ** -self.beta

    @property
    def is_flat(self) -> bool:
        """True when the profile is identically 1 (``beta = 0``)."""
        return self.beta == 0.0

    def eval_with_deriv_sq(self, q):
        """Profile ``psi`` and ``psi'(r) / r`` at squared radii ``q = r^2``.

        Both come from one power: ``psi = (1 + q)^-beta`` and
        ``psi'/r = -2 beta psi / (1 + q)``, finite at ``q = 0``.  At beta = 1
        that power is one correctly rounded reciprocal, at half the cost of
        numpy's array ``pow``, which may take a SIMD path.  ``q`` is an
        array of nonnegative values (or NaN, which propagates); both results
        are new arrays that the caller may overwrite.
        """
        base = 1.0 + q
        psi = np.reciprocal(base) if self.beta == 1.0 else base ** (-self.beta)
        dpsi_r = np.divide(psi, base, out=base)
        dpsi_r *= -2.0 * self.beta
        return psi, dpsi_r

    def integral(self, a: float, b: float) -> float:
        """Integral of the profile from ``a`` to ``b``, oriented; ``b`` may be inf.

        Closed forms, to about 1e-14 relative (1e-13 just below beta = 1/2):
        ``b - a``, ``asinh`` at beta = 1/2, ``r 2F1(1/2, beta; 3/2; -r^2)``
        below, at beta = 1 the one arctangent ``atan((b - a) / (1 + a b))``,
        within 4 ulp also as ``b`` nears ``a``, and otherwise above 1/2
        the incomplete beta function (DLMF 8.17) on the side of the median
        radius where the difference does not cancel, or ``b - a`` where
        beta b^2 < 2^-53.  Results below the normal range may come out as 0.
        """
        a, b = float(a), float(b)
        if a < 0 or b < 0:
            raise ValueError("kernel radius must be nonnegative")
        if b < a:
            return -self.integral(b, a)
        beta = self.beta
        if beta == 0.0:
            return b - a
        if beta == 0.5:
            return math.asinh(b) - math.asinh(a)
        if beta < 0.5:
            return math.inf if b == math.inf else self._antiderivative(b) - self._antiderivative(a)
        if beta == 1.0:  # atan b - atan a, with no difference of two arctangents
            if b == math.inf:
                return math.atan2(1.0, a)
            if b <= 1e154:  # a b <= b^2 stays finite
                return math.atan((b - a) / (1.0 + a * b))
            return math.atan(((b - a) / b) / (1.0 / b + a))
        if beta * b * b < 2.0**-53:  # the profile is 1 to rounding on [a, b]
            return b - a
        if b <= self._median:
            share = self._share(b, upper=False) - self._share(a, upper=False)
        elif a >= self._median:
            share = self._share(a, upper=True) - self._share(b, upper=True)
        else:
            share = 1.0 - self._share(a, upper=False) - self._share(b, upper=True)
        return self._total * float(share)

    def _antiderivative(self, r):
        special = _scipy_special()
        beta = self.beta
        if r <= 10.0:
            # Pfaff's transformation: just below beta = 1/2, hyp2f1 at z = -r^2
            # loses up to 3e-13 relative on this range, at w = r^2/(1+r^2) 1e-15
            s = 1.0 + r * r
            return r * s**-beta * float(special.hyp2f1(1.0, beta, 1.5, r * r / s))
        if r < _FAR:
            return r * float(special.hyp2f1(0.5, beta, 1.5, -r * r))
        return (r / r ** (2.0 * beta) / (1.0 - 2.0 * beta)
                + 0.5 * float(special.beta(0.5, beta - 0.5)))

    def _share(self, r, upper):
        # share of the integral on [0, r] (on [r, inf) if upper), never 1 minus
        # the other share: in x = r^2/(1+r^2) up to r = 1, beyond in u = 1 - x
        q = self.beta - 0.5
        if r >= _FAR:
            tail = r ** (-2.0 * q) / (2.0 * q * self._total)
            return tail if upper else 1.0 - tail
        special = _scipy_special()
        if r <= 1.0:
            x = r * r / (1.0 + r * r)
            return special.betaincc(0.5, q, x) if upper else special.betainc(0.5, q, x)
        u = 1.0 / (1.0 + r * r)
        return special.betainc(q, 0.5, u) if upper else special.betaincc(q, 0.5, u)


class TabulatedKernel(_Kernel):
    """Monotone piecewise-cubic profile through ``(radii, values)`` samples.

    The table must start at radius 0 with value 1 (normalization) and the
    values must be positive and nonincreasing.  Beyond the last node the
    profile extends as a constant, which keeps it positive and nonincreasing;
    the derivative there is 0, and the integral grows linearly, so every tail
    integral is ``+inf`` and the certificate holds for every datum and delay.
    """

    log_deriv_note = "C_psi = the largest max|p'| of a tabulated piece over its right-node value"
    log_deriv_remark = ""

    def __init__(self, radii, values):
        from scipy.interpolate import PchipInterpolator  # loaded for tables alone

        radii = np.asarray(radii, dtype=float)
        values = np.asarray(values, dtype=float)
        if radii.ndim != 1 or radii.shape != values.shape or radii.size < 2:
            raise ValueError("radii and values must be equal-length 1-d arrays with >= 2 nodes")
        if np.any(np.diff(radii) <= 0):
            raise ValueError("radii must be strictly increasing")
        if radii[0] != 0.0 or values[0] != 1.0:
            raise ValueError("tabulated profile must start at radius 0 with value 1")
        if np.any(values <= 0):
            raise ValueError("tabulated values must be strictly positive")
        if np.any(np.diff(values) > 0):
            raise ValueError("tabulated values must be nonincreasing")
        self.radii = radii.copy()
        self.values = values.copy()
        self.radii.flags.writeable = False
        self.values.flags.writeable = False
        with np.errstate(over="ignore"):  # an overflowing table is rejected below
            self._interp = PchipInterpolator(radii, values, extrapolate=False)
        self._interp_deriv = self._interp.derivative()
        self._interp_antideriv = self._interp.antiderivative()
        # the antiderivative's quartics overflow on a gap of 2**256 (about
        # 1.16e77) or more, and their coefficients on one below about 1e-102
        if not math.isfinite(self._primitive(radii[-1])):
            raise ValueError("the table's integral is not finite: a gap between radii "
                             "is 2**256 or wider, or too narrow for its cubic")

    def __repr__(self):
        return f"TabulatedKernel({self.radii.size} nodes, last radius {self.radii[-1]})"

    @property
    def log_deriv_bound(self) -> float:
        """Constant C with ``|psi'| <= C psi``: the largest ``max |p'|`` of a
        cubic piece ``p`` over the value at its right node, the least on the
        piece since PCHIP keeps each piece monotone; ``p'`` is 0 beyond."""
        # p' on piece k is 3 c0 t^2 + 2 c1 t + c2 for t in [0, h_k]: its
        # largest magnitude is at an end or at the vertex t = -c1 / (3 c0)
        c0, c1, c2 = self._interp.c[:3]
        h = np.diff(self.radii)
        with np.errstate(divide="ignore", invalid="ignore"):
            vertex = -c1 / (3.0 * c0)
        t = np.where((vertex > 0.0) & (vertex < h), vertex, 0.0)
        slopes = np.abs([c2, (3.0 * c0 * h + 2.0 * c1) * h + c2,
                         (3.0 * c0 * t + 2.0 * c1) * t + c2])
        return float((slopes.max(axis=0) / self.values[1:]).max())

    def profile(self, r: float) -> float:
        """Profile value at one radius ``r >= 0`` as a plain float."""
        r = float(r)
        if r < 0:
            raise ValueError("kernel radius must be nonnegative")
        return float(self._interp(min(r, self.radii[-1])))

    @property
    def is_flat(self) -> bool:
        """True when every tabulated value is 1 (the profile is constant)."""
        return bool(np.all(self.values == 1.0))

    def eval_with_deriv_sq(self, q):
        """Profile and ``psi'(r) / r`` at squared radii ``q``, read off the
        PCHIP pieces at ``r = sqrt(q)`` clamped to the last radius.

        The quotient is 0 at ``r = 0``, the radially symmetric value of
        ``psi'(r) * unit`` there, and from the last radius on, where the
        profile is constant.  Both results are new arrays.
        """
        r = np.sqrt(q)
        inside = np.minimum(r, self.radii[-1])
        with np.errstate(invalid="ignore", divide="ignore"):
            dpsi_r = np.where((r > 0.0) & (r < self.radii[-1]), self._interp_deriv(inside) / r, 0.0)
        return self._interp(inside), dpsi_r

    def integral(self, a: float, b: float) -> float:
        """Integral of the profile from ``a`` to ``b``, oriented; ``b`` may be inf."""
        a, b = float(a), float(b)
        if a < 0 or b < 0:
            raise ValueError("kernel radius must be nonnegative")
        return self._primitive(b) - self._primitive(a)

    def _primitive(self, r):
        # the cubic's antiderivative inside the table, linear beyond it
        last = float(self.radii[-1])
        return (float(self._interp_antideriv(min(r, last)))
                + float(self.values[-1]) * max(r - last, 0.0))
